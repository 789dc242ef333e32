"""Command-line front end.

Subcommands:

``coeffs``
    dump the coefficient table, one row per key of the potential at
    ``(--imax, --degmax)`` of weight at most ``--imax``;
``potential``
    build the potential at a policy and emit it;
``map``
    reconstruct the exterior map from a moment-vector JSON: its tail to
    ``--order-J`` and its closure, in the curve shape that ``moments`` reads;
``moments``
    compute harmonic moments of a boundary-curve JSON;
``verify``
    run the verification suite (nonzero exit on gated failure): the
    checks that this build is the potential -- the exact oracles and
    residuals, the closed form of the two-moment (ellipse) family when
    ``n_max >= 2`` -- and with ``--in`` the roundtrip that its map fits the
    curve.  ``--seed`` is parsed and read by nothing: it is kept only
    while the benchmark's ``verify`` workload passes it, and goes with
    the next change to that workload.
    It validates its arguments, builds, calls each check of
    :mod:`taumap.verify` and writes their results; every judgement is made
    there.  ``--stats PATH`` (``-`` for standard error) also writes what
    the report leaves out: the seconds of the build, of each check and of
    that measure, and the size of the Toda residuals outside the cone they
    judge (:func:`taumap.verify.out_of_cone_maxima`); the report is the
    same with or without it.

Every subcommand writes one JSON document with sorted keys, to ``--out`` or
to standard output (there with a closing newline): exact values as integer
``num``/``den`` pairs, floats in ``repr`` round-trip form.  Outputs are
deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import takewhile
from math import isfinite

from .coefficients import MemoCache, admissible_keys, n2_coefficient
from .confmap import map_from_potential
from .moments import MomentVector, curve_from_json, moments_from_curve, v_moments_from_curve
from .potential import build_potential
from .series import TruncationPolicy, series_to_json_terms
from .verify import (
    cauchy_data_check,
    combinatorial_formula_check,
    ellipse_oracle_check,
    out_of_cone_maxima,
    roundtrip_check,
    toda_residual_a,
    toda_residual_b,
    toda_residual_c,
)

__all__ = ["main", "build_parser"]


def _read_json(path: str) -> dict:
    """The UTF-8 JSON document at ``path``, standard input for ``-``; input
    that is not UTF-8, or has a syntax error, is a ``ValueError`` that
    names the input.  Standard input is decoded from its bytes, as a file
    is, whatever the locale; a text stream with no bytes beneath it (an
    ``io.StringIO``) is read as it stands."""
    source = "standard input" if path == "-" else path
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return json.loads(sys.stdin.read() if raw is None else raw.read().decode("utf-8"))
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from None


def _write_json(path: str | None, obj, stream=None) -> None:
    """``obj`` to ``path``; to ``stream`` (standard output by default) for
    ``None`` or ``-``."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is None or path == "-":
        print(text, file=stream or sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _policy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nmax", type=int, default=4, help="max moment index")
    parser.add_argument("--degmax", type=int, default=4, help="max factor degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taumap",
        description="Exterior conformal maps from harmonic moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dump the coefficient table")
    p.add_argument("--imax", type=int, default=4, help="max weight")
    p.add_argument("--degmax", type=int, default=6, help="max factor degree")
    p.add_argument("--out", default=None)

    p = sub.add_parser("potential", help="build and emit the potential")
    _policy_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("map", help="exterior map from a moment vector")
    _policy_args(p)
    p.add_argument("--in", dest="in_path", required=True, help="moment JSON")
    p.add_argument(
        "--order-J", dest="order_j", type=int, default=None,
        help="order J of the written tail, default n_max + deg_max",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("moments", help="harmonic moments of a boundary curve")
    p.add_argument("--in", dest="in_path", required=True, help="curve JSON")
    p.add_argument("--n", type=int, default=4, help="number of moments")
    p.add_argument("--dual", action="store_true", help="also emit dual moments v_k")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the verification suite")
    _policy_args(p)
    p.add_argument("--order", type=int, default=None, help="residual order")
    p.add_argument("--in", dest="in_path", default=None, help="optional curve JSON")
    p.add_argument("--roundtrip-tol", type=float, help="sup-error bound, default 1e-3")
    p.add_argument(
        "--seed", type=int, default=0,
        help="ignored: kept only while the benchmark's verify workload passes it",
    )
    p.add_argument("--out", default=None)
    p.add_argument(
        "--stats", default=None, metavar="PATH",
        help="also write timings and out-of-cone residual sizes, - for stderr",
    )

    return parser


# -- subcommand bodies --------------------------------------------------------


def _cmd_coeffs(args) -> int:
    if args.imax < 1:
        raise ValueError(f"--imax must be >= 1, got {args.imax}")
    if args.degmax < 2:
        raise ValueError(f"--degmax must be >= 2, got {args.degmax}")
    rows = []
    cache = MemoCache()
    # the keys come by weight ascending, so the walk stops past --imax
    keys = admissible_keys(TruncationPolicy(args.imax, args.degmax))
    for key, _ in takewhile(lambda pair: pair[0].i <= args.imax, keys):
        value = n2_coefficient(key.oriented(), cache)
        row = {"i": key.i, "unbarred": key.unbarred, "barred": key.barred}
        rows.append(row | {"num": value.numerator, "den": value.denominator})
    _write_json(args.out, rows)
    return 0


def _cmd_potential(args) -> int:
    policy = _policy(args)
    potential, report = build_potential(policy)
    payload = {
        "policy": {"n_max": policy.n_max, "deg_max": policy.deg_max},
        "singular": {
            "log_t0_coeff": [
                potential.singular_log_coeff.numerator,
                potential.singular_log_coeff.denominator,
            ],
            "quad_coeff": [
                potential.singular_quad_coeff.numerator,
                potential.singular_quad_coeff.denominator,
            ],
        },
        "terms": series_to_json_terms(potential.regular),
        "report": report.to_json(),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_map(args) -> int:
    policy = _policy(args)
    order = _map_order(args, policy)
    moments = MomentVector.from_json(_read_json(args.in_path))
    potential, _ = build_potential(policy)
    w = map_from_potential(potential, moments, order)
    _write_json(args.out, w.to_json())
    return 0


def _cmd_moments(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    curve = curve_from_json(_read_json(args.in_path))
    payload = moments_from_curve(curve, args.n).to_json()
    if args.dual:
        payload["v"] = [[v.real, v.imag] for v in v_moments_from_curve(curve, args.n)]
    _write_json(args.out, payload)
    return 0


def _cmd_verify(args) -> int:
    if args.in_path is None and args.roundtrip_tol is not None:
        raise ValueError("--roundtrip-tol sets the roundtrip's bound: it needs --in")
    tol = 1e-3 if args.roundtrip_tol is None else args.roundtrip_tol
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"--roundtrip-tol must be finite and >= 0, got {tol}")
    policy = _policy(args)
    order = args.order if args.order is not None else min(policy.n_max, policy.deg_max)
    if not 0 <= order <= policy.n_max:
        raise ValueError(f"--order must be in 0..{policy.n_max}, got {order}")
    curve = None if args.in_path is None else curve_from_json(_read_json(args.in_path))
    if curve is not None:
        # a curve without moments is an input error, named before the build
        moments_from_curve(curve, policy.n_max)
    potential, build = build_potential(policy)

    runs = [
        lambda: combinatorial_formula_check(potential),
        lambda: cauchy_data_check(potential),
    ]
    if policy.n_max >= 2:
        runs.append(lambda: ellipse_oracle_check(potential))
    runs += [
        lambda: toda_residual_a(potential, order),
        lambda: toda_residual_c(potential, order),
        lambda: toda_residual_b(potential),
    ]
    if curve is not None:
        runs.append(lambda: roundtrip_check(curve, potential, tol))
    checks = []
    elapsed = {"build": build.elapsed}
    for run in runs:
        start = time.perf_counter()
        checks.append(run())
        elapsed[checks[-1].name] = time.perf_counter() - start

    if args.stats is not None:
        start = time.perf_counter()
        maxima = out_of_cone_maxima(potential, order)
        elapsed["out_of_cone_maxima"] = time.perf_counter() - start
        _write_json(args.stats, {"elapsed_s": elapsed, "max_abs_out_of_cone": maxima}, sys.stderr)
    ok = all(check.ok for check in checks)
    report = {
        "policy": {"n_max": policy.n_max, "deg_max": policy.deg_max},
        "order": order,
        "build": build.to_json(),
        "checks": {check.name: check.to_json() for check in checks},
        "pass": ok,
    }
    _write_json(args.out, report)
    for check in sorted(checks, key=lambda c: c.name):
        print(f"{'PASS' if check.ok else 'FAIL'} {check.name}", file=sys.stderr)
    return 0 if ok else 1


def _map_order(args, policy: TruncationPolicy) -> int:
    """The length ``--order-J`` of the written tail, by default ``n_max + deg_max``."""
    if args.order_j is None:
        return policy.n_max + policy.deg_max
    if args.order_j < 0:
        raise ValueError(f"--order-J must be >= 0, got {args.order_j}")
    return args.order_j


def _policy(args) -> TruncationPolicy:
    """The policy of ``--nmax`` and ``--degmax``; one that admits no key is an error.

    Such a policy has an empty potential, on which every check passes and
    every map is the disk's, so a result there would say nothing.
    """
    policy = TruncationPolicy(args.nmax, args.degmax)
    if policy.n_max < 1 or policy.deg_max < 2:
        raise ValueError(
            f"policy n_max={policy.n_max}, deg_max={policy.deg_max} admits no "
            "potential term to check (needs --nmax >= 1 and --degmax >= 2)"
        )
    return policy


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "potential": _cmd_potential,
    "map": _cmd_map,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
