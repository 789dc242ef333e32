"""Command-line front end.

Subcommands:

``coeffs``
    dump the coefficient table for all keys up to a weight bound;
``potential``
    build the potential at a policy and emit it as JSON;
``map``
    reconstruct the exterior map from a moment-vector JSON;
``moments``
    compute harmonic moments of a boundary-curve JSON;
``verify``
    run the exact verification suite (nonzero exit on gated failure);
``ellipse``
    compare the built potential against the closed form of the
    two-moment family.

All outputs are deterministic for a fixed config and seed: JSON is emitted
with sorted keys and floats use ``repr`` round-trip formatting.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from math import comb, isfinite

from .coefficients import (
    MemoCache,
    NKey,
    bounded_compositions_count,
    bounded_partitions,
    n2_coefficient,
)
from .confmap import MomentVector, map_from_potential
from .moments import (
    BoundaryCurve,
    curve_from_json,
    moments_from_curve,
    moments_to_csv,
    v_moments_from_curve,
)
from .potential import (
    CheckResult,
    build_potential,
    cauchy_data_check,
    combinatorial_formula_check,
    default_policy,
    ellipse_oracle_check,
)
from .series import TruncationPolicy, series_to_json_terms
from .verify import (
    factorial_pattern_check,
    roundtrip,
    toda_residual_a,
    toda_residual_b,
    toda_residual_c,
)

__all__ = ["main", "build_parser"]


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


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
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("potential", help="build and emit the potential")
    _policy_args(p)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="csv emits per-term plot data (degree vs coefficient magnitude)",
    )

    p = sub.add_parser("map", help="exterior map from a moment vector")
    _policy_args(p)
    p.add_argument("--in", dest="in_path", required=True, help="moment JSON")
    p.add_argument("--order-J", dest="order_j", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("moments", help="harmonic moments of a boundary curve")
    p.add_argument("--in", dest="in_path", required=True, help="curve JSON")
    p.add_argument("--n", type=int, default=4, help="number of moments")
    p.add_argument("--samples", type=int, default=None, help="override curve samples")
    p.add_argument("--dual", action="store_true", help="also emit dual moments v_k")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify", help="run the verification suite")
    _policy_args(p)
    p.add_argument("--order", type=int, default=None, help="residual order")
    p.add_argument("--in", dest="in_path", default=None, help="optional curve JSON")
    p.add_argument("--order-J", dest="order_j", type=int, default=None)
    p.add_argument("--roundtrip-tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled bound checks")
    p.add_argument("--out", default=None)

    p = sub.add_parser("ellipse", help="compare against the two-moment closed form")
    _policy_args(p)
    p.add_argument("--out", default=None)

    return parser


# -- subcommand bodies --------------------------------------------------------


def _cmd_coeffs(args) -> int:
    if args.imax < 1:
        raise ValueError(f"--imax must be >= 1, got {args.imax}")
    if args.degmax < 2:
        raise ValueError(f"--degmax must be >= 2, got {args.degmax}")
    rows = []
    cache = MemoCache()
    for weight in range(1, args.imax + 1):
        sides = list(bounded_partitions(weight, weight, args.degmax - 1))
        for unbarred in sides:
            for barred in sides:
                deg = sum(m for _, m in unbarred) + sum(m for _, m in barred)
                if deg > args.degmax:
                    continue
                value = n2_coefficient(NKey(unbarred, barred, weight), cache)
                rows.append((weight, unbarred, barred, value))

    def pairs(side) -> str:
        return " ".join(f"{idx}:{mult}" for idx, mult in side)

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["i", "unbarred", "barred", "num", "den"])
        for weight, unb, bar, value in rows:
            writer.writerow(
                [weight, pairs(unb), pairs(bar), value.numerator, value.denominator]
            )
        _write_text(args.out, buf.getvalue())
    else:
        payload = [
            {
                "i": weight,
                "unbarred": [list(p) for p in unb],
                "barred": [list(p) for p in bar],
                "num": value.numerator,
                "den": value.denominator,
            }
            for weight, unb, bar, value in rows
        ]
        _write_text(args.out, _dump_json(payload))
    return 0


def _cmd_potential(args) -> int:
    policy = default_policy(args.nmax, args.degmax)
    potential, report = build_potential(policy)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["degree", "t0_power", "monomial", "num", "den", "abs"])
        for mono, c in potential.regular.sorted_items():
            row = [mono.degree, mono.t0_power, str(mono), c.numerator, c.denominator]
            writer.writerow(row + [repr(abs(float(c)))])
        _write_text(args.out, buf.getvalue())
        return 0
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
        "report": {
            "keys_evaluated": report.keys_evaluated,
            "nonzero_terms": report.nonzero_terms,
        },
    }
    _write_text(args.out, _dump_json(payload))
    return 0


def _cmd_map(args) -> int:
    moments = MomentVector.from_json(_read_json(args.in_path))
    policy = default_policy(args.nmax, args.degmax)
    order = _map_order(args, policy)
    potential, _ = build_potential(policy, map_order=order)
    w = map_from_potential(potential, moments, order)
    _write_text(args.out, _dump_json(w.to_json()))
    return 0


def _cmd_moments(args) -> int:
    curve = curve_from_json(_read_json(args.in_path))
    if args.samples is not None:
        curve = BoundaryCurve(curve.r, curve.a, args.samples)
    moments = moments_from_curve(curve, args.n)
    if args.format == "csv":
        _write_text(args.out, moments_to_csv(moments))
        return 0
    payload = moments.to_json()
    if args.dual:
        payload["v"] = [[v.real, v.imag] for v in v_moments_from_curve(curve, args.n)]
    _write_text(args.out, _dump_json(payload))
    return 0


def _cmd_verify(args) -> int:
    if not (isfinite(args.roundtrip_tol) and args.roundtrip_tol >= 0):
        raise ValueError(
            f"--roundtrip-tol must be finite and >= 0, got {args.roundtrip_tol}"
        )
    if args.order_j is not None and args.in_path is None:
        raise ValueError("--order-J sets the roundtrip's map order: it needs --in")
    curve = curve_from_json(_read_json(args.in_path)) if args.in_path else None
    policy = default_policy(args.nmax, args.degmax)
    order = args.order if args.order is not None else min(policy.n_max, policy.deg_max)
    order_j = _map_order(args, policy) if curve is not None else None
    potential, build = _build_checked_potential(policy, map_order=order_j)
    cache = MemoCache()

    checks = [
        combinatorial_formula_check(potential),
        cauchy_data_check(potential, potential.k_max),
    ]
    if policy.n_max >= 2:
        checks.append(ellipse_oracle_check(potential))
    checks += [
        factorial_pattern_check(min(6, policy.n_max + 2), cache=cache),
        toda_residual_a(potential, order),
        toda_residual_c(potential, order),
        toda_residual_b(potential),
        _composition_count_bound(args.seed, cache),
    ]

    if curve is not None:
        rt = roundtrip(curve, potential, order_j, 1.25)
        within = rt.sup_error <= args.roundtrip_tol
        checks.append(
            CheckResult(
                "roundtrip",
                1,
                [] if within else [f"sup error {rt.sup_error} > {args.roundtrip_tol}"],
                {
                    "sup_error": rt.sup_error,
                    "tolerance": args.roundtrip_tol,
                    "gate_admissible": rt.gate.admissible,
                    "warnings": rt.warnings,
                },
            )
        )
        # reported, not judged: the gate is a sufficient condition only
        checks.append(
            CheckResult(
                "convergence_gate",
                0,
                metrics={
                    "admissible": rt.gate.admissible,
                    "bound": rt.gate.bound,
                    "offending": rt.gate.offending,
                },
            )
        )

    ok = all(check.ok for check in checks)
    report = {
        "policy": {"n_max": policy.n_max, "deg_max": policy.deg_max},
        "order": order,
        "build": {
            "keys_evaluated": build.keys_evaluated,
            "nonzero_terms": build.nonzero_terms,
        },
        "checks": {check.name: check.to_json() for check in checks},
        "pass": ok,
    }
    _write_text(args.out, _dump_json(report))
    for check in sorted(checks, key=lambda c: c.name):
        print(f"{'PASS' if check.ok else 'FAIL'} {check.name}", file=sys.stderr)
    return 0 if ok else 1


def _map_order(args, policy: TruncationPolicy) -> int:
    """The map order ``--order-J``, by default ``n_max + deg_max``."""
    return args.order_j if args.order_j is not None else policy.n_max + policy.deg_max


def _build_checked_potential(policy: TruncationPolicy, **options):
    """:func:`build_potential` for a check; a policy without keys is an error.

    Every check passes on a potential with no terms, so such a PASS would
    say nothing.
    """
    potential, build = build_potential(policy, **options)
    if not build.keys_evaluated:
        raise ValueError(
            f"policy n_max={policy.n_max}, deg_max={policy.deg_max} admits no "
            "potential term to check (needs --nmax >= 1 and --degmax >= 2)"
        )
    return potential, build


def _composition_count_bound(seed: int, cache: MemoCache) -> CheckResult:
    """Sampled bound on the composition count: ``P <= C(i-1, m-1)``."""
    rng = random.Random(seed)
    bad = []
    checked = 0
    for _ in range(200):
        m = rng.randint(1, 5)
        s = tuple(rng.randint(1, 8) for _ in range(m))
        i = rng.randint(1, max(1, sum(s) - 1))
        j = sum(s) - i
        if j < 1:
            continue
        checked += 1
        count = bounded_compositions_count(i, s, cache)
        limit = min(comb(i - 1, m - 1), comb(j - 1, m - 1))
        if count > limit:
            bad.append(f"P({i},{s}) = {count} > {limit}")
    return CheckResult("composition_count_bound", checked, bad)


def _cmd_ellipse(args) -> int:
    if args.nmax < 2:
        print("ellipse comparison needs --nmax >= 2", file=sys.stderr)
        return 2
    policy = default_policy(args.nmax, args.degmax)
    potential, _ = _build_checked_potential(policy)
    report = ellipse_oracle_check(potential)
    _write_text(args.out, _dump_json(report.to_json()))
    return 0 if report.ok else 1


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "potential": _cmd_potential,
    "map": _cmd_map,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
    "ellipse": _cmd_ellipse,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
