"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload is a class with

* ``setup()``: generate the inputs from the seed and do whatever the
  operations share (timed as ``setup_s``);
* ``op(index)``: one timed operation; returns an opaque result;
* ``check(result)``: the correctness check of that result, outside the
  timed region; returns an error message or ``None``;
* ``sup_errors()``: the roundtrip error of each domain the run mapped.

``Maps`` also has ``setup_error()``, checked after each set-up.

The program is imported only through the ``taumap`` package, which
``run.py`` puts on the path before it imports this module.  Module
attributes are looked up at call time, so that the tracer's wrappers are
the ones the operations call.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from taumap import cli, coefficients, confmap, moments, potential, series

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "digests.json").read_text())

# The test circle and sample count that ``verify.roundtrip`` uses.
TEST_RADIUS = 1.25
CHECK_POINTS = 512


def potential_digest(pot) -> str:
    """sha256 of the exact potential: regular terms plus singular coefficients."""
    payload = {
        "regular": series.series_to_json_terms(pot.regular),
        "singular": [
            [pot.singular_log_coeff.numerator, pot.singular_log_coeff.denominator],
            [pot.singular_quad_coeff.numerator, pot.singular_quad_coeff.denominator],
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_error(pot, n_max: int, deg_max: int) -> str | None:
    key = f"{n_max},{deg_max}"
    got = potential_digest(pot)
    if got != DIGESTS[key]:
        return f"potential ({key}) digest {got} != recorded {DIGESTS[key]}"
    return None


def default_cache_error() -> str | None:
    """Warm process-global state would flatter cold numbers: it must stay empty."""
    cache = getattr(coefficients, "DEFAULT_CACHE", None)
    if cache is not None and any(cache.sizes().values()):
        return f"DEFAULT_CACHE is not empty: {cache.sizes()}"
    return None


def circle_points(radius: float, count: int) -> list[complex]:
    return [
        complex(radius * math.cos(2 * math.pi * k / count),
                radius * math.sin(2 * math.pi * k / count))
        for k in range(count)
    ]


def roundtrip_error(w, curve, points) -> float:
    """sup |w(z(u)) - u| over the test points."""
    return max(abs(confmap.evaluate_map(w, curve.z_of(u)) - u) for u in points)


# The A8 ellipse z = u + 0.05/u: the verify input, and the fixed domain on
# which the build workload measures the accuracy of the potential it built.
ELLIPSE = {"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]], "samples": 256}


def random_curve(rng: random.Random, modes: int, total: float):
    """``z = u + sum a_j u^-j`` with ``modes`` distinct j in 1..6 and random phases.

    The amplitudes are random shares of ``sum j |a_j| = total``; with
    ``total < 1`` the curve is univalent, which ``BoundaryCurve`` enforces.
    """
    js = sorted(rng.sample(range(1, 7), modes))
    shares = [rng.random() + 0.05 for _ in js]
    scale = total / sum(shares)
    a = [0j] * (js[-1] + 1)
    for j, share in zip(js, shares):
        phase = rng.uniform(0, 2 * math.pi)
        a[j] = cmath.rect(share * scale / j, phase)
    return moments.BoundaryCurve(1.0, tuple(a))


class Build:
    """Cold ``(6,7)`` potential build; all its work is in ``coefficients``."""

    N_MAX, DEG_MAX = 6, 7

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.policy = potential.default_policy(self.N_MAX, self.DEG_MAX)
        self.ellipse = moments.curve_from_json(ELLIPSE)
        self.points = circle_points(TEST_RADIUS, CHECK_POINTS)
        self.last = None

    def op(self, index: int):
        pot, _ = potential.build_potential(self.policy, cache=coefficients.MemoCache())
        return pot

    def check(self, pot) -> str | None:
        self.last = pot
        return digest_error(pot, self.N_MAX, self.DEG_MAX) or default_cache_error()

    def sup_errors(self) -> list[float]:
        m = moments.moments_from_curve(self.ellipse, self.N_MAX)
        w = confmap.map_from_potential(self.last, m, self.N_MAX + self.DEG_MAX)
        return [roundtrip_error(w, self.ellipse, self.points)]


class Verify:
    """The exact self-check ``taumap verify`` on the A8 ellipse, in process."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.curve_path = self.workdir / f"verify_curve_{self.seed}.json"
        self.curve_path.write_text(json.dumps(ELLIPSE))
        self.argv = [
            "verify", "--nmax", "5", "--degmax", "6", "--order", "4",
            "--in", str(self.curve_path), "--seed", str(self.seed),
        ]
        self.stdout = None
        self.error = None

    def op(self, index: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"verify exited {code}: {err.strip()}"
        report = json.loads(out)
        if report.get("pass") is not True:
            return f"verify report does not pass: {err.strip()}"
        if self.stdout is None:
            self.stdout = out
        elif out != self.stdout:
            return "verify stdout differs from the first op of the run"
        self.error = report["checks"]["roundtrip"]["sup_error"]
        return default_cache_error()

    def sup_errors(self) -> list[float]:
        return [self.error]


class Maps:
    """Many seeded domains served from one prebuilt ``(8,6)`` potential.

    The curve pool is fixed by the seed and every op of a run takes the next
    curve, cycling; a run makes at least one pass over the pool, so the
    errors are a function of the seed alone.
    """

    N_MAX, DEG_MAX = 8, 6
    POOL = 256
    MAX_MODES = 6
    MODE_TOTAL = 0.2
    # About three times the largest error seen (3.6e-3 over 15 seeds of 256
    # curves); a broken map misses by orders of magnitude.
    TOLERANCE = 1e-2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.curves = [
            random_curve(rng, rng.randint(1, self.MAX_MODES), self.MODE_TOTAL)
            for _ in range(self.POOL)
        ]
        self.points = circle_points(TEST_RADIUS, CHECK_POINTS)
        policy = potential.default_policy(self.N_MAX, self.DEG_MAX)
        self.pot, _ = potential.build_potential(policy, cache=coefficients.MemoCache())
        self.errors = [0.0] * self.POOL

    def setup_error(self) -> str | None:
        return digest_error(self.pot, self.N_MAX, self.DEG_MAX) or default_cache_error()

    def op(self, index: int):
        k = index % self.POOL
        curve = self.curves[k]
        m = moments.moments_from_curve(curve, self.N_MAX)
        w = confmap.map_from_potential(self.pot, m, self.N_MAX)
        return k, roundtrip_error(w, curve, self.points)

    def check(self, result) -> str | None:
        k, err = result
        self.errors[k] = err
        if not err <= self.TOLERANCE:
            return f"curve {k}: sup error {err} exceeds {self.TOLERANCE}"
        return default_cache_error()

    def sup_errors(self) -> list[float]:
        return self.errors
