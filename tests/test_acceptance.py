"""Acceptance suite: one test (and one printed PASS/FAIL line) per gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate lines.

Gate A8 (the ellipse roundtrip at n_max=4, deg_max=6, J=8, tolerance 1e-5)
needs the exterior-map one-point functions B_k = d0 d_k F up to k = J+1 = 9.
Those beyond the index bound, such as B_6 = 20 a^3 + O(a^5) and
B_8 = 70 a^4 + ..., come from the exact one-point sector of the potential
(taumap.potential.build_potential), which the potential carries when it is
built with map_order=8.  When they were taken as zero the gate
sat on a floor of about 1.5e-4 at every degree bound; with the sector the
errors fall monotonically to about 6.2e-7.
"""

import math
import random
import time
from fractions import Fraction
from math import comb, factorial

from taumap.coefficients import (
    MemoCache,
    NKey,
    SLMatrix,
    bounded_compositions_count,
    bounded_partitions,
    compositions,
    n1_coefficient,
    n2_coefficient,
    s_coefficient,
    t1_coefficient,
    t2_coefficient,
)
from taumap.confmap import map_from_potential
from taumap.moments import BoundaryCurve, MomentVector, moments_from_curve, v_moments_from_curve
from taumap.potential import build_potential, default_policy
from taumap.verify import (
    cauchy_data_check,
    convergence_gate,
    degree_term_sums,
    ellipse_oracle_check,
    factorial_pattern_check,
    roundtrip,
    toda_residual_a,
    toda_residual_b,
    toda_residual_c,
)

SEED = 20260811
ELLIPSE_CURVE = BoundaryCurve(r=1.0, a=(0.0, 0.05), samples=256)


def gate_line(tag: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {tag} {name}: {status}{suffix}")


def test_a01_ellipse_closed_form_exact():
    start = time.perf_counter()
    potential, _ = build_potential(default_policy(2, 4))
    report = ellipse_oracle_check(potential)
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed <= 10.0
    gate_line("A1", "ellipse closed form, indices <= 2, degree <= 4",
              ok, f"{report.checked} coefficients, {elapsed:.2f}s")
    assert report.ok, report.violations[:5]
    assert elapsed <= 10.0


def test_a02_cauchy_data_exact_through_weight_six():
    start = time.perf_counter()
    potential, _ = build_potential(default_policy(6, 6))
    report = cauchy_data_check(potential)
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed <= 60.0
    gate_line("A2", "Cauchy data on the t0 line, indices <= 6",
              ok, f"{report.checked} identities, {elapsed:.2f}s")
    assert report.ok, report.violations[:5]
    assert elapsed <= 60.0


def test_a03_factorial_pattern():
    report = factorial_pattern_check(6)
    gate_line("A3", "factorial pattern against all-ones barred side",
              report.ok, f"{report.checked} shapes")
    assert report.ok, report.violations[:5]


def test_a04_bar_exchange_symmetry():
    cache = MemoCache()
    checked = 0
    bad = []
    max_side = 5 - 1
    for weight in range(1, 4 * max_side + 1):
        sides = list(bounded_partitions(weight, 4, max_side))
        for unbarred in sides:
            for barred in sides:
                if sum(m for _, m in unbarred) + sum(m for _, m in barred) > 5:
                    continue
                key = NKey(unbarred, barred)
                checked += 1
                if n2_coefficient(key, cache=cache) != n2_coefficient(
                    key.swapped(), cache=cache
                ):
                    bad.append(key)
    ok = not bad
    gate_line("A4", "bar-exchange symmetry within (n_max=4, deg_max=5)",
              ok, f"{checked} keys")
    assert ok, bad[:5]


def test_a05_hierarchy_residuals_vanish():
    start = time.perf_counter()
    potential, _ = build_potential(default_policy(4, 4))
    rep_a = toda_residual_a(potential, 4)
    rep_c = toda_residual_c(potential, 4)
    rep_b = toda_residual_b(potential)
    elapsed = time.perf_counter() - start
    ok = rep_a.ok and rep_c.ok and rep_b.ok and elapsed <= 120.0
    gate_line("A5", "hierarchy residuals exact in the reliable cone",
              ok, f"{rep_a.checked} cone cells each, {elapsed:.2f}s")
    assert rep_a.ok, rep_a.violations[:5]
    assert rep_c.ok, rep_c.violations[:5]
    assert rep_b.ok, rep_b.violations[:5]
    assert elapsed <= 120.0


def _random_composition(rng, total, parts):
    if parts == 1:
        return (total,)
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (total,)))


def test_a06_growth_bounds_on_random_keys():
    rng = random.Random(SEED)
    cache = MemoCache()
    draws = 10_000

    # composition count against binomial caps
    for _ in range(draws):
        m = rng.randint(1, 5)
        s = tuple(rng.randint(1, 8) for _ in range(m))
        total = sum(s)
        if total < 2:
            continue
        i = rng.randint(1, total - 1)
        j = total - i
        value = bounded_compositions_count(i, s, cache)
        assert value <= min(comb(i - 1, m - 1), comb(j - 1, m - 1)), (i, j, s)

    # grouped average against min(i, j)^(m-1) / m!
    for _ in range(draws):
        m = rng.randint(1, 4)
        s = tuple(rng.randint(1, 6) for _ in range(m))
        total = sum(s)
        if total < 2:
            continue
        i = rng.randint(1, total - 1)
        j = total - i
        value = t1_coefficient(i, s, cache)
        assert 0 <= value <= Fraction(min(i, j) ** (m - 1), factorial(m)), (i, j, s)

    # window contraction against I^(m-1) (k-1)^m (k-2)! / m!
    for _ in range(draws):
        k = rng.randint(2, 5)
        i_list = tuple(rng.randint(1, 5) for _ in range(k))
        total = sum(i_list)
        m = rng.randint(1, min(total, 4))
        s = _random_composition(rng, total, m)
        l = _random_composition(rng, m + k - 2, m)
        value = t2_coefficient(i_list, SLMatrix(s, l), cache=cache)
        cap = Fraction(
            max(i_list) ** (m - 1) * (k - 1) ** m * factorial(k - 2), factorial(m)
        )
        assert 0 <= value <= cap, (i_list, s, l)

    # ordered-partition sums against m (kbar-1)! C(I kbar - kbar, k-2) C(I kbar, kbar-m)
    stil_cache: dict = {}

    def s_tilde(barred, m, k):
        key = (barred, m, k)
        if key not in stil_cache:
            total = 0
            for s in compositions(sum(barred), m):
                for l in compositions(m + k - 2, m):
                    total += s_coefficient(barred, SLMatrix(s, l), cache)
            stil_cache[key] = total
        return stil_cache[key]

    for _ in range(draws):
        kbar = rng.randint(1, 4)
        barred = tuple(sorted(rng.randint(1, 3) for _ in range(kbar)))
        m = rng.randint(1, kbar)
        k = rng.randint(2, 5)
        cap_i = max(barred)
        cap = (
            m
            * factorial(kbar - 1)
            * comb(cap_i * kbar - kbar, k - 2)
            * comb(cap_i * kbar, kbar - m)
        )
        assert 0 <= s_tilde(barred, m, k) <= cap, (barred, m, k)

    # final coefficients against the exponential cap; exp is replaced by an
    # exact rational partial sum, a strict lower bound, so passing here is
    # stronger than the stated inequality
    def exp_lower(x: int) -> Fraction:
        return sum(Fraction(x**j, factorial(j)) for j in range(41))

    for _ in range(draws):
        k = rng.randint(1, 4)
        unbarred = tuple(sorted(rng.randint(1, 4) for _ in range(k)))
        weight = sum(unbarred)
        if rng.random() < 0.75 and weight >= 1:
            kbar = rng.randint(1, min(4, weight))
            barred = tuple(sorted(_random_composition(rng, weight, kbar)))
        else:
            kbar = rng.randint(1, 4)
            barred = tuple(sorted(rng.randint(1, 4) for _ in range(kbar)))
        value = n1_coefficient(weight, unbarred, barred, cache=cache)
        i_cap, ibar_cap = max(unbarred), max(barred)
        cap = (
            Fraction(factorial(k - 1) * factorial(kbar - 1))
            * exp_lower(i_cap * (k - 1))
            * Fraction(2 ** (ibar_cap * kbar - kbar) * 2 ** (ibar_cap * kbar))
        )
        assert value <= cap, (unbarred, barred, value)

    gate_line("A6", "growth bounds on 5 x 10^4 randomized keys", True, f"seed {SEED}")


def test_a07_disk_map_normalization():
    potential, _ = build_potential(default_policy(4, 4), map_order=8)
    ok = True
    for t0 in (0.25, 0.7, 1.0, 3.0):
        m = MomentVector(t0=t0, t=(0, 0, 0, 0))
        w = map_from_potential(potential, m, 8)
        ok = ok and abs(w.p - t0**-0.5) <= 1e-12 and all(c == 0 for c in w.tail)
    gate_line("A7", "disk map p = t0^(-1/2) with zero tail", ok)
    assert ok


def test_a08_roundtrip_at_pinned_policy():
    start = time.perf_counter()

    # moment validation: contour quadrature against the independent
    # area-integral closed forms of this curve family (t0 = r^2 - |a|^2,
    # t2 = conj(a)/(2r), odd moments zero); the generic midpoint-counting
    # oracle is far coarser and is exercised in tests/test_moments.py
    a = 0.05
    m = moments_from_curve(ELLIPSE_CURVE, 4)
    moment_err = max(
        abs(m.t0 - (1 - a * a)),
        abs(m.t[1] - a / 2),
        abs(m.t[0]),
        abs(m.t[2]),
        abs(m.t[3]),
    )
    moments_ok = moment_err <= 1e-10

    errors = {}
    for deg in (3, 4, 5, 6):
        potential, _ = build_potential(default_policy(4, deg), map_order=8)
        report = roundtrip(ELLIPSE_CURVE, potential, order=8)
        errors[deg] = report.sup_error
    elapsed = time.perf_counter() - start

    sup_ok = errors[6] <= 1e-5
    monotone_ok = all(errors[d + 1] <= errors[d] for d in (3, 4, 5))
    ok = moments_ok and sup_ok and monotone_ok and elapsed <= 60.0
    gate_line(
        "A8",
        "roundtrip at (n_max=4, deg_max=6, J=8)",
        ok,
        "sup " + ", ".join(f"deg {d}: {errors[d]:.3e}" for d in (3, 4, 5, 6))
        + f"; moments {moment_err:.1e}; {elapsed:.1f}s",
    )
    assert moments_ok, f"moment validation error {moment_err}"
    assert elapsed <= 60.0
    # B_k beyond the index bound come from the one-point sector; without it
    # the missing B_6 left a floor of ~1.5e-4, see module docstring
    assert sup_ok, f"sup error {errors[6]:.3e} > 1e-5"
    assert monotone_ok, f"errors by degree: {errors}"


def test_a09_dual_moment_consistency():
    potential, _ = build_potential(default_policy(4, 6))
    m = moments_from_curve(ELLIPSE_CURVE, 4)
    v = v_moments_from_curve(ELLIPSE_CURVE, 4)
    worst = 0.0
    for k in range(1, 5):
        value = potential.regular.diff_t(k).evaluate(m)
        worst = max(worst, abs(value - v[k]))
    ok = worst <= 1e-6
    gate_line("A9", "dual moments match potential derivatives", ok, f"max {worst:.2e}")
    assert ok, worst


def test_a10_convergence_gate_and_majorant():
    n = 2
    bound = 1.0 / (4 * n**3 * 2**n * math.exp(n))
    boundary = convergence_gate(MomentVector(t0=0.5, t=(0, bound)), n)
    too_big_t0 = convergence_gate(MomentVector(t0=1.5, t=()), n)
    overshoot = convergence_gate(MomentVector(t0=0.5, t=(0, bound * 1.001)), n)
    tail = convergence_gate(MomentVector(t0=0.5, t=(0, bound, bound)), n)
    verdicts_ok = (
        boundary.admissible
        and not too_big_t0.admissible
        and not overshoot.admissible
        and not tail.admissible
    )

    potential, _ = build_potential(default_policy(2, 8))
    fixture = MomentVector(t0=0.5, t=(bound, 0.9 * bound))
    assert convergence_gate(fixture, n).admissible
    sums = degree_term_sums(potential, fixture)
    majorant_ok = bool(sums) and all(
        total <= 2.0 ** (-degree) for degree, total in sums.items()
    )
    ok = verdicts_ok and majorant_ok
    gate_line("A10", "convergence gate and geometric majorant", ok,
              f"degrees checked: {sorted(sums)}")
    assert verdicts_ok
    assert majorant_ok, sums
