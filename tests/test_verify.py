"""Hierarchy residuals, coefficient patterns, gate, roundtrip."""

import itertools
import math

import numpy as np
import pytest

from taumap import verify
from taumap.confmap import map_from_potential
from taumap.moments import BoundaryCurve, MomentVector, moments_from_curve, v_moments_from_curve
from taumap.potential import build_potential, default_policy
from taumap.series import Monomial, PotentialSeries, TruncatedSeries, _Tail
from taumap.verify import (
    ROUNDTRIP_RADIUS,
    ROUNDTRIP_SAMPLES,
    combinatorial_formula_check,
    convergence_gate,
    degree_term_sums,
    factorial_pattern_check,
    roundtrip,
    roundtrip_check,
    toda_residual_a,
    toda_residual_b,
    toda_residual_c,
)

from helpers_recursion import reference_potential


@pytest.fixture(scope="module")
def potential_44():
    potential, _ = build_potential(default_policy(4, 4))
    return potential


@pytest.fixture(scope="module")
def residuals_order_4():
    """``(n_max, deg_max) -> (residual_a, residual_c)`` at order 4, each built once."""
    done = {}

    def get(n_max, deg_max):
        if (n_max, deg_max) not in done:
            potential, _ = build_potential(default_policy(n_max, deg_max))
            done[n_max, deg_max] = (
                toda_residual_a(potential, 4),
                toda_residual_c(potential, 4),
            )
        return done[n_max, deg_max]

    return get


# -- residuals ---------------------------------------------------------------


def test_residual_a_vanishes_in_cone(potential_44):
    report = toda_residual_a(potential_44, 4)
    assert report.ok, report.violations[:5]
    assert report.name == "residual_a"


def test_residual_c_vanishes_in_cone(potential_44):
    report = toda_residual_c(potential_44, 4)
    assert report.ok, report.violations[:5]


def test_residuals_take_no_series_derivative(potential_44, monkeypatch):
    # the residuals take their derivatives on F's tail, as the solver does,
    # so their path builds no derivative or exponential series
    calls = []
    for name in ("diff_t0", "diff_t", "exp_no_constant"):
        original = getattr(TruncatedSeries, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    assert toda_residual_a(potential_44, 4).ok
    assert toda_residual_c(potential_44, 4).ok
    assert set(verify.out_of_cone_maxima(potential_44, 4)) == {"residual_a", "residual_c"}
    assert calls == []
    potential_44.regular.diff_t(1).diff_t0().exp_no_constant()  # the count is live
    assert calls == ["diff_t", "diff_t0", "exp_no_constant"]


def test_residual_b_by_bar_symmetry(potential_44):
    report = toda_residual_b(potential_44)
    assert report.ok, report.violations[:5]


def test_residual_b_judges_every_monomial():
    # every one of the 328 terms of the (5,6) build meets its mirror
    potential, report = build_potential(default_policy(5, 6))
    result = toda_residual_b(potential)
    assert result.ok, result.violations[:5]
    assert result.checked == report.nonzero_terms == 328


def test_combinatorial_formula_rejects_multinomial_window_weight():
    # the multinomial weight changes coefficients from index lists of
    # length four on; the reference potential under it, summed in one
    # orientation per mirror pair, stays symmetric by construction, so the
    # term-by-term comparison with the engine's recursion must reject it;
    # under the linear weight the reference passes the same comparison
    assert combinatorial_formula_check(reference_potential(default_policy(5, 6), "linear")).ok
    other = reference_potential(default_policy(5, 6), "multinomial")
    assert toda_residual_b(other).ok
    report = combinatorial_formula_check(other)
    assert not report.ok
    assert report.checked == 336
    assert len(report.violations) == 74
    assert report.violations[0] == "t1^4 * tbar2^2: built -1/4, formula 0"


def test_combinatorial_formula_at_the_builds_degrees():
    potential, _ = build_potential(default_policy(6, 8))
    report = combinatorial_formula_check(potential)
    assert report.ok, report.violations[:5]
    assert report.checked == 3778


@pytest.mark.slow
def test_combinatorial_formula_at_degree_nine():
    potential, _ = build_potential(default_policy(6, 9))
    report = combinatorial_formula_check(potential)
    assert report.ok, report.violations[:5]
    assert report.checked == 8128


def test_residual_b_detects_an_asymmetric_potential(potential_44):
    # either member of a mirror pair, perturbed, breaks the identity
    for mono in (
        Monomial(1, ((1, False, 2), (2, True, 1))),
        Monomial(1, ((2, False, 1), (1, True, 2))),
    ):
        assert not toda_residual_b(corrupted_once(potential_44, mono)).ok, mono


def test_residuals_detect_a_corrupted_potential(potential_44):
    # perturbing coefficients must break the exact identities inside the cone
    pair = Monomial(1, ((1, False, 1), (1, True, 1)))
    assert not toda_residual_c(corrupted_once(potential_44, pair), 4).ok
    # the pair constraint sees only plain derivatives, so corrupt a monomial
    # with two plain factors
    twist = Monomial(1, ((1, False, 2), (2, True, 1)))
    assert not toda_residual_a(corrupted_once(potential_44, twist), 4).ok


def test_violation_order_does_not_depend_on_insertion_order(potential_44, monkeypatch):
    # the report of a residual tail equals that of a copy whose cells and
    # terms were filled in reverse order
    tails = []
    judged = verify._judged

    def recorded(tail, name):
        tails.append(tail)
        return judged(tail, name)

    monkeypatch.setattr(verify, "_judged", recorded)
    pair = Monomial(1, ((1, False, 1), (1, True, 1)))
    result = toda_residual_c(corrupted_once(potential_44, pair), 4)
    (tail,) = tails
    # a judged cell lists more than one violation, so the order is not vacuous
    assert any(len(cell) > 1 for cell in tail.cells.values())
    reversed_cells = {
        key: dict(reversed(cell.items())) for key, cell in reversed(tail.cells.items())
    }
    copy = _Tail(tail.codec, tail.bound, reversed_cells, tail.den)
    assert judged(copy, result.name) == result


def test_residual_order_capped_by_policy(potential_44):
    for residual in (toda_residual_a, toda_residual_c, verify.out_of_cone_maxima):
        with pytest.raises(ValueError):
            residual(potential_44, 5)


@pytest.mark.parametrize(
    "residual", [toda_residual_a, toda_residual_c, verify.out_of_cone_maxima]
)
def test_residual_rejects_negative_order(potential_44, residual):
    # order -1 would leave only bidegree (0, 0) and pass vacuously
    with pytest.raises(ValueError, match="must be >= 0"):
        residual(potential_44, -1)


@pytest.mark.parametrize("n_max, deg_max", [(4, 4), (5, 6), (6, 6)])
def test_residual_cone_cells_where_degree_binds(residuals_order_4, n_max, deg_max):
    # with deg_max <= n_max + 1 the degree-and-index cone is a + b + d <=
    # deg_max; the judged cells add every d <= deg_max - 2 at the bidegrees
    # with max(a, b) <= n_max, up to (order + 1, order + 1)
    span = range(4 + 2)
    cells = sum(
        1
        for a, b, d in itertools.product(span, span, range(deg_max + 1))
        if a + b + d <= deg_max or (max(a, b) <= n_max and d <= deg_max - 2)
    )
    # the residuals expanded over the whole box and cut to the cone are
    # judged the same way, and are measured, not judged, outside the cone
    potential, _ = build_potential(default_policy(n_max, deg_max))
    box = _Tail.box((5, 5), deg_max)
    cone = verify._cone(potential.regular.policy, 4)
    maxima = verify.out_of_cone_maxima(potential, 4)
    residuals = (verify._residual_a, verify._residual_c)
    for report, residual in zip(residuals_order_4(n_max, deg_max), residuals):
        assert report.ok, report.violations[:5]
        assert report.checked == cells
        assert report.metrics == {}
        boxed = residual(potential.regular, box)
        cut = _Tail(boxed.codec, cone, boxed.cells, boxed.den)
        assert verify._judged(cut, report.name) == report
        assert maxima[report.name] > 0


@pytest.mark.parametrize("n_max, deg_max", [(3, 6), (4, 6), (5, 6), (3, 7), (2, 8)])
def test_residual_cone_vanishes_at_every_order(n_max, deg_max):
    # the cone holds every cell with max(a, b) <= n_max and d <= deg_max - 2;
    # on a correct build both residuals vanish there at every order
    potential, _ = build_potential(default_policy(n_max, deg_max))
    for order in range(n_max + 1):
        for residual in (toda_residual_a, toda_residual_c):
            report = residual(potential, order)
            assert report.ok, (order, report.name, report.violations[:3])


def corrupted_once(potential, mono):
    """``potential`` with the coefficient ``c`` of ``mono`` (0 if it has no
    such term) replaced by ``2c + 1``."""
    reg = potential.regular
    terms = dict(reg.items())
    terms[mono] = 2 * terms.get(mono, 0) + 1
    return PotentialSeries(TruncatedSeries(reg.policy, terms))


def assert_residual_c_catches_every_corruption(n_max, deg_max):
    # residual_c at order n_max - 1 judges a cell through which every
    # coefficient of the build enters
    potential, _ = build_potential(default_policy(n_max, deg_max))
    monos = [mono for mono, _ in potential.regular.sorted_items()]
    missed = [
        mono
        for mono in monos
        if toda_residual_c(corrupted_once(potential, mono), n_max - 1).ok
    ]
    assert not missed, missed[:5]
    return len(monos)


@pytest.mark.parametrize(
    "mono, built, formula",
    [
        (Monomial(1, ((1, False, 2), (2, True, 1))), 3, 1),
        # weight 2 against weight 1: no key of the formula
        (Monomial(2, ((2, False, 1), (1, True, 1))), 1, 0),
    ],
    ids=["corrupted", "outside-the-keys"],
)
def test_combinatorial_formula_names_the_one_wrong_monomial(potential_44, mono, built, formula):
    report = combinatorial_formula_check(corrupted_once(potential_44, mono))
    assert report.violations == [f"{mono}: built {built}, formula {formula}"]


def test_residual_c_catches_every_single_corruption_at_46():
    assert assert_residual_c_catches_every_corruption(4, 6) == 141


@pytest.mark.slow
def test_residual_c_catches_every_single_corruption_at_56():
    assert assert_residual_c_catches_every_corruption(5, 6) == 328


def test_residuals_reject_multinomial_window_weight_at_46():
    # the negative control fails both residuals at the policy and order of
    # the corruption sweep; the degree-and-index cone alone passed it there
    potential = reference_potential(default_policy(4, 6), "multinomial")
    assert not toda_residual_a(potential, 3).ok
    assert not toda_residual_c(potential, 3).ok


def test_mixed_derivative_restriction_matches_log_series(potential_44):
    # on the t0 line the mixed pair derivatives are diagonal: i * t0^i
    reg = potential_44.regular
    for i in range(1, 5):
        d = reg.diff_t(i).diff_t(i, barred=True).filter(lambda mono: not mono.factors)
        assert d.coefficient(Monomial(i, ())) == i
        for j in range(1, 5):
            if j != i:
                off = reg.diff_t(i).diff_t(j, barred=True).filter(lambda mono: not mono.factors)
                assert not off


def test_mirror_is_involution(potential_44):
    codec = potential_44.regular._tail.codec
    for mono, _ in potential_44.regular.items():
        mirror = codec.decode(codec.mirror(codec.encode(mono)))
        assert codec.decode(codec.mirror(codec.encode(mirror))) == mono
        assert mirror.degree == mono.degree and mirror.t0_power == mono.t0_power


def test_residuals_arbitrate_window_weight_at_degree_six(residuals_order_4):
    # the degree-6 cone reaches the first coefficient sector where the two
    # window-weight candidates disagree; the mixed constraint accepts the
    # shipped (linear) weight and rejects the multinomial one, read from the
    # reference as a negative control
    good_a, good_c = residuals_order_4(6, 6)
    assert good_a.ok
    assert good_c.ok

    other = reference_potential(default_policy(6, 6), "multinomial")
    assert not toda_residual_c(other, 4).ok


# -- factorial pattern ----------------------------------------------------------


def test_factorial_pattern_through_weight_six():
    from taumap.coefficients import bounded_partitions

    report = factorial_pattern_check(6)
    assert report.ok, report.violations[:5]
    assert report.checked == sum(
        len(list(bounded_partitions(i, i, i))) for i in range(1, 7)
    )


def test_factorial_pattern_values_explicit():
    from taumap.coefficients import NKey, n2_coefficient

    assert n2_coefficient(NKey(((1, 1),), ((1, 1),))) == 1  # 0!
    assert n2_coefficient(NKey(((5, 1),), ((1, 5),))) == 24  # 4!
    assert n2_coefficient(NKey(((2, 2),), ((1, 4),))) == 0  # k = 1, n = 2


# -- convergence gate -------------------------------------------------------------


def test_gate_accepts_plain_disk():
    verdict = convergence_gate(MomentVector(t0=0.5, t=(0, 0)), 2)
    assert verdict.admissible
    assert verdict.bound == 1.0 / (4 * 8 * 4 * math.exp(2))


def test_gate_boundary_case_admissible():
    n = 2
    bound = 1.0 / (4 * n**3 * 2**n * math.exp(n))
    verdict = convergence_gate(MomentVector(t0=0.5, t=(0, bound)), n)
    assert verdict.admissible


def test_gate_rejects_large_t0():
    verdict = convergence_gate(MomentVector(t0=1.5, t=()), 2)
    assert not verdict.admissible
    assert any("t0" in s for s in verdict.offending)


def test_gate_rejects_overshoot_and_tail():
    n = 2
    bound = 1.0 / (4 * n**3 * 2**n * math.exp(n))
    verdict = convergence_gate(
        MomentVector(t0=0.5, t=(0, 1.0001 * bound, 0.001)), n
    )
    assert not verdict.admissible
    assert len(verdict.offending) == 2


def test_degree_sums_majorized_by_geometric_tail():
    n = 2
    bound = 1.0 / (4 * n**3 * 2**n * math.exp(n))
    m = MomentVector(t0=0.5, t=(bound, bound * 0.9))
    assert convergence_gate(m, n).admissible
    potential, _ = build_potential(default_policy(2, 8))
    sums = degree_term_sums(potential, m)
    assert sums  # nonempty: degrees 2..8 carry terms
    for degree, total in sums.items():
        assert total <= 2.0 ** (-degree), (degree, total)


def test_degree_sums_reject_moments_outside_the_series_range():
    # moments far outside the convergence region give non-finite sums;
    # they are named, not returned as inf (and raise no numpy warning)
    potential, _ = build_potential(default_policy(3, 4))
    with pytest.raises(ValueError, match=r"degree 2 term sum = inf is not finite"):
        degree_term_sums(potential, MomentVector(0.5, (1e200,)))
    n = 2
    bound = 1.0 / (4 * n**3 * 2**n * math.exp(n))
    sums = degree_term_sums(potential, MomentVector(t0=0.5, t=(bound, 0.9 * bound)))
    assert sums and all(math.isfinite(total) for total in sums.values())


def test_degree_sums_of_zero_moments_are_zero_at_any_t0():
    # the t0 powers overflow at t0 = 1e40, but every monomial holds a zero
    # t_k, so each term is 0 rather than inf * 0 = nan
    potential, _ = build_potential(default_policy(4, 6))
    sums = degree_term_sums(potential, MomentVector(1e40, (0,) * 4))
    assert sums == {degree: 0.0 for degree in range(2, 7)}


def reference_degree_term_sums(potential, m):
    """The per-monomial loop ``degree_term_sums`` replaced."""
    mm = m.padded(potential.regular.policy.n_max)
    sums = {}
    for mono, coeff in potential.regular.items():
        single = TruncatedSeries(potential.regular.policy, {mono: coeff})
        sums[mono.degree] = sums.get(mono.degree, 0.0) + abs(single.evaluate(mm))
    return dict(sorted(sums.items()))


def test_degree_sums_match_per_monomial_loop(potential_44):
    n = 2
    bound = 1.0 / (4 * n**3 * 2**n * math.exp(n))
    potential_28, _ = build_potential(default_policy(2, 8))
    potential_56, _ = build_potential(default_policy(5, 6))
    cases = [
        (potential_28, MomentVector(t0=0.5, t=(bound, bound * 0.9))),
        (potential_44, MomentVector(t0=0.8, t=(0.05 + 0.02j, -0.01j, 0.003, 0.001))),
        (potential_56, moments_from_curve(CURVE, 5)),
    ]
    for potential, m in cases:
        got = degree_term_sums(potential, m)
        want = reference_degree_term_sums(potential, m)
        assert list(got) == list(want)
        for degree, total in want.items():
            assert abs(got[degree] - total) <= 1e-13 * total, (degree, got[degree], total)


# -- roundtrip ---------------------------------------------------------------------


CURVE = BoundaryCurve(r=1.0, a=(0.0, 0.05), samples=256)


def built(n_max, deg_max):
    potential, _ = build_potential(default_policy(n_max, deg_max))
    return potential


def test_roundtrip_circle_exact():
    report = roundtrip(BoundaryCurve(r=1.2, a=(), samples=128), built(3, 3))
    assert report.sup_error <= 1e-12
    assert report.gate.admissible is False  # t0 = 1.44 outside (0, 1)
    assert report.unconverged == []


def test_roundtrip_small_disk_admissible():
    report = roundtrip(BoundaryCurve(r=0.9, a=(), samples=128), built(2, 3))
    assert report.gate.admissible
    assert not report.gate.offending
    assert report.sup_error <= 1e-12


def test_roundtrip_ellipse_policy_sweep_and_warning():
    errors = {}
    for deg in (3, 6):
        report = roundtrip(CURVE, built(4, deg))
        errors[deg] = report.sup_error
        assert not report.gate.admissible  # t2 exceeds the sufficient bound
    assert errors[6] < errors[3]
    assert errors[6] <= 1e-7


def test_roundtrip_error_attains_target_at_higher_index_cutoff():
    report = roundtrip(CURVE, built(8, 6))
    assert report.sup_error <= 1e-5
    assert abs(report.p - 1.0) <= 1e-9


# the ellipse z(u) = u + 0.99/u, near its degenerate slit: at (6, 7) its
# moments put A = d0^2 F_reg at 6.03e7, where p = exp(-A/2) / sqrt(t0) is 0
FLAT_ELLIPSE = BoundaryCurve(r=1.0, a=(0.0, 0.99), samples=4096)


def test_roundtrip_check_fails_by_name_where_the_moments_give_no_map():
    potential = built(6, 7)
    with pytest.raises(ValueError) as raised:
        roundtrip(FLAT_ELLIPSE, potential)
    assert str(raised.value).startswith("A = d0^2 F_reg = 6.03299e+07 puts p ")
    check = roundtrip_check(FLAT_ELLIPSE, potential, 1e-3)
    assert check.name == "roundtrip" and check.checked == 1 and not check.ok
    assert check.violations == [f"no map at the curve's moments: {raised.value}"]
    assert check.metrics["sup_error"] is None and check.metrics["tolerance"] == 1e-3
    gate = convergence_gate(moments_from_curve(FLAT_ELLIPSE, 6), 6)
    assert check.metrics["gate"] == {
        "admissible": False, "bound": gate.bound, "offending": gate.offending
    }
    assert len(gate.offending) == 3  # |t2|, |t4| and |t6|


def test_roundtrip_check_raises_the_moments_input_error_once():
    # a curve whose interior misses the origin has no moments: that input
    # error propagates as the quadrature raised it, not chained to a copy of
    # itself, and is not reported as a map that does not exist
    off_origin = BoundaryCurve(r=1.0, a=(2.0,))
    with pytest.raises(ValueError, match="winding number about the origin") as raised:
        roundtrip_check(off_origin, built(2, 3), 1e-3)
    assert raised.value.__context__ is None and raised.value.__cause__ is None


ASYMMETRIC = BoundaryCurve(r=1.0, a=(0.0, 0.04 + 0.01j, 0.012j), samples=256)


def circle():
    return ROUNDTRIP_RADIUS * np.exp(2j * np.pi * np.arange(ROUNDTRIP_SAMPLES) / ROUNDTRIP_SAMPLES)


def test_roundtrip_asymmetric_curve_matches_full_index_build():
    # z(u) = u + (0.04+0.01j)/u + 0.012j/u^2 has complex moments t1..t3 and
    # none beyond; at n_max = 4 the closure is that of a full (9, 5) build in
    # its leading coefficients u_0..u_3 (measured 1.2e-17 apart), and it
    # inverts to a map no worse than the series map of order 8 from that build
    report = roundtrip(ASYMMETRIC, built(4, 5))
    full, _ = build_potential(default_policy(9, 5))
    full_report = roundtrip(ASYMMETRIC, full)
    closure, full_closure = report.map_series.closure, full_report.map_series.closure
    assert len(closure) == 4 and len(full_closure) == 9
    assert report.p == full_report.p
    assert max(abs(a - b) for a, b in zip(closure, full_closure[:4])) <= 1e-15
    w_full = map_from_potential(full, report.moments, 8)
    full_error = max(abs(w_full(ASYMMETRIC.z_of(complex(x))) - x) for x in circle())
    assert report.sup_error <= full_error
    assert report.sup_error <= 1e-5


def test_roundtrip_rotation_invariance():
    base = BoundaryCurve(r=1.0, a=(0.0, 0.05), samples=256)
    phase = complex(math.cos(0.7), math.sin(0.7))
    rotated = BoundaryCurve(
        base.r, tuple(phase ** (j + 1) * c for j, c in enumerate(base.a)), base.samples
    )
    potential = built(4, 5)
    r1 = roundtrip(base, potential)
    r2 = roundtrip(rotated, potential)
    assert abs(r1.sup_error - r2.sup_error) <= 1e-10


def newton_point(w, z):
    """``z_cl(x) = z`` solved at one point in Python complex arithmetic."""
    x = w(z)
    for _ in range(50):
        f = x / w.p + sum(u * x**-j for j, u in enumerate(w.closure)) - z
        df = 1 / w.p - sum(j * u * x ** (-j - 1) for j, u in enumerate(w.closure))
        x -= f / df
    return x


def test_roundtrip_array_error_equals_point_loop():
    report = roundtrip(ASYMMETRIC, built(4, 5))
    w = report.map_series
    loop = max(abs(newton_point(w, ASYMMETRIC.z_of(complex(x))) - complex(x)) for x in circle())
    assert abs(report.sup_error - loop) <= 1e-15
    # scalar calls stay in Python complex arithmetic
    assert type(ASYMMETRIC.z_of(1.25 + 0j)) is complex
    assert type(w(ASYMMETRIC.z_of(1.25 + 0j))) is complex


def test_reverted_tail_converges_to_the_newton_inverse():
    # the series map of order J is the closure's inverse reverted to z^-J;
    # on the test circle it approaches the Newton inverse as J grows
    potential = built(4, 5)
    m = moments_from_curve(ASYMMETRIC, 4)
    z = ASYMMETRIC.z_of(circle())
    x, done = verify._invert_closure(map_from_potential(potential, m, 4), z)
    assert done.all()
    gaps = [
        float(np.max(np.abs(map_from_potential(potential, m, order)(z) - x)))
        for order in (2, 4, 8, 16, 32)
    ]
    # measured 1.6e-3, 1.2e-4, 3.4e-6, 1.4e-9 and 1.6e-15
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] <= 1e-14, gaps


def test_roundtrip_names_a_point_where_newton_does_not_converge(monkeypatch):
    # one step from the series map leaves every point short of convergence:
    # the check fails and names the first point, and the error stays finite
    monkeypatch.setattr(verify, "NEWTON_STEPS", 1)
    result = verify.roundtrip_check(CURVE, built(3, 4), tol=1.0)
    assert not result.ok
    assert result.violations == [
        f"Newton on the closure did not converge at 512 of 512 points, first at u = {1.25 + 0j}"
    ]
    assert math.isfinite(result.metrics["sup_error"])


def test_dual_moments_on_asymmetric_complex_curve():
    # conjugation handling across barred slots: the identity d_k F = v_k
    # must hold for a curve with no special symmetry
    curve = BoundaryCurve(r=1.0, a=(0.02 + 0.01j, 0.03, 0.015j), samples=256)
    m = moments_from_curve(curve, 5)
    v = v_moments_from_curve(curve, 4)
    potential, _ = build_potential(default_policy(5, 6))
    for k in range(1, 5):
        value = potential.regular.diff_t(k).evaluate(m)
        assert abs(value - v[k]) <= 1e-6, k
