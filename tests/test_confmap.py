"""Exterior map reconstruction from the potential."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from taumap import confmap
from taumap.confmap import ExteriorMapSeries, _closure, _Kernel, evaluate_map, map_from_potential
from taumap.moments import BoundaryCurve, MomentVector, moments_from_curve
from taumap.potential import build_potential, default_policy
from taumap.series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy
from taumap.verify import degree_term_sums


@pytest.fixture(scope="module")
def potential_46():
    potential, _ = build_potential(default_policy(4, 6))
    return potential


def test_disk_map_exact(potential_46):
    # at t0 = 1e40 the t0 powers of the rows overflow to inf; every monomial
    # also holds a zero t_k, so each still reads 0 rather than inf * 0 = nan,
    # and the closure and the B_k beyond n_max are exactly 0 too
    for t0 in (0.25, 1.0, 2.0, 1e40):
        m = MomentVector(t0=t0, t=(0, 0, 0, 0))
        w = map_from_potential(potential_46, m, order=8)
        assert abs(w.p - t0**-0.5) <= 1e-12
        assert all(abs(c) == 0 for c in w.tail)
        assert w.closure == (0j,) * 4
        z = 2.0 * math.sqrt(t0) * cmath.exp(0.3j)
        assert abs(abs(evaluate_map(w, z)) - 2.0) <= 1e-12


def test_evaluate_map_trivial_cases():
    w = ExteriorMapSeries(p=2.0, tail=(0j, 0j))
    assert evaluate_map(w, 3.0) == 6.0
    w = ExteriorMapSeries(p=1.0, tail=(1.0 + 0j,))
    assert evaluate_map(w, 2.0) == 3.0


def test_leading_coefficient_positive_required():
    with pytest.raises(ValueError):
        ExteriorMapSeries(p=-1.0, tail=())


def test_p_real_positive_for_conjugate_symmetric_moments(potential_46):
    m = MomentVector(t0=0.8, t=(0.05 + 0.02j, -0.01j, 0.003, 0))
    w = map_from_potential(potential_46, m, order=8)
    assert w.p > 0


def test_conformal_radius_identity(potential_46):
    # log p = -1/2 (log t0 + A) with A = d0^2 F_reg at m: for moments with
    # barred values taken as conjugates, A must come out real
    m = MomentVector(t0=0.9, t=(0.04, 0.02j, 0.0, 0.001))
    a_val = potential_46.regular.diff_t0().diff_t0().evaluate(m)
    assert abs(a_val.imag) <= 1e-12


def test_ellipse_moments_give_unit_p(potential_46):
    # interior of u + a/u has t0 = 1 - a^2, t2 = a/2; its map has p = 1
    a = 0.05
    m = MomentVector(t0=1 - a * a, t=(0, a / 2, 0, 0))
    w = map_from_potential(potential_46, m, order=8)
    assert abs(w.p - 1.0) <= 1e-9
    # leading tail coefficients of the inverse of u + a/u: p1 = -a, p3 = -a^2
    assert abs(w.tail[1] - (-a)) <= 1e-6
    assert abs(w.tail[3] - (-a * a)) <= 1e-6
    assert abs(w.tail[0]) <= 1e-12 and abs(w.tail[2]) <= 1e-12


def test_translated_disk_map_reconstruction(potential_46):
    # moments of the unit disk centered at c: t0 = 1, t1 = conj(c), rest 0;
    # the one-point functions reproduce w(z) = z - c through the factorial
    # coefficient pattern, up to the index cutoff
    c = 0.1 + 0.05j
    m = MomentVector(t0=1.0, t=(c.conjugate(), 0, 0, 0))
    w = map_from_potential(potential_46, m, order=8)
    for z in (2.0 + 0.3j, -1.5 + 1.2j, 3.0j):
        assert abs(evaluate_map(w, z) - (z - c)) <= 5e-7


def test_moment_vector_validation():
    with pytest.raises(ValueError):
        MomentVector(t0=0.0)
    with pytest.raises(ValueError):
        MomentVector(t0=1.0, t=(float("nan"),))
    with pytest.raises(ValueError):
        map_from_potential_negative_order_helper()


def map_from_potential_negative_order_helper():
    potential, _ = build_potential(default_policy(2, 3))
    return map_from_potential(potential, MomentVector(t0=1.0), order=-1)


def test_moment_vector_json_round_trip():
    m = MomentVector(t0=0.75, t=(0.1 + 0.2j, -0.3j))
    again = MomentVector.from_json(m.to_json())
    assert again == m


def test_map_tail_beyond_n_max_comes_from_the_closure(potential_46):
    # order 8 needs B_k up to k = 9; beyond n_max = 4 they are the constant
    # terms of powers of the closure, and the tail through p_3 is that of a
    # map of B_1..B_4
    a = 0.05
    m = MomentVector(t0=1 - a * a, t=(0, a / 2, 0, 0))
    w = map_from_potential(potential_46, m, order=8)
    short = map_from_potential(potential_46, m, order=3)
    assert w.tail[:4] == short.tail
    assert w.closure == short.closure
    # the z^-5 coefficient of the inverse of u + a/u is -2 a^3; it is fed by
    # B_6, which only the closure supplies (taken as 0 it misses by 1e-4)
    assert abs(w.tail[5] - (-2 * a**3)) <= 1e-7


def test_moment_vector_rejects_non_finite_t0():
    for t0 in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="t0 must be finite and positive"):
            MomentVector(t0=t0)



@pytest.mark.parametrize(
    "payload, problem",
    [
        ({"p": math.inf, "tail": []}, "p must be finite and positive, got inf"),
        ({"p": math.nan, "tail": []}, "p must be finite and positive, got nan"),
        ({"p": 1.0, "tail": [[0, 0], [math.nan, 0]]}, "tail[1] = (nan+0j) is not finite"),
        ({"p": 1.0, "tail": [[0, math.inf]]}, "tail[0] = infj is not finite"),
    ],
)
def test_map_json_rejects_non_finite_numbers(payload, problem):
    with pytest.raises(ValueError) as err:
        ExteriorMapSeries(payload["p"], tuple(complex(*x) for x in payload["tail"]))
    assert str(err.value) == problem


def test_moment_vector_names_a_non_finite_moment():
    with pytest.raises(ValueError, match=r"t\[1\] = \(nan\+0j\) is not finite"):
        MomentVector(t0=1.0, t=(0.1, complex(math.nan, 0)))

# -- the compiled second derivatives -------------------------------------------


@pytest.fixture(scope="module")
def potential_86():
    potential, _ = build_potential(default_policy(8, 6))
    return potential


def map_rows(potential):
    """``[d0^2 F_reg, d0 d_1 F_reg, ..., d0 d_{n_max} F_reg]``, exact."""
    d0 = potential.regular.diff_t0()
    n_max = potential.regular.policy.n_max
    return [d0.diff_t0()] + [d0.diff_t(k) for k in range(1, n_max + 1)]


def laurent_power_constant(r, closure, k):
    """``[w^0] (r w + sum_j closure[j] w^-j)^k`` by repeated multiplication of
    ``{power of w: coefficient}`` dicts: the constant-term identity, taken
    independently of :mod:`taumap.confmap`."""
    poly = {1: complex(r)}
    poly.update({-j: complex(c) for j, c in enumerate(closure)})
    power = {0: 1 + 0j}
    for _ in range(k):
        out = {}
        for e1, c1 in power.items():
            for e2, c2 in poly.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        power = out
    return power.get(0, 0j)


def reference_map(potential, moments, order):
    """The map as computed before the kernel and the closure's recurrences:
    exact derivatives taken on every call and evaluated term by term with
    ``TruncatedSeries.evaluate``, ``B_k`` beyond ``n_max`` the constant terms
    of powers of the map's own closure, and the tail by the ``h`` recurrence
    as it was written."""
    n_max = potential.regular.policy.n_max
    m = moments.padded(n_max)
    d0 = potential.regular.diff_t0()
    a_val = d0.diff_t0().evaluate(m)
    p = math.exp(-a_val.real / 2) / math.sqrt(m.t0)
    closure = map_from_potential(potential, moments, 0).closure
    b = []
    for k in range(1, order + 2):
        if k <= n_max:
            b.append(d0.diff_t(k).evaluate(m))
        else:
            b.append(laurent_power_constant(1 / p, closure, k))
    c = [0j] + [-b[k - 1] / k for k in range(1, order + 2)]
    h = [1 + 0j]
    for n in range(1, order + 2):
        h.append(sum(k * c[k] * h[n - k] for k in range(1, n + 1)) / n)
    return p, [p * h[j + 1] for j in range(order + 1)]


def exact_value(series, t0, t):
    """``series`` at ``t0`` and Gaussian-rational ``t_k = (re, im)``, exactly."""

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    powers = {}

    def power(k, barred, e):
        if (k, barred, e) not in powers:
            re, im = t[k - 1]
            x = (re, -im) if barred else (re, im)
            powers[k, barred, e] = x if e == 1 else mul(x, power(k, barred, e - 1))
        return powers[k, barred, e]

    re = im = Fraction(0)
    for mono, c in series.items():
        v = (c * t0**mono.t0_power, Fraction(0))
        for k, barred, e in mono.factors:
            v = mul(v, power(k, barred, e))
        re += v[0]
        im += v[1]
    return re, im


@pytest.mark.parametrize("n_max, points", [(4, 3), (8, 2)])
def test_kernel_against_exact_rational_evaluation(
    n_max, points, potential_46, potential_86
):
    # dyadic moments are exact in binary64, so the whole error is the kernel's
    potential = {4: potential_46, 8: potential_86}[n_max]
    map_from_potential(potential, MomentVector(t0=1.0), order=n_max - 1)
    kernel = potential._map_kernel
    rows = map_rows(potential)
    rng = random.Random(20 + n_max)
    for _ in range(points):
        t0 = Fraction(rng.randint(2**9, 2**10), 2**10)
        t = [
            tuple(Fraction(rng.randint(-(2**10), 2**10), 2 ** (13 + 2 * k)) for _ in "ri")
            for k in range(1, n_max + 1)
        ]
        m = MomentVector(float(t0), tuple(complex(float(a), float(b)) for a, b in t))
        got = kernel(m)
        for i, row in enumerate(rows):
            re, im = exact_value(row, t0, t)
            exact = complex(float(re), float(im))
            assert abs(got[i] - exact) <= 1e-13 * abs(exact), (i, got[i], exact)


def seeded_curves(seed, count):
    """Seeded random curves ``u + sum_j a_j u^-j``, ``sum j|a_j| <= 0.2``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = [0j] + [
            cmath.rect(0.2 / 6 / j * rng.random(), rng.uniform(0, 2 * math.pi))
            for j in range(1, 7)
        ]
        out.append(BoundaryCurve(1.0, tuple(a)))
    return out


def curve_moments(seed, count, n_max):
    """Moments of the seeded random curves of :func:`seeded_curves`."""
    return [moments_from_curve(curve, n_max) for curve in seeded_curves(seed, count)]


@pytest.mark.parametrize(
    "n_max, order, beyond", [(4, 8, True), (4, 3, False), (8, 7, False), (8, 12, True)]
)
def test_map_matches_term_by_term_formula(n_max, order, beyond, potential_46, potential_86):
    # beyond: the tail reads B_k past n_max, from the closure
    assert (order + 1 > n_max) == beyond
    potential = {4: potential_46, 8: potential_86}[n_max]
    for m in curve_moments(n_max, 4, n_max):
        w = map_from_potential(potential, m, order)
        p, tail = reference_map(potential, m, order)
        assert abs(w.p - p) <= 1e-12
        assert len(w.tail) == len(tail)
        assert all(abs(x - y) <= 1e-12 for x, y in zip(w.tail, tail))


@pytest.mark.parametrize("n_max", [4, 8])
def test_closure_reproduces_the_kernel_b_k(n_max, potential_46, potential_86):
    # B_k = [w^0] z_cl(w)^k for k <= n_max: the closure solved from the
    # kernel's B_1..B_n gives them back to rounding
    potential = {4: potential_46, 8: potential_86}[n_max]
    for m in curve_moments(30 + n_max, 4, n_max):
        w = map_from_potential(potential, m, 0)
        rows = potential._map_kernel(m)
        assert len(w.closure) == n_max
        for k in range(1, n_max + 1):
            again = laurent_power_constant(1 / w.p, w.closure, k)
            assert abs(again - rows[k]) <= 1e-15, (k, again, rows[k])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_closure_of_the_disk_and_ellipse_closed_forms(n):
    # the translated disk z = w + c has B_k = c^k, the ellipse z = w + a/w
    # has B_2j = C(2j, j) a^j and no odd B_k; their closures and the B_k
    # beyond n come out to rounding, on the scale r^k = 1 of z_cl^k
    c, a, top = 0.1 + 0.05j, 0.05, 2 * n + 3
    b = [c**k for k in range(1, n + 1)]
    closure, beyond = _closure(1.0, b, top)
    assert len(closure) == n and len(beyond) == top - n
    assert abs(closure[0] - c) <= 1e-16 and all(abs(u) <= 1e-16 for u in closure[1:])
    for k, b_k in enumerate(beyond, n + 1):
        assert abs(b_k - c**k) <= 1e-16, k
    b = [math.comb(k, k // 2) * a ** (k // 2) if k % 2 == 0 else 0j for k in range(1, n + 1)]
    closure, beyond = _closure(1.0, b, top)
    assert closure[0] == 0 and abs(closure[1] - a) <= 1e-17
    assert all(abs(u) <= 1e-17 for u in closure[2:])
    for k, b_k in enumerate(beyond, n + 1):
        want = math.comb(k, k // 2) * a ** (k // 2) if k % 2 == 0 else 0
        assert abs(b_k - want) <= 1e-16, k
    # the scale r = 1/p enters as r^k
    closure, beyond = _closure(0.5, [2 * x for x in b[:1]] + [4 * x for x in b[1:2]], 4)
    assert abs(closure[1] - 2 * a) <= 1e-16 and abs(beyond[1] - 16 * 6 * a * a) <= 1e-15


def test_closure_recovers_a_curve_with_few_modes():
    # z = u + 0.15/u has t_k = 0 beyond k = 2 <= n_max, so its map is a
    # closure: r = 1, u_1 = 0.15 and every other u_j = 0, up to the
    # truncation error of the potential, which falls with deg_max (measured
    # 5.0e-5, 3.2e-5, 1.2e-6 and 4.2e-8; the bounds are about twice that)
    curve = BoundaryCurve(1.0, (0, 0.15))
    errors = []
    for n_max, deg_max, limit in [(5, 6, 1e-4), (6, 7, 6.5e-5), (6, 9, 2.5e-6), (6, 10, 1e-7)]:
        potential, _ = build_potential(default_policy(n_max, deg_max))
        w = map_from_potential(potential, moments_from_curve(curve, n_max), 0)
        want = [0, 0.15] + [0] * (n_max - 2)
        errors.append(max([abs(1 / w.p - 1)] + [abs(u - x) for u, x in zip(w.closure, want)]))
        assert errors[-1] <= limit, (n_max, deg_max, errors[-1])
    assert errors == sorted(errors, reverse=True), errors


def count_derivatives(monkeypatch):
    """The list to which every later ``diff_t0`` / ``diff_t`` call appends its name."""
    calls = []
    for name in ("diff_t0", "diff_t"):
        original = getattr(TruncatedSeries, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    return calls


def count_compiles(monkeypatch):
    """The list to which every later ``_Kernel`` compiled by the map appends
    its lowerings."""
    calls = []

    class Counted(_Kernel):
        __slots__ = ()

        def __init__(self, tail, lowerings):
            calls.append(lowerings)
            super().__init__(tail, lowerings)

    monkeypatch.setattr(confmap, "_Kernel", Counted)
    return calls


def test_second_map_takes_no_derivative(monkeypatch):
    # the kernel reads F's codes: not even the first map takes a derivative
    potential, _ = build_potential(default_policy(3, 4))
    assert potential._map_kernel is None  # the build does not compile it
    calls = count_derivatives(monkeypatch)
    m = MomentVector(t0=0.9, t=(0.01 + 0.02j, -0.003j, 0.001))
    first = map_from_potential(potential, m, order=2)
    assert calls == []
    assert map_from_potential(potential, m, order=2) == first
    assert calls == []


def test_kernel_holds_the_map_rows_and_compiles_once(monkeypatch):
    potential, _ = build_potential(default_policy(3, 4))
    calls = count_derivatives(monkeypatch)
    compiles = count_compiles(monkeypatch)
    m = MomentVector(t0=0.9, t=(0.01 + 0.02j, -0.003j, 0.001))
    first = map_from_potential(potential, m, order=5)
    # A and B_1..B_3 from the regular part; B_4..B_6 from the closure
    kernel = potential._map_kernel
    assert len(kernel.ends) == 4
    assert compiles == [[(0, 0), (0, 1), (0, 3), (0, 5)]]
    assert map_from_potential(potential, m, order=5) == first
    short = map_from_potential(potential, m, order=2)
    assert calls == [] and len(compiles) == 1 and potential._map_kernel is kernel
    assert short.p == first.p and short.tail == first.tail[:3]
    assert short.closure == first.closure


def test_empty_kernel_rows_read_exactly_zero():
    # c t0 t_2 tbar_2 has A = 0 and B_k = 0 but for B_2 = c tbar_2: the rows
    # A, B_1 and B_3 are empty blocks, which reduceat alone would read as a
    # term (or index past the end)
    term = Monomial(1, ((2, False, 1), (2, True, 1)))
    regular = TruncatedSeries(TruncationPolicy(3, 4), {term: Fraction(3)})
    potential = PotentialSeries(regular)
    for m in curve_moments(23, 3, 3):
        w = map_from_potential(potential, m, order=6)
        kernel = potential._map_kernel
        assert kernel.ends == [0, 0, 1, 1]
        rows = kernel(m)
        assert rows[2] == 3 * m.t[1].conjugate()
        assert rows[0] == rows[1] == rows[3] == 0
        p, tail = reference_map(potential, m, 6)
        assert abs(w.p - p) <= 1e-12
        assert all(abs(x - y) <= 1e-12 for x, y in zip(w.tail, tail))


def decoded_kernel_arrays(rows):
    """The kernel's ``exponents``, ``coeffs`` and ``ends`` for exact ``rows``,
    taken from their decoded terms, each row's in code order and each
    coefficient ``float(Fraction)``."""
    var, col, power, coeffs, ends = [], [], [], [], []
    for row in rows:
        encode = row._tail.codec.encode
        for mono, c in sorted(row.items(), key=lambda term: encode(term[0])):
            j = len(coeffs)
            coeffs.append(float(c))
            var.append(0)
            col.append(j)
            power.append(mono.t0_power)
            for k, barred, e in mono.factors:
                var.append(2 * k - 1 + barred)
                col.append(j)
                power.append(e)
        ends.append(len(coeffs))
    n = (max(var, default=0) + 1) // 2
    exponents = np.zeros((1 + 2 * n, len(coeffs)), dtype=np.min_scalar_type(max(power, default=0)))
    exponents[var, col] = power
    return exponents, np.array(coeffs), ends


def assert_sides_of(kernel, exponents):
    """Each column of ``kernel`` is the one ``exponents`` gives, bit for bit:
    its ``t0`` exponent, and its unbarred and barred sides' exponents read
    from the distinct sides' ``(k, e)`` pairs."""
    assert len(exponents) == 1 + 2 * kernel.n
    width = kernel.widths[1]
    k, e = np.divmod(kernel.pairs, width)
    counts = np.diff(np.append(kernel.firsts, len(kernel.pairs)))
    assert counts[0] == 1 and kernel.pairs[0] == 0  # the empty side reads row 0, 1
    assert np.all(counts > 0) and np.all(e[1:] > 0) and np.all(k[1:] >= 1)
    side = np.repeat(np.arange(len(counts)), counts)
    fields = np.zeros((len(counts), kernel.n + 1), dtype=np.intp)
    fields[side, k] = e
    fields = fields[:, 1:]
    assert len(np.unique(fields, axis=0)) == len(fields)  # distinct, the empty side first
    assert kernel.widths == (int(exponents[0].max(initial=0)) + 1, int(e.max(initial=0)) + 1)
    assert np.array_equal(kernel.t0, exponents[0])
    assert np.array_equal(fields[kernel.lo].T, exponents[1::2])
    assert np.array_equal(fields[kernel.hi].T, exponents[2::2])


def map_lowerings(n_max):
    """The fields the map's rows lower: ``t0`` twice for ``A``, then ``t0``
    and ``t_k`` for each ``B_k``."""
    return [(0, 0)] + [(0, 2 * k - 1) for k in range(1, n_max + 1)]


@pytest.mark.parametrize("n_max", [5, 8])
def test_kernel_compiles_from_codes_as_from_decoded_terms(n_max, potential_86):
    # the kernel compiled from F's codes alone holds, bit for bit, the exact
    # derivative rows decoded term by term
    potential = potential_86 if n_max == 8 else build_potential(default_policy(5, 6))[0]
    kernel = _Kernel(potential.regular._tail, map_lowerings(n_max))
    exponents, coeffs, ends = decoded_kernel_arrays(map_rows(potential))
    assert_sides_of(kernel, exponents)
    assert np.array_equal(kernel.coeffs, coeffs)
    assert kernel.ends == ends
    assert kernel.n == n_max


def test_kernel_reads_codes_wider_than_63_bits():
    # at (12, 16) a code has 2 * 12 * 5 = 120 bits of fields below the t0
    # power: the kernel shifts such codes as Python ints, to the same arrays;
    # the t0^1 term leaves the A row, the t0^0 term every row but F's
    policy = TruncationPolicy(12, 16)
    terms = {
        Monomial(7, ((3, False, 2), (12, False, 1), (1, True, 4), (12, True, 9))): Fraction(-5, 3),
        Monomial(0, ((12, True, 16),)): Fraction(1, 7),
        Monomial(40, ((5, False, 1),)): Fraction(2),
        Monomial(1, ((12, False, 15), (12, True, 1))): Fraction(3, 11),
    }
    potential = PotentialSeries(TruncatedSeries(policy, terms))
    kernel = _Kernel(potential.regular._tail, [()] + map_lowerings(12))
    exponents, coeffs, ends = decoded_kernel_arrays([potential.regular] + map_rows(potential))
    assert kernel.n == 12 and kernel.ends == ends
    assert ends[:2] == [4, 6] and ends[-1] - ends[-2] == 2
    assert_sides_of(kernel, exponents)
    assert np.array_equal(kernel.coeffs, coeffs)
    # at (13, 16) each half has 13 * 5 = 65 bits, past int64, and t_13^16 and
    # tbar_13^16 fill its top bit: the sides too are split as Python ints,
    # and every row matches the exact rational evaluation
    policy = TruncationPolicy(13, 16)
    terms = {
        Monomial(3, ((13, False, 16),)): Fraction(1, 5),
        Monomial(1, ((2, False, 1), (13, True, 16))): Fraction(-7, 3),
        Monomial(2, ((2, False, 3), (13, False, 8), (4, True, 1), (13, True, 4))): Fraction(9, 13),
        Monomial(4, ((1, False, 1), (13, False, 2), (1, True, 2))): Fraction(-2),
    }
    potential = PotentialSeries(TruncatedSeries(policy, terms))
    assert potential.regular._tail.codec.half == 65
    kernel = _Kernel(potential.regular._tail, [()] + map_lowerings(13))
    rows = [potential.regular] + map_rows(potential)
    exponents, coeffs, ends = decoded_kernel_arrays(rows)
    assert kernel.n == 13 and kernel.ends == ends
    assert_sides_of(kernel, exponents)
    assert np.array_equal(kernel.coeffs, coeffs)
    rng = random.Random(13)
    t0 = Fraction(3, 4)
    t = [tuple(Fraction(rng.randint(-(2**10), 2**10), 2**11) for _ in "ri") for _ in range(13)]
    got = kernel(MomentVector(float(t0), tuple(complex(float(a), float(b)) for a, b in t)))
    for i, row in enumerate(rows):
        re, im = exact_value(row, t0, t)
        exact = complex(float(re), float(im))
        assert abs(got[i] - exact) <= 1e-13 * abs(exact), (i, got[i], exact)
    # codes that fit in 63 bits under 65-bit halves are split as Python ints too
    term = Monomial(0, ((1, False, 2),))
    short = PotentialSeries(TruncatedSeries(policy, {term: Fraction(1, 3)}))
    assert _Kernel(short.regular._tail, [()])(MomentVector(0.5, (0.25,))) == [0.25**2 / 3]


def test_a_zero_moment_in_a_side_keeps_its_columns_zero_where_another_overflows():
    # at t_1 = 1e100 the power t_1^4 overflows, so the side t_1^4 t_2
    # multiplies out to inf * 0 = nan at t_2 = 0; its column holds a zero
    # t_2 and reads +0, the side-level twin of the overflowing t0 power of
    # test_disk_map_exact, while the column without t_2 stays non-finite
    terms = {
        Monomial(2, ((1, False, 4), (2, False, 1), (1, True, 1))): Fraction(3),
        Monomial(2, ((1, False, 4), (1, True, 1))): Fraction(1, 2),
    }
    potential = PotentialSeries(TruncatedSeries(TruncationPolicy(2, 6), terms))
    kernel = _Kernel(potential.regular._tail, [()])
    values = kernel.monomials(MomentVector(0.5, (1e100, 0)))
    assert not cmath.isfinite(values[0])
    assert values[1] == 0
    assert math.copysign(1, values[1].real) == math.copysign(1, values[1].imag) == 1


def test_degree_term_sums_compile_f_once(monkeypatch):
    # F's one-row kernel is held on the potential as the map's is: a second
    # call compiles nothing, and the map compiles its own rows apart
    potential, _ = build_potential(default_policy(3, 4))
    compiles = count_compiles(monkeypatch)
    m = MomentVector(t0=0.9, t=(0.01 + 0.02j, -0.003j, 0.001))
    first = degree_term_sums(potential, m)
    assert degree_term_sums(potential, m) == first
    assert compiles == [[()]]
    map_from_potential(potential, m, order=2)
    assert compiles == [[()], map_lowerings(3)]


@pytest.mark.parametrize("n_max, deg_max", [(6, 7), (8, 6)])
def test_map_does_not_depend_on_the_order_of_the_terms(n_max, deg_max, potential_86):
    # the kernel sums each row in code order, so a potential whose cells and
    # codes are shuffled gives the same floats, bit for bit
    potential = potential_86 if n_max == 8 else build_potential(default_policy(n_max, deg_max))[0]
    tail = potential.regular._tail
    rng = random.Random(10 * n_max + deg_max)
    cells = {}
    for key in rng.sample(list(tail.cells), len(tail.cells)):
        items = list(tail.cells[key].items())
        cells[key] = dict(rng.sample(items, len(items)))
    shuffled = PotentialSeries(TruncatedSeries._of(tail._like(cells, tail.den)))
    assert [list(c) for c in shuffled.regular._tail.cells.values()] != [
        list(c) for c in tail.cells.values()
    ]
    for m in curve_moments(40 + n_max, 4, n_max):
        assert map_from_potential(shuffled, m, 12) == map_from_potential(potential, m, 12)
        assert degree_term_sums(shuffled, m) == degree_term_sums(potential, m)


def test_a_short_moment_vector_reads_as_zero_padded(potential_46):
    # the kernel pads the moments to its n itself: t_3 = t_4 = 0 here
    map_from_potential(potential_46, MomentVector(t0=1.0), order=0)
    kernel = potential_46._map_kernel
    for m in curve_moments(29, 2, 3):
        short = MomentVector(m.t0, m.t[:2])
        padded = MomentVector(m.t0, m.t[:2] + (0j, 0j))
        assert np.array_equal(kernel(short), kernel(padded))
        assert np.array_equal(kernel.monomials(short), kernel.monomials(padded))


def one_term_potential(c):
    """A potential whose regular part is ``c t0^2 t_1 tbar_1``: ``A = 2c |t_1|^2``."""
    term = Monomial(2, ((1, False, 1), (1, True, 1)))
    regular = TruncatedSeries(TruncationPolicy(1, 2), {term: Fraction(c)})
    return PotentialSeries(regular)


@pytest.mark.parametrize("c", [10**4, -(10**4)])
def test_out_of_range_a_is_named(c):
    # A = 2e4 makes p underflow to zero, A = -2e4 makes exp(-A/2) overflow
    m = MomentVector(t0=1.0, t=(1.0,))
    message = rf"^A = d0\^2 F_reg = {2 * c} .*convergence_gate"
    with pytest.raises(ValueError, match=message):
        map_from_potential(one_term_potential(c), m, order=0)


def test_non_finite_b_is_named():
    # c t0 t_1 tbar_1 has A = 0 and B_1 = c tbar_1, which overflows at
    # |t_1| = 1e305; the error names B_1, not the tail it would feed
    term = Monomial(1, ((1, False, 1), (1, True, 1)))
    regular = TruncatedSeries(TruncationPolicy(1, 2), {term: Fraction(10**4)})
    m = MomentVector(t0=1.0, t=(1e305,))
    message = r"^B_1 = d0 d_1 F is not finite: .*convergence_gate"
    with pytest.raises(ValueError, match=message):
        map_from_potential(PotentialSeries(regular), m, order=0)


def test_a_policy_without_indices_gives_the_disk_map():
    # n_max = 0 leaves no t_k: the kernel's table of powers is its row 0 alone
    empty = PotentialSeries(TruncatedSeries.zero(TruncationPolicy(0, 4)))
    m = MomentVector(t0=0.7)
    w = map_from_potential(empty, m, order=2)
    assert w.p == 1 / math.sqrt(0.7)
    assert all(c == 0 for c in w.tail) and w.closure == ()
    assert degree_term_sums(empty, m) == {}


def test_potential_without_terms_gives_the_disk_map():
    empty = PotentialSeries(TruncatedSeries.zero(TruncationPolicy(3, 4)))
    m = MomentVector(t0=0.7, t=(0.02 + 0.01j, 0.03, -0.01j))
    w = map_from_potential(empty, m, order=2)
    assert w.p == 1 / math.sqrt(0.7)
    assert all(c == 0 for c in w.tail)
