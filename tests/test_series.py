"""Series ring: arithmetic, calculus, evaluation, serialization."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from taumap.series import (
    Monomial,
    PolicyMismatchError,
    TruncatedSeries,
    TruncationPolicy,
    _Codec,
    _Tail,
    series_to_json_terms,
)
from taumap.potential import build_potential
from taumap.verify import _cone, toda_residual_a, toda_residual_c


POLICY = TruncationPolicy(n_max=3, deg_max=6)


def t(k, policy=POLICY):
    return TruncatedSeries.variable(policy, k)


def tbar(k, policy=POLICY):
    return TruncatedSeries.variable(policy, k, barred=True)


class Point:
    def __init__(self, t0, values):
        self.t0 = t0
        self.t = values


def random_series(rng, policy=POLICY, terms=4):
    out = TruncatedSeries.zero(policy)
    for _ in range(rng.randint(1, terms)):
        mono_vars = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, policy.n_max)
            barred = rng.random() < 0.5
            mono_vars[(barred, k)] = mono_vars.get((barred, k), 0) + 1
        factors = tuple(
            (k, barred, e) for (barred, k), e in sorted(mono_vars.items())
        )
        mono = Monomial(rng.randint(0, 2), factors)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        out = out + TruncatedSeries(policy, {mono: coeff})
    return out


def random_point(rng, n=3):
    return Point(
        rng.uniform(0.2, 1.5),
        [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)) for _ in range(n)],
    )


# -- monomials and policy ------------------------------------------------------


def test_monomial_canonical_order_enforced():
    with pytest.raises(ValueError):
        Monomial(0, ((2, False, 1), (1, False, 1)))
    with pytest.raises(ValueError):
        Monomial(0, ((1, False, 1), (1, False, 2)))
    with pytest.raises(ValueError):
        Monomial(0, ((1, False, 0),))


def test_policy_filters_terms():
    pol = TruncationPolicy(2, 2)
    s = TruncatedSeries(
        pol,
        {
            Monomial(0, ((3, False, 1),)): Fraction(1),  # index too large
            Monomial(0, ((1, False, 3),)): Fraction(1),  # degree too large
            Monomial(1, ((2, True, 1),)): Fraction(5),
        },
    )
    assert len(s) == 1
    assert s.coefficient(Monomial(1, ((2, True, 1),))) == 5


# -- products -------------------------------------------------------------------


def test_mul_single_terms():
    prod = t(1) * tbar(1)
    assert prod.coefficient(Monomial(0, ((1, False, 1), (1, True, 1)))) == 1
    assert len(prod) == 1


def test_mul_by_zero_annihilates():
    s = TruncatedSeries.constant(POLICY, 1) + t(1)
    assert not (s * TruncatedSeries.zero(POLICY))


def test_square_of_sum():
    s = t(1) + tbar(2)
    sq = s * s
    assert sq.coefficient(Monomial(0, ((1, False, 2),))) == 1
    assert sq.coefficient(Monomial(0, ((1, False, 1), (2, True, 1)))) == 2
    assert sq.coefficient(Monomial(0, ((2, True, 2),))) == 1
    assert len(sq) == 3


def test_mul_policy_mismatch_rejected():
    other = TruncationPolicy(2, 2)
    with pytest.raises(PolicyMismatchError):
        t(1) * TruncatedSeries.variable(other, 1)


def test_truncation_is_hard_filter():
    pol = TruncationPolicy(3, 2)
    a = TruncatedSeries.variable(pol, 1)
    cube = a * a * a
    assert not cube  # degree 3 exceeds deg_max = 2


# -- exponential -----------------------------------------------------------------


def test_exp_of_zero():
    assert TruncatedSeries.zero(POLICY).exp_no_constant() == TruncatedSeries.constant(
        POLICY, 1
    )


def test_exp_single_variable_matches_taylor():
    pol = TruncationPolicy(2, 2)
    e = TruncatedSeries.variable(pol, 1).exp_no_constant()
    assert e.coefficient(Monomial()) == 1
    assert e.coefficient(Monomial(0, ((1, False, 1),))) == 1
    assert e.coefficient(Monomial(0, ((1, False, 2),))) == Fraction(1, 2)
    assert len(e) == 3


def test_exp_two_variables_multinomial():
    pol = TruncationPolicy(2, 2)
    e = (
        TruncatedSeries.variable(pol, 1) + TruncatedSeries.variable(pol, 2)
    ).exp_no_constant()
    assert e.coefficient(Monomial(0, ((1, False, 1), (2, False, 1)))) == 1
    assert e.coefficient(Monomial(0, ((2, False, 2),))) == Fraction(1, 2)
    assert len(e) == 6


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        (TruncatedSeries.constant(POLICY, 1) + t(1)).exp_no_constant()


def test_exp_rejects_pure_t0_term():
    # t0 alone carries no variable: its powers never leave the policy
    for power in (1, 3):
        with pytest.raises(ValueError, match="every term to carry a variable"):
            (TruncatedSeries.t0(POLICY, power) + t(1)).exp_no_constant()


def test_exp_is_additive_on_random_inputs():
    rng = random.Random(7)
    pol = TruncationPolicy(2, 4)
    for _ in range(20):
        a = random_series(rng, pol).filter(lambda m: m.degree > 0)
        b = random_series(rng, pol).filter(lambda m: m.degree > 0)
        assert (a + b).exp_no_constant() == a.exp_no_constant() * b.exp_no_constant()


# -- derivatives -----------------------------------------------------------------


def test_derivative_examples():
    s = TruncatedSeries(POLICY, {Monomial(1, ((1, False, 2),)): Fraction(1)})
    d = s.diff_t(1)
    assert d.coefficient(Monomial(1, ((1, False, 1),))) == 2

    cube = TruncatedSeries(POLICY, {Monomial(3, ()): Fraction(1)})
    assert cube.diff_t0().coefficient(Monomial(2, ())) == 3

    mixed = TruncatedSeries(
        POLICY, {Monomial(1, ((1, False, 1), (2, True, 1))): Fraction(1)}
    )
    d2 = mixed.diff_t(2, barred=True)
    assert d2.coefficient(Monomial(1, ((1, False, 1),))) == 1
    assert not mixed.diff_t(1, barred=True)


def test_derivatives_commute_on_random_series():
    rng = random.Random(11)
    for _ in range(30):
        s = random_series(rng)
        assert s.diff_t(1).diff_t(2, barred=True) == s.diff_t(2, barred=True).diff_t(1)
        assert s.diff_t0().diff_t(2) == s.diff_t(2).diff_t0()


def test_ring_axioms_on_random_series():
    rng = random.Random(13)
    for _ in range(15):
        a, b, c = (random_series(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


# -- evaluation ------------------------------------------------------------------


def test_evaluate_examples():
    pair = t(1) * tbar(1)
    value = pair.evaluate(Point(1.0, [0.1 + 0.2j, 0, 0]))
    assert abs(value - 0.05) < 1e-15

    one = TruncatedSeries.constant(POLICY, 1)
    assert one.evaluate(Point(123.0, [])) == 1

    s = TruncatedSeries(
        POLICY, {Monomial(2, ((2, False, 1), (2, True, 1))): Fraction(1)}
    )
    value = s.evaluate(Point(0.5, [0, 0.1j, 0]))
    assert abs(value - 0.0025) < 1e-16


def test_evaluate_index_out_of_range():
    with pytest.raises(IndexError):
        t(3).evaluate(Point(1.0, [0.1]))


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(17)
    pol = TruncationPolicy(3, 12)  # roomy: products below never truncate
    for _ in range(20):
        a = random_series(rng, pol)
        b = random_series(rng, pol)
        pt = random_point(rng)
        lhs = (a * b).evaluate(pt)
        rhs = a.evaluate(pt) * b.evaluate(pt)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        lhs = (a + b).evaluate(pt)
        rhs = a.evaluate(pt) + b.evaluate(pt)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# -- exactness -------------------------------------------------------------------


def test_no_floating_point_in_coefficients():
    rng = random.Random(19)
    s = random_series(rng)
    prod = s * s * s
    for _, coeff in prod.items():
        assert isinstance(coeff, Fraction)


# -- serialization ---------------------------------------------------------------


def from_json_terms(terms, policy):
    """The series of the JSON rows of :func:`series_to_json_terms`."""
    return TruncatedSeries(
        policy,
        {
            Monomial(row["t0"], tuple((k, bool(b), e) for k, b, e in row["factors"])):
            Fraction(row["num"], row["den"])
            for row in terms
        },
    )


def test_json_round_trip_bit_exact():
    # the rows hold every term exactly, in integers only
    rng = random.Random(29)
    for _ in range(20):
        s = random_series(rng)
        rows = series_to_json_terms(s)
        assert from_json_terms(rows, POLICY) == s
        assert all(isinstance(v, int) for row in rows for v in (row["num"], row["den"]))


# -- product against the pairwise reference ----------------------------------------

# Policies under which the degree bound cuts products.
CUTTING_POLICIES = [
    TruncationPolicy(n_max=3, deg_max=4),
    TruncationPolicy(n_max=2, deg_max=5),
    TruncationPolicy(n_max=4, deg_max=3),
    TruncationPolicy(n_max=3, deg_max=6),
]


def reference_mul(a, b):
    """The pairwise product: every pair visited, degrees summed per pair."""
    pol = a.policy
    out = {}
    for m1, c1 in a.items():
        d1 = sum(e for _, _, e in m1.factors)
        for m2, c2 in b.items():
            if d1 + sum(e for _, _, e in m2.factors) > pol.deg_max:
                continue
            t0_power = m1.t0_power + m2.t0_power
            exps = {}
            for k, barred, e in m1.factors + m2.factors:
                exps[barred, k] = exps.get((barred, k), 0) + e
            factors = tuple((k, barred, e) for (barred, k), e in sorted(exps.items()))
            m = Monomial(t0_power, factors)
            out[m] = out.get(m, 0) + c1 * c2
    return TruncatedSeries(pol, out)


def reference_exp(s):
    pol = s.policy
    result = TruncatedSeries.constant(pol, 1)
    term = result
    m = 0
    while True:
        m += 1
        term = reference_mul(term, s)
        term = TruncatedSeries(pol, {mono: c / m for mono, c in term.items()})
        if not term:
            return result
        result = result + term


def rich_series(rng, policy, terms=12, factor_free=True, max_t0_power=4):
    """Random terms up to the policy's bounds, ``t0`` powers up to ``max_t0_power``.

    With ``factor_free`` the series also has a constant and a pure ``t0``
    term, which ``exp_no_constant`` rejects.
    """
    out = {}
    if factor_free:
        out[Monomial()] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pure_t0 = Monomial(rng.randint(1, max_t0_power), ())
        out[pure_t0] = Fraction(rng.randint(-9, 9) or 1, 7)
    for _ in range(terms):
        exps = {}
        for _ in range(rng.randint(1, policy.deg_max)):
            var = (rng.random() < 0.5, rng.randint(1, policy.n_max))
            exps[var] = exps.get(var, 0) + 1
        factors = tuple((k, barred, e) for (barred, k), e in sorted(exps.items()))
        mono = Monomial(rng.randint(0, max_t0_power), factors)
        out[mono] = Fraction(rng.randint(-30, 30), rng.randint(1, 40))
    return TruncatedSeries(policy, out)


def test_product_equals_pairwise_reference_under_cutting_policies():
    rng = random.Random(31)
    for pol in CUTTING_POLICIES:
        cut_by_degree = 0
        for _ in range(12):
            a, b = rich_series(rng, pol), rich_series(rng, pol)
            for m1, _ in a.items():
                for m2, _ in b.items():
                    if m1.degree + m2.degree > pol.deg_max:
                        cut_by_degree += 1
            assert a * b == reference_mul(a, b)
            assert b * a == reference_mul(b, a)
            assert a * a == reference_mul(a, a)
            for _, c in (a * b).items():
                assert type(c) is Fraction and c
        assert cut_by_degree


def test_exp_equals_pairwise_reference_under_cutting_policies():
    rng = random.Random(37)
    for pol in CUTTING_POLICIES:
        for _ in range(4):
            s = rich_series(rng, pol, terms=6, factor_free=False)
            assert s.exp_no_constant() == reference_exp(s)


def taylor_exp(x):
    """``sum_m x^m / m!`` term by term: each power scaled by ``1/m`` and added."""
    result = term = x.one()
    m = 0
    while True:
        m += 1
        term = _Tail.combination(x.bound, [(Fraction(1, m), 0, 0, term * x)])
        if not term.cells:
            return result
        result = _Tail.combination(x.bound, [(1, 0, 0, result), (1, 0, 0, term)])


def value(tail):
    """A tail's cells, codes and numerators, and its denominator."""
    return tail.cells, tail.den


def fraction_terms(tail):
    """A tail's terms as ``{(cell, code): Fraction}``."""
    return {
        (key, code): Fraction(n, tail.den)
        for key, cell in tail.cells.items()
        for code, n in cell.items()
    }


def test_combination_equals_fraction_arithmetic():
    pol = TruncationPolicy(n_max=3, deg_max=5)
    box = _Tail.box((2, 2), pol.deg_max)
    cell_keys = list(itertools.product(range(3), range(3)))
    rng = random.Random(53)

    def weight():
        return rng.choice([0, 1, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 9))])

    def random_tail():
        # weighted series, shifted by u^a v^b, a cell met more than once at times
        picked = rng.choices(cell_keys, k=rng.randint(1, 4))
        terms = [(weight(), a, b, rich_series(rng, pol, terms=5)._tail) for a, b in picked]
        tail = _Tail.combination(box, terms)
        want = {}
        for q, a, b, part in terms:
            for ((_, _, d), code), c in fraction_terms(part).items():
                term = (a, b, d), code
                want[term] = want.get(term, 0) + q * c
        assert fraction_terms(tail) == {term: c for term, c in want.items() if c}
        return tail

    def kept(bound, a, b, d):
        return a < len(bound) and b < len(bound[0]) and d < bound[a][b]

    shared_cells = shared_codes = disjoint = mixed = cut = 0
    for _ in range(60):
        tails = [random_tail() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            tails.append(tails[0])  # every code of a cell met again
        # each tail shifted by u^a v^b, (0, 0) at times, into a bound that
        # cuts the cells shifted past it
        bound = box if rng.random() < 0.5 else random_bound(rng, (2, 2), pol.deg_max)
        terms = [(weight(), *rng.choice([(0, 0)] + cell_keys), tail) for tail in tails]
        got = _Tail.combination(bound, terms)
        assert got.bound == bound
        shifted = []
        for _, da, db, tail in terms:
            shifted.append({(a + da, b + db, d): cell for (a, b, d), cell in tail.cells.items()})
        want = {}
        for (q, _, _, tail), cells in zip(terms, shifted):
            for key, cell in cells.items():
                if kept(bound, *key):
                    for code, n in cell.items():
                        term = key, code
                        want[term] = want.get(term, 0) + q * Fraction(n, tail.den)
        assert fraction_terms(got) == {term: c for term, c in want.items() if c}
        # canonical: no zero term or empty cell, numerators prime to den
        numerators = [n for cell in got.cells.values() for n in cell.values()]
        assert all(got.cells.values()) and 0 not in numerators
        assert got.den > 0 and math.gcd(got.den, *numerators) == 1
        # cells and codes keep their first-seen order
        seen = {}
        for cells in shifted:
            for key, cell in cells.items():
                seen.setdefault(key, {}).update(dict.fromkeys(cell))
        assert list(got.cells) == [key for key in seen if key in got.cells]
        for key, cell in got.cells.items():
            assert list(cell) == [code for code in seen[key] if code in cell]
        # a kept cell or code met by two terms, and two terms that meet in none
        keys = [{key for key in cells if kept(bound, *key)} for cells in shifted]
        codes = [
            {(key, code) for key in kept_keys for code in cells[key]}
            for kept_keys, cells in zip(keys, shifted)
        ]
        pairs = list(itertools.combinations(range(len(tails)), 2))
        shared_cells += any(keys[i] & keys[j] for i, j in pairs)
        shared_codes += any(codes[i] & codes[j] for i, j in pairs)
        disjoint += any(not keys[i] & keys[j] for i, j in pairs)
        moves = {(da, db) != (0, 0) for _, da, db, _ in terms}
        mixed += moves == {False, True}
        cut += any(not kept(bound, *key) for cells in shifted for key in cells)
    assert shared_cells and shared_codes and disjoint and mixed and cut
    # a full cancellation is the canonical zero: no cells over 1
    a, b = random_tail(), random_tail()
    assert a.den > 1
    assert value(_Tail.combination(box, [(1, 0, 0, a), (-1, 0, 0, a)])) == ({}, 1)
    assert value(_Tail.combination(box, [(0, 1, 2, a)])) == ({}, 1)
    q = Fraction(-5, 3)
    assert value(_Tail.combination(box, [(q, 0, 0, a), (1, 0, 0, b), (-q, 0, 0, a)])) == value(b)
    assert value(_Tail.combination(box, [(q, 1, 0, a), (1, 0, 0, b), (-q, 1, 0, a)])) == value(b)


def test_tail_exp_equals_taylor_loop_in_value():
    pol = TruncationPolicy(n_max=2, deg_max=4)
    # x = t2 + u t1 + u^2 t1^2 - u^3 t1^3: the sum at u^3 t1^3 cancels after
    # x^2 / 2 and comes back with x^3 / 6
    t1, square = t(1, pol), t(1, pol) * t(1, pol)
    cancelling = _Tail.combination(
        _Tail.box((3, 0), pol.deg_max),
        [(1, 0, 0, t(2, pol)._tail), (1, 1, 0, t1._tail), (1, 2, 0, square._tail)]
        + [(-1, 3, 0, (square * t1)._tail)],
    )
    rng = random.Random(41)
    tails = [cancelling]
    tails.append(
        _Tail.combination(
            _Tail.box((0, 0), pol.deg_max),
            [(1, 0, 0, rich_series(rng, pol, factor_free=False)._tail)],
        )
    )
    for orders in ((3, 0), (2, 2)):
        y = rich_series(rng, pol, terms=6, factor_free=False)
        z = tbar(2, pol) * t1 + rich_series(rng, pol, terms=3, factor_free=False)
        box = _Tail.box(orders, pol.deg_max)
        terms = [(1, 0, 1, y._tail), (1, 1, 0, z._tail), (1, 1, 1, (y * z)._tail)]
        tails.append(_Tail.combination(box, terms))
    for tail in tails:
        assert value(tail.exp()) == value(taylor_exp(tail))


def test_tail_exp_equals_taylor_loop_on_the_residual_tails(monkeypatch):
    # every tail whose exponential the (5, 6) residuals take at order 4: X
    # and the one-sided Y of residual_a, M, P, Q and d0^2 F of residual_c
    potential, _ = build_potential(TruncationPolicy(5, 6))
    seen = []
    exp = _Tail.exp

    def recorded(tail):
        seen.append(tail)
        return exp(tail)

    monkeypatch.setattr(_Tail, "exp", recorded)
    toda_residual_a(potential, 4)
    toda_residual_c(potential, 4)
    monkeypatch.undo()
    # exp(-Y(v)) is exp(-Y(u)) transposed, not an exponential of its own
    assert sorted(tail.orders for tail in seen) == [(0, 0)] + [(5, 5)] * 5
    # the residuals expand over the cone they judge
    cone = _cone(potential.regular.policy, 4)
    assert [tail.bound for tail in seen if tail.orders == (5, 5)] == [cone] * 5
    for tail in seen:
        assert value(tail.exp()) == value(taylor_exp(tail))


@pytest.mark.parametrize("n_max, deg_max", [(5, 6), (4, 6), (3, 5)])
def test_transposed_exponential_is_the_exponential_of_the_transposed_tail(n_max, deg_max):
    # residual_a takes exp(-Y(v)) as exp(-Y(u)) with u and v exchanged: the
    # same as the exponential of -Y(v) taken directly, and as its Taylor sum
    potential, _ = build_potential(TruncationPolicy(n_max, deg_max))
    d0 = potential.regular._tail.diff_t0()
    for amax in range(1, n_max + 1):
        box = _Tail.box((amax, amax), deg_max)
        y_u = _Tail.combination(
            box, [(Fraction(-1, a), a, 0, d0.diff_t(a)) for a in range(1, amax + 1)]
        )
        y_v = _Tail.combination(
            box, [(Fraction(-1, a), 0, a, d0.diff_t(a)) for a in range(1, amax + 1)]
        )
        assert y_u.transposed().cells == y_v.cells and y_u.transposed().den == y_v.den
        moved = y_u.exp().transposed()
        assert value(moved) == value(y_v.exp()) == value(taylor_exp(y_v))


def pairwise_products(like, terms):
    """``sum q * left * right`` pair by pair over cells and terms, in
    ``Fraction``s, a tail like ``like``: what an unmasked product equals."""
    amax, bmax = like.orders
    out = {}
    for q, lhs, rhs in terms:
        scale = Fraction(q) / (lhs.den * rhs.den)
        for (a1, b1, d1), left in lhs.cells.items():
            for (a2, b2, d2), right in rhs.cells.items():
                a, b, d = a1 + a2, b1 + b2, d1 + d2
                if a > amax or b > bmax or d >= like.bound[a][b]:
                    continue
                cell = out.setdefault((a, b, d), {})
                for code1, n1 in left.items():
                    for code2, n2 in right.items():
                        key = code1 + code2
                        cell[key] = cell.get(key, 0) + scale * n1 * n2
    den = math.lcm(*(c.denominator for cell in out.values() for c in cell.values()))
    cells = {
        key: {code: int(c * den) for code, c in cell.items()} for key, cell in out.items()
    }
    return like._like(cells, den)


def test_masked_products_drop_exactly_the_terms_that_meet_their_cells_mask():
    pol = TruncationPolicy(n_max=3, deg_max=5)
    codec = _Codec(pol)
    variables = [(k, barred) for k in range(1, 4) for barred in (False, True)]
    rng = random.Random(43)
    removed = kept = unformed = 0
    for orders in ((2, 3), (3, 1), (1, 1)):
        cell_keys = list(itertools.product(range(orders[0] + 1), range(orders[1] + 1)))

        def random_tail():
            picked = rng.sample(cell_keys, rng.randint(1, 3))
            return _Tail.combination(
                _Tail.box(orders, pol.deg_max),
                [(1, a, b, rich_series(rng, pol, terms=5)._tail) for a, b in picked],
            )

        for _ in range(6):
            # a mask per target cell: whole variable fields, some cells none
            masks = {
                key: sum(
                    codec.mask << codec.shift(k, barred)
                    for k, barred in rng.sample(variables, rng.randint(0, 3))
                )
                for key in cell_keys
            }
            like = random_tail()
            terms = [
                (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), random_tail(), random_tail())
                for _ in range(rng.randint(1, 3))
            ]
            full = like.products(terms)
            assert value(full) == value(pairwise_products(like, terms))
            masked = like.products(terms, lambda a, b: masks[a, b])
            survivors = {
                (a, b, d): {code: n for code, n in cell.items() if not code & masks[a, b]}
                for (a, b, d), cell in full.cells.items()
            }
            assert value(masked) == value(like._like(survivors, full.den))
            survived = sum(map(len, masked.cells.values()))
            kept += survived
            removed += sum(map(len, full.cells.values())) - survived
            # the same masks with None at some cells: those cells are not
            # formed, and every other cell is the full masked product's
            holes = {key: None if rng.random() < 0.3 else m for key, m in masks.items()}
            partial = like.products(terms, lambda a, b: holes[a, b])
            formed = {key: cell for key, cell in survivors.items() if holes[key[:2]] is not None}
            assert value(partial) == value(like._like(formed, full.den))
            unformed += sum(holes[a, b] is None for a, b, _ in masked.cells)
    assert removed and kept and unformed


def test_product_with_constants_and_pure_t0_terms():
    pol = TruncationPolicy(n_max=2, deg_max=2)
    one_plus_t0 = TruncatedSeries.constant(pol, 1) + TruncatedSeries.t0(pol)
    sq = one_plus_t0 * one_plus_t0
    assert sq.coefficient(Monomial()) == 1
    assert sq.coefficient(Monomial(1, ())) == 2
    assert sq.coefficient(Monomial(2, ())) == 1
    assert len(sq) == 3
    # no t0 bound: t0 powers add past any value a policy names
    assert TruncatedSeries.t0(pol, 2) * TruncatedSeries.t0(pol) == TruncatedSeries.t0(
        pol, 3
    )
    three_halves = TruncatedSeries.constant(pol, Fraction(3, 2))
    assert sq * Fraction(3, 2) == reference_mul(sq, three_halves)


# -- calculus and sums against the term-by-term reference ---------------------------


def reference_diff(s, k=None, barred=False):
    """The derivative term by term over ``Monomial``: in ``t0`` when ``k`` is
    None, else in ``t_k`` or ``tbar_k``."""
    out = {}
    for m, c in s.items():
        if k is None:
            if m.t0_power:
                out[Monomial(m.t0_power - 1, m.factors)] = c * m.t0_power
            continue
        for pos, (idx, b, e) in enumerate(m.factors):
            if (idx, b) == (k, barred):
                lowered = ((idx, b, e - 1),) if e > 1 else ()
                factors = m.factors[:pos] + lowered + m.factors[pos + 1 :]
                out[Monomial(m.t0_power, factors)] = c * e
    return TruncatedSeries(s.policy, out)


def reference_sum(a, b, sign=1):
    out = dict(a.items())
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return TruncatedSeries(a.policy, out)


def reference_scaled(s, q):
    return TruncatedSeries(s.policy, {m: c * q for m, c in s.items()})


def edge_terms(policy):
    """Terms whose exponent is ``deg_max`` in the first and the last field,
    and one at index ``n_max`` on each side."""
    n, deg = policy.n_max, policy.deg_max
    return TruncatedSeries(
        policy,
        {
            Monomial(deg, ((1, False, deg),)): Fraction(5, 3),
            Monomial(1, ((n, True, deg),)): Fraction(-2, 7),
            Monomial(2, ((n, False, 1), (n, True, deg - 1))): Fraction(9, 4),
        },
    )


def test_calculus_and_sums_equal_termwise_reference_under_cutting_policies():
    rng = random.Random(47)
    for pol in CUTTING_POLICIES:
        zero = TruncatedSeries.zero(pol)
        for _ in range(6):
            a = rich_series(rng, pol) + edge_terms(pol)
            b = rich_series(rng, pol)
            derived = [(a.diff_t0(), reference_diff(a))]
            for k in range(pol.n_max + 2):
                for barred in (False, True):
                    derived.append((a.diff_t(k, barred), reference_diff(a, k, barred)))
            derived += [
                (a + b, reference_sum(a, b)),
                (a - b, reference_sum(a, b, -1)),
                (-a, reference_scaled(a, -1)),
                (a - a, zero),
            ]
            for q in (0, 2, Fraction(-3, 5)):
                derived += [(a * q, reference_scaled(a, q)), (q * a, reference_scaled(a, q))]
            for got, want in derived:
                assert got == want
                assert sorted(got.items(), key=str) == sorted(want.items(), key=str)
                for _, c in got.items():
                    assert type(c) is Fraction and c
            # the index n_max and the exponent deg_max come down exactly
            n, deg = pol.n_max, pol.deg_max
            lowered = Monomial(2, ((n, False, 1), (n, True, deg - 2)))
            assert a.diff_t(1).coefficient(Monomial(deg, ((1, False, deg - 1),))) != 0
            assert a.diff_t(n, barred=True).coefficient(lowered) != 0
            assert not a.diff_t(0) and not a.diff_t(n + 1, True)


def test_coefficient_of_an_index_beyond_the_policy_is_zero():
    # t_{n_max+1} would pack onto the field of tbar_1
    for pol in CUTTING_POLICIES:
        s = tbar(1, pol) * 3 + t(pol.n_max, pol)
        assert s.coefficient(Monomial(0, ((1, True, 1),))) == 3
        assert s.coefficient(Monomial(0, ((pol.n_max + 1, False, 1),))) == 0


# -- the cached degree ------------------------------------------------------------


def exponent_sum(m):
    return sum(e for _, _, e in m.factors)


def mirrored(s):
    """``s`` with barred and unbarred variables exchanged, by the codec's rule."""
    codec = _Codec(s.policy)
    return TruncatedSeries(
        s.policy, {codec.decode(codec.mirror(codec.encode(m))): c for m, c in s.items()}
    )


def test_degree_is_exponent_sum_on_every_construction_path():
    rng = random.Random(41)
    pol = CUTTING_POLICIES[0]
    for _ in range(10):
        a, b = rich_series(rng, pol), rich_series(rng, pol)
        derived = [
            a,
            a * b,
            a.diff_t0(),
            a.diff_t(1),
            a.diff_t(2, barred=True),
            (a * b).diff_t(2).diff_t0(),
            from_json_terms(series_to_json_terms(a * b), pol),
            mirrored(a * b),
            a + b,
            -a,
            a * Fraction(2, 3),
            TruncatedSeries(TruncationPolicy(2, 3), dict(a.items())),
        ]
        for s in derived:
            for m, _ in s.items():
                assert m.degree == exponent_sum(m)
    for factors in ((), ((1, False, 3),), ((2, False, 1), (1, True, 2), (3, True, 4))):
        assert Monomial(2, factors).degree == exponent_sum(Monomial(2, factors))


def test_equal_monomials_from_different_paths_compare_and_hash_equal():
    pol = TruncationPolicy(n_max=3, deg_max=4)
    target = Monomial(1, ((1, False, 1), (2, True, 1)))
    t0 = TruncatedSeries.t0(pol)
    t1, tbar2 = t(1, pol), tbar(2, pol)
    t0_t1sq_tbar2 = Monomial(1, ((1, False, 2), (2, True, 1)))
    t0sq_t1_tbar2 = Monomial(2, ((1, False, 1), (2, True, 1)))
    built = [
        t0 * t1 * tbar2,
        TruncatedSeries(pol, {t0_t1sq_tbar2: Fraction(1)}).diff_t(1),
        TruncatedSeries(pol, {t0sq_t1_tbar2: Fraction(1)}).diff_t0(),
        from_json_terms(series_to_json_terms(t0 * t1 * tbar2), pol),
        mirrored(t0 * tbar(1, pol) * t(2, pol)),
    ]
    for s in built:
        (m, _), = s.items()
        assert m == target
        assert hash(m) == hash(target)
        assert {m: 1}[target] == 1
        assert m.sort_key() == target.sort_key()
        assert repr(m) == repr(target)
        assert repr(m) == "Monomial(t0_power=1, factors=((1, False, 1), (2, True, 1)))"


# -- validation at the public boundary ---------------------------------------------


def test_bad_monomials_still_raise():
    for t0_power, factors in [
        (-1, ()),
        (0, ((0, False, 1),)),
        (0, ((1, True, 0),)),
        (0, ((1, True, 1), (1, False, 1))),
        (0, ((2, False, 1), (2, False, 1))),
    ]:
        with pytest.raises(ValueError):
            Monomial(t0_power, factors)


def test_public_constructor_drops_zero_and_inadmissible_terms():
    pol = TruncationPolicy(2, 3)
    kept = Monomial(1, ((1, False, 1), (2, True, 2)))
    s = TruncatedSeries(
        pol,
        {
            kept: 3,
            Monomial(0, ((1, False, 1),)): 0,
            Monomial(0, ((3, True, 1),)): Fraction(1),
            Monomial(0, ((1, False, 2), (1, True, 2))): Fraction(1),
        },
    )
    assert list(s.items()) == [(kept, Fraction(3))]
    assert type(s.coefficient(kept)) is Fraction


def test_to_tighter_policy_truncates_and_commutes_with_products():
    rng = random.Random(43)
    roomy = TruncationPolicy(3, 6)
    tight = TruncationPolicy(2, 3)

    def tightened(s):
        return TruncatedSeries(tight, dict(s.items()))

    for _ in range(10):
        a, b = rich_series(rng, roomy), rich_series(rng, roomy)
        cut = tightened(a)
        assert len(cut) < len(a)
        assert all(tight.admits(m) for m, _ in cut.items())
        assert {m: c for m, c in cut.items()} == {
            m: c for m, c in a.items() if tight.admits(m)
        }
        assert tightened(a * b) == cut * tightened(b)


# -- the packed monomial codes ------------------------------------------------


def admissible_factor_parts(policy):
    """Every canonical factor tuple of factor degree at most ``deg_max``."""
    variables = [(k, False) for k in range(1, policy.n_max + 1)] + [
        (k, True) for k in range(1, policy.n_max + 1)
    ]

    def parts(i, budget):
        if i == len(variables):
            yield ()
            return
        k, barred = variables[i]
        for e in range(budget + 1):
            head = ((k, barred, e),) if e else ()
            for rest in parts(i + 1, budget - e):
                yield head + rest

    return list(parts(0, policy.deg_max))


def product_monomial(m1, m2):
    exps = {}
    for k, barred, e in m1.factors + m2.factors:
        exps[barred, k] = exps.get((barred, k), 0) + e
    factors = tuple((k, barred, e) for (barred, k), e in sorted(exps.items()))
    return Monomial(m1.t0_power + m2.t0_power, factors)


@pytest.mark.parametrize("n_max, deg_max", [(3, 4), (4, 7)])
def test_codec_round_trips_every_admissible_monomial(n_max, deg_max):
    policy = TruncationPolicy(n_max, deg_max)
    codec = _Codec(policy)
    parts = admissible_factor_parts(policy)
    # deg_max in a single field, at the first and the last field
    assert ((1, False, deg_max),) in parts and ((n_max, True, deg_max),) in parts
    codes = set()
    for factors in parts:
        for t0_power in (0, 1, deg_max, 2**70 + 3):
            mono = Monomial(t0_power, factors)
            code = codec.encode(mono)
            back = codec.decode(code)
            assert back == mono
            assert back.degree == mono.degree
            codes.add(code)
    assert len(codes) == 4 * len(parts)


def test_codec_code_of_an_admissible_product_is_the_sum_of_codes():
    policy = TruncationPolicy(3, 4)
    codec = _Codec(policy)
    rng = random.Random(43)
    monos = [Monomial(rng.randint(0, 9), f) for f in admissible_factor_parts(policy)]
    pairs = 0
    for m1, m2 in itertools.product(monos, repeat=2):
        if m1.degree + m2.degree <= policy.deg_max:
            pairs += 1
            product = product_monomial(m1, m2)
            assert codec.encode(m1) + codec.encode(m2) == codec.encode(product)
            assert codec.decode(codec.encode(m1) + codec.encode(m2)) == product
    assert pairs > 1000


def bar_exchanged(mono):
    """``mono`` with ``t_k`` and ``tbar_k`` exchanged, in canonical order."""
    factors = sorted(((k, not b, e) for k, b, e in mono.factors), key=lambda f: (f[1], f[0]))
    return Monomial(mono.t0_power, tuple(factors))


@pytest.mark.parametrize("n_max, deg_max", [(3, 4), (4, 7)])
def test_codec_mirror_exchanges_the_bars_and_is_additive(n_max, deg_max):
    # on every admissible monomial the mirror is an involution that swaps
    # t_k and tbar_k and keeps the t0 power; on admissible products it adds
    policy = TruncationPolicy(n_max, deg_max)
    codec = _Codec(policy)
    by_degree = {}
    for factors in admissible_factor_parts(policy):
        for t0_power in (0, 1, 2**70 + 3):
            mono = Monomial(t0_power, factors)
            code = codec.encode(mono)
            image = codec.mirror(code)
            assert codec.mirror(image) == code
            assert codec.decode(image) == bar_exchanged(mono)
            by_degree.setdefault(mono.degree, []).append(code)
    rng = random.Random(61)
    for _ in range(5000):
        d1 = rng.randint(0, deg_max)
        c1 = rng.choice(by_degree[d1])
        c2 = rng.choice(by_degree[rng.randint(0, deg_max - d1)])
        assert codec.mirror(c1 + c2) == codec.mirror(c1) + codec.mirror(c2)


def random_bound(rng, orders, deg_max):
    """A random downward-closed bound of ``orders``: each depth at most
    ``deg_max + 1`` and at most the depths before it in ``a`` and in ``b``."""
    amax, bmax = orders
    rows = []
    for a in range(amax + 1):
        row = []
        for b in range(bmax + 1):
            cap = deg_max + 1
            if a:
                cap = min(cap, rows[a - 1][b])
            if b:
                cap = min(cap, row[b - 1])
            row.append(rng.randint(0, cap))
        rows.append(row)
    return tuple(map(tuple, rows))


def restricted(tail, bound):
    """``tail`` cut to ``bound``, in canonical form."""
    return _Tail(tail.codec, bound, dict(tail.cells), tail.den)


def test_bounded_products_and_exp_are_the_unbounded_ones_restricted():
    # products and the exponential only add cells, so under a downward-closed
    # bound they are the box's results cut to the bound: the same cells,
    # codes and numerators, over the canonical denominator of what is kept
    pol = TruncationPolicy(n_max=3, deg_max=5)
    rng = random.Random(59)
    dropped = den_shrank = 0
    for orders in ((2, 3), (3, 3), (1, 0)):
        box = _Tail.box(orders, pol.deg_max)
        cell_keys = list(itertools.product(range(orders[0] + 1), range(orders[1] + 1)))

        def random_tail(factor_free=True):
            picked = rng.sample(cell_keys, rng.randint(1, min(4, len(cell_keys))))
            series = [(1, a, b, rich_series(rng, pol, 5, factor_free)._tail) for a, b in picked]
            return _Tail.combination(box, series)

        for _ in range(8):
            bound = random_bound(rng, orders, pol.deg_max)
            like = random_tail()
            terms = [
                (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), random_tail(), random_tail())
                for _ in range(rng.randint(1, 3))
            ]
            full = like.products(terms)
            cut = restricted(like, bound).products(
                [(q, restricted(lhs, bound), restricted(rhs, bound)) for q, lhs, rhs in terms]
            )
            want = restricted(full, bound)
            assert value(cut) == value(want)
            assert cut.bound == bound
            numerators = [n for cell in cut.cells.values() for n in cell.values()]
            assert math.gcd(cut.den, *numerators) == 1 and 0 not in numerators
            dropped += len(full.cells) > len(want.cells) > 0
            den_shrank += want.den < full.den
            x = random_tail(factor_free=False)
            assert value(restricted(x, bound).exp()) == value(restricted(x.exp(), bound))
    assert dropped and den_shrank
