"""The packed Toda residuals against their series-valued reference.

``reference_residual_a`` and ``reference_residual_c`` expand the two
constraints with a bivariate Laurent tail whose coefficients are
:class:`TruncatedSeries`: every product of two series goes through
``series_mul``, a term-by-term product over ``Monomial`` and ``Fraction``,
every exponential through ``series_exp``, its Taylor sum, and every sum
through the ring's ``+``.  The residuals in :mod:`taumap.verify` expand
the same tails over packed integer monomials, the ring's own product and
exponential, only over the cone cells they judge, and must return the same
cell count and the same violations; expanded over the whole box
(:func:`taumap.verify.out_of_cone_maxima`), they must give the same
out-of-cone maximum.  Both list the violations of one bidegree in the
canonical order of :meth:`Monomial.sort_key`, factor degree first, so the
two lists are equal whatever order the algebra filled its terms in.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from taumap.potential import build_potential, default_policy
from taumap.series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy
from taumap.verify import CheckResult, out_of_cone_maxima, toda_residual_a, toda_residual_c

from helpers_recursion import reference_potential
from test_verify import corrupted_once


def monomial_product(m1, m2):
    exps = {}
    for k, barred, e in m1.factors + m2.factors:
        exps[barred, k] = exps.get((barred, k), 0) + e
    factors = tuple((k, barred, e) for (barred, k), e in sorted(exps.items()))
    return Monomial(m1.t0_power + m2.t0_power, factors)


def series_mul(s1, s2):
    """``s1 * s2`` term by term, the right operand bucketed by factor degree
    so that a left term of degree ``d`` meets only degrees ``<= deg_max - d``;
    products are listed as the left terms, then the degrees, first reach them."""
    policy = s1.policy
    buckets = [[] for _ in range(policy.deg_max + 1)]
    for m2, c2 in s2.items():
        buckets[m2.degree].append((m2, c2))
    out = {}
    for m1, c1 in s1.items():
        for bucket in buckets[: policy.deg_max - m1.degree + 1]:
            for m2, c2 in bucket:
                m = monomial_product(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
    return TruncatedSeries(policy, out)


def series_exp(s):
    """``sum_m s^m / m!`` by :func:`series_mul`."""
    result = term = TruncatedSeries.constant(s.policy, 1)
    m = 0
    while True:
        m += 1
        term = series_mul(term, s) * Fraction(1, m)
        if not term:
            return result
        result = result + term


class Bivariate:
    """Polynomial in two formal tail variables with series coefficients."""

    def __init__(self, policy: TruncationPolicy, orders: tuple[int, int]):
        self.policy = policy
        self.orders = orders
        self.c: dict[tuple[int, int], TruncatedSeries] = {}

    def set(self, bidegree, series):
        if series:
            self.c[bidegree] = series

    @classmethod
    def one(cls, policy, orders):
        out = cls(policy, orders)
        out.set((0, 0), TruncatedSeries.constant(policy, 1))
        return out

    def __add__(self, other):
        out = Bivariate(self.policy, self.orders)
        for key in set(self.c) | set(other.c):
            s = self.c.get(key)
            t = other.c.get(key)
            val = s + t if (s is not None and t is not None) else (s or t)
            out.set(key, val)
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, scalar):
        out = Bivariate(self.policy, self.orders)
        for key, s in self.c.items():
            out.set(key, s * scalar)
        return out

    def shifted(self, da, db):
        amax, bmax = self.orders
        out = Bivariate(self.policy, self.orders)
        for (a, b), s in self.c.items():
            if a + da <= amax and b + db <= bmax:
                out.set((a + da, b + db), s)
        return out

    def __mul__(self, other):
        amax, bmax = self.orders
        acc = {}
        for (a1, b1), s1 in self.c.items():
            for (a2, b2), s2 in other.c.items():
                a, b = a1 + a2, b1 + b2
                if a > amax or b > bmax:
                    continue
                prod = series_mul(s1, s2)
                if not prod:
                    continue
                if (a, b) in acc:
                    acc[a, b] = acc[a, b] + prod
                else:
                    acc[a, b] = prod
        out = Bivariate(self.policy, self.orders)
        for key, s in acc.items():
            out.set(key, s)
        return out

    def exp(self):
        assert (0, 0) not in self.c
        result = Bivariate.one(self.policy, self.orders)
        term = result
        m = 0
        while True:
            m += 1
            term = (term * self).scaled(Fraction(1, m))
            if not term.c:
                return result
            result = result + term


def in_reference_cone(a, b, d, policy):
    """The cell ``(a, b, d)`` is exact under truncation: the union of the
    degree-and-index cone and the cells whose derivative indices are within
    ``n_max`` and whose terms read degrees within ``deg_max``."""
    n_max, deg_max = policy.n_max, policy.deg_max
    return a + b + d <= min(deg_max, n_max + 1) or (
        max(a, b) <= n_max and d <= deg_max - 2
    )


def reference_split_cone(residual, name):
    policy = residual.policy
    amax, bmax = residual.orders
    violations = []
    out_max = 0.0
    for (a, b), series in sorted(residual.c.items()):
        for mono, coeff in sorted(series.items(), key=lambda kv: kv[0].sort_key()):
            if in_reference_cone(a, b, mono.degree, policy):
                violations.append(f"bidegree ({a},{b}) term {mono}: residual {coeff}")
            else:
                out_max = max(out_max, abs(float(coeff)))
    cells = sum(
        in_reference_cone(a, b, d, policy)
        for a, b, d in itertools.product(
            range(amax + 1), range(bmax + 1), range(policy.deg_max + 1)
        )
    )
    return CheckResult(name, cells, violations, {"max_abs_out_of_cone": out_max})


def reference_residual_a(potential, order):
    reg = potential.regular
    policy = reg.policy
    amax = order + 1
    orders = (amax, amax)
    d = {k: reg.diff_t(k) for k in range(1, amax + 1)}
    d0 = reg.diff_t0()

    x = Bivariate(policy, orders)
    for a in range(1, amax + 1):
        for b in range(1, amax + 1):
            x.set((a, b), d[a].diff_t(b) * Fraction(1, a * b))
    e1 = x.exp()

    def one_sided(axis):
        y = Bivariate(policy, orders)
        for a in range(1, amax + 1):
            s = d0.diff_t(a) * Fraction(-1, a)
            y.set((a, 0) if axis == 0 else (0, a), s)
        return y.exp()

    e2 = one_sided(0)
    e3 = one_sided(1)
    residual = e1.shifted(0, 1) - e1.shifted(1, 0) - e2.shifted(0, 1) + e3.shifted(1, 0)
    return reference_split_cone(residual, "residual_a")


def reference_residual_c(potential, order):
    reg = potential.regular
    policy = reg.policy
    amax = order + 1
    orders = (amax, amax)
    d0 = reg.diff_t0()
    d00 = d0.diff_t0()

    m_tail = Bivariate(policy, orders)
    for a in range(1, amax + 1):
        da = reg.diff_t(a)
        for b in range(1, amax + 1):
            m_tail.set((a, b), da.diff_t(b, barred=True) * Fraction(-1, a * b))
    lhs = Bivariate.one(policy, orders) - m_tail.exp()

    p_tail = Bivariate(policy, orders)
    q_tail = Bivariate(policy, orders)
    for a in range(1, amax + 1):
        p_tail.set((a, 0), d0.diff_t(a) * Fraction(1, a))
        q_tail.set((0, a), d0.diff_t(a, barred=True) * Fraction(1, a))
    prefactor = series_mul(TruncatedSeries.t0(policy), series_exp(d00))
    rhs = Bivariate(policy, orders)
    rhs.set((1, 1), prefactor)
    rhs = rhs * p_tail.exp() * q_tail.exp()
    return reference_split_cone(lhs - rhs, "residual_c")


def assert_same_residuals(potential, order):
    """Both residuals, packed, after checking them against the reference."""
    results = []
    maxima = out_of_cone_maxima(potential, order)
    for packed, reference in (
        (toda_residual_a, reference_residual_a),
        (toda_residual_c, reference_residual_c),
    ):
        got, want = packed(potential, order), reference(potential, order)
        assert got.name == want.name
        assert got.checked == want.checked
        assert got.violations == want.violations
        assert got.metrics == {}
        assert maxima[got.name] == want.metrics["max_abs_out_of_cone"]
        assert type(maxima[got.name]) is float
        results.append(got)
    return results


@pytest.mark.parametrize(
    "n_max, deg_max, order", [(4, 4, 4), (3, 5, 2), (4, 6, 3), (5, 6, 4)]
)
def test_packed_residuals_equal_reference(n_max, deg_max, order):
    potential, _ = build_potential(default_policy(n_max, deg_max))
    assert_same_residuals(potential, order)


@pytest.mark.parametrize(
    "mono",
    [
        Monomial(1, ((1, False, 1), (1, True, 1))),
        Monomial(1, ((1, False, 2), (2, True, 1))),
    ],
    ids=["pair", "twist"],
)
def test_packed_residuals_equal_reference_on_corrupted_potentials(mono):
    # the two perturbations of test_residuals_detect_a_corrupted_potential,
    # each of which fails a residual
    potential, _ = build_potential(default_policy(4, 4))
    residual_a, residual_c = assert_same_residuals(corrupted_once(potential, mono), 4)
    assert not (residual_a.ok and residual_c.ok)


def test_packed_residuals_equal_reference_on_multinomial_window_weight():
    # the (6, 6) potential with the rejected window weight, which the
    # mixed constraint fails
    potential = reference_potential(default_policy(6, 6), "multinomial")
    _, residual_c = assert_same_residuals(potential, 4)
    assert not residual_c.ok


def bidegree_and_degree(violation):
    """``(a, b, factor degree)`` of a violation line."""
    head, mono = violation.split(": ")[0].split(" term ")
    a, b = map(int, re.fullmatch(r"bidegree \((\d+),(\d+)\)", head).groups())
    return a, b, sum(int(e) for e in re.findall(r"(?:t|tbar)[1-9]\d*\^(\d+)", mono))


def test_packed_violations_are_listed_by_bidegree_then_factor_degree():
    # with every coefficient rescaled the (5, 6) residual_a fails at several
    # factor degrees of one bidegree; both residuals list them by factor
    # degree, each degree in the canonical order
    potential, _ = build_potential(default_policy(5, 6))
    rng = random.Random(7)
    reg = potential.regular
    bad = PotentialSeries(
        TruncatedSeries(
            reg.policy, {m: c * Fraction(rng.randint(1, 5), 3) for m, c in reg.items()}
        )
    )
    got, want = toda_residual_a(bad, 4), reference_residual_a(bad, 4)
    degrees = {}
    for violation in want.violations:
        a, b, d = bidegree_and_degree(violation)
        degrees.setdefault((a, b), set()).add(d)
    assert max(map(len, degrees.values())) > 1  # the sort below is not vacuous
    assert got.violations == sorted(want.violations, key=bidegree_and_degree)
    assert out_of_cone_maxima(bad, 4)["residual_a"] == want.metrics["max_abs_out_of_cone"]
