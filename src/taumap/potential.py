"""The truncated potential series: the Toda solver that builds it, the
recursion it answers to, and its closed-form oracles.

The potential is

    F = 1/2 t0^2 log t0 - 3/4 t0^2
        + sum over keys  pref(unbarred) * pref(barred) * N(key)
          * t0^(i - K + 2) * prod t_{i_r}^{n_r} * prod tbar_{j_r}^{m_r}

where ``i`` is the common weight of the two sides, ``K`` the total factor
degree, ``pref`` the product of ``index^mult / mult!`` over a side, and
``N`` the coefficient from :mod:`taumap.coefficients`.  Only keys with at
least one factor on each side enter; the linear summand freedom is fixed to
zero, so the regular part has no constant or degree-1 terms.

:func:`build_potential` does not evaluate ``N`` key by key.  It solves
the mixed Toda equation that :func:`taumap.verify.toda_residual_c` checks,

    1 - exp(-M) = R = u v t0 exp(X),   X = d0^2 F + P(u) + Q(v),

with ``M = sum u^a v^b d_a dbar_b F / (a b)``,
``P = sum u^a d0 d_a F / a`` and ``Q = sum v^b d0 dbar_b F / b``, one
factor-degree slice at a time (:class:`_TodaSolver`).  ``X`` has no
degree-0 part and ``d_a`` lowers the degree by one, so the slice ``M_d``
needs ``F`` only through degree ``d + 1`` and fixes ``F_{d+2}``:

* ``X_d`` is ``d0^2 F_d`` with ``P`` and ``Q`` from ``F_{d+1}``;
* ``d E_d = sum_{j=1..d} j X_j E_{d-j}`` for ``E = exp(X)``, and
  ``R_d = u v t0 E_d``;
* ``M_0 = sum_{k <= n_max} (u v t0)^k / k``, and for ``d >= 1``
  ``M_d = (1 - u v t0)^{-1} [R_d + (1/d) sum_{j=1..d-1} (d-j) R_j M_{d-j}]``;
* a term of ``F_{d+2}`` with least unbarred index ``a`` and least barred
  index ``b`` is read from the cell ``(a, b)`` of ``M_d``: its coefficient
  is ``a b c / (n_a m_b)``, ``c`` the cell's coefficient on the monomial
  less ``t_a tbar_b`` and ``n_a``, ``m_b`` the exponents of ``t_a``,
  ``tbar_b`` in the term.

Setting ``t_k = 0`` for ``k > n_max`` commutes with the equation's cells
``a, b <= n_max``, so the slices live on the policy's own monomials, in
tails (:class:`taumap.series._Tail`) of orders ``(n_max, n_max)``.  The
map's ``B_k = d0 d_k F`` for ``k > n_max`` at moments cut at ``n_max``
(see :func:`taumap.confmap.map_from_potential`) need the one-point
sector: the terms that carry one unbarred ``t_k`` beyond the index bound
and nothing else beyond it, ``sum_k t_k S_k`` with
``S_k = d_k F |_{t_j = 0, j > n_max}``.  A build given the largest map
order it will serve runs the ``u`` orders up to that ``k_max`` in the same
pass: ``S_a`` enters ``P`` as ``u^a d0 S_a / a``, and the cell ``(a, b)``
with ``a > n_max`` gives the term of ``S_a`` with least barred index
``b`` as ``a b c / m_b``.  The potential keeps the ``S_k`` themselves,
series in the policy's own variables, and the map reads
``B_k = d0 S_k`` from them.

The recursion for ``N`` stays as the exact oracle the solver answers to:
the paper's combinatorial formula.  :func:`_admissible_keys` is its walk
over a policy's keys, :func:`recursion_terms` sums it over given keys and
:func:`combinatorial_formula_check` requires the regular part to equal that
sum over every key of the policy.  ``N`` is invariant under exchanging the
two sides of a key, but its cost is not; :func:`_oriented` names the cheap
orientation, in which the oracle evaluates each key.

This module also carries two more strong self-checks used as acceptance
oracles: the restriction of mixed derivatives to the ``t0`` line (Cauchy
data) and the closed-form potential of the ellipse family (all indices
<= 2), both as exact rational comparisons.  Every exact check of the
package, here and in :mod:`taumap.verify`, reports one
:class:`CheckResult`; the numeric roundtrip returns a
:class:`taumap.verify.RoundtripReport`, which ``taumap verify`` judges
against its tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Collection, Iterable, Iterator

from .coefficients import MemoCache, NKey, bounded_partitions, n2_coefficient
from .series import (
    Monomial,
    PotentialSeries,
    TruncatedSeries,
    TruncationPolicy,
    _Codec,
    _Tail,
)

__all__ = [
    "CheckResult",
    "BuildReport",
    "build_potential",
    "default_policy",
    "recursion_terms",
    "recursion_potential",
    "combinatorial_formula_check",
    "cauchy_data_check",
    "ellipse_oracle_check",
    "ellipse_regular_series",
]


@dataclass
class CheckResult:
    """Outcome of one self-check: it passes iff it found no violations.

    ``checked`` counts the items the check judged; ``metrics`` holds the
    numbers it reports but does not judge.
    """

    name: str
    checked: int
    violations: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @classmethod
    def of_terms(cls, name: str, built: dict, expected: dict, label: str) -> CheckResult:
        """``built`` against ``expected``, two ``{Monomial: Fraction}`` maps,
        exactly at every monomial of either (a missing one reads 0);
        ``checked`` counts those monomials."""
        monos = built.keys() | expected.keys()
        bad = [m for m in monos if built.get(m, 0) != expected.get(m, 0)]
        violations = [
            f"{m}: built {built.get(m, 0)}, {label} {expected.get(m, 0)}"
            for m in sorted(bad, key=Monomial.sort_key)
        ]
        return cls(name, len(monos), violations)

    def to_json(self) -> dict:
        """``{"pass", "checked", "violations"}`` with the metrics alongside."""
        return {
            "pass": self.ok,
            "checked": self.checked,
            "violations": self.violations,
            **self.metrics,
        }


@dataclass(frozen=True)
class BuildReport:
    """The policy of a build, how many terms it kept, and its time."""

    policy: TruncationPolicy
    nonzero_terms: int
    elapsed: float

    @property
    def keys_evaluated(self) -> int:
        """How many keys the policy admits: one walk of :func:`_admissible_keys`,
        the recursion's keys, which the solver itself never walks."""
        return sum(1 for _ in _admissible_keys(self.policy))

    def to_json(self) -> dict:
        """``{"keys_evaluated", "nonzero_terms"}``: no time, so runs write the same."""
        return {"keys_evaluated": self.keys_evaluated, "nonzero_terms": self.nonzero_terms}


def default_policy(n_max: int, deg_max: int) -> TruncationPolicy:
    """The policy of a build at index bound ``n_max`` and degree bound ``deg_max``.

    It is ``TruncationPolicy(n_max, deg_max)`` and stays while the
    benchmark's workloads (``perfbench/workloads.py``) call it.
    """
    return TruncationPolicy(n_max=n_max, deg_max=deg_max)


def _oriented(key: NKey) -> NKey:
    """The orientation of ``key`` the recursion oracle evaluates.

    ``N`` is invariant under exchanging the two sides, but its cost is not:
    ``t2`` recurses over the unbarred list and the placements over the
    barred one, and many unbarred factors against few barred ones is the
    cheap way round.  So the side with more factors goes unbarred; a tie
    puts the larger side tuple unbarred.
    """
    k = sum(m for _, m in key.unbarred)
    kbar = sum(m for _, m in key.barred)
    if (k, key.unbarred) >= (kbar, key.barred):
        return key
    return key.swapped()


def _admissible_keys(policy: TruncationPolicy) -> Iterator[tuple[NKey, int]]:
    """Every key of ``policy`` with its ``t0`` exponent, by weight ascending.

    Each side is a bounded partition of the weight (indices <= ``n_max``);
    the two sides share at most ``deg_max`` factors in total, with one
    factor minimum each, and the exponent ``weight - degree + 2`` is
    non-negative.  The weight is at most ``n_max * (deg_max - 1)``, so the
    exponent is at most ``n_max * (deg_max - 1)`` too.  The sides of every
    weight are enumerated once, and an unbarred side meets only the barred
    sides with few enough factors, in their enumeration order: every pair
    visited is a key.
    """
    n_max, deg_max = policy.n_max, policy.deg_max
    max_side = deg_max - 1
    max_weight = n_max * max_side if max_side > 0 else 0
    for weight in range(1, max_weight + 1):
        sides = [
            (side, sum(m for _, m in side))
            for side in bounded_partitions(weight, n_max, max_side)
        ]
        # within[c]: the sides with at most c factors, in order
        within = [[(side, n) for side, n in sides if n <= c] for c in range(max_side + 1)]
        for unbarred, count in sides:
            # the degree is at most deg_max and weight + 2 (t0_power >= 0)
            room = min(deg_max, weight + 2) - count
            for barred, kbar in within[max(room, 0)]:
                yield NKey(unbarred, barred), weight - count - kbar + 2


def recursion_terms(
    keys: Iterable[tuple[NKey, int]], cache: MemoCache
) -> dict[Monomial, Fraction]:
    """``pref(unbarred) * pref(barred) * N(key)`` for every key, zero or not,
    by monomial.

    ``keys`` are ``(key, t0 exponent)`` pairs; ``N`` is evaluated in the
    orientation :func:`_oriented` picks, on ``cache``.
    """
    terms = {}
    for key, t0_power in keys:
        coeff = n2_coefficient(_oriented(key), cache)
        num, den = coeff.numerator, coeff.denominator
        for idx, mult in key.unbarred + key.barred:
            num *= idx**mult
            den *= factorial(mult)
        factors = tuple((i, False, m) for i, m in key.unbarred)
        factors += tuple((i, True, m) for i, m in key.barred)
        terms[Monomial(t0_power, factors)] = Fraction(num, den)
    return terms


def recursion_potential(
    policy: TruncationPolicy, cache: MemoCache | None = None
) -> PotentialSeries:
    """The potential of ``policy`` summed from the recursion over every key,
    on ``cache`` or a fresh one: the reference the solver is checked against."""
    if cache is None:
        cache = MemoCache()
    terms = recursion_terms(_admissible_keys(policy), cache)
    return PotentialSeries(TruncatedSeries(policy, terms))


class _TodaSolver:
    """The regular part and the one-point sector from the mixed Toda equation
    (module docstring).

    Every slice is a tail of orders ``(k_max, n_max)`` under the policy's
    codec holding one factor degree: ``X_d``, ``E_d``, ``M_d``, the terms of
    ``F_d`` in the cell ``(0, 0, d)`` and those of ``S_a`` in the cells
    ``(a, 0, d)``, ``a > n_max``.
    """

    def __init__(self, policy: TruncationPolicy, k_max: int) -> None:
        self.policy = policy
        self.codec = codec = _Codec(policy)
        self.orders = (k_max, policy.n_max)
        self.t0 = 1 << codec.t0_shift
        self.one = self._tail({(0, 0, 0): {0: 1}})

    def _tail(self, cells, den=1) -> _Tail:
        return _Tail(self.codec, self.policy, self.orders, cells, den)

    def solve(self) -> tuple[TruncatedSeries, tuple[TruncatedSeries, ...]]:
        """The regular part and the sector's ``S_a``, each degree slice computed once."""
        n, deg_max = self.policy.n_max, self.policy.deg_max
        one = self.one
        # M_0 = -log(1 - u v t0), the one slice the recurrence below misses
        den = lcm(*range(1, n + 1))
        m = [self._tail({(k, k, 0): {k * self.t0: den // k} for k in range(1, n + 1)}, den)]
        e, x = [one], [None]
        f, s = {1: self._tail({})}, {}
        for d in range(deg_max - 1):
            if d:
                x.append(self._sources(f[d], f[d + 1], s[d]))
                e.append(one.graded_exp_slice(x, e))
                # M_d = sum_{k >= 1} (u v t0)^k [E_d + (1/d) sum (d-j) E_j M_{d-j}]
                inner = one.products(
                    [(1, e[d], one)]
                    + [(Fraction(d - j, d), e[j], m[d - j]) for j in range(1, d)]
                )
                m.append(self._geometric(inner))
            f[d + 2], s[d + 1] = self._read(m[d], d)
        k_max = self.orders[0]
        sector = tuple(self._summed(s.values(), a) for a in range(n + 1, k_max + 1))
        return self._summed(f.values(), 0), sector

    def _sources(self, lo: _Tail, hi: _Tail, sector: _Tail) -> _Tail:
        """``X_d``: ``d0^2 F_d``, ``u^a d0 d_a F / a`` and ``v^b d0 dbar_b F / b``
        from ``F_{d+1}``, and ``u^a d0 S_a / a`` from the sector slice."""
        one, d0 = self.one, hi.diff_t0()
        terms = [(1, lo.diff_t0().diff_t0(), one)]
        for a in range(1, self.policy.n_max + 1):
            terms.append((Fraction(1, a), d0.diff_t(a).shifted(a, 0), one))
            terms.append((Fraction(1, a), d0.diff_t(a, barred=True).shifted(0, a), one))
        for key, cell in sector.cells.items():
            s_a = self._tail({key: cell}, sector.den)
            terms.append((Fraction(1, key[0]), s_a.diff_t0(), one))
        return one.products(terms)

    def _geometric(self, inner: _Tail) -> _Tail:
        """``sum_{k >= 1} (u v t0)^k inner``, cut at the orders."""
        amax, bmax = self.orders
        cells: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, d), cell in inner.cells.items():
            for k in range(1, min(amax - a, bmax - b) + 1):
                out = cells.setdefault((a + k, b + k, d), {})
                shift = k * self.t0
                for code, n in cell.items():
                    out[code + shift] = out.get(code + shift, 0) + n
        return self._tail(cells, inner.den)

    def _read(self, m: _Tail, d: int) -> tuple[_Tail, _Tail]:
        """``F_{d+2}`` and ``S`` at degree ``d + 1`` from the cells of ``M_d``.

        A term of ``F`` with least unbarred index ``a`` and least barred
        index ``b`` sits in cell ``(a, b)`` as ``n_a m_b / (a b)`` times its
        coefficient, on its monomial less ``t_a tbar_b``; a cell ``a > n_max``
        holds ``dbar_b S_a / (a b)`` the same way.
        """
        codec = self.codec
        n, mask = codec.n_max, codec.mask
        # ``below`` masks the fields tbar_1..tbar_{b-1}, then t_1..t_{a-1}
        barred_from = 1 << codec.shift(1, barred=True)
        scale = lcm(*range(1, self.policy.deg_max + 1)) ** 2
        regular: dict[int, int] = {}
        sector: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, _), cell in m.cells.items():
            b_pos = codec.shift(b, barred=True)
            below = (1 << b_pos) - barred_from
            if a > n:
                out = sector.setdefault((a, 0, d + 1), {})
                for code, c in cell.items():
                    if not code & below:
                        code += 1 << b_pos
                        out[code] = a * b * c * (scale // ((code >> b_pos) & mask))
                continue
            a_pos = codec.shift(a)
            below |= (1 << a_pos) - 1
            step = (1 << a_pos) + (1 << b_pos)
            for code, c in cell.items():
                if not code & below:
                    code += step
                    na_mb = ((code >> a_pos) & mask) * ((code >> b_pos) & mask)
                    regular[code] = a * b * c * (scale // na_mb)
        den = m.den * scale
        return self._tail({(0, 0, d + 2): regular}, den), self._tail(sector, den)

    def _summed(self, slices: Collection[_Tail], a: int) -> TruncatedSeries:
        """The cells ``(a, 0, d)`` of the degree slices as one series under the
        policy: ``F`` from its slices at ``a = 0``, ``S_a`` from the sector's."""
        den = lcm(*(t.den for t in slices))
        cells = {
            (0, 0, d): {code: num * (den // t.den) for code, num in cell.items()}
            for t in slices
            for (b, _, d), cell in t.cells.items()
            if b == a
        }
        return TruncatedSeries._of(_Tail(self.codec, self.policy, (0, 0), cells, den))


def build_potential(
    policy: TruncationPolicy,
    cache: MemoCache | None = None,
    map_order: int | None = None,
) -> tuple[PotentialSeries, BuildReport]:
    """Solve the mixed Toda equation for the potential, one degree slice at a time.

    ``map_order`` is the largest map order ``J`` the potential will serve.
    A map of order ``J`` reads ``B_k`` for ``k <= J + 1``; when that exceeds
    ``n_max`` the same pass also solves for the one-point sector, and the
    potential's ``sector`` holds ``S_{n_max+1}, ..., S_{J+1}`` under the
    policy (else it is empty).  The report keeps the policy and counts its
    keys (``keys_evaluated``) only when read.  The build reads no memo
    table: ``cache`` is accepted and not read.  It stays while the
    benchmark's workloads (``perfbench/workloads.py``) pass one.
    """
    start = time.perf_counter()
    k_max = policy.n_max if map_order is None else max(policy.n_max, map_order + 1)
    regular, sector = _TodaSolver(policy, k_max).solve()
    report = BuildReport(policy, len(regular), time.perf_counter() - start)
    return PotentialSeries(regular, sector), report


# -- combinatorial formula oracle --------------------------------------------


def combinatorial_formula_check(potential: PotentialSeries) -> CheckResult:
    """The regular part against the paper's recursion, term by term.

    Every key of :func:`_admissible_keys` is evaluated on a fresh cache
    (:func:`recursion_terms`), and the built coefficient of its monomial
    must equal it exactly; a built term on a monomial that is no key must
    not exist.  ``checked`` counts the monomials compared: the keys, plus
    any built term outside them.
    """
    reg = potential.regular
    formula = recursion_terms(_admissible_keys(reg.policy), MemoCache())
    return CheckResult.of_terms("combinatorial_formula", dict(reg.items()), formula, "formula")


# -- Cauchy data oracle ------------------------------------------------------


def cauchy_data_check(potential: PotentialSeries) -> CheckResult:
    """Compare mixed derivatives on the ``t0`` line with their closed forms.

    Three layers, all exact, through every index the potential supplies
    (``potential.k_max``):

    * pure ``t0``: the regular part carries no one-sided monomials, so no
      factor-free ones (:meth:`PotentialSeries.invariant_violations`);
    * one index each side: coefficient of ``t0^i t_i tbar_i`` equals ``i``;
    * one plain index against a barred multiset ``B`` of weight ``i``
      (and the mirror image): the coefficient of
      ``t0^(i-k+1) t_i * prod tbar`` times the multiplicity factorials
      equals ``prod(B) * i! / (i-k+1)!`` where ``k = |B|``.  For
      ``n_max < i <= k_max`` the term is ``t_i`` times
      ``t0^(i-k+1) * prod tbar``, read as the latter in the sector's
      ``S_i``, which holds no mirror images.
    """
    reg = potential.regular
    policy = reg.policy
    violations = list(potential.invariant_violations())
    checked = 0

    def expect(series: TruncatedSeries, mono: Monomial, value: Fraction, label: str) -> None:
        nonlocal checked
        if not series.policy.admits(mono):
            return
        checked += 1
        got = series.coefficient(mono)
        if got != value:
            violations.append(f"{label}: coefficient({mono}) = {got}, expected {value}")

    for i in range(1, policy.n_max + 1):
        mono = Monomial(i, ((i, False, 1), (i, True, 1)))
        expect(reg, mono, Fraction(i), "diagonal pair")

    for i in range(1, potential.k_max + 1):
        for barred_side in bounded_partitions(i, policy.n_max, policy.deg_max - 1):
            k = sum(m for _, m in barred_side)
            t0_power = i - k + 1
            target = Fraction(
                prod(x**m for x, m in barred_side) * factorial(i),
                factorial(t0_power) * prod(factorial(m) for _, m in barred_side),
            )
            barred = tuple((x, True, m) for x, m in barred_side)
            if i > policy.n_max:
                s_i = potential.sector[i - policy.n_max - 1]
                expect(s_i, Monomial(t0_power, barred), target, f"one plain index (S_{i})")
                continue
            plain = Monomial(t0_power, ((i, False, 1),) + barred)
            expect(reg, plain, target, "one plain index")
            mirror = Monomial(
                t0_power, tuple((x, False, m) for x, m in barred_side) + ((i, True, 1),)
            )
            expect(reg, mirror, target, "one barred index")

    return CheckResult("cauchy_data", checked, violations)


# -- ellipse oracle ----------------------------------------------------------


def ellipse_regular_series(policy: TruncationPolicy) -> TruncatedSeries:
    """Regular part of the closed-form potential of the ellipse family.

    For a boundary with only the first two moments present the potential is

        -3/4 t0^2 + 1/2 t0^2 log(t0 / (1 - 4 t2 tbar2))
        + t0 (t1 tbar1 + t1^2 tbar2 + tbar1^2 t2) / (1 - 4 t2 tbar2)

    and this function expands everything except the two singular ``t0^2``
    pieces as a series: the log of the geometric factor via
    ``log(1/(1-x)) = sum x^j / j`` and the quotient via ``sum x^j``.
    """
    one = TruncatedSeries.constant(policy, 1)
    t0 = TruncatedSeries.t0(policy)
    t1 = TruncatedSeries.variable(policy, 1)
    t1b = TruncatedSeries.variable(policy, 1, barred=True)
    t2 = TruncatedSeries.variable(policy, 2)
    t2b = TruncatedSeries.variable(policy, 2, barred=True)

    x = 4 * t2 * t2b
    log_inv = TruncatedSeries.zero(policy)
    geom = one
    x_pow = one
    j = 0
    while True:
        j += 1
        x_pow = x_pow * x
        if not x_pow:
            break
        log_inv = log_inv + x_pow * Fraction(1, j)
        geom = geom + x_pow

    quad = t1 * t1b + t1 * t1 * t2b + t1b * t1b * t2
    return t0 * t0 * log_inv * Fraction(1, 2) + t0 * quad * geom


def ellipse_oracle_check(potential: PotentialSeries) -> CheckResult:
    """Exact comparison of the built potential against the ellipse family.

    Every coefficient of the built regular part whose monomial uses only
    indices <= 2 must match the closed-form expansion, and vice versa.
    Requires a policy with ``n_max >= 2``.
    """
    reg = potential.regular
    policy = reg.policy
    if policy.n_max < 2:
        raise ValueError("ellipse oracle needs n_max >= 2")
    expected = ellipse_regular_series(policy)
    low = reg.filter(lambda m: all(k <= 2 for k, _, _ in m.factors))
    return CheckResult.of_terms(
        "ellipse_closed_form", dict(low.items()), dict(expected.items()), "closed form"
    )
