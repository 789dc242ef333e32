"""Assembly of the truncated potential series from the coefficient engine.

The potential is

    F = 1/2 t0^2 log t0 - 3/4 t0^2
        + sum over keys  pref(unbarred) * pref(barred) * N(key)
          * t0^(i - K + 2) * prod t_{i_r}^{n_r} * prod tbar_{j_r}^{m_r}

where ``i`` is the common weight of the two sides, ``K`` the total factor
degree, ``pref`` the product of ``index^mult / mult!`` over a side, and
``N`` the coefficient from :mod:`taumap.coefficients`.  Only keys with at
least one factor on each side enter; the linear summand freedom is fixed to
zero, so the regular part has no constant or degree-1 terms.

One walk, :func:`_admissible_keys`, states which keys a potential holds,
and one loop, :func:`_terms`, orients each key, evaluates it and stores
its monomial.  :func:`build_potential` runs it over the policy's keys,
:func:`one_point_sector` over the keys that carry one unbarred ``t_k``
beyond the index bound and nothing else beyond it: the keys that fix the
map's ``B_k = d0 d_k F`` for ``k > n_max`` at moments cut at ``n_max``
(see :func:`taumap.confmap.map_from_potential`).  A build given the
largest map order it will serve carries that sector to the map.

``N`` is invariant under exchanging the two sides of a key (the barred
twin of the pair constraint, see :func:`taumap.verify.toda_residual_b`),
but its cost is not, so every key is evaluated in one orientation only:
the side with more factors goes unbarred, and a tie puts the larger side
tuple unbarred (:func:`_oriented`).  The prefactors and the ``t0``
exponent are the same both ways, so a key and its mirror share one
``n1`` entry and the build is bar-exchange symmetric by construction.

This module also carries the two strong self-checks used as acceptance
oracles: the restriction of mixed derivatives to the ``t0`` line (Cauchy
data) and the closed-form potential of the ellipse family (all indices
<= 2), both as exact rational comparisons.  Every check of the package,
here and in :mod:`taumap.verify`, reports one :class:`CheckResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator

from .coefficients import MemoCache, NKey, bounded_partitions, n2_coefficient
from .series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy

__all__ = [
    "CheckResult",
    "BuildReport",
    "build_potential",
    "default_policy",
    "one_point_sector",
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
    """What a build evaluated and kept, its time, and the memo table sizes.

    ``table_sizes`` is :meth:`MemoCache.sizes` after the build; a cache
    shared between builds reports its cumulative sizes.
    """

    policy: TruncationPolicy
    keys_evaluated: int
    nonzero_terms: int
    elapsed: float
    table_sizes: dict[str, int]


def default_policy(n_max: int, deg_max: int) -> TruncationPolicy:
    """The policy of a build at index bound ``n_max`` and degree bound ``deg_max``."""
    return TruncationPolicy(n_max=n_max, deg_max=deg_max)


def _monomial_for(key: NKey, t0_power: int) -> Monomial:
    factors = tuple((idx, False, mult) for idx, mult in key.unbarred) + tuple(
        (idx, True, mult) for idx, mult in key.barred
    )
    return Monomial(t0_power, factors)


def _oriented(key: NKey) -> NKey:
    """The orientation of ``key`` the engine evaluates.

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


def _admissible_keys(
    policy: TruncationPolicy, sector: Iterable[int] | None = None
) -> Iterator[tuple[NKey, int]]:
    """Every key of ``policy`` with its ``t0`` exponent, by weight ascending;
    given ``sector``, every key of the one-point sector at those indices.

    Each side is a bounded partition of the weight (indices <= ``n_max``);
    the two sides share at most ``deg_max`` factors in total, with one
    factor minimum each, and the exponent ``weight - degree + 2`` is
    non-negative.  The weight is at most ``n_max * (deg_max - 1)``, so the
    exponent is at most ``n_max * (deg_max - 1)`` too.

    A sector key of index ``k > n_max`` has the same shape with ``t_k``
    once more on its unbarred side, beside a partition of ``weight - k``;
    the sector's keys come index by index, each by weight ascending.  The
    sides of every weight are enumerated once per call, and an unbarred
    side meets only the barred sides with few enough factors, in their
    enumeration order: every pair visited is a key.
    """
    n_max, deg_max = policy.n_max, policy.deg_max
    max_side = deg_max - 1
    max_weight = n_max * max_side if max_side > 0 else 0
    sides = [
        [(side, sum(m for _, m in side)) for side in bounded_partitions(w, n_max, max_side)]
        for w in range(max_weight + 1)
    ]
    # within[w][c]: the sides of weight w with at most c factors, in order
    within = [
        [[(side, n) for side, n in group if n <= c] for c in range(max_side + 1)]
        for group in sides
    ]
    # the policy's own keys carry no index beyond n_max: k = 0 stands for none
    for k in (0,) if sector is None else sector:
        extra = ((k, 1),) if k else ()
        for weight in range(max(k, 1), max_weight + 1):
            for rest, count in sides[weight - k]:
                unbarred = rest + extra
                plain_degree = count + len(extra)
                # the degree is at most deg_max and weight + 2 (t0_power >= 0)
                room = min(deg_max, weight + 2) - plain_degree
                for barred, kbar in within[weight][max(room, 0)]:
                    yield NKey(unbarred, barred, weight), weight - plain_degree - kbar + 2


def _term_coefficient(key: NKey, cache: MemoCache) -> Fraction:
    """``pref(unbarred) * pref(barred) * N(key)``, with ``key`` evaluated as written."""
    coeff = n2_coefficient(key, cache)
    if coeff:
        num, den = coeff.numerator, coeff.denominator
        for idx, mult in key.unbarred + key.barred:
            num *= idx**mult
            den *= factorial(mult)
        coeff = Fraction(num, den)
    return coeff


def _terms(
    keys: Iterable[tuple[NKey, int]], cache: MemoCache
) -> tuple[dict[Monomial, Fraction], int]:
    """The nonzero potential terms of ``keys``, and how many keys there were.

    Each coefficient is evaluated in the orientation :func:`_oriented`
    picks; the side prefactors and the ``t0`` exponent are the same both
    ways, and the mirror of an evaluated key is a hit in ``cache.n1``.
    """
    terms: dict[Monomial, Fraction] = {}
    count = 0
    for key, t0_power in keys:
        count += 1
        coeff = _term_coefficient(_oriented(key), cache)
        if coeff:
            terms[_monomial_for(key, t0_power)] = coeff
    return terms, count


def build_potential(
    policy: TruncationPolicy,
    cache: MemoCache | None = None,
    map_order: int | None = None,
) -> tuple[PotentialSeries, BuildReport]:
    """Sum the coefficient recursion over every admissible key.

    The keys are those of :func:`_admissible_keys`; ``keys_evaluated``
    counts them, mirrors included.  Without a ``cache`` the build fills a
    fresh one.

    ``map_order`` is the largest map order ``J`` the potential will serve.
    A map of order ``J`` reads ``B_k`` for ``k <= J + 1``; when that exceeds
    ``n_max`` the potential also carries :func:`one_point_sector` up to
    ``k_max = J + 1``.  The sector is evaluated on a fresh cache of its own,
    so its tables are freed when the build returns, and it is not counted
    in the report.
    """
    if cache is None:
        cache = MemoCache()
    start = time.perf_counter()
    terms, keys_evaluated = _terms(_admissible_keys(policy), cache)
    regular = TruncatedSeries(policy, terms)
    report = BuildReport(
        policy=policy,
        keys_evaluated=keys_evaluated,
        nonzero_terms=len(regular),
        elapsed=time.perf_counter() - start,
        table_sizes=cache.sizes(),
    )
    sector = None
    if map_order is not None and map_order + 1 > policy.n_max:
        sector = one_point_sector(policy, map_order + 1)
    potential = PotentialSeries(
        singular_log_coeff=Fraction(1, 2),
        singular_quad_coeff=Fraction(-3, 4),
        regular=regular,
        sector=sector,
    )
    return potential, report


def one_point_sector(
    policy: TruncationPolicy,
    k_max: int,
    cache: MemoCache | None = None,
) -> TruncatedSeries:
    """Potential terms linear in one ``t_k`` with ``policy.n_max < k <= k_max``.

    The keys are those :func:`_admissible_keys` walks at these ``k``, and
    their terms are written as the build writes its own.  They are exactly
    the terms of a build under ``(k_max, deg_max)`` that hold that ``t_k``
    once and every other index at most ``n_max``, with the same
    coefficients.  The result lives under that wider policy.
    """
    if cache is None:
        cache = MemoCache()
    n_max = policy.n_max
    terms, _ = _terms(_admissible_keys(policy, range(n_max + 1, k_max + 1)), cache)
    return TruncatedSeries(TruncationPolicy(max(n_max, k_max), policy.deg_max), terms)


# -- Cauchy data oracle ------------------------------------------------------


def cauchy_data_check(potential: PotentialSeries, i_max: int) -> CheckResult:
    """Compare mixed derivatives on the ``t0`` line with their closed forms.

    Three layers, all exact:

    * pure ``t0``: the regular part carries no factor-free monomials and the
      singular coefficients are ``1/2`` and ``-3/4``;
    * one index each side: coefficient of ``t0^i t_i tbar_i`` equals ``i``;
    * one plain index against a barred multiset ``B`` of weight ``i``
      (and the mirror image): the coefficient of
      ``t0^(i-k+1) t_i * prod tbar`` times the multiplicity factorials
      equals ``prod(B) * i! / (i-k+1)!`` where ``k = |B|``.  For
      ``n_max < i <= k_max`` the term is read from the one-point sector,
      which holds no mirror images.
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

    for i in range(1, min(i_max, policy.n_max) + 1):
        mono = Monomial(i, ((i, False, 1), (i, True, 1)))
        expect(reg, mono, Fraction(i), "diagonal pair")

    for i in range(1, min(i_max, potential.k_max) + 1):
        for barred_side in bounded_partitions(i, policy.n_max, policy.deg_max - 1):
            k = sum(m for _, m in barred_side)
            t0_power = i - k + 1
            target = Fraction(
                prod(x**m for x, m in barred_side) * factorial(i),
                factorial(t0_power) * prod(factorial(m) for _, m in barred_side),
            )
            plain = Monomial(
                t0_power, ((i, False, 1),) + tuple((x, True, m) for x, m in barred_side)
            )
            if i > policy.n_max:
                expect(potential.sector, plain, target, "one plain index (sector)")
                continue
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

    violations = []
    keys = set(dict(expected.items())) | set(dict(low.items()))
    for mono in sorted(keys, key=lambda m: m.sort_key()):
        a = low.coefficient(mono)
        b = expected.coefficient(mono)
        if a != b:
            violations.append(f"{mono}: built {a}, closed form {b}")
    return CheckResult("ellipse_closed_form", len(keys), violations)
