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

This module also carries the two strong self-checks used as acceptance
oracles: the restriction of mixed derivatives to the ``t0`` line (Cauchy
data) and the closed-form potential of the ellipse family (all indices
<= 2), both as exact rational comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .coefficients import (
    DEFAULT_CACHE,
    DEFAULT_WEIGHT_RULE,
    MemoCache,
    NKey,
    bounded_partitions,
    n2_coefficient,
)
from .series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy

__all__ = [
    "BuildReport",
    "build_potential",
    "default_policy",
    "cauchy_data_check",
    "CauchyReport",
    "ellipse_oracle_check",
    "EllipseReport",
    "ellipse_regular_series",
]


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


def default_policy(n_max: int, deg_max: int, t0_max: int | None = None) -> TruncationPolicy:
    """Policy whose ``t0`` bound never truncates an admissible key.

    The ``t0`` exponent of a key is ``weight - degree + 2`` and the weight is
    at most ``n_max * (deg_max - 1)``, so ``n_max * deg_max + 2`` is safe.
    """
    if t0_max is None:
        t0_max = n_max * deg_max + 2
    return TruncationPolicy(n_max=n_max, deg_max=deg_max, t0_max=t0_max)


def _side_prefactor(side: tuple[tuple[int, int], ...]) -> Fraction:
    pref = Fraction(1)
    for idx, mult in side:
        pref *= Fraction(idx**mult, factorial(mult))
    return pref


def _monomial_for(key: NKey, t0_power: int) -> Monomial:
    factors = tuple((idx, False, mult) for idx, mult in key.unbarred) + tuple(
        (idx, True, mult) for idx, mult in key.barred
    )
    return Monomial(t0_power, factors)


def build_potential(
    policy: TruncationPolicy,
    weight_rule: str = DEFAULT_WEIGHT_RULE,
    cache: MemoCache = DEFAULT_CACHE,
) -> tuple[PotentialSeries, BuildReport]:
    """Sum the coefficient recursion over every admissible key.

    Keys are enumerated by weight ascending; each side of a key is a bounded
    partition of the weight (indices <= ``n_max``) and the two sides share
    at most ``deg_max`` factors in total, with one factor minimum each.
    """
    start = time.perf_counter()
    terms: dict[Monomial, Fraction] = {}
    keys_evaluated = 0
    max_side = policy.deg_max - 1
    max_weight = policy.n_max * max_side if max_side > 0 else 0
    for weight in range(1, max_weight + 1):
        sides = list(bounded_partitions(weight, policy.n_max, max_side))
        for unbarred in sides:
            k = sum(m for _, m in unbarred)
            for barred in sides:
                kbar = sum(m for _, m in barred)
                degree = k + kbar
                if degree > policy.deg_max:
                    continue
                t0_power = weight - degree + 2
                if t0_power < 0 or t0_power > policy.t0_max:
                    continue
                key = NKey(unbarred, barred, weight)
                keys_evaluated += 1
                coeff = n2_coefficient(key, weight_rule, cache)
                if not coeff:
                    continue
                coeff *= _side_prefactor(unbarred) * _side_prefactor(barred)
                terms[_monomial_for(key, t0_power)] = coeff
    regular = TruncatedSeries(policy, terms)
    report = BuildReport(
        policy=policy,
        keys_evaluated=keys_evaluated,
        nonzero_terms=len(regular),
        elapsed=time.perf_counter() - start,
        table_sizes=cache.sizes(),
    )
    potential = PotentialSeries(
        singular_log_coeff=Fraction(1, 2),
        singular_quad_coeff=Fraction(-3, 4),
        regular=regular,
    )
    return potential, report


# -- Cauchy data oracle ------------------------------------------------------


@dataclass
class CauchyReport:
    i_max: int
    checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def cauchy_data_check(potential: PotentialSeries, i_max: int) -> CauchyReport:
    """Compare mixed derivatives on the ``t0`` line with their closed forms.

    Three layers, all exact:

    * pure ``t0``: the regular part carries no factor-free monomials and the
      singular coefficients are ``1/2`` and ``-3/4``;
    * one index each side: coefficient of ``t0^i t_i tbar_i`` equals ``i``;
    * one plain index against a barred multiset ``B`` of weight ``i``
      (and the mirror image): the coefficient of
      ``t0^(i-k+1) t_i * prod tbar`` times the multiplicity factorials
      equals ``prod(B) * i! / (i-k+1)!`` where ``k = |B|``.
    """
    reg = potential.regular
    policy = reg.policy
    violations = list(potential.invariant_violations())
    checked = 0

    def expect(mono: Monomial, value: Fraction, label: str) -> None:
        nonlocal checked
        checked += 1
        got = reg.coefficient(mono)
        if got != value:
            violations.append(f"{label}: coefficient({mono}) = {got}, expected {value}")

    for i in range(1, min(i_max, policy.n_max) + 1):
        mono = Monomial(i, ((i, False, 1), (i, True, 1)))
        if policy.admits(mono):
            expect(mono, Fraction(i), "diagonal pair")

    for i in range(1, min(i_max, policy.n_max) + 1):
        for barred_side in bounded_partitions(i, policy.n_max, policy.deg_max - 1):
            k = sum(m for _, m in barred_side)
            t0_power = i - k + 1
            prod_idx = 1
            mult_fact = 1
            for idx, mult in barred_side:
                prod_idx *= idx**mult
                mult_fact *= factorial(mult)
            target = Fraction(prod_idx * factorial(i), factorial(i - k + 1) * mult_fact)
            plain = Monomial(
                t0_power, ((i, False, 1),) + tuple((x, True, m) for x, m in barred_side)
            )
            if policy.admits(plain):
                expect(plain, target, "one plain index")
            mirror = Monomial(
                t0_power, tuple((x, False, m) for x, m in barred_side) + ((i, True, 1),)
            )
            if policy.admits(mirror):
                expect(mirror, target, "one barred index")

    return CauchyReport(i_max=i_max, checked=checked, violations=violations)


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


@dataclass
class EllipseReport:
    policy: TruncationPolicy
    checked: int
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def ellipse_oracle_check(potential: PotentialSeries) -> EllipseReport:
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

    mismatches = []
    seen = 0
    keys = set(dict(expected.items())) | set(dict(low.items()))
    for mono in sorted(keys, key=lambda m: m.sort_key()):
        seen += 1
        a = low.coefficient(mono)
        b = expected.coefficient(mono)
        if a != b:
            mismatches.append(f"{mono}: built {a}, closed form {b}")
    return EllipseReport(policy=policy, checked=seen, mismatches=mismatches)
