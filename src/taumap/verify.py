"""Every self-check of the package, each reporting one :class:`CheckResult`.

:mod:`taumap.potential` builds the potential; this module judges it and
imports nothing from the builder.  Four layers:

* exact oracles of the regular part: the paper's combinatorial formula
  (:func:`combinatorial_formula_check`), the restriction of mixed
  derivatives to the ``t0`` line (:func:`cauchy_data_check`) and the
  closed-form potential of the ellipse family, all indices <= 2
  (:func:`ellipse_oracle_check`).  The formula is the recursion for ``N``
  from :mod:`taumap.coefficients`, walked over the policy's keys
  (:func:`taumap.coefficients.admissible_keys`) and summed by
  :func:`recursion_terms`.  ``N`` is invariant under exchanging the two
  sides of a key, but its cost is not; the oracle evaluates each key in
  the cheap orientation :meth:`taumap.coefficients.NKey.oriented` names;
* exact residuals of the two independent hierarchy constraints the potential
  must satisfy, expanded as Laurent tails in ``u = 1/z`` and ``v = 1/xi``
  whose coefficients are exact series (:func:`toda_residual_a`,
  :func:`toda_residual_c`), over the cells of the truncation cone only
  (below).  The tails are the series ring's packed
  polynomials (:class:`taumap.series._Tail`), the storage of every
  series, so the residuals read the potential's tail as it is stored,
  sum its derivatives by the ring's one linear rule and decode only
  violations.  The violations are listed in a
  canonical order, by cell and then by monomial, so a report depends on
  the residual's value only.  The build solves the mixed
  constraint itself, so on a built potential :func:`toda_residual_c`
  tests how its terms fit together rather than the equation (see there).
  The barred twin of the first constraint reduces to bar-exchange
  symmetry of the potential, which :func:`toda_residual_b` checks as an
  exact identity: every coefficient equals that of its mirror monomial,
  barred and unbarred variables exchanged.  The build solves half the
  cells and mirrors the rest, so on a built potential it checks that
  mirror step, and :func:`combinatorial_formula_check` still compares
  every mirrored term with the recursion;
* an exact coefficient pattern, a lemma about ``N`` that judges neither
  a build nor a domain, so ``taumap verify`` does not run it: the
  factorial vanishing pattern of coefficients against an all-ones barred
  side (:func:`factorial_pattern_check`);
* numeric checks: the domain -> moments -> potential -> map roundtrip
  (:func:`roundtrip`), which inverts the map's Laurent-polynomial closure
  by Newton and needs no map order, and whose sup error
  :func:`roundtrip_check` judges against a tolerance; and two measures of
  how far the evaluated series can be trusted, reported and not judged:
  the sufficient convergence condition on a moment vector
  (:func:`convergence_gate`), whose verdict the roundtrip report carries,
  and per-degree majorants of the evaluated series
  (:func:`degree_term_sums`).

Residuals are only *gated* inside the reliable truncation cone, where
series truncation leaves them exact.  Factor degree is a grading: products
add degrees and ``d_k`` lowers degree by exactly one, so a residual cell
``(a, b, d)`` -- bidegree ``(a, b)`` in the tail variables, factor degree
``d`` -- reads only potential terms of degree at most ``d + 2``.  Setting
``t_k = tbar_k = 0`` for ``k > n_max`` is a ring map that commutes with
``d0`` and with ``d_k``, ``dbar_k`` for ``k <= n_max``, so a cell whose
derivative indices ``a, b`` are at most ``n_max`` is what the untruncated
potential gives there.  The cone is therefore the union of
``{max(a, b) <= n_max, d <= deg_max - 2}`` and the degree-and-index cone
``{a + b + d <= min(deg_max, n_max + 1)}``, whose terms have index at most
``a + b + d - 1 <= n_max`` (its cells with ``a + b <= 1`` reach
``d = deg_max - 1`` and ``deg_max``).  Inside the cone
residuals must vanish identically in rational arithmetic; outside they are
not judged.

The cone is downward closed in ``(a, b, d)``: with a cell it holds every
cell below it.  A product's cell is the sum of its operands' cells, a
weighted sum, each term shifted by its ``u^a v^b``, moves no cell down,
and the graded exponential is built from products and sums, so the cone
cells of a result read only the cone cells of its operands.  The residuals
are therefore expanded over the cone cells alone (a :class:`_Tail` whose
bound is :func:`_cone`), and their in-cone values are exactly those of
the expansion over the whole box; at ``(5,6)``, order 4, only about a tenth
of the term pairs a box expansion visits land in the cone.  The
derivatives, which lower ``d``, are taken on the regular part's own tail,
as the potential's Toda solver takes them, and each wider tail is one
weighted sum of them, each term shifted by its ``u^a v^b``
(:meth:`_Tail.combination`), so no derivative series is built.
A tail is cut to its bound when it is made, so every cell a residual holds
is a cone cell, and :func:`_judged` judges them all without testing the
cone again.  Outside the cone the residuals are measured, not judged, by
:func:`out_of_cone_maxima`, which expands the same residuals over the box
and is the one place that tests a cell against the cone (``taumap verify
--stats``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Iterable

import numpy as np

from .coefficients import (
    MemoCache,
    NKey,
    admissible_keys,
    bounded_partitions,
    n2_coefficient,
)
from .confmap import ExteriorMapSeries, _held_kernel, map_from_potential
from .moments import BoundaryCurve, MomentVector, _laurent, moments_from_curve
from .series import (
    Monomial,
    PotentialSeries,
    TruncatedSeries,
    TruncationPolicy,
    _Tail,
)

__all__ = [
    "CheckResult",
    "recursion_terms",
    "combinatorial_formula_check",
    "cauchy_data_check",
    "ellipse_regular_series",
    "ellipse_oracle_check",
    "toda_residual_a",
    "toda_residual_b",
    "toda_residual_c",
    "out_of_cone_maxima",
    "factorial_pattern_check",
    "ConvergenceVerdict",
    "convergence_gate",
    "degree_term_sums",
    "RoundtripReport",
    "roundtrip",
    "roundtrip_check",
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


# -- combinatorial formula oracle ---------------------------------------------


def recursion_terms(
    keys: Iterable[tuple[NKey, int]], cache: MemoCache
) -> dict[Monomial, Fraction]:
    """``pref(unbarred) * pref(barred) * N(key)`` for every key, zero or not,
    by monomial.

    ``keys`` are ``(key, t0 exponent)`` pairs; ``N`` is evaluated in the
    orientation :meth:`NKey.oriented` picks, on ``cache``.  ``pref`` is the
    product of ``index^mult / mult!`` over a side (see
    :mod:`taumap.potential`).
    """
    terms = {}
    for key, t0_power in keys:
        coeff = n2_coefficient(key.oriented(), cache)
        num, den = coeff.numerator, coeff.denominator
        for idx, mult in key.unbarred + key.barred:
            num *= idx**mult
            den *= factorial(mult)
        factors = tuple((i, False, m) for i, m in key.unbarred)
        factors += tuple((i, True, m) for i, m in key.barred)
        terms[Monomial(t0_power, factors)] = Fraction(num, den)
    return terms


def combinatorial_formula_check(potential: PotentialSeries) -> CheckResult:
    """The regular part against the paper's recursion, term by term.

    Every key of :func:`taumap.coefficients.admissible_keys` is evaluated on
    a fresh cache (:func:`recursion_terms`), and the built coefficient of
    its monomial must equal it exactly; a built term on a monomial that is
    no key must not exist.  ``checked`` counts the monomials compared: the
    keys, plus any built term outside them.
    """
    reg = potential.regular
    formula = recursion_terms(admissible_keys(reg.policy), MemoCache())
    return CheckResult.of_terms("combinatorial_formula", dict(reg.items()), formula, "formula")


# -- Cauchy data oracle -------------------------------------------------------


def cauchy_data_check(potential: PotentialSeries) -> CheckResult:
    """Compare mixed derivatives on the ``t0`` line with their closed forms.

    Two layers, both exact, through the index bound ``n_max``:

    * pure ``t0``: every monomial of the regular part has a plain and a
      barred factor, so none is one-sided or free of factors;
    * one plain index ``i`` against a barred multiset ``B`` of weight ``i``
      and the mirror image, ``B = {i}`` its own: the coefficient of
      ``t0^(i-k+1) t_i * prod tbar`` times the multiplicity factorials
      equals ``prod(B) * i! / (i-k+1)!`` where ``k = |B|``.

    ``checked`` counts the distinct monomials, each compared once.  They
    are keys that :func:`combinatorial_formula_check` also compares, with
    the closed form of the one-index base case of
    :func:`taumap.coefficients.n1_coefficient`, so on a solver build this
    check adds no evidence beyond that base case.
    """
    reg = potential.regular
    policy = reg.policy
    violations = [
        f"one-sided monomial {m}"
        for m, _ in reg.items()
        if {barred for _, barred, _ in m.factors} != {False, True}
    ]
    targets: dict[Monomial, Fraction] = {}
    for i in range(1, policy.n_max + 1):
        for side in bounded_partitions(i, policy.n_max, policy.deg_max - 1):
            k = sum(m for _, m in side)
            t0_power = i - k + 1
            target = Fraction(
                prod(x**m for x, m in side) * factorial(i),
                factorial(t0_power) * prod(factorial(m) for _, m in side),
            )
            barred = tuple((x, True, m) for x, m in side)
            plain = tuple((x, False, m) for x, m in side)
            targets[Monomial(t0_power, ((i, False, 1),) + barred)] = target
            targets[Monomial(t0_power, plain + ((i, True, 1),))] = target
    built = {mono: reg.coefficient(mono) for mono in targets}
    check = CheckResult.of_terms("cauchy_data", built, targets, "closed form")
    return CheckResult(check.name, check.checked, violations + check.violations)


# -- ellipse oracle -----------------------------------------------------------


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


# -- residual checks ----------------------------------------------------------


def _judged(residual: _Tail, name: str) -> CheckResult:
    """Judge every cell of a residual expanded over the cone (:func:`_cone`).

    ``checked`` counts the cells ``(a, b, d)`` of the residual's bound, the
    cone cells of bidegree within its orders.  The violations are listed by
    cell ``(a, b, d)`` and within a cell by :meth:`Monomial.sort_key`, so the
    list depends on the residual's value only, not on the order in which the
    algebra filled its cells.
    """
    decode, den = residual.codec.decode, residual.den
    violations = []
    for (a, b, d), cell in sorted(residual.cells.items()):
        terms = sorted(((decode(c), n) for c, n in cell.items()), key=lambda t: t[0].sort_key())
        for mono, n in terms:
            violations.append(f"bidegree ({a},{b}) term {mono}: residual {Fraction(n, den)}")
    return CheckResult(name, sum(map(sum, residual.bound)), violations)


def _cone_depth(a: int, b: int, policy: TruncationPolicy) -> int:
    """How many factor degrees ``d = 0, 1, ..`` of bidegree ``(a, b)`` are in the cone.

    The union of ``d <= min(deg_max, n_max + 1) - a - b`` and, when
    ``max(a, b) <= n_max``, ``d <= deg_max - 2`` (module docstring).
    """
    depth = min(policy.deg_max, policy.n_max + 1) - a - b + 1
    if max(a, b) <= policy.n_max:
        depth = max(depth, policy.deg_max - 1)
    return max(depth, 0)


def _cone(policy: TruncationPolicy, order: int) -> tuple[tuple[int, ...], ...]:
    """The cone as the bound of a residual tail of orders ``(order+1, order+1)``:
    the :func:`_cone_depth` of each bidegree, for ``0 <= order <= n_max``."""
    if order < 0:
        raise ValueError(f"residual order must be >= 0, got {order}")
    if order > policy.n_max:
        raise ValueError("order exceeds the potential's index bound")
    span = range(order + 2)
    return tuple(tuple(_cone_depth(a, b, policy) for b in span) for a in span)


def toda_residual_a(potential: PotentialSeries, order: int) -> CheckResult:
    """Residual of the unbarred pair constraint.

    In the tail variables ``u = 1/z`` and ``v = 1/xi`` the constraint reads

        (v - u) exp(X) = v exp(-Y(u)) - u exp(-Y(v)),

    with ``X = sum u^a v^b d_a d_b F / (a b)`` and
    ``Y(u) = sum u^a d0 d_a F / a``.  Both sides are expanded over the cone
    cells of bidegree up to ``(order+1, order+1)`` and subtracted
    (:func:`_residual_a`).
    """
    reg = potential.regular
    return _judged(_residual_a(reg, _cone(reg.policy, order)), "residual_a")


def _residual_a(reg: TruncatedSeries, bound) -> _Tail:
    """The residual tail of :func:`toda_residual_a` under ``bound``, from the
    derivatives of ``reg``'s tail, each of its sums one shifted
    :meth:`_Tail.combination`.  ``Y(v)`` is ``Y(u)`` with ``v`` for ``u``,
    so one exponential serves both."""
    f = reg._tail
    d0 = f.diff_t0()
    span = range(1, len(bound))
    d = {a: f.diff_t(a) for a in span}
    x = [(Fraction(1, a * b), a, b, d[a].diff_t(b)) for a in span for b in span]
    minus_y = [(Fraction(-1, a), a, 0, d0.diff_t(a)) for a in span]
    # exp(X) and exp(-Y(u)); exp(-Y(v)) is exp(-Y(u)) with u and v exchanged
    ex = _Tail.combination(bound, x).exp()
    eu = _Tail.combination(bound, minus_y).exp()
    terms = [(1, 0, 1, ex), (-1, 1, 0, ex), (-1, 0, 1, eu), (1, 1, 0, eu.transposed())]
    return _Tail.combination(bound, terms)


def toda_residual_c(potential: PotentialSeries, order: int) -> CheckResult:
    """Residual of the mixed constraint.

    With ``u = 1/z`` and ``v = 1/conj(xi)``:

        1 - exp(-M) = u v t0 exp(d0^2 F_reg) exp(P(u)) exp(Q(v)),

    where ``M = sum u^a v^b d_a dbar_b F / (a b)``,
    ``P(u) = sum u^a d0 d_a F / a`` and ``Q(v) = sum v^b d0 dbar_b F / b``.
    The factor ``t0`` is the exact contribution of the singular part through
    ``exp(d0^2 (t0^2 log t0 / 2 - 3 t0^2 / 4)) = t0``.  Both sides are
    expanded over the cone cells of bidegree up to ``(order+1, order+1)``
    (:func:`_residual_c`).

    :func:`taumap.potential.build_potential` solves this equation, so on
    a built potential the cells with ``a, b <= n_max`` hold by
    construction where the solver read its terms: each term comes from one
    monomial of one such cell.  The other monomials of those cells meet
    terms read from other cells, so they still test that the terms fit one
    potential (that ``M`` is ``d_a dbar_b F`` of one ``F``).  Cells beyond
    ``n_max`` would be independent evidence, but the cone admits none of
    them with ``a, b >= 1``.  On a potential not built by the solver, such
    as a corrupted one or one summed from the recursion, every cone cell
    is evidence.
    """
    reg = potential.regular
    return _judged(_residual_c(reg, _cone(reg.policy, order)), "residual_c")


def _residual_c(reg: TruncatedSeries, bound) -> _Tail:
    """The residual tail of :func:`toda_residual_c` under ``bound``, its
    derivatives and sums taken as in :func:`_residual_a`."""
    f = reg._tail
    d0 = f.diff_t0()
    span = range(1, len(bound))
    d = {a: f.diff_t(a) for a in span}
    minus_m = [(Fraction(-1, a * b), a, b, d[a].diff_t(b, True)) for a in span for b in span]
    p = [(Fraction(1, a), a, 0, d0.diff_t(a)) for a in span]
    q = [(Fraction(1, b), 0, b, d0.diff_t(b, True)) for b in span]
    prefactor = TruncatedSeries.t0(reg.policy)._tail * d0.diff_t0().exp()
    rhs = _Tail.combination(bound, [(1, 1, 1, prefactor)])
    rhs = rhs * _Tail.combination(bound, p).exp() * _Tail.combination(bound, q).exp()
    em = _Tail.combination(bound, minus_m).exp()
    # 1 - exp(-M) - rhs
    return _Tail.combination(bound, [(1, 0, 0, em.one()), (-1, 0, 0, em), (-1, 0, 0, rhs)])


def out_of_cone_maxima(potential: PotentialSeries, order: int) -> dict[str, float]:
    """The largest ``|coefficient|`` of each Toda residual outside the cone,
    by check name.

    Measured, not judged: the residuals are expanded as
    :func:`toda_residual_a` and :func:`toda_residual_c` expand them, over
    the box of every cell up to ``(order+1, order+1)`` and ``deg_max``
    instead of the cone, so this costs about three times the two checks.
    Nothing is decoded: the largest ``|numerator|`` over the common
    denominator is the largest ``|coefficient|``, and ``int / int`` rounds
    it as ``float(Fraction)`` would.
    """
    reg = potential.regular
    cone = _cone(reg.policy, order)
    box = _Tail.box((order + 1, order + 1), reg.policy.deg_max)
    maxima = {}
    for name, residual in (("residual_a", _residual_a), ("residual_c", _residual_c)):
        tail = residual(reg, box)
        outside = [cell for (a, b, d), cell in tail.cells.items() if d >= cone[a][b]]
        maxima[name] = max((abs(n) for c in outside for n in c.values()), default=0) / tail.den
    return maxima


def toda_residual_b(potential: PotentialSeries) -> CheckResult:
    """The barred twin of the pair constraint, via symmetry, per monomial.

    Conjugating every operator in the unbarred constraint turns it into the
    barred one, so it holds iff the potential's coefficient collection is
    invariant under exchanging barred and unbarred variables: each
    coefficient equals that of its mirror monomial.  Each code is compared
    with its mirror through the codec's rule
    (:meth:`taumap.series._Codec.mirror`) and only the violations are
    decoded.  The build solves the cells ``a <= b`` of the mixed equation
    and mirrors the rest, so on a built potential this checks that mirror
    step; on any other potential it is evidence of the symmetry itself.
    ``checked`` counts the monomials of the regular part and of its mirror
    image.
    """
    tail = potential.regular._tail
    codec, den = tail.codec, tail.den
    checked, built, mirrored = 0, {}, {}
    for cell in tail.cells.values():
        image = {codec.mirror(code): n for code, n in cell.items()}
        codes = cell.keys() | image.keys()
        checked += len(codes)
        for code in codes:
            n, m = cell.get(code, 0), image.get(code, 0)
            if n != m:
                mono = codec.decode(code)
                built[mono], mirrored[mono] = Fraction(n, den), Fraction(m, den)
    report = CheckResult.of_terms("residual_b_symmetry", built, mirrored, "mirror")
    report.checked = checked
    return report


# -- coefficient patterns -----------------------------------------------------


def factorial_pattern_check(i_max: int) -> CheckResult:
    """Coefficients against the barred side ``(1, 1, ..., 1)``.

    For every unbarred shape of weight ``i <= i_max`` the coefficient with
    barred side ``1^i`` is ``(i-1)!`` when the shape is the single index
    ``i`` and zero otherwise.  The coefficients are evaluated on a fresh
    cache, each key in the orientation :meth:`NKey.oriented` picks.
    """
    cache = MemoCache()
    violations = []
    checked = 0
    for i in range(1, i_max + 1):
        for shape in bounded_partitions(i, i, i):
            checked += 1
            value = n2_coefficient(NKey(shape, ((1, i),)).oriented(), cache)
            expected = Fraction(factorial(i - 1)) if shape == ((i, 1),) else Fraction(0)
            if value != expected:
                violations.append(f"shape {shape} weight {i}: {value} != {expected}")
    return CheckResult("factorial_pattern", checked, violations)


# -- convergence gate ---------------------------------------------------------


@dataclass
class ConvergenceVerdict:
    admissible: bool
    bound: float
    offending: list[str] = field(default_factory=list)


def convergence_gate(m: MomentVector, n: int) -> ConvergenceVerdict:
    """Sufficient condition for convergence of the evaluated potential.

    Admissible iff ``0 < t0 < 1``, every ``|t_i|`` with ``i <= n`` is at most
    ``(4 n^3 2^n e^n)^(-1)`` and all moments beyond index ``n`` vanish.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = 1.0 / (4.0 * n**3 * 2.0**n * math.exp(n))
    offending = []
    if not (0.0 < m.t0 < 1.0):
        offending.append(f"t0 = {m.t0} outside (0, 1)")
    for idx, value in enumerate(m.t, 1):
        if idx <= n:
            if abs(value) > bound:
                offending.append(f"|t{idx}| = {abs(value)} > {bound}")
        elif value != 0:
            offending.append(f"t{idx} = {value} nonzero beyond n = {n}")
    return ConvergenceVerdict(admissible=not offending, bound=bound, offending=offending)


def degree_term_sums(
    potential: PotentialSeries, m: MomentVector
) -> dict[int, float]:
    """Sum of ``|coefficient * monomial(m)|`` per factor degree.

    For an admissible vector these sums are majorized by ``2^-K`` at degree
    ``K``, the geometric tail bound behind the convergence gate.  A sum
    that is not finite raises ``ValueError``: such moments lie far outside
    the region where the series converges.  The terms are ``F_reg`` as the
    one row of a map kernel (:class:`taumap.confmap._Kernel`), compiled on
    the first call and held on ``potential``; a term's degree is the sum of
    its two sides' degrees there.
    """
    kernel = _held_kernel(potential, "_degree_kernel", [()])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(kernel.coeffs * kernel.monomials(m))
    degrees = kernel.degrees()
    sums = np.bincount(degrees, weights=terms)
    out = {int(k): float(sums[k]) for k in np.unique(degrees)}
    for degree, total in out.items():
        if not math.isfinite(total):
            raise ValueError(
                f"degree {degree} term sum = {total} is not finite: the moments lie "
                "far outside the series' convergence region "
                "(see taumap.verify.convergence_gate)"
            )
    return out


# -- roundtrip ----------------------------------------------------------------

# The test circle |u| = ROUNDTRIP_RADIUS, outside the unit circle that the
# domain's boundary maps to, and the points on it where the error is taken.
ROUNDTRIP_RADIUS = 1.25
ROUNDTRIP_SAMPLES = 512
# Newton on the closure takes at most NEWTON_STEPS steps; a point has
# converged when its last step is at most NEWTON_TOL times its value.
NEWTON_STEPS = 50
NEWTON_TOL = 1e-13


@dataclass
class RoundtripReport:
    """The roundtrip's sup error, the moments and the gate's verdict on them,
    the map, and the test points ``u`` where Newton did not converge."""

    sup_error: float
    moments: MomentVector
    gate: ConvergenceVerdict
    map_series: ExteriorMapSeries
    unconverged: list[complex] = field(default_factory=list)

    @property
    def p(self) -> float:
        return self.map_series.p


def _invert_closure(w: ExteriorMapSeries, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``z_cl(x) = z`` for ``x`` by Newton, from the series map ``w(z)``.

    ``z_cl(x) = x / p + sum_j u_j x^-j`` is the map's closure, a Laurent
    polynomial taken with its slope by :func:`taumap.moments._laurent`,
    over all points at once.  Returns the points and a mask
    of those whose last step was within ``NEWTON_TOL`` of their value; a
    point that is not finite has not converged, and where a point has not,
    its start stands in.
    """
    r = 1 / w.p
    start = x = w(z)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            value, slope = _laurent(r, w.closure, x)
            step = (value - z) / slope
            x = x - step
            done = np.abs(step) <= NEWTON_TOL * np.abs(x)
            if done.all():
                break
    return np.where(done, x, start), done


def roundtrip(curve: BoundaryCurve, potential: PotentialSeries) -> RoundtripReport:
    """Domain -> moments -> potential -> map, composed against the curve.

    The moments are cut at the potential's ``n_max``, and the map's closure
    ``z_cl`` (:func:`taumap.confmap.map_from_potential`) is inverted by
    Newton at ``z(u)`` for ``ROUNDTRIP_SAMPLES`` points ``u`` of the circle
    ``|u| = ROUNDTRIP_RADIUS``, starting from the series map of order
    ``n_max``; no map order enters.  Reports ``sup |w(z(u)) - u|`` and the
    points where Newton did not converge, at which the series map stands
    in, so the error is never a silent ``nan``.  The report carries the
    convergence gate's verdict on the moments (``gate``), which judges
    nothing: the gate is a sufficient condition, and the series may well
    converge beyond it.
    """
    n_max = potential.regular.policy.n_max
    m = moments_from_curve(curve, n_max)
    gate = convergence_gate(m, n_max)
    w = map_from_potential(potential, m, n_max)

    theta = 2 * np.pi * np.arange(ROUNDTRIP_SAMPLES) / ROUNDTRIP_SAMPLES
    u = ROUNDTRIP_RADIUS * np.exp(1j * theta)
    x, done = _invert_closure(w, curve.z_of(u))
    sup_error = float(np.max(np.abs(x - u)))
    return RoundtripReport(sup_error, m, gate, w, u[~done].tolist())


def roundtrip_check(curve: BoundaryCurve, potential: PotentialSeries, tol: float) -> CheckResult:
    """The :func:`roundtrip`, judged against ``tol``.

    It fails iff the sup error exceeds ``tol`` or Newton did not converge at
    a test point; the message names the first such point, and where the
    moments give no map it names the error of :func:`map_from_potential`,
    with sup error ``None``.  The sup error, ``tol`` and the convergence
    gate's verdict are reported alongside; the gate is not judged, as it is
    a sufficient condition only.  A curve without moments is an input
    error: the ``ValueError`` of :func:`moments_from_curve` propagates.  The
    moments are taken once, by :func:`roundtrip`, on a passing run.
    """
    failure = None
    try:
        rt = roundtrip(curve, potential)
    except ValueError as exc:
        failure = f"no map at the curve's moments: {exc}"
    if failure:
        # outside the handler, so a curve without moments raises once, unchained
        n = potential.regular.policy.n_max
        gate = convergence_gate(moments_from_curve(curve, n), n)
        metrics = {"sup_error": None, "tolerance": tol, "gate": asdict(gate)}
        return CheckResult("roundtrip", 1, [failure], metrics)
    violations = [] if rt.sup_error <= tol else [f"sup error {rt.sup_error} > {tol}"]
    if rt.unconverged:
        violations.append(
            f"Newton on the closure did not converge at {len(rt.unconverged)} of "
            f"{ROUNDTRIP_SAMPLES} points, first at u = {rt.unconverged[0]}"
        )
    metrics = {"sup_error": rt.sup_error, "tolerance": tol, "gate": asdict(rt.gate)}
    return CheckResult("roundtrip", 1, violations, metrics)
