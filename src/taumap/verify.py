"""Constraint-level and end-to-end verification.

Three layers:

* exact residuals of the two independent hierarchy constraints the potential
  must satisfy, expanded as Laurent tails in ``u = 1/z`` and ``v = 1/xi``
  whose coefficients are exact series (:func:`toda_residual_a`,
  :func:`toda_residual_c`).  The tails are the series ring's packed
  polynomials (:class:`taumap.series._Tail`), the storage of every
  series, so the derivative series enter the tails as they are stored and
  only in-cone violations are decoded.  The violations are listed in a
  canonical order, by cell and then by monomial, so a report depends on
  the residual's value only.  The build solves the mixed
  constraint itself, so on a built potential :func:`toda_residual_c`
  tests how its terms fit together rather than the equation (see there).
  The barred twin of the first constraint reduces to bar-exchange
  symmetry of the potential, which :func:`toda_residual_b` checks as an
  exact identity: every coefficient equals that of its mirror monomial,
  barred and unbarred variables exchanged.  The paper's
  recursion, the oracle of every coefficient, is
  :func:`taumap.potential.combinatorial_formula_check`;
* exact coefficient patterns: the factorial vanishing pattern of
  coefficients against an all-ones barred side
  (:func:`factorial_pattern_check`);
* numeric checks: the domain -> moments -> potential -> map roundtrip
  (:func:`roundtrip`), whose sup error ``taumap verify`` judges against a
  tolerance, and two measures of how far the evaluated series can be
  trusted, reported and not judged: the sufficient convergence condition
  on a moment vector (:func:`convergence_gate`), whose verdict the
  roundtrip report carries, and per-degree majorants of the evaluated
  series (:func:`degree_term_sums`).

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
reported (``max_abs_out_of_cone``) but not judged.

Every check returns a :class:`taumap.potential.CheckResult`, re-exported
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from .coefficients import MemoCache, NKey, bounded_partitions, n2_coefficient
from .confmap import ExteriorMapSeries, MomentVector, _Kernel, map_from_potential
from .moments import BoundaryCurve, moments_from_curve
from .potential import CheckResult
from .series import (
    Monomial,
    PotentialSeries,
    TruncatedSeries,
    TruncationPolicy,
    _Tail,
)

__all__ = [
    "CheckResult",
    "toda_residual_a",
    "toda_residual_b",
    "toda_residual_c",
    "factorial_pattern_check",
    "ConvergenceVerdict",
    "convergence_gate",
    "degree_term_sums",
    "RoundtripReport",
    "roundtrip",
]


# -- residual checks ----------------------------------------------------------


def _split_cone(residual: _Tail, name: str) -> CheckResult:
    """Judge the residual inside the truncation cone, measure it outside.

    ``checked`` counts the in-cone cells ``(a, b, d)`` with bidegree within
    the residual's orders (:func:`_cone_depth`).  The violations are listed
    by cell ``(a, b, d)`` and within a cell by :meth:`Monomial.sort_key`, so
    the list depends on the residual's value only, not on the order in which
    the algebra filled its cells.  Only the in-cone terms are decoded;
    outside, the largest ``|numerator|`` over the common denominator is the
    largest ``|coefficient|``, and ``int / int`` rounds it as
    ``float(Fraction)`` would.
    """
    policy = residual.policy
    amax, bmax = residual.orders
    decode = residual.codec.decode
    den = residual.den
    violations: list[str] = []
    out_max = 0
    for (a, b, d), cell in sorted(residual.cells.items()):
        if d < _cone_depth(a, b, policy):
            terms = sorted(
                ((decode(code), n) for code, n in cell.items()),
                key=lambda term: term[0].sort_key(),
            )
            for mono, n in terms:
                violations.append(
                    f"bidegree ({a},{b}) term {mono}: residual {Fraction(n, den)}"
                )
        else:
            out_max = max(out_max, *map(abs, cell.values()))
    cells = sum(
        _cone_depth(a, b, policy) for a in range(amax + 1) for b in range(bmax + 1)
    )
    return CheckResult(name, cells, violations, {"max_abs_out_of_cone": out_max / den})


def _cone_depth(a: int, b: int, policy: TruncationPolicy) -> int:
    """How many factor degrees ``d = 0, 1, ..`` of bidegree ``(a, b)`` are in the cone.

    The union of ``d <= min(deg_max, n_max + 1) - a - b`` and, when
    ``max(a, b) <= n_max``, ``d <= deg_max - 2`` (module docstring).
    """
    depth = min(policy.deg_max, policy.n_max + 1) - a - b + 1
    if max(a, b) <= policy.n_max:
        depth = max(depth, policy.deg_max - 1)
    return max(depth, 0)


def _check_order(order: int, policy: TruncationPolicy) -> None:
    if order < 0:
        raise ValueError(f"residual order must be >= 0, got {order}")
    if order > policy.n_max:
        raise ValueError("order exceeds the potential's index bound")


def toda_residual_a(potential: PotentialSeries, order: int) -> CheckResult:
    """Residual of the unbarred pair constraint.

    In the tail variables ``u = 1/z`` and ``v = 1/xi`` the constraint reads

        (v - u) exp(X) = v exp(-Y(u)) - u exp(-Y(v)),

    with ``X = sum u^a v^b d_a d_b F / (a b)`` and
    ``Y(u) = sum u^a d0 d_a F / a``.  Both sides are expanded to bidegree
    ``(order+1, order+1)`` and subtracted.
    """
    reg = potential.regular
    policy = reg.policy
    _check_order(order, policy)
    amax = order + 1
    orders = (amax, amax)

    d = {k: reg.diff_t(k) for k in range(1, amax + 1)}
    d0 = reg.diff_t0()

    x = _Tail.from_series(
        orders,
        {
            (a, b): d[a].diff_t(b) * Fraction(1, a * b)
            for a in range(1, amax + 1)
            for b in range(1, amax + 1)
        },
    )
    e1 = x.exp()

    def one_sided(axis: int) -> _Tail:
        y = {
            (a, 0) if axis == 0 else (0, a): d0.diff_t(a) * Fraction(-1, a)
            for a in range(1, amax + 1)
        }
        return _Tail.from_series(orders, y).exp()

    e2 = one_sided(0)
    e3 = one_sided(1)

    residual = e1.shifted(0, 1) - e1.shifted(1, 0) - e2.shifted(0, 1) + e3.shifted(1, 0)
    return _split_cone(residual, "residual_a")


def toda_residual_c(potential: PotentialSeries, order: int) -> CheckResult:
    """Residual of the mixed constraint.

    With ``u = 1/z`` and ``v = 1/conj(xi)``:

        1 - exp(-M) = u v t0 exp(d0^2 F_reg) exp(P(u)) exp(Q(v)),

    where ``M = sum u^a v^b d_a dbar_b F / (a b)``,
    ``P(u) = sum u^a d0 d_a F / a`` and ``Q(v) = sum v^b d0 dbar_b F / b``.
    The factor ``t0`` is the exact contribution of the singular part through
    ``exp(d0^2 (t0^2 log t0 / 2 - 3 t0^2 / 4)) = t0``.

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
    policy = reg.policy
    _check_order(order, policy)
    amax = order + 1
    orders = (amax, amax)

    d0 = reg.diff_t0()
    d00 = d0.diff_t0()

    d = {a: reg.diff_t(a) for a in range(1, amax + 1)}
    m_tail = _Tail.from_series(
        orders,
        {
            (a, b): d[a].diff_tbar(b) * Fraction(-1, a * b)
            for a in range(1, amax + 1)
            for b in range(1, amax + 1)
        },
    )
    lhs = m_tail.one() - m_tail.exp()

    p_tail = _Tail.from_series(
        orders, {(a, 0): d0.diff_t(a) * Fraction(1, a) for a in range(1, amax + 1)}
    )
    q_tail = _Tail.from_series(
        orders,
        {(0, a): d0.diff_tbar(a) * Fraction(1, a) for a in range(1, amax + 1)},
    )
    prefactor = TruncatedSeries.t0(policy) * d00.exp_no_constant()
    rhs = _Tail.from_series(orders, {(1, 1): prefactor})
    rhs = rhs * p_tail.exp() * q_tail.exp()

    return _split_cone(lhs - rhs, "residual_c")


def _mirror(mono: Monomial) -> Monomial:
    """``mono`` with the roles of barred and unbarred variables exchanged."""
    swapped = sorted(((k, not b, e) for k, b, e in mono.factors), key=lambda f: (f[1], f[0]))
    return Monomial(mono.t0_power, tuple(swapped))


def toda_residual_b(potential: PotentialSeries) -> CheckResult:
    """The barred twin of the pair constraint, via symmetry, per monomial.

    Conjugating every operator in the unbarred constraint turns it into the
    barred one, so it holds iff the potential's coefficient collection is
    invariant under exchanging barred and unbarred variables: each
    coefficient equals that of its mirror monomial (:func:`_mirror`).
    The build reads a term and its mirror from different cells, ``(a, b)``
    and ``(b, a)``, of the mixed equation, so the symmetry is not built in.
    ``checked`` counts the monomials of the regular part and of its mirror
    image.
    """
    built = dict(potential.regular.items())
    mirrored = {_mirror(m): c for m, c in built.items()}
    return CheckResult.of_terms("residual_b_symmetry", built, mirrored, "mirror")


# -- factorial pattern --------------------------------------------------------


def factorial_pattern_check(i_max: int) -> CheckResult:
    """Coefficients against the barred side ``(1, 1, ..., 1)``.

    For every unbarred shape of weight ``i <= i_max`` the coefficient with
    barred side ``1^i`` is ``(i-1)!`` when the shape is the single index
    ``i`` and zero otherwise.  The coefficients are evaluated on a fresh
    cache.
    """
    cache = MemoCache()
    violations = []
    checked = 0
    for i in range(1, i_max + 1):
        for shape in bounded_partitions(i, i, i):
            checked += 1
            key = NKey(shape, ((1, i),))
            value = n2_coefficient(key, cache)
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
    the region where the series converges.
    """
    kernel = _Kernel([potential.regular])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(kernel.coeffs * kernel.monomials(m.padded(kernel.n)))
    degrees = kernel.exponents[1:].sum(axis=0, dtype=np.int64)
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


@dataclass
class RoundtripReport:
    sup_error: float
    moments: MomentVector
    gate: ConvergenceVerdict
    map_series: ExteriorMapSeries

    @property
    def p(self) -> float:
        return self.map_series.p


def roundtrip(
    curve: BoundaryCurve, potential: PotentialSeries, order: int
) -> RoundtripReport:
    """Domain -> moments -> potential -> map, composed against the curve.

    Reports ``sup |w(z(u)) - u|`` over ``ROUNDTRIP_SAMPLES`` points of the
    circle ``|u| = ROUNDTRIP_RADIUS``.  The moments are cut at the
    potential's ``n_max``; the one-point functions ``B_k`` beyond it, up to
    ``order + 1``, come from the sector the potential carries, so it must be
    built with ``map_order >= order`` (else ``ValueError``).  The report
    carries the convergence gate's verdict on the moments (``gate``), which
    judges nothing: the gate is a sufficient condition, and the series may
    well converge beyond it.
    """
    if order + 1 > potential.k_max:
        raise ValueError(
            f"order {order} needs B_k for k <= {order + 1}, the potential covers "
            f"k <= {potential.k_max}: build it with map_order >= {order}"
        )
    n_max = potential.regular.policy.n_max
    m = moments_from_curve(curve, n_max)
    gate = convergence_gate(m, n_max)
    w = map_from_potential(potential, m, order)

    theta = 2 * np.pi * np.arange(ROUNDTRIP_SAMPLES) / ROUNDTRIP_SAMPLES
    u = ROUNDTRIP_RADIUS * np.exp(1j * theta)
    sup_error = float(np.max(np.abs(w(curve.z_of(u)) - u)))
    return RoundtripReport(sup_error, m, gate, w)
