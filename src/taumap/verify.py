"""Constraint-level and end-to-end verification.

Three layers:

* exact residuals of the two independent hierarchy constraints the potential
  must satisfy, expanded as Laurent tails in ``u = 1/z`` and ``v = 1/xi``
  whose coefficients are exact series (:func:`toda_residual_a`,
  :func:`toda_residual_c`).  The tails are the series ring's packed
  polynomials (:class:`taumap.series._Tail`), the storage of every
  series, so the derivative series enter the tails as they are stored and
  only in-cone violations are decoded.  The build solves the mixed
  constraint itself, so on a built potential :func:`toda_residual_c`
  tests how its terms fit together rather than the equation (see there).
  The barred twin of the first constraint reduces to bar-exchange
  symmetry of the potential, which :func:`toda_residual_b` checks as the
  exact identity ``regular == bar_swap(regular)``.  The paper's
  recursion, the oracle of every coefficient, is
  :func:`taumap.potential.combinatorial_formula_check`;
* exact coefficient patterns: the factorial vanishing pattern of
  coefficients against an all-ones barred side
  (:func:`factorial_pattern_check`);
* numeric gates: the sufficient convergence condition on a moment vector
  (:func:`convergence_gate`), per-degree majorants of the evaluated series
  (:func:`degree_term_sums`), and the domain -> moments -> potential -> map
  roundtrip (:func:`roundtrip`).

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
    "bar_swap",
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
    the residual's orders (:func:`_cone_depth`).  Only the in-cone terms are
    decoded; outside, the largest ``|numerator|`` over the common
    denominator is the largest ``|coefficient|``, and ``int / int`` rounds
    it as ``float(Fraction)`` would.
    """
    policy = residual.policy
    amax, bmax = residual.orders
    decode = residual.codec.decode
    den = residual.den
    violations: list[str] = []
    out_max = 0
    for (a, b, d), cell in sorted(residual.cells.items()):
        if d < _cone_depth(a, b, policy):
            for code, n in cell.items():
                violations.append(
                    f"bidegree ({a},{b}) term {decode(code)}: residual {Fraction(n, den)}"
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


def bar_swap(series: TruncatedSeries) -> TruncatedSeries:
    """Series with the roles of barred and unbarred variables exchanged."""
    return TruncatedSeries(series.policy, {_mirror(m): c for m, c in series.items()})


def toda_residual_b(potential: PotentialSeries) -> CheckResult:
    """The barred twin of the pair constraint, via symmetry, per monomial.

    Conjugating every operator in the unbarred constraint turns it into the
    barred one, so it holds iff the potential's coefficient collection is
    invariant under exchanging barred and unbarred variables: the exact
    identity ``regular == bar_swap(regular)``, judged at each monomial.
    The build reads a term and its mirror from different cells, ``(a, b)``
    and ``(b, a)``, of the mixed equation, so the symmetry is not built in.
    ``checked`` counts the monomials of the regular part and of its mirror
    image.
    """
    built = dict(potential.regular.items())
    mirrored = {_mirror(m): c for m, c in built.items()}
    return CheckResult.of_terms("residual_b_symmetry", built, mirrored, "mirror")


# -- factorial pattern --------------------------------------------------------


def factorial_pattern_check(i_max: int, cache: MemoCache | None = None) -> CheckResult:
    """Coefficients against the barred side ``(1, 1, ..., 1)``.

    For every unbarred shape of weight ``i <= i_max`` the coefficient with
    barred side ``1^i`` is ``(i-1)!`` when the shape is the single index
    ``i`` and zero otherwise.
    """
    if cache is None:
        cache = MemoCache()
    violations = []
    checked = 0
    for i in range(1, i_max + 1):
        for shape in bounded_partitions(i, i, i):
            checked += 1
            key = NKey(shape, ((1, i),), i)
            value = n2_coefficient(key, cache)
            expected = Fraction(factorial(i - 1)) if shape == ((i, 1),) else Fraction(0)
            if value != expected:
                violations.append(f"shape {shape} weight {i}: {value} != {expected}")
    return CheckResult("factorial_pattern", checked, violations)


# -- convergence gate ---------------------------------------------------------


@dataclass
class ConvergenceVerdict:
    admissible: bool
    n: int
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
    return ConvergenceVerdict(
        admissible=not offending, n=n, bound=bound, offending=offending
    )


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

# Points on the test circle at which the roundtrip error is taken.
ROUNDTRIP_SAMPLES = 512


@dataclass
class RoundtripReport:
    sup_error: float
    moments: MomentVector
    gate: ConvergenceVerdict
    map_series: ExteriorMapSeries
    warnings: list[str]

    @property
    def p(self) -> float:
        return self.map_series.p


def roundtrip(
    curve: BoundaryCurve,
    potential: PotentialSeries,
    order: int,
    test_radius: float,
) -> RoundtripReport:
    """Domain -> moments -> potential -> map, composed against the curve.

    Reports ``sup |w(z(u)) - u|`` over ``ROUNDTRIP_SAMPLES`` points of the
    circle ``|u| = test_radius``.  The moments are cut at the potential's
    ``n_max``; the one-point functions ``B_k`` beyond it, up to
    ``order + 1``, come from the sector the potential carries, so it must be
    built with ``map_order >= order`` (else ``ValueError``).  A failing
    convergence gate is a warning, not an error: the series may well
    converge beyond the sufficient condition.
    """
    if test_radius <= 1.0:
        raise ValueError("test radius must exceed 1")
    if order + 1 > potential.k_max:
        raise ValueError(
            f"order {order} needs B_k for k <= {order + 1}, the potential covers "
            f"k <= {potential.k_max}: build it with map_order >= {order}"
        )
    policy = potential.regular.policy
    warnings: list[str] = []
    m = moments_from_curve(curve, policy.n_max)
    gate = convergence_gate(m, policy.n_max)
    if not gate.admissible:
        warnings.append(
            "moment vector misses the sufficient convergence bound: "
            + "; ".join(gate.offending)
        )
    w = map_from_potential(potential, m, order)

    theta = 2 * np.pi * np.arange(ROUNDTRIP_SAMPLES) / ROUNDTRIP_SAMPLES
    u = test_radius * np.exp(1j * theta)
    sup_error = float(np.max(np.abs(w(curve.z_of(u)) - u)))
    return RoundtripReport(sup_error, m, gate, w, warnings)
