"""Constraint-level and end-to-end verification.

Three layers:

* exact residuals of the two independent hierarchy constraints the potential
  must satisfy, expanded as Laurent tails in ``u = 1/z`` and ``v = 1/xi``
  whose coefficients are exact series (:func:`toda_residual_a`,
  :func:`toda_residual_c`).  The tails are held in packed integer form:
  each term is the integer code of its monomial (:class:`taumap.series._Codec`)
  and an integer numerator, filed by bidegree and factor degree, over one
  denominator per tail, so products are integer sums and products.  The
  derivative series are encoded once, and only in-cone violations are
  decoded.  The barred twin of the first constraint
  reduces to bar-exchange symmetry of the potential; since the build
  evaluates each key and its mirror once, :func:`toda_residual_b` checks
  that symmetry per coefficient, by evaluating every key the build
  mirrored in its written orientation;
* exact coefficient patterns: the factorial vanishing pattern of
  coefficients against an all-ones barred side
  (:func:`factorial_pattern_check`);
* numeric gates: the sufficient convergence condition on a moment vector
  (:func:`convergence_gate`), per-degree majorants of the evaluated series
  (:func:`degree_term_sums`), and the domain -> moments -> potential -> map
  roundtrip (:func:`roundtrip`).

Residuals are only *gated* inside the reliable truncation cone: a residual
monomial at bidegree ``(a, b)`` with factor degree ``d`` is unaffected by
series truncation iff ``a + b + d <= min(deg_max, n_max + 1)``, because
every contribution to it comes from potential monomials of factor degree at
most ``d + 2 <= deg_max`` and of index at most ``a + b + d - 1 <= n_max``.
Inside the cone residuals must vanish identically in rational arithmetic;
outside they are reported (``max_abs_out_of_cone``) but not judged.

Every check returns a :class:`taumap.potential.CheckResult`, re-exported
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm

import numpy as np

from .coefficients import MemoCache, NKey, bounded_partitions, n2_coefficient
from .confmap import ExteriorMapSeries, MomentVector, _Kernel, map_from_potential
from .moments import BoundaryCurve, moments_from_curve
from .potential import (
    CheckResult,
    _admissible_keys,
    _monomial_for,
    _oriented,
    _term_coefficient,
)
from .series import (
    Monomial,
    PotentialSeries,
    TruncatedSeries,
    TruncationPolicy,
    _Codec,
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


# -- packed residual tails ----------------------------------------------------


class _Tail:
    """Polynomial in the tail variables ``u``, ``v`` and the moment variables.

    ``cells`` maps ``(a, b, d)`` -- the bidegree in ``u, v`` and the factor
    degree -- to ``{code: numerator}``, the codes of the series'
    :class:`taumap.series._Codec`; the whole tail has the one denominator
    ``den``, and numerators and ``den`` share no common factor.  Cells beyond
    ``orders`` or ``deg_max`` are dropped, so a product visits only the cell
    pairs whose sum survives, and its pair loop adds integer codes and
    multiplies integer numerators.  Series enter once, through
    :meth:`encoded`, and in-cone violations leave through
    :func:`_split_cone`.
    """

    __slots__ = ("codec", "policy", "orders", "cells", "den")

    def __init__(self, codec, policy, orders, cells, den=1):
        self.codec = codec
        self.policy = policy
        self.orders = orders
        self.cells: dict[tuple[int, int, int], dict[int, int]] = cells
        self.den = den
        self._reduce()

    def _like(self, cells, den=1) -> "_Tail":
        return _Tail(self.codec, self.policy, self.orders, cells, den)

    def _reduce(self) -> None:
        """Drop zero terms and empty cells; divide out the common factor."""
        cells = {}
        g = self.den
        for key, cell in self.cells.items():
            if 0 in cell.values():
                cell = {code: n for code, n in cell.items() if n}
            if cell:
                cells[key] = cell
                if g > 1:
                    g = gcd(g, *cell.values())
        if g > 1:
            cells = {
                key: {code: n // g for code, n in cell.items()}
                for key, cell in cells.items()
            }
        self.cells = cells
        self.den //= g

    @classmethod
    def encoded(
        cls,
        policy: TruncationPolicy,
        orders: tuple[int, int],
        series: dict[tuple[int, int], TruncatedSeries],
    ) -> "_Tail":
        """The tail ``sum u^a v^b series[a, b]``."""
        codec = _Codec(policy)
        encode = codec.encode
        den = lcm(*(c.denominator for s in series.values() for _, c in s.items()))
        cells: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b), s in series.items():
            for mono, c in s.items():
                cell = cells.setdefault((a, b, mono.degree), {})
                cell[encode(mono)] = c.numerator * (den // c.denominator)
        return cls(codec, policy, orders, cells, den)

    def one(self) -> "_Tail":
        return self._like({(0, 0, 0): {0: 1}})

    def __add__(self, other: "_Tail") -> "_Tail":
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        cells = {
            key: {code: n * f1 for code, n in cell.items()}
            for key, cell in self.cells.items()
        }
        for key, cell in other.cells.items():
            out = cells.setdefault(key, {})
            get = out.get
            for code, n in cell.items():
                out[code] = get(code, 0) + n * f2
        return self._like(cells, den)

    def __sub__(self, other: "_Tail") -> "_Tail":
        return self + other.scaled(-1)

    def scaled(self, q) -> "_Tail":
        q = Fraction(q)
        cells = {
            key: {code: n * q.numerator for code, n in cell.items()}
            for key, cell in self.cells.items()
        }
        return self._like(cells, self.den * q.denominator)

    def shifted(self, da: int, db: int) -> "_Tail":
        """Multiplication by ``u^da v^db``, dropping overflow."""
        amax, bmax = self.orders
        cells = {
            (a + da, b + db, d): cell
            for (a, b, d), cell in self.cells.items()
            if a + da <= amax and b + db <= bmax
        }
        return self._like(cells, self.den)

    def __mul__(self, other: "_Tail") -> "_Tail":
        amax, bmax = self.orders
        deg_max = self.policy.deg_max
        acc: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a1, b1, d1), left in self.cells.items():
            for (a2, b2, d2), right in other.cells.items():
                a, b, d = a1 + a2, b1 + b2, d1 + d2
                if a > amax or b > bmax or d > deg_max:
                    continue
                out = acc.setdefault((a, b, d), {})
                get = out.get
                right_items = right.items()
                for code1, n1 in left.items():
                    for code2, n2 in right_items:
                        key = code1 + code2
                        out[key] = get(key, 0) + n1 * n2
        return self._like(acc, self.den * other.den)

    def exp(self) -> "_Tail":
        """Exponential of a tail with no ``(0, 0)`` component."""
        if any(a == b == 0 for a, b, _ in self.cells):
            raise ValueError("exp needs a vanishing (0,0) component")
        result = term = self.one()
        m = 0
        while True:
            m += 1
            term = (term * self).scaled(Fraction(1, m))
            if not term.cells:
                return result
            result = result + term


# -- residual checks ----------------------------------------------------------


def _split_cone(residual: _Tail, name: str) -> CheckResult:
    """Judge the residual inside the truncation cone, measure it outside.

    ``checked`` counts the in-cone cells ``(a, b, d)``: bidegree within the
    residual's orders and ``a + b + d`` at most the cone bound.  Only the
    in-cone terms are decoded; outside, the largest ``|numerator|`` over the
    common denominator is the largest ``|coefficient|``, and ``int / int``
    rounds it as ``float(Fraction)`` would.
    """
    cone = min(residual.policy.deg_max, residual.policy.n_max + 1)
    amax, bmax = residual.orders
    decode = residual.codec.decode
    den = residual.den
    violations: list[str] = []
    out_max = 0
    for (a, b, d), cell in sorted(residual.cells.items()):
        if a + b + d <= cone:
            for code, n in cell.items():
                violations.append(
                    f"bidegree ({a},{b}) term {decode(code)}: residual {Fraction(n, den)}"
                )
        else:
            out_max = max(out_max, *map(abs, cell.values()))
    cells = sum(
        cone - a - b + 1
        for a in range(amax + 1)
        for b in range(bmax + 1)
        if a + b <= cone
    )
    return CheckResult(name, cells, violations, {"max_abs_out_of_cone": out_max / den})


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

    x = _Tail.encoded(
        policy,
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
        return _Tail.encoded(policy, orders, y).exp()

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
    """
    reg = potential.regular
    policy = reg.policy
    _check_order(order, policy)
    amax = order + 1
    orders = (amax, amax)

    d0 = reg.diff_t0()
    d00 = d0.diff_t0()

    d = {a: reg.diff_t(a) for a in range(1, amax + 1)}
    m_tail = _Tail.encoded(
        policy,
        orders,
        {
            (a, b): d[a].diff_tbar(b) * Fraction(-1, a * b)
            for a in range(1, amax + 1)
            for b in range(1, amax + 1)
        },
    )
    lhs = m_tail.one() - m_tail.exp()

    p_tail = _Tail.encoded(
        policy, orders, {(a, 0): d0.diff_t(a) * Fraction(1, a) for a in range(1, amax + 1)}
    )
    q_tail = _Tail.encoded(
        policy,
        orders,
        {(0, a): d0.diff_tbar(a) * Fraction(1, a) for a in range(1, amax + 1)},
    )
    prefactor = TruncatedSeries.t0(policy) * d00.exp_no_constant()
    rhs = _Tail.encoded(policy, orders, {(1, 1): prefactor})
    rhs = rhs * p_tail.exp() * q_tail.exp()

    return _split_cone(lhs - rhs, "residual_c")


def bar_swap(series: TruncatedSeries) -> TruncatedSeries:
    """Series with the roles of barred and unbarred variables exchanged."""
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in series.items():
        swapped = tuple(
            sorted(((k, not b, e) for k, b, e in mono.factors), key=lambda f: (f[1], f[0]))
        )
        out[Monomial(mono.t0_power, swapped)] = coeff
    return TruncatedSeries(series.policy, out)


def toda_residual_b(potential: PotentialSeries) -> CheckResult:
    """The barred twin of the pair constraint, via symmetry, per coefficient.

    Conjugating every operator in the unbarred constraint turns it into the
    barred one, so it holds iff the potential's coefficient collection is
    invariant under exchanging barred and unbarred variables.  A build
    evaluates every key in the orientation :func:`taumap.potential._oriented`
    picks and is symmetric by construction, so comparing the series with its
    :func:`bar_swap` would judge nothing.  Instead every admissible key that
    the rule flips is evaluated as written, on a fresh cache, and compared
    exactly with the built coefficient of its monomial; the built
    coefficients of the key and of its mirror must also agree.  ``checked``
    counts the flipped keys.
    """
    reg = potential.regular
    cache = MemoCache()
    violations = []
    checked = 0
    for key, t0_power in _admissible_keys(reg.policy):
        mirror = _oriented(key)
        if mirror == key:
            continue
        checked += 1
        mono = _monomial_for(key, t0_power)
        built = reg.coefficient(mono)
        as_written = _term_coefficient(key, cache)
        if built != as_written:
            violations.append(f"{mono}: built {built}, evaluated as written {as_written}")
        mirror_mono = _monomial_for(mirror, t0_power)
        if reg.coefficient(mirror_mono) != built:
            violations.append(f"{mono}: {built} vs mirror {mirror_mono}")
    return CheckResult("residual_b_symmetry", checked, violations)


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
    ``K``, the geometric tail bound behind the convergence gate.
    """
    kernel = _Kernel([potential.regular])
    terms = np.abs(kernel.coeffs[0] * kernel.monomials(m.padded(kernel.n)))
    degrees = kernel.exponents[1:].sum(axis=0, dtype=np.int64)
    sums = np.bincount(degrees, weights=terms)
    return {int(k): float(sums[k]) for k in np.unique(degrees)}


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
    return RoundtripReport(
        sup_error=sup_error,
        moments=m,
        gate=gate,
        map_series=w,
        warnings=warnings,
    )
