"""Reconstruction of the normalized exterior map from the potential.

For a moment vector ``m`` the exterior map of the corresponding domain is

    w(z) = p z + p_0 + p_1 z^-1 + ...,   p real and positive,

and the potential determines it through second derivatives only:

    log p = -1/2 (log t0 + A),      A   = d^2F_reg/dt0^2 at m,
    w(z)  = p z exp(-sum_k B_k z^-k / k),  B_k = d^2F/dt0 dt_k at m.

The ``log t0`` summand is the symbolic contribution of the singular part of
the potential (its second ``t0`` derivative), which is why the disk
``m = (t0, 0, 0, ...)`` yields exactly ``p = t0^(-1/2)`` with a zero tail.

The sum over ``k`` runs over every index, not only those of the potential's
policy.  A potential truncated at index ``n = n_max`` is evaluated at the
moments cut at ``n``, and there the domain is a quadrature domain: the
inverse of its map is the Laurent polynomial, the map's *closure*,

    z_cl(w) = r w + u_0 + u_1 w^-1 + ... + u_{n-1} w^(1-n),   r = 1/p,

fixed by ``A`` and ``B_1..B_n`` alone through the constant-term (Faber)
identity ``B_k = [w^0] z_cl(w)^k`` (Wiegmann & Zabrodin, "Conformal maps
and integrable hierarchies", hep-th/9909147).  ``B_k`` is
``k r^(k-1) u_{k-1}`` plus a polynomial in ``u_0..u_{k-2}``, so
``B_1..B_n`` fix ``u_0..u_{n-1}`` one after the other, and every ``B_k``
with ``k > n`` is the constant term of ``z_cl^k``.  :func:`_closure` takes
both in closed form, by Lagrange inversion over powers of the map's tail.

Serving a domain is one numeric evaluation of fixed series.  The exact
rows ``d0^2 F_reg`` and ``d0 d_k F_reg`` (``k <= n_max``) are derived once,
on the first map of a potential, and compiled from their packed codes into
a float kernel held on that :class:`~taumap.series.PotentialSeries`
instance.  Per moment vector it takes each variable's few powers by
repeated multiplication, multiplies them into the terms the variable
appears in, and sums each row's block of terms with one
``np.add.reduceat``: another order than :meth:`TruncatedSeries.evaluate`,
so the two agree to the last few bits only.  The map, like the curve, is
evaluated by Horner's rule in ``1/z``.  The moment vector the map is taken
at is :class:`taumap.moments.MomentVector`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from cmath import isfinite
from math import exp, inf, sqrt
from operator import mul
from typing import Iterable

import numpy as np

from .moments import MomentVector, _horner, _require_finite
from .series import PotentialSeries, TruncatedSeries

__all__ = ["ExteriorMapSeries", "map_from_potential", "evaluate_map"]


@dataclass(frozen=True)
class ExteriorMapSeries:
    """Laurent tail ``p z + p_0 + p_1 z^-1 + ... + p_J z^-J`` and its closure.

    ``closure`` holds ``u_0..u_{n-1}`` of the inverse polynomial
    ``z_cl(w) = w / p + u_0 + u_1 w^-1 + ... + u_{n-1} w^(1-n)`` (module
    docstring); it is empty for a map given by its tail alone.
    """

    p: float
    tail: tuple[complex, ...]
    closure: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if not (isfinite(self.p) and self.p > 0):
            raise ValueError(f"p must be finite and positive, got {self.p}")
        _require_finite("tail", self.tail)
        _require_finite("closure", self.closure)

    def __call__(self, z: complex) -> complex:
        return evaluate_map(self, z)

    def to_json(self) -> dict:
        """``{"p", "tail", "closure"}``, the closure in the curve shape
        ``{"r", "a"}`` that :func:`taumap.moments.curve_from_json` reads."""
        return {
            "p": self.p,
            "tail": [[x.real, x.imag] for x in self.tail],
            "closure": {"r": 1 / self.p, "a": [[x.real, x.imag] for x in self.closure]},
        }


class _Kernel:
    """Rows of exact series compiled for evaluation in complex binary64.

    Each row's terms form one contiguous block of columns, in row order;
    ``ends`` holds where each block ends.  The rows of the map never share
    a monomial (``A`` has equal plain and barred weight, ``B_k`` plain
    weight ``k`` below barred), so no column is stored twice there.
    ``exponents`` has one row per variable -- ``t0``, then ``t_k`` and
    ``tbar_k`` for ``k = 1..n`` in turn, ``n`` the largest index the rows
    use -- holding that variable's exponent in each term, in the smallest
    unsigned dtype that holds the largest one; ``support`` holds each
    variable's columns with a nonzero exponent and those exponents.
    ``coeffs`` holds every (real) coefficient rounded once.  ``starts``
    holds the first column of each row with terms, ``filled`` those rows:
    ``np.add.reduceat`` reads an empty block as the term at its start, so
    an empty row is left out of the sum and reads exactly 0.

    The rows are read in their packed form (:class:`taumap.series._Tail`):
    the exponents come from the codes by shift and mask, and each
    coefficient is its numerator over the row's denominator, an integer
    true division that rounds as ``float(Fraction)`` does.
    """

    __slots__ = ("n", "exponents", "support", "tops", "coeffs", "ends", "starts", "filled")

    def __init__(self, rows: Iterable[TruncatedSeries]) -> None:
        # ``rows``, one or more under one policy, is read once, so a
        # generator holds one exact row at a time
        codes: list[int] = []
        coeffs, ends = array("d"), []
        for row in rows:
            tail = row._tail
            codec, den = tail.codec, tail.den
            for cell in tail.cells.values():
                codes += cell
                coeffs.extend(n / den for n in cell.values())
            ends.append(len(codes))
        # codes beyond 63 bits are shifted as Python ints
        packed = np.array(codes, dtype=np.int64 if max(codes, default=0) >> 63 == 0 else object)
        n_max, count = codec.n_max, len(codes)
        # field k - 1 holds t_k and field n_max + k - 1 holds tbar_k
        fields = np.empty((2 * n_max, count), dtype=np.min_scalar_type(codec.mask))
        for i in range(2 * n_max):
            fields[i] = (packed >> i * codec.bits) & codec.mask
        t0_powers = packed >> codec.t0_shift
        used = fields.reshape(2, n_max, count).any(axis=(0, 2))
        self.n = n = int(np.flatnonzero(used).max(initial=-1)) + 1
        top = max(int(t0_powers.max(initial=0)), int(fields.max(initial=0)))
        self.exponents = np.empty((1 + 2 * n, count), dtype=np.min_scalar_type(top))
        self.exponents[0] = t0_powers
        self.exponents[1:] = fields[[i for k in range(n) for i in (k, n_max + k)]]
        self.support = [(np.flatnonzero(e), e[e > 0]) for e in self.exponents]
        self.tops = self.exponents.max(axis=1, initial=0).tolist()
        self.coeffs = np.frombuffer(coeffs, dtype=np.float64)
        self.ends = ends
        bounds = np.array([0] + ends)
        self.filled = np.flatnonzero(np.diff(bounds))
        self.starts = bounds[self.filled]

    def monomials(self, moments: MomentVector) -> np.ndarray:
        """Every monomial's value at ``moments``, with ``tbar_k = conj(t_k)``.

        A running product over the variables: per variable, its powers up
        to the largest exponent by repeated multiplication, read at its
        exponents into the columns where it appears.  Moments far outside
        the series' range overflow to ``inf`` or ``nan`` without a numpy
        warning; :func:`map_from_potential` reports them.  A column that
        holds a variable equal to 0 is exactly 0, so where its running
        product is not finite (``inf * 0`` is ``nan``) it reads ``+0``.
        """
        if len(moments.t) < self.n:
            raise IndexError(
                f"kernel uses index {self.n} but only {len(moments.t)} moments given"
            )
        variables = [moments.t0]
        for x in moments.t[: self.n]:
            variables += (x, x.conjugate())
        values = np.ones(len(self.coeffs), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for x, top, (cols, e) in zip(variables, self.tops, self.support):
                table = [1.0]
                for _ in range(top):
                    table.append(table[-1] * x)
                values[cols] *= np.array(table, dtype=np.complex128).take(e)
        zeros = [cols for x, (cols, _) in zip(variables, self.support) if x == 0]
        if zeros:
            broken = ~np.isfinite(values)
            for cols in zeros:
                values[cols[broken[cols]]] = 0
        return values

    def __call__(self, moments: MomentVector) -> np.ndarray:
        """The value of each row: the sum of its block of terms."""
        rows = np.zeros(len(self.ends), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.coeffs * self.monomials(moments)
            rows[self.filled] = np.add.reduceat(terms, self.starts)
        return rows


def _tail_power(b: list[complex], k: int, top: int) -> list[complex]:
    """Coefficients ``0..top`` of ``exp(-k sum_i b_i y^i / i)``, the ``k``-th
    power of the tail ``h(y) = exp(-sum_i b_i y^i / i)``, by the standard
    recurrence ``m e_m = -k sum_{i<=m} b_i e_{m-i}``."""
    e = [1 + 0j]
    for m in range(1, top + 1):
        e.append(-k / m * sum(map(mul, b, reversed(e))))
    return e


def _scaled(values: list[complex], factor: float) -> list[complex]:
    """``values[k-1] * factor^k``, an exact zero kept where the power overflows."""
    out, power = [], 1.0
    for x in values:
        power *= factor
        out.append(x * power if x else 0j)
    return out


def _closure(p: float, b: list[complex], top: int) -> tuple[list[complex], list[complex]]:
    """The closure's ``u_0..u_{n-1}`` from ``p`` and ``B_1..B_n`` (``n = len(b)``),
    and ``B_{n+1}..B_top`` from it.

    In units of ``r = 1/p`` -- ``beta_k = B_k p^k``, ``y = r/z`` and
    ``z_cl(w) = r w g(1/w)`` with ``g = 1 + g_1 x + g_2 x^2 + ...`` -- the
    map is ``w = p z h(y)`` with ``h = exp(-sum_k beta_k y^k / k)``, and
    Lagrange inversion gives the closure as ``g_1 = beta_1`` and
    ``g_{j+1} = -[y^(j+1)] h^j / j``: the identity ``B_k = [w^0] z_cl^k``
    solved for the ``u_j = r g_{j+1}``.  ``z_cl`` stops at ``u_{n-1}``, so
    ``[y^(k+1)] h^k = 0`` for ``k >= n``, which fixes each ``beta_{k+1}``
    from ``beta_1..beta_k``: the constant term of ``z_cl^(k+1)``.
    """
    n = len(b)
    beta = _scaled(b, p)
    g = beta[:1] + [-_tail_power(beta, j, j + 1)[j + 1] / j for j in range(1, n)]
    for k in range(n, top):
        e = _tail_power(beta, k, k)
        beta.append(-sum(map(mul, beta, reversed(e[1:]))))
    return [x / p for x in g], _scaled(beta, 1 / p)[n:]


def map_from_potential(
    potential: PotentialSeries, moments: MomentVector, order: int
) -> ExteriorMapSeries:
    """Exterior map coefficients ``p, p_0..p_J`` from the potential at ``m``.

    ``order`` is the truncation order ``J`` of the ``z^-1`` tail, which is
    fed by the one-point functions ``B_k`` for ``k = 1..J+1``.  Only
    ``A`` and ``B_1..B_n`` are read from the regular part, ``n`` its
    ``n_max``, as ``d0^2 F_reg`` and ``d0 d_k F_reg``; they fix the closure
    (module docstring), which the map carries and from which every ``B_k``
    with ``k > n`` comes.  Moments beyond ``n_max`` are ignored throughout,
    as the potential has no terms in them.

    A negative ``order`` raises ``ValueError``, and so does ``A`` so large
    either way that ``p`` leaves the floating-point range, or a ``B_k`` or
    closure coefficient that is not finite: such moments lie far outside
    the region where the series converges.  The map is an
    output: ``taumap map`` writes it as JSON (:meth:`ExteriorMapSeries.to_json`),
    and no command reads one back as a map.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    n_max = potential.regular.policy.n_max
    m = moments.padded(n_max)

    kernel = potential._map_kernel
    if kernel is None:
        # the rows are streamed: A, then B_1..B_n
        d0 = potential.regular.diff_t0()
        kernel = _Kernel(d0.diff_t(k) if k else d0.diff_t0() for k in range(n_max + 1))
        object.__setattr__(potential, "_map_kernel", kernel)
    a_val, *b = kernel(m).tolist()

    # normalization demands p real positive; for conjugate-symmetric moments
    # A is real up to rounding, so the imaginary residue is dropped
    try:
        p = exp(-a_val.real / 2) / sqrt(m.t0)
    except OverflowError:
        p = inf
    if not 0 < p < inf:
        raise ValueError(
            f"A = d0^2 F_reg = {a_val.real:.6g} puts p = exp(-A/2) / sqrt(t0) out of "
            "range: the moments lie far outside the series' convergence region "
            "(see taumap.verify.convergence_gate)"
        )
    for k, b_k in enumerate(b, 1):
        if not isfinite(b_k):
            raise ValueError(
                f"B_{k} = d0 d_{k} F is not finite: the moments lie far outside "
                "the series' convergence region (see taumap.verify.convergence_gate)"
            )
    closure, beyond = _closure(p, b, order + 1)
    if not all(map(isfinite, closure + beyond)):
        raise ValueError(
            "the closure z_cl or a B_k = [w^0] z_cl(w)^k beyond n_max is not finite: "
            "the moments lie far outside the series' convergence region "
            "(see taumap.verify.convergence_gate)"
        )

    # h = exp(-sum_k B_k z^-k / k), the tail of w / (p z)
    h = _tail_power((b + beyond)[: order + 1], 1, order + 1)
    tail = tuple(p * h[j + 1] for j in range(order + 1))
    return ExteriorMapSeries(p=p, tail=tail, closure=tuple(closure))


def evaluate_map(w: ExteriorMapSeries, z: complex) -> complex:
    """``p z + sum_j p_j z^-j`` by Horner evaluation in ``1/z``.

    ``z`` may be a numpy array; a Python ``complex`` stays one.
    """
    return w.p * z + _horner(w.tail, 1.0 / z)
