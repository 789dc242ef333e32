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

Serving a domain is one numeric evaluation of fixed series.  On the first
map of a potential the rows ``d0^2 F_reg`` and ``d0 d_k F_reg``
(``k <= n_max``) are compiled from ``F_reg``'s packed codes alone, read
once and with no derivative series taken, into a float kernel held on that
:class:`~taumap.series.PotentialSeries` instance (:class:`_Kernel`).  Each
term is ``t0^p U(t) Ubar(tbar)``, its code's ``t0`` field and two halves,
and the terms share few distinct halves, so per moment vector the kernel
takes the powers, each distinct half's value, each term by three gathers
and each row's sum by one ``np.add.reduceat``: another order than
:meth:`TruncatedSeries.evaluate`, so the two agree to the last bits only.
The map, like the curve, is evaluated by Horner's rule in ``1/z``.  The
moment vector the map is taken at is :class:`taumap.moments.MomentVector`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from cmath import isfinite
from math import exp, inf, sqrt
from itertools import repeat
from operator import mul, truediv

import numpy as np

from .moments import MomentVector, _horner, _require_finite
from .series import PotentialSeries, _Tail

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
    """An exact series' derivatives, compiled for evaluation in complex binary64.

    ``tail`` stores ``F``; each row of ``lowerings`` is the derivative that
    lowers the variables it lists (``0`` is ``t0``, ``2k - 1`` is ``t_k``,
    ``2k`` is ``tbar_k``): ``(0, 0)`` is ``d0^2 F``, ``(0, 2k - 1)`` is
    ``d0 d_k F`` and ``()`` is ``F``.  A row keeps the terms whose factor
    ``prod (e_v - i)``, over the ``i``-th lowering of each ``v``, is
    nonzero, lowers their exponents and takes ``numerator * factor / den``,
    which rounds as ``float(Fraction)`` does, into ``coeffs``.  Its terms
    form one block of columns, in row order, that ends at its entry in
    ``ends``, in ascending code order (their codes in ``F`` less one
    constant), so each float depends on the row's terms alone and not on
    the order in which the algebra made them.

    A column is ``t0^p U(t) Ubar(tbar)``: ``t0`` holds its ``p``, ``lo``
    and ``hi`` the indices of its unbarred and barred half, its *sides*,
    among the distinct sides of both halves (302 for 6907 columns at
    ``(8,6)``), the empty side first.  ``pairs`` holds each side's
    ``(k, e)``, ``k`` ascending and ``e > 0``, as the index ``k width + e``
    of ``t_k^e`` in a table of powers whose row 0 is 1 (the empty side's
    one pair), ``firsts`` each side's first pair and ``widths``
    ``(1 + max p, width)``.
    ``starts`` holds the first column of each row with terms, ``filled``
    those rows: ``np.add.reduceat`` reads an empty block as the term at its
    start, so an empty row reads exactly 0.
    """

    __slots__ = (
        "n", "widths", "t0", "lo", "hi", "pairs", "firsts", "coeffs", "ends", "starts", "filled"
    )

    def __init__(self, tail: _Tail, lowerings: list[tuple[int, ...]]) -> None:
        codec, den = tail.codec, tail.den
        codes = [code for cell in tail.cells.values() for code in cell]
        nums = [num for cell in tail.cells.values() for num in cell.values()]
        # codes and sides beyond 63 bits are shifted and sorted as Python ints
        wide = max(codes, default=0) >> 63 or codec.half > 63
        packed = np.array(codes, dtype=object if wide else np.int64)
        order = np.argsort(packed)
        packed, nums = packed[order], np.array(nums, dtype=object)[order]
        t0 = (packed >> codec.t0_shift).astype(np.intp)
        halves = np.concatenate([[0], packed & codec.low, packed >> codec.half & codec.low])
        halves = halves.astype(np.int64 if codec.half < 64 else object)
        sides, halves = np.unique(halves, return_inverse=True)  # the empty side first
        halves = halves[1:].reshape(2, -1)
        ids = dict(zip(sides.tolist(), range(len(sides))))
        self.n = n = codec.n_max
        shifts = np.array([codec.shift(k) for k in range(1, n + 1)], dtype=np.intp)
        fields = (sides[:, None] >> shifts & codec.mask).astype(np.intp)
        columns, coeffs, ends = [], array("d"), []
        for lowered in lowerings:
            factor, drops = np.ones(len(packed), dtype=np.intp), [0, 0]
            for i, v in enumerate(lowered):
                # t_k lowers the low half, tbar_k the high half
                half = 1 - v % 2
                e = t0 if v == 0 else fields[halves[half], (v - 1) // 2]
                factor *= e - lowered[:i].count(v)
                if v:
                    drops[half] += 1 << codec.shift((v + 1) // 2)
            take = np.flatnonzero(factor)
            products = map(mul, nums[take].tolist(), factor[take].tolist())
            coeffs.extend(map(truediv, products, repeat(den)))
            ends.append(len(coeffs))
            row = [t0[take] - lowered.count(0)]
            for half, drop in zip(halves, drops):
                side = half[take]
                if drop:
                    # the lowered side of each distinct side the row reads
                    lower = np.bincount(side, minlength=len(sides))
                    used = np.flatnonzero(lower)
                    lowered_sides = (sides[used] - drop).tolist()
                    lower[used] = [ids.setdefault(s, len(ids)) for s in lowered_sides]
                    side = lower[side]
                row.append(side)
            columns.append(row)
        self.t0, self.lo, self.hi = map(np.concatenate, zip(*columns))
        added = np.array(list(ids)[len(sides):], dtype=sides.dtype)  # the lowered sides
        fields = np.concatenate([fields, (added[:, None] >> shifts & codec.mask).astype(np.intp)])
        side, k = np.nonzero(fields)
        width = int(fields.max(initial=0)) + 1
        self.widths = (int(self.t0.max(initial=0)) + 1, width)
        self.pairs = np.append(0, (k + 1) * width + fields[side, k])
        self.firsts = np.append(0, 1 + np.flatnonzero(np.diff(side, prepend=0)))
        self.coeffs = np.frombuffer(coeffs, dtype=np.float64)
        self.ends = ends
        bounds = np.array([0] + ends)
        self.filled = np.flatnonzero(np.diff(bounds))
        self.starts = bounds[self.filled]

    def monomials(self, moments: MomentVector) -> np.ndarray:
        """Every monomial's value at ``moments`` (zeros past its end up to
        ``n``), with ``tbar_k = conj(t_k)``.

        The powers of ``t0`` and of each ``t_k`` by repeated multiplication;
        each side's ``U(t)``, the product of its pairs' powers, by one
        ``np.multiply.reduceat``, and ``Ubar(tbar) = conj(U(t))``.  Moments
        far outside the series' range overflow to ``inf`` or ``nan`` without
        a numpy warning; :func:`map_from_potential` reports them.  A column
        with a side that holds a ``t_k`` equal to 0 is exactly 0, so where
        its product is not finite (``inf * 0`` is ``nan``) it reads ``+0``.
        """
        top, width = self.widths
        # row 0 of the table is the constant 1, the empty side's one pair
        x = np.array((1,) + moments.padded(self.n).t[: self.n], dtype=np.complex128)
        table = np.repeat(x[:, None], width, axis=1)
        powers = np.full(top, moments.t0)
        table[:, 0] = powers[0] = 1
        with np.errstate(over="ignore", invalid="ignore"):
            sides = np.multiply.reduceat(np.cumprod(table, axis=1).take(self.pairs), self.firsts)
            values = np.cumprod(powers).take(self.t0) * sides.take(self.lo)
            values *= sides.conj().take(self.hi)
        if not x.all():
            held = np.logical_or.reduceat(x[self.pairs // width] == 0, self.firsts)
            broken = np.flatnonzero(~np.isfinite(values))
            values[broken[held[self.lo[broken]] | held[self.hi[broken]]]] = 0
        return values

    def degrees(self) -> np.ndarray:
        """Each column's factor degree: the sum of its two sides' degrees."""
        sides = np.add.reduceat(self.pairs % self.widths[1], self.firsts)
        return sides.take(self.lo) + sides.take(self.hi)

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


def _held_kernel(potential: PotentialSeries, slot: str, lowerings: list) -> _Kernel:
    """The kernel of ``lowerings`` over ``F_reg`` held in ``potential``'s ``slot``."""
    kernel = getattr(potential, slot)
    if kernel is None:
        kernel = _Kernel(potential.regular._tail, lowerings)
        object.__setattr__(potential, slot, kernel)
    return kernel


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
    as the potential has no terms in them, and missing ones read 0.

    A negative ``order`` raises ``ValueError``, and so does ``A`` so large
    either way that ``p`` leaves the floating-point range, or a ``B_k`` or
    closure coefficient that is not finite: such moments lie far outside
    the region where the series converges.  The map is an
    output: ``taumap map`` writes it as JSON (:meth:`ExteriorMapSeries.to_json`),
    and no command reads one back as a map.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    # A = d0^2 F_reg, then B_k = d0 d_k F_reg, from F_reg's codes alone
    n_max = potential.regular.policy.n_max
    lowerings = [(0, 0)] + [(0, 2 * k - 1) for k in range(1, n_max + 1)]
    a_val, *b = _held_kernel(potential, "_map_kernel", lowerings)(moments).tolist()

    # normalization demands p real positive; for conjugate-symmetric moments
    # A is real up to rounding, so the imaginary residue is dropped
    try:
        p = exp(-a_val.real / 2) / sqrt(moments.t0)
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
