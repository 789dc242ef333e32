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
policy.  A potential truncated at index ``n_max`` is evaluated at the
moments cut at ``n_max``, and there ``B_k`` for ``k > n_max`` is fixed by
the terms linear in ``t_k`` whose other indices are all at most ``n_max``:
the one-point sector ``sum_k t_k S_k``, so ``B_k = d0 S_k``.  The potential
carries the ``S_k`` when it was built for the map's order
(:func:`taumap.potential.build_potential`).  ``B_k`` beyond
what the potential carries are taken as zero, with a warning.

Serving a domain is one numeric evaluation of fixed series.  The exact
rows ``d0^2 F_reg``, ``d0 d_k F_reg`` (``k <= n_max``) and ``d0 S_k`` of
the sector (``n_max < k <= k_max``) are derived once, on the first map of
a potential, and compiled into a float kernel held on that
:class:`~taumap.series.PotentialSeries` instance.  Per moment vector it
takes each variable's few powers by repeated multiplication, multiplies
them into the terms the variable appears in, and sums each row's block of
terms with one ``np.add.reduceat``: another order than
:meth:`TruncatedSeries.evaluate`, so the two agree to the last few bits
only.  The map, like the curve, is evaluated by Horner's rule in ``1/z``.
The moment vector the map is taken at is :class:`taumap.moments.MomentVector`.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from cmath import isfinite
from itertools import chain
from math import exp, inf, sqrt
from typing import Iterable

import numpy as np

from .moments import MomentVector, _horner, _require_finite
from .series import PotentialSeries, TruncatedSeries

__all__ = ["ExteriorMapSeries", "map_from_potential", "evaluate_map"]


@dataclass(frozen=True)
class ExteriorMapSeries:
    """Laurent tail ``p z + p_0 + p_1 z^-1 + ... + p_J z^-J``."""

    p: float
    tail: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not (isfinite(self.p) and self.p > 0):
            raise ValueError(f"p must be finite and positive, got {self.p}")
        _require_finite("tail", self.tail)

    def __call__(self, z: complex) -> complex:
        return evaluate_map(self, z)

    def to_json(self) -> dict:
        return {"p": self.p, "tail": [[x.real, x.imag] for x in self.tail]}


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
    ``coeffs`` holds every (real) ``Fraction`` rounded once.  ``starts``
    holds the first column of each row with terms, ``filled`` those rows:
    ``np.add.reduceat`` reads an empty block as the term at its start, so
    an empty row is left out of the sum and reads exactly 0.
    """

    __slots__ = ("n", "exponents", "support", "tops", "coeffs", "ends", "starts", "filled")

    def __init__(self, rows: Iterable[TruncatedSeries]) -> None:
        # ``rows`` is read once, so a generator holds one exact row at a time
        var, col, power = array("l"), array("l"), array("l")
        coeff, ends = array("d"), []
        for row in rows:
            for mono, c in row.items():
                j = len(coeff)
                coeff.append(float(c))
                var.append(0)
                col.append(j)
                power.append(mono.t0_power)
                for k, barred, e in mono.factors:
                    var.append(2 * k - 1 + barred)
                    col.append(j)
                    power.append(e)
            ends.append(len(coeff))
        self.n = (max(var, default=0) + 1) // 2
        dtype = np.min_scalar_type(max(power, default=0))
        self.exponents = np.zeros((1 + 2 * self.n, len(coeff)), dtype=dtype)
        self.exponents[var, col] = power
        self.support = [(np.flatnonzero(e), e[e > 0]) for e in self.exponents]
        self.tops = self.exponents.max(axis=1, initial=0).tolist()
        self.coeffs = np.frombuffer(coeff, dtype=np.float64)
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


def map_from_potential(
    potential: PotentialSeries, moments: MomentVector, order: int
) -> ExteriorMapSeries:
    """Exterior map coefficients ``p, p_0..p_J`` from the potential at ``m``.

    ``order`` is the truncation order ``J`` of the ``z^-1`` tail, which is
    fed by the one-point functions ``B_k`` for ``k = 1..J+1``.  Indices up
    to the potential's ``n_max`` are read from the regular part as
    ``d0 d_k F_reg``, those up to its ``k_max`` from the one-point sector
    it carries as ``d0 S_k`` (build it with ``map_order >= J``), one ``t0``
    derivative each.  Moments beyond ``n_max`` are ignored throughout, as
    the potential has no terms in them.  Any ``B_k`` beyond ``k_max`` is
    taken as zero, with one ``UserWarning``; it is a warning, not an error,
    while the benchmark's workloads (``perfbench/workloads.py``) map
    without a sector.

    A negative ``order`` raises ``ValueError``, and so does ``A`` so large
    either way that ``p`` leaves the floating-point range, or a ``B_k`` the
    map uses that is not finite: such moments lie far outside the region
    where the series converges.  The map is an
    output: ``taumap map`` writes it as JSON (:meth:`ExteriorMapSeries.to_json`),
    and no command reads one back.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    n_max = potential.regular.policy.n_max
    k_max = potential.k_max
    if order + 1 > k_max:
        warnings.warn(
            f"one-point functions B_k for k > {k_max} are taken as zero "
            f"(the map of order {order} needs k <= {order + 1}); build the "
            f"potential with map_order >= {order}",
            UserWarning,
            stacklevel=2,
        )
    m = moments.padded(n_max)

    kernel = potential._map_kernel
    if kernel is None:
        # the rows are streamed: A, then B_k from the regular part and the sector
        d0 = potential.regular.diff_t0()
        kernel = _Kernel(chain(
            (d0.diff_t(k) if k else d0.diff_t0() for k in range(n_max + 1)),
            (s_k.diff_t0() for s_k in potential.sector),
        ))
        object.__setattr__(potential, "_map_kernel", kernel)
    a_val, *b = kernel(m).tolist()
    del b[order + 1 :]
    b += [0j] * (order + 1 - len(b))

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

    # h = exp(sum c_k z^-k) with c_k = -B_k / k, by the standard recurrence
    # h_n = (1/n) sum_{k<=n} k c_k h_{n-k}.
    c = [0j] + [-b[k - 1] / k for k in range(1, order + 2)]
    h = [1 + 0j]
    for n in range(1, order + 2):
        acc = 0j
        for k in range(1, n + 1):
            acc += k * c[k] * h[n - k]
        h.append(acc / n)

    tail = tuple(p * h[j + 1] for j in range(order + 1))
    return ExteriorMapSeries(p=p, tail=tail)


def evaluate_map(w: ExteriorMapSeries, z: complex) -> complex:
    """``p z + sum_j p_j z^-j`` by Horner evaluation in ``1/z``.

    ``z`` may be a numpy array; a Python ``complex`` stays one.
    """
    return w.p * z + _horner(w.tail, 1.0 / z)

