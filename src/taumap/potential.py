"""The truncated potential series and the Toda solver that builds it.

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

Most terms of the slices are dead: the read keeps from the cell ``(a, b)``
of ``M_d`` only the terms with no ``tbar_c``, ``c < b``, and, for
``a <= n_max``, no ``t_c``, ``c < a``.  Every product of the solver adds
cells and multiplies monomials, and the geometric sum only raises ``a``
and ``b``, so a term that fails this in its cell fails it in every cell it
feeds, and the products of ``E_d`` and ``M_d`` and the geometric sum
skip it.  With a sector only the barred half of the mask marks a term
dead: a term with a low ``t_c`` in a cell ``a <= n_max`` still feeds the
sector cells ``a > n_max``, where every plain ``t_c`` is read.

The recursion for ``N`` is not run here, nor the walk over its keys
(:func:`taumap.coefficients.admissible_keys`).  They stay as the exact
oracle the solver answers to, the paper's combinatorial formula, in
:mod:`taumap.verify`, where every check of the build lives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Collection

from .coefficients import MemoCache, admissible_keys
from .series import PotentialSeries, TruncatedSeries, TruncationPolicy, _Codec, _Tail

__all__ = ["BuildReport", "build_potential", "default_policy"]


@dataclass(frozen=True)
class BuildReport:
    """The policy of a build, how many terms it kept, and its time."""

    policy: TruncationPolicy
    nonzero_terms: int
    elapsed: float

    @property
    def keys_evaluated(self) -> int:
        """How many keys the policy admits: one walk of :func:`admissible_keys`,
        the recursion's keys, which the solver itself never walks."""
        return sum(1 for _ in admissible_keys(self.policy))

    def to_json(self) -> dict:
        """``{"keys_evaluated", "nonzero_terms"}``: no time, so runs write the same."""
        return {"keys_evaluated": self.keys_evaluated, "nonzero_terms": self.nonzero_terms}


def default_policy(n_max: int, deg_max: int) -> TruncationPolicy:
    """The policy of a build at index bound ``n_max`` and degree bound ``deg_max``.

    It is ``TruncationPolicy(n_max, deg_max)`` and stays while the
    benchmark's workloads (``perfbench/workloads.py``) call it.
    """
    return TruncationPolicy(n_max=n_max, deg_max=deg_max)


class _TodaSolver:
    """The regular part and the one-point sector from the mixed Toda equation
    (module docstring).

    Every slice is a tail of orders ``(k_max, n_max)`` under the policy's
    codec holding one factor degree: ``X_d``, ``E_d``, ``M_d``, the terms of
    ``F_d`` in the cell ``(0, 0, d)`` and those of ``S_a`` in the cells
    ``(a, 0, d)``, ``a > n_max``.

    :meth:`_below` is the one mask of what :meth:`_read` drops from a cell.
    The products of ``E_d`` and ``M_d`` and the geometric sum skip the
    terms that meet :meth:`_dead`: all of ``_below`` without a sector, its
    barred half with one, since a low ``t_c`` in a cell ``a <= n_max``
    still reaches the sector cells.
    """

    def __init__(self, policy: TruncationPolicy, k_max: int) -> None:
        self.policy = policy
        self.codec = codec = _Codec(policy)
        self.orders = (k_max, policy.n_max)
        self.t0 = 1 << codec.t0_shift
        self.one = self._tail({(0, 0, 0): {0: 1}})
        # products look the mask up once per pair of cells
        amax, bmax = self.orders
        plain = k_max == policy.n_max
        self._dead_masks = [
            [self._below(a if plain else 0, b) for b in range(bmax + 1)]
            for a in range(amax + 1)
        ]

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
                e.append(one.graded_exp_slice(x, e, self._dead))
                # M_d = sum_{k >= 1} (u v t0)^k [E_d + (1/d) sum (d-j) E_j M_{d-j}]
                inner = one.products(
                    [(1, e[d], one)]
                    + [(Fraction(d - j, d), e[j], m[d - j]) for j in range(1, d)],
                    self._dead,
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

    def _below(self, a: int, b: int) -> int:
        """The code mask of ``tbar_1..tbar_{b-1}`` and, for ``a <= n_max``, of
        ``t_1..t_{a-1}``: :meth:`_read` drops every term of the cell
        ``(a, b)`` of ``M_d`` that meets it."""
        codec = self.codec
        mask = 0
        if b > 1:
            mask = (1 << codec.shift(b, barred=True)) - (1 << codec.shift(1, barred=True))
        if 1 < a <= codec.n_max:
            mask |= (1 << codec.shift(a)) - 1
        return mask

    def _dead(self, a: int, b: int) -> int:
        """The mask of the terms of the cell ``(a, b)`` that no read term
        comes from (module docstring)."""
        return self._dead_masks[a][b]

    def _geometric(self, inner: _Tail) -> _Tail:
        """``sum_{k >= 1} (u v t0)^k inner``, cut at the orders, without the
        terms dead in their cell."""
        amax, bmax = self.orders
        cells: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, d), cell in inner.cells.items():
            for k in range(1, min(amax - a, bmax - b) + 1):
                out = cells.setdefault((a + k, b + k, d), {})
                shift = k * self.t0
                mask = self._dead(a + k, b + k)
                for code, n in cell.items():
                    if not code & mask:
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
        scale = lcm(*range(1, self.policy.deg_max + 1)) ** 2
        regular: dict[int, int] = {}
        sector: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, _), cell in m.cells.items():
            b_pos = codec.shift(b, barred=True)
            below = self._below(a, b)
            if a > n:
                out = sector.setdefault((a, 0, d + 1), {})
                for code, c in cell.items():
                    if not code & below:
                        code += 1 << b_pos
                        out[code] = a * b * c * (scale // ((code >> b_pos) & mask))
                continue
            a_pos = codec.shift(a)
            step = (1 << a_pos) + (1 << b_pos)
            for code, c in cell.items():
                if not code & below:
                    code += step
                    na_mb = ((code >> a_pos) & mask) * ((code >> b_pos) & mask)
                    regular[code] = a * b * c * (scale // na_mb)
        den = m.den * scale
        return self._tail({(0, 0, d + 2): regular}, den), self._tail(sector, den)

    def _summed(self, slices: Collection[_Tail], k: int) -> TruncatedSeries:
        """The cells ``(k, 0, d)`` of the degree slices as one series under the
        policy: ``F`` from its slices at ``k = 0``, ``S_k`` from the sector's."""
        den = lcm(*(t.den for t in slices))
        cells = {
            (0, 0, d): {code: num * (den // t.den) for code, num in cell.items()}
            for t in slices
            for (a, _, d), cell in t.cells.items()
            if a == k
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
