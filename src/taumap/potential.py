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
map needs no term beyond the index bound: at moments cut at ``n_max`` it
is fixed by ``A`` and ``B_1..B_n`` (see
:func:`taumap.confmap.map_from_potential`).

Most terms of the slices are dead: a term of ``F`` is read only from the
cell ``(a, b)`` of ``M_d`` whose ``a`` and ``b`` are its least indices, so
only the terms with no ``t_c``, ``c < a``, and no ``tbar_c``, ``c < b``,
feed the read.  Every product of the solver adds cells and multiplies
monomials, and the geometric sum only raises ``a`` and ``b``, so a term
that fails this in its cell fails it in every cell it feeds, and the
products of ``E_d`` and ``M_d`` and the geometric sum skip it.  The
geometric sum builds its cells of ``M_d`` under this mask, and the mirror
step below keeps it, so each term the read receives is live and the read
itself tests no mask.

Bar exchange, ``t_k <-> tbar_k`` together with ``u <-> v``, leaves the
equation invariant and maps the cell ``(a, b)`` of a slice onto ``(b, a)``
with its codes mirrored (:meth:`taumap.series._Codec.mirror`).  Each slice
is fixed by the slices below it, so by induction the unique solution is
symmetric, and so is the dead mask: the mask of ``(b, a)`` is the mirror
of that of ``(a, b)``.  The solver therefore forms only the cells
``a <= b`` of ``E_d`` and ``M_d``: their products form no cell whose mask
reads ``None`` (:meth:`taumap.series._Tail.products`), which it does at
``a > b``, and the geometric sum keeps ``a - b``, so it runs on the cells
``a <= b`` only.  One mirror step (:meth:`_TodaSolver._mirrored`) then
fills each cell ``a > b`` of ``E_d`` and ``M_d`` as the mirror of its
twin: every slice, and ``F``, holds the terms that forming every product
gives, in another order.  The map's kernel reads ``F``'s codes once,
sorted, and sums each row in code order, so no float depends on that
order (:class:`taumap.confmap._Kernel`).

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
    """The regular part from the mixed Toda equation (module docstring).

    Every slice is a tail of orders ``(n_max, n_max)`` under the policy's
    codec holding one factor degree: ``X_d``, ``E_d``, ``M_d`` and the
    terms of ``F_d`` in the cell ``(0, 0, d)``.

    ``_masks[a][b]`` is the code mask of ``t_1..t_{a-1}`` and
    ``tbar_1..tbar_{b-1}``, the one mask of the dead terms of the cell
    ``(a, b)``.  The geometric sum skips the terms that meet it, and so do
    the products of ``E_d`` and ``M_d``, through ``_dead(a, b)``: the mask
    for ``a <= b`` and ``None`` for ``a > b``, a cell they do not form and
    :meth:`_mirrored` fills from its twin (module docstring).  So
    :meth:`_read` receives no dead term.
    """

    def __init__(self, policy: TruncationPolicy) -> None:
        self.policy = policy
        self.codec = codec = _Codec(policy)
        self.orders = (policy.n_max, policy.n_max)
        self.bound = _Tail.box(self.orders, policy.deg_max)
        self.t0 = 1 << codec.t0_shift
        self.one = self._tail({(0, 0, 0): {0: 1}})
        # below[k]: the mask of t_1..t_{k-1}, moved onto tbar_1..tbar_{k-1}
        # by the shift of tbar_1; products look a mask up once per pair of cells
        n, bar = policy.n_max, codec.shift(1, barred=True)
        below = [(1 << codec.shift(max(k, 1))) - 1 for k in range(n + 1)]
        self._masks = masks = [
            [below[a] | below[b] << bar for b in range(n + 1)] for a in range(n + 1)
        ]
        self._dead = lambda a, b: masks[a][b] if a <= b else None

    def _tail(self, cells, den=1) -> _Tail:
        return _Tail(self.codec, self.bound, cells, den)

    def solve(self) -> TruncatedSeries:
        """The regular part, each degree slice computed once."""
        n, deg_max = self.policy.n_max, self.policy.deg_max
        one = self.one
        # M_0 = -log(1 - u v t0), the one slice the recurrence below misses
        den = lcm(*range(1, n + 1))
        m = [self._tail({(k, k, 0): {k * self.t0: den // k} for k in range(1, n + 1)}, den)]
        e, x = [one], [None]
        f = {1: self._tail({})}
        for d in range(deg_max - 1):
            if d:
                x.append(self._sources(f[d], f[d + 1]))
                e.append(self._mirrored(one.graded_exp_slice(x, e, self._dead)))
                # M_d = sum_{k >= 1} (u v t0)^k [E_d + (1/d) sum (d-j) E_j M_{d-j}]
                inner = one.products(
                    [(1, e[d], one)]
                    + [(Fraction(d - j, d), e[j], m[d - j]) for j in range(1, d)],
                    self._dead,
                )
                m.append(self._mirrored(self._geometric(inner)))
            f[d + 2] = self._read(m[d], d)
        # F as one series under the policy, from its cells (0, 0, d)
        series = _Tail.box((0, 0), deg_max)
        return TruncatedSeries._of(_Tail.combination(series, [(1, 0, 0, t) for t in f.values()]))

    def _sources(self, lo: _Tail, hi: _Tail) -> _Tail:
        """``X_d``: ``d0^2 F_d``, and ``u^a d0 d_a F / a`` and
        ``v^b d0 dbar_b F / b`` from ``F_{d+1}``."""
        d0 = hi.diff_t0()
        terms = [(1, 0, 0, lo.diff_t0().diff_t0())]
        for a in range(1, self.policy.n_max + 1):
            terms.append((Fraction(1, a), a, 0, d0.diff_t(a)))
            terms.append((Fraction(1, a), 0, a, d0.diff_t(a, barred=True)))
        return _Tail.combination(self.bound, terms)

    def _mirrored(self, half: _Tail) -> _Tail:
        """``half``, which holds the cells ``a <= b`` of a slice, with each
        cell ``(a, b, d)``, ``a > b``, filled as the mirror of its twin
        ``(b, a, d)`` (module docstring)."""
        mirror = self.codec.mirror
        cells = dict(half.cells)
        for (a, b, d), cell in half.cells.items():
            if a < b:
                cells[b, a, d] = dict(zip(map(mirror, cell), cell.values()))
        return self._tail(cells, half.den)

    def _geometric(self, inner: _Tail) -> _Tail:
        """``sum_{k >= 1} (u v t0)^k inner``, cut at the orders, without the
        terms dead in their cell."""
        amax, bmax = self.orders
        cells: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, d), cell in inner.cells.items():
            for k in range(1, min(amax - a, bmax - b) + 1):
                out = cells.setdefault((a + k, b + k, d), {})
                shift = k * self.t0
                mask = self._masks[a + k][b + k]
                for code, n in cell.items():
                    if not code & mask:
                        out[code + shift] = out.get(code + shift, 0) + n
        return self._tail(cells, inner.den)

    def _read(self, m: _Tail, d: int) -> _Tail:
        """``F_{d+2}`` from the cells of ``M_d``.

        A term of ``F`` with least unbarred index ``a`` and least barred
        index ``b`` sits in cell ``(a, b)`` as ``n_a m_b / (a b)`` times its
        coefficient, on its monomial less ``t_a tbar_b``.  Every term of
        ``M_d`` is live in its cell (class docstring), so each is read.
        """
        codec = self.codec
        mask = codec.mask
        scale = lcm(*range(1, self.policy.deg_max + 1)) ** 2
        regular: dict[int, int] = {}
        for (a, b, _), cell in m.cells.items():
            a_pos, b_pos = codec.shift(a), codec.shift(b, barred=True)
            step = (1 << a_pos) + (1 << b_pos)
            for code, c in cell.items():
                code += step
                na_mb = ((code >> a_pos) & mask) * ((code >> b_pos) & mask)
                regular[code] = a * b * c * (scale // na_mb)
        return self._tail({(0, 0, d + 2): regular}, m.den * scale)


def build_potential(
    policy: TruncationPolicy, cache: MemoCache | None = None
) -> tuple[PotentialSeries, BuildReport]:
    """Solve the mixed Toda equation for the potential, one degree slice at a time.

    The report keeps the policy and counts its keys (``keys_evaluated``)
    only when read.  The build reads no memo table: ``cache`` is accepted
    and not read.  It stays while the benchmark's workloads
    (``perfbench/workloads.py``) pass one.
    """
    start = time.perf_counter()
    regular = _TodaSolver(policy).solve()
    report = BuildReport(policy, len(regular), time.perf_counter() - start)
    return PotentialSeries(regular), report
