"""Exact combinatorial coefficients of the potential's Taylor expansion.

The Taylor coefficient attached to a pair of index multisets (one for the
plain variables ``t_k``, one for the barred ``tbar_k``) is produced by a
layered recursion over compositions and ordered set partitions:

``bounded_compositions_count``
    counts compositions of an integer with per-slot upper bounds (a pure
    lattice count, computed by dynamic programming);
``t1_coefficient``
    averages those counts over all ways of grouping consecutive slots;
``t2_coefficient``
    contracts windows of an ``(s, l)`` column matrix down to the two-index
    base case;
``s_coefficient``
    sums factorial weights over ordered partitions of the barred index
    positions into labeled blocks with prescribed block sums;
``n1_coefficient`` / ``n2_coefficient``
    combine the two sides into the final signed sum.

The two sides cost differently: the contraction recurses over the
unbarred list, one level per index after the first two, while the widths
``m`` and the placements range over the barred list.  The coefficient is
symmetric in the two sides, and :func:`taumap.verify._oriented` names the
cheap orientation, the longer list unbarred.  The potential's build does
not run this recursion; its oracle,
:func:`taumap.verify.combinatorial_formula_check`, evaluates every key of
a policy, walked by :func:`admissible_keys`, in that orientation.

Three choices keep the recursion cheap while its values stay exact:

* **Grouped, weighted placements.**  For a barred list and a width ``m``
  the labelled placements of the barred positions into ``m`` non-empty
  blocks are enumerated once, by a DP over positions, and grouped as
  ``block sums -> ((capacities, weight), ...)``.  A block of size ``n_r``
  and sum ``s_r`` leaves its column the capacity ``c_r = s_r - n_r`` and
  weighs ``perm(s_r - 1, n_r - 1)``.  A column's ``s`` weight
  ``(s_r-1)! / ((s_r-n_r-l_r+1)! (l_r-1)!)`` is then
  ``comb(c_r, l_r - 1) * perm(s_r - 1, n_r - 1)``, one integer identity,
  since the slack and ``l_r - 1`` add up to ``c_r``.
* **One contraction over capacities.**  ``t2`` weighs a window by its
  surplus ``E = sum (l_r - 1)``, and the sum of ``s * t2`` over every
  ``l`` composition weighs column ``r`` by ``comb(c_r, l_r - 1)``.
  Vandermonde's identity, ``sum prod comb(c_r, e_r) = comb(C, E)`` over
  the surpluses ``e_r`` of a window with ``C = sum c_r``, and
  ``E * comb(C, E) = C * comb(C - 1, E - 1)`` carry that sum inside the
  window recursion: the kernel contracts ``Phi(U; s; c)``, in which a
  window weighs its capacity ``C`` and leaves the capacity ``C - 1``.
  ``n1`` sums ``weight * Phi`` over the placements, with no loop over
  ``l``, and the public ``t2`` is read off ``Phi`` by binomial inversion.
  This needs the linear weight; the multinomial ``E! / prod e_r!``, equal
  to it on index lists of length <= 3, breaks the ellipse closed form,
  the bar-exchange symmetry and the mixed hierarchy residual, and lives
  on in the tests' ``Fraction`` reference as a negative control.
* **Integer kernels.**  Every ``t1`` denominator at width ``m`` divides
  ``D_m = m! * lcm(1..m)``.  The kernels carry ``t1 * D_m`` and
  ``Phi * D_m^(len(i_list) - 1)`` as ``int``s; ``n1`` sums each width in
  integers and makes one ``Fraction`` per width.  The public ``t1`` and
  ``t2`` functions divide a kernel value by its ``D``.  The list of the
  ``D_w`` is built once per cache (:meth:`MemoCache.denominators`).

The engine itself calls only the kernels.  The public layer functions
``t1_coefficient``, ``t2_coefficient`` and ``s_coefficient``, with the
``SLMatrix`` they take, stay: they are the quantities on which the paper
states its growth bounds, and acceptance gate A6 checks those bounds on
exactly these functions.

All public values are exact ``Fraction``s (``s`` and the composition count
are ``int``s).  Every family is memoized in a :class:`MemoCache` that the
caller creates and passes; a call without one gets a fresh cache of its
own, so no table outlives the call that filled it unless the caller keeps
it.  ``p`` holds counts, ``t1`` the scaled kernel values, ``t2`` the scaled
contractions ``Phi`` keyed by ``(i_list, s, c)`` (those of two indices are
``t1`` values, which do not depend on ``c``, and stay there), ``s`` the
weighted placement groups and ``n1`` the final coefficients.  Computation
of a key is deterministic and idempotent, so concurrent get-or-compute
races are harmless (CPython dict updates are atomic and both writers store
the same value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, lcm, perm
from operator import sub
from typing import Iterator

from .series import TruncationPolicy

__all__ = [
    "SLMatrix",
    "NKey",
    "MemoCache",
    "bounded_compositions_count",
    "t1_coefficient",
    "t2_coefficient",
    "s_coefficient",
    "n1_coefficient",
    "n2_coefficient",
    "compositions",
    "bounded_partitions",
    "admissible_keys",
]

@dataclass(frozen=True)
class SLMatrix:
    """Paired composition columns ``(s_r, l_r)``, all entries >= 1."""

    s: tuple[int, ...]
    l: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.s) != len(self.l):
            raise ValueError("s and l must have equal length")
        if any(x < 1 for x in self.s) or any(x < 1 for x in self.l):
            raise ValueError("matrix entries must be >= 1")

    @property
    def width(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class NKey:
    """Canonical key for a potential coefficient.

    ``unbarred`` and ``barred`` are tuples of ``(index, multiplicity)`` pairs
    with strictly increasing indices; ``i``, the weight of the unbarred
    side, is set once at construction.  Keys whose barred weight differs
    from ``i`` are legal and map to the zero coefficient.
    """

    unbarred: tuple[tuple[int, int], ...]
    barred: tuple[tuple[int, int], ...]
    i: int = field(init=False)

    def __post_init__(self) -> None:
        for side in (self.unbarred, self.barred):
            prev = 0
            for idx, mult in side:
                if idx <= prev or mult < 1:
                    raise ValueError(f"non-canonical key side {side}")
                prev = idx
        object.__setattr__(self, "i", sum(idx * m for idx, m in self.unbarred))

    def expanded_unbarred(self) -> tuple[int, ...]:
        return _expand(self.unbarred)

    def expanded_barred(self) -> tuple[int, ...]:
        return _expand(self.barred)

    def swapped(self) -> "NKey":
        return NKey(self.barred, self.unbarred)


def _expand(side: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    out: list[int] = []
    for idx, mult in side:
        out.extend([idx] * mult)
    return tuple(out)


@dataclass
class MemoCache:
    """Per-family memo tables keyed by canonical argument tuples.

    ``t1`` and ``t2`` hold the ``D``-scaled integer kernels (``t2`` the
    capacity contractions) and ``s`` the weighted placement groups of a
    ``(barred, width)`` pair, not public values.
    ``dens`` is the list ``[D_0, D_1, ..]`` of the kernels' scales, grown on
    demand by :meth:`denominators`; it is not a memo table.
    """

    p: dict = field(default_factory=dict)
    t1: dict = field(default_factory=dict)
    t2: dict = field(default_factory=dict)
    s: dict = field(default_factory=dict)
    n1: dict = field(default_factory=dict)
    dens: list = field(default_factory=list)

    def denominators(self, m: int) -> list[int]:
        """:func:`_denominators` through at least width ``m``."""
        if len(self.dens) <= m:
            self.dens = _denominators(m)
        return self.dens

    def sizes(self) -> dict[str, int]:
        return {
            "p": len(self.p),
            "t1": len(self.t1),
            "t2": len(self.t2),
            "s": len(self.s),
            "n1": len(self.n1),
        }


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts < 1 or total < parts:
        return
    if parts == 1:  # the engine's most frequent call, kept free of set-up
        yield (total,)
        return
    # the parts are the gaps between 0, the cut points and total, so cut
    # points in lexicographic order give the compositions in that order
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def bounded_partitions(
    total: int, max_part: int, max_count: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Multisets ``((index, mult), ...)`` with ``sum index*mult == total``.

    Indices are bounded by ``max_part`` and the total multiplicity by
    ``max_count``; output sides are in canonical (increasing index) order.
    They come largest index first: by that index descending, then its
    multiplicity descending, then the same over the rest.  The walk keeps
    its choices on one stack, largest index at the bottom, and beside each
    the weight and count left before it; it takes only choices whose
    remainder the smaller indices can still fill, so it meets no dead end.
    """
    parts: list[tuple[int, int]] = []
    left: list[tuple[int, int]] = []
    remaining, budget, largest = total, max_count, max_part
    while True:
        if not remaining:
            yield tuple(parts[::-1])
        elif remaining <= largest * budget:
            # the greedy choice leaves a remainder the smaller indices fill
            idx = min(largest, remaining)
            mult = min(budget, remaining // idx)
            parts.append((idx, mult))
            left.append((remaining, budget))
            remaining, budget, largest = remaining - idx * mult, budget - mult, idx - 1
            continue
        # the next choice of the deepest entry that has one
        while parts:
            idx, mult = parts.pop()
            remaining, budget = left[-1]
            if mult > 1 and remaining - idx * (mult - 1) <= (idx - 1) * (budget - mult + 1):
                mult -= 1
            elif idx > 1 and remaining <= (idx - 1) * budget:
                idx -= 1
                mult = min(budget, remaining // idx)
            else:
                left.pop()
                continue
            parts.append((idx, mult))
            remaining, budget, largest = remaining - idx * mult, budget - mult, idx - 1
            break
        else:
            return


def admissible_keys(policy: TruncationPolicy) -> Iterator[tuple[NKey, int]]:
    """Every key of ``policy`` with its ``t0`` exponent, by weight ascending.

    Each side is a bounded partition of the weight (indices <= ``n_max``);
    the two sides share at most ``deg_max`` factors in total, with one
    factor minimum each, and the exponent ``weight - degree + 2`` is
    non-negative.  The weight is at most ``n_max * (deg_max - 1)``, so the
    exponent is at most ``n_max * (deg_max - 1)`` too.  The sides of every
    weight are enumerated once, and an unbarred side meets only the barred
    sides with few enough factors, in their enumeration order: every pair
    visited is a key.
    """
    n_max, deg_max = policy.n_max, policy.deg_max
    max_side = deg_max - 1
    max_weight = n_max * max_side if max_side > 0 else 0
    for weight in range(1, max_weight + 1):
        sides = [
            (side, sum(m for _, m in side))
            for side in bounded_partitions(weight, n_max, max_side)
        ]
        # within[c]: the sides with at most c factors, in order
        within = [[(side, n) for side, n in sides if n <= c] for c in range(max_side + 1)]
        for unbarred, count in sides:
            # the degree is at most deg_max and weight + 2 (t0_power >= 0)
            room = min(deg_max, weight + 2) - count
            for barred, kbar in within[max(room, 0)]:
                yield NKey(unbarred, barred), weight - count - kbar + 2


def bounded_compositions_count(
    i: int, s: tuple[int, ...], cache: MemoCache | None = None
) -> int:
    """Number of tuples ``(i_1..i_m)`` with ``sum i_r = i``, ``1 <= i_r <= s_r - 1``.

    Replacing each ``i_r`` by ``s_r - i_r`` shows the count is the same for
    ``i`` and for its complement ``sum(s) - i``.
    """
    if cache is None:
        cache = MemoCache()
    s = tuple(s)
    key = (i, s)
    hit = cache.p.get(key)
    if hit is not None:
        return hit
    # ways[x] = number of prefixes summing to x
    ways = [0] * (i + 1)
    ways[0] = 1
    for bound in s:
        nxt = [0] * (i + 1)
        top = min(bound - 1, i)
        for x, w in enumerate(ways):
            if not w:
                continue
            for step in range(1, top + 1):
                if x + step > i:
                    break
                nxt[x + step] += w
        ways = nxt
    cache.p[key] = ways[i]
    return ways[i]


def _denominators(m: int) -> list[int]:
    """``[D_0, D_1, .., D_m]`` with ``D_w = w! * lcm(1..w)``.

    ``D_m`` is a multiple of every ``t1`` denominator at width ``m``: a
    grouping of ``m`` slots into ``k`` blocks of sizes ``n_1..n_k`` has
    denominator ``k * prod n_r!``, and ``D_m / (k * prod n_r!)`` is the
    multinomial ``m! / prod n_r!`` times ``lcm(1..m) / k``.  ``D_w``
    divides ``D_m`` for ``w <= m``.
    """
    out = [1]
    fact = 1
    common = 1
    for w in range(1, m + 1):
        fact *= w
        common = lcm(common, w)
        out.append(fact * common)
    return out


def _t1_scaled(i: int, s: tuple[int, ...], cache: MemoCache) -> int:
    """``t1(i, sum(s) - i, s) * D_m`` as an exact integer, ``m = len(s)``."""
    key = (i, s)
    hit = cache.t1.get(key)
    if hit is not None:
        return hit
    m = len(s)
    d = cache.denominators(m)[m]
    total = 0
    for k in range(1, m + 1):
        for sizes in compositions(m, k):
            blocks = []
            pos = 0
            denom = k
            for n in sizes:
                blocks.append(sum(s[pos : pos + n]))
                pos += n
                denom *= factorial(n)
            count = bounded_compositions_count(i, tuple(blocks), cache)
            if count:
                total += count * (d // denom)
    cache.t1[key] = total
    return total


def t1_coefficient(i: int, s: tuple[int, ...], cache: MemoCache | None = None) -> Fraction:
    """Average of bounded composition counts over consecutive groupings.

    Sums ``P(i, j, block sums) / (k * n_1! ... n_k!)``, ``j = sum(s) - i``,
    over all ways of splitting the ``m`` slots of ``s`` into ``k`` consecutive
    blocks of sizes ``n_1..n_k``.
    """
    s = tuple(s)
    scaled = _t1_scaled(i, s, MemoCache() if cache is None else cache)
    return Fraction(scaled, _denominators(len(s))[-1])


def _t2_scaled(
    i_list: tuple[int, ...],
    s: tuple[int, ...],
    c: tuple[int, ...],
    cache: MemoCache,
) -> int:
    """``Phi(i_list; s; c) * D_m^(len(i_list) - 1)`` as an exact integer.

    ``Phi = sum_e prod comb(c_r, e_r) * t2(i_list, (s, 1 + e))``; a window
    ``W`` weighs its capacity ``C_W`` and leaves the capacity ``C_W - 1``
    (module docstring).  Its ``t1`` scaled by ``D_w``, ``w`` its width, and
    the tail of width ``m' = m - w + 1`` scaled by ``D_m'^(len(i_list) - 2)``
    are lifted to ``D_m`` by exact integer factors.
    """
    if len(i_list) == 2:
        # the base does not depend on c: t1 holds it once per s
        return _t1_scaled(i_list[0], s, cache)
    key = (i_list, s, c)
    hit = cache.t2.get(key)
    if hit is not None:
        return hit
    head = i_list[:-1]
    last = i_list[-1]
    depth = len(head) - 1
    m = len(s)
    dens = cache.denominators(m)
    d = dens[m]
    value = 0
    for a in range(m):
        s_acc = 0
        c_acc = 0
        for b in range(a, m):
            s_acc += s[b]
            c_acc += c[b]
            if s_acc <= last or not c_acc:
                continue
            # t1 is symmetric in its index and the complement s_acc - last
            inner = _t1_scaled(last, s[a : b + 1], cache)
            if not inner:
                continue
            tail = _t2_scaled(
                head,
                s[:a] + (s_acc - last,) + s[b + 1 :],
                c[:a] + (c_acc - 1,) + c[b + 1 :],
                cache,
            )
            if tail:
                width = b - a + 1
                lift = (d // dens[width]) * (d // dens[m - width + 1]) ** depth
                value += c_acc * inner * tail * lift
    cache.t2[key] = value
    return value


def t2_coefficient(
    i_list: tuple[int, ...],
    sl: SLMatrix,
    cache: MemoCache | None = None,
) -> Fraction:
    """Window-contraction recursion over ``(s, l)`` columns.

    Base case (two indices): equals :func:`t1_coefficient` when every
    ``l_r == 1`` and vanishes otherwise.  Recursive case: sum over windows
    ``[a..b]`` of columns, each replaced by the single column
    ``(sum s - i_k, sum (l_r - 1))``, weighted by the window's surplus
    ``sum (l_r - 1)`` and by the ``t1`` value of the window against the
    last index.  The value is read off the capacity contraction of
    :func:`_t2_scaled` by binomial inversion: ``t2`` is the sum over
    ``0 <= c <= l - 1`` of ``prod (-1)^(l_r - 1 - c_r) comb(l_r - 1, c_r)``
    times ``Phi(i_list; s; c)``.
    """
    i_list = tuple(i_list)
    if len(i_list) < 2:
        raise ValueError("need at least two indices")
    if cache is None:
        cache = MemoCache()
    scaled = 0
    for caps in product(*(range(l_r) for l_r in sl.l)):
        term = _t2_scaled(i_list, sl.s, caps, cache)
        for c_r, l_r in zip(caps, sl.l):
            term *= (-1) ** (l_r - 1 - c_r) * comb(l_r - 1, c_r)
        scaled += term
    return Fraction(scaled, _denominators(sl.width)[-1] ** (len(i_list) - 1))


def _placements(barred: tuple[int, ...], m: int, cache: MemoCache) -> dict:
    """Weighted placements of the barred positions into ``m`` non-empty blocks.

    Returns ``{block sums: ((capacities, weight), ...)}``: a placement with
    block sizes ``n_r`` leaves column ``r`` the capacity ``s_r - n_r`` and
    weighs ``prod perm(s_r - 1, n_r - 1)``, and ``weight`` sums that over
    the placements with those block sums and sizes.  A dict DP over
    positions carries the state (block sums, block sizes); states that can
    no longer fill every block are dropped.
    """
    key = (barred, m)
    hit = cache.s.get(key)
    if hit is not None:
        return hit
    kbar = len(barred)
    states = {((0,) * m, (0,) * m): 1} if m <= kbar else {}
    for pos, v in enumerate(barred):
        left = kbar - pos - 1
        nxt: dict = {}
        for (sums, sizes), count in states.items():
            for r in range(m):
                new_sizes = sizes[:r] + (sizes[r] + 1,) + sizes[r + 1 :]
                if new_sizes.count(0) > left:
                    continue
                state = (sums[:r] + (sums[r] + v,) + sums[r + 1 :], new_sizes)
                nxt[state] = nxt.get(state, 0) + count
        states = nxt
    grouped: dict = {}
    for (sums, sizes), count in states.items():
        for s_r, n_r in zip(sums, sizes):
            count *= perm(s_r - 1, n_r - 1)
        grouped.setdefault(sums, []).append((tuple(map(sub, sums, sizes)), count))
    groups = {sums: tuple(entries) for sums, entries in grouped.items()}
    cache.s[key] = groups
    return groups


def s_coefficient(
    barred: tuple[int, ...], sl: SLMatrix, cache: MemoCache | None = None
) -> int:
    """Ordered-set-partition sum over the barred index positions.

    Positions ``1..len(barred)`` are distributed into ``width`` labeled
    non-empty blocks; a distribution contributes only when block ``r`` has
    value sum ``s_r`` and ``s_r - n_r - l_r + 1 >= 0`` (``n_r`` the block
    size), with weight ``prod (s_r-1)! / ((s_r-n_r-l_r+1)! (l_r-1)!)``.
    Repeated values are distinguishable, so the result is an integer.
    A column weighs ``comb(s_r - n_r, l_r - 1) * perm(s_r - 1, n_r - 1)``,
    whose ``comb`` vanishes exactly when the slack is negative.
    """
    groups = _placements(
        tuple(sorted(barred)), sl.width, MemoCache() if cache is None else cache
    )
    total = 0
    for caps, weight in groups.get(sl.s, ()):
        for c_r, l_r in zip(caps, sl.l):
            weight *= comb(c_r, l_r - 1)
        total += weight
    return total


def n1_coefficient(
    i: int,
    unbarred: tuple[int, ...],
    barred: tuple[int, ...],
    cache: MemoCache | None = None,
) -> Fraction:
    """Coefficient for expanded index lists.

    Vanishes unless both lists sum to ``i``.  Single-index sides reduce to
    the factorial base cases ``(i-1)! / (i-k+1)!``; otherwise the value is
    the alternating sum over column matrices of ``s`` and ``t2`` values.
    """
    unbarred = tuple(sorted(unbarred))
    barred = tuple(sorted(barred))
    if sum(unbarred) != i or sum(barred) != i:
        return Fraction(0)
    if cache is None:
        cache = MemoCache()
    key = (unbarred, barred)
    hit = cache.n1.get(key)
    if hit is not None:
        return hit
    k = len(unbarred)
    kbar = len(barred)
    if k == 1:
        value = Fraction(factorial(i - 1), factorial(i - kbar + 1))
    elif kbar == 1:
        value = Fraction(factorial(i - 1), factorial(i - k + 1))
    else:
        value = Fraction(0)
        # Only block sums that some placement of the barred list reaches
        # give a non-zero ``s``.  A placement's column weights
        # ``comb(c_r, l_r - 1)``, summed against ``t2`` over every ``l``,
        # are the capacity contraction at ``c``; every contraction of width
        # ``m`` shares the denominator ``D_m^(k-1)``, so each width sums in
        # integers.
        for m in range(1, min(i, kbar) + 1):
            scaled = 0
            for s_comp, entries in _placements(barred, m, cache).items():
                for caps, weight in entries:
                    scaled += weight * _t2_scaled(unbarred, s_comp, caps, cache)
            if scaled:
                sign = 1 if m % 2 else -1
                value += Fraction(sign * scaled, cache.denominators(m)[m] ** (k - 1))
    cache.n1[key] = value
    return value


def n2_coefficient(key: NKey, cache: MemoCache | None = None) -> Fraction:
    """Coefficient for a canonical multiplicity key.

    Expands multiplicities into flat index lists and delegates to
    :func:`n1_coefficient`; zero when the two weights disagree.
    """
    if key.i != sum(idx * m for idx, m in key.barred):
        return Fraction(0)
    return n1_coefficient(
        key.i, key.expanded_unbarred(), key.expanded_barred(), cache
    )
