"""The paper's recursion, from the engine and from a ``Fraction`` reference.

:func:`recursion_potential` sums the engine's coefficients over every key
of a policy: the reference the Toda solver is checked against, the same
terms :func:`taumap.verify.combinatorial_formula_check` compares, as one
series.

The rest is the recursion as written, in ``Fraction`` arithmetic at every
step, with the window weight of the ``t2`` contraction as a parameter:
``"linear"``, the window's surplus, which the engine computes, or
``"multinomial"``, ``surplus! / prod((l_r - 1)!)``, the rejected weight.
The engine has no window-weight seam (its capacity contraction holds for
the linear weight only), so every multinomial negative control reads its
values from here; :func:`reference_potential` sums them over a policy.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from taumap.coefficients import MemoCache, admissible_keys, compositions
from taumap.series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy
from taumap.verify import _oriented, recursion_terms

WINDOW_WEIGHTS = ["linear", "multinomial"]


def recursion_potential(
    policy: TruncationPolicy, cache: MemoCache | None = None
) -> PotentialSeries:
    """The potential of ``policy`` from the recursion, on ``cache`` or a fresh one."""
    if cache is None:
        cache = MemoCache()
    terms = recursion_terms(admissible_keys(policy), cache)
    return PotentialSeries(TruncatedSeries(policy, terms))


def brute_count(i, s):
    """Enumeration oracle for the bounded composition count."""
    total = 0
    for tup in itertools.product(*(range(1, b) for b in s)):
        if sum(tup) == i:
            total += 1
    return total


def ref_s(barred, s, l):
    """Backtracking oracle for ``s``: place each barred position in a block."""
    barred = tuple(sorted(barred))
    m = len(s)
    kbar = len(barred)
    if m > kbar or sum(barred) != sum(s):
        return 0
    sums = [0] * m
    counts = [0] * m
    total = 0

    def place(pos):
        nonlocal total
        if pos == kbar:
            term = 1
            for r in range(m):
                n_r, l_r, s_r = counts[r], l[r], s[r]
                if n_r == 0 or sums[r] != s_r:
                    return
                slack = s_r - n_r - l_r + 1
                if slack < 0:
                    return
                term *= factorial(s_r - 1) // (factorial(slack) * factorial(l_r - 1))
            total += term
            return
        v = barred[pos]
        for r in range(m):
            if sums[r] + v <= s[r]:
                sums[r] += v
                counts[r] += 1
                place(pos + 1)
                sums[r] -= v
                counts[r] -= 1

    place(0)
    return total


@lru_cache(maxsize=None)
def ref_t1(i, s):
    """Grouped average with one ``Fraction`` per grouping."""
    m = len(s)
    total = Fraction(0)
    for k in range(1, m + 1):
        for sizes in compositions(m, k):
            blocks = []
            pos = 0
            for n in sizes:
                blocks.append(sum(s[pos : pos + n]))
                pos += n
            denom = k
            for n in sizes:
                denom *= factorial(n)
            total += Fraction(brute_count(i, blocks), denom)
    return total


def multinomial_window_weight(l_window, surplus):
    """The rejected window weight ``l! / prod((l_r - 1)!)``, ``l`` the surplus."""
    return factorial(surplus) // prod(factorial(x - 1) for x in l_window)


def ref_window_weight(l_window, surplus, rule):
    if rule == "linear":
        return surplus
    return multinomial_window_weight(l_window, surplus)


def ref_t2(i_list, s, l, rule, memo):
    """Window contraction in ``Fraction`` arithmetic at every step."""
    key = (i_list, s, l, rule)
    if key in memo:
        return memo[key]
    if len(i_list) == 2:
        value = ref_t1(i_list[0], s) if all(x == 1 for x in l) else Fraction(0)
    else:
        last = i_list[-1]
        m = len(s)
        value = Fraction(0)
        for a in range(m):
            for b in range(a, m):
                s_new = sum(s[a : b + 1]) - last
                l_acc = sum(x - 1 for x in l[a : b + 1])
                if s_new < 1 or l_acc < 1:
                    continue
                value += (
                    ref_window_weight(l[a : b + 1], l_acc, rule)
                    * ref_t1(s_new, s[a : b + 1])
                    * ref_t2(
                        i_list[:-1],
                        s[:a] + (s_new,) + s[b + 1 :],
                        l[:a] + (l_acc,) + l[b + 1 :],
                        rule,
                        memo,
                    )
                )
    memo[key] = value
    return value


def ref_n1(i, unbarred, barred, rule, memo):
    """Composition-pair loop: every ``(s, l)`` pair, ``s`` by backtracking."""
    unbarred = tuple(sorted(unbarred))
    barred = tuple(sorted(barred))
    if sum(unbarred) != i or sum(barred) != i:
        return Fraction(0)
    k = len(unbarred)
    kbar = len(barred)
    if k == 1:
        return Fraction(factorial(i - 1), factorial(i - kbar + 1))
    if kbar == 1:
        return Fraction(factorial(i - 1), factorial(i - k + 1))
    value = Fraction(0)
    for m in range(1, min(i, kbar) + 1):
        sign = 1 if m % 2 else -1
        for s in compositions(i, m):
            for l in compositions(m + k - 2, m):
                s_val = ref_s(barred, s, l)
                if s_val:
                    value += sign * s_val * ref_t2(unbarred, s, l, rule, memo)
    return value


def reference_potential(policy: TruncationPolicy, rule: str) -> PotentialSeries:
    """The potential of ``policy`` from :func:`ref_n1` under ``rule``.

    Every key is evaluated in the orientation of
    :func:`taumap.verify._oriented` and weighed by the prefactors of
    :func:`taumap.verify.recursion_terms`, so under ``"linear"`` this is
    :func:`recursion_potential`, term for term.
    """
    memo: dict = {}
    terms = {}
    for key, t0_power in admissible_keys(policy):
        side = _oriented(key)
        coeff = ref_n1(key.i, side.expanded_unbarred(), side.expanded_barred(), rule, memo)
        for idx, mult in key.unbarred + key.barred:
            coeff *= Fraction(idx**mult, factorial(mult))
        factors = tuple((i, False, m) for i, m in key.unbarred)
        factors += tuple((i, True, m) for i, m in key.barred)
        terms[Monomial(t0_power, factors)] = coeff
    return PotentialSeries(TruncatedSeries(policy, terms))
