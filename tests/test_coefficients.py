"""Coefficient engine against brute-force oracles and derived values."""

import itertools
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm, prod

import pytest

from taumap import coefficients
from taumap.coefficients import (
    MemoCache,
    NKey,
    SLMatrix,
    bounded_compositions_count,
    bounded_partitions,
    compositions,
    n1_coefficient,
    n2_coefficient,
    s_coefficient,
    t1_coefficient,
    t2_coefficient,
)


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


# The engine ships the linear window weight only.  The multinomial one is
# the rejected alternative; tests that run the engine under it inject it.
WINDOW_WEIGHTS = ["linear", "multinomial"]


def ref_window_weight(l_window, surplus, rule):
    if rule == "linear":
        return surplus
    return factorial(surplus) // prod(factorial(x - 1) for x in l_window)


def inject_window_weight(monkeypatch, rule):
    """Make the engine use ``rule``; its caches must be fresh from here on."""
    if rule != "linear":
        monkeypatch.setattr(
            coefficients, "_window_weight", partial(ref_window_weight, rule=rule)
        )


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


def expanded_lists(weight, max_len, max_idx):
    out = []

    def rec(rem, largest, cur):
        if rem == 0:
            out.append(tuple(sorted(cur)))
            return
        if len(cur) == max_len:
            return
        for v in range(min(largest, rem), 0, -1):
            rec(rem - v, v, cur + [v])

    rec(weight, max_idx, [])
    return out


# -- composition counts ----------------------------------------------------------


def test_composition_count_examples():
    assert bounded_compositions_count(2, (2, 2)) == 1
    assert bounded_compositions_count(1, (3,)) == 1
    assert bounded_compositions_count(3, (1, 5)) == 0  # a slot bounded by 0
    assert bounded_compositions_count(4, (3, 3)) == 1
    assert bounded_compositions_count(4, (4, 3)) == 2


def test_composition_count_against_enumeration():
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randint(1, 4)
        s = tuple(rng.randint(1, 6) for _ in range(m))
        i = rng.randint(1, 12)
        assert bounded_compositions_count(i, s) == brute_count(i, s)


def test_composition_count_symmetric_in_complement():
    # replacing each slot value by its complement swaps the two subscripts
    rng = random.Random(103)
    for _ in range(200):
        m = rng.randint(1, 4)
        s = tuple(rng.randint(2, 7) for _ in range(m))
        total = sum(s)
        i = rng.randint(1, total - 1)
        j = total - i
        if j < 1:
            continue
        assert bounded_compositions_count(i, s) == bounded_compositions_count(j, s)


def test_compositions_generator():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(2, 3)) == []
    assert len(list(compositions(6, 3))) == comb(5, 2)


def _recursive_compositions(total, parts):
    """The recursive enumeration ``compositions`` replaced: first part ascending."""
    if parts < 1 or total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_recursive_reference():
    # parts < 1 and total < parts included: both give nothing there
    for total in range(-1, 14):
        for parts in range(-1, 14):
            assert list(compositions(total, parts)) == list(
                _recursive_compositions(total, parts)
            ), (total, parts)


def test_bounded_partitions():
    parts = set(bounded_partitions(4, 3, 4))
    assert ((1, 4),) in parts
    assert ((2, 2),) in parts
    assert ((1, 2), (2, 1)) in parts
    assert ((4, 1),) not in parts  # index above max_part
    assert ((1, 4),) not in set(bounded_partitions(4, 3, 3))  # factor budget
    for side in parts:
        assert sum(i * m for i, m in side) == 4


def _recursive_bounded_partitions(total, max_part, max_count):
    """The recursive enumeration ``bounded_partitions`` replaced."""
    if total == 0:
        yield ()
        return
    if max_count == 0:
        return
    for idx in range(min(max_part, total), 0, -1):
        for mult in range(min(max_count, total // idx), 0, -1):
            rests = _recursive_bounded_partitions(total - idx * mult, idx - 1, max_count - mult)
            for rest in rests:
                yield rest + ((idx, mult),)


def test_bounded_partitions_match_recursive_reference():
    # the key walks and their reference-order tests read this order
    for total in range(0, 25):
        for max_part in range(0, 11):
            for max_count in range(0, 11):
                assert list(bounded_partitions(total, max_part, max_count)) == list(
                    _recursive_bounded_partitions(total, max_part, max_count)
                ), (total, max_part, max_count)


# -- t1 ---------------------------------------------------------------------------


def test_t1_base_values():
    assert t1_coefficient(1, (2,)) == 1
    assert t1_coefficient(1, (1, 1)) == Fraction(1, 2)
    assert t1_coefficient(2, (3,)) == 1
    assert t1_coefficient(1, (1, 2)) == Fraction(1, 2)


def test_t1_brute_grouping_oracle():
    # independent re-enumeration of the grouped sum for random inputs
    rng = random.Random(107)
    for _ in range(100):
        m = rng.randint(1, 4)
        s = tuple(rng.randint(1, 5) for _ in range(m))
        i = rng.randint(1, sum(s))
        j = sum(s) - i
        if j < 1:
            continue
        assert t1_coefficient(i, s) == ref_t1(i, s)


def test_t1_bound():
    rng = random.Random(109)
    for _ in range(300):
        m = rng.randint(1, 4)
        s = tuple(rng.randint(1, 6) for _ in range(m))
        i = rng.randint(1, sum(s) - 1) if sum(s) > 1 else 1
        j = sum(s) - i
        if j < 1:
            continue
        bound = Fraction(min(i, j) ** (m - 1), factorial(m))
        assert 0 <= t1_coefficient(i, s) <= bound


# -- t2 ---------------------------------------------------------------------------


def test_t2_base_cases():
    assert t2_coefficient((1, 1), SLMatrix((2,), (2,))) == 0
    assert t2_coefficient((1, 1), SLMatrix((2,), (1,))) == 1
    assert t2_coefficient((1, 1), SLMatrix((1, 1), (1, 1))) == Fraction(1, 2)


def test_t2_three_indices_hand_value():
    # window contraction worked through by hand for (1,1,1)
    assert t2_coefficient((1, 1, 1), SLMatrix((3,), (2,))) == 1
    assert t2_coefficient((1, 1, 1), SLMatrix((1, 2), (1, 2))) == 1
    assert t2_coefficient((1, 1, 1), SLMatrix((2, 1), (2, 1))) == 1


def test_t2_variants_agree_up_to_three_indices(monkeypatch):
    rng = random.Random(113)
    cases = []
    for _ in range(200):
        k = rng.randint(2, 3)
        i_list = tuple(rng.randint(1, 4) for _ in range(k))
        total = sum(i_list)
        m = rng.randint(1, min(total, 3))
        s = rng.choice(list(compositions(total, m)))
        lcomps = list(compositions(m + k - 2, m))
        if not lcomps:
            continue
        l = rng.choice(lcomps)
        cases.append((i_list, SLMatrix(s, l)))
    linear = [t2_coefficient(i_list, sl) for i_list, sl in cases]
    inject_window_weight(monkeypatch, "multinomial")
    assert [t2_coefficient(i_list, sl) for i_list, sl in cases] == linear


def test_t2_bound():
    rng = random.Random(127)
    for _ in range(300):
        k = rng.randint(2, 5)
        i_list = tuple(rng.randint(1, 5) for _ in range(k))
        total = sum(i_list)
        m = rng.randint(1, min(total, 4))
        s = rng.choice(list(compositions(total, m)))
        lcomps = list(compositions(m + k - 2, m))
        if not lcomps:
            continue
        l = rng.choice(lcomps)
        value = t2_coefficient(i_list, SLMatrix(s, l))
        i_cap = max(i_list)
        bound = Fraction(
            i_cap ** (m - 1) * (k - 1) ** m * factorial(k - 2), factorial(m)
        )
        assert 0 <= value <= bound


# -- s ----------------------------------------------------------------------------


def test_s_all_ones_identity():
    # all-ones barred side: nonzero only for unit l column, value kbar!/(prod s)
    for kbar in range(1, 6):
        for m in range(1, kbar + 1):
            for s in compositions(kbar, m):
                unit = SLMatrix(s, (1,) * m)
                expected = factorial(kbar)
                for x in s:
                    expected //= x
                assert s_coefficient((1,) * kbar, unit) == expected
                if m + 1 <= kbar:
                    bumped = SLMatrix(s, (2,) + (1,) * (m - 1))
                    assert s_coefficient((1,) * kbar, bumped) == 0


def test_s_examples():
    assert s_coefficient((2,), SLMatrix((2,), (1,))) == 1
    assert s_coefficient((1, 2), SLMatrix((1, 1), (1, 1))) == 0  # block sums unreachable
    assert s_coefficient((1, 2), SLMatrix((1, 2), (1, 1))) == 1
    assert s_coefficient((1, 2), SLMatrix((3,), (2,))) == 2


def test_s_brute_force_assignments():
    # independent enumeration over labeled assignments of positions
    rng = random.Random(131)
    for _ in range(200):
        kbar = rng.randint(1, 5)
        barred = tuple(sorted(rng.randint(1, 4) for _ in range(kbar)))
        m = rng.randint(1, kbar)
        scomps = [c for c in compositions(sum(barred), m)]
        if not scomps:
            continue
        s = rng.choice(scomps)
        lcomps = list(compositions(m + rng.randint(0, 3), m))
        l = rng.choice(lcomps)
        expected = 0
        for assign in itertools.product(range(m), repeat=kbar):
            sums = [0] * m
            counts = [0] * m
            for pos, block in enumerate(assign):
                sums[block] += barred[pos]
                counts[block] += 1
            if any(c == 0 for c in counts):
                continue
            if tuple(sums) != tuple(s):
                continue
            term = 1
            ok = True
            for r in range(m):
                slack = s[r] - counts[r] - l[r] + 1
                if slack < 0:
                    ok = False
                    break
                term *= factorial(s[r] - 1) // (factorial(slack) * factorial(l[r] - 1))
            if ok:
                expected += term
        assert s_coefficient(barred, SLMatrix(s, l)) == expected


def factorial_column_weight(s_r, n_r, l_r):
    """``(s_r-1)! / ((s_r-n_r-l_r+1)! (l_r-1)!)``, zero when the slack is negative."""
    slack = s_r - n_r - l_r + 1
    if slack < 0:
        return 0
    return factorial(s_r - 1) // (factorial(slack) * factorial(l_r - 1))


def test_placement_weight_equals_factorial_form():
    # one column: every block size n_r <= s_r and surplus l_r - 1, with the
    # slack running from negative to positive
    seen_negative = 0
    for s_r in range(1, 13):
        for n_r in range(1, s_r + 1):
            for l_r in range(1, s_r + 3):
                seen_negative += s_r - n_r - l_r + 1 < 0
                got = coefficients._placement_weight((((n_r,), 3),), (s_r,), (l_r,))
                assert got == 3 * factorial_column_weight(s_r, n_r, l_r), (s_r, n_r, l_r)
    assert seen_negative > 100
    # several columns and entries: a negative slack in any column drops the
    # entry, and the entries sum
    rng = random.Random(149)
    for _ in range(300):
        m = rng.randint(1, 4)
        s = tuple(rng.randint(1, 9) for _ in range(m))
        l = tuple(rng.randint(1, 5) for _ in range(m))
        entries = tuple(
            (tuple(rng.randint(1, s_r) for s_r in s), rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        )
        expected = sum(
            count * prod(map(factorial_column_weight, s, sizes, l))
            for sizes, count in entries
        )
        assert coefficients._placement_weight(entries, s, l) == expected, (entries, s, l)


def test_t1_scaled_by_common_denominator_is_integer():
    # every grouping denominator k * prod n_r! divides m! * lcm(1..m)
    rng = random.Random(139)
    for _ in range(300):
        m = rng.randint(1, 6)
        s = tuple(rng.randint(1, 6) for _ in range(m))
        i = rng.randint(1, max(1, sum(s) - 1))
        scaled = t1_coefficient(i, s) * factorial(m) * lcm(*range(1, m + 1))
        assert scaled.denominator == 1, (i, s)


# -- references: every key of weight <= 6 with <= 7 factors -----------------------


def reference_cases(max_weight=6, max_factors=7):
    """``(weight, unbarred, barred)`` for every key in range, both sides non-empty."""
    for w in range(1, max_weight + 1):
        sides = expanded_lists(w, max_factors - 1, w)
        for a in sides:
            for b in sides:
                if len(a) + len(b) <= max_factors:
                    yield w, a, b


@pytest.mark.parametrize("rule", WINDOW_WEIGHTS)
def test_n1_equals_composition_pair_reference(rule, monkeypatch):
    inject_window_weight(monkeypatch, rule)
    cache = MemoCache()
    memo: dict = {}
    checked = 0
    for w, a, b in reference_cases():
        assert n1_coefficient(w, a, b, cache) == ref_n1(w, a, b, rule, memo), (
            w, a, b,
        )
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("rule", WINDOW_WEIGHTS)
def test_s_and_t2_equal_references_on_every_column_matrix(rule, monkeypatch):
    # every (s, l) the composition-pair loop visits for keys in range
    inject_window_weight(monkeypatch, rule)
    cache = MemoCache()
    memo: dict = {}
    for w, a, b in reference_cases():
        k = len(a)
        if k < 2 or len(b) < 2:
            continue
        for m in range(1, min(w, len(b)) + 1):
            for s in compositions(w, m):
                for l in compositions(m + k - 2, m):
                    sl = SLMatrix(s, l)
                    assert s_coefficient(b, sl, cache) == ref_s(b, s, l), (b, s, l)
                    assert t2_coefficient(a, sl, cache) == ref_t2(
                        a, s, l, rule, memo
                    ), (a, s, l)


def test_public_wrappers_leave_kernel_tables_intact():
    # n1 fills the t1/t2 tables with scaled integers and the s table with
    # placement groups; the public functions read the same tables, and
    # calling them first on a shared cache must not change any n1 value
    cases = list(reference_cases(max_weight=5, max_factors=6))
    expected = [n1_coefficient(w, a, b, cache=MemoCache()) for w, a, b in cases]
    shared = MemoCache()
    for w, a, b in cases:
        if len(a) < 2:
            continue
        for m in range(1, min(w, len(b)) + 1):
            for s in compositions(w, m):
                t1_coefficient(a[0], s, shared)
                for l in compositions(m + len(a) - 2, m):
                    s_coefficient(b, SLMatrix(s, l), shared)
                    t2_coefficient(a, SLMatrix(s, l), cache=shared)
    assert [n1_coefficient(w, a, b, cache=shared) for w, a, b in cases] == expected


# -- n1 / n2 ----------------------------------------------------------------------


def test_n1_factorial_base_cases():
    assert n1_coefficient(2, (2,), (1, 1)) == 1
    assert n1_coefficient(2, (2,), (2,)) == Fraction(1, 2)
    assert n1_coefficient(4, (4,), (2, 2)) == 1
    assert n1_coefficient(6, (6,), (2, 2, 2)) == Fraction(120, 24)


def test_n1_weight_mismatch_is_zero():
    assert n1_coefficient(3, (3,), (1, 1)) == 0
    assert n1_coefficient(2, (1, 1), (1, 1, 1)) == 0


def test_n1_vanishing_for_long_unbarred_all_ones_barred():
    for unbarred in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 2), (1, 1, 1, 1)]:
        i = sum(unbarred)
        assert n1_coefficient(i, unbarred, (1,) * i) == 0


def test_n1_recursive_values_from_closed_form():
    # derived from the two-moment closed-form potential
    assert n1_coefficient(2, (1, 1), (1, 1)) == 0
    assert n1_coefficient(3, (1, 2), (1, 2)) == 1
    assert n1_coefficient(4, (2, 2), (2, 2)) == 1
    assert n1_coefficient(6, (1, 1, 2, 2), (2, 2, 2)) == 12
    assert n1_coefficient(6, (2, 4), (2, 2, 2)) == 6


def test_n2_examples():
    key = NKey(((2, 1),), ((1, 2),))
    assert n2_coefficient(key) == 1
    mismatch = NKey(((2, 1),), ((1, 1),))
    assert n2_coefficient(mismatch) == 0
    half = NKey(((2, 1),), ((2, 1),))
    assert n2_coefficient(half) == Fraction(1, 2)


def test_nkey_canonicalization():
    key = NKey(((1, 2), (2, 1)), ((1, 2), (2, 1)))
    assert key.expanded_unbarred() == (1, 1, 2)
    assert key.expanded_barred() == (1, 1, 2)
    with pytest.raises(ValueError):
        NKey(((2, 1), (1, 1)), ((1, 1),))  # indices not increasing
    # the weight is the unbarred side's, derived and never declared
    assert key.i == 4 and key.swapped().i == 4
    assert NKey(((1, 2), (2, 1)), ((1, 1),)).i == 4
    with pytest.raises(TypeError):
        NKey(((1, 2), (2, 1)), ((1, 1),), 3)


def test_bar_exchange_symmetry_scan():
    cache = MemoCache()
    for w in range(1, 8):
        lists = expanded_lists(w, 5, 6)
        for a, b in itertools.combinations(lists, 2):
            if len(a) + len(b) > 7:
                continue
            assert n1_coefficient(w, a, b, cache=cache) == n1_coefficient(
                w, b, a, cache=cache
            ), (w, a, b)


def test_weight_rule_arbitration_key(monkeypatch):
    # the first divergent sector: length-4 lists; the shipped linear window
    # weight matches the closed form and the swapped evaluation, the
    # injected multinomial variant does not
    val_linear = n1_coefficient(6, (1, 1, 2, 2), (2, 2, 2))
    swapped = n1_coefficient(6, (2, 2, 2), (1, 1, 2, 2))
    inject_window_weight(monkeypatch, "multinomial")
    val_multi = n1_coefficient(6, (1, 1, 2, 2), (2, 2, 2))
    assert val_linear == swapped == 12
    assert val_multi != val_linear


def test_determinism_across_threads_and_caches():
    keys = []
    rng = random.Random(137)
    for _ in range(40):
        w = rng.randint(2, 6)
        lists = expanded_lists(w, 4, 4)
        keys.append((w, rng.choice(lists), rng.choice(lists)))

    def run_once(_):
        cache = MemoCache()
        return [n1_coefficient(w, a, b, cache=cache) for w, a, b in keys]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run_once, range(4)))
    shared = MemoCache()

    def run_shared(_):
        return [n1_coefficient(w, a, b, cache=shared) for w, a, b in keys]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results += list(pool.map(run_shared, range(4)))
    assert all(r == results[0] for r in results)
