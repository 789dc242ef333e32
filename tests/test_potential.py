"""Potential assembly: coefficients, invariants, oracles."""

import dataclasses
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from taumap.coefficients import (
    MemoCache,
    NKey,
    admissible_keys,
    bounded_partitions,
    n2_coefficient,
)
from taumap.confmap import _closure, map_from_potential
from taumap.moments import BoundaryCurve, moments_from_curve
from taumap import cli, potential as potential_module
from taumap.potential import BuildReport, build_potential, default_policy
from taumap.series import (
    Monomial,
    PotentialSeries,
    TruncatedSeries,
    _Codec,
    _Tail,
    series_to_json_terms,
)
from taumap.verify import (
    cauchy_data_check,
    ellipse_oracle_check,
    ellipse_regular_series,
    recursion_terms,
)

from helpers_recursion import recursion_potential


def coeff(potential, t0_power, plain, barred):
    factors = tuple((k, False, e) for k, e in plain) + tuple(
        (k, True, e) for k, e in barred
    )
    return potential.regular.coefficient(Monomial(t0_power, factors))


@pytest.fixture(scope="module")
def potential_44():
    return build_potential(default_policy(4, 4))


def test_low_order_coefficients(potential_44):
    potential, _ = potential_44
    assert coeff(potential, 1, [(1, 1)], [(1, 1)]) == 1  # t0 t1 tbar1
    assert coeff(potential, 2, [(2, 1)], [(2, 1)]) == 2  # t0^2 t2 tbar2
    assert coeff(potential, 1, [(1, 2)], [(2, 1)]) == 1  # t0 t1^2 tbar2
    assert coeff(potential, 3, [(3, 1)], [(3, 1)]) == 3  # t0^3 t3 tbar3


def test_singular_part_fixed(potential_44):
    potential, _ = potential_44
    assert potential.singular_log_coeff == Fraction(1, 2)
    assert potential.singular_quad_coeff == Fraction(-3, 4)
    assert cauchy_data_check(potential).ok
    # the singular part is universal: a potential cannot be given another
    with pytest.raises(TypeError):
        PotentialSeries(Fraction(1, 2), Fraction(-3, 4), potential.regular)


def test_no_linear_or_constant_terms(potential_44):
    potential, _ = potential_44
    for mono, _ in potential.regular.items():
        assert mono.degree >= 2


def test_weight_and_t0_exponent_invariants(potential_44):
    potential, _ = potential_44
    for mono, _ in potential.regular.items():
        w_plain = sum(k * e for k, b, e in mono.factors if not b)
        w_bar = sum(k * e for k, b, e in mono.factors if b)
        assert w_plain == w_bar
        assert mono.t0_power == w_plain - mono.degree + 2
        assert mono.t0_power >= 0


def test_build_report_counts(potential_44):
    potential, report = potential_44
    assert report.nonzero_terms == len(potential.regular)
    assert report.keys_evaluated >= report.nonzero_terms
    assert report.elapsed >= 0


def test_build_report_table_sizes():
    # the report carries no table sizes: the build reads no table, and the
    # recursion it is checked against fills every family's.  t2 holds only
    # contractions of three or more indices (those of two are t1 values),
    # which degree 5 is the first to reach
    assert "table_sizes" not in {f.name for f in dataclasses.fields(BuildReport)}
    cache = MemoCache()
    potential, _ = build_potential(default_policy(3, 5), cache=cache)
    assert not any(cache.sizes().values())
    assert recursion_potential(default_policy(3, 5), cache).regular == potential.regular
    assert set(cache.sizes()) == {"p", "t1", "t2", "s", "n1"}
    assert all(size > 0 for size in cache.sizes().values())


# sha256 of the exact (6,6) potential, regular terms plus singular
# coefficients; any change to a coefficient changes it
POTENTIAL_66_SHA256 = "efe5a00479efc3a4756071448a27f73477c44c11518e3619b85c33280f5b05e2"


def potential_sha256(potential):
    """sha256 of the regular terms plus the singular coefficients."""
    payload = {
        "regular": series_to_json_terms(potential.regular),
        "singular": [
            [c.numerator, c.denominator]
            for c in (potential.singular_log_coeff, potential.singular_quad_coeff)
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_potential_66_is_bit_identical_to_pin():
    potential, _ = build_potential(default_policy(6, 6))
    assert potential_sha256(potential) == POTENTIAL_66_SHA256


# the same digest where deg_max binds: at (6, 8) sides of up to 7 factors
# meet and the t2 recursion runs 7 indices deep
POTENTIAL_68_SHA256 = "fc45e9abc2335df3887d7e24ddb3fd78e301fb88e48ba6b47f73ac1d75fa8163"


def test_potential_68_is_bit_identical_to_pin():
    potential, _ = build_potential(default_policy(6, 8))
    assert potential_sha256(potential) == POTENTIAL_68_SHA256


def sector_sha256(terms, k_max, deg_max):
    """sha256 of one-point sector terms, serialized as a series in every index
    up to ``k_max``, which admits every one of them."""
    json_terms = series_to_json_terms(TruncatedSeries(default_policy(k_max, deg_max), terms))
    assert len(json_terms) == len(terms)
    blob = json.dumps(json_terms, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# sha256 of the terms of the (5, 6) one-point sector with k <= 12, taken from
# the solver while it built the sector for the map
SECTOR_56_12_SHA256 = "a639be9d05b2f60eace5c4ac104ef5178a422bc5fcfc89bb38839ad97c86050e"


def test_one_point_sector_56_is_bit_identical_to_pin():
    # the as-written sector, the oracle of the closure's B_k beyond n_max,
    # is the exact sector the solver once built
    terms = _as_written(_sector_keys(default_policy(5, 6), 12))
    assert sector_sha256(terms, 12, 6) == SECTOR_56_12_SHA256
    assert len(terms) == 577
    assert {k for mono in terms for k, _, _ in mono.factors if k > 5} == set(range(6, 13))


# where deg_max binds and the as-written recursion is too slow to compare:
# the (6, 10) and (6, 9) regular parts, taken from the solver before it
# skipped dead terms
POTENTIAL_6_10_SHA256 = "c0b19395e8f3dbca052468edea27929c021bcb280da18b296afb61b40fe31dc1"
POTENTIAL_69_SHA256 = "3e50aaa85e7d2a50e16f2da2af2adc7563bea134a5dd1f53212beb05e3988d91"


def test_potential_6_10_is_bit_identical_to_pin():
    potential, _ = build_potential(default_policy(6, 10))
    assert potential_sha256(potential) == POTENTIAL_6_10_SHA256
    assert len(potential.regular) == 16511


def test_potential_69_is_bit_identical_to_pin():
    potential, _ = build_potential(default_policy(6, 9))
    assert potential_sha256(potential) == POTENTIAL_69_SHA256
    assert len(potential.regular) == 8070


BENCHMARK_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


@pytest.mark.parametrize("n_max, deg_max", [(6, 7), (8, 6)])
def test_build_without_map_order_matches_benchmark_digest(n_max, deg_max):
    # the benchmark builds with build_potential(policy, cache=) and checks
    # these digests
    digests = json.loads(BENCHMARK_DIGESTS.read_text())
    potential, _ = build_potential(default_policy(n_max, deg_max), cache=MemoCache())
    assert potential_sha256(potential) == digests[f"{n_max},{deg_max}"]


def _prefactor(side):
    pref = Fraction(1)
    for idx, mult in side:
        pref *= Fraction(idx**mult, math.factorial(mult))
    return pref


def _as_written(keys):
    """``{monomial: coefficient}`` with each key evaluated as written, on a fresh cache."""
    cache = MemoCache()
    terms = {}
    for key, t0_power in keys:
        coeff = n2_coefficient(key, cache) * _prefactor(key.unbarred) * _prefactor(key.barred)
        if coeff:
            factors = tuple((k, False, m) for k, m in key.unbarred) + tuple(
                (k, True, m) for k, m in key.barred
            )
            terms[Monomial(t0_power, factors)] = coeff
    return terms


def _policy_keys(policy):
    max_side = policy.deg_max - 1
    for weight in range(1, policy.n_max * max_side + 1):
        sides = list(bounded_partitions(weight, policy.n_max, max_side))
        for unbarred, barred in itertools.product(sides, sides):
            degree = sum(m for _, m in unbarred) + sum(m for _, m in barred)
            t0_power = weight - degree + 2
            if degree <= policy.deg_max and t0_power >= 0:
                yield NKey(unbarred, barred), t0_power


@pytest.mark.parametrize(
    "policy",
    [
        default_policy(4, 5),
        default_policy(5, 6),
        default_policy(6, 6),
        # deg_max binds: a side of 6 factors meets a single factor
        default_policy(3, 7),
        default_policy(4, 8),
        default_policy(3, 10),
        pytest.param(default_policy(6, 8), marks=pytest.mark.slow),
        pytest.param(default_policy(5, 9), marks=pytest.mark.slow),
    ],
    # the third field is the t0 exponent bound n_max * deg_max + 2 these
    # policies once carried; it keeps the test ids stable
    ids=lambda p: f"{p.n_max}-{p.deg_max}-{p.n_max * p.deg_max + 2}",
)
def test_build_equals_as_written_reference(policy):
    # the build solves the mixed Toda equation; the paper's recursion, every
    # key evaluated as written, gives the same exact terms
    potential, report = build_potential(policy)
    expected = _as_written(_policy_keys(policy))
    got = dict(potential.regular.items())
    assert got == expected
    assert all(isinstance(c, Fraction) for c in got.values())
    assert report.keys_evaluated == sum(1 for _ in _policy_keys(policy))


def test_build_and_sector_evaluate_one_orientation():
    # every coefficient the oriented recursion evaluates has at least as many
    # unbarred factors as barred ones, and each mirror pair costs one n1 entry
    cache = MemoCache()
    policy = default_policy(5, 6)
    _, report = build_potential(policy)
    recursion_potential(policy, cache)
    assert all(len(u) >= len(b) for u, b in cache.n1)
    pairs = {frozenset(((key.unbarred, key.barred), (key.barred, key.unbarred)))
             for key, _ in _policy_keys(policy)}
    assert len(cache.n1) == len(pairs) < report.keys_evaluated
    recursion_terms(_sector_keys(policy, 12), cache)
    assert all(len(u) >= len(b) for u, b in cache.n1)


def _sector_keys(policy, k_max):
    """The one-point sector's keys: ``t_k`` once beyond ``n_max`` on the unbarred side."""
    n_max, max_side = policy.n_max, policy.deg_max - 1
    for k in range(n_max + 1, k_max + 1):
        for weight in range(k, n_max * max_side + 1):
            for rest in bounded_partitions(weight - k, n_max, max_side - 1):
                for barred in bounded_partitions(weight, n_max, max_side):
                    key = NKey(rest + ((k, 1),), barred)
                    degree = sum(m for _, m in key.unbarred) + sum(m for _, m in barred)
                    t0_power = weight - degree + 2
                    if degree <= policy.deg_max and t0_power >= 0:
                        yield key, t0_power


def test_closure_b_k_approach_the_as_written_sector():
    # at moments cut at n_max the B_k = d0 d_k F with k > n_max come from
    # the one-point sector sum_k t_k S_k, which the paper's recursion gives
    # key by key; the map takes them from its closure instead.  The two
    # agree up to the truncation error, which falls with deg_max.  The
    # curve's moments t1..t3 are complex, so a conjugation slip would show.
    curve = BoundaryCurve(1.0, (0.0, 0.04 + 0.01j, 0.012j))
    n_max, k_max = 4, 9
    m = moments_from_curve(curve, n_max)
    gaps = []
    for deg in (4, 6, 8):
        policy = default_policy(n_max, deg)
        potential, _ = build_potential(policy)
        w = map_from_potential(potential, m, k_max - 1)
        rows = potential._map_kernel(m).tolist()
        _, beyond = _closure(w.p, rows[1:], k_max)
        sector = TruncatedSeries(
            default_policy(k_max, deg), _as_written(_sector_keys(policy, k_max))
        ).diff_t0()
        written = [sector.diff_t(k).evaluate(m.padded(k_max)) for k in range(n_max + 1, k_max + 1)]
        gaps.append(max(abs(x - y) for x, y in zip(beyond, written, strict=True)))
    # measured 4.2e-4, 7.1e-6 and 8.0e-8
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] <= 2e-7, gaps


def test_dead_mask_keeps_its_unbarred_half_only_without_a_sector():
    # with no one-point sector the dead mask is the one table of what no
    # read term comes from: the products skip from each cell the terms with
    # a t_c, c < a, or a tbar_c, c < b, so its unbarred half is live
    policy = default_policy(4, 6)
    codec = _Codec(policy)
    unbarred = (1 << codec.shift(1, barred=True)) - 1

    def fields(a, b):
        """The fields t_1..t_{a-1} and tbar_1..tbar_{b-1}."""
        return sum(codec.mask << codec.shift(k) for k in range(1, a)) + sum(
            codec.mask << codec.shift(k, barred=True) for k in range(1, b)
        )

    solver = potential_module._TodaSolver(policy)
    assert solver.orders == (4, 4)
    for a, b in itertools.product(range(5), range(5)):
        assert solver._masks[a][b] == fields(a, b)
        # a cell a > b reads None: the products leave it out, and the solver
        # fills it from (b, a)
        assert solver._dead(a, b) == (fields(a, b) if a <= b else None)
    assert solver._dead(3, 4) & unbarred and solver._masks[3][1] & unbarred


@pytest.mark.parametrize("n_max, deg_max", [(3, 5), (4, 6), (5, 6), (6, 4), (8, 3)])
def test_every_term_the_read_receives_is_live_in_its_cell(monkeypatch, n_max, deg_max):
    # the read tests no mask: the geometric sum builds each cell (a, b) of
    # M_d without the terms that have a t_c, c < a, or a tbar_c, c < b.  At
    # (6, 4) and (8, 3) deg_max, not n_max, cuts the slices
    read = potential_module._TodaSolver._read
    received = []

    def recording(solver, m, d):
        for (a, b, _), cell in m.cells.items():
            received.extend((a, b, code & solver._masks[a][b]) for code in cell)
        return read(solver, m, d)

    monkeypatch.setattr(potential_module._TodaSolver, "_read", recording)
    potential, _ = build_potential(default_policy(n_max, deg_max))
    assert [(a, b) for a, b, dead in received if dead] == []
    # cells with a nonzero mask were read, and each term gave one term of F
    assert any(a > 1 or b > 1 for a, b, _ in received)
    assert len(received) == len(potential.regular)


def full_sources(solver, d, lo, hi):
    """``X_d`` with its dead terms: ``d0^2 F_d``, and ``u^a d0 d_a F / a``
    and ``v^b d0 dbar_b F / b`` from ``F_{d+1}`` at every index ``a, b``."""
    d0 = hi.diff_t0()
    terms = [(1, 0, 0, lo.diff_t0().diff_t0())]
    for a in range(1, solver.policy.n_max + 1):
        terms.append((Fraction(1, a), a, 0, d0.diff_t(a)))
        terms.append((Fraction(1, a), 0, a, d0.diff_t(a, barred=True)))
    return _Tail.combination(solver.bound, terms)


def tail_contents(tail):
    """The cells of ``tail`` as dicts, and its denominator."""
    return {key: dict(cell) for key, cell in tail.cells.items()}, tail.den


def recorded_solve(solver, mirrored):
    """``F`` and every slice ``solver`` hands on (``E_d``, ``M_d``), as
    :func:`tail_contents`, with ``mirrored`` as its mirror step."""
    slices = []

    def step(half):
        out = mirrored(half)
        slices.append(tail_contents(out))
        return out

    solver._mirrored = step
    return tail_contents(solver.solve()._tail), slices


def tail_values(tail, keep=lambda a, b, code: True):
    """``{cell: {code: Fraction}}`` of the terms of ``tail`` that ``keep`` admits."""
    out = {}
    for (a, b, d), cell in tail.cells.items():
        kept = {code: Fraction(n, tail.den) for code, n in cell.items() if keep(a, b, code)}
        if kept:
            out[a, b, d] = kept
    return out


@pytest.mark.parametrize("n_max, deg_max", [(3, 5), (4, 6), (5, 6), (6, 7), (8, 6), (6, 4)])
def test_every_source_term_the_products_receive_is_live_in_its_cell(
    monkeypatch, n_max, deg_max
):
    # X_d lowers each term of F_{d+1} at its least indices only: it is the
    # full derivative sources less the terms dead in their cell, which every
    # product of E_d skips
    sources = potential_module._TodaSolver._sources
    handed, dropped = [], 0

    def recording(solver, d, lo, hi):
        nonlocal dropped
        x, full = sources(solver, d, lo, hi), full_sources(solver, d, lo, hi)
        handed.append((solver, x))
        live = lambda a, b, code: not code & solver._masks[a][b]
        assert tail_values(x) == tail_values(full, live)
        dropped += sum(map(len, full.cells.values())) - sum(map(len, x.cells.values()))
        return x

    monkeypatch.setattr(potential_module._TodaSolver, "_sources", recording)
    build_potential(default_policy(n_max, deg_max))
    assert len(handed) == deg_max - 2
    for solver, x in handed:
        for (a, b, _), cell in x.cells.items():
            assert all(not code & solver._masks[a][b] for code in cell)
    # cells past (1, 0) and (0, 1) hold terms, and the full sources had dead ones
    assert any(a > 1 or b > 1 for _, x in handed for a, b, _ in x.cells)
    assert dropped > 0


@pytest.mark.parametrize(
    "n_max, deg_max", [(3, 5), (5, 6), (6, 7), (8, 6), (6, 4), (4, 8), (3, 10)]
)
def test_live_sources_leave_every_slice_as_the_full_sources_make_it(n_max, deg_max):
    # with the full derivative sources, dead terms and all, every E_d, M_d
    # and F hold the same cells, codes, numerators and denominator
    policy = default_policy(n_max, deg_max)
    full, live = potential_module._TodaSolver(policy), potential_module._TodaSolver(policy)
    full._sources = lambda d, lo, hi: full_sources(full, d, lo, hi)
    runs = [recorded_solve(full, full._mirrored), recorded_solve(live, live._mirrored)]
    assert runs[0] == runs[1]
    assert len(runs[1][1]) == 2 * (deg_max - 2)


@pytest.mark.parametrize("n_max, deg_max", [(3, 5), (5, 6), (6, 4), (4, 7)])
def test_solver_forms_no_product_for_a_gt_b_and_hands_on_symmetric_slices(
    monkeypatch, n_max, deg_max
):
    # every products call of the solver reads None at each cell a > b, so it
    # forms no product there, and the solver fills that cell from its twin
    # (_mirrored); every slice the solver hands on -- each operand of its
    # products and each M_d it reads -- is its own mirror, cell (b, a)
    # against cell (a, b)
    products, read = _Tail.products, potential_module._TodaSolver._read
    seams, handed = [], []

    def recording_products(self, terms, dead=None):
        if dead is not None:
            seams.append(dead)
            handed.extend(tail for _, left, right in terms for tail in (left, right))
        return products(self, terms, dead)

    def recording_read(solver, m, d):
        handed.append(m)
        return read(solver, m, d)

    monkeypatch.setattr(_Tail, "products", recording_products)
    monkeypatch.setattr(potential_module._TodaSolver, "_read", recording_read)
    policy = default_policy(n_max, deg_max)
    build_potential(policy)
    assert seams
    for dead in seams:
        for a, b in itertools.product(range(n_max + 1), repeat=2):
            assert (dead(a, b) is None) == (a > b)
    mirror = _Codec(policy).mirror
    for tail in handed:
        for (a, b, d), cell in tail.cells.items():
            assert {mirror(code): n for code, n in cell.items()} == tail.cells.get((b, a, d))
    assert any(a > b for tail in handed for a, b, _ in tail.cells)


@pytest.mark.parametrize("n_max, deg_max", [(3, 5), (5, 6), (6, 7), (8, 6), (6, 4), (4, 8)])
def test_mirrored_cells_leave_every_slice_as_the_full_products_make_it(n_max, deg_max):
    # every slice the solver hands on, E_d and M_d, and F hold the cells,
    # codes, numerators and denominator that a solver forming every cell
    # under its dead mask and mirroring nothing gives, in another order (the
    # map sums in code order)
    policy = default_policy(n_max, deg_max)
    full = potential_module._TodaSolver(policy)
    full._dead = lambda a, b: full._masks[a][b]
    half = potential_module._TodaSolver(policy)
    runs = [recorded_solve(full, lambda tail: tail), recorded_solve(half, half._mirrored)]
    assert runs[0] == runs[1]
    # E_d and M_d for d = 1..deg_max - 2
    assert len(runs[1][1]) == 2 * (deg_max - 2)


@pytest.mark.parametrize(
    "n_max, deg_max",
    [(0, 4), (1, 1), (1, 2), (2, 2), (2, 4), (3, 7), (4, 1), (5, 6), (6, 7), (8, 6)],
)
def test_keys_evaluated_counts_the_walk(n_max, deg_max):
    # the report counts the recursion's keys by walking them; a policy with
    # none is the exit-2 case of the potential checks
    policy = default_policy(n_max, deg_max)
    _, report = build_potential(policy)
    assert report.keys_evaluated == sum(1 for _ in _policy_keys(policy))


@pytest.mark.parametrize(
    "policy", [default_policy(3, 7), default_policy(5, 6), default_policy(6, 7)],
    ids=lambda p: f"{p.n_max}-{p.deg_max}",
)
def test_admissible_keys_in_reference_order(policy):
    assert list(admissible_keys(policy)) == list(_policy_keys(policy))


def test_truncation_monotonicity():
    small_policy = default_policy(3, 4)
    big, _ = build_potential(default_policy(4, 6))
    small, _ = build_potential(small_policy)
    restricted = TruncatedSeries(small_policy, dict(big.regular.items()))
    # matching t0 bounds: restrict to the smaller of the two caps as well
    assert restricted.filter(lambda m: True) == small.regular.filter(lambda m: True)


def test_cauchy_data_exact():
    potential, _ = build_potential(default_policy(4, 5))
    report = cauchy_data_check(potential)
    assert report.ok, report.violations[:5]
    assert report.checked > 10


def test_cauchy_data_names_one_sided_monomials(potential_44):
    # the regular part has no term without a plain or without a barred
    # factor; the pure-t0 layer of the check judges every term for it
    potential, _ = potential_44
    terms = dict(potential.regular.items())
    plain_only = Monomial(2, ((1, False, 2),))
    barred_only = Monomial(3, ((2, True, 1),))
    terms.update({plain_only: Fraction(1), barred_only: Fraction(-1)})
    bad = PotentialSeries(TruncatedSeries(potential.regular.policy, terms))
    report = cauchy_data_check(bad)
    assert sorted(report.violations) == sorted(
        [f"one-sided monomial {plain_only}", f"one-sided monomial {barred_only}"]
    )
    assert report.checked == cauchy_data_check(potential).checked


@pytest.mark.parametrize("n_max, deg_max, distinct", [(5, 6, 31), (3, 4, 9)])
def test_cauchy_data_judges_each_monomial_once(n_max, deg_max, distinct, monkeypatch):
    # the pair t0^i t_i tbar_i is the B = {i} case and its own mirror:
    # one comparison, counted once
    potential, _ = build_potential(default_policy(n_max, deg_max))
    asked = []
    read = TruncatedSeries.coefficient
    monkeypatch.setattr(
        TruncatedSeries, "coefficient", lambda self, m: asked.append(m) or read(self, m)
    )
    report = cauchy_data_check(potential)
    assert report.ok
    assert report.checked == len(asked) == len(set(asked)) == distinct


def test_cauchy_data_names_a_corrupted_pair_once(potential_44):
    potential, _ = potential_44
    pair = Monomial(1, ((1, False, 1), (1, True, 1)))
    terms = dict(potential.regular.items())
    assert terms[pair] == 1
    terms[pair] = Fraction(2)
    report = cauchy_data_check(PotentialSeries(TruncatedSeries(potential.regular.policy, terms)))
    assert report.violations == [f"{pair}: built 2, closed form 1"]


def test_cauchy_examples_explicit(potential_44):
    potential, _ = potential_44
    # one plain index 2 against barred (1,1): 1*1*2!/1! on t0^1
    assert coeff(potential, 1, [(2, 1)], [(1, 2)]) * 2 == 2
    # weight mismatch vanishes: no t0^a t3 tbar1^2 monomial at all
    assert coeff(potential, 2, [(3, 1)], [(1, 2)]) == 0


def test_ellipse_oracle_small_policy():
    potential, _ = build_potential(default_policy(2, 4))
    report = ellipse_oracle_check(potential)
    assert report.ok, report.violations[:5]


def test_ellipse_oracle_covers_divergent_sector():
    # degree 7 includes the first keys where the window-weight variants differ
    potential, _ = build_potential(default_policy(2, 8))
    report = ellipse_oracle_check(potential)
    assert report.ok, report.violations[:5]
    assert report.checked >= 14


def test_ellipse_series_spot_values():
    policy = default_policy(2, 6)
    e = ellipse_regular_series(policy)
    assert e.coefficient(Monomial(2, ((2, False, 1), (2, True, 1)))) == 2
    assert e.coefficient(Monomial(1, ((1, False, 1), (1, True, 1)))) == 1
    assert e.coefficient(Monomial(2, ((2, False, 2), (2, True, 2)))) == 4


def test_ellipse_oracle_requires_two_indices():
    potential, _ = build_potential(default_policy(1, 4))
    with pytest.raises(ValueError):
        ellipse_oracle_check(potential)


def _one_point_shape(mono, n_max):
    """One unbarred factor beyond ``n_max``, linear; every other index within."""
    beyond = [(k, b, e) for k, b, e in mono.factors if k > n_max]
    return len(beyond) == 1 and not beyond[0][1] and beyond[0][2] == 1


def assert_sector_equals_as_written_reference(n_max, deg_max, k_max):
    # the one-point sector under (n_max, deg_max) with k <= k_max, summed key
    # by key from the paper's recursion, against the terms of that shape in
    # the full (k_max, deg_max) build: the solver and the recursion agree on
    # the terms beyond n_max whose B_k the map now takes from its closure
    full, _ = build_potential(default_policy(k_max, deg_max))
    expected = _as_written(_sector_keys(default_policy(n_max, deg_max), k_max))
    got = {mono: c for mono, c in full.regular.items() if _one_point_shape(mono, n_max)}
    assert expected
    assert got == expected


def test_one_point_sector_equals_full_build_terms():
    for deg in (3, 4, 5):
        assert_sector_equals_as_written_reference(4, deg, 9)


def test_one_point_sector_equals_as_written_reference():
    assert_sector_equals_as_written_reference(4, 6, 9)


@pytest.mark.parametrize(
    "n_max, deg_max, k_max", [(4, 8, 9), pytest.param(4, 10, 9, marks=pytest.mark.slow)]
)
def test_one_point_sector_equals_as_written_reference_where_deg_max_binds(
    n_max, deg_max, k_max
):
    assert_sector_equals_as_written_reference(n_max, deg_max, k_max)


def module_level_caches():
    """``module.attr`` of every ``taumap`` module attribute that could carry
    state from one call to the next: a ``MemoCache``, a ``_Codec`` or a
    memoized function (one with ``cache_info``)."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "taumap" or name.startswith("taumap."):
            for attr, value in vars(module).items():
                if isinstance(value, (MemoCache, _Codec)) or hasattr(value, "cache_info"):
                    found.append(f"{name}.{attr}")
    return found


def test_no_process_global_cache_after_builds_and_verify(capsys, tmp_path):
    policy = default_policy(4, 5)
    first = MemoCache()
    recursion_potential(policy, first)
    build_potential(policy)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"r": 1.0, "a": [[0.0, 0.0], [0.05, 0.0]]}))
    args = ["verify", "--nmax", "3", "--degmax", "4", "--order", "2", "--in", str(curve)]
    assert cli.main(args) == 0
    capsys.readouterr()
    scanned = {name for name in sys.modules if name.startswith("taumap.")}
    assert {f"taumap.{m}" for m in ("cli", "coefficients", "potential", "series", "verify")} <= scanned
    assert module_level_caches() == []
    # a fresh recursion fills its own tables as the first one did
    again = MemoCache()
    recursion_potential(policy, again)
    assert again.sizes() == first.sizes()
