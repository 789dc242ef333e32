"""Exterior map reconstruction from the potential."""

import cmath
import math
import warnings

import pytest

from taumap.coefficients import MemoCache
from taumap.confmap import (
    ExteriorMapSeries,
    MomentVector,
    evaluate_map,
    map_from_potential,
)
from taumap.potential import build_potential, default_policy, one_point_sector
from taumap.series import TruncationPolicy


@pytest.fixture(scope="module")
def potential_46():
    potential, _ = build_potential(default_policy(4, 6))
    return potential


@pytest.fixture(scope="module")
def sector_46():
    """One-point terms of the ``(4, 6)`` potential for ``k <= 9``: maps of order 8."""
    return one_point_sector(default_policy(4, 6), 9)


def test_disk_map_exact(potential_46):
    for t0 in (0.25, 1.0, 2.0):
        m = MomentVector(t0=t0, t=(0, 0, 0, 0))
        w = map_from_potential(potential_46, m, order=6)
        assert abs(w.p - t0**-0.5) <= 1e-12
        assert all(abs(c) == 0 for c in w.tail)
        z = 2.0 * math.sqrt(t0) * cmath.exp(0.3j)
        assert abs(abs(evaluate_map(w, z)) - 2.0) <= 1e-12


def test_evaluate_map_trivial_cases():
    w = ExteriorMapSeries(p=2.0, tail=(0j, 0j))
    assert evaluate_map(w, 3.0) == 6.0
    w = ExteriorMapSeries(p=1.0, tail=(1.0 + 0j,))
    assert evaluate_map(w, 2.0) == 3.0


def test_leading_coefficient_positive_required():
    with pytest.raises(ValueError):
        ExteriorMapSeries(p=-1.0, tail=())


def test_p_real_positive_for_conjugate_symmetric_moments(potential_46, sector_46):
    m = MomentVector(t0=0.8, t=(0.05 + 0.02j, -0.01j, 0.003, 0))
    w = map_from_potential(potential_46, m, order=8, sector=sector_46)
    assert w.p > 0


def test_conformal_radius_identity(potential_46):
    # log p = -1/2 (log t0 + A) with A = d0^2 F_reg at m: for moments with
    # barred values taken as conjugates, A must come out real
    m = MomentVector(t0=0.9, t=(0.04, 0.02j, 0.0, 0.001))
    a_val = potential_46.regular.diff_t0().diff_t0().evaluate(m)
    assert abs(a_val.imag) <= 1e-12


def test_ellipse_moments_give_unit_p(potential_46, sector_46):
    # interior of u + a/u has t0 = 1 - a^2, t2 = a/2; its map has p = 1
    a = 0.05
    m = MomentVector(t0=1 - a * a, t=(0, a / 2, 0, 0))
    w = map_from_potential(potential_46, m, order=8, sector=sector_46)
    assert abs(w.p - 1.0) <= 1e-9
    # leading tail coefficients of the inverse of u + a/u: p1 = -a, p3 = -a^2
    assert abs(w.tail[1] - (-a)) <= 1e-6
    assert abs(w.tail[3] - (-a * a)) <= 1e-6
    assert abs(w.tail[0]) <= 1e-12 and abs(w.tail[2]) <= 1e-12


def test_translated_disk_map_reconstruction(potential_46, sector_46):
    # moments of the unit disk centered at c: t0 = 1, t1 = conj(c), rest 0;
    # the one-point functions reproduce w(z) = z - c through the factorial
    # coefficient pattern, up to the index cutoff
    c = 0.1 + 0.05j
    m = MomentVector(t0=1.0, t=(c.conjugate(), 0, 0, 0))
    w = map_from_potential(potential_46, m, order=8, sector=sector_46)
    for z in (2.0 + 0.3j, -1.5 + 1.2j, 3.0j):
        assert abs(evaluate_map(w, z) - (z - c)) <= 5e-7


def test_moment_vector_validation():
    with pytest.raises(ValueError):
        MomentVector(t0=0.0)
    with pytest.raises(ValueError):
        MomentVector(t0=1.0, t=(float("nan"),))
    with pytest.raises(ValueError):
        map_from_potential_negative_order_helper()


def map_from_potential_negative_order_helper():
    potential, _ = build_potential(default_policy(2, 3))
    return map_from_potential(potential, MomentVector(t0=1.0), order=-1)


def test_moment_vector_json_round_trip():
    m = MomentVector(t0=0.75, t=(0.1 + 0.2j, -0.3j))
    again = MomentVector.from_json(m.to_json())
    assert again == m


def test_map_json_round_trip():
    w = ExteriorMapSeries(p=1.25, tail=(0.1 + 0j, -0.2j, 0.05 + 0.05j))
    again = ExteriorMapSeries.from_json(w.to_json())
    assert again == w


def test_map_without_sector_warns_and_keeps_zero_one_point_tail(potential_46):
    # order 8 needs B_k up to k = 9; without the one-point sector the B_k
    # beyond n_max = 4 are zero, so the tail equals that of a map of B_1..B_4
    a = 0.05
    m = MomentVector(t0=1 - a * a, t=(0, a / 2, 0, 0))
    with pytest.warns(UserWarning, match="k > 4 are taken as zero") as record:
        w = map_from_potential(potential_46, m, order=8)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = map_from_potential(potential_46, m, order=3)
        sector = one_point_sector(default_policy(4, 6), 9, cache=MemoCache())
        mended = map_from_potential(potential_46, m, order=8, sector=sector)
    assert w.tail[:4] == short.tail
    # the z^-5 coefficient of the inverse of u + a/u is -2 a^3; it is fed by
    # B_6, which only the sector supplies
    assert abs(mended.tail[5] - (-2 * a**3)) <= 1e-7
    assert abs(w.tail[5] - (-2 * a**3)) > 1e-4


def test_map_rejects_sector_of_another_policy(potential_46):
    cache = MemoCache()
    for policy in (default_policy(4, 5), TruncationPolicy(3, 6)):
        sector = one_point_sector(policy, 9, cache=cache)
        with pytest.raises(ValueError, match="was not built for"):
            map_from_potential(
                potential_46, MomentVector(t0=1.0), order=8, sector=sector
            )


def test_moment_vector_rejects_non_finite_t0():
    for t0 in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="t0 must be finite and positive"):
            MomentVector(t0=t0)
