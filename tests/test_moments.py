"""Contour-quadrature moments against closed forms and the area oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers_area import interior_moments_midpoint
from test_confmap import seeded_curves
from taumap.moments import (
    MAX_SAMPLES,
    BoundaryCurve,
    moments_from_curve,
    v_moments_from_curve,
)


ELLIPSE = BoundaryCurve(r=1.0, a=(0.0, 0.05), samples=256)


def test_circle_moments_trivial():
    curve = BoundaryCurve(r=1.3, a=(), samples=64)
    m = moments_from_curve(curve, 5)
    assert abs(m.t0 - 1.69) <= 1e-14
    assert max(abs(x) for x in m.t) <= 1e-14


def test_circle_dual_moments():
    r = 1.3
    t0 = r * r
    curve = BoundaryCurve(r=r, a=(), samples=128)
    v = v_moments_from_curve(curve, 4)
    assert abs(v[0] - (t0 * math.log(t0) - t0)) <= 1e-13
    assert max(abs(x) for x in v[1:]) <= 1e-13


def test_ellipse_closed_form_moments():
    # z(u) = r u + a/u encloses an ellipse: t0 = r^2 - |a|^2, t2 = conj(a)/(2r),
    # all other moments vanish
    a = 0.05
    m = moments_from_curve(ELLIPSE, 5)
    assert abs(m.t0 - (1 - a * a)) <= 1e-13
    assert abs(m.t[1] - a / 2) <= 1e-13
    for k in (1, 3, 5):
        assert abs(m.t[k - 1]) <= 1e-14
    v = v_moments_from_curve(ELLIPSE, 4)
    assert abs(v[2] - a * (1 - a * a)) <= 1e-13
    assert abs(v[4] - 2 * a * a * (1 - a * a)) <= 1e-13


def test_ellipse_general_r_closed_form():
    r, a = 1.4, 0.2 + 0.1j
    curve = BoundaryCurve(r=r, a=(0.0, a), samples=256)
    m = moments_from_curve(curve, 3)
    assert abs(m.t0 - (r * r - abs(a) ** 2)) <= 1e-13
    assert abs(m.t[1] - a.conjugate() / (2 * r)) <= 1e-13


def test_translation_shifts_first_moment_only():
    c = 0.2 - 0.1j
    curve = BoundaryCurve(r=1.0, a=(c,), samples=128)
    m = moments_from_curve(curve, 5)
    assert abs(m.t0 - 1.0) <= 1e-14
    assert abs(m.t[0] - c.conjugate()) <= 1e-14
    assert max(abs(x) for x in m.t[1:]) <= 1e-13


def test_midpoint_area_oracle_agreement():
    # independent 2D midpoint quadrature over the interior, coarse tolerance
    oracle = interior_moments_midpoint(ELLIPSE, (2, 4), grid=420, poly=1024)
    m = moments_from_curve(ELLIPSE, 4)
    v = v_moments_from_curve(ELLIPSE, 4)
    assert abs(oracle[0] - m.t0) <= 2e-3
    assert abs(oracle[2] - v[2]) <= 2e-3
    assert abs(oracle[4] - v[4]) <= 2e-3


def test_doubling_samples_is_stable():
    base = BoundaryCurve(r=1.0, a=(0.05, 0.1, 0.02j, 0.01), samples=256)
    doubled = BoundaryCurve(base.r, base.a, 512)
    m1 = moments_from_curve(base, 6)
    m2 = moments_from_curve(doubled, 6)
    assert abs(m1.t0 - m2.t0) <= 1e-12
    assert max(abs(x - y) for x, y in zip(m1.t, m2.t)) <= 1e-12
    v1 = v_moments_from_curve(base, 4)
    v2 = v_moments_from_curve(doubled, 4)
    assert max(abs(x - y) for x, y in zip(v1, v2)) <= 1e-12


def test_real_curves_give_real_moments():
    curve = BoundaryCurve(r=1.0, a=(0.1, 0.05, 0.02), samples=256)
    m = moments_from_curve(curve, 5)
    assert max(abs(x.imag) for x in m.t) <= 1e-14


def test_scaling_law():
    lam = 1.7
    base = BoundaryCurve(r=1.0, a=(0.05, 0.1, 0.03j), samples=256)
    scaled = BoundaryCurve(base.r * lam, tuple(lam * c for c in base.a), base.samples)
    m1 = moments_from_curve(base, 5)
    m2 = moments_from_curve(scaled, 5)
    assert abs(m2.t0 - lam**2 * m1.t0) <= 1e-12
    for k in range(1, 6):
        assert abs(m2.t[k - 1] - lam ** (2 - k) * m1.t[k - 1]) <= 1e-12


def test_rotation_covariance():
    # z -> phase z sends t0 to itself and t_k to phase^(-k) t_k; the
    # leading coefficient stays real positive by rotating the parameter
    # circle as well: a_j -> phase^(j+1) a_j
    import cmath

    base = BoundaryCurve(r=1.0, a=(0.02 + 0.01j, 0.03, 0.015j), samples=256)
    phase = cmath.exp(0.7j)
    rotated = BoundaryCurve(
        base.r, tuple(phase ** (j + 1) * c for j, c in enumerate(base.a)), base.samples
    )
    m = moments_from_curve(base, 5)
    mr = moments_from_curve(rotated, 5)
    assert abs(mr.t0 - m.t0) <= 1e-14
    for k in range(1, 6):
        assert abs(mr.t[k - 1] - phase ** (-k) * m.t[k - 1]) <= 1e-14


def test_univalence_bound_enforced():
    with pytest.raises(ValueError):
        BoundaryCurve(r=1.0, a=(0.0, 0.6, 0.2), samples=128)  # sum j|a_j| = 1 = r
    with pytest.raises(ValueError):
        BoundaryCurve(r=1.0, a=(0.0, 1.1), samples=128)
    BoundaryCurve(r=1.0, a=(0.9, 0.5), samples=128)  # a_0 never threatens the bound


@pytest.mark.parametrize(
    "a0", [2.0, 1.0, -1.0, 0.999], ids=["outside", "through", "through-a-sample", "unresolved"]
)
def test_a_curve_whose_interior_misses_the_origin_has_no_moments(a0):
    # the winding number about 0 reads 0 outside the disk |z - a0| = 1, is
    # not finite or far from 1 through the origin (z = 0 exactly at the
    # sample u = 1 for a0 = -1), and reads 4.43 for a0 = 0.999, whose
    # interior holds the origin 1e-3 from the curve, beyond 256 samples
    with pytest.raises(ValueError, match="its interior must contain the origin"):
        moments_from_curve(BoundaryCurve(r=1.0, a=(a0,)), 4)


@pytest.mark.parametrize(
    "curve",
    [BoundaryCurve(r=1e-300), BoundaryCurve(r=1e200, a=(0, 1e199))],
    ids=["tiny", "huge"],
)
def test_a_moment_out_of_the_float_range_is_named(curve):
    # the winding number is taken free of the curve's scale, so it reads 1
    # about the origin inside both; t0 = r^2 under- or overflows first, and
    # numpy warns nothing (warnings are errors here)
    with pytest.raises(ValueError, match=r"^the moment t0 = \S+ leaves the floating-point range"):
        moments_from_curve(curve, 4)


def test_dual_moments_out_of_the_float_range_warn_nothing():
    # v_k scales as r^(k+2): at r = 1e100 the moments t_k fit, v_2 does not
    moments_from_curve(BoundaryCurve(r=1e100), 4)
    with pytest.raises(ArithmeticError, match="non-finite quadrature result in dual moments"):
        v_moments_from_curve(BoundaryCurve(r=1e100), 4)


def test_dual_moments_take_any_curve():
    # the dual moments are interior integrals, defined wherever the origin is
    v = v_moments_from_curve(BoundaryCurve(r=1.0, a=(2.0,)), 2)
    assert abs(v[1] - 2) <= 1e-14 and abs(v[2] - 4) <= 1e-14


def test_sample_count_validation():
    with pytest.raises(ValueError):
        BoundaryCurve(r=1.0, a=(), samples=100)
    with pytest.raises(ValueError):
        BoundaryCurve(r=1.0, a=(), samples=32)
    # the upper bound is checked before any array is allocated
    BoundaryCurve(r=1.0, a=(), samples=MAX_SAMPLES)
    for samples in (2 * MAX_SAMPLES, 1 << 30):
        with pytest.raises(ValueError, match=f"got {samples}"):
            BoundaryCurve(r=1.0, a=(), samples=samples)


def test_moment_count_validation():
    with pytest.raises(ValueError):
        moments_from_curve(ELLIPSE, 0)
    with pytest.raises(ValueError):
        v_moments_from_curve(ELLIPSE, 0)


def test_moments_up_to_half_the_samples_do_not_alias():
    # the disk's moments t_k all vanish; the last n the 64 samples allow is 31
    disk = BoundaryCurve(r=1.0, a=(), samples=64)
    assert max(abs(x) for x in moments_from_curve(disk, 31).t) <= 1e-15
    for moments in (moments_from_curve, v_moments_from_curve):
        with pytest.raises(ValueError, match="n = 32 .* got samples = 64"):
            moments(disk, 32)


def test_determinism_bitwise():
    m1 = moments_from_curve(ELLIPSE, 4)
    m2 = moments_from_curve(ELLIPSE, 4)
    assert m1.t0 == m2.t0 and m1.t == m2.t


# -- Horner evaluation and quadrature against their power-loop forms ----------


def reference_z(curve, u):
    """``z(u) = r u + sum_j a_j u^-j`` as a power sum."""
    val = curve.r * u
    for j, coeff in enumerate(curve.a):
        val = val + coeff * u ** (-j)
    return val


def reference_boundary(curve):
    """``z`` and ``dz/du`` on the quadrature grid by one power loop in ``1/u``."""
    n = curve.samples
    u = np.exp(1j * (2 * np.pi * np.arange(n) / n))
    z = curve.r * u
    dz = np.full(n, curve.r, dtype=complex)
    uinv = 1.0 / u
    upow = np.ones(n, dtype=complex)
    for j, coeff in enumerate(curve.a):
        z = z + coeff * upow
        if j >= 1:
            dz = dz - j * coeff * upow * uinv
        upow = upow * uinv
    return z, dz, u


def reference_moments(curve, n):
    """``t0``, ``t_1..t_n`` and ``v_0..v_n``, each ``k`` its own contour mean."""
    z, dz, u = reference_boundary(curve)
    zbar = np.conj(z)

    def mean(f):
        return complex(np.sum(f * dz * u)) / len(u)

    t, zk = [], np.ones_like(z)
    for k in range(1, n + 1):
        zk = zk / z
        t.append(mean(zk * zbar) / k)
    integrand0 = 0.5 * zbar * np.log(np.abs(z)) - 0.25 * zbar
    v0 = 4.0 * float(np.real(np.sum(integrand0 * dz * u))) / len(u)
    v, zk = [complex(v0)], np.ones_like(z)
    for k in range(1, n + 1):
        zk = zk * z
        v.append(mean(zk * zbar))
    return mean(zbar).real, t, v


def reference_curves():
    """The seeded curves of the map tests, the A8 ellipse, two at 4096 samples."""
    curves = seeded_curves(4, 5) + [ELLIPSE]
    return curves + [BoundaryCurve(c.r, c.a, 4096) for c in curves[:2]]


def sup_relative(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_horner_curve_matches_power_sum():
    u = 1.25 * np.exp(2j * np.pi * np.arange(512) / 512)
    for curve in reference_curves():
        want = reference_z(curve, u)
        assert sup_relative(curve.z_of(u), want) <= 1e-15
        scalar = [curve.z_of(complex(x)) for x in u[::16]]
        assert all(type(x) is complex for x in scalar)
        want = [reference_z(curve, complex(x)) for x in u[::16]]
        assert sup_relative(scalar, want) <= 1e-15
        z, dz, grid = curve.boundary()
        z_ref, dz_ref, grid_ref = reference_boundary(curve)
        assert np.array_equal(grid, grid_ref)
        assert sup_relative(z, z_ref) <= 1e-15
        assert sup_relative(dz, dz_ref) <= 1e-15


def test_quadrature_matches_per_moment_contour_means():
    for curve in reference_curves():
        t0, t, v = reference_moments(curve, 12)
        m = moments_from_curve(curve, 12)
        assert abs(m.t0 - t0) <= 1e-14
        assert max(abs(x - y) for x, y in zip(m.t, t)) <= 1e-14
        assert max(abs(x - y) for x, y in zip(v_moments_from_curve(curve, 12), v)) <= 1e-14


def test_quadrature_memory_is_linear_in_samples():
    # many moments at the largest sample count never hold an n x samples array
    curve = BoundaryCurve(r=1.0, a=(0.0, 0.05, 0.02j), samples=MAX_SAMPLES)
    tracemalloc.start()
    try:
        moments_from_curve(curve, 64)
        v_moments_from_curve(curve, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * MAX_SAMPLES * 16  # 16 complex arrays; 64 rows would be 64
