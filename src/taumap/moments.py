"""Harmonic and dual moments of a domain given by an exterior map.

The domain is presented by the boundary curve

    z(u) = r u + a_0 + a_1 u^-1 + ... + a_M u^-M,   |u| = 1,

the image of the unit circle under a map of the exterior of the unit disk;
``r > sum j |a_j|`` is enforced, a cheap sufficient condition for
univalence.  ``Q0`` denotes the bounded interior region; the curve runs
counterclockwise around it.

All moments are boundary contour integrals.  The area-integral definitions

    t0  =  area(Q0) / pi
    t_k = -(1/(pi k)) int_{exterior} z^-k dA      (k >= 1)
    v_k =  (1/pi)     int_{Q0}       z^k  dA      (k >= 1)
    v_0 =  (2/pi)     int_{Q0}       log|z| dA

reduce by Stokes' theorem to

    t0  = (1/(2 pi i))    oint conj(z) dz
    t_k = (1/(2 pi i k))  oint z^-k conj(z) dz
    v_k = (1/(2 pi i))    oint z^k  conj(z) dz
    v_0 = (2/pi) Im  oint (conj(z) log|z| / 2 - conj(z)/4) dz

(the ``v_0`` form comes from Green's identity against ``|z|^2/4``; the
point mass of ``log|z|`` at the origin contributes nothing because
``|z|^2/4`` vanishes there).  For ``k in {1, 2}`` the exterior area
integral diverges and the contour form is taken as the definition; it
agrees with the convergent cases ``k >= 3`` and with the hierarchy the
potential satisfies.

Quadrature is the trapezoid rule on ``|u| = 1``, spectrally accurate for
these analytic integrands.  Sums run in a fixed order so results are
bitwise reproducible for a fixed sample count.
"""

from __future__ import annotations

import csv
import io
from cmath import isfinite
from dataclasses import dataclass
from math import pi

import numpy as np

from .confmap import MomentVector, _json_number, _json_object, _json_pairs, _require_finite

__all__ = [
    "BoundaryCurve",
    "moments_from_curve",
    "v_moments_from_curve",
    "curve_to_json",
    "curve_from_json",
    "moments_to_csv",
]

# The largest quadrature sample count a curve accepts: far beyond spectral
# accuracy for any univalent curve, and a bound on the arrays a curve asks for.
MAX_SAMPLES = 1 << 16


@dataclass(frozen=True)
class BoundaryCurve:
    """Exterior-map data ``(r, a_0..a_M)`` plus a quadrature sample count."""

    r: float
    a: tuple[complex, ...] = ()
    samples: int = 256

    def __post_init__(self) -> None:
        if not (isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be finite and positive, got {self.r}")
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))
        _require_finite("a", self.a)
        margin = sum(j * abs(c) for j, c in enumerate(self.a))
        if self.r <= margin:
            raise ValueError(
                f"univalence bound violated: r = {self.r} <= sum j|a_j| = {margin}"
            )
        n = self.samples
        if not 64 <= n <= MAX_SAMPLES or n & (n - 1):
            raise ValueError(f"samples must be a power of two in [64, {MAX_SAMPLES}], got {n}")

    def boundary(self):
        """Arrays ``(z, dz_du, u)`` on ``samples`` uniform points of ``|u| = 1``."""
        n = self.samples
        theta = 2 * pi * np.arange(n) / n
        u = np.exp(1j * theta)
        z = self.r * u
        dz = np.full(n, self.r, dtype=complex)
        uinv = 1.0 / u
        upow = np.ones(n, dtype=complex)
        for j, coeff in enumerate(self.a):
            z = z + coeff * upow
            if j >= 1:
                dz = dz - j * coeff * upow * uinv
            upow = upow * uinv
        return z, dz, u

    def z_of(self, u: complex) -> complex:
        val = self.r * u
        for j, coeff in enumerate(self.a):
            val += coeff * u ** (-j)
        return val

    def scaled(self, lam: float) -> "BoundaryCurve":
        return BoundaryCurve(
            self.r * lam, tuple(lam * c for c in self.a), self.samples
        )

    def rotated(self, phase: complex) -> "BoundaryCurve":
        """Curve of the rotated domain ``z -> phase z`` (|phase| = 1).

        The leading coefficient stays real positive by rotating the
        parameter circle as well: ``a_j -> phase^(j+1) a_j``.
        """
        return BoundaryCurve(
            self.r,
            tuple(phase ** (j + 1) * c for j, c in enumerate(self.a)),
            self.samples,
        )


def _contour_mean(values: np.ndarray, dz: np.ndarray, u: np.ndarray) -> complex:
    """(1/(2 pi i)) oint f dz via the trapezoid rule, as a plain sum."""
    n = len(u)
    # oint f dz = int f z'(theta) dtheta with z'(theta) = dz/du * iu
    return complex(np.sum(values * dz * u)) / n


def moments_from_curve(curve: BoundaryCurve, n: int) -> MomentVector:
    """Harmonic moments ``t0, t_1..t_n`` of the curve's interior domain."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z, dz, u = curve.boundary()
    zbar = np.conj(z)
    t0 = _contour_mean(zbar, dz, u)
    t = []
    zk = np.ones_like(z)
    for k in range(1, n + 1):
        zk = zk / z
        t.append(_contour_mean(zk * zbar, dz, u) / k)
    for name, val in [("t0", t0)] + [(f"t{k}", v) for k, v in enumerate(t, 1)]:
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            raise ArithmeticError(f"non-finite quadrature result for {name}")
    return MomentVector(t0=t0.real, t=tuple(t))


def v_moments_from_curve(curve: BoundaryCurve, n: int) -> list[complex]:
    """Dual moments ``v_0..v_n`` (interior integrals of ``log|z|`` and ``z^k``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z, dz, u = curve.boundary()
    zbar = np.conj(z)
    integrand0 = 0.5 * zbar * np.log(np.abs(z)) - 0.25 * zbar
    # (2/pi) Im oint g dz = 4 Re mean(g z' u) on the unit grid
    v0 = 4.0 * float(np.real(np.sum(integrand0 * dz * u))) / len(u)
    out: list[complex] = [complex(v0)]
    zk = np.ones_like(z)
    for k in range(1, n + 1):
        zk = zk * z
        out.append(_contour_mean(zk * zbar, dz, u))
    if any(not np.isfinite(v.real) or not np.isfinite(v.imag) for v in out):
        raise ArithmeticError("non-finite quadrature result in dual moments")
    return out


# -- file formats ------------------------------------------------------------


def curve_to_json(curve: BoundaryCurve) -> dict:
    return {
        "r": curve.r,
        "a": [[c.real, c.imag] for c in curve.a],
        "samples": curve.samples,
    }


def curve_from_json(data: dict) -> BoundaryCurve:
    """Read ``{"r": number, "a": [[re, im], ...], "samples": int}`` (``a`` and
    ``samples`` optional); ``ValueError`` on any other shape."""
    source = "curve JSON"
    shape = 'an object {"r": number, "a": [[re, im], ...], "samples": integer}'
    _json_object(data, source, shape)
    return BoundaryCurve(
        r=_json_number(data, "r", source, shape),
        a=_json_pairs(data, "a", source, shape),
        samples=_json_number(data, "samples", source, shape, int)
        if "samples" in data
        else 256,
    )


def moments_to_csv(m: MomentVector) -> str:
    """CSV with columns ``k, re, im, abs`` (row ``k = 0`` holds ``t0``)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "re", "im", "abs"])
    writer.writerow([0, repr(m.t0), repr(0.0), repr(abs(m.t0))])
    for k, val in enumerate(m.t, 1):
        writer.writerow([k, repr(val.real), repr(val.imag), repr(abs(val))])
    return buf.getvalue()
