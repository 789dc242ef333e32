"""The inputs: moment vectors, boundary curves and the curves' moments.

A domain enters as its harmonic moments (:class:`MomentVector`) or as a
boundary curve, both read from JSON by one set of field readers that name
the input and its expected shape in every error.  The module imports no
other ``taumap`` module.  A curve presents the domain as

    z(u) = r u + a_0 + a_1 u^-1 + ... + a_M u^-M,   |u| = 1,

the image of the unit circle under a map of the exterior of the unit disk;
``r > sum j |a_j|`` is enforced, a cheap sufficient condition for
univalence.  ``Q0`` denotes the bounded interior region; the curve runs
counterclockwise around it, and it must contain the origin, about which
the moments expand (:func:`moments_from_curve` checks the winding number).

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
these analytic integrands.  ``z`` and ``dz/du`` come from Horner's rule in
``1/u``; the weight ``conj(z) dz/du u / samples`` is formed once, and each
moment is one running power of ``1/z`` (of ``z`` for ``v_k``) times it,
summed, so memory stays linear in the sample count.  Sums run in a fixed
order so results are bitwise reproducible for a fixed sample count.  A
curve of ``N`` samples gives moments up to ``n < N/2`` only: the rule
folds ``u^N`` onto the constant term (the disk's ``t_N`` would read
``1/N``), so a higher ``n`` is refused rather than aliased.
"""

from __future__ import annotations

import json
from cmath import isfinite
from dataclasses import dataclass
from math import pi

import numpy as np

__all__ = [
    "MomentVector",
    "BoundaryCurve",
    "moments_from_curve",
    "v_moments_from_curve",
    "curve_from_json",
]

# The largest quadrature sample count a curve accepts: far beyond spectral
# accuracy for any univalent curve, and a bound on the arrays a curve asks for.
MAX_SAMPLES = 1 << 16


@dataclass(frozen=True)
class MomentVector:
    """Numeric harmonic moments ``(t0; t_1..t_n)``.

    ``t0`` is the interior area over pi and must be finite and positive;
    barred values are taken as conjugates wherever a series is evaluated.
    """

    t0: float
    t: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if not (isfinite(self.t0) and self.t0 > 0):
            raise ValueError(f"t0 must be finite and positive, got {self.t0}")
        object.__setattr__(self, "t", tuple(complex(x) for x in self.t))
        _require_finite("t", self.t)

    def padded(self, n: int) -> "MomentVector":
        """Same vector with the tail zero-padded to length ``n``."""
        if len(self.t) >= n:
            return self
        return MomentVector(self.t0, self.t + (0j,) * (n - len(self.t)))

    def to_json(self) -> dict:
        return {"t0": self.t0, "t": [[x.real, x.imag] for x in self.t]}

    @classmethod
    def from_json(cls, data: dict) -> "MomentVector":
        """Read ``{"t0": number, "t": [[re, im], ...]}`` (``t`` optional);
        ``ValueError`` on any other shape."""
        source, shape = "moment JSON", 'an object {"t0": number, "t": [[re, im], ...]}'
        _json_object(data, source, shape)
        return cls(
            _json_number(data, "t0", source, shape), _json_pairs(data, "t", source, shape)
        )


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
        return (*_laurent(self.r, self.a, u), u)

    def z_of(self, u):
        """``z(u)`` by Horner evaluation in ``1/u``: one division, then one
        multiply-add per ``a_j``.  ``u`` may be a numpy array; a Python
        ``complex`` stays one."""
        return self.r * u + _horner(self.a, 1.0 / u)


def _quadrature(curve: BoundaryCurve, n: int, dual: bool):
    """``z`` and ``u z'(u)`` on the grid, the trapezoid weight ``w`` with
    ``(1/(2 pi i)) oint f conj(z) dz = sum(f w)``, and ``sum(z^(+-k) w)`` for
    ``k = 0..n``: one running power of ``z`` (dual) or ``1/z`` and one
    product-sum each.  ``2n >= samples`` raises ``ValueError``: the rule
    would alias (module docstring)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * n >= curve.samples:
        raise ValueError(
            f"n = {n} moments need samples > 2n = {2 * n}, got samples = {curve.samples}: "
            "the trapezoid rule aliases the higher moments"
        )
    z, dz, u = curve.boundary()
    # oint g dz = int g z'(theta) dtheta with z'(theta) = dz/du * iu
    weight = np.conj(z) * dz * u / len(u)
    step = z if dual else 1.0 / z
    power, sums = np.ones_like(z), [complex(weight.sum())]
    for _ in range(n):
        power *= step
        sums.append(complex((power * weight).sum()))
    return z, dz * u, weight, sums


def moments_from_curve(curve: BoundaryCurve, n: int) -> MomentVector:
    """Harmonic moments ``t0, t_1..t_n`` of the curve's interior domain.

    The moments ``t_k`` expand about the origin, so the interior must
    contain it: the curve's winding number about 0, the mean of
    ``u z'(u) / z(u)`` over the samples, free of the curve's scale, must
    read 1.  A curve through or outside the origin, or one that passes too
    close to it for the samples to resolve, raises ``ValueError``.  So does
    a moment that leaves the floating-point range, named: scaling the curve
    by ``c`` scales ``t0`` by ``c^2`` and ``t_k`` by ``c^(2-k)``, so
    ``t0 = r^2`` is the first to go.  Overflow raises no numpy warning.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z, slope, weight, (t0, *sums) = _quadrature(curve, n, dual=False)
        winding = complex((slope / z).mean())
    if not (isfinite(winding) and abs(winding - 1) < 0.5):
        raise ValueError(
            f"the curve's winding number about the origin is w = {winding:.6g}, not 1: "
            "its interior must contain the origin, or the samples are too few to "
            "resolve a curve that passes close to it"
        )
    t = [s / k for k, s in enumerate(sums, 1)]
    # t0, the area over pi, reads 0 only where it underflows
    for name, val in [("t0", t0.real)] + [(f"t{k}", v) for k, v in enumerate(t, 1)]:
        if not isfinite(val) or (name == "t0" and val == 0):
            raise ValueError(
                f"the moment {name} = {val:.6g} leaves the floating-point range: "
                "scaling the curve by c scales t0 by c^2 and t_k by c^(2-k)"
            )
    return MomentVector(t0=t0.real, t=tuple(t))


def v_moments_from_curve(curve: BoundaryCurve, n: int) -> list[complex]:
    """Dual moments ``v_0..v_n`` (interior integrals of ``log|z|`` and ``z^k``).

    A moment that leaves the floating-point range raises ``ArithmeticError``,
    named: scaling the curve by ``c`` scales ``v_k`` (``k >= 1``) by ``c^(k+2)``.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z, _, weight, (_, *sums) = _quadrature(curve, n, dual=True)
        # (2/pi) Im oint g conj(z) dz = 4 Re sum(g w)
        v0 = 4.0 * float(np.real(((0.5 * np.log(np.abs(z)) - 0.25) * weight).sum()))
    out = [complex(v0)] + sums
    for k, v in enumerate(out):
        if not isfinite(v):
            raise ArithmeticError(
                f"non-finite quadrature result in dual moments: v{k} = {v:.6g} leaves the "
                "floating-point range; scaling the curve by c scales v_k by c^(k+2)"
            )
    return out


def _horner(coeffs, x):
    """``sum_j coeffs[j] x^j`` by Horner's rule, for a scalar or an array ``x``."""
    acc = 0j
    for coeff in reversed(coeffs):
        acc = acc * x + coeff
    return acc


def _laurent(c, a, x):
    """``c x + sum_j a_j x^-j`` and its slope in ``x``, by Horner's rule in ``1/x``."""
    inv = 1.0 / x
    slopes = [j * coeff for j, coeff in enumerate(a)][1:]
    return c * x + _horner(a, inv), c - inv * inv * _horner(slopes, inv)


def _require_finite(name: str, values: tuple[complex, ...]) -> None:
    """``ValueError`` naming the first entry of ``values`` that is not finite."""
    for i, x in enumerate(values):
        if not isfinite(x):
            raise ValueError(f"{name}[{i}] = {x} is not finite")


# -- file formats ------------------------------------------------------------


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


# Readers of input JSON name the input and its expected shape in every error.


def _json_error(source: str, shape: str, problem: str) -> ValueError:
    return ValueError(f"{source}: {problem}; expected {shape}")


def _json_object(data, source: str, shape: str) -> None:
    if not isinstance(data, dict):
        raise _json_error(source, shape, f"got a JSON {_json_kind(data)}")


def _json_number(data: dict, key: str, source: str, shape: str, kind: type = float):
    """The required field ``key``: a number, or an integer when ``kind`` is ``int``."""
    if key not in data:
        raise _json_error(source, shape, f"field {key!r} is missing")
    value = data[key]
    if _json_kind(value) != "number" or (kind is int and not isinstance(value, int)):
        noun = "an integer" if kind is int else "a number"
        raise _json_error(
            source, shape, f"field {key!r} is a JSON {_json_kind(value)}, not {noun}"
        )
    try:
        return kind(value)
    except OverflowError:
        raise _json_error(source, shape, f"field {key!r} is too large for a float") from None


def _json_pairs(data: dict, key: str, source: str, shape: str) -> tuple[complex, ...]:
    """The optional field ``key``: a list of ``[re, im]`` number pairs."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise _json_error(
            source,
            shape,
            f"field {key!r} is a JSON {_json_kind(value)}, not a list of [re, im] pairs",
        )
    pairs = []
    for i, pair in enumerate(value):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and all(_json_kind(x) == "number" for x in pair)
        ):
            raise _json_error(
                source, shape, f"{key}[{i}] = {json.dumps(pair)} is not an [re, im] pair"
            )
        try:
            pairs.append(complex(*pair))
        except OverflowError:
            raise _json_error(
                source, shape, f"{key}[{i}] holds a number too large for a float"
            ) from None
    return tuple(pairs)


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {dict: "object", list: "list", str: "string"}.get(type(value), "null")
