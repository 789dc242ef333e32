"""From a domain to its exterior map, and back.

Pipeline: sample a boundary curve, compute its harmonic moments by contour
quadrature, build the potential, reconstruct the exterior map from second
derivatives of the potential, then composite the map with the curve and
measure how far the composition is from the identity on a circle outside
the domain.

Three domains:

* a disk, where everything is exact;
* a translated disk, where the whole tail of one-point functions is fed by
  the single moment t1 through the factorial coefficient pattern;
* the 0.05-ellipse, where the error is a clean window on series truncation.
  Its moments above index 2 vanish, so a moment-index bound of 4 loses no
  data: at moments cut at n_max the map's inverse is the Laurent
  polynomial z_cl(w) = w/p + u_0 + ... + u_{n_max-1} w^(1-n_max), its
  closure, fixed by A and B_1..B_{n_max}, and it is the degree bound that
  sets the attainable accuracy.

The roundtrip inverts the closure by Newton, so it needs no map order; the
series map of order J is the closure's inverse reverted to z^-J, whose
one-point functions B_k beyond n_max are the constant terms of z_cl^k.
"""

from taumap import (
    BoundaryCurve,
    build_potential,
    default_policy,
    map_from_potential,
    moments_from_curve,
    roundtrip,
)
from taumap.verify import ROUNDTRIP_RADIUS


def roundtrip_at(curve, n_max, deg_max):
    potential, _ = build_potential(default_policy(n_max, deg_max))
    return roundtrip(curve, potential)


disk = BoundaryCurve(r=1.2, a=(), samples=128)
report = roundtrip_at(disk, 3, 3)
print(f"disk:            sup |w(z(u)) - u| = {report.sup_error:.2e}, p = {report.p:.12f}")

shifted = BoundaryCurve(r=1.0, a=(0.25 + 0.1j,), samples=128)
report = roundtrip_at(shifted, 6, 6)
print(f"translated disk: sup |w(z(u)) - u| = {report.sup_error:.2e}, p = {report.p:.12f}")

ellipse = BoundaryCurve(r=1.0, a=(0.0, 0.05), samples=256)
print(f"\nellipse u + 0.05/u, sup error on |u| = {ROUNDTRIP_RADIUS} by truncation policy:")
for n_max, deg_max in [(4, 4), (4, 6), (6, 6), (8, 6)]:
    report = roundtrip_at(ellipse, n_max, deg_max)
    print(f"  n_max={n_max}, deg_max={deg_max}: sup = {report.sup_error:.3e}")
print("(the degree bound dominates: B_k beyond n_max come from the closure)")

moments = moments_from_curve(ellipse, 4)
print(f"\nquadrature moments: t0 = {moments.t0:.6f}, t2 = {moments.t[1]:.6f}")
potential, _ = build_potential(default_policy(4, 6))
w = map_from_potential(potential, moments, 8)
print(f"map coefficients: p = {w.p:.9f}, p1 = {w.tail[1]:.6f} (exact ellipse: -0.05)")
print(f"closure: u_1 = {w.closure[1]:.9f} (exact ellipse: 0.05)")
