"""Exterior conformal maps from harmonic moments.

The package reconstructs the normalized conformal bijection from a plane
domain (containing infinity) to the exterior of the unit disk, starting from
the domain's harmonic moments.  The route goes through an exactly computed
potential series whose second derivatives encode the map and which solves
the dispersionless 2D Toda constraints:

* :mod:`taumap.series` -- exact truncated series ring in the moments;
* :mod:`taumap.coefficients` -- the recursive Taylor coefficients;
* :mod:`taumap.potential` -- the potential from the mixed Toda equation,
  checked against the paper's combinatorial formula and closed-form
  oracles (Cauchy data, the ellipse family);
* :mod:`taumap.confmap` -- the exterior map from the potential;
* :mod:`taumap.moments` -- contour-quadrature moments of a given boundary;
* :mod:`taumap.verify` -- hierarchy residuals, coefficient patterns,
  convergence gate and the full roundtrip;
* :mod:`taumap.cli` -- the ``taumap`` command.
"""

from .coefficients import (
    MemoCache,
    NKey,
    SLMatrix,
    bounded_compositions_count,
    n1_coefficient,
    n2_coefficient,
    s_coefficient,
    t1_coefficient,
    t2_coefficient,
)
from .confmap import ExteriorMapSeries, MomentVector, evaluate_map, map_from_potential
from .moments import BoundaryCurve, moments_from_curve, v_moments_from_curve
from .potential import (
    BuildReport,
    CheckResult,
    build_potential,
    cauchy_data_check,
    combinatorial_formula_check,
    default_policy,
    ellipse_oracle_check,
)
from .series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy
from .verify import (
    ConvergenceVerdict,
    convergence_gate,
    degree_term_sums,
    factorial_pattern_check,
    roundtrip,
    toda_residual_a,
    toda_residual_b,
    toda_residual_c,
)

__version__ = "0.1.0"
