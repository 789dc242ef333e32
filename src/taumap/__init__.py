"""Exterior conformal maps from harmonic moments.

The package reconstructs the normalized conformal bijection from a plane
domain (containing infinity) to the exterior of the unit disk, starting from
the domain's harmonic moments.  The route goes through an exactly computed
potential series whose second derivatives encode the map and which solves
the dispersionless 2D Toda constraints:

The modules follow the route domain -> moments -> potential -> map, and
each imports only from the stages before it:

* :mod:`taumap.series` -- exact truncated series ring in the moments;
* :mod:`taumap.moments` -- the inputs: moment vectors, boundary curves,
  their contour-quadrature moments and the readers of both JSON files;
* :mod:`taumap.coefficients` -- the recursive Taylor coefficients and the
  walk over a policy's keys;
* :mod:`taumap.potential` -- the potential from the mixed Toda equation;
* :mod:`taumap.confmap` -- the exterior map from the potential;
* :mod:`taumap.verify` -- every self-check and its :class:`CheckResult`:
  the paper's combinatorial formula and the closed-form oracles (Cauchy
  data, the ellipse family), hierarchy residuals, the factorial
  coefficient pattern, convergence gate and the full roundtrip; it
  imports no builder;
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
from .confmap import ExteriorMapSeries, evaluate_map, map_from_potential
from .moments import BoundaryCurve, MomentVector, moments_from_curve, v_moments_from_curve
from .potential import BuildReport, build_potential, default_policy
from .series import Monomial, PotentialSeries, TruncatedSeries, TruncationPolicy
from .verify import (
    CheckResult,
    ConvergenceVerdict,
    cauchy_data_check,
    combinatorial_formula_check,
    convergence_gate,
    degree_term_sums,
    ellipse_oracle_check,
    factorial_pattern_check,
    roundtrip,
    toda_residual_a,
    toda_residual_b,
    toda_residual_c,
)

__version__ = "0.1.0"
