"""Tour of the exact series ring.

Everything in this package is built on truncated power series in the moment
variables t0, t1, tbar1, t2, tbar2, ... with exact rational coefficients.
This script walks through the ring operations: products, exponentials,
derivatives, numeric evaluation and the JSON serialization format.
"""

import json
from fractions import Fraction

from taumap import MomentVector, TruncatedSeries, TruncationPolicy
from taumap.series import series_to_json_terms

policy = TruncationPolicy(n_max=2, deg_max=4)
print(f"policy: {policy}\n")

t0 = TruncatedSeries.t0(policy)
t1 = TruncatedSeries.variable(policy, 1)
t1b = TruncatedSeries.variable(policy, 1, barred=True)
t2b = TruncatedSeries.variable(policy, 2, barred=True)

s = t1 + t2b
print("(t1 + tbar2)^2 =", s * s)

# the exponential of a series whose every term carries a variable
# terminates under truncation
e = (t1 * Fraction(1, 2)).exp_no_constant()
print("exp(t1/2)      =", e)

# formal derivatives follow the exponent rule, one variable at a time
mixed = t0 * t1 * t1 * t2b
print("d/dtbar2 of t0 t1^2 tbar2 =", mixed.diff_t(2, barred=True))

# barred variables become conjugates only at evaluation time
pair = t1 * t1b
point = MomentVector(t0=1.0, t=(0.1 + 0.2j, 0.0))
print("t1 tbar1 at t1 = 0.1+0.2i  ->", pair.evaluate(point), "(= |t1|^2)")

print("\nJSON terms of (t1 + tbar2)^2 (integers only, bit-exact round trip):")
print(json.dumps(series_to_json_terms(s * s)))
