"""The two-moment family and its closed-form potential.

When only t0, t1, t2 (and conjugates) are switched on, the domain boundary
is an ellipse and the potential has the closed form

    F = -3/4 t0^2 + 1/2 t0^2 log(t0 / (1 - 4 |t2|^2))
        + t0 (|t1|^2 + t1^2 tbar2 + tbar1^2 t2) / (1 - 4 |t2|^2).

Expanding the logarithm and the geometric factor gives exact rational
coefficients for every monomial in indices <= 2, which this script compares
against the recursion, term by term.  The comparison also pins the one
genuinely ambiguous constant in the recursion, the window weight of the
contraction step: the shipped linear weight (the window surplus) matches
the closed form at factor degree 7, where the multinomial alternative
first differs from it.  That alternative survives only as an injected
negative control in the test suite
(tests/test_verify.py::test_residuals_arbitrate_window_weight_at_degree_six),
where the mixed hierarchy residual rejects it.
"""

from taumap import (
    MemoCache,
    build_potential,
    default_policy,
    ellipse_oracle_check,
    n1_coefficient,
)

potential, _ = build_potential(default_policy(n_max=2, deg_max=8))
report = ellipse_oracle_check(potential)
print(
    f"closed-form comparison at deg_max=8: {report.checked} coefficients, "
    f"{len(report.violations)} mismatches"
)
for mono, coeff in potential.regular.sorted_items()[:8]:
    print(f"  {str(coeff):>4}  *  {mono}")

print("\nwindow weight at the first key where the candidates differ:")
print("  target from the closed form: coefficient 12 for lists (1,1,2,2) | (2,2,2)")
value = n1_coefficient(6, (1, 1, 2, 2), (2, 2, 2), MemoCache())
print(f"  shipped linear weight: {value}")
swapped = n1_coefficient(6, (2, 2, 2), (1, 1, 2, 2), MemoCache())
print(f"  swapped evaluation (no contraction of length 4): {swapped}")
