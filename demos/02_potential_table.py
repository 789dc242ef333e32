"""Building the potential and reading its coefficient table.

The potential of the moment coordinates splits into a fixed singular part

    1/2 t0^2 log t0 - 3/4 t0^2

and a regular double series whose coefficients come from an exact recursion
over compositions and ordered set partitions.  This script builds it at a
small truncation, prints the lowest-order terms, and shows the factorial
pattern of the coefficients that pair a single plain index with a run of
ones on the barred side: those equal (i-1)! and every other shape of the
same weight vanishes.
"""

from math import factorial

from taumap import MemoCache, NKey, build_potential, default_policy, n2_coefficient

policy = default_policy(n_max=3, deg_max=4)
potential, report = build_potential(policy)
print(
    f"built potential at n_max={policy.n_max}, deg_max={policy.deg_max}: "
    f"{report.keys_evaluated} keys, {report.nonzero_terms} nonzero terms, "
    f"{report.elapsed * 1000:.0f} ms"
)
print("singular part: 1/2 t0^2 log t0 - 3/4 t0^2\n")

print("lowest-order regular terms:")
for mono, coeff in potential.regular.sorted_items()[:10]:
    print(f"  {str(coeff):>5}  *  {mono}")

print("\nfactorial pattern (barred side = 1 repeated i times):")
cache = MemoCache()
for i in range(1, 7):
    value = n2_coefficient(NKey(((i, 1),), ((1, i),)), cache=cache)
    print(f"  weight {i}: coefficient = {value} = {i - 1}!  ->  {value == factorial(i - 1)}")

split = n2_coefficient(NKey(((2, 2),), ((1, 4),)), cache=cache)
print(f"  weight 4, shape 2^2 instead of a single 4: {split} (vanishes)")
