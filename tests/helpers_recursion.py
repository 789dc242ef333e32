"""The potential summed from the paper's recursion over every key of a policy.

The reference the Toda solver is checked against: the same terms
:func:`taumap.verify.combinatorial_formula_check` compares, as one series.
"""

from __future__ import annotations

from taumap.coefficients import MemoCache, admissible_keys
from taumap.series import PotentialSeries, TruncatedSeries, TruncationPolicy
from taumap.verify import recursion_terms


def recursion_potential(
    policy: TruncationPolicy, cache: MemoCache | None = None
) -> PotentialSeries:
    """The potential of ``policy`` from the recursion, on ``cache`` or a fresh one."""
    if cache is None:
        cache = MemoCache()
    terms = recursion_terms(admissible_keys(policy), cache)
    return PotentialSeries(TruncatedSeries(policy, terms))
