"""The paper's coefficient recursion summed key by key, as a reference build.

``build_potential`` solves the mixed Toda equation and never evaluates a
coefficient key.  The tests that inject a different window weight into the
recursion (negative controls), or that pin how the recursion uses its
memo tables, build their potential here instead: every key of
``taumap.potential._admissible_keys``, oriented by
``taumap.potential._oriented``, evaluated on one cache.
"""

from __future__ import annotations

from fractions import Fraction

from taumap.coefficients import MemoCache
from taumap.potential import (
    _admissible_keys,
    _monomial_for,
    _oriented,
    _term_coefficient,
)
from taumap.series import PotentialSeries, TruncatedSeries


def recursion_terms(keys, cache):
    """The nonzero terms of ``keys``, ``(key, t0_power)`` pairs, each key
    evaluated in the orientation ``_oriented`` picks."""
    terms = {}
    for key, t0_power in keys:
        coeff = _term_coefficient(_oriented(key), cache)
        if coeff:
            terms[_monomial_for(key, t0_power)] = coeff
    return terms


def recursion_potential(policy, cache=None):
    """The potential of ``policy`` from the recursion over its keys."""
    if cache is None:
        cache = MemoCache()
    terms = recursion_terms(_admissible_keys(policy), cache)
    return PotentialSeries(Fraction(1, 2), Fraction(-3, 4), TruncatedSeries(policy, terms))
