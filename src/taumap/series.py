"""Exact truncated power series over the moment variables.

Everything downstream works in the polynomial ring

    Q[t0, t1, tbar1, t2, tbar2, ...]

with exact rational coefficients, truncated by a fixed
:class:`TruncationPolicy`.  A monomial is a power of ``t0`` times a product
of ``t_k`` / ``tbar_k`` factors; the *factor degree* of a monomial counts the
``t_k`` and ``tbar_k`` exponents (with multiplicity) and ignores ``t0``.
The policy bounds the indices and the factor degree only: in the potential
the ``t0`` exponent of a term is fixed by its factors, so no ``t0`` cut is
needed.

Design points:

* Barred and unbarred variables are independent formal symbols.  The
  conjugation relation ``tbar_k = conj(t_k)`` enters only through numeric
  :meth:`TruncatedSeries.evaluate`.
* Truncation is a hard filter.  Every arithmetic operation re-truncates the
  result to the common policy, so series stay finite and the exponential of
  a series whose every term carries a variable terminates.
* The single logarithmic term of the potential (``t0^2 log t0``) is never
  represented inside the ring.  The singular part is universal: it is two
  class constants of :class:`PotentialSeries`, and consumers handle it
  symbolically.
* The packing of a monomial into its code is one rule, :class:`_Codec`:
  one bit field per variable, wide enough for ``deg_max``, and the ``t0``
  power on top, so codes add under any admissible product.
* A series is stored packed, as one :class:`_Tail` of orders ``(0, 0)``:
  its terms filed by factor degree (a value fixed when a monomial is
  built) as ``{code: numerator}`` over one common denominator.  Sums,
  scalar products, products, the exponential and derivatives each have
  one implementation, on the tail: a product meets only the degree pairs
  that truncation keeps and its pair loop adds integer codes and
  multiplies integer numerators, and a derivative reads an exponent field
  by shift and mask.  The exponential is one graded rule,
  ``g E_g = sum_k k X_k E_{g-k}`` (:meth:`_Tail.graded_exp_slice`), which
  the potential's Toda solver runs on its degree slices too.  The Toda
  residuals of :mod:`taumap.verify` and the solver expand their wider
  tails with the same class.
* Validation and decoding happen at the boundary.  ``Monomial(...)``
  checks canonical order, and ``TruncatedSeries(policy, terms)`` --
  through which :meth:`TruncatedSeries.filter` goes -- drops
  zero and inadmissible terms, makes every coefficient a ``Fraction`` and
  encodes the monomials.  Ring operations never leave the packed form;
  monomials are decoded and ``Fraction``s made only when the terms are read
  (:meth:`TruncatedSeries.items`, :meth:`TruncatedSeries.coefficient`,
  :meth:`TruncatedSeries.evaluate`).

Series are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, ClassVar, Iterator

__all__ = [
    "Monomial",
    "TruncationPolicy",
    "TruncatedSeries",
    "PotentialSeries",
    "PolicyMismatchError",
    "series_to_json_terms",
]


class PolicyMismatchError(ValueError):
    """Raised when combining series built under different policies."""


@dataclass(frozen=True, order=True)
class TruncationPolicy:
    """Hard truncation bounds for the series ring.

    A monomial is admissible iff every variable index is at most ``n_max``
    and its factor degree is at most ``deg_max``; its ``t0`` exponent is not
    bounded.  Terms outside the policy are silently dropped by all ring
    operations.
    """

    n_max: int
    deg_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0 or self.deg_max < 0:
            raise ValueError("policy bounds must be non-negative")

    def admits(self, m: Monomial) -> bool:
        return m.degree <= self.deg_max and all(
            k <= self.n_max for k, _, _ in m.factors
        )


@dataclass(frozen=True, slots=True)
class Monomial:
    """``t0^a * prod t_k^e * prod tbar_k^e`` with canonically ordered factors.

    ``factors`` holds ``(index, barred, exponent)`` triples, strictly ordered
    by ``(barred, index)``; exponents are >= 1 and no two triples share the
    same variable.  ``degree``, the total factor degree (``t0`` not
    counted), is set once at construction and takes no part in equality,
    hashing or ``repr``.
    """

    t0_power: int = 0
    factors: tuple[tuple[int, bool, int], ...] = ()
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.t0_power < 0:
            raise ValueError("negative t0 power")
        prev = None
        for k, barred, e in self.factors:
            if k < 1 or e < 1:
                raise ValueError(f"bad factor {(k, barred, e)}")
            key = (barred, k)
            if prev is not None and key <= prev:
                raise ValueError("factors not in canonical order")
            prev = key
        object.__setattr__(self, "degree", sum(e for _, _, e in self.factors))

    @classmethod
    def _trusted(
        cls, t0_power: int, factors: tuple[tuple[int, bool, int], ...], degree: int
    ) -> "Monomial":
        """A monomial from parts the ring already knows to be canonical."""
        m = object.__new__(cls)
        object.__setattr__(m, "t0_power", t0_power)
        object.__setattr__(m, "factors", factors)
        object.__setattr__(m, "degree", degree)
        return m

    def sort_key(self):
        return (self.degree, self.t0_power, self.factors)

    def __str__(self) -> str:
        parts = []
        if self.t0_power:
            parts.append(f"t0^{self.t0_power}")
        for k, barred, e in self.factors:
            parts.append(f"{'tbar' if barred else 't'}{k}^{e}")
        return " * ".join(parts) if parts else "1"


class _Codec:
    """The packing of a monomial under a policy into one integer code.

    One bit field per variable -- ``t_1..t_n``, then ``tbar_1..tbar_n``,
    ``n = n_max`` -- each wide enough for ``deg_max``, and the ``t0`` power
    above them.  The fields run in canonical factor order, so
    :meth:`decode` rebuilds the factors in order, and the code of an
    admissible product is the sum of the codes: no field can carry into the
    next while the factor degree stays within ``deg_max``.
    """

    __slots__ = ("n_max", "bits", "mask", "t0_shift", "variables")

    def __init__(self, policy: TruncationPolicy) -> None:
        n = self.n_max = policy.n_max
        self.bits = max(1, policy.deg_max.bit_length())
        self.mask = (1 << self.bits) - 1
        self.t0_shift = 2 * n * self.bits
        # the variable of each field, from the lowest
        self.variables = [(k, False) for k in range(1, n + 1)] + [
            (k, True) for k in range(1, n + 1)
        ]

    def shift(self, k: int, barred: bool = False) -> int:
        """The lowest bit of the field of ``t_k`` (of ``tbar_k`` if ``barred``),
        ``1 <= k <= n_max``."""
        return (k - 1 + (self.n_max if barred else 0)) * self.bits

    def encode(self, m: Monomial) -> int:
        code = m.t0_power << self.t0_shift
        for k, barred, e in m.factors:
            code += e << self.shift(k, barred)
        return code

    def decode(self, code: int) -> Monomial:
        bits, mask, variables = self.bits, self.mask, self.variables
        t0_shift = self.t0_shift
        fields = code & ((1 << t0_shift) - 1)
        factors = []
        degree = 0
        pos = 0
        while fields:
            e = fields & mask
            if e:
                k, barred = variables[pos]
                factors.append((k, barred, e))
                degree += e
            fields >>= bits
            pos += 1
        return Monomial._trusted(code >> t0_shift, tuple(factors), degree)


class _Tail:
    """Polynomial in two tail variables ``u``, ``v`` and the moment variables.

    ``cells`` maps ``(a, b, d)`` -- the bidegree in ``u, v`` and the factor
    degree -- to ``{code: numerator}``, the codes of the policy's
    :class:`_Codec`; the whole tail has the one denominator ``den``, and
    numerators and ``den`` share no common factor, so the form is
    canonical.  Cells beyond ``orders`` or ``deg_max`` are dropped, so a
    product visits only the cell pairs whose sum survives, and its pair loop
    adds integer codes and multiplies integer numerators.  A tail of orders
    ``(0, 0)`` is the storage of a :class:`TruncatedSeries`; series enter a
    wider tail through :meth:`from_series`.
    """

    __slots__ = ("codec", "policy", "orders", "cells", "den")

    def __init__(self, codec, policy, orders, cells, den=1):
        self.codec = codec
        self.policy = policy
        self.orders = orders
        self.cells: dict[tuple[int, int, int], dict[int, int]] = cells
        self.den = den
        self._reduce()

    def _like(self, cells, den=1) -> "_Tail":
        return _Tail(self.codec, self.policy, self.orders, cells, den)

    def _reduce(self) -> None:
        """Drop zero terms and empty cells; divide out the common factor."""
        cells = {}
        g = self.den
        for key, cell in self.cells.items():
            if 0 in cell.values():
                cell = {code: n for code, n in cell.items() if n}
            if cell:
                cells[key] = cell
                if g > 1:
                    g = gcd(g, *cell.values())
        if g > 1:
            cells = {
                key: {code: n // g for code, n in cell.items()}
                for key, cell in cells.items()
            }
        self.cells = cells
        self.den //= g

    @classmethod
    def from_series(
        cls, orders: tuple[int, int], series: dict[tuple[int, int], "TruncatedSeries"]
    ) -> "_Tail":
        """The tail ``sum u^a v^b series[a, b]`` of series under one policy."""
        tails = [s._tail for s in series.values()]
        den = lcm(*(t.den for t in tails))
        cells: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b), t in zip(series, tails):
            f = den // t.den
            for (_, _, d), cell in t.cells.items():
                cells[a, b, d] = {code: n * f for code, n in cell.items()}
        return cls(tails[0].codec, tails[0].policy, orders, cells, den)

    def one(self) -> "_Tail":
        return self._like({(0, 0, 0): {0: 1}})

    def __add__(self, other: "_Tail") -> "_Tail":
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        cells = {
            key: {code: n * f1 for code, n in cell.items()}
            for key, cell in self.cells.items()
        }
        for key, cell in other.cells.items():
            out = cells.setdefault(key, {})
            get = out.get
            for code, n in cell.items():
                out[code] = get(code, 0) + n * f2
        return self._like(cells, den)

    def __sub__(self, other: "_Tail") -> "_Tail":
        return self + other.scaled(-1)

    def scaled(self, q) -> "_Tail":
        q = Fraction(q)
        cells = {
            key: {code: n * q.numerator for code, n in cell.items()}
            for key, cell in self.cells.items()
        }
        return self._like(cells, self.den * q.denominator)

    def shifted(self, da: int, db: int) -> "_Tail":
        """Multiplication by ``u^da v^db``, dropping overflow."""
        amax, bmax = self.orders
        cells = {
            (a + da, b + db, d): cell
            for (a, b, d), cell in self.cells.items()
            if a + da <= amax and b + db <= bmax
        }
        return self._like(cells, self.den)

    def transposed(self) -> "_Tail":
        """The tail with ``u`` and ``v`` exchanged, for equal orders."""
        cells = {(b, a, d): cell for (a, b, d), cell in self.cells.items()}
        return self._like(cells, self.den)

    def __mul__(self, other: "_Tail") -> "_Tail":
        return self.products([(1, self, other)])

    def products(self, terms, dead=None) -> "_Tail":
        """``sum q * left * right`` over ``terms`` of ``(q, left, right)``, a
        tail like ``self``.

        Every product goes into one integer accumulator over one common
        denominator, each ``q`` folded into its left numerators, and the sum
        is reduced once.  ``dead(a, b)``, if given, is a code mask for the
        cell ``(a, b)`` of the result: a left or right term whose code meets
        it is left out of that cell's products.  Each cell is filtered once
        per mask.
        """
        amax, bmax = self.orders
        deg_max = self.policy.deg_max
        scales = [Fraction(q) / (left.den * right.den) for q, left, right in terms]
        den = lcm(*(s.denominator for s in scales))
        acc: dict[tuple[int, int, int], dict[int, int]] = {}
        # (id of a right cell, mask): its terms outside the mask; the
        # operands hold the cells, so no id is reused during the call
        rights: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for s, (_, lhs, rhs) in zip(scales, terms):
            w = s.numerator * (den // s.denominator)
            for (a1, b1, d1), left in lhs.cells.items():
                # mask: the scaled terms of this left cell outside the mask
                lefts: dict[int, list[tuple[int, int]]] = {}
                for (a2, b2, d2), right in rhs.cells.items():
                    a, b, d = a1 + a2, b1 + b2, d1 + d2
                    if a > amax or b > bmax or d > deg_max:
                        continue
                    mask = dead(a, b) if dead else 0
                    left_items = lefts.get(mask)
                    if left_items is None:
                        left_items = lefts[mask] = [
                            (c, n * w) for c, n in left.items() if not c & mask
                        ]
                    if not left_items:
                        continue
                    if mask:
                        right_items = rights.get((id(right), mask))
                        if right_items is None:
                            right_items = rights[id(right), mask] = [
                                (c, n) for c, n in right.items() if not c & mask
                            ]
                        if not right_items:
                            continue
                    else:
                        right_items = right.items()
                    out = acc.setdefault((a, b, d), {})
                    get = out.get
                    for code1, n1 in left_items:
                        for code2, n2 in right_items:
                            key = code1 + code2
                            out[key] = get(key, 0) + n1 * n2
        return self._like(acc, den)

    def exp(self) -> "_Tail":
        """``exp(self)`` for a tail with no term in the cell ``(0, 0, 0)``.

        ``g = a + b + d`` grades the cells: products add it, and no cell
        beyond ``sum(orders) + deg_max`` survives.  The slices ``E_g`` of
        the exponential come from :meth:`graded_exp_slice` and fill
        disjoint cells, so the exponential is their union over one common
        denominator.
        """
        if (0, 0, 0) in self.cells:
            raise ValueError("exp requires every term to carry a variable")
        top = sum(self.orders) + self.policy.deg_max
        slices: list[dict] = [{} for _ in range(top + 1)]
        for (a, b, d), cell in self.cells.items():
            slices[a + b + d][a, b, d] = cell
        x = [self._like(cells, self.den) for cells in slices]
        e = [self.one()]
        for _ in range(top):
            e.append(self.graded_exp_slice(x, e))
        den = lcm(*(s.den for s in e))
        cells = {}
        for s in e:
            f = den // s.den
            for key, cell in s.cells.items():
                cells[key] = {code: n * f for code, n in cell.items()}
        return self._like(cells, den)

    def graded_exp_slice(self, x: list["_Tail"], e: list["_Tail"], dead=None) -> "_Tail":
        """The next slice ``E_g``, ``g = len(e)``, of ``E = exp(X)`` under a
        grading that products add: ``E_g = (1/g) sum_{k=1..g} k X_k E_{g-k}``
        from the slices ``x[k]`` of ``X`` (which has none of grade 0) and the
        slices ``e`` of ``E`` already known, a tail like ``self``; ``dead``
        goes to :meth:`products`."""
        g = len(e)
        terms = [(Fraction(k, g), x[k], e[g - k]) for k in range(1, g + 1)]
        return self.products(terms, dead)

    def diff_t0(self) -> "_Tail":
        """The derivative in ``t0``, whose power is the field above the others."""
        return self._lowered(self.codec.t0_shift, -1, 0)

    def diff_t(self, k: int, barred: bool = False) -> "_Tail":
        """The derivative in ``t_k`` or ``tbar_k``; an index outside
        ``1..n_max`` gives zero."""
        codec = self.codec
        if not 1 <= k <= codec.n_max:
            return self._like({})
        return self._lowered(codec.shift(k, barred), codec.mask, 1)

    def _lowered(self, shift: int, mask: int, drop: int) -> "_Tail":
        """The derivative in the variable of the field at ``shift``: each
        term's exponent ``e = (code >> shift) & mask`` (``mask`` -1 reads the
        ``t0`` power) comes down as a factor and leaves ``code - 2^shift``,
        ``drop`` factor degrees lower."""
        unit = 1 << shift
        cells = {}
        for (a, b, d), cell in self.cells.items():
            out = cells[a, b, d - drop] = {}
            for code, n in cell.items():
                e = (code >> shift) & mask
                if e:
                    out[code - unit] = n * e
        return self._like(cells, self.den)


class TruncatedSeries:
    """Finite formal sum of ``Fraction`` multiples of monomials under a fixed
    policy, stored as one :class:`_Tail` of orders ``(0, 0)``."""

    __slots__ = ("policy", "_tail")

    def __init__(
        self,
        policy: TruncationPolicy,
        terms: dict[Monomial, Fraction] | None = None,
    ) -> None:
        self.policy = policy
        codec = _Codec(policy)
        clean = [
            (m, c if type(c) is Fraction else Fraction(c))
            for m, c in (terms or {}).items()
            if c and policy.admits(m)
        ]
        den = lcm(*(c.denominator for _, c in clean))
        cells: dict[tuple[int, int, int], dict[int, int]] = {}
        for m, c in clean:
            cell = cells.setdefault((0, 0, m.degree), {})
            cell[codec.encode(m)] = c.numerator * (den // c.denominator)
        self._tail = _Tail(codec, policy, (0, 0), cells, den)

    @classmethod
    def _of(cls, tail: _Tail) -> "TruncatedSeries":
        """The series a tail of orders ``(0, 0)`` stores."""
        out = object.__new__(cls)
        out.policy = tail.policy
        out._tail = tail
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, policy: TruncationPolicy) -> "TruncatedSeries":
        return cls(policy)

    @classmethod
    def constant(cls, policy: TruncationPolicy, c) -> "TruncatedSeries":
        return cls(policy, {Monomial(): Fraction(c)})

    @classmethod
    def variable(
        cls, policy: TruncationPolicy, index: int, barred: bool = False
    ) -> "TruncatedSeries":
        """The series ``t_index`` (or ``tbar_index``)."""
        return cls(policy, {Monomial(0, ((index, barred, 1),)): Fraction(1)})

    @classmethod
    def t0(cls, policy: TruncationPolicy, power: int = 1) -> "TruncatedSeries":
        return cls(policy, {Monomial(power, ()): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        """The terms, decoded, grouped by factor degree."""
        decode, den = self._tail.codec.decode, self._tail.den
        for cell in self._tail.cells.values():
            for code, n in cell.items():
                yield decode(code), Fraction(n, den)

    def sorted_items(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, m: Monomial) -> Fraction:
        # an inadmissible monomial has no code: t_{n_max+1} would encode
        # onto the field of tbar_1
        if not self.policy.admits(m):
            return Fraction(0)
        tail = self._tail
        n = tail.cells.get((0, 0, m.degree), {}).get(tail.codec.encode(m), 0)
        return Fraction(n, tail.den)

    def __len__(self) -> int:
        return sum(map(len, self._tail.cells.values()))

    def __bool__(self) -> bool:
        return bool(self._tail.cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._tail, other._tail
        return self.policy == other.policy and a.den == b.den and a.cells == b.cells

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    def __str__(self) -> str:
        if not self:
            return "0"
        return " + ".join(f"({c}) {m}" for m, c in self.sorted_items())

    def filter(self, keep: Callable[[Monomial], bool]) -> "TruncatedSeries":
        return TruncatedSeries(self.policy, {m: c for m, c in self.items() if keep(m)})

    # -- ring operations ---------------------------------------------------

    def _operand(self, other) -> "_Tail":
        """The tail of a series under the same policy, or of a constant."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.policy, other)
        elif self.policy != other.policy:
            raise PolicyMismatchError(
                f"policy mismatch: {self.policy} vs {other.policy}"
            )
        return other._tail

    def __add__(self, other) -> "TruncatedSeries":
        return TruncatedSeries._of(self._tail + self._operand(other))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self._tail.scaled(-1))

    def __sub__(self, other) -> "TruncatedSeries":
        return TruncatedSeries._of(self._tail - self._operand(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return TruncatedSeries._of(self._operand(other) - self._tail)

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries._of(self._tail.scaled(other))
        return TruncatedSeries._of(self._tail * self._operand(other))

    __rmul__ = __mul__

    def exp_no_constant(self) -> "TruncatedSeries":
        """``exp(self)`` for a series whose every term carries a variable.

        It is the graded rule of :meth:`_Tail.exp`, graded by factor degree.
        A term of factor degree 0 (the constant or a pure ``t0`` power)
        raises ``ValueError``.
        """
        return TruncatedSeries._of(self._tail.exp())

    # -- calculus ----------------------------------------------------------

    def diff_t0(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self._tail.diff_t0())

    def diff_t(self, k: int, barred: bool = False) -> "TruncatedSeries":
        """Formal partial derivative with respect to ``t_k`` or ``tbar_k``."""
        return TruncatedSeries._of(self._tail.diff_t(k, barred))

    def diff_tbar(self, k: int) -> "TruncatedSeries":
        return self.diff_t(k, barred=True)

    # -- numerics ----------------------------------------------------------

    def evaluate(self, moments) -> complex:
        """Numeric value at a moment vector, in complex binary64.

        ``moments`` needs attributes ``t0`` (real) and ``t`` (sequence of
        complex); ``tbar_k`` receives ``conj(t[k-1])``.  Raises
        ``IndexError`` when a series index exceeds the vector length.
        """
        t0 = moments.t0
        t = moments.t
        total = 0j
        for m, c in self.items():
            v = complex(c) * t0**m.t0_power
            for k, barred, e in m.factors:
                if k > len(t):
                    raise IndexError(
                        f"series uses index {k} but only {len(t)} moments given"
                    )
                x = complex(t[k - 1])
                if barred:
                    x = x.conjugate()
                v *= x**e
            total += v
        return total


@dataclass(frozen=True)
class PotentialSeries:
    """The potential: its universal singular part and a regular series.

    The full potential is

        1/2 t0^2 log(t0) - 3/4 t0^2 + regular

    The singular part is the same for every domain, so its two coefficients
    are the class constants ``singular_log_coeff`` and
    ``singular_quad_coeff``; the map and the mixed residual read it only
    through ``exp(d0^2 (1/2 t0^2 log t0 - 3/4 t0^2)) = t0``.  ``regular`` is
    an ordinary :class:`TruncatedSeries` whose monomials each contain at
    least one unbarred and at least one barred factor.

    The map reads only ``A = d0^2 F_reg`` and ``B_k = d0 d_k F_reg``,
    ``k <= n_max`` (:func:`taumap.confmap.map_from_potential`).
    """

    singular_log_coeff: ClassVar[Fraction] = Fraction(1, 2)
    singular_quad_coeff: ClassVar[Fraction] = Fraction(-3, 4)

    regular: TruncatedSeries
    # The float kernel of the map's second derivatives, compiled by
    # ``taumap.confmap.map_from_potential`` on its first call and then only
    # read; threads that race to compile it build equal kernels.
    _map_kernel: object = field(default=None, init=False, repr=False, compare=False)


# -- serialization ---------------------------------------------------------

def series_to_json_terms(s: TruncatedSeries) -> list[dict]:
    """JSON form: array of ``{t0, factors, num, den}`` objects.

    ``factors`` is an array of ``[index, barred(0|1), exponent]`` triples in
    canonical order.  Integers only, so the round trip is bit exact.
    """
    return [
        {
            "t0": m.t0_power,
            "factors": [[k, int(b), e] for k, b, e in m.factors],
            "num": c.numerator,
            "den": c.denominator,
        }
        for m, c in s.sorted_items()
    ]
