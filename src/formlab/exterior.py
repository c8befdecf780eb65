"""Sparse exterior algebra over exact rationals.

Alternating tensors of degree k on R^n are finite maps from strictly
increasing 1-based multi-indices to nonzero rationals.  Form is covariant
(basis e^{i1...ik}), Polyvector is contravariant (basis e_{i1...ik}).  Each
is stored as nonzero int numerators, nums, over one divisor, den, the least
positive integer that clears every denominator, so equal tensors store
equal (nums, den).  terms is their Fraction view, built anew on each read:
a loop reads it once, or reads nums.

The value types Form, Polyvector, LinMap, VolumeForm and InnerProduct are
frozen dataclasses that keep their own __slots__, validating __init__ and
__repr__; assigning any attribute raises AttributeError.  InnerProduct
compares by identity, the others by value.

Conventions, fixed once and used everywhere:

* The interior product contracts the first slot:
  i_v(e^{i1...ik}) = sum_j (-1)^(j-1) v^{i_j} e^{...without i_j...},
  which makes i_v an antiderivation of degree -1.
* multi_interior applies the factors of a decomposable polyvector in
  ascending order: i_{v1 ^ ... ^ vj} = i_{vj} o ... o i_{v1}.
* The left action of g on forms is pullback by g inverse, so that
  act(g1, act(g2, phi)) == act(g1 @ g2, phi).  On polyvectors the action is
  the direct image (g applied to every slot).

The sign and bitmask rules of multi-indices are worked out here alone;
invariants, classify and sampling import them:

* normalize_index sorts an index sequence and returns the sign of the
  sorting permutation, or None when an index repeats.  That is the sign of
  a permutation and the Koszul sign of wedge.
* contract_sign removes indices by the first-slot rule above.
* _mask numbers a multi-index by its bitmask, index i being bit i - 1, and
  _index reads one back.  _inserted inserts an index into a bitmask, signed
  by the parity of the indices above it.

LinMap and InnerProduct store their matrix as integer rows over one
divisor too, and every action is one substitution kernel, _substitute,
which replaces each basis covector by a row of the matrix.  It runs on
Python ints: the tensor and the rows come as stored, or g inverse straight
from its Bareiss pass (linalg._inverse_int), and its ints over one divisor
are reduced by one gcd (_from_clean), unvalidated.  It removes the old
indices level by level, last slot first, so inserting j among the m other
slots at position p gives the sign (-1)^(m - p), read from a table of
subsets per n that is filled as pairs are met (see _INSERTS).

All arithmetic is exact; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Scalar,
    _inverse_int,
    _scale_to_int,
    as_fraction,
    det_fraction,
    inertia_fraction,
)

Rat = Fraction
MultiIndex = tuple[int, ...]

__all__ = [
    "Rat",
    "MultiIndex",
    "FormError",
    "DimensionMismatch",
    "DegreeError",
    "SingularMatrix",
    "OrientationError",
    "normalize_index",
    "contract_sign",
    "Form",
    "Polyvector",
    "LinMap",
    "VolumeForm",
    "InnerProduct",
    "wedge",
    "interior",
    "multi_interior",
    "act",
    "pullback",
    "act_vectors",
    "twisted_act",
    "poincare",
    "poincare_inv",
    "musical",
    "musical_inv",
]


class FormError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionMismatch(FormError):
    pass


class DegreeError(FormError):
    pass


class SingularMatrix(FormError):
    pass


class OrientationError(FormError):
    """Raised when an operation needs det > 0 and the matrix fails that."""


def normalize_index(seq: Sequence[int]) -> tuple[MultiIndex, int] | None:
    """Sort a multi-index, returning (sorted tuple, permutation sign).

    Returns None when an index repeats (the alternating tensor vanishes).
    """
    idx = list(seq)
    sign = 1
    for a in range(1, len(idx)):
        v = idx[a]
        b = a
        while b > 0 and idx[b - 1] > v:
            idx[b] = idx[b - 1]
            b -= 1
            sign = -sign
        idx[b] = v
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return None
    return tuple(idx), sign


def contract_sign(outer: MultiIndex, inner: MultiIndex) -> tuple[MultiIndex, int] | None:
    """Contract basis vectors `inner` (ascending) into the basis form `outer`.

    Returns (remaining indices, sign) or None when inner is not a subset.
    Each step removes one index and contributes (-1)^(position) with the
    position counted from 0 in what remains, matching the first-slot rule.
    """
    rest = list(outer)
    sign = 1
    for j in inner:
        try:
            p = rest.index(j)
        except ValueError:
            return None
        if p % 2:
            sign = -sign
        del rest[p]
    return tuple(rest), sign


def _clean_terms(
    n: int, k: int, terms: Mapping[MultiIndex, Scalar] | Iterable[tuple[MultiIndex, Scalar]]
) -> dict[MultiIndex, Scalar]:
    """Validated terms as a dict: repeated indices summed, zeros dropped, ints kept as ints."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    out: dict[MultiIndex, Scalar] = {}
    for idx, c in items:
        idx = tuple(idx)
        if len(idx) != k:
            raise DegreeError(f"index {idx} has length {len(idx)}, expected {k}")
        prev = 0
        for i in idx:
            if not isinstance(i, int) or i <= prev or i > n:
                raise FormError(f"index {idx} is not strictly increasing within 1..{n}")
            prev = i
        if type(c) is not int:
            c = as_fraction(c)
        if c:
            acc = out.get(idx)
            if acc is None:
                out[idx] = c
            else:
                acc = acc + c
                if acc:
                    out[idx] = acc
                else:
                    del out[idx]
    return out


# Not slots=True: the class it rebuilds is not the one the generated
# __setattr__ refers to, so assigning a name that is no field raises TypeError.
@dataclass(frozen=True, init=False, repr=False)
class _Alternating:
    """Shared storage and linear structure of Form and Polyvector.

    Stored as int nums over den, as LinMap stores rows; terms is built when read.
    """

    __slots__ = ("n", "k", "nums", "den")
    n: int
    k: int
    nums: Mapping[MultiIndex, int]
    den: int

    def __init__(
        self,
        n: int,
        k: int,
        terms: Mapping[MultiIndex, Scalar] | Iterable[tuple[MultiIndex, Scalar]] = (),
    ):
        if n < 0 or k < 0:
            raise FormError("dimension and degree must be nonnegative")
        # Degrees above n only house the zero tensor (the wedge truncation
        # rule can produce them): _clean_terms rejects every index there.
        cleaned = _clean_terms(n, k, terms)
        den = lcm(*{c.denominator for c in cleaned.values()})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        nums = {i: c.numerator * (den // c.denominator) for i, c in cleaned.items()}
        object.__setattr__(self, "nums", MappingProxyType(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_clean(cls, n: int, k: int, nums: dict[MultiIndex, int], d: int):
        """Wrap nonzero ints at valid indices over any d != 0, reduced by one gcd, unchecked."""
        g = gcd(d, *nums.values()) * (-1 if d < 0 else 1)
        if g != 1:
            nums = {i: c // g for i, c in nums.items()}
        self = cls(n, k)
        object.__setattr__(self, "nums", MappingProxyType(nums))
        object.__setattr__(self, "den", d // g)
        return self

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        return MappingProxyType({i: Fraction(c, self.den) for i, c in self.nums.items()})

    @classmethod
    def zero(cls, n: int, k: int):
        return cls(n, k)

    @classmethod
    def basis(cls, n: int, idx: Sequence[int], coeff: Scalar = 1):
        idx = tuple(idx)
        norm = normalize_index(idx)
        if norm is None:
            return cls(n, len(idx))
        sorted_idx, sign = norm
        return cls(n, len(sorted_idx), {sorted_idx: sign * as_fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, idx: Sequence[int]) -> Fraction:
        return Fraction(self.nums.get(tuple(idx), 0), self.den)

    def items(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self.terms.items())

    def _require_peer(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.n != self.n:
            raise DimensionMismatch(f"dimension {other.n} != {self.n}")
        if other.k != self.k:
            raise DegreeError(f"degree {other.k} != {self.k}")

    def __add__(self, other):
        self._require_peer(other)
        return type(self)(self.n, self.k, [*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._from_clean(self.n, self.k, dict(self.nums), -self.den)

    def scaled(self, c: Scalar):
        c = as_fraction(c)
        if not c:
            return type(self)(self.n, self.k)
        return type(self)(self.n, self.k, {i: c * v for i, v in self.terms.items()})

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self.scaled(Fraction(1) / as_fraction(c))

    def __hash__(self):
        # nums is a mappingproxy, which does not hash
        return hash((type(self).__name__, self.n, self.k, frozenset(self.nums.items()), self.den))

    def __reduce__(self):
        return type(self), (self.n, self.k, dict(self.terms))

    def _basis_symbol(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        if not self.nums:
            return f"{type(self).__name__}({self.n}, {self.k}, 0)"
        sym = self._basis_symbol()
        parts = []
        for idx, c in self.items():
            label = sym + "{" + ",".join(map(str, idx)) + "}" if idx else "1"
            parts.append(f"{c}*{label}" if idx else f"{c}")
        return f"{type(self).__name__}({self.n}, {self.k}, {' + '.join(parts)})"


class Form(_Alternating):
    """Alternating k-form on R^n with exact rational coefficients."""

    __slots__ = ()

    def _basis_symbol(self) -> str:
        return "e^"


class Polyvector(_Alternating):
    """Alternating k-vector on R^n with exact rational coefficients."""

    __slots__ = ()

    def _basis_symbol(self) -> str:
        return "e_"

    @classmethod
    def from_coords(cls, coords: Sequence[Scalar]) -> "Polyvector":
        """Degree-1 vector from a coordinate list."""
        n = len(coords)
        return cls(n, 1, {(i + 1,): as_fraction(c) for i, c in enumerate(coords) if c})

    def coords(self) -> list[Fraction]:
        if self.k != 1:
            raise DegreeError("coords() needs a degree-1 vector")
        return [self.coeff((i,)) for i in range(1, self.n + 1)]


@dataclass(frozen=True, init=False, repr=False)
class LinMap:
    """Square rational matrix with a cached determinant.

    Represents both group elements g in GL(n, Q) and algebra elements
    A in gl(n, Q); rows index the output, columns the input.  Stored as int
    rows over den, the least positive integer clearing every denominator, so
    equal matrices store equal (rows, den); entries is built when read.
    """

    __slots__ = ("n", "rows", "den", "det")
    n: int
    rows: tuple[tuple[int, ...], ...]
    den: int
    det: Fraction

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        n = len(entries)
        rows, den = _scale_to_int(entries)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "n", n)
        # from lists, not generators: see _substitute
        object.__setattr__(self, "rows", tuple([tuple(row) for row in rows]))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "det", det_fraction(rows) / den**n)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fractions(self.rows, self.den)

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, n: int) -> "LinMap":
        # immutable, so one instance per n serves every caller and its
        # determinant is eliminated once
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag: Sequence[Scalar]) -> "LinMap":
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalar]]) -> "LinMap":
        n = len(cols)
        return cls([[cols[j][i] for j in range(n)] for i in range(n)])

    @property
    def is_invertible(self) -> bool:
        return self.det != 0

    def inverse(self) -> "LinMap":
        if not self.det:
            raise SingularMatrix("matrix is singular")
        return LinMap(_fractions(*_inverse_over_divisor(self)))

    def transpose(self) -> "LinMap":
        return LinMap(_fractions(zip(*self.rows), self.den))

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if not isinstance(other, LinMap):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(f"dimension {other.n} != {self.n}")
        cols = list(zip(*other.rows))
        prods = [[sum(map(mul, row, col)) for col in cols] for row in self.rows]
        return LinMap(_fractions(prods, self.den * other.den))

    def apply(self, v: Polyvector) -> Polyvector:
        """Image of a degree-1 vector."""
        if v.k != 1:
            raise DegreeError("apply() needs a degree-1 vector")
        if v.n != self.n:
            raise DimensionMismatch(f"dimension {v.n} != {self.n}")
        coords = v.coords()
        return Polyvector.from_coords([sum(map(mul, row, coords)) / self.den for row in self.rows])

    def __reduce__(self):
        return LinMap, (self.entries,)

    def __repr__(self):
        return f"LinMap({[[str(x) for x in row] for row in self.entries]})"


def _fractions(rows, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix rows / den as Fractions; den may be negative."""
    return tuple([tuple([Fraction(x, den) for x in row]) for row in rows])


def _inverse_over_divisor(m) -> tuple[list[list[int]], int]:
    """Int rows over one divisor: m^-1 = (den * X) / d for (X, d) = _inverse_int(rows)."""
    X, d = _inverse_int(m.rows)
    return [[m.den * x for x in row] for row in X], d


@dataclass(frozen=True, init=False, repr=False)
class VolumeForm:
    """A nonzero multiple of e^{1...n}; the reference volume for duality."""

    __slots__ = ("n", "scale")
    n: int
    scale: Fraction

    def __init__(self, n: int, scale: Scalar = 1):
        scale = as_fraction(scale)
        if not scale:
            raise FormError("volume form must be nonzero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scale", scale)

    def as_form(self) -> Form:
        return Form(self.n, self.n, {tuple(range(1, self.n + 1)): self.scale})

    def __reduce__(self):
        return VolumeForm, (self.n, self.scale)

    def __repr__(self):
        return f"VolumeForm({self.n}, {self.scale})"


@dataclass(frozen=True, init=False, repr=False, eq=False)
class InnerProduct:
    """Symmetric positive-definite rational matrix; checked on construction.

    Stored as int rows over den, as in LinMap; matrix is built when read.
    Compared by identity.
    """

    __slots__ = ("n", "rows", "den")
    n: int
    rows: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, matrix: Sequence[Sequence[Scalar]]):
        n = len(matrix)
        ints, den = _scale_to_int(matrix)
        if any(len(row) != n for row in ints):
            raise DimensionMismatch("inner product matrix must be square")
        rows = tuple([tuple(row) for row in ints])
        if rows != tuple(zip(*rows)):
            raise FormError("inner product matrix must be symmetric")
        # Sylvester's law of inertia: positive definite means n positive
        # squares in any congruent diagonal form.
        if inertia_fraction(ints) != (n, 0, 0):
            raise FormError("inner product matrix must be positive definite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "den", den)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fractions(self.rows, self.den)

    @classmethod
    def identity(cls, n: int) -> "InnerProduct":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def is_identity(self) -> bool:
        return self.den == 1 and self.rows == LinMap.identity(self.n).rows

    def __reduce__(self):
        return InnerProduct, (self.matrix,)

    def __repr__(self):
        return f"InnerProduct({[[str(x) for x in row] for row in self.matrix]})"


def wedge(a: _Alternating, b: _Alternating) -> _Alternating:
    """Exterior product of two forms or two polyvectors.

    Degrees add; when they exceed n the result is the zero tensor of that
    degree, which is the whole of the exterior power there.  e^I ^ e^J is
    the sorted I + J signed by normalize_index, zero when I and J meet.
    """
    if type(a) is not type(b):
        raise TypeError("wedge needs two tensors of the same variance")
    if a.n != b.n:
        raise DimensionMismatch(f"dimension {b.n} != {a.n}")
    k = a.k + b.k
    if k > a.n:
        return type(a)(a.n, k)
    out: list[tuple[MultiIndex, Fraction]] = []
    b_terms = b.terms.items()
    for ia, ca in a.terms.items():
        for ib, cb in b_terms:
            merged = normalize_index(ia + ib)
            if merged is not None:
                idx, sign = merged
                out.append((idx, sign * ca * cb))
    return type(a)(a.n, k, out)


def interior(v: Polyvector, phi: Form) -> Form:
    """Contraction i_v(phi) of a degree-1 vector against the first slot."""
    if not isinstance(v, Polyvector) or v.k != 1:
        raise DegreeError("interior needs a degree-1 polyvector")
    if not isinstance(phi, Form):
        raise TypeError("interior needs a Form")
    if v.n != phi.n:
        raise DimensionMismatch(f"dimension {v.n} != {phi.n}")
    if phi.k < 1:
        raise DegreeError("cannot contract a 0-form")
    return multi_interior(v, phi)


def multi_interior(X: Polyvector, phi: Form) -> Form:
    """Iterated contraction; on decomposables i_{v1^...^vj} = i_{vj} o ... o i_{v1}."""
    if not isinstance(X, Polyvector) or not isinstance(phi, Form):
        raise TypeError("multi_interior needs a Polyvector and a Form")
    if X.n != phi.n:
        raise DimensionMismatch(f"dimension {X.n} != {phi.n}")
    if X.k > phi.k:
        raise DegreeError(f"cannot contract degree {X.k} into degree {phi.k}")
    out: list[tuple[MultiIndex, Fraction]] = []
    phi_terms = phi.terms.items()
    for jdx, xc in X.terms.items():
        for idx, c in phi_terms:
            hit = contract_sign(idx, jdx)
            if hit is not None:
                rest, sign = hit
                out.append((rest, sign * xc * c))
    return Form(phi.n, phi.k - X.k, out)


# The subset tables, shared by every call of _substitute.  A subset S of
# {1..n} is numbered by its bitmask, index j being bit j - 1, so the empty
# set is 0, which no insertion returns.  _INSERTS[n][S] is a list over
# j = 1..n: +-(S with j inserted), signed by (-1)^(number of entries of S
# above j), or 0 when j is already in S, or None until the pair (S, j) is
# first met.  A list is made only for an S that is extended, not for one
# that is only an output.  _TUPLES[S] is S as an ascending tuple, made the
# first time S is an output.  Every entry is a function of its key alone, so
# the tables cache no result, and a race between threads can only repeat a
# fill, never change an answer.  _INSERTS[n] holds at most 2^n subsets of
# n + 1 slots.
_INSERTS: dict[int, dict[int, list[int | None]]] = {}
_TUPLES: dict[int, MultiIndex] = {}


def _mask(idx: MultiIndex) -> int:
    """The bitmask of a multi-index: index i is bit i - 1."""
    return sum([1 << i for i in idx]) >> 1


def _index(mask: int) -> MultiIndex:
    """The ascending multi-index with bitmask mask; inverse of _mask."""
    return tuple([i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1])


def _inserted(s: int, j: int) -> int:
    """The entry for inserting j into the subset with bitmask s: 0 when j is
    in s, else +-(s with j), signed by the parity of the entries above j."""
    bit = 1 << (j - 1)
    if s & bit:
        return 0
    return -(s | bit) if (s >> j).bit_count() % 2 else s | bit


def _substitute(t: _Alternating, int_rows, d: int) -> tuple[dict[MultiIndex, int], int]:
    """Replace every e^i by sum_j int_rows[i-1][j-1] / d e^j in t: (nums, div).

    The work runs on Python ints: the rows share one divisor d != 0 and t
    is read as stored, nums over den, so every output term of degree k
    carries the factor den * d^k.  The result is nonzero ints at ascending
    k-tuples within 1..n over div, for _from_clean to reduce.

    The old indices are removed level by level.  Level L holds the terms
    that still have L old indices, as T -> {S: coefficient}: T is the tuple
    of old indices left and S the bitmask of the new indices inserted so far
    (see _INSERTS).  Level k is the input, with every S empty.  Replacing
    the last old index i of T by row i sends c at (T, S) to +-c * x at
    (T[:-1], S + {j}) for each nonzero x = row[j] with j not in S.  In the
    slots S, T the replaced one is the last, so inserting j at position
    p = #{s in S : s < j} of the other m = |S| + |T| - 1 slots gives the
    sign (-1)^(m - p), which is (-1)^(|S| - p) * (-1)^(|T| - 1).  The subset
    table holds the first factor.  The second is the same for every term of
    a level, so over the k levels it is (-1)^(k(k-1)/2) for every term,
    folded into the divisor.  After k levels T is empty, and each S becomes
    its tuple once.
    """
    if not t.nums:
        return {}, 1
    # Tuples here are built from slices and lists, not generators: a tuple
    # grown from a generator is freed into the interpreter's free list of
    # another size, which fills up and holds memory on integer workloads,
    # where the cyclic collector that would empty it seldom runs.
    n, k = t.n, t.k
    level = {idx: {0: c} for idx, c in t.nums.items()}
    nonzero = [[(j, x) for j, x in enumerate(row, 1) if x] for row in int_rows]
    table = _INSERTS.setdefault(n, {})
    for _ in range(k):
        below: dict[MultiIndex, dict[int, int]] = {}
        for T, inner in level.items():
            row = nonzero[T[-1] - 1]
            if not row:
                continue
            rest = T[:-1]
            acc = below.get(rest)
            if acc is None:
                acc = below[rest] = {}
            for s, c in inner.items():
                if not c:
                    continue
                ins = table.get(s)
                if ins is None:
                    ins = table[s] = [None] * (n + 1)
                for j, x in row:
                    v = ins[j]
                    if v is None:
                        v = ins[j] = _inserted(s, j)
                    if v > 0:
                        acc[v] = acc.get(v, 0) + c * x
                    elif v:
                        acc[-v] = acc.get(-v, 0) - c * x
        level = below
    div = t.den * d**k
    if k * (k - 1) // 2 % 2:
        div = -div
    out = {}
    for s, c in level.get((), {}).items():
        if c:
            idx = _TUPLES.get(s)
            if idx is None:
                idx = _TUPLES[s] = _index(s)
            out[idx] = c
    return out, div


def act(g: LinMap, phi: Form) -> Form:
    """Left action of g on forms: pullback by g inverse."""
    if not isinstance(phi, Form):
        raise TypeError("act needs a Form; use act_vectors for polyvectors")
    if g.n != phi.n:
        raise DimensionMismatch(f"dimension {g.n} != {phi.n}")
    if not g.det:
        raise SingularMatrix("group element must be invertible")
    return Form._from_clean(phi.n, phi.k, *_substitute(phi, *_inverse_over_divisor(g)))


def pullback(m: LinMap, phi: Form) -> Form:
    """Raw pullback m^*(phi); not a left action.  act(g, .) == pullback(g.inverse(), .)."""
    if not isinstance(phi, Form):
        raise TypeError("pullback needs a Form")
    if m.n != phi.n:
        raise DimensionMismatch(f"dimension {m.n} != {phi.n}")
    return Form._from_clean(phi.n, phi.k, *_substitute(phi, m.rows, m.den))


def act_vectors(g: LinMap, x: Polyvector) -> Polyvector:
    """Direct image of a polyvector: g applied to every slot."""
    if not isinstance(x, Polyvector):
        raise TypeError("act_vectors needs a Polyvector")
    if g.n != x.n:
        raise DimensionMismatch(f"dimension {g.n} != {x.n}")
    if not g.det:
        raise SingularMatrix("group element must be invertible")
    cols = list(zip(*g.rows))
    return Polyvector._from_clean(x.n, x.k, *_substitute(x, cols, g.den))


def twisted_act(g: LinMap, lam: int, phi: Form) -> Form:
    """The lambda-twisted action (det g)^lambda * act(g, phi); needs det g > 0."""
    if g.det <= 0:
        raise OrientationError("twisted action is defined on the det > 0 component")
    result = act(g, phi)
    if lam:
        result = result.scaled(g.det**lam)
    return result


def poincare(omega: VolumeForm, xi: Polyvector) -> Form:
    """Contraction of a k-vector into the volume form: xi -> i_xi(omega)."""
    if xi.n != omega.n:
        raise DimensionMismatch(f"dimension {xi.n} != {omega.n}")
    return multi_interior(xi, omega.as_form())


def poincare_inv(omega: VolumeForm, psi: Form) -> Polyvector:
    """The unique xi with poincare(omega, xi) == psi; degree n - psi.k."""
    if psi.n != omega.n:
        raise DimensionMismatch(f"dimension {psi.n} != {omega.n}")
    n = omega.n
    full = tuple(range(1, n + 1))
    out: dict[MultiIndex, Fraction] = {}
    for jdx, c in psi.terms.items():
        comp = tuple([i for i in full if i not in jdx])
        rest, sign = contract_sign(full, comp)
        assert rest == jdx
        out[comp] = c / (sign * omega.scale)
    return Polyvector(n, n - psi.k, out)


def musical(mu: InnerProduct, x: Polyvector) -> Form:
    """Lower every slot with mu: the flat isomorphism on polyvectors."""
    if x.n != mu.n:
        raise DimensionMismatch(f"dimension {x.n} != {mu.n}")
    return Form._from_clean(x.n, x.k, *_substitute(x, mu.rows, mu.den))


def musical_inv(mu: InnerProduct, phi: Form) -> Polyvector:
    """Raise every slot with mu inverse: the sharp isomorphism on forms."""
    if phi.n != mu.n:
        raise DimensionMismatch(f"dimension {phi.n} != {mu.n}")
    return Polyvector._from_clean(phi.n, phi.k, *_substitute(phi, *_inverse_over_divisor(mu)))
