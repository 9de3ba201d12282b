"""Finite-set semantics, computed on explicit lookup tables.

Sets are {0, .., n-1}; maps are lookup tables.  A functor acts on a whole
stack of tables at once by numpy index arithmetic, so the copower comparison
map is built in one pass.  Encodings are fixed so that results are
reproducible integers:

* pairs over a copy index j0 and an element c0 (products J x C and coproducts
  of J copies of C alike) encode as ``j0 * |C| + c0``;
* a function f : D -> Y encodes little-endian in base |Y|, as
  ``sum(f(d0) * |Y|**d0 for d0 in D)``.

Since J x Y is the coproduct of J copies of Y, every map in the proof of the
paper's Proposition 2 is one comparison map, that of ``(-)^D``: the strength
J x Y^D -> (J x Y)^D is ``canonical_alpha(PowerS(|D|), |J|, Y)``; at Y = 1 it
is the constants map J -> J^D that the atom scan tests; and precomposition
with X x D -> X, read through transposes, is that map raised to the power X.
Only the last step, D a retract of 1, is checked independently.

The functor algebra is deliberately small: identity, product with a fixed
set, power by a fixed set, coproduct of j copies, and composition.  Every
operation that would build a set larger than ``SIZE_LIMIT`` raises SizeError
instead; powers are refused before they are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeError, TypingError

SIZE_LIMIT = 10**6


@dataclass(frozen=True, slots=True)
class FinSetObj:
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative size")
        if self.size > SIZE_LIMIT:
            # str() refuses ints past 4300 digits, and sizes are products of inputs
            shown = self.size if self.size < 10**18 else "over 10^18"
            raise SizeError(f"set of size {shown} exceeds limit {SIZE_LIMIT}")


@dataclass(frozen=True, slots=True)
class FinSetMap:
    dom: FinSetObj
    cod: FinSetObj
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.dom.size:
            raise TypingError(
                f"table has {len(self.table)} entries for a domain of size {self.dom.size}"
            )
        if self.table and (min(self.table) < 0 or max(self.table) >= self.cod.size):
            v = next(v for v in self.table if not 0 <= v < self.cod.size)
            raise TypingError(f"table value {v} outside codomain of size {self.cod.size}")

    def __call__(self, x: int) -> int:
        return self.table[x]

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == self.dom.size

    @property
    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod.size

    @property
    def is_bijective(self) -> bool:
        return self.dom.size == self.cod.size and self.is_injective


def identity_map(obj: FinSetObj) -> FinSetMap:
    return FinSetMap(obj, obj, tuple(range(obj.size)))


def compose_maps(f: FinSetMap, g: FinSetMap) -> FinSetMap:
    """g after f."""
    if f.cod != g.dom:
        raise TypingError(f"cannot compose: {f.cod.size} vs {g.dom.size}")
    return FinSetMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


# ---------------------------------------------------------------- functors

@dataclass(frozen=True, slots=True)
class Id:
    pass


@dataclass(frozen=True, slots=True)
class TimesS:
    """C maps to S x C, pairs encoded s0 * |C| + c0."""

    s: int


@dataclass(frozen=True, slots=True)
class PowerS:
    """C maps to C^S, functions encoded little-endian in base |C|."""

    s: int


@dataclass(frozen=True, slots=True)
class CoprodJ:
    """C maps to j disjoint copies of C, encoded j0 * |C| + c0."""

    j: int


@dataclass(frozen=True, slots=True)
class Compose:
    """outer applied after inner: (Compose(F, G))(c) = F(G(c))."""

    outer: "FunctorExpr"
    inner: "FunctorExpr"


FunctorExpr = Id | TimesS | PowerS | CoprodJ | Compose


def _power_size(base: int, exponent: int) -> int:
    """base ** exponent, refused with SizeError as soon as a partial product
    passes SIZE_LIMIT, so a huge power is never computed or printed."""
    if exponent < 0:
        raise ValueError("negative exponent")
    if base <= 1:
        return base**exponent
    value = 1
    for _ in range(exponent):  # at most SIZE_LIMIT.bit_length() rounds
        value *= base
        if value > SIZE_LIMIT:
            raise SizeError(f"set of size {base}^{exponent} exceeds limit {SIZE_LIMIT}")
    return value


def eval_obj(expr: FunctorExpr, c: FinSetObj) -> FinSetObj:
    match expr:
        case Id():
            return c
        case TimesS(n) | CoprodJ(n):
            return FinSetObj(n * c.size)
        case PowerS(s):
            return FinSetObj(_power_size(c.size, s))
        case Compose(outer, inner):
            return eval_obj(outer, eval_obj(inner, c))
    raise TypeError(f"not a functor expression: {expr!r}")


def _eval_tables(expr: FunctorExpr, tables: np.ndarray, dom: int, cod: int) -> np.ndarray:
    """F applied to each row of a (k, dom) int64 stack of maps dom -> cod.

    Returns the (k, |F(dom)|) stack of the maps F(dom) -> F(cod).  The
    caller has sized F(dom) and F(cod) with eval_obj, so every SIZE_LIMIT
    refusal comes before this allocates, and entries stay below 10^6.
    """
    match expr:
        case Id():
            return tables
        case TimesS(n) | CoprodJ(n):
            # copy n0 of x is n0 * |X| + x on both sides; with dom empty no
            # copy has an entry, whatever n is
            shifts = np.arange(n if dom else 0) * cod
            return (shifts[:, None] + tables[:, None, :]).reshape(len(tables), n * dom)
        case PowerS(s):
            # a code's digits, little-endian in base |dom|, are mapped and
            # re-encoded in base |cod|, one place at a time; into a set of at
            # most one element every function encodes as 0, whatever s is
            codes = np.arange(dom**s)
            out = np.zeros((len(tables), len(codes)), np.int64)
            base = max(dom, 1)
            for place in range(s if cod > 1 else 0):
                out += tables[:, codes // base**place % base] * cod**place
            return out
        case Compose(outer, inner):
            inner_tables = _eval_tables(inner, tables, dom, cod)
            inner_dom = eval_obj(inner, FinSetObj(dom)).size
            return _eval_tables(outer, inner_tables, inner_dom, eval_obj(inner, FinSetObj(cod)).size)
    raise TypeError(f"not a functor expression: {expr!r}")


def eval_map(expr: FunctorExpr, f: FinSetMap) -> FinSetMap:
    dom = eval_obj(expr, f.dom)
    cod = eval_obj(expr, f.cod)
    table = _eval_tables(expr, np.array([f.table], np.int64), f.dom.size, f.cod.size)
    return FinSetMap(dom, cod, tuple(table[0].tolist()))


def canonical_alpha(expr: FunctorExpr, j: int, c: FinSetObj) -> FinSetMap:
    """The comparison map from j copies of F(C) to F(j copies of C).

    On the j0-th copy it acts as F applied to the j0-th coprojection
    c0 |-> j0 * |C| + c0; all j coprojections go through F as one stack.
    Bijective whenever F preserves coproducts of j copies; the power
    functors fail this in general.  For F = (-)^D it is the strength
    J x C^D -> (J x C)^D, sending (j0, f) to d0 |-> (j0, f(d0)).
    """
    fc = eval_obj(expr, c)
    cod = eval_obj(expr, FinSetObj(j * c.size))
    dom = FinSetObj(j * fc.size)
    # with F(C) empty no copy has an entry, so an unbounded j stacks no rows
    rows = j if fc.size else 0
    coprojections = np.arange(rows * c.size).reshape(rows, c.size)
    table = _eval_tables(expr, coprojections, c.size, j * c.size)
    return FinSetMap(dom, cod, tuple(table.ravel().tolist()))


def retract_of_one(d: FinSetObj) -> bool:
    """Is D a retract of the one-element set?  Checked by enumerating maps."""
    one = FinSetObj(1)
    if d.size == 0:
        return False  # no map from 1 back into the empty set
    into = FinSetMap(d, one, (0,) * d.size)  # the only map D -> 1
    for pick in range(d.size):
        back = FinSetMap(one, d, (pick,))
        if compose_maps(into, back).table == identity_map(d).table:
            return True
    return False


@dataclass(frozen=True, slots=True)
class AtomReport:
    """Whether a fixed exponent D behaves like an atom, scanned over small J."""

    d_size: int
    max_j: int
    bijective: tuple[bool, ...]  # indexed by |J| = 0 .. max_j
    sizes: tuple[tuple[int, int], ...]  # (|J|, |J^D|) per row
    retract: bool
    consistent: bool  # every scanned J passed

    def failures(self) -> list[int]:
        return [j for j, ok in enumerate(self.bijective) if not ok]


def atom_strong_check(d: FinSetObj, max_j: int = 4) -> AtomReport:
    """Scan |J| = 0..max_j: is the constants map J -> J^D a bijection?

    Each row is the strength J x 1^D -> (J x 1)^D, which is the constants
    map since 1^D = 1.  The verdict is positive only when every scanned J
    passes, which happens exactly for |D| = 1; ``retract`` reports the
    independent retract-of-one check for comparison.  A scan whose rows
    together hold more than SIZE_LIMIT entries is refused before it starts.
    """
    if max_j < 2:
        raise ValueError("max_j must be at least 2 to be informative")
    if max_j * (max_j + 1) // 2 > SIZE_LIMIT:
        raise SizeError(f"atom scan to |J| = {max_j}: sum of |J| exceeds limit {SIZE_LIMIT}")
    flags = []
    sizes = []
    for jn in range(max_j + 1):
        m = canonical_alpha(PowerS(d.size), jn, FinSetObj(1))
        flags.append(m.is_bijective)
        sizes.append((m.dom.size, m.cod.size))
    return AtomReport(
        d_size=d.size,
        max_j=max_j,
        bijective=tuple(flags),
        sizes=tuple(sizes),
        retract=retract_of_one(d),
        consistent=all(flags),
    )


def hom_transpose_bijection(x: int, d: int, j: int) -> bool:
    """Is precomposition with the projection X x D -> X a bijection
    hom(X, J) -> hom(X x D, J)?  Read through transposes it is the map
    J^X -> (J^D)^X induced by the constants map J -> J^D."""
    eval_obj(PowerS(x), FinSetObj(j))  # refuse an oversized hom(X, J) first
    if x == 0:
        return True  # both hom sets hold only the empty map, whatever J^D is
    try:
        constants = canonical_alpha(PowerS(d), j, FinSetObj(1))
        return eval_map(PowerS(x), constants).is_bijective
    except SizeError:
        return False  # hom(X x D, J) outnumbers hom(X, J), which fits the limit
