"""Interchange-law reasoning on slice diagrams.

Two consecutive slices commute exactly when the second slice's input block and
the first slice's output block occupy disjoint wire intervals in the word
between them (blocks that merely abut are disjoint).  Swapping them adjusts
offsets for the wires the other slice added or removed.  The equivalence
generated by these swaps is decided by exhausting the reachable class
(breadth-first over single swaps) once per ``SwapClass``, which answers the
class's least member under the per-slice key (offset, generator declaration
index, name, domain, codomain), its members, and membership.  Swaps are
reversible, so d2 is in d1's class exactly when their canonical forms are
equal, and ``interchange_equal`` walks one class, not two.

The walk runs on flat integer keys.  A ``ranking`` orders generators by
(declaration index, name, domain, codomain), and a key writes a slice
sequence as (offset_0, rank_0, offset_1, rank_1, ...): a swap is arithmetic
on the ranks' domain and codomain lengths, and the visited set hashes ints.
Every member of a class has the same generators, so the least key is the
same from any member: the canonical form is a class invariant.  Keys compare
as their slice sequences do under the per-slice key, and keys under one
ranking compare directly: the proof search ranks once, and a node is its
class's least key.  Slices and diagrams are built only for output.

The exhaustive search is deliberate.  The class is not a trace monoid: when a
slice deletes a wire, an insertion that happened next to that wire can end up
with two different offsets in different members of the class, so "which
slices can move to the front" depends on the representative, and the greedy
Foata-style extraction misses members.  Exhaustion is exact and cheap at the
diagram sizes this package manipulates (rule and theorem diagrams stay under
eight slices); every enumeration stops with BudgetError once a class passes
LINEARIZATION_CAP members, so no input gets unbounded time or memory.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter

from .core import Diagram, MorGen, Slice, Word, intermediate_words
from .errors import BudgetError, NotSwappableError

LINEARIZATION_CAP = 10_000


def _swap_variants(
    lo1: int, dom1: int, cod1: int, lo2: int, dom2: int, cod2: int
) -> list[tuple[int, int]]:
    """Every exchange of two consecutive slices; empty when they interfere.

    The first slice sits at offset lo1 with dom1 input and cod1 output wires,
    the second at lo2 with dom2 and cod2.  Each exchange is given as the pair
    (new offset of the second slice, new offset of the first), the order in
    which they then run.  Intervals are measured in the word between the two
    slices: the first slice's output block against the second slice's input
    block.  An empty block at position p interferes only when p falls
    strictly inside the other block.  Usually at most one of the two cases
    applies; both apply exactly when a deletion's output point and an
    insertion's input point coincide, and then the insertion may land on
    either side of the deleted block, so the exchange has two distinct
    results.
    """
    out = []
    if lo2 + dom2 <= lo1:
        # second acts entirely left of first's output: first drifts by the
        # length change second introduces
        out.append((lo2, lo1 + cod2 - dom2))
    if lo2 >= lo1 + cod1:
        # second acts entirely right: undo first's length change on it
        pair = (lo2 - cod1 + dom1, lo1)
        if pair not in out:
            out.append(pair)
    return out


def _swap_adjacent(first: Slice, second: Slice) -> tuple[Slice, Slice] | None:
    """The exchange of two consecutive slices, or None when they interfere.

    In the ambiguous deletion-meets-insertion case this keeps the first
    listed variant (the insertion stays at its point and the deletion drifts
    right), so repeated application at one index is an involution.
    """
    f, s = first.gen, second.gen
    variants = _swap_variants(
        first.offset, len(f.dom), len(f.cod), second.offset, len(s.dom), len(s.cod)
    )
    if not variants:
        return None
    lo2, lo1 = variants[0]
    return Slice(lo2, second.gen), Slice(lo1, first.gen)


def adjacent_swap(d: Diagram, i: int) -> Diagram:
    """Swap slices i and i+1; NotSwappableError when they interfere."""
    if not 0 <= i < len(d.slices) - 1:
        raise IndexError(f"no adjacent pair at {i} in a {len(d.slices)}-slice diagram")
    pair = _swap_adjacent(d.slices[i], d.slices[i + 1])
    if pair is None:
        raise NotSwappableError(
            f"slices {i} ({d.slices[i].gen.name}@{d.slices[i].offset}) and "
            f"{i + 1} ({d.slices[i + 1].gen.name}@{d.slices[i + 1].offset}) interfere"
        )
    return Diagram(d.input, d.slices[:i] + pair + d.slices[i + 2 :])


def swappable(d: Diagram, i: int) -> bool:
    return _swap_adjacent(d.slices[i], d.slices[i + 1]) is not None


Key = tuple[int, ...]

_ORDER = attrgetter("index", "name", "dom", "cod")


def _walk(start: Key, dom: list[int], cod: list[int]) -> dict[Key, tuple[int, ...]]:
    """Every key reachable from ``start`` by swaps, in discovery order.

    A key lists (offset, rank) per slice, flattened; rank r's generator has
    dom[r] input and cod[r] output wires.  Each key maps to the permutation
    recording where its slices sat in ``start`` (first path found wins; the
    search order is fixed, so the permutation is deterministic).  Stops with
    BudgetError once more than LINEARIZATION_CAP keys exist.
    """
    seen = {start: tuple(range(len(start) // 2))}
    queue = [start]
    for key in queue:
        perm = seen[key]
        for j in range(0, len(key) - 2, 2):  # slices j/2 and j/2 + 1
            lo1, r1, lo2, r2 = key[j : j + 4]
            for new2, new1 in _swap_variants(lo1, dom[r1], cod[r1], lo2, dom[r2], cod[r2]):
                swapped = key[:j] + (new2, r2, new1, r1) + key[j + 4 :]
                if swapped in seen:
                    continue
                i = j // 2
                seen[swapped] = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :]
                if len(seen) > LINEARIZATION_CAP:
                    raise BudgetError(
                        f"more than {LINEARIZATION_CAP} linearizations", count_at_least=len(seen)
                    )
                queue.append(swapped)
    return seen


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """A canonical representative plus where each of its slices came from.

    ``certificate[i]`` is the position, in the original diagram, of the slice
    that ended up at position i of the canonical diagram.
    """

    diagram: Diagram
    certificate: tuple[int, ...]


class SwapClass:
    """A diagram's interchange class, walked once.

    Ranks come from ``gens``, a ``ranking`` of d's generators and maybe more
    (by default, of d's alone).  Members stay keys until asked for: ``least``
    decodes the canonical form, iteration and ``member`` decode members in
    discovery order, and ``d in cls`` looks d's key up under the class's
    ranks.  Raises BudgetError when a walked class has more than
    LINEARIZATION_CAP members.
    """

    __slots__ = ("_d", "_gens", "_sizes", "_start", "_perms", "_keys", "_members", "_words")

    def __init__(self, d: Diagram, gens: list[MorGen] | None = None):
        gens = gens or ranking((d,))
        start = tuple([x for s in d.slices for x in (s.offset, gens.index(s.gen))])
        self._d, self._gens, self._start = d, gens, start
        self._sizes = doms, cods = [len(g.dom) for g in gens], [len(g.cod) for g in gens]
        self._perms = _walk(start, doms, cods)
        self._keys: list[Key] | None = None  # built, with the caches, on first indexed use

    def _key(self, d: Diagram, k: int = 0) -> Key | None:
        """d's (offset + k, rank) pairs, flattened; None if a rank is missing."""
        gens, key = self._gens, []
        for s in d.slices:
            if s.gen not in gens:
                return None
            key += (s.offset + k, gens.index(s.gen))
        return tuple(key)

    def _decode(self, key: Key, perm: tuple[int, ...]) -> Diagram:
        """The member with this key: its slice p is the start diagram's slice
        perm[p], moved to offset key[2p].  The start key gives the start
        diagram itself, so a one-member class builds no diagram."""
        d = self._d
        if key == self._start:
            return d
        placed = zip(map(d.slices.__getitem__, perm), key[::2])
        return Diagram(d.input, tuple([s if s.offset == o else Slice(o, s.gen) for s, o in placed]))

    def _index(self) -> list[Key]:
        if self._keys is None:
            self._keys, self._members, self._words = list(self._perms), {}, {}
        return self._keys

    def __len__(self) -> int:
        return len(self._perms)

    def __iter__(self) -> Iterator[Diagram]:
        """The members in discovery order."""
        return (self._decode(key, perm) for key, perm in self._perms.items())

    def __contains__(self, d: Diagram) -> bool:
        """Exact membership: the class's input word and one of its keys."""
        return d.input == self._d.input and self._key(d) in self._perms

    def least_key(self) -> Key:
        """The least member's key: the class's identity under its ranks."""
        return min(self._perms)

    def least(self) -> CanonicalForm:
        """The least member (keys compare as the slices' per-slice keys do)."""
        best = self.least_key()
        perm = self._perms[best]
        return CanonicalForm(self._decode(best, perm), perm)

    def member(self, i: int) -> Diagram:
        """Member i, in discovery order."""
        key = self._index()[i]
        if i not in self._members:
            self._members[i] = self._decode(key, self._perms[key])
        return self._members[i]

    def words(self, i: int) -> list[Word]:
        """``intermediate_words`` of member i."""
        member = self.member(i)  # builds the caches on first use
        if i not in self._words:
            self._words[i] = intermediate_words(member)
        return self._words[i]

    def blocks(self, side: Diagram) -> Iterator[tuple[int, int, int]]:
        """Every (i, start, k) where the slices of the non-empty ``side``,
        shifted right by k >= 0, are member i's slices from position start
        on; by member, then by start."""
        side_key = self._key(side)
        if side_key is None:
            return
        n = len(side.slices)
        offsets, ranks = side_key[::2], side_key[1::2]
        for i, key in enumerate(self._index()):
            for j in range(0, len(key) - 2 * n + 1, 2):
                k = key[j] - offsets[0]
                if k < 0 or key[j + 1 : j + 2 * n : 2] != ranks:
                    continue
                if key[j : j + 2 * n : 2] == tuple(o + k for o in offsets):
                    yield i, j // 2, k

    def new_rewrite(
        self, seen: set, i: int, start: int, end: int, k: int, block: Diagram
    ) -> Key | None:
        """The least key of the class of member i with its slices [start, end)
        replaced by ``block``'s slices shifted right by k (whose generators
        must be ranked); None when ``seen`` holds a member of it.  A walked
        class's keys all go into ``seen``, so a later rewrite into the same
        class is recognised without another walk."""
        key = self._index()[i]
        spliced = key[: 2 * start] + self._key(block, k) + key[2 * end :]
        if spliced in seen:
            return None
        walked = _walk(spliced, *self._sizes)
        seen.update(walked)
        return min(walked)


def ranking(diagrams: Iterable[Diagram]) -> list[MorGen]:
    """The distinct generators of ``diagrams``, ordered by (declaration index,
    name, domain, codomain); a generator's rank is its position."""
    gens: list[MorGen] = []
    for d in diagrams:
        for s in d.slices:
            if s.gen not in gens:
                gens.append(s.gen)
    gens.sort(key=_ORDER)
    return gens


def decode(word: Word, key: Key, gens: list[MorGen]) -> Diagram:
    """The diagram on ``word`` whose key under the ranks ``gens`` is ``key``."""
    return Diagram(word, tuple([Slice(o, gens[r]) for o, r in zip(key[::2], key[1::2])]))


def canonicalize(d: Diagram) -> CanonicalForm:
    """The least member of d's interchange class; deterministic."""
    return SwapClass(d).least()


def interchange_equal(d1: Diagram, d2: Diagram) -> bool:
    """True exactly when the diagrams differ by interchange moves only.

    A different input word, slice count or multiset of generator names
    answers without a walk; otherwise d2 must be a member of d1's class.
    Swaps are reversible, so that holds iff the canonical forms are equal.
    Only d1's class can raise BudgetError.
    """
    if d1.input != d2.input or len(d1.slices) != len(d2.slices):
        return False
    if sorted(s.gen.name for s in d1.slices) != sorted(s.gen.name for s in d2.slices):
        return False
    return d2 in SwapClass(d1)


def linearizations(d: Diagram) -> list[Diagram]:
    """Every distinct member of d's interchange class, in discovery order."""
    return list(SwapClass(d))
