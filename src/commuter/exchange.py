"""Interchange-law reasoning on slice diagrams.

Two consecutive slices commute exactly when the second slice's input block and
the first slice's output block occupy disjoint wire intervals in the word
between them (blocks that merely abut are disjoint).  Swapping them adjusts
offsets for the wires the other slice added or removed.  The equivalence
generated by these swaps is decided by exhausting the reachable class
(breadth-first over single swaps) and picking its lexicographically least
member under the per-slice key (offset, generator declaration index,
generator name).

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

from collections import deque
from dataclasses import dataclass

from .core import Diagram, Slice
from .errors import BudgetError, NotSwappableError

LINEARIZATION_CAP = 10_000


def _swap_variants(first: Slice, second: Slice) -> tuple[tuple[Slice, Slice], ...]:
    """Every exchange of two consecutive slices; empty when they interfere.

    Intervals are measured in the word between the two slices: the first
    slice's output block against the second slice's input block.  An empty
    block at position p interferes only when p falls strictly inside the
    other block.  Usually at most one of the two cases applies; both apply
    exactly when a deletion's output point and an insertion's input point
    coincide, and then the insertion may land on either side of the deleted
    block, so the exchange has two distinct results.
    """
    lo2 = second.offset
    hi2 = lo2 + len(second.gen.dom)
    lo1 = first.offset
    hi1 = lo1 + len(first.gen.cod)
    out: list[tuple[Slice, Slice]] = []
    if hi2 <= lo1:
        # second acts entirely left of first's output: first drifts by the
        # length change second introduces
        delta = len(second.gen.cod) - len(second.gen.dom)
        out.append((Slice(lo2, second.gen), Slice(first.offset + delta, first.gen)))
    if lo2 >= hi1:
        # second acts entirely right: undo first's length change on it
        delta = len(first.gen.cod) - len(first.gen.dom)
        pair = (Slice(lo2 - delta, second.gen), Slice(first.offset, first.gen))
        if pair not in out:
            out.append(pair)
    return tuple(out)


def _swap_adjacent(first: Slice, second: Slice) -> tuple[Slice, Slice] | None:
    """The exchange of two consecutive slices, or None when they interfere.

    In the ambiguous deletion-meets-insertion case this keeps the first
    listed variant (the insertion stays at its point and the deletion drifts
    right), so repeated application at one index is an involution.
    """
    variants = _swap_variants(first, second)
    return variants[0] if variants else None


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


def _slice_key(s: Slice) -> tuple[int, int, str]:
    return (s.offset, s.gen.index, s.gen.name)


def _seq_key(slices: tuple[Slice, ...]) -> tuple:
    return tuple(_slice_key(s) for s in slices)


def _swap_class(d: Diagram) -> dict[tuple[Slice, ...], tuple[int, ...]]:
    """Every slice sequence reachable from d by swaps, in discovery order.

    Each sequence maps to the permutation recording where its slices sat in
    d (first path found wins; the search order is fixed, so the permutation
    is deterministic).  Stops with BudgetError once more than
    LINEARIZATION_CAP sequences exist.
    """
    start = tuple(range(len(d.slices)))
    seen: dict[tuple[Slice, ...], tuple[int, ...]] = {d.slices: start}
    queue: deque[tuple[tuple[Slice, ...], tuple[int, ...]]] = deque([(d.slices, start)])
    while queue:
        slices, perm = queue.popleft()
        for i in range(len(slices) - 1):
            for pair in _swap_variants(slices[i], slices[i + 1]):
                swapped = slices[:i] + pair + slices[i + 2 :]
                if swapped in seen:
                    continue
                moved = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :]
                seen[swapped] = moved
                if len(seen) > LINEARIZATION_CAP:
                    raise BudgetError(
                        f"more than {LINEARIZATION_CAP} linearizations", count_at_least=len(seen)
                    )
                queue.append((swapped, moved))
    return seen


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """A canonical representative plus where each of its slices came from.

    ``certificate[i]`` is the position, in the original diagram, of the slice
    that ended up at position i of the canonical diagram.
    """

    diagram: Diagram
    certificate: tuple[int, ...]


def canonicalize(d: Diagram) -> CanonicalForm:
    """The least member of d's interchange class; deterministic.

    Raises BudgetError when the class has more than LINEARIZATION_CAP members.
    """
    members = _swap_class(d)
    best = min(members, key=_seq_key)
    return CanonicalForm(Diagram(d.input, best), members[best])


def interchange_equal(d1: Diagram, d2: Diagram) -> bool:
    """True exactly when the diagrams differ by interchange moves only."""
    if d1.input != d2.input or len(d1.slices) != len(d2.slices):
        return False
    if sorted(s.gen.name for s in d1.slices) != sorted(s.gen.name for s in d2.slices):
        return False
    return canonicalize(d1).diagram == canonicalize(d2).diagram


def linearizations(d: Diagram) -> list[Diagram]:
    """Every distinct member of d's interchange class, in discovery order.

    Raises BudgetError once more than LINEARIZATION_CAP distinct members have
    been found; the error carries the count seen so far as a lower bound.
    """
    return [Diagram(d.input, slices) for slices in _swap_class(d)]
