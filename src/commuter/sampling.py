"""Seeded random words and diagrams over a signature.

Used by the soundness suite: draw many well-typed diagrams and confirm the
engine's invariants on them.  Generation is greedy: at each step collect
every (generator, offset) that applies to the current word and pick one
uniformly; stop early when nothing applies.
"""

from __future__ import annotations

from .core import Diagram, Signature, Slice, Word, codomain
from .rng import Lcg


def applicable(sig: Signature, word: Word) -> list[tuple[str, int]]:
    """All (generator name, offset) pairs whose domain sits inside word."""
    out: list[tuple[str, int]] = []
    for name, gen in sig.morphisms.items():
        span = len(gen.dom)
        for offset in range(len(word) - span + 1):
            if word[offset : offset + span] == gen.dom:
                out.append((name, offset))
    return out


def random_word(sig: Signature, rng: Lcg, max_len: int = 4) -> Word:
    names = list(sig.objects)
    if not names:
        return ()
    length = rng.randrange(max_len + 1)
    return tuple(rng.choice(names) for _ in range(length))


def random_diagram(
    sig: Signature, rng: Lcg, max_slices: int = 6, max_word: int = 4
) -> Diagram:
    """A well-typed diagram with up to max_slices slices on a random input."""
    word = random_word(sig, rng, max_word)
    slices: list[Slice] = []
    current = word
    for _ in range(rng.randrange(max_slices + 1)):
        options = applicable(sig, current)
        if not options:
            break
        name, offset = options[rng.randrange(len(options))]
        step = Slice(offset, sig.morphisms[name])
        slices.append(step)
        current = codomain(Diagram(current, (step,)))
    return Diagram(word, tuple(slices))
