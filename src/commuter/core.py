"""Object words, morphism generators, slice-form diagrams, and rewrite rules.

A diagram over a strict monoidal signature is stored as an input word plus an
ordered list of slices; each slice applies one morphism generator at a wire
offset.  The codomain is never stored: it is recomputed by replaying the word
rewriting that each slice performs, so a diagram is well-typed exactly when
that replay never meets a mismatched segment.  A signature stores its
equations as ``RewriteRule`` records, checked once when declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SignatureError, TypingError

# An object word is a tuple of object-generator names; () is the unit.
Word = tuple[str, ...]

# The one name rule, for declarations and for the .cmt tokenizer.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def fmt_word(w: Word) -> str:
    """Render a word for messages; the empty word prints as ``1``."""
    return " ".join(w) if w else "1"


@dataclass(frozen=True, slots=True)
class ObjectGen:
    """A generating object of the signature."""

    name: str


@dataclass(frozen=True, slots=True)
class MorGen:
    """A generating morphism with flat domain and codomain words.

    ``index`` records declaration order inside the owning signature and is
    used only to break ties deterministically (canonical forms, printing).
    """

    name: str
    dom: Word
    cod: Word
    index: int = 0


@dataclass(frozen=True, slots=True)
class Slice:
    """One generator applied at a wire offset.

    In a word ``w`` the slice rewrites the segment
    ``w[offset : offset + len(gen.dom)]`` (which must equal ``gen.dom``)
    to ``gen.cod``, leaving the rest of the word alone.
    """

    offset: int
    gen: MorGen


@dataclass(frozen=True, slots=True)
class Diagram:
    """An input word and the ordered slices applied to it."""

    input: Word
    slices: tuple[Slice, ...]

    def __str__(self) -> str:
        if not self.slices:
            return f"id({fmt_word(self.input)})"
        body = " ; ".join(f"{s.gen.name}@{s.offset}" for s in self.slices)
        return f"[{fmt_word(self.input)} | {body}]"


def identity(w: Word) -> Diagram:
    """The empty diagram on ``w``."""
    return Diagram(tuple(w), ())


def intermediate_words(d: Diagram) -> list[Word]:
    """All words the diagram passes through, input first, codomain last.

    Raises TypingError (with the slice index) at the first slice whose domain
    does not sit where its offset claims.
    """
    words = [d.input]
    w = d.input
    for i, s in enumerate(d.slices):
        dom = s.gen.dom
        lo = s.offset
        hi = lo + len(dom)
        if lo < 0 or hi > len(w) or w[lo:hi] != dom:
            raise TypingError(
                f"slice {i} applies {s.gen.name} : {fmt_word(dom)} -> "
                f"{fmt_word(s.gen.cod)} at offset {lo}, but the word there is "
                f"{fmt_word(w)}",
                slice_index=i,
            )
        w = w[:lo] + s.gen.cod + w[hi:]
        words.append(w)
    return words


def boundaries(d: Diagram) -> tuple[Word, Word]:
    """The (domain, codomain) pair of a well-typed diagram."""
    return d.input, intermediate_words(d)[-1]


def codomain(d: Diagram) -> Word:
    return intermediate_words(d)[-1]


def well_typed(d: Diagram) -> bool:
    try:
        intermediate_words(d)
    except TypingError:
        return False
    return True


def compose(f: Diagram, g: Diagram) -> Diagram:
    """Run ``f`` first, then ``g``; requires cod(f) == dom(g)."""
    mid = codomain(f)
    if mid != g.input:
        raise TypingError(
            f"cannot compose: first diagram ends at {fmt_word(mid)}, "
            f"second starts at {fmt_word(g.input)}"
        )
    return Diagram(f.input, f.slices + g.slices)


def tensor(f: Diagram, g: Diagram) -> Diagram:
    """Place ``g`` beside ``f``: run all of ``f``, then all of ``g``.

    The result is the left-then-right interleaving, one fixed member of the
    interchange class of the tensor.
    """
    shift = len(codomain(f))
    moved = tuple(Slice(s.offset + shift, s.gen) for s in g.slices)
    return Diagram(f.input + g.input, f.slices + moved)


def whisker(d: Diagram, left: Word, right: Word) -> Diagram:
    """Pad ``d`` with identity wires on both sides."""
    k = len(left)
    return Diagram(
        tuple(left) + d.input + tuple(right),
        tuple(Slice(s.offset + k, s.gen) for s in d.slices),
    )


def gen_diagram(g: MorGen) -> Diagram:
    """The one-slice diagram of a generator."""
    return Diagram(g.dom, (Slice(0, g),))


FORWARD = "forward"
BACKWARD = "backward"

MAX_RULE_SLICES = 6


@dataclass(frozen=True, slots=True)
class RewriteRule:
    """A named equation; the prover uses it in both orientations."""

    name: str
    lhs: Diagram
    rhs: Diagram

    def __post_init__(self):
        if boundaries(self.lhs) != boundaries(self.rhs):
            raise TypingError(
                f"rule {self.name}: sides have different boundaries: "
                f"{fmt_word(self.lhs.input)} -> {fmt_word(codomain(self.lhs))} vs "
                f"{fmt_word(self.rhs.input)} -> {fmt_word(codomain(self.rhs))}"
            )
        for side in (self.lhs, self.rhs):
            if len(side.slices) > MAX_RULE_SLICES:
                raise ValueError(
                    f"rule {self.name}: side has {len(side.slices)} slices, "
                    f"limit is {MAX_RULE_SLICES}"
                )

    def side(self, direction: str) -> Diagram:
        """The side that gets matched when applying in ``direction``."""
        return self.lhs if direction == FORWARD else self.rhs

    def other(self, direction: str) -> Diagram:
        return self.rhs if direction == FORWARD else self.lhs


@dataclass
class Signature:
    """Declared objects, morphism generators, and named rules."""

    objects: dict[str, ObjectGen] = field(default_factory=dict)
    morphisms: dict[str, MorGen] = field(default_factory=dict)
    equations: dict[str, RewriteRule] = field(default_factory=dict)

    def add_object(self, name: str) -> ObjectGen:
        self._check_name(name)
        obj = ObjectGen(name)
        self.objects[name] = obj
        return obj

    def add_morphism(self, name: str, dom: Word, cod: Word) -> MorGen:
        self._check_name(name)
        self.check_word(dom)
        self.check_word(cod)
        gen = MorGen(name, tuple(dom), tuple(cod), index=len(self.morphisms))
        self.morphisms[name] = gen
        return gen

    def add_equation(self, name: str, lhs: Diagram, rhs: Diagram) -> RewriteRule:
        """Check both sides against the signature, then store them as a rule
        (whose record checks boundaries and MAX_RULE_SLICES)."""
        self._check_name(name)
        self.check_diagram(lhs)
        self.check_diagram(rhs)
        rule = self.equations[name] = RewriteRule(name, lhs, rhs)
        return rule

    def _check_name(self, name: str) -> None:
        """One namespace for objects, generators and rules, so a printed
        signature reloads."""
        if not NAME_RE.fullmatch(name):
            raise SignatureError(f"bad name: {name!r}")
        if name in self.equations:
            raise SignatureError(f"duplicate equation name: {name}")
        if name in self.objects or name in self.morphisms:
            raise SignatureError(f"duplicate name: {name}")

    def check_word(self, w: Word) -> None:
        for name in w:
            if name not in self.objects:
                raise SignatureError(f"unknown object generator: {name}")

    def check_diagram(self, d: Diagram) -> None:
        """Every name resolves to this signature's declaration, and typing holds."""
        self.check_word(d.input)
        for s in d.slices:
            declared = self.morphisms.get(s.gen.name)
            if declared is None:
                raise SignatureError(f"unknown morphism generator: {s.gen.name}")
            if declared != s.gen:
                raise SignatureError(
                    f"generator {s.gen.name} does not match its declaration"
                )
        intermediate_words(d)

    def identity(self, w: Word) -> Diagram:
        self.check_word(tuple(w))
        return identity(tuple(w))
