"""Bounded equational proof search over interchange classes.

Rules are undirected equations between diagrams with equal boundaries.  A rule
side matches a target when some member of the target's interchange class
contains the side as a contiguous block of slices, uniformly shifted by a
left-whisker width k, with the side's input word sitting at position k of the
word entering the block.  Applying the rule splices the other side into that
block.

``prove_equal`` runs breadth-first search from both endpoints simultaneously,
alternating sides level by level, and returns a replayable trace when the two
waves meet.  One ranking of every generator serves the whole search, so a node
is its interchange class's least key, and the walk that dedups a rewrite also
gives its result's key.  Running out of budget raises SearchExhausted; it
never claims the diagrams are unequal.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import BACKWARD, FORWARD, MAX_RULE_SLICES, RewriteRule  # re-exported for callers of the prover
from .core import Diagram, MorGen, Slice, boundaries, codomain, fmt_word, gen_diagram, intermediate_words
from .errors import MatchInvalidError, SearchExhausted, SignatureError, TypingError
from .exchange import Key, SwapClass, decode, interchange_equal, ranking


@dataclass(frozen=True, slots=True)
class Match:
    """Where a rule side sits inside one linearization of the target.

    ``lin`` is the concrete member of the target's interchange class holding
    the block at slice positions [start, end), shifted left-to-right by
    ``whisker_left`` wires.
    """

    lin: Diagram
    start: int
    end: int
    whisker_left: int
    whisker_right: int


@dataclass(frozen=True, slots=True)
class ProofStep:
    rule: str
    direction: str
    match: Match


@dataclass(frozen=True, slots=True)
class ProofTrace:
    """A replayable path of rule applications from ``start`` to ``end``."""

    start: Diagram
    steps: tuple[ProofStep, ...]
    end: Diagram


@dataclass(frozen=True, slots=True)
class SearchBudget:
    max_depth_per_side: int = 8
    max_nodes: int = 50_000

    def __post_init__(self):
        if self.max_depth_per_side <= 0 or self.max_nodes <= 0:
            raise ValueError("budget values must be positive")


def _splice(lin: Diagram, start: int, end: int, k: int, replacement: Diagram) -> Diagram:
    moved = tuple(Slice(s.offset + k, s.gen) for s in replacement.slices)
    return Diagram(lin.input, lin.slices[:start] + moved + lin.slices[end:])


def find_matches(d: Diagram, side: Diagram) -> list[Match]:
    """All matches of ``side`` in ``d``, deduplicated by resulting rewrite.

    Two matches are redundant when replacing their blocks (by anything with
    the side's boundaries) yields interchange-equal results; that is detected
    by splicing in a placeholder generator.  An empty side matches at every
    cut where its input word embeds in the word at that cut.
    """
    hole = MorGen("\x00hole", side.input, codomain(side))
    cls = SwapClass(d, ranking((d,)) + [hole])
    cls.words(0)  # an ill-typed d raises TypingError
    block = gen_diagram(hole)
    seen: set = set()
    return [
        Match(cls.member(i), start, end, k, right)
        for i, start, end, k, right in _matches(cls, side)
        if cls.new_rewrite(seen, i, start, end, k, block) is not None
    ]


def _matches(cls: SwapClass, side: Diagram) -> Iterator[tuple[int, int, int, int, int]]:
    """Every (member, start, end, k, right) where ``side``, whiskered by k
    wires on the left and ``right`` on the right, is member's slices
    [start, end); by member, then by start.  Not deduplicated."""
    width = len(side.input)
    if side.slices:
        for i, start, k in cls.blocks(side):
            w = cls.words(i)[start]
            if w[k : k + width] == side.input:
                yield i, start, start + len(side.slices), k, len(w) - k - width
    else:
        for i in range(len(cls)):
            for cut, w in enumerate(cls.words(i)):
                for k in range(len(w) - width + 1):
                    if w[k : k + width] == side.input:
                        yield i, cut, cut, k, len(w) - k - width


def _block_same(lin: Diagram, start: int, side: Diagram, k: int) -> bool:
    """Do side's slices, shifted by k, occupy lin's slices from ``start`` on?"""
    for got, want in zip(lin.slices[start : start + len(side.slices)], side.slices):
        if got.gen != want.gen or got.offset != want.offset + k:
            return False
    return True


def apply_rule(d: Diagram, rule: RewriteRule, m: Match, direction: str = FORWARD) -> Diagram:
    """Replace the matched side by the other side; validates the match."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"bad direction: {direction!r}")
    src = rule.side(direction)
    if not _match_valid(d, src, m):
        raise MatchInvalidError(
            f"match of rule {rule.name} ({direction}) does not apply to {d}"
        )
    return _splice(m.lin, m.start, m.end, m.whisker_left, rule.other(direction))


def _match_valid(d: Diagram, src: Diagram, m: Match) -> bool:
    if m.end - m.start != len(src.slices):
        return False
    if not 0 <= m.start <= m.end <= len(m.lin.slices):
        return False
    if m.whisker_left < 0 or m.whisker_right < 0:
        return False
    if not _block_same(m.lin, m.start, src, m.whisker_left):
        return False
    try:
        w = intermediate_words(m.lin)[m.start]
    except TypingError:
        return False
    k = m.whisker_left
    if w[k : k + len(src.input)] != src.input or len(w) != k + len(src.input) + m.whisker_right:
        return False
    return interchange_equal(d, m.lin)


def replay(trace: ProofTrace, rules: list[RewriteRule] | dict[str, RewriteRule]) -> bool:
    """Re-run a trace step by step; True iff every step checks out.

    Unknown rule names raise SignatureError; any step ``apply_rule`` rejects
    (bad direction, stale match, corrupted offsets, wrong block) just yields
    False.
    """
    by_name = rules if isinstance(rules, dict) else {r.name: r for r in rules}
    current = trace.start
    for step in trace.steps:
        if step.rule not in by_name:
            raise SignatureError(f"trace refers to unknown rule: {step.rule}")
        try:
            current = apply_rule(current, by_name[step.rule], step.match, step.direction)
        except (ValueError, MatchInvalidError):
            return False
    return interchange_equal(current, trace.end)


@dataclass(frozen=True, slots=True)
class _Edge:
    parent: Key  # the node the step was taken from
    rule: RewriteRule
    direction: str
    match: Match


def prove_equal(
    lhs: Diagram,
    rhs: Diagram,
    rules: list[RewriteRule],
    budget: SearchBudget = SearchBudget(),
) -> ProofTrace:
    """A trace turning ``lhs`` into ``rhs`` modulo interchange, or SearchExhausted.

    Bidirectional breadth-first search on interchange classes; the two
    frontiers advance alternately one level at a time, so the first meeting
    point gives a shortest proof.  A node's class and each class it rewrites
    into are walked once.  Deterministic for a fixed rule list.
    """
    if boundaries(lhs) != boundaries(rhs):
        raise TypingError(
            f"cannot compare: {fmt_word(lhs.input)} -> {fmt_word(codomain(lhs))} "
            f"against {fmt_word(rhs.input)} -> {fmt_word(codomain(rhs))}"
        )
    gens = ranking([lhs, rhs, *(side for rule in rules for side in (rule.lhs, rule.rhs))])
    kl, kr = (SwapClass(d, gens).least_key() for d in (lhs, rhs))
    # per side: node -> edge that discovered it (None at the root)
    visited: tuple[dict[Key, _Edge | None], dict[Key, _Edge | None]] = ({kl: None}, {kr: None})
    if kl == kr:
        return _assemble(lhs, rhs, kl, visited, rules)
    frontier: list[list[Key]] = [[kl], [kr]]
    nodes = 2
    depths = [0, 0]

    def exhausted() -> SearchExhausted:
        return SearchExhausted(
            "proof search budget exhausted (this is not a disproof)",
            nodes=nodes,
            depth_left=depths[0],
            depth_right=depths[1],
            frontier_left=len(frontier[0]),
            frontier_right=len(frontier[1]),
        )

    for _ in range(budget.max_depth_per_side):
        for side in (0, 1):
            if not frontier[side]:
                continue
            new: dict[Key, _Edge] = {}
            for node in frontier[side]:
                cls = SwapClass(decode(lhs.input, node, gens), gens)
                seen: set = set()  # every member of every class node rewrites into
                for rule in rules:
                    for direction in (FORWARD, BACKWARD):
                        dst = rule.other(direction)
                        for i, start, end, k, right in _matches(cls, rule.side(direction)):
                            child = cls.new_rewrite(seen, i, start, end, k, dst)
                            if child is None or child in visited[side] or child in new:
                                continue
                            m = Match(cls.member(i), start, end, k, right)
                            new[child] = _Edge(node, rule, direction, m)
                            nodes += 1
                            if nodes > budget.max_nodes:
                                raise exhausted()
            visited[side].update(new)
            frontier[side] = list(new)
            depths[side] += 1
            for child in new:
                if child in visited[1 - side]:
                    return _assemble(lhs, rhs, child, visited, rules)
        if not frontier[0] and not frontier[1]:
            raise exhausted()  # both classes saturated without meeting
    raise exhausted()


def _assemble(
    lhs: Diagram,
    rhs: Diagram,
    meet: Key,
    visited: tuple[dict[Key, _Edge | None], dict[Key, _Edge | None]],
    rules: list[RewriteRule],
) -> ProofTrace:
    steps = [ProofStep(e.rule.name, e.direction, e.match) for e in _path(visited[0], meet)]
    steps += [_inverted(e) for e in reversed(_path(visited[1], meet))]
    trace = ProofTrace(lhs, tuple(steps), rhs)
    if not replay(trace, rules):
        raise AssertionError("internal error: assembled trace failed replay")
    return trace


def _path(parents: dict[Key, _Edge | None], node: Key) -> list[_Edge]:
    edges: list[_Edge] = []
    while (edge := parents[node]) is not None:
        edges.append(edge)
        node = edge.parent
    return edges[::-1]


def _inverted(edge: _Edge) -> ProofStep:
    """Undo an edge: match the side it wrote, apply the opposite direction."""
    direction = BACKWARD if edge.direction == FORWARD else FORWARD
    written = edge.rule.other(edge.direction)
    m = edge.match
    inv = Match(
        lin=_splice(m.lin, m.start, m.end, m.whisker_left, written),
        start=m.start,
        end=m.start + len(written.slices),
        whisker_left=m.whisker_left,
        whisker_right=m.whisker_right,
    )
    return ProofStep(edge.rule.name, direction, inv)


def rules_from_signature(sig) -> list[RewriteRule]:
    """A signature's rules, in declaration order."""
    return list(sig.equations.values())
