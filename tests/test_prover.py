import pytest

from commuter import exchange, prover
from commuter.core import (
    Diagram,
    MorGen,
    Slice,
    boundaries,
    codomain,
    compose,
    gen_diagram,
    identity,
    intermediate_words,
    tensor,
    whisker,
)
from commuter.dsl import load_document, parse_term
from commuter.duality import GOALS, load_theorem, theorem1_signature
from commuter.exchange import canonicalize, linearizations
from commuter.errors import (
    MatchInvalidError,
    SearchExhausted,
    SignatureError,
    TypingError,
)
from commuter.prover import (
    BACKWARD,
    FORWARD,
    MAX_RULE_SLICES,
    Match,
    ProofStep,
    ProofTrace,
    RewriteRule,
    SearchBudget,
    _splice,
    apply_rule,
    find_matches,
    prove_equal,
    replay,
    rules_from_signature,
)
from commuter.rng import Lcg
from commuter.sampling import random_diagram

from conftest import FIXTURES


@pytest.fixture(scope="module")
def th1():
    sig, gens = theorem1_signature()
    return sig, gens, {r.name: r for r in rules_from_signature(sig)}


@pytest.fixture(scope="module")
def monoid(sound_sig):
    # a monoid object with unit laws as rewrite rules
    from commuter.core import Signature

    sig = Signature()
    sig.add_object("U")
    m = sig.add_morphism("m", ("U", "U"), ("U",))
    u = sig.add_morphism("u", (), ("U",))
    unit_left = compose(tensor(gen_diagram(u), identity(("U",))), gen_diagram(m))
    unit_right = compose(tensor(identity(("U",)), gen_diagram(u)), gen_diagram(m))
    sig.add_equation("unit_left", unit_left, identity(("U",)))
    sig.add_equation("unit_right", unit_right, identity(("U",)))
    return sig, {"m": m, "u": u}, rules_from_signature(sig)


# ---------------------------------------------------------------- rules

def test_rule_sides_must_share_boundaries(sound_sig):
    f = sound_sig.morphisms["f"]  # P -> Q
    g = sound_sig.morphisms["g"]  # Q P -> P
    with pytest.raises(TypingError):
        RewriteRule("bad", gen_diagram(f), gen_diagram(g))


def test_rule_side_slice_limit(sound_sig):
    s = sound_sig.morphisms["s"]  # P P -> P P
    long_side = identity(("P", "P"))
    for _ in range(MAX_RULE_SLICES + 1):
        long_side = compose(long_side, gen_diagram(s))
    with pytest.raises(ValueError):
        RewriteRule("too_long", long_side, identity(("P", "P")))


def test_rules_from_signature_are_the_signature_records(th1):
    sig, _, _ = th1
    rules = rules_from_signature(sig)
    assert [r.name for r in rules] == list(sig.equations)
    assert all(r is sig.equations[r.name] for r in rules)


def test_rule_side_selection(th1):
    _, _, rules = th1
    r = rules["triangle_A"]
    assert r.side(FORWARD) is r.lhs
    assert r.side(BACKWARD) is r.rhs
    assert r.other(FORWARD) is r.rhs


# ---------------------------------------------------------------- matching

def test_find_matches_whiskered_block(th1):
    _, gens, rules = th1
    zig = rules["triangle_A"].lhs  # [A | eta@1 ; eps@0]
    target = Diagram(("X", "A"), (Slice(2, gens["eta"]), Slice(1, gens["eps"])))
    matches = find_matches(target, zig)
    assert len(matches) == 1
    m = matches[0]
    assert (m.start, m.end) == (0, 2)
    assert m.whisker_left == 1
    assert m.whisker_right == 0
    assert m.lin == target


def test_find_matches_rejects_interleaved_block(th1):
    _, gens, rules = th1
    gamma = Diagram(
        ("A", "X"),
        (Slice(2, gens["eta"]), Slice(1, gens["beta"]), Slice(0, gens["eps"])),
    )
    assert find_matches(gamma, rules["triangle_A"].lhs) == []


def test_find_matches_empty_side_at_cuts(sound_sig):
    f = sound_sig.morphisms["f"]
    side = identity(("P",))
    assert len(find_matches(gen_diagram(f), side)) == 1  # only before f
    assert len(find_matches(identity(("P", "P")), side)) == 2  # two embeddings


def test_find_matches_dedups_across_linearizations(sound_sig):
    f = sound_sig.morphisms["f"]  # P -> Q
    k = sound_sig.morphisms["k"]  # Q -> 1
    d = tensor(gen_diagram(f), gen_diagram(k))
    matches = find_matches(d, gen_diagram(f))
    assert len(matches) == 1  # both slice orders give the same rewrite


def test_find_matches_same_gen_twice(sound_sig):
    s = sound_sig.morphisms["s"]
    d = compose(gen_diagram(s), gen_diagram(s))
    matches = find_matches(d, gen_diagram(s))
    assert len(matches) == 2  # replacing either occurrence differs


def reference_find_matches(d, side):
    """find_matches with the canonical-key dedup: walk every member of d's
    class, and keep a match only when the canonical form of d with the block
    collapsed to a placeholder slice is new."""
    width = len(side.input)
    hole = MorGen("\x00hole", side.input, codomain(side), index=-1)
    out, seen = [], set()
    for lin in linearizations(d):
        words = intermediate_words(lin)
        blocks = []
        if side.slices:
            n = len(side.slices)
            for start in range(len(lin.slices) - n + 1):
                k = lin.slices[start].offset - side.slices[0].offset
                if k >= 0 and all(
                    got.gen == want.gen and got.offset == want.offset + k
                    for got, want in zip(lin.slices[start : start + n], side.slices)
                ):
                    blocks.append((start, start + n, k))
        else:
            blocks = [
                (cut, cut, k) for cut, w in enumerate(words) for k in range(len(w) - width + 1)
            ]
        for start, end, k in blocks:
            w = words[start]
            if w[k : k + width] != side.input:
                continue
            plugged = Diagram(lin.input, lin.slices[:start] + (Slice(k, hole),) + lin.slices[end:])
            key = canonicalize(plugged).diagram
            if key not in seen:
                seen.add(key)
                out.append(Match(lin, start, end, k, len(w) - k - width))
    return out


@pytest.mark.parametrize("name", [*GOALS, "monoid"])
def test_membership_dedup_matches_canonical_key_dedup(name):
    doc = load_document(FIXTURES / "monoid.cmt") if name == "monoid" else load_theorem(name)
    rules = rules_from_signature(doc.signature)
    sides = [r.side(direction) for r in rules for direction in (FORWARD, BACKWARD)]
    # the goals, the document's diagrams and the rule sides, then one level
    # of rewrites of each, as the prover would reach them
    targets = list(doc.diagrams.values()) + sides
    targets += [parse_term(t, doc) for _, lhs, rhs in GOALS.get(name, ()) for t in (lhs, rhs)]
    for t in list(targets):
        for rule in rules:
            for direction in (FORWARD, BACKWARD):
                for m in find_matches(t, rule.side(direction))[:1]:
                    targets.append(apply_rule(t, rule, m, direction))
    assert len(targets) > 20
    for t in targets:
        for side in sides:
            assert find_matches(t, side) == reference_find_matches(t, side)


# ---------------------------------------------------------------- application

def test_apply_rule_forward_then_backward(th1):
    _, _, rules = th1
    r = rules["triangle_A"]
    m = find_matches(gen_diagram_zig(r), r.lhs)[0]
    reduced = apply_rule(gen_diagram_zig(r), r, m, FORWARD)
    assert reduced == identity(("A",))
    back = find_matches(reduced, r.rhs)
    grown = apply_rule(reduced, r, back[0], BACKWARD)
    assert grown == r.lhs


def gen_diagram_zig(rule):
    return rule.lhs


def test_apply_rule_rejects_stale_match(th1, sound_sig):
    _, _, rules = th1
    r = rules["triangle_A"]
    m = find_matches(r.lhs, r.lhs)[0]
    with pytest.raises(MatchInvalidError):
        apply_rule(identity(("A",)), r, m, FORWARD)


def test_apply_rule_rejects_bad_direction(th1):
    _, _, rules = th1
    r = rules["triangle_A"]
    m = find_matches(r.lhs, r.lhs)[0]
    with pytest.raises(ValueError):
        apply_rule(r.lhs, r, m, "sideways")


def test_apply_rule_keeps_whiskers(th1):
    _, gens, rules = th1
    r = rules["triangle_A"]
    target = Diagram(("X", "A"), (Slice(2, gens["eta"]), Slice(1, gens["eps"])))
    m = find_matches(target, r.lhs)[0]
    assert apply_rule(target, r, m, FORWARD) == identity(("X", "A"))


# ---------------------------------------------------------------- replay

def test_replay_accepts_prover_output(monoid):
    _, gens, rules = monoid
    padded = compose(
        compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"])),
        compose(tensor(identity(("U",)), gen_diagram(gens["u"])), gen_diagram(gens["m"])),
    )
    trace = prove_equal(padded, identity(("U",)), rules)
    assert len(trace.steps) == 2
    assert replay(trace, rules)
    assert replay(trace, {r.name: r for r in rules})


def test_replay_rejects_corrupted_offsets(monoid):
    _, gens, rules = monoid
    padded = compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"]))
    trace = prove_equal(padded, identity(("U",)), rules)
    assert trace.steps
    step = trace.steps[0]
    bent = Match(
        lin=step.match.lin,
        start=step.match.start,
        end=step.match.end,
        whisker_left=step.match.whisker_left + 1,
        whisker_right=step.match.whisker_right,
    )
    forged = ProofTrace(trace.start, (ProofStep(step.rule, step.direction, bent),), trace.end)
    assert not replay(forged, rules)


def test_replay_rejects_ill_typed_linearization(monoid):
    _, gens, rules = monoid
    padded = compose(
        compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"])),
        compose(tensor(identity(("U",)), gen_diagram(gens["u"])), gen_diagram(gens["m"])),
    )
    trace = prove_equal(padded, identity(("U",)), rules)
    step = trace.steps[-1]
    lin = step.match.lin
    bent = Match(
        lin=Diagram(lin.input, (Slice(5, gens["m"]),) + lin.slices),
        start=step.match.start + 1,
        end=step.match.end + 1,
        whisker_left=step.match.whisker_left,
        whisker_right=step.match.whisker_right,
    )
    forged = ProofTrace(
        trace.start, trace.steps[:-1] + (ProofStep(step.rule, step.direction, bent),), trace.end
    )
    assert replay(forged, rules) is False


def test_replay_rejects_wrong_endpoint(monoid):
    _, gens, rules = monoid
    padded = compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"]))
    trace = prove_equal(padded, identity(("U",)), rules)
    wrong = ProofTrace(trace.start, trace.steps, padded)
    assert not replay(wrong, rules)


def test_replay_unknown_rule(monoid):
    _, gens, rules = monoid
    padded = compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"]))
    trace = prove_equal(padded, identity(("U",)), rules)
    renamed = ProofTrace(
        trace.start,
        tuple(ProofStep("mystery", s.direction, s.match) for s in trace.steps),
        trace.end,
    )
    with pytest.raises(SignatureError):
        replay(renamed, rules)


def test_replay_rejects_bad_direction_value(monoid):
    _, gens, rules = monoid
    padded = compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"]))
    trace = prove_equal(padded, identity(("U",)), rules)
    step = trace.steps[0]
    forged = ProofTrace(
        trace.start, (ProofStep(step.rule, "diagonal", step.match),), trace.end
    )
    assert not replay(forged, rules)


# ---------------------------------------------------------------- search

def test_prove_equal_trivial_is_empty_trace(monoid):
    _, gens, rules = monoid
    m = gen_diagram(gens["m"])
    trace = prove_equal(m, m, rules)
    assert trace.steps == ()
    mm = compose(tensor(m, identity(("U",))), gen_diagram(gens["m"]))
    swapped_rep = Diagram(mm.input, (mm.slices[0],) + mm.slices[1:])
    assert prove_equal(mm, swapped_rep, rules).steps == ()


def test_prove_equal_boundary_mismatch(monoid):
    _, gens, rules = monoid
    with pytest.raises(TypingError):
        prove_equal(gen_diagram(gens["m"]), gen_diagram(gens["u"]), rules)


def test_prove_equal_budget_exhaustion(monoid):
    _, gens, rules = monoid
    m = gen_diagram(gens["m"])
    mm_left = compose(tensor(m, identity(("U",))), gen_diagram(gens["m"]))
    mm_right = compose(tensor(identity(("U",)), m), gen_diagram(gens["m"]))
    with pytest.raises(SearchExhausted) as exc:
        prove_equal(mm_left, mm_right, rules, SearchBudget(max_depth_per_side=2, max_nodes=200))
    stats = exc.value.stats()
    assert stats["nodes"] > 2
    assert set(stats) == {
        "nodes", "depth_left", "depth_right", "frontier_left", "frontier_right",
    }


def test_prove_equal_saturation_stops_early(sound_sig):
    s = sound_sig.morphisms["s"]
    loop = RewriteRule("loop", gen_diagram(s), gen_diagram(s))
    with pytest.raises(SearchExhausted) as exc:
        prove_equal(gen_diagram(s), identity(("P", "P")), [loop])
    # both classes saturate long before the depth budget runs out
    assert exc.value.depth_left < 8
    assert exc.value.frontier_left == 0
    assert exc.value.frontier_right == 0


def test_prove_equal_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_depth_per_side=0)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=-1)


def test_prove_equal_deterministic(monoid):
    _, gens, rules = monoid
    padded = compose(
        compose(tensor(gen_diagram(gens["u"]), identity(("U",))), gen_diagram(gens["m"])),
        compose(tensor(identity(("U",)), gen_diagram(gens["u"])), gen_diagram(gens["m"])),
    )
    t1 = prove_equal(padded, identity(("U",)), rules)
    t2 = prove_equal(padded, identity(("U",)), rules)
    assert t1 == t2


# ------------------------------------------- agreement with the canonical search

def reference_prove_equal(lhs, rhs, rules, budget=SearchBudget()):
    """The search on canonical diagrams: every node is a canonical form, and
    every child is the canonical form of a ``find_matches`` match with the
    rule's other side spliced in.  Returns the trace, or the stats of the
    SearchExhausted the search raises."""
    cl, cr = canonicalize(lhs).diagram, canonicalize(rhs).diagram
    if cl == cr:
        return ProofTrace(lhs, (), rhs)
    visited = ({cl: None}, {cr: None})  # node -> (parent, rule, direction, match)
    frontier = [[cl], [cr]]
    nodes, depths = 2, [0, 0]

    def stats():
        return {
            "nodes": nodes, "depth_left": depths[0], "depth_right": depths[1],
            "frontier_left": len(frontier[0]), "frontier_right": len(frontier[1]),
        }

    def path(side, node):
        edges = []
        while visited[side][node] is not None:
            edges.append(visited[side][node])
            node = edges[-1][0]
        return edges[::-1]

    for _ in range(budget.max_depth_per_side):
        for side in (0, 1):
            if not frontier[side]:
                continue
            new = {}
            for node in frontier[side]:
                for rule in rules:
                    for direction in (FORWARD, BACKWARD):
                        dst = rule.other(direction)
                        for m in find_matches(node, rule.side(direction)):
                            raw = _splice(m.lin, m.start, m.end, m.whisker_left, dst)
                            child = canonicalize(raw).diagram
                            if child in visited[side] or child in new:
                                continue
                            new[child] = (node, rule, direction, m)
                            nodes += 1
                            if nodes > budget.max_nodes:
                                return stats()
            visited[side].update(new)
            frontier[side] = list(new)
            depths[side] += 1
            for child in new:
                if child in visited[1 - side]:
                    steps = [ProofStep(r.name, dn, m) for _, r, dn, m in path(0, child)]
                    for _, r, dn, m in reversed(path(1, child)):
                        written = r.other(dn)
                        lin = _splice(m.lin, m.start, m.end, m.whisker_left, written)
                        back = BACKWARD if dn == FORWARD else FORWARD
                        inv = Match(lin, m.start, m.start + len(written.slices),
                                    m.whisker_left, m.whisker_right)
                        steps.append(ProofStep(r.name, back, inv))
                    return ProofTrace(lhs, tuple(steps), rhs)
        if not frontier[0] and not frontier[1]:
            return stats()
    return stats()


def search_result(lhs, rhs, rules, budget=SearchBudget()):
    try:
        return prove_equal(lhs, rhs, rules, budget)
    except SearchExhausted as e:
        return e.stats()


def test_search_matches_canonical_form_search():
    pairs = []  # (lhs, rhs, rules, budget)
    for name, goals in GOALS.items():
        doc = load_theorem(name)
        rules = rules_from_signature(doc.signature)
        pairs += [(parse_term(l, doc), parse_term(r, doc), rules, SearchBudget())
                  for _, l, r in goals]
    doc = load_document(FIXTURES / "monoid.cmt")
    rules = rules_from_signature(doc.signature)
    small = SearchBudget(max_depth_per_side=2, max_nodes=200)
    named = [*doc.diagrams.values(), parse_term("id U", doc)]
    pairs += [(a, b, rules, small) for a in named for b in named
              if a != b and boundaries(a) == boundaries(b)]
    # seeded random pairs: each draw against the next later draw with the
    # same boundaries in another class, and against one rewrite of itself
    rng = Lcg(1)
    drawn = [random_diagram(doc.signature, rng, max_slices=2, max_word=2) for _ in range(60)]
    fixed = len(pairs)
    for i, a in enumerate(drawn):
        later = (d for d in drawn[i + 1 :] if boundaries(d) == boundaries(a))
        b = next((d for d in later if canonicalize(d) != canonicalize(a)), None)
        if b is not None:
            pairs.append((a, b, rules, small))
        rule = rules[i % len(rules)]
        direction = BACKWARD if i % 4 < 2 else FORWARD
        found = find_matches(a, rule.side(direction))
        if found:
            pairs.append((a, apply_rule(a, rule, found[-1], direction), rules, small))
    assert len(pairs) - fixed >= 50
    outcomes = set()
    for lhs, rhs, rules, budget in pairs:
        got = search_result(lhs, rhs, rules, budget)
        assert got == reference_prove_equal(lhs, rhs, rules, budget), (lhs, rhs)
        outcomes.add(type(got))
    assert outcomes == {ProofTrace, dict}  # both proofs and exhausted searches


# each expanded node's class is walked once, and each rewrite into a class
# that node has not yet rewritten into walks that class once
SEARCH_WALKS = {
    ("theorem1", "alpha_after_gamma"): 9,
    ("theorem1", "gamma_after_alpha"): 9,
    ("theorem3", "expr"): 56,
    ("theorem1_dual", "b_after_delta"): 9,
    ("theorem1_dual", "delta_after_b"): 9,
    ("monoid", "padded"): 14,
}


@pytest.mark.parametrize("name, lhs", list(SEARCH_WALKS))
def test_search_walks(name, lhs, monkeypatch):
    if name == "monoid":
        doc, rhs = load_document(FIXTURES / "monoid.cmt"), "id U"
    else:
        doc = load_theorem(name)
        rhs = next(r for _, l, r in GOALS[name] if l == lhs)
    rules = rules_from_signature(doc.signature)
    walks = []
    walk = exchange._walk

    def counted(*args):
        walks.append(args[0])
        return walk(*args)

    monkeypatch.setattr(exchange, "_walk", counted)
    monkeypatch.setattr(prover, "replay", lambda trace, rules: True)
    prove_equal(parse_term(lhs, doc), parse_term(rhs, doc), rules)
    assert len(walks) == SEARCH_WALKS[name, lhs]


# ------------------------------------------------- closure-oracle agreement

def rewrite_closure(start, rules, max_size=600, max_slices=8):
    """Brute-force closure of a diagram under rule applications in both
    directions, tracked modulo interchange via canonical forms."""
    from commuter.exchange import canonicalize

    seen = {canonicalize(start).diagram}
    frontier = [canonicalize(start).diagram]
    while frontier:
        node = frontier.pop()
        for rule in rules:
            for direction in (FORWARD, BACKWARD):
                if len(rule.other(direction).slices) - len(rule.side(direction).slices) + len(node.slices) > max_slices:
                    continue
                for m in find_matches(node, rule.side(direction)):
                    nxt = canonicalize(apply_rule(node, rule, m, direction)).diagram
                    if nxt not in seen:
                        assert len(seen) < max_size
                        seen.add(nxt)
                        frontier.append(nxt)
    return seen


def test_prover_agrees_with_rewrite_closure(monoid):
    _, gens, rules = monoid
    from commuter.exchange import canonicalize

    u, m = gen_diagram(gens["u"]), gen_diagram(gens["m"])
    um = compose(tensor(u, identity(("U",))), m)
    candidates = [
        identity(("U",)),
        um,
        compose(tensor(identity(("U",)), u), m),
        compose(um, compose(tensor(identity(("U",)), u), m)),
    ]
    closure = rewrite_closure(identity(("U",)), rules, max_slices=5)
    budget = SearchBudget(max_depth_per_side=4, max_nodes=5000)
    for cand in candidates:
        assert canonicalize(cand).diagram in closure
        trace = prove_equal(identity(("U",)), cand, rules, budget)
        assert replay(trace, rules)
        assert len(trace.steps) <= 4
