import itertools
import random
import time
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commuter import exchange
from commuter.core import (
    Diagram,
    MorGen,
    Signature,
    Slice,
    boundaries,
    codomain,
    gen_diagram,
    identity,
    tensor,
    well_typed,
)
from commuter.errors import BudgetError, NotSwappableError
from commuter.exchange import (
    GREEDY_MAX_SLICES,
    LINEARIZATION_CAP,
    SwapClass,
    adjacent_swap,
    canonicalize,
    interchange_equal,
    linearizations,
)
from commuter.rng import Lcg
from commuter.sampling import applicable, random_diagram

from conftest import soundness_signature

ALPHA = MorGen("alpha", ("X", "A"), ("A", "X"), 0)
BETA = MorGen("beta", ("X", "B"), ("B", "X"), 1)
ETA = MorGen("eta", (), ("B", "A"), 2)
EPS = MorGen("eps", ("A", "B"), (), 3)
SPLIT = MorGen("split", ("X",), ("X", "X"), 4)

GAMMA = Diagram(("A", "X"), (Slice(2, ETA), Slice(1, BETA), Slice(0, EPS)))

# distinct generators that share index and name
SCALAR = MorGen("f", (), (), 0)
PUT_A = MorGen("f", (), ("A",), 0)
PUT_B = MorGen("f", (), ("B",), 0)
KEEP = MorGen("f", ("I",), ("I",), 0)
TO_A = MorGen("f", ("I",), ("A",), 0)


def exchange_pairs(first, second):
    """Both legal exchanges of an adjacent pair, written out from the
    interval rule: the second slice's input block must clear the first
    slice's output block on one side, measured in the word between them.
    When a deletion's output point coincides with an insertion's input
    point both sides clear, and the two landings are distinct results."""
    lo2, hi2 = second.offset, second.offset + len(second.gen.dom)
    lo1, hi1 = first.offset, first.offset + len(first.gen.cod)
    pairs = []
    if hi2 <= lo1:
        grow = len(second.gen.cod) - len(second.gen.dom)
        pairs.append((second, Slice(first.offset + grow, first.gen)))
    if lo2 >= hi1:
        grow = len(first.gen.cod) - len(first.gen.dom)
        pair = (Slice(second.offset - grow, second.gen), first)
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def swap_closure(d, limit=5000):
    """All diagrams connected to d by exchange moves: an independent oracle
    for interchange_equal, linearizations, and canonicalize."""
    seen = {d}
    frontier = [d]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur.slices) - 1):
            for pair in exchange_pairs(cur.slices[i], cur.slices[i + 1]):
                nxt = Diagram(cur.input, cur.slices[:i] + pair + cur.slices[i + 2 :])
                if nxt not in seen:
                    assert len(seen) < limit
                    assert well_typed(nxt)
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def reference_swap_class(d):
    """The exhaustive class walk on plain Slice tuples: breadth-first over
    single exchanges in a fixed order, each member mapped to the permutation
    of the first path that reached it, BudgetError past the cap.  The oracle
    for the integer-key walk."""
    start = tuple(range(len(d.slices)))
    seen = {d.slices: start}
    queue = deque([(d.slices, start)])
    while queue:
        slices, perm = queue.popleft()
        for i in range(len(slices) - 1):
            for pair in exchange_pairs(slices[i], slices[i + 1]):
                swapped = slices[:i] + pair + slices[i + 2 :]
                if swapped in seen:
                    continue
                moved = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :]
                seen[swapped] = moved
                if len(seen) > LINEARIZATION_CAP:
                    raise BudgetError("reference cap", count_at_least=len(seen))
                queue.append((swapped, moved))
    return seen


def reference_canonical(d):
    """The least reference member under (offset, index, name, dom, cod) per
    slice."""
    members = reference_swap_class(d)
    best = min(
        members,
        key=lambda sl: tuple(
            (s.offset, s.gen.index, s.gen.name, s.gen.dom, s.gen.cod) for s in sl
        ),
    )
    return Diagram(d.input, best), members[best]


def assert_walks_agree(d):
    cls = SwapClass(d)
    reference = reference_swap_class(d)
    assert [m.slices for m in cls] == list(reference)
    assert [cls.member(i).slices for i in range(len(cls))] == list(reference)
    assert list(cls._perms.values()) == list(reference.values())  # certificates
    least = cls.least()
    assert (least.diagram, least.certificate) == reference_canonical(d)
    c = canonicalize(d)
    assert (c.diagram, c.certificate) == reference_canonical(d)
    assert linearizations(d) == [Diagram(d.input, sl) for sl in reference]


# ---------------------------------------------------------------- swaps

def test_swap_right_case_keeps_offsets():
    t = tensor(gen_diagram(ALPHA), gen_diagram(BETA))
    assert [(s.gen.name, s.offset) for s in t.slices] == [("alpha", 0), ("beta", 2)]
    swapped = adjacent_swap(t, 0)
    assert [(s.gen.name, s.offset) for s in swapped.slices] == [("beta", 2), ("alpha", 0)]
    assert well_typed(swapped)
    assert boundaries(swapped) == boundaries(t)


def test_swap_left_case_shifts_by_size_change():
    d = Diagram(("X",), (Slice(1, ETA), Slice(0, SPLIT)))
    swapped = adjacent_swap(d, 0)
    assert [(s.gen.name, s.offset) for s in swapped.slices] == [("split", 0), ("eta", 2)]
    assert well_typed(swapped)
    assert codomain(swapped) == codomain(d) == ("X", "X", "B", "A")


def test_swap_is_an_involution():
    t = tensor(gen_diagram(ALPHA), gen_diagram(BETA))
    assert adjacent_swap(adjacent_swap(t, 0), 0) == t


def test_swap_rejects_overlapping_wires():
    with pytest.raises(NotSwappableError):
        adjacent_swap(GAMMA, 0)  # beta consumes a wire eta created
    with pytest.raises(NotSwappableError):
        adjacent_swap(GAMMA, 1)  # eps consumes a wire beta created


def test_swap_rejects_insertion_strictly_inside_a_block():
    d = Diagram((), (Slice(0, ETA), Slice(1, ETA)))  # second lands inside [0, 2)
    with pytest.raises(NotSwappableError):
        adjacent_swap(d, 0)


def test_swap_allows_insertion_at_block_edges():
    left_edge = Diagram((), (Slice(0, ETA), Slice(0, ETA)))
    right_edge = Diagram((), (Slice(0, ETA), Slice(2, ETA)))
    assert adjacent_swap(left_edge, 0) == right_edge  # NotSwappableError if refused
    assert adjacent_swap(right_edge, 0) == left_edge
    assert interchange_equal(left_edge, right_edge)


def test_swap_index_out_of_range():
    with pytest.raises(IndexError):
        adjacent_swap(GAMMA, 2)
    with pytest.raises(IndexError):
        adjacent_swap(GAMMA, -1)


# ---------------------------------------------------------------- canonical forms

def test_canonicalize_identity_and_single_slice():
    assert canonicalize(identity(("X",))).diagram == identity(("X",))
    assert canonicalize(GAMMA).diagram == GAMMA  # nothing commutes in a chain
    assert canonicalize(GAMMA).certificate == (0, 1, 2)


def test_canonicalize_orders_independent_slices_deterministically():
    t = tensor(gen_diagram(ALPHA), gen_diagram(BETA))
    swapped = adjacent_swap(t, 0)
    c1 = canonicalize(t)
    c2 = canonicalize(swapped)
    assert c1.diagram == c2.diagram
    assert c1.certificate == (0, 1)
    assert c2.certificate == (1, 0)


def test_certificate_is_a_permutation_tracking_slices():
    t = tensor(tensor(gen_diagram(ETA), gen_diagram(ALPHA)), gen_diagram(BETA))
    c = canonicalize(t)
    assert sorted(c.certificate) == list(range(3))
    for pos, orig in enumerate(c.certificate):
        assert c.diagram.slices[pos].gen == t.slices[orig].gen


def test_interchange_equal_distinguishes_sides():
    eta2 = MorGen("eta2", (), ("B", "A"), 9)
    left_first = Diagram((), (Slice(0, ETA), Slice(0, eta2)))   # eta2 block on the left
    right_first = Diagram((), (Slice(0, ETA), Slice(2, eta2)))  # eta2 block on the right
    assert not interchange_equal(left_first, right_first)


def test_interchange_equal_quick_rejects():
    assert not interchange_equal(GAMMA, identity(("A", "X")))  # slice count differs
    other_input = Diagram(("A", "A"), ())
    assert not interchange_equal(identity(("A", "X")), other_input)


# ---------------------------------------------------------------- linearizations

def test_linearizations_of_a_chain_is_singleton():
    assert linearizations(GAMMA) == [GAMMA]


def test_linearizations_match_swap_closure_exactly():
    t = tensor(gen_diagram(ALPHA), gen_diagram(BETA))
    assert set(linearizations(t)) == swap_closure(t)
    assert len(linearizations(t)) == 2


def unit_tensor(k):
    """k insertions side by side: a swap class of k! members."""
    d = identity(())
    for _ in range(k):
        d = tensor(d, gen_diagram(ETA))
    return d


def test_linearizations_budget():
    assert len(linearizations(unit_tensor(4))) == 24
    with pytest.raises(BudgetError) as exc:
        linearizations(unit_tensor(8))  # 8! = 40320 members
    assert exc.value.count_at_least == LINEARIZATION_CAP + 1


@pytest.mark.parametrize(
    "decide",
    [canonicalize, lambda d: interchange_equal(d, d)],
    ids=["canonicalize", "interchange_equal"],
)
def test_class_past_the_cap_is_refused_quickly(decide):
    eight = unit_tensor(8)
    began = time.perf_counter()
    with pytest.raises(BudgetError):
        decide(eight)
    assert time.perf_counter() - began < 1.0


# ---------------------------------------------------------------- properties

diagrams = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_diagram(soundness_signature(), Lcg(seed), max_slices=5)
)


@settings(max_examples=120, deadline=None)
@given(diagrams)
def test_canonicalize_is_idempotent(d):
    c = canonicalize(d).diagram
    assert canonicalize(c).diagram == c


@settings(max_examples=120, deadline=None)
@given(diagrams)
def test_canonicalize_constant_on_the_swap_class(d):
    c = canonicalize(d).diagram
    for member in swap_closure(d):
        assert canonicalize(member).diagram == c
    assert c in swap_closure(d)


@settings(max_examples=100, deadline=None)
@given(diagrams)
def test_linearizations_enumerate_the_swap_class(d):
    lins = linearizations(d)
    assert len(set(lins)) == len(lins)
    assert set(lins) == swap_closure(d)
    for lin in lins:
        assert boundaries(lin) == boundaries(d)
        assert interchange_equal(lin, d)


@settings(max_examples=120, deadline=None)
@given(diagrams)
def test_interchange_equal_matches_reachability(d):
    closure = swap_closure(d)
    for member in closure:
        assert interchange_equal(d, member)
    # a diagram outside the closure with the same boundaries must compare unequal
    for other in linearizations(d):
        mutated = Diagram(d.input, other.slices[:-1]) if other.slices else None
        if mutated is not None and well_typed(mutated):
            assert not interchange_equal(d, mutated)


# ------------------------------------------------- integer walk vs reference

@settings(max_examples=150, deadline=None)
@given(diagrams)
def test_integer_walk_matches_reference_walk(d):
    assert_walks_agree(d)


# eps deletes the block eta inserts; where eps's output point meets eta's
# input point the exchange has two landings
DOUBLE_LANDINGS = [
    Diagram(("A", "B"), (Slice(0, EPS), Slice(0, ETA))),
    Diagram(("X", "A", "B"), (Slice(1, EPS), Slice(1, ETA), Slice(0, BETA))),
    Diagram(("A", "B", "X", "A"), (Slice(0, EPS), Slice(0, ALPHA), Slice(0, ETA), Slice(3, SPLIT))),
    Diagram(("A", "B", "A", "B"), (Slice(0, EPS), Slice(0, EPS), Slice(0, ETA), Slice(0, ETA))),
    Diagram((), (Slice(0, ETA), Slice(2, ETA), Slice(1, EPS), Slice(1, ETA))),
]


@pytest.mark.parametrize("d", DOUBLE_LANDINGS, ids=str)
def test_integer_walk_matches_reference_on_double_landings(d):
    assert well_typed(d)
    assert_walks_agree(d)


def test_double_landing_gives_two_members():
    assert len(SwapClass(DOUBLE_LANDINGS[0])) == 3  # eps;eta plus eta on either side of eps


@pytest.mark.parametrize(
    "d",
    [
        Diagram((), (Slice(0, SCALAR), Slice(0, PUT_A))),
        Diagram((), (Slice(0, PUT_A), Slice(0, PUT_B), Slice(0, PUT_A), Slice(1, PUT_B))),
        Diagram(("I", "I"), (Slice(1, TO_A), Slice(0, KEEP))),
        Diagram(("I", "I"), (Slice(0, TO_A), Slice(0, PUT_B), Slice(2, KEEP))),
    ],
    ids=str,
)
def test_generators_sharing_index_and_name_have_one_canonical_form(d):
    # distinct generators with one (index, name) are ordered by domain and
    # codomain, so every member of the class has the same least key
    assert well_typed(d)
    assert_walks_agree(d)
    form = canonicalize(d)
    members = linearizations(d)
    assert len(members) > 1
    for m in members:
        assert canonicalize(m).diagram == form.diagram
        assert interchange_equal(m, d)


def test_integer_walk_refuses_at_the_reference_count():
    eight = unit_tensor(8)
    with pytest.raises(BudgetError) as ours:
        SwapClass(eight)
    with pytest.raises(BudgetError) as ref:
        reference_swap_class(eight)
    assert ours.value.count_at_least == ref.value.count_at_least == LINEARIZATION_CAP + 1


# ------------------------------------------- membership vs canonical forms

def canonical_forms_equal(d1, d2):
    """The walk-and-compare decision that class membership replaced."""
    return canonicalize(d1).diagram == canonicalize(d2).diagram


def one_slice_mutations(d):
    """d with one slice changed: moved by one wire, given another generator
    of the signature, given a same-named generator of another boundary, or
    dropped."""
    sig = soundness_signature()
    out = []
    for i, s in enumerate(d.slices):
        def put(new):
            return Diagram(d.input, d.slices[:i] + new + d.slices[i + 1 :])

        out.append(put((Slice(s.offset + 1, s.gen),)))
        if s.offset:
            out.append(put((Slice(s.offset - 1, s.gen),)))
        out.extend(put((Slice(s.offset, g),)) for g in sig.morphisms.values() if g != s.gen)
        out.append(put((Slice(s.offset, MorGen(s.gen.name, s.gen.dom, s.gen.cod + ("P",), s.gen.index)),)))
        out.append(put(()))
    return out


def assert_membership_agrees(d1, d2):
    for a, b in ((d1, d2), (d2, d1)):
        assert interchange_equal(a, b) == canonical_forms_equal(a, b)


@settings(max_examples=120, deadline=None)
@given(diagrams, diagrams, st.randoms(use_true_random=False))
def test_interchange_equal_agrees_with_comparing_canonical_forms(d, other, rnd):
    member = rnd.choice(linearizations(d))
    assert_membership_agrees(d, member)
    assert_membership_agrees(d, other)
    for mutated in one_slice_mutations(member):
        assert_membership_agrees(d, mutated)


def test_interchange_equal_agrees_on_the_seeded_soundness_diagrams():
    rng = Lcg(20260818)  # the acceptance suite's soundness stream
    sample = [random_diagram(soundness_signature(), rng, max_slices=6) for _ in range(1000)]
    for k, (d, other) in enumerate(zip(sample, sample[1:])):
        cls = SwapClass(d)
        assert_membership_agrees(d, cls.member(len(cls) // 2))
        assert_membership_agrees(d, other)
        mutations = one_slice_mutations(cls.member(len(cls) - 1))
        if mutations:  # one mutation per diagram, rotating through the kinds
            assert_membership_agrees(d, mutations[k % len(mutations)])


@settings(max_examples=120, deadline=None)
@given(diagrams)
def test_every_member_sees_the_whole_class(d):
    # the swap relation is symmetric, so the class walked from any member
    # contains the diagram it came from
    for m in linearizations(d):
        assert d in SwapClass(m)


@pytest.mark.parametrize("d", DOUBLE_LANDINGS, ids=str)
def test_every_member_sees_the_whole_class_across_double_landings(d):
    members = linearizations(d)
    for m in members:
        cls = SwapClass(m)
        assert all(other in cls for other in members)


def test_membership_needs_the_input_word_and_ranked_generators():
    cls = SwapClass(GAMMA)
    assert GAMMA in cls
    assert Diagram(("A", "Y"), GAMMA.slices) not in cls
    renamed = MorGen("eps", ("A", "B"), (), 7)  # same name, not a generator of the class
    assert Diagram(GAMMA.input, GAMMA.slices[:2] + (Slice(0, renamed),)) not in cls


ENDO = MorGen("f", ("P",), ("P",), 0)
CHAIN = Diagram(("P",) * 8, (Slice(0, ENDO),) * 8)  # a class of one member
SPREAD = Diagram(("P",) * 8, tuple(Slice(i, ENDO) for i in range(8)))  # a class of 8!


def test_only_the_first_class_can_pass_the_cap():
    assert len(SwapClass(CHAIN)) == 1
    assert SPREAD not in SwapClass(CHAIN)
    assert not interchange_equal(CHAIN, SPREAD)
    with pytest.raises(BudgetError):
        interchange_equal(SPREAD, CHAIN)


# ------------------------------------------------- greedy form vs the walk

def wired_signature() -> Signature:
    """Generators that all have wires in and out, so the greedy form serves
    every class of 3 to GREEDY_MAX_SLICES slices."""
    sig = Signature()
    sig.add_object("P")
    sig.add_object("Q")
    sig.add_morphism("f", ("P",), ("Q",))
    sig.add_morphism("g", ("Q", "P"), ("P",))
    sig.add_morphism("s", ("P", "P"), ("P", "P"))
    sig.add_morphism("t", ("Q",), ("P", "Q"))
    sig.add_morphism("e", ("P",), ("P",))
    return sig


def every_diagram(sig, max_word, max_slices):
    """Every well-typed diagram with an input of at most max_word objects
    and at most max_slices slices."""
    objects = sorted(sig.objects)
    level = [Diagram(w, ()) for n in range(max_word + 1) for w in itertools.product(objects, repeat=n)]
    out = []
    for _ in range(max_slices):
        out += level
        level = [
            Diagram(d.input, d.slices + (Slice(offset, sig.morphisms[name]),))
            for d in level
            for name, offset in applicable(sig, codomain(d))
        ]
    return out + level


def assert_greedy_agrees(d, others):
    """least() and membership of d's class against the reference walk, for
    every member and for each of ``others``."""
    cls = SwapClass(d)
    least = cls.least()
    assert (least.diagram, least.certificate) == reference_canonical(d)
    members = reference_swap_class(d)
    for slices in members:
        assert Diagram(d.input, slices) in cls
    for other in others:
        assert (other in cls) == (other.input == d.input and other.slices in members)
    greedy = 3 <= len(d.slices) <= GREEDY_MAX_SLICES
    assert (cls._perms is None) == greedy  # the greedy form answered without a walk


def test_greedy_form_matches_the_walk_on_every_small_diagram():
    diagrams = list(every_diagram(wired_signature(), 3, 3))
    assert len(diagrams) == 2421
    same_gens = defaultdict(list)
    for d in diagrams:
        same_gens[d.input, tuple(sorted(s.gen.name for s in d.slices))].append(d)
    for d in diagrams:
        assert_greedy_agrees(d, same_gens[d.input, tuple(sorted(s.gen.name for s in d.slices))])


def drawn_diagram(sig, rnd, max_slices, max_word):
    """A random well-typed diagram, drawn with ``random.Random`` (the Lcg's
    low bit alternates, so its words would too)."""
    word = tuple(rnd.choice(sorted(sig.objects)) for _ in range(rnd.randint(0, max_word)))
    d = Diagram(word, ())
    for _ in range(rnd.randint(0, max_slices)):
        options = applicable(sig, codomain(d))
        if not options:
            break
        name, offset = rnd.choice(options)
        d = Diagram(word, d.slices + (Slice(offset, sig.morphisms[name]),))
    return d


def test_greedy_form_matches_the_walk_on_seeded_diagrams():
    sig, rnd = wired_signature(), random.Random(16)
    for _ in range(400):
        d = drawn_diagram(sig, rnd, GREEDY_MAX_SLICES, 6)
        moved = [
            Diagram(d.input, d.slices[:i] + (Slice(s.offset + step, s.gen),) + d.slices[i + 1 :])
            for i, s in enumerate(d.slices)
            for step in (-1, 1)
        ]
        assert_greedy_agrees(d, [m for m in moved if well_typed(m)])


def shuffled_tensor(f, k, order):
    return Diagram((f.dom[0],) * k, tuple(Slice(i, f) for i in order))


@pytest.mark.parametrize("k", range(4, GREEDY_MAX_SLICES + 1))
def test_tensors_answer_without_a_walk(k, monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked a class the greedy form serves")

    monkeypatch.setattr(exchange, "_walk", no_walk)
    f = soundness_signature().morphisms["f"]
    t1 = shuffled_tensor(f, k, random.Random(k).sample(range(k), k))
    t2 = shuffled_tensor(f, k, reversed(range(k)))
    c = canonicalize(t1)
    assert c.diagram == shuffled_tensor(f, k, range(k))
    assert tuple(t1.slices[p].offset for p in c.certificate) == tuple(range(k))
    assert interchange_equal(t1, t2)


@pytest.mark.parametrize("d", [SPREAD, unit_tensor(8)], ids=["spread", "unit_tensor8"])
def test_classes_past_the_cap_still_refused(d):
    for decide in (SwapClass, canonicalize, lambda d: interchange_equal(d, d)):
        with pytest.raises(BudgetError) as exc:
            decide(d)
        assert exc.value.count_at_least == LINEARIZATION_CAP + 1


@pytest.mark.parametrize("name", ["h", "k"])
def test_empty_boundary_generators_keep_the_walk(name, monkeypatch):
    sig = soundness_signature()
    f, g = sig.morphisms["f"], sig.morphisms[name]
    d = Diagram(("P", "P") + g.dom, (Slice(0, f), Slice(1, f), Slice(2, g)))
    assert well_typed(d)
    assert_walks_agree(d)
    walks = []
    walk = exchange._walk

    def counted(*args):
        walks.append(args[0])
        return walk(*args)

    monkeypatch.setattr(exchange, "_walk", counted)
    assert canonicalize(d).diagram in SwapClass(adjacent_swap(d, 1))
    assert len(walks) == 2  # both classes were walked
