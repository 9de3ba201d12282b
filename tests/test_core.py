import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commuter.core import (
    MAX_RULE_SLICES,
    Diagram,
    MorGen,
    Signature,
    Slice,
    boundaries,
    codomain,
    compose,
    fmt_word,
    gen_diagram,
    identity,
    intermediate_words,
    tensor,
    well_typed,
    whisker,
)
from commuter.errors import SignatureError, TypingError
from commuter.rng import Lcg
from commuter.sampling import random_diagram

from conftest import soundness_signature

ALPHA = MorGen("alpha", ("X", "A"), ("A", "X"), 0)
ETA = MorGen("eta", (), ("B", "A"), 1)
EPS = MorGen("eps", ("A", "B"), (), 2)


def test_fmt_word():
    assert fmt_word(()) == "1"
    assert fmt_word(("A",)) == "A"
    assert fmt_word(("A", "X", "B")) == "A X B"


def test_identity_has_no_slices():
    d = identity(("A", "B"))
    assert d.slices == ()
    assert boundaries(d) == (("A", "B"), ("A", "B"))
    assert well_typed(d)


def test_gen_diagram_boundaries():
    d = gen_diagram(ALPHA)
    assert d.input == ("X", "A")
    assert codomain(d) == ("A", "X")
    assert d.slices == (Slice(0, ALPHA),)


def test_intermediate_words_chain():
    d = Diagram(("A", "X"), (Slice(2, ETA), Slice(1, MorGen("beta", ("X", "B"), ("B", "X"), 3)), Slice(0, EPS)))
    assert intermediate_words(d) == [
        ("A", "X"),
        ("A", "X", "B", "A"),
        ("A", "B", "X", "A"),
        ("X", "A"),
    ]


def test_intermediate_words_reports_slice_index():
    bad = Diagram(("A",), (Slice(0, ALPHA),))
    with pytest.raises(TypingError) as exc:
        intermediate_words(bad)
    assert exc.value.slice_index == 0
    assert "alpha" in str(exc.value)
    assert not well_typed(bad)


def test_offset_out_of_range_is_ill_typed():
    bad = Diagram(("X", "A"), (Slice(1, ALPHA),))
    assert not well_typed(bad)


def test_compose_concatenates_slices():
    f = gen_diagram(ALPHA)
    g = identity(("A", "X"))
    assert compose(f, g) == f
    assert compose(identity(("X", "A")), f) == f


def test_compose_rejects_mismatched_boundary():
    with pytest.raises(TypingError):
        compose(gen_diagram(ALPHA), gen_diagram(ALPHA))


def test_tensor_shifts_offsets():
    beta = MorGen("beta", ("X", "B"), ("B", "X"), 3)
    t = tensor(gen_diagram(ALPHA), gen_diagram(beta))
    assert t.input == ("X", "A", "X", "B")
    assert codomain(t) == ("A", "X", "B", "X")
    assert [s.offset for s in t.slices] == [0, 2]
    assert [s.gen.name for s in t.slices] == ["alpha", "beta"]


def test_tensor_with_unit_is_identity_on_diagrams():
    d = gen_diagram(ALPHA)
    assert tensor(d, identity(())) == d
    assert tensor(identity(()), d) == d


def test_whisker_is_tensor_with_identities():
    d = gen_diagram(ALPHA)
    w = whisker(d, ("B",), ("A", "B"))
    assert w == tensor(identity(("B",)), tensor(d, identity(("A", "B"))))
    assert w.input == ("B", "X", "A", "A", "B")
    assert w.slices[0].offset == 1


def test_diagram_str_is_compact():
    d = Diagram(("A", "X"), (Slice(2, ETA), Slice(0, EPS)))
    assert str(d) == "[A X | eta@2 ; eps@0]"
    assert str(identity(())) == "id(1)"
    assert str(identity(("A", "B"))) == "id(A B)"


def test_signature_declaration_and_lookup():
    sig = Signature()
    sig.add_object("X")
    sig.add_object("A")
    alpha = sig.add_morphism("alpha", ("X", "A"), ("A", "X"))
    assert alpha.index == 0
    assert sig.morphisms["alpha"] is alpha
    second = sig.add_morphism("beta", ("X", "A"), ("A", "X"))
    assert second.index == 1
    assert sig.identity(("X",)) == identity(("X",))


def test_signature_rejects_duplicates_and_unknown_objects():
    sig = Signature()
    sig.add_object("X")
    with pytest.raises(SignatureError):
        sig.add_object("X")
    sig.add_morphism("f", ("X",), ("X",))
    with pytest.raises(SignatureError):
        sig.add_morphism("f", ("X",), ("X",))
    with pytest.raises(SignatureError):
        sig.add_morphism("g", ("Y",), ("X",))
    # rules share the one namespace and name rule, so a printed signature reloads
    kept = sig.add_equation("r", identity(("X",)), identity(("X",)))
    for name in ("X", "f", "bad name"):
        with pytest.raises(SignatureError):
            sig.add_equation(name, identity(("X",)), identity(("X",)))
    with pytest.raises(SignatureError):
        sig.add_morphism("r", ("X",), ("X",))
    assert sig.equations == {"r": kept}
    assert list(sig.morphisms) == ["f"]


def test_signature_equation_boundary_check():
    sig = Signature()
    sig.add_object("X")
    f = sig.add_morphism("f", ("X",), ("X",))
    kept = sig.add_equation("ok", gen_diagram(f), identity(("X",)))
    with pytest.raises(TypingError):
        sig.add_equation("bad", gen_diagram(f), identity(("X", "X")))
    long_side = identity(("X",))
    for _ in range(MAX_RULE_SLICES + 1):
        long_side = compose(long_side, gen_diagram(f))
    with pytest.raises(ValueError):
        sig.add_equation("too_long", long_side, identity(("X",)))
    assert sig.equations == {"ok": kept}


def test_check_diagram_requires_declared_generators():
    sig = Signature()
    sig.add_object("X")
    sig.add_morphism("f", ("X",), ("X",))
    rogue = MorGen("f", ("X",), ("X",), 7)  # same name, different identity
    with pytest.raises(SignatureError):
        sig.check_diagram(Diagram(("X",), (Slice(0, rogue),)))


# ---------------------------------------------------------------- properties

diagrams = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_diagram(soundness_signature(), Lcg(seed))
)


@settings(max_examples=150, deadline=None)
@given(diagrams)
def test_random_diagrams_are_well_typed(d):
    assert well_typed(d)
    words = intermediate_words(d)
    assert words[0] == d.input
    assert words[-1] == codomain(d)
    assert len(words) == len(d.slices) + 1


@settings(max_examples=100, deadline=None)
@given(diagrams, diagrams)
def test_tensor_boundaries_concatenate(f, g):
    t = tensor(f, g)
    assert t.input == f.input + g.input
    assert codomain(t) == codomain(f) + codomain(g)
    assert len(t.slices) == len(f.slices) + len(g.slices)


@settings(max_examples=100, deadline=None)
@given(diagrams, diagrams, diagrams)
def test_tensor_is_associative(f, g, h):
    assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))


@settings(max_examples=100, deadline=None)
@given(diagrams)
def test_compose_with_identities_is_neutral(d):
    assert compose(identity(d.input), d) == d
    assert compose(d, identity(codomain(d))) == d


@settings(max_examples=100, deadline=None)
@given(diagrams, diagrams)
def test_interchange_member_composes(f, g):
    t = tensor(f, g)
    sequential = compose(whisker(f, (), g.input), whisker(g, codomain(f), ()))
    assert t == sequential
