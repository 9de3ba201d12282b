"""Parser, printer, and error positions for the .cmt text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, THEOREMS

from commuter.core import Diagram, Slice, compose, fmt_word, gen_diagram, identity, tensor
from commuter.dsl import (
    MAX_TERM_DEPTH,
    Document,
    load_document,
    parse_document,
    parse_term,
    print_document,
    print_term,
    tokenize,
)
from commuter.errors import CommuterError, ParseError, TypingError

ALL_DOCUMENTS = (
    THEOREMS / "theorem1.cmt",
    THEOREMS / "theorem3.cmt",
    THEOREMS / "theorem1_dual.cmt",
    FIXTURES / "monoid.cmt",
)


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.cmt").read_text(encoding="utf-8")


# ------------------------------------------------------------------ tokenizer


def test_tokenize_kinds_and_positions():
    toks = tokenize("gen f : X Y -> 1  # trailing comment\n")
    got = [(t.kind, t.text, t.line, t.col) for t in toks]
    assert got == [
        ("GEN", "gen", 1, 1),
        ("NAME", "f", 1, 5),
        ("COLON", ":", 1, 7),
        ("NAME", "X", 1, 9),
        ("NAME", "Y", 1, 11),
        ("ARROW", "->", 1, 13),
        ("ONE", "1", 1, 16),
        ("EOF", "", 2, 1),
    ]


def test_tokenize_places_end_of_input_past_the_last_line():
    def eof(text):
        tok = tokenize(text)[-1]
        assert tok.kind == "EOF"
        return tok.line, tok.col

    assert eof("(u ; u") == (1, 7)
    assert eof("obj X\nobj Y") == (2, 6)
    assert eof("obj X # note") == (1, 13)
    assert eof("obj X\n") == (2, 1)  # a file ending in a newline keeps its positions
    assert eof("") == (1, 1)


def test_tokenize_keywords_are_reserved_kinds():
    kinds = [t.kind for t in tokenize("obj gen dia rule id idx obj_")]
    assert kinds == ["OBJ", "GEN", "DIA", "RULE", "ID", "NAME", "NAME", "EOF"]


def test_tokenize_rejects_digit_led_name():
    with pytest.raises(ParseError) as exc:
        tokenize("obj 1x")
    assert (exc.value.line, exc.value.col) == (1, 5)


def test_tokenize_rejects_stray_character():
    with pytest.raises(ParseError) as exc:
        tokenize("obj X\ndia d = f @ g")
    assert (exc.value.line, exc.value.col) == (2, 11)
    assert "'@'" in str(exc.value)


@pytest.mark.parametrize(
    "text, line, col",
    [("obj _X", 1, 5), ("obj X\ngen _f : X -> X", 2, 5), ("obj X\ngen f : X -> X\ndia _d = f", 3, 5)],
)
def test_leading_underscore_is_rejected_at_the_name(text, line, col):
    # the tokenizer uses the declaration name rule, so the error points at
    # the offending name, not at the token after it
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_tokenize_comment_hides_rest_of_line():
    toks = tokenize("obj X # -> ; ( )\nobj Y")
    assert [t.text for t in toks if t.kind != "EOF"] == ["obj", "X", "obj", "Y"]


# ------------------------------------------------------- fixture parse checks


def test_theorem1_fixture_gamma_slices():
    doc = load_document(THEOREMS / "theorem1.cmt")
    gamma = doc.diagrams["gamma"]
    sig = doc.signature
    eta = sig.morphisms["eta"]
    beta = sig.morphisms["beta"]
    eps = sig.morphisms["eps"]
    assert gamma.input == ("A", "X")
    assert gamma.slices == (Slice(2, eta), Slice(1, beta), Slice(0, eps))


def test_theorem1_fixture_round_composites():
    doc = load_document(THEOREMS / "theorem1.cmt")
    gamma = doc.diagrams["gamma"]
    alpha = gen_diagram(doc.signature.morphisms["alpha"])
    assert doc.diagrams["alpha_after_gamma"] == compose(gamma, alpha)
    assert doc.diagrams["gamma_after_alpha"] == compose(alpha, gamma)


def test_monoid_fixture_shapes():
    doc = load_document(FIXTURES / "monoid.cmt")
    m = doc.signature.morphisms["m"]
    u = doc.signature.morphisms["u"]
    assert (m.dom, m.cod) == (("U", "U"), ("U",))
    assert (u.dom, u.cod) == ((), ("U",))
    assert set(doc.diagrams) == {"mm_left", "mm_right", "padded"}
    rules = doc.signature.equations
    assert set(rules) == {"unit_left", "unit_right"}
    assert rules["unit_left"].rhs == identity(("U",))


# ------------------------------------------------------------ statement rules


def test_parse_obj_requires_at_least_one_name():
    with pytest.raises(ParseError) as exc:
        parse_document("obj\ngen f : X -> X")
    assert (exc.value.line, exc.value.col) == (2, 1)
    assert exc.value.expected == ("name",)


def test_parse_rejects_duplicate_declarations():
    with pytest.raises(ParseError, match="already declared"):
        parse_document("obj X X")
    with pytest.raises(ParseError, match="already declared"):
        parse_document("obj X\ngen X : X -> X")
    with pytest.raises(ParseError, match="already declared"):
        parse_document("obj X\ngen f : X -> X\ndia f = f")


def test_parse_rejects_unknown_object_in_word():
    with pytest.raises(ParseError) as exc:
        parse_document("obj X\ngen f : X -> Z")
    assert "unknown object 'Z'" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, 14)


def test_parse_rejects_unknown_term_name():
    with pytest.raises(ParseError) as exc:
        parse_document("obj X\ndia d = nosuch")
    assert "unknown generator or diagram 'nosuch'" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, 9)


def test_parse_statement_keyword_required():
    with pytest.raises(ParseError) as exc:
        parse_document("obj X\n( f )")
    assert exc.value.expected == ("obj", "gen", "dia", "rule")
    assert (exc.value.line, exc.value.col) == (2, 1)


def test_obj_names_continue_across_lines():
    doc = parse_document("obj X\nY Z")
    assert list(doc.signature.objects) == ["X", "Y", "Z"]


def test_parse_rule_boundary_mismatch_points_at_equals():
    text = "obj X Y\ngen f : X -> Y\nrule bad : f = id X"
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert (exc.value.line, exc.value.col) == (3, 14)


def test_parse_unit_word_and_empty_identity():
    doc = parse_document("obj X\ndia nothing = id 1")
    assert doc.diagrams["nothing"] == identity(())
    assert fmt_word(()) == "1"


# ------------------------------------------------------------ fixture errors


def test_bad_syntax_fixture_position_and_expected():
    with pytest.raises(ParseError) as exc:
        load_document(FIXTURES / "bad_syntax.cmt")
    assert str(exc.value) == "5:1: expected ')' (expected ')')"
    assert exc.value.expected == ("')'",)


def test_bad_typing_fixture_reports_opening_paren():
    with pytest.raises(TypingError) as exc:
        load_document(FIXTURES / "bad_typing.cmt")
    assert str(exc.value) == (
        "line 5, col 9: cannot compose: first diagram ends at Y, second starts at X"
    )


def nested(depth: int) -> str:
    """A document whose one term sits inside ``depth`` parentheses."""
    return "obj A\ngen f : A -> A\ndia d = " + "(" * depth + "f" + " ; f)" * depth + "\n"


def test_parse_nesting_limit_points_at_offending_paren():
    doc = parse_document(nested(MAX_TERM_DEPTH))
    assert len(doc.diagrams["d"].slices) == MAX_TERM_DEPTH + 1
    for depth in (MAX_TERM_DEPTH + 1, 3000):
        with pytest.raises(ParseError) as exc:
            parse_document(nested(depth))
        assert (exc.value.line, exc.value.col) == (3, 9 + MAX_TERM_DEPTH)
        assert "nests more than" in str(exc.value)
    with pytest.raises(ParseError):
        parse_term("(" * 3000 + "f" + " ; f)" * 3000, doc)


_SOUP_TOKENS = (
    "obj", "gen", "dia", "rule", "id", "A", "B", "f", "d", "1", ":", "->", "=",
    "(", ")", ";", "*", "#", "\n", "x9", "?",
)
_PREAMBLES = ("", "obj A B\ngen f : A -> A\ngen g : 1 -> A B\ndia d = ")

token_soup = st.tuples(
    st.sampled_from(_PREAMBLES),
    st.lists(
        st.one_of(
            st.sampled_from(_SOUP_TOKENS),
            st.integers(min_value=1, max_value=5000).map(lambda n: "(" * n),
        ),
        max_size=40,
    ),
).map(lambda parts: parts[0] + " ".join(parts[1]))


@settings(max_examples=300, deadline=None)
@given(token_soup)
def test_parse_document_returns_or_raises_commuter_error(text):
    try:
        doc = parse_document(text)
    except CommuterError:
        return
    assert isinstance(doc, Document)


# ------------------------------------------------------------ terms in place


def test_parse_term_against_loaded_document():
    doc = load_document(THEOREMS / "theorem1.cmt")
    d = parse_term("(alpha ; gamma)", doc)
    assert d == doc.diagrams["gamma_after_alpha"]


def test_parse_term_rejects_trailing_input():
    doc = load_document(THEOREMS / "theorem1.cmt")
    with pytest.raises(ParseError) as exc:
        parse_term("alpha beta", doc)
    assert exc.value.expected == ("end of input",)


def test_parse_term_prefers_diagram_over_generator():
    text = "obj X\ngen f : X -> X\ndia d = (f ; f)\ndia e = d"
    doc = parse_document(text)
    assert doc.diagrams["e"] == doc.diagrams["d"]
    assert len(doc.diagrams["e"].slices) == 2


def test_parse_term_expected_set_at_bad_start():
    doc = Document()
    with pytest.raises(ParseError) as exc:
        parse_term("; f", doc)
    assert exc.value.expected == ("id", "generator or diagram name", "(")


# ---------------------------------------------------------------- printing


def test_print_term_identity_and_single_gen():
    doc = load_document(THEOREMS / "theorem1.cmt")
    alpha = gen_diagram(doc.signature.morphisms["alpha"])
    assert print_term(identity(("A", "X"))) == "id A X"
    assert print_term(identity(())) == "id 1"
    assert print_term(alpha) == "alpha"


def test_print_term_gamma_text():
    doc = load_document(THEOREMS / "theorem1.cmt")
    assert print_term(doc.diagrams["gamma"]) == (
        "((id A X * eta) ; ((id A * (beta * id A)) ; (eps * id X A)))"
    )


def test_print_term_parse_identity_on_random_diagrams():
    from commuter.rng import Lcg
    from commuter.sampling import random_diagram

    from conftest import soundness_signature

    sig = soundness_signature()
    doc = Document(signature=sig)
    rng = Lcg(5)
    for _ in range(60):
        d = random_diagram(sig, rng, max_slices=5)
        assert parse_term(print_term(d), doc) == d


@pytest.mark.parametrize("path", ALL_DOCUMENTS, ids=lambda p: p.stem)
def test_print_document_reloads_equal(path):
    doc = parse_document(path.read_text(encoding="utf-8"))
    again = parse_document(print_document(doc))
    assert again.signature.objects == doc.signature.objects
    assert again.signature.morphisms == doc.signature.morphisms
    assert again.signature.equations == doc.signature.equations
    assert again.diagrams == doc.diagrams


def test_print_document_is_stable_after_one_round():
    text = print_document(parse_document(fixture_text("monoid")))
    assert print_document(parse_document(text)) == text


def test_tensor_of_composites_survives_round_trip():
    doc = load_document(THEOREMS / "theorem1.cmt")
    sig = doc.signature
    alpha = gen_diagram(sig.morphisms["alpha"])
    eta = gen_diagram(sig.morphisms["eta"])
    d = tensor(compose(alpha, identity(("A", "X"))), eta)
    assert isinstance(d, Diagram)
    assert parse_term(print_term(d), doc) == d
