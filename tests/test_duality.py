"""The shipped theorem documents: the shapes they state and the traces they prove."""

import pytest

from commuter.core import boundaries, codomain, identity
from commuter.duality import (
    load_theorem,
    theorem1_dual_inverse,
    theorem1_dual_signature,
    theorem1_signature,
    theorem3_signature,
    verify_theorem1,
    verify_theorem3,
)
from commuter.prover import replay, rules_from_signature

THEOREMS = ("theorem1", "theorem3", "theorem1_dual")


@pytest.fixture(scope="module")
def docs():
    return {name: load_theorem(name) for name in THEOREMS}


def rule(doc, name):
    r = doc.signature.equations[name]
    return r.lhs, r.rhs


def placed(d):
    return [(sl.gen.name, sl.offset) for sl in d.slices]


# ---------------------------------------------------------------- dual pairs

def test_triangle_rules_shapes(docs):
    for doc in docs.values():
        zig_a, id_a = rule(doc, "triangle_A")
        assert boundaries(zig_a) == (("A",), ("A",))
        assert placed(zig_a) == [("eta", 1), ("eps", 0)]
        assert id_a == identity(("A",))
        zig_b, id_b = rule(doc, "triangle_B")
        assert boundaries(zig_b) == (("B",), ("B",))
        assert placed(zig_b) == [("eta", 0), ("eps", 1)]
        assert id_b == identity(("B",))


def test_declare_duality_registers_rules(docs):
    for doc in docs.values():
        sig = doc.signature
        assert (sig.morphisms["eta"].dom, sig.morphisms["eta"].cod) == ((), ("B", "A"))
        assert (sig.morphisms["eps"].dom, sig.morphisms["eps"].cod) == (("A", "B"), ())
        assert list(sig.equations)[:2] == ["triangle_A", "triangle_B"]


# ---------------------------------------------------------------- structures

def test_commutation_structure_from_gen(docs):
    gens = docs["theorem1"].signature.morphisms
    assert (gens["alpha"].dom, gens["alpha"].cod) == (("X", "A"), ("A", "X"))
    assert (gens["beta"].dom, gens["beta"].cod) == (("X", "B"), ("B", "X"))


def test_cocommutation_structure_from_gen(docs):
    for name in ("theorem3", "theorem1_dual"):
        gens = docs[name].signature.morphisms
        assert (gens["a"].dom, gens["a"].cod) == (("A", "X"), ("X", "A"))
        assert (gens["b"].dom, gens["b"].cod) == (("B", "X"), ("X", "B"))


def test_tensor_commutation_slices(docs):
    # the structure on A B opens the counit square: act on A, then on B
    lhs, _ = rule(docs["theorem1"], "eps_square")
    assert boundaries(lhs) == (("X", "A", "B"), ("X",))
    assert placed(lhs)[:2] == [("alpha", 0), ("beta", 1)]


def test_cocommutation_tensor_slices(docs):
    # the co-structure on B A closes the unit co-square: act on A, then on B
    lhs, _ = rule(docs["theorem3"], "eta_cosquare")
    assert boundaries(lhs) == (("X",), ("X", "B", "A"))
    assert placed(lhs)[1:] == [("a", 1), ("b", 0)]


# ---------------------------------------------------------------- squares

def test_commutation_square_eta_shape(docs):
    lhs, rhs = rule(docs["theorem1"], "eta_square")
    assert boundaries(lhs) == (("X",), ("B", "A", "X"))
    assert placed(lhs) == [("eta", 0)]
    assert placed(rhs) == [("eta", 1), ("beta", 0), ("alpha", 1)]


def test_cocommutation_square_eps_shape(docs):
    for name in ("theorem3", "theorem1_dual"):
        lhs, rhs = rule(docs[name], "eps_cosquare")
        assert boundaries(lhs) == (("A", "B", "X"), ("X",))
        assert placed(lhs) == [("eps", 0)]
        assert placed(rhs) == [("b", 1), ("a", 0), ("eps", 1)]


# ---------------------------------------------------------------- theorem1

def test_theorem1_gamma_shape(docs):
    gamma = docs["theorem1"].diagrams["gamma"]
    assert boundaries(gamma) == (("A", "X"), ("X", "A"))
    assert placed(gamma) == [("eta", 2), ("beta", 1), ("eps", 0)]


def test_verify_theorem1_traces():
    sig, _ = theorem1_signature()
    rules = rules_from_signature(sig)
    trace_right, trace_left = verify_theorem1()
    hypothesis_rules = {"triangle_A", "triangle_B", "eta_square", "eps_square"}
    for trace in (trace_right, trace_left):
        assert 0 < len(trace.steps) <= 4
        assert {s.rule for s in trace.steps} <= hypothesis_rules
        assert replay(trace, rules)
    assert codomain(trace_right.end) == ("A", "X")
    assert codomain(trace_left.end) == ("X", "A")


# ---------------------------------------------------------------- theorem3

def test_theorem3_expression_shape(docs):
    expr = docs["theorem3"].diagrams["expr"]
    assert boundaries(expr) == (("A", "X"), ("X", "A"))
    assert placed(expr) == [("eta", 2), ("binv", 1), ("eps", 0)]


def test_theorem3_signature_rule_names():
    sig, _ = theorem3_signature()
    assert list(sig.equations) == [
        "triangle_A", "triangle_B", "b_inv_left", "b_inv_right",
        "eta_cosquare", "eps_cosquare",
    ]


def test_verify_theorem3_trace():
    sig, _ = theorem3_signature()
    trace = verify_theorem3()
    assert 0 < len(trace.steps) <= 4
    allowed = set(sig.equations)
    assert {s.rule for s in trace.steps} <= allowed
    assert replay(trace, rules_from_signature(sig))


# ------------------------------------------------------ dualized theorem1

def test_theorem1_delta_shape(docs):
    delta = docs["theorem1_dual"].diagrams["delta"]
    assert boundaries(delta) == (("X", "B"), ("B", "X"))
    assert placed(delta) == [("eta", 0), ("a", 1), ("eps", 2)]


def test_theorem1_dual_inverse_traces():
    sig, gens = theorem1_dual_signature()
    rules = rules_from_signature(sig)
    trace_right, trace_left = theorem1_dual_inverse()
    allowed = set(sig.equations)
    assert "binv" not in gens
    assert allowed == {"triangle_A", "triangle_B", "eta_cosquare", "eps_cosquare"}
    for trace in (trace_right, trace_left):
        assert 0 < len(trace.steps) <= 4
        assert {s.rule for s in trace.steps} <= allowed
        assert replay(trace, rules)
        for step in trace.steps:
            for sl in step.match.lin.slices:
                assert sl.gen.name != "binv"
