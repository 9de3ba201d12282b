"""The worked theorems, loaded from ``theorems/*.cmt`` and proved by search.

Each document states one theorem as data: the objects, the generators (a
dual pair eta : 1 -> B A, eps : A B -> 1 plus the commutation maps), the
hypotheses as rules, and the diagrams its goals mention.  A goal is a pair of
terms in that document, proved exactly as ``commuter prove`` would prove it:

* ``theorem1``: the mate-style composite gamma is a two-sided inverse of a
  commutation map alpha whenever alpha and its companion beta fit into the
  unit and counit squares.
* ``theorem3``: in the co-variant setting the analogous composite, built from
  the inverse binv of the B-side co-commutation, equals the A-side
  co-commutation a on the nose.
* ``theorem1_dual``: the mirrored composite delta inverts the B-side
  co-commutation b, using only the co-variant squares and the zigzags.

``statements`` lists a document's rules and goals as diagram pairs; the
matrix model checks evaluate exactly these, so each theorem is stated once.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

from .core import Diagram, MorGen, Signature
from .dsl import Document, load_document, parse_term
from .prover import ProofTrace, prove_equal, rules_from_signature

THEOREMS = Path(__file__).parent / "theorems"

# theorem -> (label, lhs term, rhs term) per goal, in proof order
GOALS = {
    "theorem1": (
        ("alpha after gamma = id A X", "alpha_after_gamma", "id A X"),
        ("gamma after alpha = id X A", "gamma_after_alpha", "id X A"),
    ),
    "theorem3": (("unit-counit composite = a", "expr", "a"),),
    "theorem1_dual": (
        ("b after delta = id X B", "b_after_delta", "id X B"),
        ("delta after b = id B X", "delta_after_b", "id B X"),
    ),
}


def load_theorem(name: str) -> Document:
    """Parse the shipped document of one theorem."""
    return load_document(THEOREMS / f"{name}.cmt")


@cache
def statements(name: str) -> tuple[tuple[str, Diagram, Diagram], ...]:
    """(label, lhs, rhs) for every rule of a theorem in declaration order,
    then every goal.  Parsed once per process: the numeric checks read
    these on every run, and a parse costs more than a check."""
    doc = load_theorem(name)
    rules = tuple((r.name, r.lhs, r.rhs) for r in doc.signature.equations.values())
    goals = tuple((label, parse_term(lhs, doc), parse_term(rhs, doc)) for label, lhs, rhs in GOALS[name])
    return rules + goals


def prove_theorem(name: str) -> list[tuple[str, ProofTrace]]:
    """Prove every goal of a theorem under its document's rules."""
    doc = load_theorem(name)
    rules = rules_from_signature(doc.signature)
    return [
        (label, prove_equal(parse_term(lhs, doc), parse_term(rhs, doc), rules))
        for label, lhs, rhs in GOALS[name]
    ]


def _signature(name: str) -> tuple[Signature, dict[str, MorGen]]:
    sig = load_theorem(name).signature
    return sig, dict(sig.morphisms)


def theorem1_signature() -> tuple[Signature, dict[str, MorGen]]:
    """Objects X, A, B; generators alpha, beta, eta, eps; the four hypothesis rules."""
    return _signature("theorem1")


def theorem3_signature() -> tuple[Signature, dict[str, MorGen]]:
    """Generators a, b, binv and the dual pair; zigzags, inverse laws for b, co-squares."""
    return _signature("theorem3")


def theorem1_dual_signature() -> tuple[Signature, dict[str, MorGen]]:
    """The co-variant setting without binv: zigzags plus both co-squares."""
    return _signature("theorem1_dual")


def verify_theorem1() -> tuple[ProofTrace, ProofTrace]:
    """The traces of alpha.gamma = id(A X) and gamma.alpha = id(X A)."""
    right, left = prove_theorem("theorem1")
    return right[1], left[1]


def verify_theorem3() -> ProofTrace:
    """The trace of the unit/counit composite = a."""
    ((_, trace),) = prove_theorem("theorem3")
    return trace


def theorem1_dual_inverse() -> tuple[ProofTrace, ProofTrace]:
    """The traces of b.delta = id(X B) and delta.b = id(B X)."""
    right, left = prove_theorem("theorem1_dual")
    return right[1], left[1]
