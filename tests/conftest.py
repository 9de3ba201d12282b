from pathlib import Path

import pytest

from commuter.core import Signature
from commuter.duality import THEOREMS
from commuter.matrix import ModelAssignment, random_matrix
from commuter.rng import Lcg

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def soundness_signature() -> Signature:
    """A small signature whose generators grow, shrink, and preserve words,
    so random diagrams exercise every swap case."""
    sig = Signature()
    sig.add_object("P")
    sig.add_object("Q")
    sig.add_morphism("f", ("P",), ("Q",))
    sig.add_morphism("g", ("Q", "P"), ("P",))
    sig.add_morphism("h", (), ("P", "Q"))
    sig.add_morphism("k", ("Q",), ())
    sig.add_morphism("s", ("P", "P"), ("P", "P"))
    return sig


def soundness_model(sig: Signature) -> ModelAssignment:
    dims = {"P": 2, "Q": 3}
    rng = Lcg(99)
    mats = {}
    for gen in sig.morphisms.values():
        rows = 1
        for o in gen.cod:
            rows *= dims[o]
        cols = 1
        for o in gen.dom:
            cols *= dims[o]
        mats[gen.name] = random_matrix(rows, cols, rng)
    return ModelAssignment(dims=dims, mats=mats)


@pytest.fixture(scope="session")
def sound_sig() -> Signature:
    return soundness_signature()


@pytest.fixture(scope="session")
def sound_model(sound_sig) -> ModelAssignment:
    return soundness_model(sound_sig)
