from pathlib import Path

import numpy as np
import pytest

from commuter.core import Signature
from commuter.duality import THEOREMS
from commuter.errors import TypingError
from commuter.matrix import ModelAssignment, dual_pair, eye, kron, random_matrix
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


def companion_gamma(beta: np.ndarray, dim_a: int, dim_x: int) -> np.ndarray:
    """The candidate inverse A (x) X -> X (x) A assembled from Kronecker
    blocks, independently of ``eval_diagram``:

        (eps (x) I_{X A}) (I_A (x) beta (x) I_A) (I_{A X} (x) eta)

    read bottom-up on column vectors.
    """
    n = dim_a
    x = dim_x
    if beta.shape != (n * x, x * n):
        raise TypingError(f"beta is {beta.shape}, expected {(n * x, x * n)}")
    eta, eps = dual_pair(n)
    grow = kron(eye(n * x), eta)
    middle = kron(eye(n), beta, eye(n))
    collapse = kron(eps, eye(x * n))
    return collapse @ middle @ grow


@pytest.fixture(scope="session")
def sound_sig() -> Signature:
    return soundness_signature()


@pytest.fixture(scope="session")
def sound_model(sound_sig) -> ModelAssignment:
    return soundness_model(sound_sig)
