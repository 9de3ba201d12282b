"""Answers the benchmark checks verdicts against, computed without the engine.

Nothing here calls into ``commuter``'s exchange, prover, matrix or finset
layers; the oracles work on the plain slice data (input word, offsets,
generator names and boundary words) that every diagram carries.

* ``unit_terms``: the unit-law normal form.  Each output wire of a diagram over
  ``m : U U -> U`` and ``u : 1 -> U`` is a term in the free magma with a unit,
  where ``u`` gives ``e`` and ``m(e, x) = m(x, e) = x``.  Two diagrams are equal
  under the unit laws exactly when their tuples of output terms agree.
* ``words`` / ``word_dims``: replay of the word rewriting a diagram performs.
* ``TensorModel.evaluate``: a slice-by-slice evaluator that applies each
  generator to the middle axis of the running tensor, with no Kronecker
  product.
* ``wiring``: the port graph of a diagram, which interchange moves preserve.
* finite-set cardinality formulas, as the acceptance tests state them.
"""

from __future__ import annotations

import math

import numpy as np

UNIT = "e"
# The matrix model refuses any word whose dimension exceeds this.
MATRIX_DIM_LIMIT = 10**4


# ------------------------------------------------------------- unit laws

def unit_terms(d) -> tuple:
    """The tuple of normalised output terms of a diagram over ``m`` and ``u``."""
    wires: list = [("x", i) for i in range(len(d.input))]
    for s in d.slices:
        if s.gen.name == "u":
            wires[s.offset : s.offset] = [UNIT]
        elif s.gen.name == "m":
            a, b = wires[s.offset], wires[s.offset + 1]
            term = b if a == UNIT else a if b == UNIT else ("m", a, b)
            wires[s.offset : s.offset + 2] = [term]
        else:
            raise ValueError(f"not a unit-law generator: {s.gen.name}")
    return tuple(wires)


def unit_equal(d1, d2) -> bool:
    return d1.input == d2.input and unit_terms(d1) == unit_terms(d2)


# ------------------------------------------------------------------ words

def words(d) -> list[tuple[str, ...]]:
    """Every word the diagram passes through, input first."""
    w = tuple(d.input)
    out = [w]
    for s in d.slices:
        lo, hi = s.offset, s.offset + len(s.gen.dom)
        if w[lo:hi] != s.gen.dom:
            raise ValueError(f"ill-typed slice {s.gen.name}@{s.offset} on {w}")
        w = w[:lo] + s.gen.cod + w[hi:]
        out.append(w)
    return out


def word_dim(word, dims: dict[str, int]) -> int:
    return math.prod(dims[o] for o in word)


def fold_entries(d, dims: dict[str, int]) -> int:
    """Entries of the largest array a dense ``I (x) g (x) I`` fold allocates.

    The fold builds both identity blocks before the Kronecker product checks
    the size bound, so a refused step still allocates them.
    """
    ws = words(d)
    most = word_dim(d.input, dims) ** 2
    for s, before, after in zip(d.slices, ws, ws[1:]):
        lo, hi = s.offset, s.offset + len(s.gen.dom)
        left, right = word_dim(before[:lo], dims), word_dim(before[hi:], dims)
        if max(left, right) > MATRIX_DIM_LIMIT:
            break
        most = max(most, left * left, right * right)
        rows, cols = word_dim(after, dims), word_dim(before, dims)
        if max(rows, cols) > MATRIX_DIM_LIMIT:
            break
        most = max(most, rows * cols)
    return most


def exceeds_matrix_limit(d, dims: dict[str, int]) -> bool:
    """Does some word of the diagram pass the matrix model's size bound?"""
    return any(word_dim(w, dims) > MATRIX_DIM_LIMIT for w in words(d))


# ------------------------------------------------------- tensor evaluator

class TensorModel:
    """Dimensions per object and a matrix per generator, evaluated by
    contracting each generator into the running tensor in place."""

    def __init__(self, dims: dict[str, int], mats: dict[str, np.ndarray]):
        self.dims = dims
        self.mats = mats

    def evaluate(self, d, start: np.ndarray | None = None) -> np.ndarray:
        """The diagram's matrix applied to ``start`` (the identity by default)."""
        state = np.eye(word_dim(d.input, self.dims)) if start is None else start
        n = state.shape[1]
        word = tuple(d.input)
        for s in d.slices:
            lo, hi = s.offset, s.offset + len(s.gen.dom)
            left = word_dim(word[:lo], self.dims)
            right = word_dim(word[hi:], self.dims)
            g = self.mats[s.gen.name]
            block = state.reshape(left, g.shape[1], right, n)
            state = np.einsum("cd,ldrn->lcrn", g, block).reshape(-1, n)
            word = word[:lo] + s.gen.cod + word[hi:]
        return state


# ------------------------------------------------------------------ wiring

def wiring(d, order=None) -> tuple:
    """The port graph: for each slice, the sources feeding its input ports,
    and the sources of the output wires, left to right.

    A source is ``("in", i)`` for input wire i or ``(j, p)`` for output port p
    of slice j.  ``order[i]`` renames slice i (for example to its position in
    another member of the interchange class); interchange moves leave the
    renamed graph unchanged.
    """
    order = order or tuple(range(len(d.slices)))
    wires: list = [("in", i) for i in range(len(d.input))]
    feeds = {}
    for i, s in enumerate(d.slices):
        lo, hi = s.offset, s.offset + len(s.gen.dom)
        name = order[i]
        feeds[name] = (s.gen.name, tuple(wires[lo:hi]))
        wires[lo:hi] = [(name, p) for p in range(len(s.gen.cod))]
    return tuple(sorted(feeds.items())), tuple(wires)


# ----------------------------------------------------------- finite sets

def power_alpha_sizes(s: int, j: int, c: int) -> tuple[int, int]:
    """|j copies of C^S| and |(j copies of C)^S|."""
    return j * c**s, (j * c) ** s


def times_alpha_sizes(s: int, j: int, c: int) -> tuple[int, int]:
    return j * s * c, s * j * c


def alpha_bijective(kind: str, s: int, j: int, c: int) -> bool:
    """Products preserve coproducts; a power by S >= 2 does only for j <= 1."""
    if kind == "times":
        return True
    return c == 0 or s == 1 or j <= 1


def expected_transpose(x: int, d: int, j: int) -> bool:
    """Precomposing with X x D -> X is a bijection of hom sets iff it is
    injective and the counts agree (the acceptance suite's formula)."""
    count = j**x
    total = j ** (x * d)
    images = count if d >= 1 else min(count, 1)
    return images == count and count == total


def atom_expected(d: int, max_j: int) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """The constants map J -> J^D is a bijection for every J iff |D| = 1."""
    return d == 1, tuple((j, j**d) for j in range(max_j + 1))
