"""Matrix semantics: objects are dimensions, tensor is the Kronecker product.

Vectors are columns, so composition is matrix multiplication on the left:
evaluating ``compose(f, g)`` yields ``M(g) @ M(f)``.  A word's index space is
mixed-radix big-endian over the letters, matching numpy's kron convention.

The numeric theorem checks state nothing of their own: they evaluate each
rule and goal of a shipped theorem document (``duality.statements``) with
``eval_diagram`` in one model, and report one residual per statement.  Only
the model's inputs are built here: a random alpha with its mate beta, or
flips for the co-commutations.

Two tolerances are used throughout: TOL_EXACT for identities that hold to
rounding (permutation matrices, re-bracketing), TOL_CHAIN for identities
reached through a matrix inverse, where conditioning enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import Diagram, Word, intermediate_words
from .duality import statements
from .errors import NumericError, SizeError, TypingError
from .rng import Lcg

DIM_LIMIT = 10**4
ENTRY_LIMIT = 10**6  # entries of a random matrix, or of the largest block a numeric theorem check builds
TOL_EXACT = 1e-12
TOL_CHAIN = 1e-9
COND_LIMIT = 1e8


def _check_kron(shapes) -> None:
    """Refuse a Kronecker product of these shapes if any partial product
    passes DIM_LIMIT on either side."""
    rows = 1
    cols = 1
    for r, c in shapes:
        rows *= r
        cols *= c
        if rows > DIM_LIMIT or cols > DIM_LIMIT:
            raise SizeError(f"kron result {rows}x{cols} exceeds limit {DIM_LIMIT}")


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, guarded by DIM_LIMIT."""
    _check_kron(m.shape for m in mats)
    return reduce(np.kron, mats)


def eye(n: int) -> np.ndarray:
    if n > DIM_LIMIT:
        raise SizeError(f"identity of dimension {n} exceeds limit {DIM_LIMIT}")
    return np.eye(n)


def flip(p: int, q: int) -> np.ndarray:
    """The permutation matrix sending e_i (x) e_j to e_j (x) e_i.

    Columns are indexed by pairs (i, j) as i*q + j; the column for (i, j)
    is the basis vector at row j*p + i.
    """
    if p * q > DIM_LIMIT:
        raise SizeError(f"flip of dimension {p * q} exceeds limit {DIM_LIMIT}")
    out = np.zeros((p * q, p * q))
    col = np.arange(p * q)  # the pair (i, j) = divmod(col, q)
    out[col % q * p + col // q, col] = 1.0
    return out


def dual_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit and counit for the self-duality of dimension n.

    The unit is the n^2 x 1 column picking out sum_i e_i (x) e_i; the counit
    is its transpose.  Both zigzag identities hold exactly.
    """
    if n * n > DIM_LIMIT:
        raise SizeError(f"dual pair of dimension {n * n} exceeds limit {DIM_LIMIT}")
    eta = np.zeros((n * n, 1))
    eta[:: n + 1] = 1.0  # rows i * n + i
    return eta, eta.T.copy()


@dataclass(frozen=True)
class ModelAssignment:
    """Dimensions for object names and matrices for morphism names."""

    dims: dict[str, int]
    mats: dict[str, np.ndarray]

    def dim_word(self, word: Word) -> int:
        total = 1
        for name in word:
            if name not in self.dims:
                raise TypingError(f"no dimension assigned to object {name!r}")
            total *= self.dims[name]
            if total > DIM_LIMIT:
                raise SizeError(f"word dimension exceeds limit {DIM_LIMIT}")
        return total

    def matrix(self, name: str) -> np.ndarray:
        if name not in self.mats:
            raise TypingError(f"no matrix assigned to morphism {name!r}")
        return self.mats[name]


def eval_diagram(d: Diagram, model: ModelAssignment) -> np.ndarray:
    """Fold the slices bottom-up; returns the matrix of the composite.

    A slice acts as I_left (x) g (x) I_right without building that block:
    the running matrix, reshaped to (left, dom, right * cols), is contracted
    with g by one batched matmul.  Every step is checked against DIM_LIMIT on
    the shape of the I (x) g (x) I block before anything is allocated, so a
    diagram that passes the limit anywhere is refused without allocating.
    """
    words = intermediate_words(d)
    dim_in = model.dim_word(d.input)
    steps: list[tuple[int, np.ndarray, int]] = []
    for k, s in enumerate(d.slices):
        before = words[k]
        g = model.matrix(s.gen.name)
        want_cols = model.dim_word(s.gen.dom)
        want_rows = model.dim_word(s.gen.cod)
        if g.shape != (want_rows, want_cols):
            raise TypingError(
                f"matrix for {s.gen.name!r} is {g.shape}, "
                f"expected {(want_rows, want_cols)}"
            )
        left = model.dim_word(before[: s.offset])
        right = model.dim_word(before[s.offset + len(s.gen.dom):])
        _check_kron(((left, left), g.shape, (right, right)))
        steps.append((left, g, right))
    total = eye(dim_in)
    for left, g, right in steps:
        cod, dom = g.shape
        total = np.matmul(g, total.reshape(left, dom, right * dim_in)).reshape(left * cod * right, dim_in)
    return total


def random_matrix(rows: int, cols: int, rng: Lcg) -> np.ndarray:
    """Entries drawn uniformly from [-1, 1)."""
    if rows > DIM_LIMIT or cols > DIM_LIMIT:
        raise SizeError(f"random matrix {rows}x{cols} exceeds limit {DIM_LIMIT}")
    if rows * cols > ENTRY_LIMIT:
        raise SizeError(f"random matrix of {rows}x{cols} entries exceeds limit {ENTRY_LIMIT}")
    # row-major, so the draws fill the matrix in the order they are taken
    return np.array([rng.symmetric() for _ in range(rows * cols)]).reshape(rows, cols)


def random_alpha(rows: int, cols: int, rng: Lcg) -> np.ndarray:
    """A random matrix nudged toward invertibility when square.

    Adding 2I keeps eigenvalues away from zero for entries in [-1, 1), so
    seeded runs stay well conditioned.
    """
    out = random_matrix(rows, cols, rng)
    if rows == cols:
        out += 2.0 * np.eye(rows)
    return out


def require_condition(m: np.ndarray, label: str) -> float:
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericError(f"{label} condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return cond


def mate_beta(alpha: np.ndarray, dim_a: int, dim_x: int) -> np.ndarray:
    """The companion map X (x) B -> B (x) X induced by alpha : X A -> A X.

    B shares A's dimension and the diagonal dual pair relates them.
    Assembled directly from Kronecker blocks, not via eval_diagram, so the
    model that the theorem check evaluates is built independently of it:

        (I_{B X} (x) eps) (I_B (x) alpha^{-1} (x) I_B) (eta (x) I_{X B})

    read bottom-up on column vectors.
    """
    n = dim_a
    x = dim_x
    if alpha.shape != (n * x, n * x):
        raise TypingError(f"alpha is {alpha.shape}, expected {(n * x, n * x)}")
    require_condition(alpha, "alpha")
    eta, eps = dual_pair(n)
    inv = np.linalg.inv(alpha)
    lift = kron(eta, eye(x * n))
    middle = kron(eye(n), inv, eye(n))
    drop = kron(eye(n * x), eps)
    return drop @ middle @ lift


@dataclass(frozen=True)
class NumericReport:
    """Residuals from one numeric run; ok means all within tolerance."""

    dims: dict[str, int]
    residuals: dict[str, float]
    tolerance: float
    ok: bool
    seed: int | None = None

    def worst(self) -> float:
        return max(self.residuals.values(), default=0.0)


def _check_blocks(n: int, x: int) -> None:
    """Refuse dims whose largest block, n^3 * x on a side, passes DIM_LIMIT
    on a side or ENTRY_LIMIT in entries."""
    side = n**3 * x
    if side > DIM_LIMIT:
        raise SizeError(f"block side {n}^3*{x} exceeds limit {DIM_LIMIT}")
    if side * side > ENTRY_LIMIT:
        raise SizeError(f"block of ({n}^3*{x})^2 entries exceeds limit {ENTRY_LIMIT}")


def _check_document(
    name: str,
    n: int,
    x: int,
    mats: dict[str, np.ndarray],
    dims: dict[str, int],
    tolerance: float,
    seed: int | None = None,
) -> NumericReport:
    """Evaluate every rule and goal of a theorem document with A = B = n and
    X = x; one residual per statement, keyed by its rule name or goal label."""
    eta, eps = dual_pair(n)
    model = ModelAssignment({"A": n, "B": n, "X": x}, {"eta": eta, "eps": eps, **mats})
    residuals = {
        label: float(np.max(np.abs(eval_diagram(lhs, model) - eval_diagram(rhs, model))))
        for label, lhs, rhs in statements(name)
    }
    return NumericReport(
        dims=dims,
        residuals=residuals,
        tolerance=tolerance,
        ok=all(v <= tolerance for v in residuals.values()),
        seed=seed,
    )


def check_theorem1_numeric(dim_a: int, dim_x: int, seed: int) -> NumericReport:
    """Draw a random invertible alpha : X A -> A X, take beta as the mate of
    its inverse, and evaluate the ``theorem1`` document in that model.

    The residuals cover the triangles and both squares (the theorem's
    hypotheses, which hold for this alpha, beta pair) and both goals (gamma
    inverts alpha on either side), each within TOL_CHAIN.  Dims whose blocks
    would pass DIM_LIMIT or ENTRY_LIMIT are refused before anything is drawn.
    """
    n, x = dim_a, dim_x
    _check_blocks(n, x)
    alpha = random_alpha(n * x, n * x, Lcg(seed))
    mats = {"alpha": alpha, "beta": mate_beta(alpha, n, x)}
    return _check_document("theorem1", n, x, mats, {"A": n, "X": x}, TOL_CHAIN, seed)


def check_theorem3_numeric(dim_n: int, dim_x: int) -> NumericReport:
    """Instantiate the pass-across maps as flips and evaluate the
    ``theorem3`` document in that model.

    A and B share dimension n so the diagonal dual pair relates them.  The
    actions are a = flip(n, x) : A X -> X A and b = flip(n, x) : B X -> X B,
    with binv = flip(x, n).  Every matrix is 0/1 and every composite a
    permutation, so each residual (triangles, inverse laws, co-squares and
    the goal expr = a) must be exactly zero, within TOL_EXACT.  Dims whose
    blocks would pass DIM_LIMIT or ENTRY_LIMIT are refused before anything
    is built.
    """
    n, x = dim_n, dim_x
    _check_blocks(n, x)
    mats = {"a": flip(n, x), "b": flip(n, x), "binv": flip(x, n)}
    return _check_document("theorem3", n, x, mats, {"A": n, "B": n, "X": x}, TOL_EXACT)
