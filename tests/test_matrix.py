import numpy as np
import pytest

from commuter.core import Diagram, Slice, compose, gen_diagram, identity, intermediate_words, tensor
from commuter.duality import load_theorem, prove_theorem, statements
from commuter.errors import NotSwappableError, NumericError, SizeError, TypingError
from commuter.exchange import adjacent_swap, canonicalize, linearizations
from commuter.matrix import (
    COND_LIMIT,
    DIM_LIMIT,
    ENTRY_LIMIT,
    TOL_CHAIN,
    TOL_EXACT,
    ModelAssignment,
    _check_kron,
    check_theorem1_numeric,
    check_theorem3_numeric,
    dual_pair,
    eval_diagram,
    eye,
    flip,
    kron,
    mate_beta,
    random_alpha,
    random_matrix,
    require_condition,
)
from commuter.prover import apply_rule, rules_from_signature
from commuter.rng import Lcg
from commuter.sampling import random_diagram

from conftest import companion_gamma, soundness_model, soundness_signature


# ---------------------------------------------------------------- primitives

def test_flip_entries():
    m = flip(2, 3)
    assert m.shape == (6, 6)
    assert m[3, 4] == 1.0  # column (i=1, j=1) -> row 1*2+1
    assert m[0, 0] == 1.0
    assert np.allclose(m @ m.T, np.eye(6))
    # flipping twice in opposite shapes restores the identity
    assert np.array_equal(flip(3, 2) @ flip(2, 3), np.eye(6))


def test_kron_associative_and_guarded():
    rng = Lcg(5)
    a = random_matrix(2, 3, rng)
    b = random_matrix(3, 2, rng)
    c = random_matrix(2, 2, rng)
    assert np.array_equal(kron(a, b, c), np.kron(np.kron(a, b), c))
    with pytest.raises(SizeError):
        kron(np.zeros((200, 200)), np.zeros((200, 200)))
    with pytest.raises(SizeError):
        eye(DIM_LIMIT + 1)
    with pytest.raises(SizeError):
        random_matrix(DIM_LIMIT + 1, 1, rng)
    with pytest.raises(SizeError, match="^random matrix 1x10001 exceeds limit 10000$"):
        random_matrix(1, DIM_LIMIT + 1, rng)


def test_random_matrix_bounds_entries():
    rng = Lcg(5)
    state = rng.state
    for rows, cols in ((10**4, 10**4), (1001, 1000), (DIM_LIMIT, ENTRY_LIMIT // DIM_LIMIT + 1)):
        want = f"^random matrix of {rows}x{cols} entries exceeds limit {ENTRY_LIMIT}$"
        with pytest.raises(SizeError, match=want):
            random_matrix(rows, cols, rng)
    assert rng.state == state  # refused before a single draw


def test_dual_pair_zigzags_exact():
    for n in (1, 2, 3, 5):
        eta, eps = dual_pair(n)
        assert eta.shape == (n * n, 1)
        assert np.array_equal(eps, eta.T)
        zig_a = kron(eps, eye(n)) @ kron(eye(n), eta)
        zig_b = kron(eye(n), eps) @ kron(eta, eye(n))
        assert np.array_equal(zig_a, np.eye(n))  # exactly, not approximately
        assert np.array_equal(zig_b, np.eye(n))


def test_constructors_match_elementwise_reference():
    # seeded goldens depend on the order random_matrix takes its draws
    for seed in (0, 1, 42, 99):
        for rows, cols in ((0, 0), (0, 3), (1, 1), (2, 3), (3, 2), (4, 4)):
            rng, ref_rng = Lcg(seed), Lcg(seed)
            want = np.empty((rows, cols))
            for r in range(rows):
                for c in range(cols):
                    want[r, c] = ref_rng.symmetric()
            got = random_matrix(rows, cols, rng)
            assert got.shape == (rows, cols) and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert rng.state == ref_rng.state
    for p in range(4):
        for q in range(4):
            want = np.zeros((p * q, p * q))
            for i in range(p):
                for j in range(q):
                    want[j * p + i, i * q + j] = 1.0
            assert np.array_equal(flip(p, q), want)
    for n in range(5):
        want = np.zeros((n * n, 1))
        for i in range(n):
            want[i * n + i, 0] = 1.0
        eta, eps = dual_pair(n)
        assert np.array_equal(eta, want) and np.array_equal(eps, want.T)


def test_require_condition():
    assert require_condition(np.eye(3), "id") == pytest.approx(1.0)
    with pytest.raises(NumericError):
        require_condition(np.zeros((2, 2)), "zero")
    nearly = np.diag([1.0, 1.0 / (10 * COND_LIMIT)])
    with pytest.raises(NumericError):
        require_condition(nearly, "nearly singular")


# ---------------------------------------------------------------- evaluation

@pytest.fixture(scope="module")
def model():
    return soundness_model(soundness_signature())


def test_eval_diagram_identity(model):
    assert np.array_equal(eval_diagram(identity(("P", "Q")), model), np.eye(6))


def test_eval_diagram_single_gen(model):
    sig = soundness_signature()
    f = sig.morphisms["f"]
    assert np.array_equal(eval_diagram(gen_diagram(f), model), model.matrix("f"))


def test_eval_diagram_composition_order(model):
    sig = soundness_signature()
    f, k = sig.morphisms["f"], sig.morphisms["k"]
    d = compose(gen_diagram(f), gen_diagram(k))
    assert np.allclose(eval_diagram(d, model), model.matrix("k") @ model.matrix("f"))


def test_eval_diagram_whiskering(model):
    sig = soundness_signature()
    f = sig.morphisms["f"]
    d = Diagram(("Q", "P"), (Slice(1, f),))
    want = kron(eye(3), model.matrix("f"))
    assert np.array_equal(eval_diagram(d, model), want)


def test_eval_diagram_mixed_product(model):
    sig = soundness_signature()
    f, k = sig.morphisms["f"], sig.morphisms["k"]
    t = tensor(gen_diagram(f), gen_diagram(k))
    direct = kron(model.matrix("f"), model.matrix("k"))
    assert np.max(np.abs(eval_diagram(t, model) - direct)) <= TOL_EXACT


def test_eval_diagram_rejects_bad_shape():
    sig = soundness_signature()
    f = sig.morphisms["f"]
    bad = ModelAssignment(dims={"P": 2, "Q": 3}, mats={"f": np.zeros((2, 2))})
    with pytest.raises(TypingError):
        eval_diagram(gen_diagram(f), bad)
    missing = ModelAssignment(dims={"P": 2, "Q": 3}, mats={})
    with pytest.raises(TypingError):
        eval_diagram(gen_diagram(f), missing)
    nameless = ModelAssignment(dims={}, mats={"f": np.zeros((3, 2))})
    with pytest.raises(TypingError):
        eval_diagram(gen_diagram(f), nameless)


def test_eval_diagram_refuses_before_allocating(model, monkeypatch):
    h = soundness_signature().morphisms["h"]
    six_units = Diagram((), tuple(Slice(0, h) for _ in range(6)))  # 6**6 > DIM_LIMIT

    def no_allocation(n):
        raise AssertionError("allocated an identity block")

    monkeypatch.setattr("commuter.matrix.eye", no_allocation)
    with pytest.raises(SizeError):
        eval_diagram(six_units, model)


def test_numeric_checks_refuse_oversize_dims_before_building(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("built a block")

    for name in ("eye", "flip", "random_matrix"):
        monkeypatch.setattr(f"commuter.matrix.{name}", no_allocation)
    # n^3 * x > DIM_LIMIT, then (n^3 * x)^2 > ENTRY_LIMIT with a side within it
    for n, x in ((22, 1), (100, 100), (200, 200), (1, 10000), (1, 1001), (10, 2)):
        with pytest.raises(SizeError, match="exceeds limit"):
            check_theorem1_numeric(n, x, 42)
        with pytest.raises(SizeError, match="exceeds limit"):
            check_theorem3_numeric(n, x)


def kron_fold(d, model):
    """The Kronecker-block evaluation: each slice as the explicit block
    I_left (x) g (x) I_right, refused when the block passes DIM_LIMIT."""
    words = intermediate_words(d)
    total = np.eye(model.dim_word(d.input))
    for k, s in enumerate(d.slices):
        g = model.matrix(s.gen.name)
        left = model.dim_word(words[k][: s.offset])
        right = model.dim_word(words[k][s.offset + len(s.gen.dom):])
        _check_kron(((left, left), g.shape, (right, right)))
        total = np.kron(np.kron(np.eye(left), g), np.eye(right)) @ total
    return total


def test_eval_diagram_matches_kron_fold(model, monkeypatch):
    def no_block(*mats):
        raise AssertionError("eval_diagram built a Kronecker block")

    monkeypatch.setattr("commuter.matrix.kron", no_block)
    sig = soundness_signature()
    rng = Lcg(20260818)  # the draw of test_engine_soundness_suite
    evaluated = 0
    for k in range(1000):
        d = random_diagram(sig, rng, max_slices=6)
        try:
            want = kron_fold(d, model)
        except SizeError:
            with pytest.raises(SizeError):
                eval_diagram(d, model)
            continue
        got = eval_diagram(d, model)
        assert got.shape == want.shape
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale, f"sample {k}"
        evaluated += 1
    assert evaluated >= 500


def fits_model(d, model):
    try:
        for w in intermediate_words(d):
            model.dim_word(w)
    except SizeError:
        return False
    return True


def test_eval_invariant_under_swaps(model):
    sig = soundness_signature()
    checked = 0
    for seed in range(40):
        d = random_diagram(sig, Lcg(seed), max_slices=5)
        if not fits_model(d, model):
            continue
        checked += 1
        base = eval_diagram(d, model)
        for i in range(len(d.slices) - 1):
            try:
                other = eval_diagram(adjacent_swap(d, i), model)
            except NotSwappableError:
                continue
            assert np.max(np.abs(base - other)) <= TOL_EXACT
        canon = eval_diagram(canonicalize(d).diagram, model)
        assert np.max(np.abs(base - canon)) <= TOL_EXACT
    assert checked >= 30  # the size guard must not hollow the test out


def test_eval_agrees_on_every_linearization(model):
    sig = soundness_signature()
    d = random_diagram(sig, Lcg(17), max_slices=4)
    base = eval_diagram(d, model)
    for lin in linearizations(d):
        assert np.max(np.abs(eval_diagram(lin, model) - base)) <= TOL_EXACT


# ---------------------------------------------------------------- companions

def test_mate_beta_shape_guard():
    with pytest.raises(TypingError):
        mate_beta(np.eye(5), 2, 2)
    with pytest.raises(NumericError):
        mate_beta(np.zeros((4, 4)), 2, 2)
    with pytest.raises(TypingError):
        companion_gamma(np.eye(5), 2, 2)


def test_mate_of_flip_is_flip():
    # alpha = flip(3, 2) passes X (dim 3) across A (dim 2); its mate passes
    # X across B the same way, so it is the same permutation
    beta = mate_beta(flip(3, 2), 2, 3)
    assert np.max(np.abs(beta - flip(3, 2))) <= TOL_EXACT


def test_companion_gamma_inverts_alpha():
    rng = Lcg(123)
    for n, x in ((2, 2), (2, 3), (3, 2)):
        alpha = random_alpha(n * x, n * x, rng)
        beta = mate_beta(alpha, n, x)
        gamma = companion_gamma(beta, n, x)
        assert np.max(np.abs(gamma @ alpha - np.eye(n * x))) <= TOL_CHAIN
        assert np.max(np.abs(alpha @ gamma - np.eye(n * x))) <= TOL_CHAIN


def test_symbolic_gamma_matches_companion_route():
    gamma_diagram = load_theorem("theorem1").diagrams["gamma"]
    for n, x in ((2, 3), (3, 2)):
        rng = Lcg(7)
        alpha = random_alpha(n * x, n * x, rng)
        beta = mate_beta(alpha, n, x)
        eta, eps = dual_pair(n)
        model = ModelAssignment(
            dims={"A": n, "B": n, "X": x},
            mats={"alpha": alpha, "beta": beta, "eta": eta, "eps": eps},
        )
        via_diagram = eval_diagram(gamma_diagram, model)
        via_blocks = companion_gamma(beta, n, x)
        assert np.max(np.abs(via_diagram - via_blocks)) == 0.0  # same arithmetic


# ---------------------------------------------------------------- theorem runs

THEOREM1_LABELS = [
    "triangle_A", "triangle_B", "eta_square", "eps_square",
    "alpha after gamma = id A X", "gamma after alpha = id X A",
]
THEOREM3_LABELS = [
    "triangle_A", "triangle_B", "b_inv_left", "b_inv_right", "eta_cosquare", "eps_cosquare",
    "unit-counit composite = a",
]


def test_statements_list_rules_then_goals():
    assert [label for label, _, _ in statements("theorem1")] == THEOREM1_LABELS
    assert [label for label, _, _ in statements("theorem3")] == THEOREM3_LABELS
    assert statements("theorem1") is statements("theorem1")  # parsed once
    doc = load_theorem("theorem1")
    assert statements("theorem1")[2][1:] == (doc.signature.equations["eta_square"].lhs,
                                             doc.signature.equations["eta_square"].rhs)
    assert statements("theorem1")[4][1] == doc.diagrams["alpha_after_gamma"]


def test_theorem1_numeric_grid():
    for seed in (42, 43, 44):
        for n, x in ((2, 2), (2, 3), (3, 2), (3, 3)):
            report = check_theorem1_numeric(n, x, seed)
            assert report.ok, report.residuals
            assert report.worst() <= TOL_CHAIN
            assert report.seed == seed
            assert list(report.residuals) == THEOREM1_LABELS


def test_theorem3_numeric_exact():
    for n in (1, 2, 3):
        for x in (1, 2, 3):
            report = check_theorem3_numeric(n, x)
            assert report.ok
            assert report.worst() == 0.0
            assert report.tolerance == TOL_EXACT
            assert list(report.residuals) == THEOREM3_LABELS


def test_theorem1_numeric_flags_a_beta_that_is_not_the_mate(monkeypatch):
    # the triangles still hold; both squares and both goals must fail
    monkeypatch.setattr("commuter.matrix.mate_beta", lambda alpha, n, x: flip(x, n))
    report = check_theorem1_numeric(2, 3, 42)
    assert not report.ok
    failing = [label for label, value in report.residuals.items() if value > TOL_CHAIN]
    assert failing == THEOREM1_LABELS[2:]


def test_numeric_report_worst():
    report = check_theorem1_numeric(2, 2, 42)
    assert report.worst() == max(report.residuals.values())


def test_flips_compose_to_the_flip_past_a_tensor():
    # X slides past A, then past B: flip(n, x) on each side composes to the
    # flip of X past B A, exactly
    for n in range(1, 5):
        for x in range(1, 5):
            a = b = flip(n, x)
            composite = kron(b, eye(n)) @ kron(eye(n), a)
            assert np.array_equal(composite, flip(n * n, x)), (n, x)


def alpha_model(n, x, seed):
    alpha = random_alpha(n * x, n * x, Lcg(seed))
    eta, eps = dual_pair(n)
    mats = {"alpha": alpha, "beta": mate_beta(alpha, n, x), "eta": eta, "eps": eps}
    return ModelAssignment({"A": n, "B": n, "X": x}, mats)


def flip_model(n, x):
    eta, eps = dual_pair(n)
    mats = {"a": flip(n, x), "b": flip(n, x), "binv": flip(x, n), "eta": eta, "eps": eps}
    return ModelAssignment({"A": n, "B": n, "X": x}, mats)


@pytest.mark.parametrize("name", ["theorem1", "theorem3", "theorem1_dual"])
def test_theorem_traces_keep_their_matrix(name):
    # a second oracle for the traces, sharing no code with exchange: each
    # rewrite step replaces a side by an equal side, so every diagram along
    # the way evaluates to the start's matrix
    rules = {r.name: r for r in rules_from_signature(load_theorem(name).signature)}
    traces = prove_theorem(name)
    for n, x in ((1, 2), (2, 3), (3, 2)):
        if name == "theorem1":
            model, tol = alpha_model(n, x, 42), TOL_CHAIN
        else:
            model, tol = flip_model(n, x), 0.0
        for label, trace in traces:
            want = eval_diagram(trace.start, model)
            current = trace.start
            for k, step in enumerate(trace.steps, start=1):
                current = apply_rule(current, rules[step.rule], step.match, step.direction)
                gap = float(np.max(np.abs(eval_diagram(current, model) - want)))
                assert gap <= tol, f"{label}, step {k} at dims ({n}, {x}): {gap:.2e}"
            assert float(np.max(np.abs(eval_diagram(trace.end, model) - want))) <= tol
