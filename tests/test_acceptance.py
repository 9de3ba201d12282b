"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS or FAIL line (visible with ``pytest -s``)
and asserts the full property, including the advertised time bound where
one is stated.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from conftest import FIXTURES, THEOREMS, companion_gamma, soundness_model, soundness_signature

from commuter.cli import main
from commuter.core import (
    Diagram,
    Signature,
    Slice,
    boundaries,
    compose,
    gen_diagram,
    identity,
    tensor,
)
from commuter.duality import (
    theorem1_dual_inverse,
    theorem1_dual_signature,
    theorem1_signature,
    theorem3_signature,
    verify_theorem1,
    verify_theorem3,
)
from commuter.errors import NotSwappableError, SearchExhausted, SizeError
from commuter.exchange import adjacent_swap, canonicalize
from commuter.finset import (
    CoprodJ,
    FinSetMap,
    FinSetObj,
    TimesS,
    atom_strong_check,
    canonical_alpha,
    compose_maps,
    eval_map,
    hom_transpose_bijection,
    retract_of_one,
)
from commuter.matrix import (
    check_theorem1_numeric,
    check_theorem3_numeric,
    dual_pair,
    eval_diagram,
    mate_beta,
    random_alpha,
    ModelAssignment,
)
from commuter.prover import (
    BACKWARD,
    FORWARD,
    SearchBudget,
    apply_rule,
    find_matches,
    prove_equal,
    replay,
    rules_from_signature,
)
from commuter.rng import Lcg
from commuter.sampling import random_diagram

THEOREM1_RULES = {"triangle_A", "triangle_B", "eta_square", "eps_square"}
THEOREM3_RULES = {
    "triangle_A",
    "triangle_B",
    "b_inv_left",
    "b_inv_right",
    "eta_cosquare",
    "eps_cosquare",
}


def report(label: str, problems: list[str]) -> None:
    print(f"{'FAIL' if problems else 'PASS'}: {label}", flush=True)
    assert not problems, f"{label}: " + "; ".join(problems)


def test_commutation_inverse_traces():
    t0 = time.perf_counter()
    problems = []
    if main(["theorem1"]) != 0:
        problems.append("command exited nonzero")
    sig, _ = theorem1_signature()
    rules = rules_from_signature(sig)
    for side, trace in zip(("right", "left"), verify_theorem1()):
        if not 0 < len(trace.steps) <= 4:
            problems.append(f"{side} trace has {len(trace.steps)} steps")
        used = {step.rule for step in trace.steps}
        if not used <= THEOREM1_RULES:
            problems.append(f"{side} trace uses extra rules {used - THEOREM1_RULES}")
        if not replay(trace, rules):
            problems.append(f"{side} trace does not replay")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    report("both inverse traces for the commutation map, <= 4 steps, replayable, < 5 s", problems)


def test_covariant_composite_and_dual_inverse():
    t0 = time.perf_counter()
    problems = []
    if main(["theorem3"]) != 0:
        problems.append("command exited nonzero")
    sig, _ = theorem3_signature()
    trace = verify_theorem3()
    used = {step.rule for step in trace.steps}
    if not used <= THEOREM3_RULES:
        problems.append(f"trace uses extra rules {used - THEOREM3_RULES}")
    if not replay(trace, rules_from_signature(sig)):
        problems.append("composite trace does not replay")
    dual_sig, _ = theorem1_dual_signature()
    dual_rules = rules_from_signature(dual_sig)
    for side, dual_trace in zip(("right", "left"), theorem1_dual_inverse()):
        if not replay(dual_trace, dual_rules):
            problems.append(f"dual {side} trace does not replay")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    report("unit-counit composite proof plus the dualized inverse pair, < 5 s", problems)


def test_product_functor_comparison_exhaustive():
    t0 = time.perf_counter()
    problems = []
    for s in range(1, 5):
        for j in range(1, 5):
            for c in range(1, 5):
                if not canonical_alpha(TimesS(s), j, FinSetObj(c)).is_bijective:
                    problems.append(f"not bijective at s={s} j={j} c={c}")
    rng = Lcg(2026)
    for _ in range(200):
        s = 1 + rng.randrange(3)
        j = 1 + rng.randrange(3)
        c1 = FinSetObj(1 + rng.randrange(3))
        c2 = FinSetObj(1 + rng.randrange(3))
        f = FinSetMap(c1, c2, tuple(rng.randrange(c2.size) for _ in range(c1.size)))
        expr = TimesS(s)
        lhs = compose_maps(canonical_alpha(expr, j, c1), eval_map(expr, eval_map(CoprodJ(j), f)))
        rhs = compose_maps(eval_map(CoprodJ(j), eval_map(expr, f)), canonical_alpha(expr, j, c2))
        if lhs != rhs:
            problems.append(f"naturality broken at s={s} j={j} |C|={c1.size}->{c2.size}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    report("product comparison bijective on all 64 cases and natural on 200 seeded maps, < 10 s", problems)


def expected_transpose(x: int, d: int, j: int) -> bool:
    """Cardinality oracle: precomposing with the projection X x D -> X is a
    bijection of hom sets iff it is injective and the counts agree."""
    count = j**x
    total = j ** (x * d)
    images = count if d >= 1 else min(count, 1)
    return images == count and count == total


def test_exponent_collapse_detects_singletons():
    t0 = time.perf_counter()
    problems = []
    for d in range(4):
        verdict = atom_strong_check(FinSetObj(d), max_j=4).consistent
        if verdict != (d == 1):
            problems.append(f"scan verdict wrong at |D|={d}")
        if retract_of_one(FinSetObj(d)) != (d == 1):
            problems.append(f"retract check wrong at |D|={d}")
    for x in range(4):
        for d in range(4):
            for j in range(4):
                got = hom_transpose_bijection(x, d, j)
                if got != expected_transpose(x, d, j):
                    problems.append(f"transpose wrong at x={x} d={d} j={j}")
                if x >= 1 and j >= 2 and got != (d == 1):
                    problems.append(f"transpose should track |D|=1 at x={x} d={d} j={j}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    report("singleton detection: scan, retract, and hom transpose agree on sizes <= 3, < 10 s", problems)


def test_numeric_mate_and_inverse_grid():
    problems = []
    sig, gens = theorem1_signature()
    gamma_shape = Diagram(
        ("A", "X"),
        (Slice(2, gens["eta"]), Slice(1, gens["beta"]), Slice(0, gens["eps"])),
    )
    for seed in (42, 43, 44):
        for da, dx in ((2, 2), (2, 3), (3, 2), (3, 3)):
            rep = check_theorem1_numeric(da, dx, seed)
            if not rep.ok:
                problems.append(f"residual {rep.worst():.2e} at dims ({da},{dx}) seed {seed}")
            rng = Lcg(seed)
            alpha = random_alpha(da * dx, da * dx, rng)
            beta = mate_beta(alpha, da, dx)
            eta, eps = dual_pair(da)
            model = ModelAssignment(
                dims={"X": dx, "A": da, "B": da},
                mats={"beta": beta, "eta": eta, "eps": eps},
            )
            gamma_mat = eval_diagram(gamma_shape, model)
            direct = np.linalg.inv(alpha)
            gap = float(np.max(np.abs(gamma_mat - direct)))
            if gap > 1e-9:
                problems.append(f"gamma vs inverse gap {gap:.2e} at ({da},{dx}) seed {seed}")
            block_gap = float(np.max(np.abs(gamma_mat - companion_gamma(beta, da, dx))))
            if block_gap != 0.0:
                problems.append(f"construction routes differ at ({da},{dx}) seed {seed}")
    for n in range(1, 4):
        for x in range(1, 4):
            rep = check_theorem3_numeric(n, x)
            if rep.worst() != 0.0:
                problems.append(f"flip residual {rep.worst():.2e} at ({n},{x})")
    report("mate squares and gamma-vs-inverse within 1e-9 on the seed grid; flip residuals exactly 0", problems)


def micro_signature() -> Signature:
    sig = Signature()
    sig.add_object("U")
    sig.add_morphism("m", ("U", "U"), ("U",))
    sig.add_morphism("u", (), ("U",))
    u = gen_diagram(sig.morphisms["u"])
    m = gen_diagram(sig.morphisms["m"])
    one = identity(("U",))
    sig.add_equation("unit_left", compose(tensor(u, one), m), one)
    sig.add_equation("unit_right", compose(tensor(one, u), m), one)
    return sig


def rewrite_closure(start: Diagram, rules, max_size: int, max_slices: int) -> set[Diagram]:
    """All diagrams reachable by rule applications in either direction,
    tracked modulo interchange, never growing past max_slices."""
    seen = {canonicalize(start).diagram}
    frontier = [canonicalize(start).diagram]
    while frontier:
        node = frontier.pop()
        for rule in rules:
            for direction in (FORWARD, BACKWARD):
                grow = len(rule.other(direction).slices) - len(rule.side(direction).slices)
                if grow + len(node.slices) > max_slices:
                    continue
                for found in find_matches(node, rule.side(direction)):
                    nxt = canonicalize(apply_rule(node, rule, found, direction)).diagram
                    if nxt not in seen:
                        assert len(seen) < max_size, "closure oracle overflow"
                        seen.add(nxt)
                        frontier.append(nxt)
    return seen


def micro_candidates(sig: Signature) -> list[Diagram]:
    """Unit-law diagrams with <= 4 slices: padded identities, padded
    multiplications, and all shapes of a triple multiplication."""
    u = gen_diagram(sig.morphisms["u"])
    m = gen_diagram(sig.morphisms["m"])
    one = identity(("U",))
    two = identity(("U", "U"))
    three = identity(("U", "U", "U"))
    mm_left = compose(tensor(m, one), m)
    mm_right = compose(tensor(one, m), m)
    fixed = [
        one,
        compose(tensor(u, one), m),
        compose(tensor(one, u), m),
        compose(compose(tensor(u, one), m), compose(tensor(one, u), m)),
        m,
        compose(tensor(u, two), mm_left),
        compose(tensor(two, u), mm_right),
        compose(tensor(u, two), mm_right),
        mm_left,
        mm_right,
        compose(tensor(u, three), compose(tensor(m, two), mm_left)),
        compose(tensor(mm_left, one), m),
        compose(tensor(mm_right, one), m),
        compose(tensor(one, mm_left), m),
        compose(tensor(one, mm_right), m),
        compose(tensor(m, m), m),
    ]
    rng = Lcg(77)
    seen = {canonicalize(d).diagram for d in fixed}
    out = list(fixed)
    while len(out) < len(fixed) + 12:
        d = random_diagram(sig, rng, max_slices=4, max_word=1)
        key = canonicalize(d).diagram
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def test_engine_soundness_suite():
    problems = []

    sig = soundness_signature()
    model = soundness_model(sig)
    rng = Lcg(20260818)
    evaluated = 0
    for k in range(1000):
        d = random_diagram(sig, rng, max_slices=6)
        canon = canonicalize(d)
        if canonicalize(canon.diagram).diagram != canon.diagram:
            problems.append(f"canonicalize not idempotent on sample {k}")
            break
        for i in range(len(d.slices) - 1):
            try:
                swapped = adjacent_swap(d, i)
            except NotSwappableError:
                continue
            if canonicalize(swapped).diagram != canon.diagram:
                problems.append(f"canonical form changed under swap {i} on sample {k}")
        try:
            gap = float(np.max(np.abs(eval_diagram(d, model) - eval_diagram(canon.diagram, model))))
        except SizeError:
            continue
        if gap > 1e-12:
            problems.append(f"evaluation gap {gap:.2e} on sample {k}")
        evaluated += 1
    if evaluated < 500:
        problems.append(f"only {evaluated} samples fit the evaluation model")

    micro = micro_signature()
    rules = rules_from_signature(micro)
    pool = micro_candidates(micro)
    classes: dict[Diagram, int] = {}
    next_id = 0
    for d in pool:
        if canonicalize(d).diagram in classes:
            continue
        closure = rewrite_closure(d, rules, max_size=1500, max_slices=4)
        for member in closure:
            classes.setdefault(member, next_id)
        next_id += 1
    budget_equal = SearchBudget(max_depth_per_side=2, max_nodes=3000)
    budget_differ = SearchBudget(max_depth_per_side=1, max_nodes=200)
    checked_equal = checked_differ = 0
    for d1, d2 in combinations(pool, 2):
        if boundaries(d1) != boundaries(d2):
            continue
        same = classes[canonicalize(d1).diagram] == classes[canonicalize(d2).diagram]
        if same:
            trace = prove_equal(d1, d2, rules, budget_equal)
            if not replay(trace, rules):
                problems.append(f"trace fails to replay for an oracle-equal pair ({d1}, {d2})")
            checked_equal += 1
        else:
            try:
                prove_equal(d1, d2, rules, budget_differ)
                problems.append(f"proved a pair the closure oracle separates ({d1}, {d2})")
            except SearchExhausted:
                pass
            checked_differ += 1
    if checked_equal < 10 or checked_differ < 10:
        problems.append(f"thin pair coverage: {checked_equal} equal, {checked_differ} differing")

    report(
        "1000-sample canonicalization invariants (eval gap <= 1e-12) and closure-oracle agreement",
        problems,
    )


EIGHT_UNITS = "(u * (u * (u * (u * (u * (u * (u * u)))))))"  # a class of 8! members
DEEP_TERM = "(" * 3000 + "u" + " * u)" * 3000

CLI_MATRIX = [
    (("theorem1",), 0, "2 steps", None),
    (("theorem3",), 0, "3 steps", None),
    (("check", "--file", str(THEOREMS / "theorem1.cmt")), 0, "rules: 4", None),
    (("check", "--file", str(FIXTURES / "missing.cmt")), 3, None, "cannot read"),
    (("check", "--file", str(FIXTURES / "not_utf8.cmt")), 3, None, "cannot read"),
    (("check", "--file", str(FIXTURES / "bad_syntax.cmt")), 3, None, "5:1: expected ')'"),
    (("check", "--file", str(FIXTURES / "bad_typing.cmt")), 3, None, "line 5, col 9"),
    (("prove", "--file", str(FIXTURES / "monoid.cmt"), "--lhs", "padded", "--rhs", "id U"), 0, "2 steps", None),
    (
        ("prove", "--file", str(FIXTURES / "monoid.cmt"), "--lhs", "mm_left", "--rhs", "mm_right",
         "--max-depth", "2", "--max-nodes", "200"),
        2, "budget exhausted", None,
    ),
    (
        ("prove", "--file", str(FIXTURES / "monoid.cmt"), "--lhs", "padded", "--rhs", "id U",
         "--max-depth", "0"),
        3, None, "invalid positive int value: '0'",
    ),
    (
        ("prove", "--file", str(FIXTURES / "monoid.cmt"), "--lhs", "padded", "--rhs", "id U",
         "--max-nodes", "0"),
        3, None, "invalid positive int value: '0'",
    ),
    (("prove", "--file", str(FIXTURES / "missing.cmt"), "--lhs", "a", "--rhs", "a"), 3, None, "cannot read"),
    (("normalize", "--file", str(FIXTURES / "missing.cmt"), "--lhs", "a"), 3, None, "cannot read"),
    (
        ("normalize", "--file", str(THEOREMS / "theorem1.cmt"), "--lhs", "gamma", "--rhs", "id A X"),
        1, "not equal", None,
    ),
    (
        ("normalize", "--file", str(THEOREMS / "theorem1.cmt"), "--lhs", "(alpha ; gamma)",
         "--rhs", "(alpha ; gamma)"),
        0, "comparison: equal", None,
    ),
    (("finset", "atom", "--d", "1"), 0, "verdict: ok", None),
    (("finset", "atom", "--d", "2"), 1, "first failure at |J| = 2", None),
    (("finset", "copower", "--s", "3", "--j", "2", "--c", "4"), 0, "bijection: yes", None),
    (("finset", "copower", "--power", "2", "--j", "2", "--c", "1"), 1, "2 -> 4", None),
    (
        ("normalize", "--file", str(FIXTURES / "monoid.cmt"), "--lhs", EIGHT_UNITS),
        2, None, "more than 10000 linearizations",
    ),
    (
        ("prove", "--file", str(FIXTURES / "monoid.cmt"), "--lhs", DEEP_TERM, "--rhs", "u"),
        3, None, "nests more than",
    ),
    (("finset", "atom", "--d", "0"), 1, "first failure at |J| = 0", None),
    (("finset", "atom", "--d", "-1"), 3, None, "invalid non-negative int value: '-1'"),
    (("finset", "atom", "--d", "1", "--max-j", "1"), 3, None, "invalid int >= 2 value: '1'"),
    (("finset", "copower", "--s", "3", "--j", "0", "--c", "4"), 0, "0 -> 0", None),
    (("finset", "copower", "--s", "0", "--j", "2", "--c", "4"), 0, "0 -> 0", None),
    (("finset", "copower", "--s", "3", "--j", "2", "--c", "0"), 0, "0 -> 0", None),
    (("finset", "copower", "--power", "0", "--j", "2", "--c", "1"), 1, "2 -> 1", None),
    (("finset", "copower", "--s", "3", "--j", "-1", "--c", "4"), 3, None, "argument --j: invalid"),
    (("finset", "copower", "--s", "-2", "--j", "2", "--c", "4"), 3, None, "argument --s: invalid"),
    (("finset", "copower", "--s", "3", "--j", "2", "--c", "-3"), 3, None, "argument --c: invalid"),
    (("finset", "copower", "--power", "-1", "--j", "2", "--c", "1"), 3, None, "argument --power: invalid"),
    (("finset", "copower", "--power", "5000", "--j", "2", "--c", "10"), 3, None, "exceeds limit"),
    (("finset", "copower", "--power", "10000000", "--j", "2", "--c", "10"), 3, None, "exceeds limit"),
    (("finset", "atom", "--d", "1", "--max-j", "20000"), 3, None, "exceeds limit"),
    (("finset", "atom", "--d", "0", "--max-j", "1000000000"), 3, None, "exceeds limit"),
    (("matrix", "theorem1", "--dims", "2,3", "--seed", "42"), 0, "  ok", None),
    (("matrix", "theorem3", "--dims", "3,3"), 0, "0.000e+00", None),
    (("matrix", "theorem1", "--dims", "200,200"), 3, None, "exceeds limit"),
    (("matrix", "theorem1", "--dims", "100,100"), 3, None, "exceeds limit"),
    (("matrix", "theorem3", "--dims", "100,100"), 3, None, "exceeds limit"),
    (("matrix", "theorem1", "--dims", "1,10000"), 3, None, "exceeds limit"),
    (("matrix", "theorem3", "--dims", "1,10000"), 3, None, "exceeds limit"),
    (("nope",), 3, None, "invalid choice"),
]


def test_cli_contract_matrix(capsys):
    problems = []
    for argv, want_code, want_out, want_err in CLI_MATRIX:
        code = main(list(argv))
        captured = capsys.readouterr()
        label = " ".join(argv)
        if code != want_code:
            problems.append(f"{label!r} exited {code}, wanted {want_code}")
        if want_out is not None and want_out not in captured.out:
            problems.append(f"{label!r} stdout missing {want_out!r}")
        if want_err is not None and want_err not in captured.err:
            problems.append(f"{label!r} stderr missing {want_err!r}")
    assert len(CLI_MATRIX) >= 12
    report(f"command line matrix: {len(CLI_MATRIX)} invocations with pinned codes and output", problems)
