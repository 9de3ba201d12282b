"""The four workloads: seeded inputs, the checks run on them, and the verdicts
each check must produce.

A check is one call into the library, from the call to its verdict.  Its
``run`` callable makes exactly that call, looking the function up through its
module at call time so the traced run's wrappers apply, and returns the raw
result.  Its ``verify`` callable, run outside the timed region, compares the
result with an answer from ``oracles`` or from the construction of the input,
and returns an error message or None.

A workload's checks are an endless stream drawn from ``random.Random(seed)``:
one seed always gives the same checks in the same order, and a run draws
fresh inputs instead of cycling a small pool, so its figures do not hang on a
few draws.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from commuter import cli, duality, exchange, finset, matrix, prover, sampling
from commuter.core import Diagram, Signature, Slice
from commuter.dsl import load_document
from commuter.errors import SearchExhausted, SizeError
from commuter.rng import Lcg

from . import oracles

MONOID = Path("fixtures") / "monoid.cmt"


@dataclass
class Check:
    kind: str
    run: Callable[[], Any]
    verify: Callable[[Any], str | None]


@dataclass
class Workload:
    checks: Iterator[Check]
    # closed-loop percentile reported as verdict_tail_ms
    tail_percentile: float
    # the stretch of the stream the traced run replays, untraced and traced
    traced: slice


# ------------------------------------------------------------- signatures

def soundness_signature() -> Signature:
    """The acceptance suite's soundness signature: objects P and Q, with
    generators that grow, shrink and preserve words."""
    sig = Signature()
    sig.add_object("P")
    sig.add_object("Q")
    sig.add_morphism("f", ("P",), ("Q",))
    sig.add_morphism("g", ("Q", "P"), ("P",))
    sig.add_morphism("h", (), ("P", "Q"))
    sig.add_morphism("k", ("Q",), ())
    sig.add_morphism("s", ("P", "P"), ("P", "P"))
    return sig


SOUND_DIMS = {"P": 2, "Q": 3}


def soundness_model(sig: Signature) -> matrix.ModelAssignment:
    """The acceptance suite's soundness model: P = 2, Q = 3, matrices from Lcg(99)."""
    rng = Lcg(99)
    mats = {}
    for gen in sig.morphisms.values():
        rows = math.prod(SOUND_DIMS[o] for o in gen.cod)
        cols = math.prod(SOUND_DIMS[o] for o in gen.dom)
        mats[gen.name] = matrix.random_matrix(rows, cols, rng)
    return matrix.ModelAssignment(dims=dict(SOUND_DIMS), mats=mats)


def unit_signature():
    """``m : U U -> U`` and ``u : 1 -> U`` with the two unit laws as rules."""
    doc = load_document(str(MONOID))
    return doc, prover.rules_from_signature(doc.signature)


def seeded_diagram(sig: Signature, rnd: random.Random, max_slices: int, max_word: int = 4) -> Diagram:
    """``sampling.random_diagram`` from a fresh, well-mixed LCG state.

    The LCG's low bits have short periods, so one stream reused across many
    diagrams repeats shapes; a new 64-bit state per diagram does not.
    """
    return sampling.random_diagram(sig, Lcg(rnd.getrandbits(64)), max_slices, max_word)


def linear_extensions(d: Diagram) -> int:
    """Orders of the slices that respect data flow (slice j reads a wire
    slice i wrote), which approximates the size of the interchange class.

    For six slices or fewer this is n!, an upper bound, which is all the
    ``<= 720`` filter needs.
    """
    if len(d.slices) <= 6:
        return math.factorial(len(d.slices))
    feeds, _ = oracles.wiring(d)
    preds = [0] * len(d.slices)
    for j, (_, sources) in feeds:
        for src, _port in sources:
            if src != "in":
                preds[j] |= 1 << src
    counts = {0: 1}
    for mask in range(1 << len(d.slices)):
        if mask not in counts:
            continue
        for j in range(len(d.slices)):
            if not mask >> j & 1 and preds[j] & mask == preds[j]:
                counts[mask | 1 << j] = counts.get(mask | 1 << j, 0) + counts[mask]
    return counts[(1 << len(d.slices)) - 1]


# ------------------------------------------------------------- interchange

def riffle(d: Diagram, e: Diagram, rnd: random.Random) -> Diagram:
    """A random interleaving of ``d`` beside ``e`` (``d`` on the left wires).

    Each factor keeps its own slice order; ``e``'s offsets shift by the
    current width of ``d``'s part, so every interleaving is interchange-equal
    to ``tensor(d, e)``.
    """
    out = []
    i = j = 0
    width = len(d.input)
    while i < len(d.slices) or j < len(e.slices):
        if j == len(e.slices) or (i < len(d.slices) and rnd.random() < 0.5):
            s = d.slices[i]
            out.append(s)
            width += len(s.gen.cod) - len(s.gen.dom)
            i += 1
        else:
            s = e.slices[j]
            out.append(Slice(s.offset + width, s.gen))
            j += 1
    return Diagram(d.input + e.input, tuple(out))


def _verify_canonical(d: Diagram, model: oracles.TensorModel):
    def verify(form) -> str | None:
        c = form.diagram
        if c.input != d.input or sorted(form.certificate) != list(range(len(d.slices))):
            return "certificate is not a permutation of the slices"
        if oracles.wiring(c, form.certificate) != oracles.wiring(d):
            return "canonical form rewires the diagram"
        if not oracles.exceeds_matrix_limit(d, SOUND_DIMS):
            # both matrices applied to one random vector: memory stays small
            probe = np.random.default_rng(len(d.slices)).uniform(-1, 1, (oracles.word_dim(d.input, SOUND_DIMS), 1))
            gap = float(np.max(np.abs(model.evaluate(d, probe) - model.evaluate(c, probe))))
            if gap > 1e-12:
                return f"evaluation gap {gap:.2e}"
        return None
    return verify


def _tensor_checks(sig: Signature, k: int, rnd: random.Random) -> list[Check]:
    f = sig.morphisms["f"]
    order = list(range(k))
    rnd.shuffle(order)
    t1 = Diagram(("P",) * k, tuple(Slice(i, f) for i in order))
    rnd.shuffle(order)
    t2 = Diagram(("P",) * k, tuple(Slice(i, f) for i in order))
    want = tuple(Slice(i, f) for i in range(k))

    def verify_canon(form) -> str | None:
        if form.diagram.slices != want:
            return "tensor canonical form is not f@0 .. f@k-1"
        if tuple(t1.slices[p].offset for p in form.certificate) != tuple(range(k)):
            return "tensor certificate wrong"
        return None

    def verify_lins(lins) -> str | None:
        if len(lins) != math.factorial(k) or len(set(lins)) != len(lins):
            return f"{len(lins)} linearizations, want {k}! = {math.factorial(k)}"
        return None

    return [
        Check(f"tensor{k}.canonicalize", lambda: exchange.canonicalize(t1), verify_canon),
        Check(f"tensor{k}.linearizations", lambda: exchange.linearizations(t1), verify_lins),
        Check(
            f"tensor{k}.interchange_equal",
            lambda: exchange.interchange_equal(t1, t2),
            lambda got: None if got is True else "equal tensors reported unequal",
        ),
    ]


def _pair_check(sig: Signature, rnd: random.Random, equal: bool) -> Check:
    """Two interleavings of ``left (x) core (x) right``.

    Equal pairs share the core; unequal pairs use the cores
    ``[P P | f@0 ; k@0]`` and ``[P P | f@1 ; k@1]``, which have the same
    boundaries and generators but consume different wires.
    """
    f, kk = sig.morphisms["f"], sig.morphisms["k"]
    core1 = Diagram(("P", "P"), (Slice(0, f), Slice(0, kk)))
    core2 = Diagram(("P", "P"), (Slice(1, f), Slice(1, kk)))
    left = seeded_diagram(sig, rnd, 2, 2)
    right = seeded_diagram(sig, rnd, 2, 2)
    a = riffle(riffle(left, core1, rnd), right, rnd)
    b = riffle(riffle(left, core1 if equal else core2, rnd), right, rnd)
    return Check(
        "pair.equal" if equal else "pair.unequal",
        lambda: exchange.interchange_equal(a, b),
        lambda got: None if got is equal else f"interchange_equal gave {got}, want {equal}",
    )


# Random diagrams per block by slice count.  Diagrams of at most two slices
# are over half of all checks, so the median check is a tiny class and shows
# per-call constant factors; the k = 7 tensors are 3% and own the tail.
RANDOM_SLICES = {0: 18, 1: 18, 2: 18, 3: 4, 4: 4, 5: 4, 6: 4, 7: 4, 8: 2}


def interchange(seed: int) -> Workload:
    rnd = random.Random(seed)
    sig = soundness_signature()
    model = oracles.TensorModel(SOUND_DIMS, soundness_model(sig).mats)

    def stream() -> Iterator[Check]:
        while True:
            for k in range(4, 8):
                yield from _tensor_checks(sig, k, rnd)
            block = [_pair_check(sig, rnd, equal=i % 2 == 0) for i in range(12)]
            wanted = dict(RANDOM_SLICES)
            while any(wanted.values()):
                d = seeded_diagram(sig, rnd, 8)
                if wanted[len(d.slices)] and linear_extensions(d) <= 720:
                    wanted[len(d.slices)] -= 1
                    block.append(Check(
                        "random.canonicalize", lambda d=d: exchange.canonicalize(d), _verify_canonical(d, model)
                    ))
            rnd.shuffle(block)
            yield from block

    return Workload(
        stream(),
        tail_percentile=98.0,
        traced=slice(0, 100),
    )


# ------------------------------------------------------------- unit laws

def unit_diagram(gens, rnd: random.Random, width: int, n: int) -> Diagram:
    """``n`` random slices of ``u`` and ``m`` on ``width`` input wires."""
    m, u = gens["m"], gens["u"]
    slices = []
    size = width
    for _ in range(n):
        options = [Slice(i, u) for i in range(size + 1)] + [Slice(i, m) for i in range(size - 1)]
        s = rnd.choice(options)
        slices.append(s)
        size += 1 if s.gen is u else -1
    return Diagram(("U",) * width, tuple(slices))


def pad_unit(d: Diagram, gens, rnd: random.Random) -> Diagram:
    """Insert one unit law, read backwards: ``u`` beside a wire, then ``m``."""
    m, u = gens["m"], gens["u"]
    ws = oracles.words(d)
    cut = rnd.choice([c for c, w in enumerate(ws) if w])
    wire = rnd.randrange(len(ws[cut]))
    pad = (Slice(wire, u), Slice(wire, m)) if rnd.random() < 0.5 else (Slice(wire + 1, u), Slice(wire, m))
    return Diagram(d.input, d.slices[:cut] + pad + d.slices[cut:])


def _verify_trace(rules, start: Diagram, end: Diagram):
    names = {r.name for r in rules}

    def verify(trace) -> str | None:
        if trace.start != start or trace.end != end:
            return "trace endpoints differ from the goal"
        used = {step.rule for step in trace.steps}
        if not used <= names:
            return f"trace uses undeclared rules {sorted(used - names)}"
        if not prover.replay(trace, rules):
            return "trace does not replay"
        return None
    return verify


def _verify_theorem(signature, goals: int):
    """Each trace replays under the theorem's own rules and uses no others."""
    def verify(traces) -> str | None:
        traces = traces if isinstance(traces, tuple) else (traces,)
        sig, _ = signature()
        rules = prover.rules_from_signature(sig)
        names = {r.name for r in rules}
        if len(traces) != goals:
            return f"{len(traces)} traces, want {goals}"
        for trace in traces:
            if not trace.steps or not {s.rule for s in trace.steps} <= names:
                return "trace is empty or uses undeclared rules"
            if not prover.replay(trace, rules):
                return "trace does not replay"
        return None
    return verify


def _cli_check(argv: list[str], want: str) -> Check:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def verify(got) -> str | None:
        code, text = got
        if code != 0 or want not in text:
            return f"commuter {' '.join(argv)} exited {code} without {want!r}"
        return None
    return Check("cli." + argv[0], run, verify)


# (input width, base slices, unit laws padded onto each side) -> draws per
# block.  Bases of two slices padded on the left side cost 0.1 to 1 s a proof
# and would make the mix hang on a few draws.  Each block's median check falls
# inside the tight (2, 0, (1, 0)) group, so the median does not jump between
# groups from run to run.
PROVE_SHAPES = {(w, n, pads): 2 for w in (1, 2) for n in (0, 1) for pads in ((0, 1), (1, 0), (1, 1))}
PROVE_SHAPES[2, 0, (1, 0)] = 8


def _unit_equal_pair(gens, rnd: random.Random, width: int, n: int, pads) -> tuple[Diagram, Diagram]:
    """A base diagram padded by one unit law on one or both sides.

    The sides are at most two rule steps apart, so both frontiers meet
    within the first level of the search; they are never the same diagram.
    """
    base = unit_diagram(gens, rnd, width, n)
    while True:
        a, b = base, base
        for _ in range(pads[0]):
            a = pad_unit(a, gens, rnd)
        for _ in range(pads[1]):
            b = pad_unit(b, gens, rnd)
        if a != b:
            return a, b


def prove(seed: int) -> Workload:
    rnd = random.Random(seed)
    doc, rules = unit_signature()
    gens = doc.signature.morphisms
    budget = prover.SearchBudget(max_depth_per_side=2, max_nodes=3000)
    fixed = [
        Check("duality.theorem1", lambda: duality.verify_theorem1(), _verify_theorem(duality.theorem1_signature, 2)),
        Check("duality.theorem3", lambda: duality.verify_theorem3(), _verify_theorem(duality.theorem3_signature, 1)),
        Check(
            "duality.dual_inverse",
            lambda: duality.theorem1_dual_inverse(),
            _verify_theorem(duality.theorem1_dual_signature, 2),
        ),
        _cli_check(["theorem1"], "2 steps"),
        _cli_check(["theorem3"], "3 steps"),
        _cli_check(["prove", "--file", str(MONOID), "--lhs", "padded", "--rhs", "id U"], "2 steps"),
    ]

    def stream() -> Iterator[Check]:
        while True:
            yield from fixed
            shapes = [shape for shape, count in PROVE_SHAPES.items() for _ in range(count)]
            rnd.shuffle(shapes)
            for shape in shapes:
                a, b = _unit_equal_pair(gens, rnd, *shape)
                if not oracles.unit_equal(a, b):
                    raise AssertionError(f"padded pair separated by the term oracle: {a} vs {b}")
                yield Check(
                    "unit.prove",
                    lambda a=a, b=b: prover.prove_equal(a, b, rules, budget),
                    _verify_trace(rules, a, b),
                )

    return Workload(
        stream(),
        tail_percentile=97.0,
        traced=slice(0, 36),
    )


def _refute_check(kind: str, a: Diagram, b: Diagram, rules, budget) -> Check:
    if oracles.unit_equal(a, b):
        raise AssertionError(f"refute pair is equal under the unit laws: {a} vs {b}")

    def verify(got) -> str | None:
        return None if isinstance(got, SearchExhausted) else f"proved a separated pair {a} vs {b}"

    def run():
        try:
            return prover.prove_equal(a, b, rules, budget)
        except SearchExhausted as e:
            return e.with_traceback(None)
    return Check(kind, run, verify)


# (input width, most slices on either side) -> draws per block, chosen so the
# median check falls inside the tight (1, 2) group
REFUTE_SHAPES = {(1, 1): 4, (2, 1): 4, (2, 2): 4, (1, 2): 6, (1, 3): 6, (2, 3): 6}


def _unit_separated_pair(gens, rnd: random.Random, width: int, most: int) -> tuple[Diagram, Diagram]:
    """Two diagrams with the same boundaries whose output terms differ."""
    while True:
        a = unit_diagram(gens, rnd, width, most)
        b = unit_diagram(gens, rnd, width, rnd.randint(0, most))
        if rnd.random() < 0.5:
            a, b = b, a
        if len(oracles.words(a)[-1]) == len(oracles.words(b)[-1]) and not oracles.unit_equal(a, b):
            return a, b


def refute(seed: int) -> Workload:
    rnd = random.Random(seed)
    doc, rules = unit_signature()
    gens = doc.signature.morphisms
    m, u = gens["m"], gens["u"]
    # Node budgets do not bound search time: at depth 2 this separated pair
    # overruns the deadline within 100 nodes.
    probe_l = Diagram(("U",), (Slice(0, u), Slice(0, u)))
    probe_r = Diagram(("U",), (Slice(0, u), Slice(2, u), Slice(2, u), Slice(1, m)))
    mm_l, mm_r = doc.diagrams["mm_left"], doc.diagrams["mm_right"]
    budget = prover.SearchBudget

    def stream() -> Iterator[Check]:
        yield _refute_check("unit.probe", probe_l, probe_r, rules, budget(2, 100))
        yield _refute_check("monoid.mm.d2", mm_l, mm_r, rules, budget(2, 200))
        yield _refute_check("monoid.mm.d3", mm_l, mm_r, rules, budget(3, 300))
        while True:
            shapes = [shape for shape, count in REFUTE_SHAPES.items() for _ in range(count)]
            rnd.shuffle(shapes)
            for shape in shapes:
                a, b = _unit_separated_pair(gens, rnd, *shape)
                yield _refute_check("unit.refute", a, b, rules, budget(1, 200))

    return Workload(
        stream(),
        tail_percentile=95.0,
        traced=slice(1, 63),  # the probe's partial work would not repeat
    )


# ------------------------------------------------------------- semantics

def _eval_check(kind: str, d: Diagram, model, oracle: oracles.TensorModel) -> Check:
    refused = oracles.exceeds_matrix_limit(d, SOUND_DIMS)

    def run():
        try:
            return matrix.eval_diagram(d, model)
        except SizeError as e:
            # without its traceback: the frames hold the refused call's
            # arrays, and through the caller's frame a cycle that only the
            # cyclic collector frees, so memory would pile up between checks
            return e.with_traceback(None)

    def verify(got) -> str | None:
        if refused:
            return None if isinstance(got, SizeError) else "evaluated past the size limit"
        if isinstance(got, SizeError):
            return f"refused a diagram within the size limit: {got}"
        want = oracle.evaluate(d)
        gap = float(np.max(np.abs(got - want), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        return None if gap <= 1e-12 * scale else f"dense and contracted evaluation differ by {gap:.2e}"
    return Check(kind, run, verify)


def _alpha_check(kind: str, s: int, j: int, c: int) -> Check:
    functor = finset.TimesS(s) if kind == "times" else finset.PowerS(s)
    sizes = oracles.times_alpha_sizes(s, j, c) if kind == "times" else oracles.power_alpha_sizes(s, j, c)

    def verify(got) -> str | None:
        if (got.dom.size, got.cod.size) != sizes or len(got.table) != sizes[0]:
            return f"alpha sizes {(got.dom.size, got.cod.size)}, want {sizes}"
        if len(set(got.table)) != sizes[0]:
            return "alpha is not injective"
        if got.is_bijective != oracles.alpha_bijective(kind, s, j, c):
            return "alpha bijectivity disagrees with the cardinality formula"
        return None
    return Check(f"finset.alpha.{kind}", lambda: finset.canonical_alpha(functor, j, finset.FinSetObj(c)), verify)


def _atom_check(d: int, max_j: int) -> Check:
    consistent, sizes = oracles.atom_expected(d, max_j)

    def verify(got) -> str | None:
        if got.consistent != consistent or got.retract != consistent or got.sizes != sizes:
            return f"atom check wrong at |D| = {d}"
        return None
    return Check("finset.atom", lambda: finset.atom_strong_check(finset.FinSetObj(d), max_j), verify)


def _transpose_check(x: int, d: int, j: int) -> Check:
    want = oracles.expected_transpose(x, d, j)
    return Check(
        "finset.transpose",
        lambda: finset.hom_transpose_bijection(x, d, j),
        lambda got: None if got == want else f"hom transpose wrong at x={x} d={d} j={j}",
    )


def _numeric_check(kind: str, run: Callable[[], Any], exact: bool) -> Check:
    def verify(report) -> str | None:
        if not report.ok or (exact and report.worst() != 0.0):
            return f"{kind} residual {report.worst():.2e} at {report.dims}"
        return None
    return Check(kind, run, verify)


# Five units 1 -> P Q grow the empty word to dimension 6**5 = 7776; the last
# fold step builds the largest dense block the benchmark allows.  A sixth unit
# on that word passes the size bound and must be refused; at offset 0 the
# fold builds the 7776 x 7776 identity beside it before ``kron`` refuses, so
# what the refusal costs shows in time and in peak memory.
PEAK_UNITS = 5


def semantics(seed: int) -> Workload:
    rnd = random.Random(seed)
    sig = soundness_signature()
    model = soundness_model(sig)
    oracle = oracles.TensorModel(SOUND_DIMS, model.mats)
    h = sig.morphisms["h"]
    peak = Diagram((), tuple(Slice(0, h) for _ in range(PEAK_UNITS)))
    too_big = Diagram((), peak.slices + (Slice(0, h),))
    peak_entries = oracles.fold_entries(peak, SOUND_DIMS)

    def stream() -> Iterator[Check]:
        for block in itertools.count():
            yield _eval_check("matrix.eval.peak", peak, model, oracle)
            yield _eval_check("matrix.eval.refused", too_big, model, oracle)
            for da, dx in ((2, 2), (2, 3), (3, 2), (3, 3)):
                draw = rnd.randrange(1 << 30)
                yield _numeric_check(
                    "matrix.theorem1", lambda da=da, dx=dx, draw=draw: matrix.check_theorem1_numeric(da, dx, draw), False
                )
            n, x = rnd.randint(1, 3), rnd.randint(1, 3)
            yield _numeric_check("matrix.theorem3", lambda n=n, x=x: matrix.check_theorem3_numeric(n, x), True)
            # tables of 10**3 .. 10**6 entries, one size per block in turn
            size = 10 ** (3 + block % 4)
            yield _alpha_check("times", 10, size // 100, 10)
            yield _alpha_check("power", 2, 2, rnd.randint(10, 30))
            yield _atom_check(rnd.randint(0, 3), rnd.randint(2, 5))
            yield _transpose_check(rnd.randint(0, 3), rnd.randint(0, 3), rnd.randint(0, 3))
            added = 0
            while added < 30:
                d = seeded_diagram(sig, rnd, 8)
                # a quarter of the peak block, with the Kronecker product's
                # temporaries, stays below the refused check's identity
                # block, so that check sets peak memory, not the draw
                if oracles.fold_entries(d, SOUND_DIMS) > peak_entries // 4:
                    continue
                yield _eval_check("matrix.eval.random", d, model, oracle)
                added += 1

    return Workload(
        stream(),
        tail_percentile=98.0,
        traced=slice(0, 42),
    )


WORKLOADS = {"interchange": interchange, "prove": prove, "refute": refute, "semantics": semantics}
