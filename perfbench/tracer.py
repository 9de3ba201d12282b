"""Spans around the library's public functions, installed from outside.

The package imports with ``from .x import name``, so a function is reached
through several module attributes (``commuter.exchange.canonicalize``,
``commuter.prover.canonicalize``, ``commuter.cli.canonicalize``, ...).
``Tracer.install`` replaces the function at every ``commuter`` module
attribute that holds it and ``uninstall`` puts the originals back; no file of
the package changes.  Each call records a span (name, start, end, parent) in
memory, plus what the result or the raised exception says about the work
done.  ``layer_metrics`` derives counts and self times from the spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs the traced run wraps
TARGETS = (
    ("core", "intermediate_words"),
    ("exchange", "canonicalize"),
    ("exchange", "linearizations"),
    ("exchange", "interchange_equal"),
    ("prover", "prove_equal"),
    ("prover", "find_matches"),
    ("prover", "replay"),
    ("matrix", "eval_diagram"),
    ("matrix", "kron"),
    ("matrix", "flip"),
    ("matrix", "random_matrix"),
    ("finset", "canonical_alpha"),
    ("finset", "eval_map"),
    ("finset", "hom_transpose_bijection"),
    ("dsl", "parse_document"),
    ("dsl", "parse_term"),
    ("cli", "main"),
    ("duality", "verify_theorem1"),
    ("duality", "verify_theorem3"),
    ("duality", "theorem1_dual_inverse"),
    ("sampling", "random_diagram"),
)

DUALITY_DRIVERS = ("duality.verify_theorem1", "duality.verify_theorem3", "duality.theorem1_dual_inverse")


def _size(result) -> int:
    """Work a result records: members, matches, table entries or bytes."""
    if isinstance(result, list):
        return len(result)
    if isinstance(result, np.ndarray):
        return result.nbytes
    table = getattr(result, "table", None)
    return len(table) if table is not None else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        # (exception class name, SearchExhausted node count) per span
        self.raised: dict[int, tuple[str, int]] = {}
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, label: str, fn):
        name_id = self.name_ids.setdefault(label, len(self.names))
        if name_id == len(self.names):
            self.names.append(label)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.size.append(0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.end[idx] = clock()
                tracer.raised[idx] = (type(e).__name__, getattr(e, "nodes", 0))
                raise
            finally:
                tracer.stack.pop()
            tracer.end[idx] = clock()
            tracer.size[idx] = _size(result)
            return result

        return traced

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if m is not None and (n == "commuter" or n.startswith("commuter."))]
        for modname, fname in TARGETS:
            original = getattr(sys.modules["commuter." + modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in mods:
                if getattr(mod, fname, None) is original:
                    self.patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self.patched):
            setattr(mod, fname, original)
        self.patched.clear()

    def mark(self) -> int:
        return len(self.start)

    def drop_since(self, mark: int) -> None:
        """Forget the spans of a check that did not finish."""
        for lst in (self.span_name, self.start, self.end, self.parent, self.size):
            del lst[mark:]
        for idx in [i for i in self.raised if i >= mark]:
            del self.raised[idx]
        self.stack.clear()

    # ------------------------------------------------------------- metrics

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        size: dict[str, int] = defaultdict(int)
        label = [self.names[k] for k in self.span_name]
        parent_label = [label[p] if p >= 0 else "" for p in self.parent]
        for i in range(n):
            calls[label[i]] += 1
            self_ms[label[i]] += (dur[i] - child[i]) * 1e3
            size[label[i]] += self.size[i]

        def in_parent(name: str, parent: str) -> float:
            return sum(dur[i] for i in range(n) if label[i] == name and parent_label[i] == parent) * 1e3

        def raised(name: str, exc: str) -> list[int]:
            return [v[1] for i, v in self.raised.items() if label[i] == name and v[0] == exc]

        exchange_spans = ("exchange.canonicalize", "exchange.linearizations")
        cap_hits = sum(
            1 for i, v in self.raised.items()
            if v[0] == "BudgetError" and label[i] in exchange_spans and parent_label[i] not in exchange_spans
        )
        fm_calls = calls["prover.find_matches"]
        fm_empty = sum(
            1 for i in range(n) if label[i] == "prover.find_matches" and i not in self.raised and self.size[i] == 0
        )
        members_in_fm = sum(
            self.size[i] for i in range(n)
            if label[i] == "exchange.linearizations" and parent_label[i] == "prover.find_matches"
        )
        exhausted = raised("prover.prove_equal", "SearchExhausted")
        return {
            "exchange.canonicalize.calls": calls["exchange.canonicalize"],
            "exchange.canonicalize.self_ms": self_ms["exchange.canonicalize"],
            "exchange.canonicalize.in_find_matches_ms": in_parent("exchange.canonicalize", "prover.find_matches"),
            "exchange.canonicalize.in_prove_equal_ms": in_parent("exchange.canonicalize", "prover.prove_equal"),
            "exchange.linearizations.calls": calls["exchange.linearizations"],
            "exchange.linearizations.self_ms": self_ms["exchange.linearizations"],
            "exchange.linearizations.members": size["exchange.linearizations"],
            "exchange.cap_hits": cap_hits,
            "exchange.interchange_equal.self_ms": self_ms["exchange.interchange_equal"],
            "prover.prove_equal.calls": calls["prover.prove_equal"],
            "prover.prove_equal.self_ms": self_ms["prover.prove_equal"],
            "prover.find_matches.calls": fm_calls,
            "prover.find_matches.self_ms": self_ms["prover.find_matches"],
            "prover.find_matches.matches": size["prover.find_matches"],
            "prover.find_matches.empty_share": fm_empty / fm_calls if fm_calls else 0.0,
            "prover.members_per_find_matches": members_in_fm / fm_calls if fm_calls else 0.0,
            "prover.exhausted": len(exhausted),
            "prover.nodes_at_exhaustion": sum(exhausted),
            "prover.replay.calls": calls["prover.replay"],
            "prover.replay.self_ms": self_ms["prover.replay"],
            "matrix.eval_diagram.self_ms": self_ms["matrix.eval_diagram"],
            "matrix.kron.calls": calls["matrix.kron"],
            "matrix.kron.self_ms": self_ms["matrix.kron"],
            "matrix.kron.out_mb": size["matrix.kron"] / 1e6,
            "matrix.size_refusals": len(raised("matrix.eval_diagram", "SizeError")),
            "matrix.flip.self_ms": self_ms["matrix.flip"],
            "matrix.random_matrix.self_ms": self_ms["matrix.random_matrix"],
            "finset.canonical_alpha.self_ms": self_ms["finset.canonical_alpha"],
            "finset.eval_map.self_ms": self_ms["finset.eval_map"],
            "finset.table_entries": size["finset.canonical_alpha"] + size["finset.eval_map"],
            "finset.hom_transpose_bijection.self_ms": self_ms["finset.hom_transpose_bijection"],
            "core.intermediate_words.calls": calls["core.intermediate_words"],
            "core.intermediate_words.self_ms": self_ms["core.intermediate_words"],
            "dsl.parse_document.self_ms": self_ms["dsl.parse_document"],
            "dsl.parse_term.self_ms": self_ms["dsl.parse_term"],
            "cli.main.self_ms": self_ms["cli.main"],
            "duality.self_ms": sum(self_ms[d] for d in DUALITY_DRIVERS),
            "sampling.random_diagram.self_ms": self_ms["sampling.random_diagram"],
        }
