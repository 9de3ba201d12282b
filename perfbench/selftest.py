"""Self-test: the unit-law term oracle agrees with the acceptance suite.

The acceptance suite (``tests/test_acceptance.py``) sorts its 28-diagram
unit-law pool into classes by rewrite closure.  This script rebuilds those
classes and checks that two pool diagrams share a class exactly when their
normalised output terms agree, and that every closure member has its seed
diagram's terms.  Run from the root of a checkout::

    PYTHONPATH=src:tests python3 -m perfbench.selftest
"""

from __future__ import annotations

import sys
from itertools import combinations

from commuter.core import boundaries
from commuter.exchange import canonicalize
from commuter.prover import rules_from_signature
from test_acceptance import micro_candidates, micro_signature, rewrite_closure

from .oracles import unit_equal, unit_terms


def main() -> int:
    sig = micro_signature()
    rules = rules_from_signature(sig)
    pool = micro_candidates(sig)
    classes = {}
    problems = []
    for i, d in enumerate(pool):
        if canonicalize(d).diagram in classes:
            continue
        for member in rewrite_closure(d, rules, max_size=1500, max_slices=4):
            classes.setdefault(member, i)
            if unit_terms(member) != unit_terms(d):
                problems.append(f"closure of {d} reaches {member} with other terms")
    pairs = 0
    for d1, d2 in combinations(pool, 2):
        if boundaries(d1) != boundaries(d2):
            continue
        pairs += 1
        same = classes[canonicalize(d1).diagram] == classes[canonicalize(d2).diagram]
        if same != unit_equal(d1, d2):
            problems.append(f"closure says {same}, terms say {not same}: {d1} vs {d2}")
    for p in problems:
        print("FAIL:", p)
    print(f"{len(pool)} diagrams, {pairs} comparable pairs, {len(problems)} disagreements")
    return 1 if problems or len(pool) != 28 else 0


if __name__ == "__main__":
    sys.exit(main())
