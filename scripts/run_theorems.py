#!/usr/bin/env python3
"""Run all three symbolic theorem drivers and time them.

Prints each proof trace in the CLI's step format plus wall-clock timings,
then replays every trace as a final consistency check.
"""

import time

from commuter.cli import Output, _print_trace
from commuter.duality import GOALS, load_theorem, prove_theorem
from commuter.prover import replay, rules_from_signature


def main():
    out = Output()
    checks = []
    for name in GOALS:
        t0 = time.monotonic()
        proved = prove_theorem(name)
        t1 = time.monotonic()
        for label, trace in proved:
            _print_trace(out, label, trace)
        print(f"  ({t1 - t0:.3f}s)")
        rules = rules_from_signature(load_theorem(name).signature)
        checks += [replay(trace, rules) for _, trace in proved]
    print("replays:", "all ok" if all(checks) else f"FAILED {checks}")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
