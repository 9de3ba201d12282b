"""One workload in one single-threaded process: set up, then check in a closed loop.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.worker --workload prove --seed 1 --seconds 25 --trace 0

The worker prints ``READY`` once its checks are built, then one JSON line
with the results.  ``--setup-only`` exits after ``READY``.

The loop starts the next check when the previous verdict is in and stops
once the checks have been busy for ``--seconds``; the next input is drawn
between checks, outside the timed region.  A per-check alarm
(``DEADLINE_S``) ends a check that blows up; the deadline then counts as its
latency.  ``--trace 1`` instead replays a fixed stretch of the checks, each once
untraced and once with every public library function wrapped, and reports
per-layer counts and self times; its inputs are drawn during set-up, traced.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import signal
import sys
import time
from pathlib import Path

DEADLINE_S = 8.0


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so no library handler catches it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def run_check(check) -> tuple[str, float, object]:
    """Time one check from the call to its verdict: (status, seconds, result)."""
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        t0 = time.perf_counter()
        try:
            result = check.run()
            elapsed = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "deadline", DEADLINE_S, None
    except Exception as e:  # an unexpected error is a failed check, not a crash
        return "error", time.perf_counter() - t0, e
    return "ok", elapsed, result


def verdict(check, status: str, result) -> str | None:
    """Outside the timed region: the error message for a wrong verdict."""
    if status == "error":
        return f"{type(result).__name__}: {result}"
    if status != "ok":
        return None
    try:
        return check.verify(result)
    except Exception as e:
        return f"verify raised {type(e).__name__}: {e}"


def closed_loop(checks, seconds: float) -> dict:
    latencies: list[float] = []
    failures: list[str] = []
    missed: list[str] = []
    busy = 0.0
    wall0 = time.perf_counter()
    for i, check in enumerate(checks):
        if busy >= seconds or time.perf_counter() - wall0 >= 3 * seconds + 30:
            break
        status, elapsed, result = run_check(check)
        busy += elapsed
        latencies.append(elapsed)
        if status == "deadline":
            missed.append(f"{i}:{check.kind}")
        message = verdict(check, status, result)
        if message:
            failures.append(f"{i}:{check.kind}: {message}")
    return {"latencies": latencies, "failures": failures, "missed": missed}


def traced_check(check, tracer) -> tuple[str, float, object]:
    """``run_check`` with the tracer installed; a missed deadline leaves no spans."""
    tracer.install()
    try:
        mark = tracer.mark()
        status, elapsed, result = run_check(check)
        if status == "deadline":
            tracer.drop_since(mark)
    finally:
        tracer.uninstall()
    return status, elapsed, result


def traced_run(checks, tracer) -> dict:
    """A warm-up pass over the checks, then each check once untraced and once
    traced, flipping which of the two goes first from check to check so that
    drift in machine speed cancels out of the overhead.

    Spans of a check that misses its deadline are dropped, so counts repeat
    exactly between runs; overhead compares checks that finished both times.
    """
    for c in checks:
        run_check(c)
    plain, traced = [], []
    for i, c in enumerate(checks):
        if i % 2:
            traced.append(traced_check(c, tracer))
            plain.append(run_check(c))
        else:
            plain.append(run_check(c))
            traced.append(traced_check(c, tracer))
    both = [i for i in range(len(checks)) if plain[i][0] != "deadline" and traced[i][0] != "deadline"]
    untraced_s = sum(plain[i][1] for i in both)
    traced_s = sum(traced[i][1] for i in both)
    failures = []
    for i, (status, _, result) in enumerate(traced):
        message = verdict(checks[i], status, result)
        if message:
            failures.append(f"{i}:{checks[i].kind}: {message}")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1 if untraced_s else 0.0
    return {
        "attempted": len(checks),
        "failures": failures,
        "missed": [f"{i}:{checks[i].kind}" for i in range(len(checks)) if traced[i][0] == "deadline"],
        "layer": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced run's spans (.npz)")
    args = ap.parse_args(argv)

    import commuter

    from . import tracer as tracing
    from . import workloads

    if not Path(commuter.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        print(f"commuter imported from {commuter.__file__}, outside this checkout", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()  # set-up spans: fixture parsing and input sampling
        workload = workloads.WORKLOADS[args.workload](args.seed)
        span = workload.traced
        checks = list(itertools.islice(workload.checks, span.start, span.stop))
        tracer.uninstall()
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        first = next(workload.checks)
        checks = itertools.chain([first], workload.checks)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    if tracer:
        out = traced_run(checks, tracer)
        if args.spans:
            tracer.save(args.spans)
    else:
        out = closed_loop(checks, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(tail_percentile=workload.tail_percentile, deadline_s=DEADLINE_S)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
