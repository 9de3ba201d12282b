"""The commuter benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interchange --seed 1 --seconds 25 --trace 0

Each workload runs in fresh single-threaded worker processes (see
``perfbench/worker.py``).  ``setup_s`` is the median, over ``SETUP_SAMPLES``
launches before the measuring one, the measuring one and ``SETUP_SAMPLES``
after it, of the time from process launch to the first check being ready.
With ``--trace 0`` the measuring worker checks in a closed loop and the last
line of output carries the end-to-end metrics, computed over every check of
the run; with ``--trace 1`` it replays a fixed run of the checks, each once
untraced and once with the library's public functions wrapped, and the last
line carries the per-layer metrics.  A check that misses its deadline fails
the run unless ``baseline.json`` lists it as a known miss.  The line before the result is a detail record: seed, machine,
load, the tail percentile and its sample count, deadline misses, failures and
the layer-to-end-to-end map.  The same record, with the last line folded in,
is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

WORKLOADS = ("interchange", "prove", "refute", "semantics")

# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_MAP = {
    "exchange.*": "verdict_tail_ms and checks_per_s on interchange; no change on semantics",
    "exchange.canonicalize.in_find_matches_ms, exchange.canonicalize.in_prove_equal_ms":
        "checks_per_s on prove and refute",
    "prover.prove_equal.*, prover.find_matches.*, prover.members_per_find_matches":
        "checks_per_s on prove and refute; ok_share on refute",
    "prover.exhausted, prover.nodes_at_exhaustion": "pin the work done on refute; move only with the search policy",
    "prover.replay.*": "verdict_p50_ms on prove",
    "matrix.*": "checks_per_s and peak_rss_mb on semantics",
    "finset.*": "verdict_p50_ms on semantics",
    "core.intermediate_words.*": "verdict_p50_ms on every workload",
    "dsl.*, cli.main.self_ms, duality.self_ms": "verdict_p50_ms on prove",
    "sampling.random_diagram.self_ms":
        "no end-to-end metric: the closed loop draws inputs between checks, outside the timed region",
    "trace.overhead_share": "traced wall time / untraced wall time - 1, per workload",
}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(
        # glibc otherwise raises its mmap threshold after the first large
        # free, and later arrays fragment the heap: peak RSS would then grow
        # with run length instead of tracking the largest live arrays
        MALLOC_MMAP_THRESHOLD_="131072",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def launch(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY: (process, seconds to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def rank(n: int, p: float) -> int:
    """The nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, math.ceil(n * p / 100))


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "commuter" / "__init__.py", ROOT / "fixtures" / "monoid.cmt"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2

    loadavg = read_loadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup: list[float] = []

    def setup_only() -> None:
        for _ in range(SETUP_SAMPLES):
            proc, ready = launch([*common, "--setup-only"])
            proc.communicate(timeout=60)
            setup.append(ready)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", str(results / f"{stem}-spans.npz")] if args.trace else []
    setup_only()
    proc, ready = launch([*common, "--seconds", str(args.seconds), "--trace", str(args.trace), *extra])
    setup.append(ready)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark: worker overran its time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"benchmark: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    # set-up samples on both sides of the measured run see the machine at
    # more than one moment
    setup_only()
    run = json.loads(out.strip().splitlines()[-1])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = json.loads((BENCH / "baseline.json").read_text())["known_deadline_misses"].get(args.workload, {})
    # a miss the seed commit already had is allowed; any other fails the run
    unexpected = [m for m in run["missed"] if m.split(":", 1)[1] not in known]
    failures = run["failures"] + [f"{m}: missed the {run['deadline_s']} s deadline" for m in unexpected]
    detail = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "loadavg_at_start": loadavg,
        "deadline_s": run["deadline_s"],
        "setup_samples_s": setup,
        "deadline_misses": run["missed"],
        "known_deadline_misses": known,
        "failures": failures[:20],
        "layer_map": LAYER_MAP,
    }
    if args.trace:
        attempted = run["attempted"]
        values = run["layer"]
    else:
        lat = sorted(run["latencies"])
        attempted = len(lat)
        p = run["tail_percentile"]
        detail.update(tail_percentile=p, tail_samples=attempted, tail_beyond=attempted - rank(attempted, p))
        values = {
            "setup_s": statistics.median(setup),
            "verdict_p50_ms": statistics.median(lat) * 1e3,
            "verdict_tail_ms": lat[rank(attempted, p) - 1] * 1e3,
            "checks_per_s": attempted / sum(lat),
            "ok_share": (attempted - len(run["failures"]) - len(run["missed"])) / attempted,
            "peak_rss_mb": run["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps({**detail, "result": line}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
