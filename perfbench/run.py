"""Seeded benchmark of the discocirc pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload two_topic_train --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the calls into
each layer are traced and the metrics are the per-layer ones, and the
spans are written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def load_program() -> None:
    """Put the checkout's own sources first on the import path."""
    src = ROOT / "src"
    if not (src / "discocirc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no discocirc sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]


def setup(workload: str, seed: int):
    """Everything before the first timed call: imports, the lexicon and
    the seeded inputs."""
    load_program()
    import workloads
    from discocirc.ingest import Lexicon
    return workloads.WORKLOADS[workload](seed, Lexicon.builtin())


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from the start of a fresh process to the point where
    its first timed call would begin."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # the probe prints one line once set up, then exits
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S,
            check=True, text=True)
        times.append(float(probe.stdout.split()[-1]) - start)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    # One CPU, so that what the threads of ``train`` get does not hang on
    # how busy the other CPUs are, and the calibration loop measures the
    # CPU the work runs on.  The setup probes inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = setup(args.workload, args.seed)
    if args.setup_probe:
        # perf_counter is system-wide on Linux, so the parent can compare
        print(time.perf_counter(), flush=True)
        return

    import workloads
    tally = workloads.Tally()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            if tracer:
                tracer.start_round()
            wl.round(tally)
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
    wl.check(tally)

    if tracer:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans_{args.workload}_{args.seed}.jsonl")
        rounds = tracer.round_metrics()
        metrics = {name: {"value": statistics.median(r[name] for r in rounds),
                          "unit": unit}
                   for name, unit in spans.PER_LAYER.items()}
        metrics["trace.doc_sentences_per_s"] = {
            "value": tally.scaled(tally.front), "unit": "1/s"}
        metrics["trace.ops_per_s"] = {
            "value": tally.scaled(tally.ops), "unit": "1/s"}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_seconds(args.workload, args.seed),
                        "unit": "s"},
            "doc_sentences_per_s": {"value": tally.scaled(tally.front),
                                    "unit": "1/s"},
            "ops_per_s": {"value": tally.scaled(tally.ops), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    if tally.front and tally.ops:
        print("unscaled medians: doc_sentences_per_s "
              f"{statistics.median(tally.front)}, ops_per_s "
              f"{statistics.median(tally.ops)}; calibration loop "
              f"{statistics.median(tally.calib)} s")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
