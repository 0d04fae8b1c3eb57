"""ridekit benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py                      # every workload, each in a fresh process
    python3 bench/run.py --workload analyze --seed 3 --seconds 15 --trace 0

One run prepares the workload's inputs for the seed (in a child process),
times the program's set-up in fresh processes, then repeats whole rounds of
the workload's operations for ``--seconds`` and checks every output.  A
round starts only if a round of the mean length still fits, so a run
measures at most ``--seconds`` unless its first round alone is longer.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from spans with ``--trace 1``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def probe(config: Path | None) -> tuple[float, float, float]:
    """(wall, import, config load) seconds of one fresh set-up process."""
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC)] + ([str(config)] if config else [])
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    wall = time.perf_counter() - t0
    data = json.loads(done.stdout.strip().splitlines()[-1])
    return wall, data["import_s"], data["load_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import LAYER_METRICS, Tracer, round_layers
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    run = OUT / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir()
    try:
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--prepare", str(run)],
            check=True, timeout=170,
        )
        # flush the fresh inputs first: their writeback otherwise overlaps the
        # timed rounds (it slowed classify rounds by about 10 %)
        for path in run.iterdir():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        config = run / "config.yaml"
        probes = [probe(config if config.exists() else None) for _ in range(SETUP_PROBES)]

        wl = WORKLOADS[workload]()
        ops = wl.operations(run, wl.load(run))
        tracer = Tracer() if trace else None
        rounds = []  # (wall, cpu, first span, last span)
        attempted = failed = 0
        correct = True
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
                first = len(tracer.spans) if tracer else 0
                wall = cpu = 0.0
                for op in ops:
                    attempted += 1
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        result = op.call()
                    except Exception:  # an operation that raises counts as failed; the run goes on
                        traceback.print_exc()
                        failed += 1
                        continue
                    finally:
                        wall += time.perf_counter() - t0
                        cpu += time.process_time() - c0
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        try:
                            errors = op.check(result)
                        except Exception:  # a check that cannot read the output fails it
                            errors = ["check raised " + traceback.format_exc()]
                    if errors:
                        failed += 1
                        if op.known_fault:
                            print(f"{workload}: known fault ({op.known_fault}): " + "; ".join(errors), file=sys.stderr)
                        else:
                            print(f"{workload}: check failed: " + "; ".join(errors), file=sys.stderr)
                            correct = False
                rounds.append((wall, cpu, first, len(tracer.spans) if tracer else 0))
    finally:
        shutil.rmtree(run, ignore_errors=True)

    median = statistics.median
    if tracer:
        tracer.write(OUT / f"trace-{workload}-s{seed}.jsonl")
        per_round = [round_layers(tracer.spans, first, last) for _, _, first, last in rounds]
        values = {name: median(r[name] for r in per_round) for name in per_round[0]}
        values["process.import_s"] = median(p[1] for p in probes)
        values["config.load_s"] = median(p[2] for p in probes)
        values["trace.wall_s"] = median(r[0] for r in rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "wall_s": median(r[0] for r in rounds),
            "cpu_s": median(r[1] for r in rounds),
            "setup_s": median(p[0] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    from workloads import WORKLOADS

    results, exits = {}, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}, no result")
            exits[name] = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 1 if exits or not all(r["correct"] for r in results.values()) else 0


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ridekit" / "__init__.py").is_file():
        print(f"error: no ridekit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.prepare:
        WORKLOADS[args.workload]().prepare(args.seed, Path(args.prepare))
        return 0
    if args.workload is None:
        return run_all(args)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
