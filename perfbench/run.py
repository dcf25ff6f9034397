"""Benchmark of the stirling library: one workload, one seed, one run.

    python3 perfbench/run.py --workload {report,oracle_sweep,exact_sweep}
        --seed N --seconds S --trace {0,1}

Closed loop with one caller: each item is one worker process (cold
library caches, as a command-line user sees them) started only after the
previous one ended, so at most one worker runs at a time.  Items are
issued until the next one would end more than half an item past
``--seconds``; at least one always runs.  Before them, a few workers only
import ``stirling`` to measure set-up time.  Every item's outputs are
checked against independent references outside its timed section.

Times are rescaled to a reference host speed (see ``speed.py``): the
host this was built on changes speed by up to 2x for minutes at a time,
which raw times cannot average out within a run.  Raw times are kept in
the per-layer output (``e2e.wall_raw_s``, ``e2e.setup_raw_s``) and the
record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced items and then one traced item, and prints the per-layer
metrics (including the tracing overhead).  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (inputs, per-item numbers, machine facts, the layer map) is
written to ``perfbench/results/``.

Timing uses ``time.perf_counter`` and ``resource.getrusage`` from the
standard library only (``pytest-benchmark`` is not a declared dependency
of the project).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import metrics
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "timing": "time.perf_counter and resource.getrusage (stdlib); "
                  "pytest-benchmark not used: not a declared dependency",
    }


def run_worker(spec: dict) -> dict:
    """Start one worker, wait for it, return its result plus set-up time.
    A worker that fails or times out yields ``{"crashed": reason}``."""
    env = {k: v for k, v in os.environ.items() if k != "STIRLING_PRECISION_BITS"}
    env["PYTHONPATH"] = str(SRC)
    payload = json.dumps({**spec, "src": str(SRC)})
    t_spawn = clock()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(payload, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crashed": f"timed out after {WORKER_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["t_imported"] - t_spawn
    result["setup_s"] = speed.rescale(result["setup_raw_s"], [result["setup_kernel"]])
    result["elapsed_s"] = clock() - t_spawn
    return result


def closed_loop(workload: str, inputs: dict, seconds: float) -> list[dict]:
    items: list[dict] = []
    start = clock()
    while True:
        items.append(run_worker({"workload": workload, "inputs": inputs}))
        elapsed = clock() - start
        typical = statistics.median(it.get("elapsed_s", elapsed) for it in items)
        if elapsed + typical / 2 >= seconds:
            return items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stirling" / "__init__.py").is_file():
        print(f"error: no stirling sources under {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    probes = [run_worker({"setup_only": True}) for _ in range(SETUP_PROBES)]
    items = closed_loop(args.workload, inputs, args.seconds)
    traced = run_worker({"workload": args.workload, "inputs": inputs, "trace": True}) \
        if args.trace else None

    everything = items + ([traced] if traced else [])
    crashed = [it["crashed"] for it in probes + everything if "crashed" in it]
    good = [it for it in items if "crashed" not in it]
    attempted = sum(it.get("attempted", 1) for it in everything)
    failed = sum(it["failed"] if "crashed" not in it else 1 for it in everything)
    for reason in crashed:
        print(f"worker failed: {reason}", file=sys.stderr)
    if not good or (traced is not None and "crashed" in traced):
        print("error: no usable measurement", file=sys.stderr)
        return 3

    setup_items = [it for it in probes + good if "crashed" not in it]
    end_to_end = {
        "setup_s": statistics.median(it["setup_s"] for it in setup_items),
        "wall_ref_s": statistics.median(it["wall_ref_s"] for it in good),
        "peak_rss_mb": statistics.median(it["rss_mib"] for it in good),
    }
    layers = metrics.untraced_values(good, setup_items, attempted, failed)
    if traced is not None:
        layers.update(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_ref_s"] / end_to_end["wall_ref_s"]
    names = [m[0] for m in (metrics.PER_LAYER if args.trace else metrics.END_TO_END)]
    values = layers if args.trace else end_to_end
    if set(values) != set(names):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(names))}")

    result = {
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]} for n in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "inputs": inputs,
        "end_to_end": end_to_end, "per_layer": layers,
        "samples": {"setup_s": [it["setup_s"] for it in setup_items],
                    "setup_raw_s": [it["setup_raw_s"] for it in setup_items],
                    "wall_ref_s": [it["wall_ref_s"] for it in good],
                    "wall_raw_s": [it["wall_s"] for it in good],
                    "items": len(items)},
        "failures": [f for it in everything for f in it.get("failures", [])],
        "errors": [e for it in everything for e in it.get("errors", [])] + crashed,
        "layer_map": {name: moves for name, _, _, moves in metrics.PER_LAYER},
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed}: items={len(items)} "
          f"wall_ref_s={end_to_end['wall_ref_s']:.3f} setup_s={end_to_end['setup_s']:.3f} "
          f"failed={failed}/{attempted}; record in {path.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
