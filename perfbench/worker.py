"""One benchmark item in a fresh process.

Reads a JSON spec on stdin, imports ``stirling`` (the time from process
spawn to the end of that import is the set-up time), times the host-speed
kernel of ``speed.py`` five times, runs one workload body under
``time.perf_counter`` with cold library caches while the kernel is
sampled, reads the peak RSS, then checks the outputs against references
with tracing off.  Prints one JSON line on stdout.

With ``"setup_only"`` it stops after the import; with ``"trace"`` it
counts ``mpmath.libmp`` primitives (installed before ``stirling`` is
imported) and records spans around every public function of each layer.
The kernel's samples (about 1% of the time) then fall inside whichever
span is open; its own primitive calls are not counted.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.stdin.read())
    import speed    # binds the libmp primitives before tracing wraps them
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, install_primitive_counters
        tracer = Tracer()
        install_primitive_counters(tracer)
    import stirling
    t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)

    import resource
    import statistics
    from pathlib import Path

    setup_kernel = statistics.median(speed.kernel_s() for _ in range(5))

    src = Path(spec["src"]).resolve()
    if Path(stirling.__file__).resolve().parent.parent != src:
        print(f"stirling imported from {stirling.__file__}, not {src}", file=sys.stderr)
        return 2
    if spec.get("setup_only"):
        print(json.dumps({"t_imported": t_imported, "setup_kernel": setup_kernel}))
        return 0

    import metrics
    import workloads

    workload = spec["workload"]
    args = workloads.prepare(workload, spec["inputs"])
    out = workloads.Outcome()
    observers = metrics.Observers()
    if tracer is not None:
        from tracing import install_spans
        install_spans(tracer)
        tracer.observers = observers.hooks()
        tracer.active = True

    body = workloads.BODIES[workload]
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        body(args, out)
        out.wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    out.wall_s -= sampler.busy_s
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    workloads.CHECKS[workload](out, args)
    result = {
        "t_imported": t_imported,
        "setup_kernel": setup_kernel,
        "wall_s": out.wall_s,
        "rss_mib": rss_mib,
        "attempted": out.attempted,
        "failed": out.failed,
        "verdicts": out.verdicts,
        "inconclusive": out.inconclusive,
        "latencies": {str(b): v for b, v in out.latencies.items()},
        "bound_slack_bits": out.notes.get("bound_slack_bits"),
        "failures": out.notes.get("failures", [])[:20],
        "errors": out.errors[:20],
    }
    result["wall_ref_s"] = speed.rescale(out.wall_s, sampler.samples)
    result["kernel_s"] = sampler.samples
    if tracer is not None:
        from stirling.bernoulli import table
        result["layers"] = metrics.traced_values(
            tracer, observers, table().max_index + 1, out.outputs)
        result["layers"]["trace.wall_s"] = out.wall_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
