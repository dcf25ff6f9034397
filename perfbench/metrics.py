"""Metric catalogue and the functions that fill it.

``END_TO_END`` holds the metrics every workload reports from untraced
runs.  ``PER_LAYER`` holds what a ``--trace 1`` run reports, with the
end-to-end metric and workload each one is expected to move
(``moves``), so later changes can cite the names.  ``BENCHMARK.json``
mirrors both lists; a test keeps them equal.
"""

from __future__ import annotations

import statistics

from tracing import PRIMITIVES
from workloads import exact_value

# name, unit, better, bound (share of the parent's median).  Times are in
# reference seconds (speed.py).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

_WALL_ORACLE = "wall_ref_s on oracle_sweep (cold 768-bit tables); zero on exact_sweep"
_WALL_REPORT = "wall_ref_s on report (oracle reuse); ~1 distinct ratio on oracle_sweep"
_WALL_QUAD = "wall_ref_s on oracle_sweep and report (node pruning), slack held"
_WALL_EXACT = "wall_ref_s on exact_sweep (Bernoulli growth); little on report"
_WALL_SERIES = "wall_ref_s on exact_sweep and report"
_WALL_SWEEP = "wall_ref_s and inconclusive ratio on exact_sweep"
_WALL_EXP = "wall_ref_s on exact_sweep (bulk) and report (small)"
_WALL_ALL = "wall_ref_s on all three: shared-arithmetic trade-off"
_UNTRACED = "untraced oracle_sweep calls; zero elsewhere"

# name, unit, better, moves
PER_LAYER = (
    ("quadrature.ts_nodes.calls", "count", "lower", _WALL_ORACLE),
    ("quadrature.ts_nodes.self_s", "s", "lower", _WALL_ORACLE),
    ("quadrature.nodes_built", "count", "lower", _WALL_ORACLE),
    ("oracle.lngamma_binet2.calls", "count", "lower", _WALL_REPORT),
    ("oracle.lngamma_binet2.self_s", "s", "lower", _WALL_REPORT),
    ("oracle.lngamma_binet2.distinct_ratio", "ratio", "higher", _WALL_REPORT),
    ("oracle.lngamma_binet2.mpf_atan", "count", "lower", _WALL_QUAD),
    ("oracle.lngamma_binet2.mpf_div", "count", "lower", _WALL_QUAD),
    ("oracle.lngamma_binet2.mpf_mul", "count", "lower", _WALL_QUAD),
    ("oracle.atan_per_eval", "count", "lower", _WALL_QUAD),
    ("oracle.check_duplication.self_s", "s", "lower", "wall_ref_s on report and oracle_sweep"),
    ("oracle.check_multiplication.self_s", "s", "lower", "wall_ref_s on report and oracle_sweep"),
    ("oracle.ln_factorial_exact.self_s", "s", "lower", "wall_ref_s on report"),
    ("bernoulli.bernoulli.self_s", "s", "lower", _WALL_EXACT),
    ("bernoulli.series_coeff_a.self_s", "s", "lower", _WALL_EXACT),
    ("bernoulli.table_entries", "count", "lower", _WALL_EXACT),
    ("series.optimal_truncation.self_s", "s", "lower", _WALL_SERIES),
    ("series.f_term.self_s", "s", "lower", _WALL_SERIES),
    ("series.lngamma_stirling.self_s", "s", "lower", _WALL_SERIES),
    ("constants.c_sequence.self_s", "s", "lower", "wall_ref_s on exact_sweep"),
    ("constants.best_constant_estimate.self_s", "s", "lower", "wall_ref_s on exact_sweep"),
    ("bounds.bound_sweep.rows", "count", "higher", _WALL_SWEEP),
    ("bounds.bound_sweep.self_s", "s", "lower", _WALL_SWEEP),
    ("bounds.bound_sweep.rows_per_s", "1/s", "higher", _WALL_SWEEP),
    ("bounds.bound_sweep.inconclusive", "count", "lower", _WALL_SWEEP),
    ("bounds.impens_sandwich.calls", "count", "lower", "wall_ref_s on report"),
    ("bounds.impens_sandwich.self_s", "s", "lower", "wall_ref_s on report"),
    ("bounds.sequence_point.self_s", "s", "lower", "wall_ref_s on report"),
    ("expansions.mermin_partial_product.self_s", "s", "lower", _WALL_EXP),
    ("expansions.feller_constant.self_s", "s", "lower", _WALL_EXP),
    ("expansions.feller_residual_sweep.self_s", "s", "lower", _WALL_EXP),
    ("expansions.marsaglia_coeffs.self_s", "s", "lower", _WALL_EXP),
    ("expansions.namias_residual.self_s", "s", "lower", _WALL_EXP),
    ("mpcore.BigFloat.to_decimal.calls", "count", "lower", _WALL_ALL),
    ("mpcore.BigFloat.to_decimal.self_s", "s", "lower", _WALL_ALL),
    ("mpcore.rational_to_float.self_s", "s", "lower", _WALL_ALL),
    *((f"mpcore.libmp.{p}.calls", "count", "lower", _WALL_ALL) for p in PRIMITIVES),
    ("cli.run.self_s", "s", "lower", "wall_ref_s on report"),
    ("cli.report_all.self_s", "s", "lower", "wall_ref_s on report"),
    ("cli.stdout_bytes", "bytes", "lower", "none; report output size"),
    ("cli.stdout_digest_changed", "flag", "lower",
     "none; report bytes differ from the seed's (reported, not gated)"),
    ("trace.wall_s", "s", "lower", "none; traced timed section"),
    ("trace.spans", "count", "lower", "none; spans recorded"),
    ("trace.overhead_ratio", "ratio", "lower", "none; tracing cost"),
    ("e2e.wall_raw_s", "s", "lower", "raw wall time behind wall_ref_s"),
    ("e2e.setup_raw_s", "s", "lower", "raw set-up time behind setup_s"),
    ("e2e.kernel_ms", "ms", "lower", "none; host-speed kernel duration (speed.py)"),
    ("e2e.lngamma256_ms_p50", "ms", "lower", _UNTRACED),
    ("e2e.lngamma256_ms_p90", "ms", "lower", _UNTRACED),
    ("e2e.lngamma256_samples", "count", "higher", _UNTRACED),
    ("e2e.lngamma768_ms_p50", "ms", "lower", _UNTRACED),
    ("e2e.lngamma768_samples", "count", "higher", _UNTRACED),
    ("e2e.bound_slack_bits", "bits", "lower",
     "oracle_sweep: a speed-up must not loosen the certificate"),
    ("e2e.failed_ratio", "ratio", "lower", "all: failed over attempted checks"),
    ("e2e.inconclusive_ratio", "ratio", "lower",
     "report (checks) and exact_sweep (bound rows): refused over attempted verdicts"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


class Observers:
    """Records argument-dependent work counts while tracing."""

    def __init__(self):
        self.oracle_keys: set = set()
        self.node_tables: dict = {}

    def hooks(self) -> dict:
        return {"oracle.lngamma_binet2": self._oracle,
                "quadrature.ts_nodes": self._nodes}

    def _oracle(self, args, kwargs, result):
        ctx = args[1] if len(args) > 1 else kwargs["ctx"]
        self.oracle_keys.add((exact_value(args[0]), ctx.bits))

    def _nodes(self, args, kwargs, result):
        self.node_tables[tuple(args)] = len(result)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def traced_values(tracer, observers: Observers, table_entries: int,
                  outputs: dict) -> dict:
    """Per-layer values a traced worker can compute by itself."""
    from tracing import summarize
    summary = summarize(tracer.spans)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return tracer.calls.get(name, 0)

    def prim(span, p):
        return tracer.prims.get((span, p), 0)

    binet = "oracle.lngamma_binet2"
    sweep = "bounds.bound_sweep"
    values = {
        "quadrature.ts_nodes.calls": calls("quadrature.ts_nodes"),
        "quadrature.nodes_built": sum(observers.node_tables.values()),
        f"{binet}.calls": calls(binet),
        f"{binet}.distinct_ratio": _ratio(len(observers.oracle_keys), calls(binet)),
        "oracle.atan_per_eval": _ratio(prim(binet, "mpf_atan"), calls(binet)),
        "bernoulli.table_entries": table_entries,
        f"{sweep}.rows": tracer.items.get(sweep, 0),
        f"{sweep}.rows_per_s": _ratio(tracer.items.get(sweep, 0), self_s(sweep)),
        f"{sweep}.inconclusive": tracer.error_items.get(sweep, 0),
        "bounds.impens_sandwich.calls": calls("bounds.impens_sandwich"),
        "mpcore.BigFloat.to_decimal.calls": calls("mpcore.BigFloat.to_decimal"),
        "cli.stdout_bytes": outputs.get("stdout_bytes", 0),
        "cli.stdout_digest_changed": outputs.get("digest_changed", 0),
        "trace.spans": len(tracer.spans),
    }
    for p in ("mpf_atan", "mpf_div", "mpf_mul"):
        values[f"{binet}.{p}"] = prim(binet, p)
    for p in PRIMITIVES:
        values[f"mpcore.libmp.{p}.calls"] = sum(
            n for (_, q), n in tracer.prims.items() if q == p)
    for name, *_ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
    return values


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by ``statistics.quantiles``; 0 if empty."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


def untraced_values(items: list[dict], setup_items: list[dict], attempted: int,
                    failed: int) -> dict:
    """Per-layer entries that come from the untraced workers of a run."""
    lat = {bits: [s for it in items for s in it["latencies"].get(bits, [])]
           for bits in ("256", "768")}
    verdicts = sum(it["verdicts"] for it in items)
    slacks = [it["bound_slack_bits"] for it in items if it["bound_slack_bits"] is not None]
    return {
        "e2e.wall_raw_s": statistics.median(it["wall_s"] for it in items),
        "e2e.setup_raw_s": statistics.median(it["setup_raw_s"] for it in setup_items),
        "e2e.kernel_ms": 1e3 * statistics.median(k for it in items for k in it["kernel_s"]),
        "e2e.lngamma256_ms_p50": 1e3 * percentile(lat["256"], 50),
        "e2e.lngamma256_ms_p90": 1e3 * percentile(lat["256"], 90),
        "e2e.lngamma256_samples": len(lat["256"]),
        "e2e.lngamma768_ms_p50": 1e3 * percentile(lat["768"], 50),
        "e2e.lngamma768_samples": len(lat["768"]),
        "e2e.bound_slack_bits": max(slacks) if slacks else 0.0,
        "e2e.failed_ratio": _ratio(failed, attempted),
        "e2e.inconclusive_ratio": _ratio(sum(it["inconclusive"] for it in items), verdicts),
    }
