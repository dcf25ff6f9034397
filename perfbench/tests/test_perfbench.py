"""Tests of the benchmark itself: tracing arithmetic, reference checks,
metric catalogue and the command's refusal to run without sources.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metrics
import run
import speed
import workloads
from tracing import ROOT, Tracer, summarize

REPO = Path(__file__).resolve().parents[2]
SMALL_ORACLE = {"z256": ["7/3", "1/1000"], "z768": [], "duplication_z": ["3/2"],
                "multiplication": [[3, "1/3"]]}


def ticking_tracer():
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


# -- tracing ---------------------------------------------------------------


def test_self_time_of_nested_spans_on_a_synthetic_trace():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["a", 11.0, 12.0, -1],
    ]
    got = summarize(spans)
    assert got["a"] == {"spans": 2, "self_s": 10.0 - 3.0 - 2.0 + 1.0}
    assert got["b"] == {"spans": 2, "self_s": (3.0 - 1.0) + 2.0}
    assert got["c"] == {"spans": 1, "self_s": 1.0}
    assert sum(v["self_s"] for v in got.values()) == 11.0


def test_tracer_records_nesting_and_primitive_counts_innermost():
    tracer = ticking_tracer()
    prim = tracer.count("mpf_mul", lambda: None)
    inner = tracer.wrap("layer.inner", lambda: prim())

    def outer_fn():
        prim()
        inner()
        return 42

    outer = tracer.wrap("layer.outer", outer_fn)
    tracer.active = True
    assert outer() == 42
    prim()
    tracer.active = False
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner"]
    assert tracer.spans[1][3] == 0
    assert dict(tracer.prims) == {("layer.outer", "mpf_mul"): 1,
                                  ("layer.inner", "mpf_mul"): 1,
                                  (ROOT, "mpf_mul"): 1}
    got = summarize(tracer.spans)
    assert got["layer.outer"]["self_s"] == 2.0   # 3 ticks minus the child's 1
    assert got["layer.inner"]["self_s"] == 1.0


def test_generator_spans_cover_next_only():
    tracer = ticking_tracer()

    def rows():
        yield 1
        yield ValueError("refused")

    wrapped = tracer.wrap("bounds.rows", rows)
    tracer.active = True
    items = []
    for item in wrapped():
        tracer.clock()          # consumer work between items: not charged
        items.append(item)
    tracer.active = False
    assert items[0] == 1 and isinstance(items[1], ValueError)
    assert tracer.calls["bounds.rows"] == 1
    assert tracer.items["bounds.rows"] == 2
    assert tracer.error_items["bounds.rows"] == 1
    assert summarize(tracer.spans)["bounds.rows"] == {"spans": 3, "self_s": 3.0}


def test_inactive_tracer_records_nothing():
    tracer = ticking_tracer()
    assert tracer.wrap("x.f", lambda v: v + 1)(1) == 2
    assert list(tracer.wrap("x.g", lambda: (yield 5))()) == [5]
    assert tracer.spans == [] and not tracer.calls


def test_rescale_expresses_time_at_the_reference_speed():
    ref = speed.KERNEL_REF_S
    assert speed.rescale(10.0, [ref, ref]) == 10.0
    # half the interval at half speed: 3/4 of the work of a full-speed interval
    assert speed.rescale(8.0, [ref, 2 * ref]) == 6.0


def test_sampler_samples_during_the_interval_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
    assert 3 <= len(sampler.samples) <= 7
    assert sampler.busy_s == pytest.approx(sum(sampler.samples), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- reference checks ----------------------------------------------------------


def test_perturbed_oracle_value_counts_as_failed():
    from stirling import PrecisionCtx, lngamma_binet2
    z = Fraction(7, 3)
    ov = lngamma_binet2(z, PrecisionCtx(256))
    ok, slack = workloads.oracle_value_ok(z, 256, ov)
    assert ok and 0 < slack < 16
    bad = dataclasses.replace(ov, value=ov.value + ov.error_bound * 2)
    assert not workloads.oracle_value_ok(z, 256, bad)[0]

    out = workloads.Outcome()
    out.outputs.update(values=[(256, z, ov), (256, z, bad), (256, z, None)], residuals=[])
    workloads.check_oracle_sweep(out, {})
    assert (out.attempted, out.failed) == (3, 2)


def test_perturbed_bernoulli_entry_counts_as_failed():
    from stirling import bernoulli, series_coeff_a
    assert workloads.bernoulli_ok(40, bernoulli(40))
    assert not workloads.bernoulli_ok(40, bernoulli(40) + Fraction(1, 10**40))
    assert workloads.series_coeff_ok(40, series_coeff_a(40))
    assert not workloads.series_coeff_ok(40, series_coeff_a(40) * (1 + Fraction(1, 10**9)))


def test_marsaglia_reference_catches_a_perturbed_coefficient():
    from stirling import marsaglia_coeffs
    coeffs = list(marsaglia_coeffs(workloads.MARSAGLIA_K).coeffs)
    assert workloads.marsaglia_ok(coeffs)
    for k in (2, 7):
        bad = coeffs.copy()
        bad[k] += Fraction(1, 10**12)
        assert not workloads.marsaglia_ok(bad)


def test_report_check_flags_status_changes():
    expected = json.loads(workloads.REPORT_EXPECTED.read_text())
    checks = [dict(c) for c in expected["checks"]]
    checks[3]["status"] = "inconclusive"
    out = workloads.Outcome()
    out.outputs.update(exit_code=0, stdout=json.dumps({"checks": checks}))
    workloads.check_report(out, {})
    assert out.attempted == len(checks) + 1
    assert (out.failed, out.inconclusive) == (1, 1)
    assert out.outputs["digest_changed"] == 1


# -- inputs --------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    a, b = (workloads.make_inputs("oracle_sweep", s) for s in (3, 4))
    assert a != b
    zs = [Fraction(t) for t in a["z256"] + a["z768"]]
    assert len(set(zs)) == len(zs) == 64
    assert all(Fraction(1, 1000) <= z <= 10**6 for z in zs)
    e = workloads.make_inputs("exact_sweep", 3)
    assert all(Fraction(1, 2) <= Fraction(t) <= 60 for t in e["truncation_z"])


# -- worker and catalogue ---------------------------------------------------------


def test_traced_worker_names_every_per_layer_metric_and_counts_repeat():
    spec = {"workload": "oracle_sweep", "inputs": SMALL_ORACLE}
    untraced = run.run_worker(spec)
    traced = [run.run_worker({**spec, "trace": True}) for _ in range(2)]
    for item in [untraced] + traced:
        assert "crashed" not in item, item
        assert item["failed"] == 0 and item["attempted"] == 4
    names = (set(traced[0]["layers"])
             | set(metrics.untraced_values([untraced], [untraced], 4, 0))
             | {"trace.overhead_ratio"})
    assert names == {m[0] for m in metrics.PER_LAYER}
    counts = [{k: v for k, v in t["layers"].items()
               if k.endswith((".calls", ".mpf_atan", ".mpf_div", ".mpf_mul"))} for t in traced]
    assert counts[0] == counts[1]
    layers = traced[0]["layers"]
    assert layers["oracle.lngamma_binet2.calls"] == 2 + 3 + 4
    # check_multiplication(3, 1/3) asks for ln Gamma(1) twice
    assert layers["oracle.lngamma_binet2.distinct_ratio"] == 8 / 9
    assert layers["oracle.atan_per_eval"] > 1000
    assert layers["quadrature.nodes_built"] > 0


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seed", "1", "--seconds", "1"],
                                  ["--workload", "report", "--seed", "x", "--seconds", "1"]])
def test_command_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit) as exc:
        run.main(argv)
    assert exc.value.code != 0
