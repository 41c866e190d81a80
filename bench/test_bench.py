"""Self-tests of the benchmark: wrapping, restoring, span accounting, counts.

    python3 -m pytest -q bench/test_bench.py

They run the real studies (about a minute on two cores, most of it the
count-repeat test), so they live beside the benchmark rather than in the
tier-1 suite.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

REPEATED_COUNTS = (
    "stokes.apply.calls",
    "stokes.build.calls",
    "marching.picard_iters",
    "transport.continuity_step.calls",
)


def _attributes():
    return {(id(t.namespace), t.attr): t.current() for t in layers.targets()}


def _assert_originals(before):
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def _runner(name, tmp_path):
    return harness.Runner(workloads.prepare(name, tmp_path, workloads.DEFAULT_SEED), 0, tmp_path)


def test_untraced_round_leaves_every_attribute_original(tmp_path):
    before = _attributes()
    runner = _runner("sweep1d", tmp_path)
    runner.round(0)
    assert runner.failures == []
    _assert_originals(before)


def test_traced_round_restores_originals_and_keeps_self_within_span(tmp_path):
    before = _attributes()
    runner = _runner("sweep1d", tmp_path)
    tracer = layers.Tracer()
    runner.round(0, tracer)
    assert runner.failures == []
    _assert_originals(before)
    assert tracer.layer("marching.march").calls == 7
    for key, stat in tracer.stats.items():
        assert -1e-9 <= stat.self_s <= stat.span_s + 1e-9, key


def test_self_time_excludes_wrapped_children():
    tracer = layers.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), layers.Target(None, "inner", "x.inner", "x"))

    def outer_fn():
        time.sleep(0.01)
        inner()

    outer = tracer._wrap(outer_fn, layers.Target(None, "outer", "x.outer", "x"))
    outer()
    o, i = tracer.layer("x.outer"), tracer.layer("x.inner")
    assert i.self_s == i.span_s
    assert o.self_s == pytest.approx(o.span_s - i.span_s, abs=1e-12)
    assert 0.0 < o.self_s < o.span_s
    assert tracer.covered_s() == pytest.approx(o.span_s, abs=1e-12)


def test_failed_invocation_is_recorded_and_the_round_carries_on(tmp_path):
    good = workloads.prepare("sweep1d", tmp_path, workloads.DEFAULT_SEED)
    bad = workloads.Workload(
        "sweep1d", (("sweep-delta", str(tmp_path / "missing.cfg")), good.round[0]), good.config
    )
    runner = harness.Runner(bad, 0, tmp_path)
    runner.round(0)
    assert runner.attempted == 2
    assert [f["class"] for f in runner.failures] == ["FileNotFoundError"]
    assert "round 0 sweep-delta" in runner.failures[0]["context"]


def test_derived_configs_repeat_no_key_and_use_absolute_snapshot_paths(tmp_path):
    from anisostokes.config import parse_config

    for name in ("canonical3d-32", "krylov2d"):
        wl = workloads.prepare(name, tmp_path, workloads.DEFAULT_SEED)
        entries = workloads.read_config(wl.config)  # raises on a repeated key
        cfg = parse_config(wl.config)
    assert cfg.tensor.kind == "varying"
    files = entries["viscosity.files"].split(";")
    assert len(files) == 16
    assert all(Path(chunk.partition(":")[2]).is_absolute() for chunk in files)
    assert workloads.read_config(tmp_path / "canonical3d-32.cfg")["grid.n"] == "32"


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in harness.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_specs()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly_on_the_default_seed(name, tmp_path):
    runner = _runner(name, tmp_path)
    seen = []
    for index in range(2):
        tracer = layers.Tracer()
        wall = runner.round(index, tracer)
        metrics = harness.layer_metrics(tracer, [wall], 0.0, 0.0)
        seen.append({key: metrics[key]["value"] for key in REPEATED_COUNTS})
    assert runner.failures == []
    assert seen[0] == seen[1]
