"""Tests of the benchmark itself: tracer bindings, traced counts, report shape.

Run with the rest of the suite, or alone:
    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sm = run.import_specmatch()

import tracer  # noqa: E402
import workloads  # noqa: E402


def _layer_functions():
    """(qualified name, original function) for every public layer function."""
    out = []
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"specmatch.{layer}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((f"{layer}.{name}", obj))
    return out


def _bindings(fn):
    return [
        (namespace, key)
        for namespace in tracer.package_namespaces()
        for key, value in namespace.items()
        if value is fn
    ]


def test_tracer_patches_every_binding_and_restores_them():
    originals = _layer_functions()
    before = {name: _bindings(fn) for name, fn in originals}
    # names imported into other modules must be covered, not just the home module
    assert (vars(sm.harness), "distance_spectral_radius") in [
        (ns, key) for ns, key in before["spectra.distance_spectral_radius"]
    ]
    assert any(key == "odd_components" and ns is vars(sm.matching)
               for ns, key in before["graphs.odd_components"])

    with tracer.Tracer():
        for name, fn in originals:
            for namespace, key in before[name]:
                wrapped = namespace[key]
                assert wrapped is not fn, f"{namespace['__name__']}.{key} left unwrapped"
                assert wrapped.__traced__ is fn
        assert sm.harness.distance_spectral_radius is sm.spectra.distance_spectral_radius

    assert tracer.wrapped_bindings() == []
    for name, fn in originals:
        for namespace, key in before[name]:
            assert namespace[key] is fn


def test_traced_counts_equal_suite_counts():
    with tracer.Tracer() as t:
        scans = [sm.pm_threshold_scan(8, chunk=(c, 4096)) for c in (1, 500)]
    eigensolves = sum(r.extras["eigensolves"] for r in scans)
    assert eigensolves > 0
    assert t.calls("spectra.distance_spectral_radius") == eigensolves
    assert t.calls("harness.pm_threshold_scan") == len(scans)

    with tracer.Tracer() as t:
        probe = sm.probe_extremal_bound(14, 1, 30, seed=0)
        rng = workloads.random.Random(0)
        graphs = [workloads._random_graph(rng, 9) for _ in range(5)]
        for g in graphs:
            sm.has_pm_bruteforce(g)
    assert t.calls("harness.check_probe_sample") == probe.cases
    assert t.calls("spectra.distance_spectral_radius") >= probe.cases
    assert t.calls("matching.has_pm_bruteforce") == len(graphs)
    for calls, inclusive, self_s in t.stats.values():
        assert -1e-9 <= self_s <= inclusive + 1e-9


def test_benchmark_json_matches_the_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_spec()


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_reports_every_layer_metric():
    out = _run(HERE.parent, "--workload", "oracles", "--seed", "1", "--seconds", "0.3",
               "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [name for name in result["metrics"]] == [name for name, _ in run.per_layer_spec()]
    shares = {layer: result["metrics"][f"{layer}.self_share"]["value"] for layer in tracer.LAYERS}
    assert max(shares, key=shares.get) == "graphs"


def test_run_without_source_tree_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
