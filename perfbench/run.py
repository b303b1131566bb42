"""specmatch benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload {scan8,probe,lemmas,oracles} \
        --seed N --seconds S --trace {0,1}

--trace 0 runs the workload untraced for S seconds of library time and
reports the end-to-end metrics. --trace 1 runs the workload untraced for S/2
seconds, then the same rounds again traced, and reports the per-layer metrics, including the
tracing overhead. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines above it give every
metric by name and unit, the verdict problems if any, and the provenance.

The library is imported from src/ of the checkout this file sits in; the run
exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# tracer and workloads are imported inside functions: they pull in modules
# that `import specmatch` would load, which setup_s must time in the child

WORKLOAD_NAMES = ("scan8", "probe", "lemmas", "oracles")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "specmatch"
SETUP_SAMPLES = 9
# order and unit of the reported metrics; BENCHMARK.json lists the same
END_TO_END = (("units_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_FUNCTIONS = (
    "graphs.components",
    "graphs.odd_components",
    "graphs.isolated_count",
    "graphs.is_connected",
    "graphs.is_k_connected",
    "graphs.matches_clique_join",
    "matching.max_matching",
    "matching.has_fractional_pm",
    "matching.tutte_deficiency_bruteforce",
    "matching.has_pm_bruteforce",
    "matching.has_fractional_pm_exhaustive",
    "spectra.distance_matrix",
    "spectra.distance_spectral_radius",
    "spectra.wiener_index",
    "quotient.family_quartic_root",
    "quotient.largest_root",
    "quotient.char_poly",
    "harness.pm_threshold_scan",
    "harness.probe_extremal_bound",
    "harness.lemma_suites",
)


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import DM_BANDS, LAYERS

    spec = []
    for fn in LAYER_FUNCTIONS:
        spec += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s"), (f"{fn}.us_per_call", "us")]
    spec += [(f"spectra.distance_matrix.{label}.us_per_call", "us") for _, label in DM_BANDS]
    spec += [
        ("spectra.distance_matrix.per_graph", "calls/graph"),
        ("spectra.distance_spectral_radius.iterations", "count"),
        ("harness.scan.eigensolve_ratio", "ratio"),
        ("harness.probe.accept_ratio", "ratio"),
    ]
    spec += [(f"{layer}.self_share", "share") for layer in LAYERS]
    spec += [
        ("bench.self_share", "share"),
        ("trace.untraced_units_per_s", "1/s"),
        ("trace.traced_units_per_s", "1/s"),
        ("trace.overhead", "ratio"),
        ("latency.graph_p50_ms", "ms"),
        ("latency.graph_tail_ms", "ms"),
        ("latency.graph_tail_pct", "pct"),
        ("latency.graph_samples", "count"),
    ]
    return spec


def run_window(workload, seconds: float = float("inf"), rounds: int | None = None):
    """Run rounds until their timed library calls add up to `seconds`, or
    exactly `rounds` rounds when that is given."""
    from workloads import Round

    window, spent = [], 0.0
    for inputs in itertools.islice(workload.rounds(), rounds):
        t0 = time.perf_counter()
        try:
            result = workload.run_round(inputs)
        except Exception as exc:  # a raising round counts as failed, the run goes on
            result = Round(1, 1, time.perf_counter() - t0, ("raised",), [f"{inputs!r}: {exc!r}"])
        window.append(result)
        spent += result.seconds
        if spent >= seconds:
            break
    return window


def rate(window) -> float:
    """Median over rounds of units per second: robust to the bursts of
    contention a shared machine adds to some rounds."""
    return statistics.median(r.units / r.seconds for r in window)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def setup_seconds(args) -> list[float]:
    """Fresh-process `import specmatch` plus the workload's warm-up pass."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-child",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def provenance(args, sm) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = out.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "specmatch": sm.__version__,
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def import_specmatch():
    sys.path.insert(0, str(SRC))
    import specmatch

    if Path(specmatch.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported specmatch from {specmatch.__file__}, not {PACKAGE}")
    return specmatch


def end_to_end(args, workload):
    window = run_window(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = workload.extra_checks(window)
    setup = setup_seconds(args)
    metrics = {
        "units_per_s": rate(window),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "units_per_s": f"{workload.unit} per second over {len(window)} rounds",
        "setup_s": f"median of {len(setup)} fresh processes: "
        + ", ".join(f"{s:.3f}" for s in setup),
    }
    return window, problems, metrics, notes


def layered(args, workload):
    from tracer import DM_BANDS, LAYERS, Tracer, wrapped_bindings

    # half the window untraced, then the same rounds traced: the run measures
    # about as long as an untraced one, and the overhead compares like rounds
    plain = run_window(workload, args.seconds / 2)
    problems = workload.extra_checks(plain)
    t0 = time.perf_counter()
    with Tracer() as tracer:
        traced = run_window(workload, rounds=len(plain))
    wall = time.perf_counter() - t0
    leftover = wrapped_bindings()
    if leftover:
        problems.append(f"tracer wrappers left installed: {leftover}")
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.fingerprint != b.fingerprint:
            problems.append(f"round {i} differs when traced: {a.fingerprint} vs {b.fingerprint}")

    metrics = {}
    for fn in LAYER_FUNCTIONS:
        calls, inclusive, self_s = tracer.stats.get(fn, (0, 0.0, 0.0))
        metrics[f"{fn}.calls"] = calls
        metrics[f"{fn}.self_s"] = self_s
        metrics[f"{fn}.us_per_call"] = 1e6 * inclusive / calls if calls else 0.0
    for _, label in DM_BANDS:
        calls, seconds = tracer.dm_bands[label]
        metrics[f"spectra.distance_matrix.{label}.us_per_call"] = (
            1e6 * seconds / calls if calls else 0.0
        )
    dm_calls = tracer.calls("spectra.distance_matrix")
    metrics["spectra.distance_matrix.per_graph"] = (
        dm_calls / len(tracer.dm_graphs) if dm_calls else 0.0
    )
    metrics["spectra.distance_spectral_radius.iterations"] = tracer.dsr_iterations
    units = sum(r.units for r in traced)
    eigensolves = sum(r.counters.get("eigensolves", 0) for r in traced)
    metrics["harness.scan.eigensolve_ratio"] = eigensolves / units if eigensolves else 0.0
    attempts = sum(r.counters.get("attempts", 0) for r in traced)
    metrics["harness.probe.accept_ratio"] = units / attempts if attempts else 0.0
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / wall
    metrics["bench.self_share"] = 1.0 - sum(layer_self.values()) / wall
    metrics["trace.untraced_units_per_s"] = rate(plain)
    metrics["trace.traced_units_per_s"] = rate(traced)
    metrics["trace.overhead"] = rate(plain) / rate(traced)
    latencies = [ms * 1e3 for r in plain for ms in r.latencies]
    if latencies:
        tail_ms, tail_pct = tail(latencies)
        metrics["latency.graph_p50_ms"] = statistics.median(latencies)
        metrics["latency.graph_tail_ms"] = tail_ms
        metrics["latency.graph_tail_pct"] = tail_pct
    else:
        metrics["latency.graph_p50_ms"] = 0.0
        metrics["latency.graph_tail_ms"] = 0.0
        metrics["latency.graph_tail_pct"] = 0.0
    metrics["latency.graph_samples"] = len(latencies)
    notes = {
        "trace.overhead": f"untraced / traced {workload.unit} per second",
        "latency.graph_tail_ms": "per-graph latency, oracles only (0 elsewhere)",
    }
    return plain + traced, problems, metrics, notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # pin numpy's BLAS pool before specmatch imports numpy; children inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no specmatch source tree at {PACKAGE}", file=sys.stderr)
        return 2
    if args.setup_child:
        t0 = time.perf_counter()
        import_specmatch()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).warmup()
        print(time.perf_counter() - t0)
        return 0

    sm = import_specmatch()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    if args.trace:
        rounds, problems, metrics, notes = layered(args, workload)
        spec = per_layer_spec()
    else:
        rounds, problems, metrics, notes = end_to_end(args, workload)
        spec = list(END_TO_END)
    problems = [p for r in rounds for p in r.problems] + problems
    attempted = sum(r.units for r in rounds)
    failed = sum(r.failed for r in rounds)

    print(f"workload {workload.name}: {len(rounds)} rounds timed; a unit is one of the {workload.unit}")
    for name, unit in spec:
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit:12s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':48s} {failed / attempted:>16.6g} {'ratio':12s} {failed}/{attempted}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("provenance " + json.dumps(provenance(args, sm)))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
