"""Benchmark of the layerfdr package: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout.  With ``--trace 0``
the run measures the end-to-end metrics with no instrumentation; with
``--trace 1`` it wraps the calls into each layer, reports the per-layer
metrics, and then re-runs the first units untraced and traced to state the
tracing overhead.  Each metric is printed by name and unit, followed by the
platform and provenance block; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  A copy of
the full result, and in traced runs the spans, is written to
``perfbench/out/``.  See ``perfbench/README.md`` for what each metric
means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep-grid", "stream-cli")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# the package's modules that serve users; oracle only backs the acceptance tests
LAYERS = ("simgen", "core", "procedures", "harness", "metrics", "cli")
STATE_LAYERS = 2  # no workload runs more than two layers


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the layerfdr package.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds from ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """SHA-256 over the package sources, naming the program when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "layerfdr").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workloads) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workloads.input_sizes(args.workload, args.seed),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(m, setup_s: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "reps_per_s": (m.reps_per_s, "replicates/s"),
        "events_per_s": (m.events_per_s, "events/s"),
        "latency_p50_us": (m.latency_p50_us, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(workloads, tracer, m, overhead_ratio: float) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    import numpy as np

    def p50(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    wall = m.timed_s
    layer_s = tracer.layer_self_s()
    shares = {layer: layer_s.get(layer, 0.0) / wall for layer in LAYERS}
    counts = tracer.counts
    steps = counts.get("steps", 0)
    out = {
        "simgen.make_stream.us_p50": (p50(tracer.durations_us("simgen.make_stream")), "us"),
        "harness.build_events.us_p50": (p50(tracer.durations_us("harness.build_events")), "us"),
        "harness.emit_results.ms": (p50(tracer.durations_us("harness.emit_results")) / 1e3, "ms"),
        "procedures.make_procedure.us_p50": (
            p50(tracer.durations_us("procedures.make_procedure")),
            "us",
        ),
    }
    for method in workloads.METHODS:
        out[f"procedures.replay.us_p50.{method}"] = (
            p50(tracer.durations_us(f"procedures.replay.{method}")),
            "us",
        )
    step_us = tracer.durations_us("procedures.step")
    out.update(
        {
            "procedures.step.us_p50": (p50(step_us), "us"),
            "procedures.step.share": (float(step_us.sum()) / 1e6 / wall, "ratio"),
            "core.event.us_p50": (p50(tracer.durations_us("core.event")), "us"),
            "metrics.tally.us_p50": (
                p50(tracer.per_parent_us("metrics.tally", "harness.run_replicate")),
                "us",
            ),
            "metrics.aggregate.ms_p50": (
                p50(tracer.durations_us("metrics.aggregate")) / 1e3,
                "ms",
            ),
            "cli.stream.self_us_p50": (p50(tracer.self_us("cli.event")), "us"),
        }
    )
    for layer in LAYERS:
        out[f"{layer}.share"] = (shares[layer], "ratio")
    out["unattributed.share"] = (1.0 - sum(shares.values()), "ratio")
    out["runtime.gc_pause_ms"] = (tracer.gc_pause_ns / 1e6, "ms")
    out["runtime.gc_collections"] = (tracer.gc_collections, "count")
    entries = 0
    for layer in range(STATE_LAYERS):
        for kind in ("seen_per_group", "rejected_groups"):
            size = counts.get(f"{kind}.layer{layer}", 0)
            entries += size
            out[f"procedures.state_entries.layer{layer}.{kind}"] = (size, "count")
    out["procedures.state_entries"] = (entries, "count")
    out.update(
        {
            "procedures.steps": (steps, "count"),
            "procedures.tested_ratio": (counts.get("tested_steps", 0) / max(steps, 1), "ratio"),
            "procedures.pending_layers_per_step": (
                counts.get("pending_layers", 0) / max(steps, 1),
                "layers",
            ),
            "procedures.halted_replicates": (counts.get("halted", 0), "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
    )
    return out


# ---------------------------------------------------------------------------


def run_workload(workloads, args, seconds: float, work_dir: Path, tracer=None):
    if args.workload == "sweep-grid":
        return workloads.sweep_grid(args.seed, seconds, work_dir, tracer)
    return workloads.stream_cli(args.seed, seconds, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "layerfdr" / "__init__.py").is_file():
        print(f"benchmark: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_s = [] if args.trace else measure_setup(args.workload, args.seed)

    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            tracer = Tracer()
            with tracer.gc_watch():
                m = run_workload(workloads, args, args.seconds, work_dir, tracer)
            # the overhead ratio compares the same leading units run untraced and
            # then traced again, back to back, so slow drift of the machine's speed
            # mostly cancels
            untraced = run_workload(workloads, args, args.seconds / 6, work_dir)
            retraced = run_workload(workloads, args, args.seconds / 6, work_dir, Tracer())
            k = min(untraced.units, retraced.units)
            overhead = sum(retraced.unit_s[:k]) / sum(untraced.unit_s[:k])
            metrics = per_layer_metrics(workloads, tracer, m, overhead)
            for extra in (untraced, retraced):
                m.attempted += extra.attempted
                m.failed += extra.failed
                m.problems += extra.problems
            tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        else:
            m = run_workload(workloads, args, args.seconds, work_dir)
            metrics = end_to_end_metrics(m, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    error_ratio = m.failed / max(m.attempted, 1)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'error_ratio':<48} {error_ratio:>16.6g} failed/attempted")
    samples = {
        "units": m.units,
        "unit_s": m.unit_s,
        "timed_s": m.timed_s,
        "latency_samples": m.latency_samples,
    }
    if setup_s:
        samples["setup_probes_s"] = setup_s
    print("samples: " + json.dumps(samples))
    for problem in m.problems:
        print(f"check failed: {problem}")
    info = provenance(args, workloads)
    print("provenance: " + json.dumps(info))
    result = {
        "correct": m.failed == 0 and not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, error_ratio=error_ratio, samples=samples, provenance=info)
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
