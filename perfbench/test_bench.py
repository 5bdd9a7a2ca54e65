"""Smoke-sized self-test of the benchmark.

Run from the repository root with ``python3 -m pytest -q perfbench/test_bench.py``
(about two minutes on two cores).  It checks that every metric named in
``BENCHMARK.json`` is emitted with its unit by the shortest run the
benchmark allows, and that each workload's correctness gate fails when the
program's output is corrupted.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from layerfdr import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_no_result_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_sweep_gate_fails_on_a_corrupted_csv(monkeypatch, tmp_path):
    real_emit = workloads.emit_results

    def corrupt_emit(rows, out_dir):
        paths = real_emit(rows, out_dir)
        text = paths[0].read_text()
        paths[0].write_text(text.replace("0", "1", 1))
        return paths

    monkeypatch.setattr(workloads, "emit_results", corrupt_emit)
    m = workloads.sweep_grid(seed=5, seconds=0.001, work_dir=tmp_path)
    assert m.units == 1 and m.failed == m.attempted > 0


def _flip_decision_at(make, t_flip):
    def make_flipping(*args, **kwargs):
        procedure = make(*args, **kwargs)
        step = procedure.step

        def flipped(event):
            record = step(event)
            if record.t == t_flip:
                return dataclasses.replace(record, rejected=not record.rejected)
            return record

        procedure.step = flipped
        return procedure

    return make_flipping


def test_stream_gate_fails_on_a_flipped_decision(monkeypatch):
    monkeypatch.setattr(cli, "make_procedure", _flip_decision_at(cli.make_procedure, 4321))
    m = workloads.stream_cli(seed=3, seconds=0.001)
    assert m.units == 1 and m.failed == m.attempted > 0
    assert "line 4321" in m.problems[0]


def test_stream_gate_fails_on_an_error_reply():
    pvalues, groups, lines = workloads.stream_inputs(4)
    pvalues, groups, lines = pvalues[:500], groups[:500], lines[:500]
    client = workloads.ClosedLoopClient(lines)
    args = cli.build_parser().parse_args(workloads.STREAM_ARGV)
    assert cli.cmd_stream(args, client.source(), client) == 0
    assert workloads.check_stream_replies(client.replies, pvalues, groups) == []
    client.replies[17] = json.dumps({"line": 18, "error": "malformed record"})
    assert workloads.check_stream_replies(client.replies, pvalues, groups)
