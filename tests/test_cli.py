import argparse
import io
import json
import os
import re
import select
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from layerfdr.cli import _sweep_spec, main, parse_config
from layerfdr.harness import SweepSpec
from layerfdr.procedures import METHODS
from layerfdr.simgen import PATTERNS, STRENGTHS, STRUCTURES, ScenarioSpec

BASE_CONFIG = """\
# baseline scenario
structure = block
pattern = fixed
strength = constant
G = 20
n = 10
s = 20
k = 100
beta = 2.0
alpha = 0.1
eta = 1.0
seed = 7
"""

SWEEP_EXTRAS = """\
methods = GAI,ml-GAI
beta_grid = 2.0,3.0
replicates = 3
master_seed = 5
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(BASE_CONFIG + SWEEP_EXTRAS)
    return path


def _config_text(value) -> str:
    """A spec value as a config line spells it: floats through repr, lists
    comma-joined."""
    if isinstance(value, tuple):
        return ",".join(map(_config_text, value))
    return value if isinstance(value, str) else repr(value)


@st.composite
def sweep_specs(draw):
    """A valid SweepSpec and the sweep keys its config writes; an unwritten
    key takes SweepSpec's default, and master_seed the scenario's seed."""
    structure = draw(st.sampled_from(STRUCTURES))
    G = draw(st.integers(2 if structure == "unbalanced" else 1, 10**4))
    n = draw(st.integers(1, 10**4))
    if structure == "unbalanced":
        N = draw(st.none() | st.integers(1, 10**6))
    else:
        N = draw(st.sampled_from([None, n * G]))
    percent = st.floats(0.0, 100.0)
    scenario = ScenarioSpec(
        structure=structure,
        pattern=draw(st.sampled_from(PATTERNS)),
        strength=draw(st.sampled_from(STRENGTHS)),
        G=G,
        n=n,
        N=N,
        s=draw(percent),
        k=draw(percent),
        beta=draw(st.floats(0.0, 1e300)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        eta=draw(st.floats(0.0, 1e300, exclude_min=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
        p1=draw(st.floats(0.0, 1.0)),
    )
    values = {
        "beta_grid": draw(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=5, unique=True)),
        "methods": draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True)),
        "replicates": draw(st.integers(1, 10**6)),
        "master_seed": draw(st.integers(-(2**70), 2**70)),
    }
    written = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    sweep = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in values.items()
        if key in written
    }
    sweep.setdefault("master_seed", scenario.seed)
    return SweepSpec(scenario, **sweep), written


class TestConfigParsing:
    def test_round_trip(self, base_cfg):
        entries = parse_config(base_cfg)
        assert entries["G"] == 20 and type(entries["G"]) is int
        assert entries["beta"] == 2.0 and type(entries["beta"]) is float
        assert entries["structure"] == "block"

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=sweep_specs())
    def test_every_field_round_trips(self, tmp_path, case):
        # each field of both specs is a key, written as a user would write it
        sweep, written = case
        lines = [
            f"{field.name} = {_config_text(getattr(sweep.scenario, field.name))}"
            for field in fields(ScenarioSpec)
            if getattr(sweep.scenario, field.name) is not None
        ]
        lines += [f"{key} = {_config_text(getattr(sweep, key))}" for key in written]
        path = tmp_path / "round.cfg"
        path.write_text("\n".join(lines) + "\n")
        entries = parse_config(path)
        assert set(entries) == {line.split(" = ")[0] for line in lines}
        args = argparse.Namespace(command="sweep", config=path, replicates=None, master_seed=None)
        assert _sweep_spec(args, entries) == sweep

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.1\nbogus = 3\n")
        from layerfdr.cli import ConfigError

        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus"):
            parse_config(path)

    def test_the_sweep_scenario_field_is_not_a_key(self, tmp_path):
        # the config's scenario keys are ScenarioSpec's own fields
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.1\nscenario = block\n")
        from layerfdr.cli import ConfigError

        with pytest.raises(ConfigError, match=r"bad\.cfg:2: unknown key 'scenario'"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha 0.1\n")
        from layerfdr.cli import ConfigError

        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.1\nalpha = 0.2\n")
        from layerfdr.cli import ConfigError

        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)


class TestSimulate:
    def test_prints_one_row_per_layer(self, base_cfg, capsys):
        code = main(
            [
                "simulate",
                "--config",
                str(base_cfg),
                "--method",
                "ml-LORD",
                "--beta",
                "2.0",
                "--replicates",
                "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("method,beta,layer")
        assert len(lines) == 3
        assert lines[1].startswith("ml-LORD,2,individual")
        assert lines[2].startswith("ml-LORD,2,group")

    def test_config_beta_grid_runs_unless_beta_is_set(self, tmp_path, capsys):
        path = tmp_path / "small.cfg"
        path.write_text("G = 4\nn = 5\nbeta_grid = 1,3\n")
        argv = ["simulate", "--config", str(path), "--method", "LORD", "--replicates", "2"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        # the rows sweep writes for the same method and grid, byte for byte
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--methods", "LORD",
                     "--replicates", "2"]) == 0
        capsys.readouterr()
        assert rows == (out / "results.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["1", "1", "3", "3"]
        assert main([*argv, "--beta", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["2", "2"]

    def test_empty_config_beta_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "small.cfg"
        path.write_text("G = 4\nn = 5\nbeta_grid = ,\n")
        assert main(["simulate", "--config", str(path), "--method", "LORD"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta grid must be nonempty" in captured.err

    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["simulate", "--config", str(missing), "--method", "GAI"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--beta", "nan"), ("--beta", "inf"), ("--eta", "nan"), ("--eta", "inf")]
    )
    def test_non_finite_override_exits_2_before_any_work(self, base_cfg, capsys, flag, value):
        argv = ["simulate", "--config", str(base_cfg), "--method", "ml-LORD", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[2:]} must be" in captured.err

    def test_unknown_method_exits_2(self, base_cfg, capsys):
        code = main(["simulate", "--config", str(base_cfg), "--method", "BH"])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("replicates = abc", ["--replicates", "3"], "'replicates' must be an integer"),
            ("master_seed = x", ["--seed", "3"], "'master_seed' must be an integer"),
            ("beta_grid = 1,x", [], "beta_grid must be comma-separated numbers"),
        ],
    )
    def test_bad_config_value_exits_2_whatever_the_flags(
        self, tmp_path, capsys, line, flags, message
    ):
        path = tmp_path / "small.cfg"
        path.write_text(f"G = 4\nn = 5\n{line}\n")
        assert main(["simulate", "--config", str(path), "--method", "LORD", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:3: {message}" in captured.err

    def test_method_required_without_unique_config_entry(self, base_cfg, capsys):
        code = main(["simulate", "--config", str(base_cfg)])
        assert code == 2

    def test_repeat_runs_are_identical(self, base_cfg, capsys):
        argv = [
            "simulate",
            "--config",
            str(base_cfg),
            "--method",
            "ml-LOND",
            "--replicates",
            "1",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_rows_equal_the_sweep_cell(self, sweep_cfg, tmp_path, capsys):
        # both commands take the master seed from master_seed, not from seed,
        # and both sort a grid given out of order by beta
        unsorted_cfg = tmp_path / "unsorted.cfg"
        unsorted_cfg.write_text(BASE_CONFIG + SWEEP_EXTRAS.replace("2.0,3.0", "3,1"))
        for config, flags, prefix, rows in (
            (sweep_cfg, ["--beta", "2.0"], "GAI,2,", 2),
            (unsorted_cfg, [], "GAI,", 4),
        ):
            out = tmp_path / config.stem
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
            cell = [
                line
                for line in (out / "results.csv").read_text().splitlines()
                if line.startswith(prefix)
            ]
            capsys.readouterr()
            assert main(["simulate", "--config", str(config), "--method", "GAI", *flags]) == 0
            assert capsys.readouterr().out.splitlines()[1:] == cell
            assert len(cell) == rows


class TestSweep:
    def test_emits_panels(self, sweep_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert "results.csv" in names
        assert sum(name.startswith("panel_") for name in names) == 6

    def test_method_filter(self, sweep_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--config",
                str(sweep_cfg),
                "--out",
                str(out),
                "--methods",
                "GAI",
            ]
        )
        assert code == 0
        header = (out / "panel_power_group.csv").read_text().splitlines()[0]
        assert header == "beta,GAI"
        results = (out / "results.csv").read_text()
        assert "ml-GAI" not in results

    def test_blank_padded_method_list_writes_the_same_files(self, sweep_cfg, tmp_path):
        plain, padded = tmp_path / "plain", tmp_path / "padded"
        for out, methods in ((plain, "GAI"), (padded, " GAI , ,")):
            argv = ["sweep", "--config", str(sweep_cfg), "--out", str(out), "--methods", methods]
            assert main(argv) == 0
        names = sorted(path.name for path in plain.iterdir())
        assert names == sorted(path.name for path in padded.iterdir())
        for name in names:
            assert (padded / name).read_bytes() == (plain / name).read_bytes()

    def test_rerun_identical_bytes(self, sweep_cfg, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["sweep", "--config", str(sweep_cfg), "--out", str(out_a)])
        main(["sweep", "--config", str(sweep_cfg), "--out", str(out_b)])
        for path in sorted(out_a.iterdir()):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_unknown_method_exits_2(self, sweep_cfg, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                str(sweep_cfg),
                "--out",
                str(tmp_path / "x"),
                "--methods",
                "GAI,BH",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1.0,-1.0", "beta must be non-negative"),
            ("1,1.0", "duplicate beta values"),
            ("nan", "beta must be non-negative and finite"),
            ("1.0,inf", "beta must be non-negative and finite"),
            (",", "beta grid must be nonempty"),
        ],
    )
    def test_bad_beta_grid_exits_2_before_any_work(self, tmp_path, capsys, grid, message):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG + SWEEP_EXTRAS.replace("2.0,3.0", grid))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_betas_that_print_alike_exit_2(tmp_path, capsys, command):
    path = tmp_path / "sweep.cfg"
    path.write_text(BASE_CONFIG + SWEEP_EXTRAS.replace("2.0,3.0", "1,1.0000001"))
    out = tmp_path / "out"
    argv = [command, "--config", str(path)]
    argv += ["--method", "LORD"] if command == "simulate" else ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command}: duplicate beta values: two print as 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_group_count_beyond_int64_exits_2(tmp_path, capsys, command):
    # such a walk would draw integers(1, G) beyond numpy's int64 range, and
    # at G = 2**70 the draw never accepted, hanging the command
    config = BASE_CONFIG.replace("structure = block", "structure = unbalanced")
    path = tmp_path / "huge.cfg"
    path.write_text(config.replace("G = 20", f"G = {2**70}") + "N = 8\n" + SWEEP_EXTRAS)
    out = tmp_path / "out"
    argv = [command, "--config", str(path)]
    argv += ["--method", "LORD"] if command == "simulate" else ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "G must be at most 2**63 - 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("unreadable", ["directory", "not utf-8"])
def test_unreadable_config_exits_2_and_names_the_path(tmp_path, capsys, command, unreadable):
    path = tmp_path / "config"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + BASE_CONFIG.encode())
    argv = [command, "--config", str(path)]
    argv += ["--method", "LORD"] if command == "simulate" else ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: cannot read config file" in captured.err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unbalanced_config_with_one_group_exits_2(tmp_path, capsys, command):
    path = tmp_path / "one.cfg"
    path.write_text("structure = unbalanced\nG = 1\nn = 5\nreplicates = 2\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(path)]
    argv += ["--method", "LORD"] if command == "simulate" else ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unbalanced structure requires at least two groups" in captured.err
    assert not out.exists()


def run_stream(argv, lines):
    from layerfdr.cli import build_parser, cmd_stream

    args = build_parser().parse_args(["stream"] + argv)
    source = io.StringIO("\n".join(lines) + "\n")
    sink = io.StringIO()
    code = cmd_stream(args, source=source, sink=sink)
    return code, [json.loads(line) for line in sink.getvalue().splitlines()]


class TestStream:
    def test_first_small_pvalue_is_rejected(self):
        code, out = run_stream(
            ["--method", "ml-LOND", "--layers", "1", "--alpha", "0.1"],
            ['{"p": 0.001, "groups": [5]}'],
        )
        assert code == 0
        assert out[0]["t"] == 1
        assert out[0]["reject"] is True
        assert out[0]["tested_layers"] == [0]
        assert out[0]["thresholds"][0] == pytest.approx(0.0607927, abs=1e-7)
        assert out[0]["halted"] is False

    def test_unit_pvalue_never_rejects(self):
        code, out = run_stream(
            ["--method", "ml-LOND", "--layers", "1"],
            ['{"p": 1.0, "groups": [5]}'] * 3,
        )
        assert all(record["reject"] is False for record in out)

    def test_wrong_group_count_reports_expected_layers(self):
        code, out = run_stream(
            ["--method", "ml-LOND", "--layers", "2"],
            ['{"p": 0.5, "groups": [1]}', '{"p": 0.5, "groups": [1, 2]}'],
        )
        assert out[0]["line"] == 1
        assert "expected 2" in out[0]["error"]
        assert out[1]["t"] == 1  # invalid lines do not advance the clock

    def test_non_utf8_line_keeps_streaming(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'\xff\xfe{"p": 0.5}\n{"p": 0.5, "groups": [1]}\n')
        argv = ["stream", "--method", "ml-LORD", "--layers", "1", "--input", str(path)]
        assert main(argv) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out[0]["line"] == 1 and "UTF-8" in out[0]["error"]
        assert out[1]["t"] == 1

    def test_malformed_line_keeps_streaming(self):
        code, out = run_stream(
            ["--method", "ml-LORD", "--layers", "1"],
            ["{not json", '{"p": 0.5, "groups": [1]}'],
        )
        assert code == 0
        assert "error" in out[0] and out[0]["line"] == 1
        assert out[1]["t"] == 1

    def test_out_of_range_pvalue(self):
        code, out = run_stream(
            ["--method", "ml-LOND", "--layers", "1"],
            ['{"p": 1.5, "groups": [1]}'],
        )
        assert "outside" in out[0]["error"]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"p": 1%s, "groups": [1]}' % ("0" * 400), "too large"),
            ('{"p": -0.5, "groups": [1]}', "outside"),
            ('{"p": 1e400, "groups": [1]}', "outside"),
            ('{"p": NaN, "groups": [1]}', "outside"),
            ('{"p": true, "groups": [1]}', "must be a number"),
            ('{"p": 0.5, "groups": [-1]}', "non-negative"),
            ('{"p": 0.5, "groups": [1.0]}', "array of integers"),
            ('{"p": 0.5, "groups": [1, 2]}', "expected 1"),
            # past the int digit limit and the recursion limit json raises
            # ValueError and RecursionError, not JSONDecodeError
            pytest.param(
                '{"p": 1%s, "groups": [1]}' % ("0" * 4300),
                "malformed record: Exceeds",
                id="p-past-the-digit-limit",
            ),
            pytest.param(
                '{"p": 0.5, "groups": [1%s]}' % ("0" * 4300),
                "malformed record: Exceeds",
                id="group-past-the-digit-limit",
            ),
            pytest.param(
                '{"p": %s, "groups": [1]}' % ("[" * 100_000),
                "malformed record: maximum recursion depth",
                id="p-nested-too-deep",
            ),
            pytest.param(
                '{"p": 0.5, "groups": %s}' % ("[" * 100_000),
                "malformed record: maximum recursion depth",
                id="groups-nested-too-deep",
            ),
        ],
    )
    def test_rejected_line_answers_an_error_and_keeps_the_clock(self, line, message):
        code, out = run_stream(
            ["--method", "ml-LORD", "--layers", "1"], [line, '{"p": 0.5, "groups": [1]}']
        )
        assert code == 0
        assert out[0]["line"] == 1 and message in out[0]["error"]
        assert out[1]["t"] == 1

    @pytest.mark.parametrize(
        "line",
        [
            ' {"p": 0.004, "groups": [1]}\n',
            '\t{"p": 0.004, "groups": [1]}\n',
            '{"p": 0.004, "groups": [1]}\r\n',
            '{"p": 0.004, "groups": [1]}\x0c\n',
            '{"p": 0.004, "groups": [1]}\xa0\n',
            '\ufeff{"p": 0.004, "groups": [1]}\n',
            '{"p": 0.004, "groups": [1]} {"p": 0.5, "groups": [2]}\n',
            '{"p": NaN, "groups": [1]}\n',
            '{"p": Infinity, "groups": [1]}\n',
            '{"p": 0.5, "p": 0.004, "groups": [1]}\n',
        ],
    )
    def test_a_line_is_answered_as_json_loads_reads_it(self, line):
        from layerfdr.cli import build_parser, cmd_stream

        args = build_parser().parse_args(["stream", "--method", "ml-LORD", "--layers", "1"])

        def answer(lines):
            sink = io.StringIO()
            assert cmd_stream(args, source=lines, sink=sink) == 0
            return sink.getvalue()

        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            expected = json.dumps({"line": 1, "error": f"malformed record: {exc.msg}"}) + "\n"
            if line.rstrip("\n")[-1] in "\x0c\xa0":
                assert exc.msg == "Extra data"  # which str.strip would have hidden
        else:
            expected = answer([json.dumps(payload) + "\n"])
        assert answer([line]) == expected

    @pytest.mark.parametrize("name", [".", "missing.jsonl"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, name):
        argv = ["stream", "--method", "ml-LORD", "--input", str(tmp_path / name)]
        assert main(argv) == 2
        assert "stream: cannot read input file" in capsys.readouterr().err

    def test_halted_stream_answers_without_testing(self):
        code, out = run_stream(
            ["--method", "ml-GAI", "--layers", "1", "--alpha", "0.1"],
            ['{"p": 0.9, "groups": [1]}', '{"p": 0.0, "groups": [2]}'],
        )
        assert out[0]["halted"] is True
        assert out[1] == {
            "t": 2,
            "reject": False,
            "tested_layers": [],
            "thresholds": [],
            "halted": True,
        }

    def test_unknown_method_exits_2(self, capsys):
        from layerfdr.cli import build_parser, cmd_stream

        args = build_parser().parse_args(["stream", "--method", "BH"])
        code = cmd_stream(args, source=io.StringIO(""), sink=io.StringIO())
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_eta_exits_2_before_reading_input(self, value, capsys):
        from layerfdr.cli import build_parser, cmd_stream

        argv = ["stream", "--method", "GAI", "--layers", "1", "--eta", value]
        source = io.StringIO('{"p": 0.01, "groups": [1]}\n')
        sink = io.StringIO()
        assert cmd_stream(build_parser().parse_args(argv), source=source, sink=sink) == 2
        assert source.tell() == 0 and sink.getvalue() == ""
        assert "eta must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1", "0", "1.5", "nan"])
    @pytest.mark.parametrize("method", ["GAI", "LORD", "ml-LOND_m"])
    def test_alpha_outside_the_unit_interval_exits_2(self, method, alpha, capsys):
        argv = ["--method", method, "--alpha", alpha]
        code, out = run_stream(argv, ['{"p": 0.01, "groups": [1]}'])
        assert code == 2 and out == []
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("method, code", [("ml-LORD", 0), ("BH", 2)])
    def test_input_file_is_closed(self, tmp_path, monkeypatch, capsys, method, code):
        path = tmp_path / "events.jsonl"
        path.write_text('{"p": 0.01, "groups": [1]}\n')
        opened = []
        real_open = Path.open

        def recording_open(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", recording_open)
        argv = ["stream", "--method", method, "--layers", "1", "--input", str(path)]
        assert main(argv) == code
        assert len(opened) == (1 if code == 0 else 0)
        assert all(handle.closed for handle in opened)


# (method, extra flags, [(p, groups), ...]) of two-layer streams
REPLY_CASES = {
    "ml-LORD": (
        [],
        [((t * 7919) % 1000 / 1000 if t % 5 else 0.0004 * t, (t, t % 9)) for t in range(1, 121)],
    ),
    # halts at t = 17; later replies are untested and carry empty lists
    "ml-GAI": ([], [(0.5 if t % 2 else 0.001, (t, t % 8)) for t in range(1, 41)]),
    # both ids repeat, so some arrivals find every layer's group decided
    "ml-LOND_m": (
        ["--untested", "accept"],
        [(0.001 if t % 4 == 1 else 0.6, (t % 5, t % 3)) for t in range(1, 61)],
    ),
}
# error lines inserted before the event at this index, with their exact replies
ERROR_LINES = {
    2: ('{"p": 0.5}', "field 'groups' must be an array of integers"),
    9: ("{oops", "malformed record: Expecting property name enclosed in double quotes"),
    20: ('{"p": 1.5, "groups": [1, 2]}', "p-value outside [0, 1]: 1.5"),
    21: ('{"p": 0.5, "groups": [1]}', "event carries 1 group ids, expected 2"),
}


def json_reply(record):
    """``json.dumps`` of the reply fields of a replayed record."""
    tested = record.tested_layers()
    reply = {
        "t": record.t,
        "reject": record.rejected,
        "tested_layers": tested,
        "thresholds": [record.layers[m].threshold for m in tested],
        "halted": record.halted,
    }
    return json.dumps(reply)


@pytest.mark.parametrize("method", sorted(REPLY_CASES))
def test_replies_are_json_dumps_of_the_replayed_records(method):
    from layerfdr import HypothesisEvent, make_procedure, replay
    from layerfdr.cli import build_parser, cmd_stream

    flags, pairs = REPLY_CASES[method]
    eta = ["--eta", "5"] if method == "ml-GAI" else []
    args = build_parser().parse_args(["stream", "--method", method, "--layers", "2", *eta, *flags])
    procedure = make_procedure(method, 2, args.alpha, args.eta, untested=args.untested)
    events = [HypothesisEvent(t=t, p=p, group_index=g) for t, (p, g) in enumerate(pairs, 1)]
    lines, expected = [], []
    for event, record in zip(events, replay(procedure, events)):
        if event.t in ERROR_LINES:
            line, error = ERROR_LINES[event.t]
            lines.append(line)
            expected.append(json.dumps({"line": len(lines), "error": error}))
        lines.append(json.dumps({"p": event.p, "groups": list(event.group_index)}))
        expected.append(json_reply(record))
    sink = io.StringIO()
    assert cmd_stream(args, source=io.StringIO("\n".join(lines) + "\n"), sink=sink) == 0
    assert sink.getvalue().splitlines() == expected
    untested = '"tested_layers": [], "thresholds": []'
    if method == "ml-GAI":
        assert f'{untested}, "halted": true' in expected[-1]
    if method == "ml-LOND_m":
        assert any(f'"reject": false, {untested}, "halted": false' in e for e in expected)


# group ids of the i-th arrival at one and three layers: ids repeat, so groups get decided
LAYER_IDS = {1: lambda t: (t % 11,), 3: lambda t: (t, t % 9, t % 4)}


@pytest.mark.parametrize("untested", ["literal", "accept"])
@pytest.mark.parametrize("layers", sorted(LAYER_IDS))
@pytest.mark.parametrize("method", METHODS)
def test_replies_are_json_dumps_at_one_and_three_layers(method, layers, untested):
    from layerfdr import HypothesisEvent, make_procedure, replay
    from layerfdr.cli import build_parser, cmd_stream

    argv = ["stream", "--method", method, "--layers", str(layers), "--untested", untested]
    args = build_parser().parse_args([*argv, "--eta", "5"])
    procedure = make_procedure(method, layers, args.alpha, args.eta, untested=untested)
    pvalues = [0.0004 * t if t % 5 == 0 else (t * 7919) % 1000 / 1000 for t in range(1, 81)]
    events = [HypothesisEvent(t, p, LAYER_IDS[layers](t)) for t, p in enumerate(pvalues, 1)]
    lines, expected = [], []
    for event, record in zip(events, replay(procedure, events)):
        lines.append(json.dumps({"p": event.p, "groups": list(event.group_index)}))
        expected.append(json_reply(record))
    sink = io.StringIO()
    assert cmd_stream(args, source=io.StringIO("\n".join(lines) + "\n"), sink=sink) == 0
    assert sink.getvalue().splitlines() == expected


def test_readme_wire_format_example(tmp_path, capsys):
    line = '{"p": 0.004, "groups": [1, 7]}'
    command = "layerfdr stream --method ml-LORD --layers 2"
    reply = (
        '{"t": 1, "reject": true, "tested_layers": [0, 1], '
        '"thresholds": [0.06079271018540268, 0.06079271018540268], "halted": false}'
    )
    path = tmp_path / "events.jsonl"
    path.write_text(line + "\n")
    assert main(command.split()[1:] + ["--input", str(path)]) == 0
    assert capsys.readouterr().out == reply + "\n"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert all(text in readme for text in (line, command, reply))


def package_env():
    """This environment with the package's sources on PYTHONPATH."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(args, stdin=b""):
    """Run ``python *args`` in a process of its own, with the package's sources on its path."""
    command = [sys.executable, *args]
    return subprocess.run(command, input=stdin, capture_output=True, env=package_env(), timeout=120)


def run_module(argv, stdin=b""):
    """Run ``python -m layerfdr.cli`` in a process of its own."""
    return run_python(["-m", "layerfdr.cli", *argv], stdin)


def test_the_module_streams_stdin_as_a_process():
    # the __main__ guard, entrypoint() and cmd_stream's read of sys.stdin.buffer
    from layerfdr.cli import build_parser, cmd_stream

    argv = ["stream", "--method", "ml-LORD", "--layers", "2"]
    # a valid line, one that is not UTF-8, an unterminated object, a valid line
    data = b'{"p": 0.004, "groups": [1, 7]}\n\xff\xfe\n{"p": 0.5\n{"p": 0.3, "groups": [2, 7]}\n'
    process = run_module(argv, data)
    sink = io.StringIO()
    assert cmd_stream(build_parser().parse_args(argv), source=io.BytesIO(data), sink=sink) == 0
    assert process.returncode == 0
    replies = process.stdout.decode().splitlines()
    assert len(replies) == 4 and replies == sink.getvalue().splitlines()


class FlushCountingSink(io.StringIO):
    flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


@pytest.mark.parametrize("on_stdin, flushes", [("pipe", 3), ("file", 0)])
def test_stdin_answers_are_flushed_per_line_only_from_a_pipe(
    tmp_path, monkeypatch, on_stdin, flushes
):
    from layerfdr.cli import build_parser, cmd_stream

    # a valid line, a malformed one, a valid line
    data = b'{"p": 0.004, "groups": [1, 7]}\n{oops\n{"p": 0.3, "groups": [2, 7]}\n'
    if on_stdin == "pipe":
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        stdin = os.fdopen(read_end)
    else:
        path = tmp_path / "events.jsonl"
        path.write_bytes(data)
        stdin = path.open()
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = ["stream", "--method", "ml-LORD", "--layers", "2"]
    sink, buffered = FlushCountingSink(), io.StringIO()
    with stdin:
        assert cmd_stream(build_parser().parse_args(argv), sink=sink) == 0
    assert cmd_stream(build_parser().parse_args(argv), io.BytesIO(data), buffered) == 0
    assert sink.getvalue() == buffered.getvalue()
    assert sink.flushes == flushes


def test_stdin_replies_arrive_before_the_input_ends():
    # a closed-loop client sends its next line only after the last reply, so a
    # reply held in a block-buffered stdout until end of input would deadlock it
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = ["-m", "layerfdr.cli", "stream", "--method", "ml-LORD", "--layers", "2"]
    process = subprocess.Popen(
        [sys.executable, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
    )
    try:
        # a valid line, then a malformed one: the reply and the error record
        for line, answer in [
            (b'{"p": 0.004, "groups": [1, 7]}\n', b'{"t": 1, "reject": true'),
            (b"{oops\n", b'{"line": 2, "error": "malformed record'),
        ]:
            process.stdin.write(line)
            process.stdin.flush()
            ready, _, _ = select.select([process.stdout], [], [], 10.0)
            assert ready, f"no reply to {line!r} within 10 s while stdin is open"
            assert process.stdout.readline().startswith(answer)
        process.stdin.close()
        assert process.wait(timeout=60) == 0
    finally:
        process.kill()
        process.wait()
        process.stdin.close()
        process.stdout.close()


def test_the_module_exits_1_on_a_violated_reward_bound():
    flags = "--alpha 0.1 --level 0.1 --phi 0.1 --psi 0.5 --rho 0.1 --horizon 5"
    process = run_module(["validate", *flags.split()])
    assert process.returncode == 1
    assert process.stdout.decode().startswith("violation at t=1")


COLD_START = """
import io, sys

def loaded():
    return [name for name in ("numpy", "numpy.random", "scipy") if name in sys.modules]

import layerfdr
assert loaded() == [], ("import layerfdr", loaded())
from layerfdr.cli import main
sys.stdin = io.TextIOWrapper(io.BytesIO(b'{"p": 0.004, "groups": [1, 7]}\\n'))
assert main(["stream", "--method", "ml-LORD", "--layers", "2"]) == 0
assert loaded() == [], ("stream", loaded())
assert main(["validate", "--alpha", "0.1", "--horizon", "10"]) == 0
assert loaded() == [], ("validate", loaded())
layerfdr.SweepSpec
assert loaded() == ["numpy"], ("layerfdr.SweepSpec", loaded())
from layerfdr.simgen import ScenarioSpec, make_stream, signal_means, two_sided_p_array
spec = ScenarioSpec(seed=1, G=4, n=5)
data = make_stream(spec)
assert loaded() == ["numpy", "numpy.random", "scipy"], ("make_stream", loaded())
import numpy as np
# block structure and fixed truths draw nothing, so the seed's first normals are the noise
z = signal_means(data.truths, spec.strength, spec.beta)
z = z + np.random.default_rng(1).standard_normal(spec.total)
assert np.array_equal(data.pvalues, two_sided_p_array(z))
"""


def test_numpy_and_scipy_are_loaded_only_when_needed():
    # import layerfdr, stream and validate run the pure-Python engine; the sweep
    # names load numpy, and drawing a stream loads numpy.random and scipy
    process = run_python(["-c", COLD_START])
    assert process.returncode == 0, process.stderr.decode()
    assert process.stdout.decode().count('"reject": true') == 1


def test_readme_config_keys_are_the_spec_fields(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("### Config files", 1)[1].split("```")[1]
    keys = set(re.findall(r"^(?:# )?(\w+) *=", example, re.MULTILINE))
    sweep_keys = {field.name for field in fields(SweepSpec)} - {"scenario"}
    assert keys == {field.name for field in fields(ScenarioSpec)} | sweep_keys
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    assert set(parse_config(path)) == keys - {"N"}


class TestValidate:
    def test_simple_choice_is_admissible(self, capsys):
        assert main(["validate", "--alpha", "0.1", "--horizon", "100"]) == 0
        assert "admissible" in capsys.readouterr().out

    def test_violation_exits_1(self, capsys):
        code = main(
            ["validate", "--alpha", "0.1", "--horizon", "100", "--psi", "0.23"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "violation at t=1" in out

    def test_zero_reward_is_admissible(self):
        assert main(["validate", "--alpha", "0.1", "--psi", "0.0"]) == 0

    def test_level_cap_subtracts_one(self, capsys):
        # GAI's cap is spend / level + alpha - 1 = 0.1 here, below the reward
        # 0.5; this constant policy's all-null mFDR is 0.1228 at N = 5
        argv = "validate --alpha 0.1 --level 0.1 --phi 0.1 --psi 0.5 --rho 0.1 --horizon 5"
        assert main(argv.split()) == 1
        assert "violation at t=1" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["1", "0", "-0.1", "1.5", "nan", "inf"])
    def test_alpha_outside_the_unit_interval_exits_2(self, alpha, capsys):
        assert main(["validate", "--alpha", alpha]) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    def test_invalid_power_bound_exits_2(self, capsys):
        code = main(["validate", "--alpha", "0.1", "--rho", "1.5"])
        assert code == 2
        assert "power bound" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--phi", "--psi"])
    def test_non_finite_charge_exits_2(self, flag, value, capsys):
        assert main(["validate", "--alpha", "0.1", flag, value]) == 2
        assert "non-finite spend or reward" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
