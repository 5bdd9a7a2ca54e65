"""Command-line surface: simulate, sweep, stream and validate subcommands.

Configuration files are flat ``key = value`` documents ('#' starts a
comment).  The keys are the fields of ``ScenarioSpec`` and the fields of
``SweepSpec`` other than ``scenario``, and each value is read as its
field's annotation says: an integer, a number, a string, or for a tuple
field (methods, beta_grid) a comma-separated list.  Every value is checked
as its line is read, so a bad value is an error even where a flag overrides
it.  Flags always take precedence over file values, and a sweep value that
neither sets is ``SweepSpec``'s default; the master seed of ``simulate`` and
``sweep`` is the flag, then master_seed, then seed, then that default.  A
method is one of the seven ``METHODS`` names.  ``simulate`` runs a
one-method sweep (``--beta``, else the config's beta_grid, else the
scenario's beta) and prints the rows that sweep's results.csv holds for
those cells.

Stream mode reads one JSON object per line with fields ``p`` (number) and
``groups`` (array of M integers in layer order) and answers each with
``{"t", "reject", "tested_layers", "thresholds", "halted"}``.  A line that is
not UTF-8 or not well-formed (an integer past Python's digit limit and a
nesting past its recursion limit included), or one the event or engine checks
reject (p outside [0, 1], a negative group id, the wrong number of ids),
produces an error record carrying the line number and does not advance the
stream clock.
Read from a pipe or terminal on stdin, the answer to each line is flushed
before the next line is read, so a client that waits for each reply before
sending its next line is answered at once.

``stream`` and ``validate`` run on the online engine alone.  The sweep and
generator modules, and numpy with them, are imported when ``simulate``,
``sweep`` or config parsing first needs them, so those two commands start
without loading numpy.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO, get_args, get_origin, get_type_hints

from .procedures import (
    METHODS,
    UNTESTED_ACCEPT,
    UNTESTED_LITERAL,
    constant_policy,
    make_procedure,
    simple_choice,
    validate_policy,
)
from .core import HypothesisEvent, LayerState

if TYPE_CHECKING:
    from .harness import SweepSpec
    from .simgen import ScenarioSpec

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# the characters json lets stand around a value; str.strip removes more
_JSON_WHITESPACE = " \t\n\r"


@cache
def _config_schema() -> tuple[dict, dict, dict]:
    """The config schema: the types of ``ScenarioSpec``'s fields, of
    ``SweepSpec``'s other than scenario, and of both, each key a spec field
    whose value is converted by its annotation.  Built on first use, since
    the specs' modules load numpy, which ``stream`` and ``validate`` never need."""
    from .harness import SweepSpec
    from .simgen import ScenarioSpec

    scenario_types = get_type_hints(ScenarioSpec)
    sweep_types = {
        key: kind for key, kind in get_type_hints(SweepSpec).items() if key != "scenario"
    }
    return scenario_types, sweep_types, {**scenario_types, **sweep_types}


class ConfigError(Exception):
    def __init__(self, path, line: Optional[int], message: str):
        location = f"{path}:{line}" if line else str(path)
        super().__init__(f"{location}: {message}")


def parse_config(path) -> dict[str, object]:
    """Parse a flat key = value file into {key: value}.

    Each value is converted to its key's type as its line is read, so a bad
    value fails whether or not a flag later overrides it.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(path, None, "config file not found")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(path, None, f"cannot read config file: {exc}")
    *_, key_types = _config_schema()
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in key_types:
            raise ConfigError(path, lineno, f"unknown key {key!r}")
        if key in entries:
            raise ConfigError(path, lineno, f"duplicate key {key!r}")
        if not value:
            raise ConfigError(path, lineno, f"empty value for {key!r}")
        entries[key] = _convert(path, key, lineno, value)
    return entries


def _convert(path, key: str, lineno: Optional[int], value: str):
    *_, key_types = _config_schema()
    kind = key_types[key]
    if get_origin(kind) is tuple:  # tuple[X, ...]: a comma-separated list
        item = get_args(kind)[0]
        try:
            return tuple(item(part.strip()) for part in value.split(",") if part.strip())
        except ValueError:
            raise ConfigError(path, lineno, f"{key} must be comma-separated numbers")
    if kind == Optional[int]:
        kind = int
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(path, lineno, f"{key!r} must be {noun}, got {value!r}")


def scenario_from_config(path, entries: dict[str, object]) -> ScenarioSpec:
    from .simgen import ScenarioSpec

    scenario_types, *_ = _config_schema()
    fields = {key: value for key, value in entries.items() if key in scenario_types}
    try:
        return ScenarioSpec(**fields)
    except ValueError as exc:
        raise ConfigError(path, None, str(exc))


# ---------------------------------------------------------------------------


def _sweep_spec(args, entries, **flags) -> Optional[SweepSpec]:
    """The grid ``simulate`` and ``sweep`` run, or None once the reason it
    cannot be built is on stderr.

    ``flags`` are named after spec fields, and one that is None is unset.  A
    scenario flag replaces the config's value.  A sweep value is the flag,
    then the config's, then ``SweepSpec``'s default, except that the config's
    ``seed`` stands in for a missing ``master_seed`` and ``simulate`` without
    a grid runs the scenario's one beta.
    """
    from .harness import SweepSpec

    scenario_types, sweep_types, _ = _config_schema()
    flags = {"replicates": args.replicates, "master_seed": args.master_seed, **flags}
    flags = {key: value for key, value in flags.items() if value is not None}
    values = {key: value for key, value in entries.items() if key in sweep_types}
    if "seed" in entries:
        values.setdefault("master_seed", entries["seed"])
    values.update((key, value) for key, value in flags.items() if key in sweep_types)
    overrides = {key: value for key, value in flags.items() if key in scenario_types}
    try:
        scenario = replace(scenario_from_config(args.config, entries), **overrides)
        if args.command == "simulate":
            values.setdefault("beta_grid", (scenario.beta,))
        return SweepSpec(scenario, **values)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return None


def cmd_simulate(args) -> int:
    """One method's cells: the rows a one-method sweep writes to results.csv."""
    from .harness import RESULTS_HEADER, format_result_row, run_sweep

    entries = parse_config(args.config)
    method = args.method
    if method is None:
        methods = entries.get("methods", ())
        if len(methods) != 1:
            print("simulate: --method is required", file=sys.stderr)
            return EXIT_USAGE
        method = methods[0]
    grid = None if args.beta is None else (args.beta,)
    flags = dict(methods=(method,), beta_grid=grid, beta=args.beta, alpha=args.alpha, eta=args.eta)
    sweep = _sweep_spec(args, entries, **flags)
    if sweep is None:
        return EXIT_USAGE
    print(RESULTS_HEADER)
    for row in run_sweep(sweep):
        print(format_result_row(row))
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .harness import emit_results, run_sweep

    entries = parse_config(args.config)
    methods = None if args.methods is None else _convert(args.config, "methods", None, args.methods)
    sweep = _sweep_spec(args, entries, methods=methods)
    if sweep is None:
        return EXIT_USAGE
    rows = run_sweep(sweep)
    for path in emit_results(rows, args.out):
        print(path)
    return EXIT_OK


def _stream_error(line_number: int, message: str, sink: TextIO) -> None:
    print(json.dumps({"line": line_number, "error": message}), file=sink)


def _is_regular_file(stream) -> bool:
    try:
        return stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except (OSError, ValueError):
        return False


def _flush_before_each_read(lines, sink: TextIO):
    """The lines of ``lines``; whatever was written to ``sink`` in answer
    to one line is flushed before the next one is read."""
    for line in lines:
        yield line
        sink.flush()


def cmd_stream(args, source: Optional[TextIO] = None, sink: Optional[TextIO] = None) -> int:
    sink = sink or sys.stdout
    try:
        procedure = make_procedure(
            args.method, args.layers, args.alpha, args.eta, untested=args.untested
        )
    except ValueError as exc:
        print(f"stream: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a client on a pipe or terminal may wait for each reply before it sends
    # its next line; a caller's source or a file on stdin needs no flushes
    live = source is None and args.input == "-" and not _is_regular_file(sys.stdin)
    if source is not None or args.input == "-":
        # the caller's source and stdin stay open
        opened = nullcontext(source if source is not None else sys.stdin.buffer)
    else:
        try:
            opened = Path(args.input).open("rb")
        except OSError as exc:
            print(f"stream: cannot read input file: {exc}", file=sys.stderr)
            return EXIT_USAGE
    write = sink.write
    # json.loads, less its wrapper: a line is taken from the scanner only
    # when the value starts the line and nothing but JSON whitespace
    # follows it; any other line goes to json.loads, which reads it or
    # names its fault in its own words
    scan = json.JSONDecoder().scan_once
    # the reply text of the first 1024 distinct thresholds.  Equal floats
    # print the same text except 0.0 and -0.0, which the CLI's default
    # schedules never issue; a LORD stream repeats its thresholds, so most
    # of its replies reuse a text, while a LOND threshold rarely recurs
    threshold_texts: dict[float, str] = {}
    with opened as source:
        if live:
            source = _flush_before_each_read(source, sink)
        for line_number, raw in enumerate(source, 1):
            # files and stdin are read as bytes, so one line that is not
            # UTF-8 gets an error record instead of ending the session
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    _stream_error(line_number, f"line is not UTF-8: {exc.reason}", sink)
                    continue
            try:
                payload, end = scan(raw, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end < 0 or raw[end:].strip(_JSON_WHITESPACE):
                if not raw.strip():
                    continue
                # too many digits and too deep a nesting raise ValueError
                # and RecursionError, not JSONDecodeError
                try:
                    payload = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    reason = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                    _stream_error(line_number, f"malformed record: {reason}", sink)
                    continue
            if not isinstance(payload, dict):
                _stream_error(line_number, "record must be a JSON object", sink)
                continue
            p = payload.get("p")
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                _stream_error(line_number, "field 'p' must be a number", sink)
                continue
            groups = payload.get("groups")
            # json gives int, never a subclass, for an integer; bool is excluded
            if not isinstance(groups, list) or not all(type(g) is int for g in groups):
                _stream_error(line_number, "field 'groups' must be an array of integers", sink)
                continue
            # the event and the engine check ranges and the group count; a
            # step that raises leaves the stream clock and state unchanged
            try:
                event = HypothesisEvent(procedure.t + 1, float(p), tuple(groups))
                record = procedure.skip(event) if procedure.halted else procedure.step(event)
            except (ValueError, OverflowError) as exc:
                _stream_error(line_number, str(exc), sink)
                continue
            # the bytes json.dumps writes for this dict, built in one pass
            tested, thresholds = [], []
            for m, layer in enumerate(record.layers):
                if layer.tested:
                    tested.append(str(m))
                    threshold = layer.threshold
                    text = threshold_texts.get(threshold)
                    if text is None:
                        text = repr(threshold)
                        if len(threshold_texts) < 1024:
                            threshold_texts[threshold] = text
                    thresholds.append(text)
            write(
                f'{{"t": {record.t}, "reject": {"true" if record.rejected else "false"}, '
                f'"tested_layers": [{", ".join(tested)}], '
                f'"thresholds": [{", ".join(thresholds)}], '
                f'"halted": {"true" if record.halted else "false"}}}\n'
            )
    return EXIT_OK


def cmd_validate(args) -> int:
    alpha = args.alpha
    try:
        # simple_choice checks alpha and gives the spend a flag may override
        default_spend = simple_choice(alpha).spend(1, LayerState())
        spend = default_spend if args.phi is None else args.phi
        policy = constant_policy(
            alpha_level=alpha if args.level is None else args.level,
            spend=spend,
            reward=spend + alpha if args.psi is None else args.psi,
            power_bound=1.0 if args.rho is None else args.rho,
        )
        report = validate_policy(policy, alpha, args.horizon)
    except ValueError as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if report.ok:
        print(f"ok: reward rule admissible for t = 1..{args.horizon}")
        return EXIT_OK
    print(
        f"violation at t={report.t}: reward {report.reward:.6g} outside "
        f"[0, {min(report.power_cap, report.level_cap):.6g}] "
        f"(power cap {report.power_cap:.6g}, level cap {report.level_cap:.6g})"
    )
    return EXIT_RUNTIME


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerfdr",
        description="Online multi-layer FDR control: simulation and streaming decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one scenario/method replicate set")
    simulate.add_argument("--config", required=True, help="scenario config file")
    simulate.add_argument("--method", help="method name (one of %s)" % ", ".join(METHODS))
    simulate.add_argument("--beta", type=float, help="override effect size")
    simulate.add_argument("--alpha", type=float, help="override target level")
    simulate.add_argument("--eta", type=float, help="override discovery offset")
    simulate.add_argument("--replicates", type=int, help="override replicate count")
    simulate.add_argument("--seed", type=int, dest="master_seed", help="override master seed")
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a method x beta grid and emit CSVs")
    sweep.add_argument("--config", required=True, help="sweep config file")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--methods", help="comma-separated method subset")
    sweep.add_argument("--replicates", type=int, help="override replicate count")
    sweep.add_argument("--master-seed", type=int, dest="master_seed")
    sweep.set_defaults(func=cmd_sweep)

    stream = sub.add_parser("stream", help="decide a live stream of JSON records")
    stream.add_argument("--method", required=True)
    stream.add_argument("--layers", type=int, default=1, help="number of layers M")
    stream.add_argument("--alpha", type=float, default=0.1)
    stream.add_argument("--eta", type=float, default=1.0)
    stream.add_argument(
        "--untested", choices=(UNTESTED_LITERAL, UNTESTED_ACCEPT), default=UNTESTED_LITERAL
    )
    stream.add_argument("--input", default="-", help="input file or '-' for stdin")
    stream.set_defaults(func=cmd_stream)

    validate = sub.add_parser("validate", help="check a spending policy's reward bound")
    validate.add_argument("--alpha", type=float, default=0.1)
    validate.add_argument("--horizon", type=int, default=1000)
    validate.add_argument("--level", type=float, help="constant significance level")
    validate.add_argument("--phi", type=float, help="constant spend charge")
    validate.add_argument("--psi", type=float, help="constant discovery reward")
    validate.add_argument("--rho", type=float, help="constant power bound")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
