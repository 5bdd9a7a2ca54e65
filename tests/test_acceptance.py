"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Monte Carlo checks run at fixed seeds, 100 replicates per
grid cell and three-standard-error tolerances unless a criterion states a
hard band.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from layerfdr.cli import main
from layerfdr.harness import (
    DEFAULT_BETA_GRID,
    SweepSpec,
    emit_results,
    replicate_seed,
    run_replicate,
    run_sweep,
    standard_scenarios,
)
from layerfdr.core import HypothesisEvent
from layerfdr.oracle import (
    kappa_direct_trajectory,
    per_discovery_fdp,
    single_layer_gai_reference,
    single_layer_lond_reference,
    single_layer_lord_reference,
    submartingale_probe,
)
from layerfdr.procedures import METHODS, make_procedure, replay
from layerfdr.simgen import ScenarioSpec, gen_pvalues, make_stream

ALPHA = 0.1
MASTER_SEED = 20260808
ML_METHODS = ("ml-GAI", "ml-LORD", "ml-LOND", "ml-LOND_m")
BASELINE = ScenarioSpec()  # block / fixed / constant, G=20, n=10, s=20, k=100


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {detail}")


@pytest.fixture(scope="module")
def baseline_sweep():
    """Full seven-method sweep of the baseline panel over the default grid."""
    sweep = SweepSpec(
        scenario=BASELINE,
        beta_grid=DEFAULT_BETA_GRID,
        methods=METHODS,
        replicates=100,
        master_seed=MASTER_SEED,
    )
    return run_sweep(sweep)


def test_criterion_1_simultaneous_fdr_and_mfdr_control(baseline_sweep):
    """Every ml method keeps FDR and mFDR within 0.1 + 3*SE on both layers
    across every benchmark panel and the whole effect-size grid."""
    failures = []
    cells = 0

    def check(rows, panel):
        nonlocal cells
        for row in rows:
            if not row.method.startswith("ml-"):
                continue
            cells += 1
            if row.fdr > ALPHA + 3.0 * row.fdr_se:
                failures.append((panel, row.method, row.beta, row.layer, "fdr", row.fdr))
            if row.mfdr > ALPHA + 3.0 * row.mfdr_se:
                failures.append(
                    (panel, row.method, row.beta, row.layer, "mfdr", row.mfdr)
                )

    check(baseline_sweep, "block-fixed-constant")
    for name, scenario in standard_scenarios().items():
        if name == "block-fixed-constant":
            continue
        rows = run_sweep(
            SweepSpec(
                scenario=scenario,
                beta_grid=DEFAULT_BETA_GRID,
                methods=ML_METHODS,
                replicates=100,
                master_seed=MASTER_SEED,
            )
        )
        check(rows, name)

    ok = not failures
    report(
        1,
        ok,
        f"ml FDR and mFDR <= {ALPHA} + 3*SE on {cells} (panel, method, beta, layer) "
        f"cells at 100 replicates; violations: {len(failures)}",
    )
    assert ok, failures[:10]


def test_baseline_power_is_monotone_in_effect_size(baseline_sweep):
    """Supplementary sweep sanity: ml-LORD power never drops with the effect
    size by more than twice the pooled standard error between grid neighbors."""
    for layer in ("individual", "group"):
        series = sorted(
            (
                (r.beta, r.power, r.power_se)
                for r in baseline_sweep
                if r.method == "ml-LORD" and r.layer == layer
            )
        )
        for (b0, p0, s0), (b1, p1, s1) in zip(series, series[1:]):
            slack = 2.0 * math.sqrt(s0 ** 2 + s1 ** 2)
            assert p1 >= p0 - slack, (layer, b0, b1, p0, p1)


def test_criterion_2_single_layer_investing_loses_group_control(baseline_sweep):
    """Original GAI at beta = 2.5 shows severe group-layer FDR/mFDR inflation."""
    row = next(
        r
        for r in baseline_sweep
        if r.method == "GAI" and r.beta == 2.5 and r.layer == "group"
    )
    ok = row.fdr >= 0.30 and row.mfdr >= 0.30
    report(
        2,
        ok,
        f"GAI group-layer inflation at beta=2.5: fdr={row.fdr:.3f}, "
        f"mfdr={row.mfdr:.3f} (both required >= 0.30)",
    )
    assert ok


def test_criterion_3_power_saturates_at_strong_signals(baseline_sweep):
    """Every method's individual-layer power reaches 0.90 by beta = 5.0."""
    powers = {
        r.method: r.power
        for r in baseline_sweep
        if r.beta == 5.0 and r.layer == "individual"
    }
    ok = len(powers) == 7 and all(p >= 0.90 for p in powers.values())
    worst = min(powers, key=powers.get)
    report(
        3,
        ok,
        f"individual power at beta=5.0 >= 0.90 for all 7 methods "
        f"(lowest: {worst}={powers[worst]:.3f})",
    )
    assert ok, powers


def test_criterion_4_power_ordering_among_variants(baseline_sweep):
    """ml-LORD and the effective-test LOND variant are never materially below
    plain ml-LOND (slack 0.02) at beta in {2, 3, 4} on either layer."""
    failures = []
    for beta in (2.0, 3.0, 4.0):
        for layer in ("individual", "group"):
            powers = {
                r.method: r.power
                for r in baseline_sweep
                if r.beta == beta and r.layer == layer
            }
            if powers["ml-LORD"] < powers["ml-LOND"] - 0.02:
                failures.append(("ml-LORD", beta, layer, powers["ml-LORD"]))
            if powers["ml-LOND_m"] < powers["ml-LOND"] - 0.02:
                failures.append(("ml-LOND_m", beta, layer, powers["ml-LOND_m"]))
    ok = not failures
    report(
        4,
        ok,
        "power ordering ml-LORD >= ml-LOND - 0.02 and ml-LOND_m >= ml-LOND - 0.02 "
        "at beta in {2, 3, 4} on both layers",
    )
    assert ok, failures


def test_criterion_5_oracle_equivalence_and_test_counting():
    """Engines with one singleton layer reproduce the independent single-layer
    references decision for decision on 1000 random streams per method, and
    the incrementally maintained effective-test count equals the directly
    evaluated counting formula at every step."""
    n_streams, length = 1000, 500
    seeds = np.random.SeedSequence(MASTER_SEED).generate_state(n_streams, dtype=np.uint64)

    mismatches = 0
    for method in ("GAI", "LOND", "LORD"):
        for seed in seeds:
            rng = np.random.default_rng(int(seed))
            pvalues = (rng.random(length) ** 3).tolist()
            records = make_procedure(method, 1, ALPHA).run_pvalues(pvalues)
            engine = [int(r.rejected) for r in records]
            if method == "GAI":
                ref, tested = single_layer_gai_reference(pvalues, ALPHA)
                if sum(r.layers[0].tested for r in records) != tested:
                    mismatches += 1
            elif method == "LOND":
                ref, _ = single_layer_lond_reference(pvalues, ALPHA)
            else:
                ref, _ = single_layer_lord_reference(pvalues, ALPHA)
            if engine != ref:
                mismatches += 1
            # singleton groups never collapse, so the count must equal time
            kappas = [r.layers[0].effective_tests for r in records]
            if kappas != list(range(1, length + 1)):
                mismatches += 1

    kappa_bad = 0
    for seed in seeds:
        rng = np.random.default_rng(int(seed) + 1)
        groups = rng.integers(1, 40, size=length)
        pvalues = rng.random(length) ** 3
        events = [
            HypothesisEvent(t=i + 1, p=float(p), group_index=(i + 1, int(g)))
            for i, (p, g) in enumerate(zip(pvalues, groups))
        ]
        records = replay(make_procedure("ml-LOND_m", 2, ALPHA), events)
        for m in range(2):
            maintained = [r.layers[m].effective_tests for r in records]
            if kappa_direct_trajectory(records, m).tolist() != maintained:
                kappa_bad += 1

    ok = mismatches == 0 and kappa_bad == 0
    report(
        5,
        ok,
        f"engine == reference on {n_streams} streams x 3 methods x {length} steps; "
        f"effective-test counts match the direct formula on singleton and "
        f"grouped streams ({mismatches} decision/count mismatches, {kappa_bad} "
        f"formula mismatches)",
    )
    assert ok


def test_criterion_6_investing_balance_stays_nonnegative_in_mean():
    """On all-null streams the compensated investing process starts at zero
    exactly and its Monte Carlo mean never drops below -3*SE at any step."""
    scenario = ScenarioSpec(s=0.0)
    means, ses = submartingale_probe(scenario, n_rep=1000, seed=MASTER_SEED)
    start_exact = means[:, 0].tolist() == [0.0, 0.0] and ses[:, 0].tolist() == [0.0, 0.0]
    margins = means + 3.0 * ses
    min_margin = float(margins[:, 1:].min())
    ok = start_exact and min_margin >= 0.0
    report(
        6,
        ok,
        f"all-null ml-GAI balance: A(0) = 0 exactly; min over layers and steps "
        f"of mean + 3*SE = {min_margin:+.4f} (required >= 0) at 1000 replicates",
    )
    assert ok


def test_criterion_7_lord_fdp_controlled_at_every_discovery():
    """ml-LORD on the random-pattern panel keeps the mean false discovery
    proportion at the k-th discovery within 0.1 + 3*SE for every k, where
    replicates without a k-th discovery contribute zero (the indicator
    convention of the per-discovery guarantee)."""
    scenario = ScenarioSpec(structure="interleaved", pattern="random", beta=3.0)
    n_rep = 400
    values: dict[tuple[int, int], list[float]] = {}
    for r in range(n_rep):
        seed = replicate_seed(MASTER_SEED, "ml-LORD", scenario.beta, r)
        run = run_replicate(scenario, "ml-LORD", seed)
        truths = make_stream(replace(scenario, seed=seed)).truths.tolist()
        for layer in range(2):
            for k, fdp in enumerate(per_discovery_fdp(run.records, truths, layer), 1):
                values.setdefault((layer, k), []).append(fdp)

    failures = []
    worst = -1.0
    for (layer, k), observed in values.items():
        padded = np.zeros(n_rep)
        padded[: len(observed)] = observed
        mean = float(padded.mean())
        se = float(padded.std(ddof=1) / math.sqrt(n_rep))
        worst = max(worst, mean - ALPHA - 3.0 * se)
        if mean > ALPHA + 3.0 * se:
            failures.append((layer, k, mean, se))
    ok = not failures
    report(
        7,
        ok,
        f"ml-LORD per-discovery FDP <= {ALPHA} + 3*SE at every discovery index "
        f"({len(values)} (layer, k) cells, {n_rep} replicates, worst margin "
        f"{worst:+.4f})",
    )
    assert ok, failures[:10]


def test_criterion_8_generator_distributions():
    """Null p-values pass a KS uniformity screen at 1e5 samples and the level
    sequence's partial sums approach alpha from below."""
    theta = np.zeros(100_000, dtype=np.int8)
    pvalues = gen_pvalues(theta, "constant", 2.0, np.random.default_rng(MASTER_SEED))
    ks = float(stats.kstest(pvalues, "uniform").statistic)

    sums_ok = True
    for alpha in (0.05, 0.1, 0.2):
        js = np.arange(1, 10 ** 6 + 1, dtype=float)
        partial = np.cumsum(alpha * 6.0 / (math.pi ** 2 * js * js))
        total = float(partial[-1])
        if not (0.9999 * alpha <= total <= alpha and float(partial.max()) <= alpha):
            sums_ok = False

    ok = ks < 0.01 and sums_ok
    report(
        8,
        ok,
        f"null p-value KS statistic {ks:.5f} < 0.01 at 1e5 samples; level-sequence "
        f"partial sums within [0.9999*alpha, alpha] through 1e6 terms",
    )
    assert ok


def test_criterion_9_determinism_and_stream_replay(tmp_path, capsys):
    """Sweeps re-emit byte-identical CSVs, and the stream CLI reproduces a
    library replay of the same 10^4-event recorded file exactly."""
    sweep = SweepSpec(
        scenario=BASELINE,
        beta_grid=(2.0, 3.5),
        methods=("GAI", "ml-LORD"),
        replicates=25,
        master_seed=MASTER_SEED,
    )
    emit_results(run_sweep(sweep), tmp_path / "a")
    emit_results(run_sweep(sweep), tmp_path / "b")
    byte_identical = all(
        (tmp_path / "a" / p.name).read_bytes() == (tmp_path / "b" / p.name).read_bytes()
        for p in (tmp_path / "a").iterdir()
    )

    n_events = 10_000
    rng = np.random.default_rng(MASTER_SEED + 1)
    groups = rng.integers(1, 50, size=n_events)
    pvalues = rng.random(n_events) ** 2
    recorded = tmp_path / "events.jsonl"
    with recorded.open("w", encoding="utf-8") as fh:
        for i, (p, g) in enumerate(zip(pvalues, groups)):
            fh.write(json.dumps({"p": float(p), "groups": [i + 1, int(g)]}) + "\n")

    code = main(
        [
            "stream",
            "--method",
            "ml-LOND",
            "--layers",
            "2",
            "--alpha",
            str(ALPHA),
            "--input",
            str(recorded),
        ]
    )
    stream_lines = capsys.readouterr().out.strip().splitlines()

    events = [
        HypothesisEvent(t=i + 1, p=float(p), group_index=(i + 1, int(g)))
        for i, (p, g) in enumerate(zip(pvalues, groups))
    ]
    records = replay(make_procedure("ml-LOND", 2, ALPHA), events)
    replay_matches = code == 0 and len(stream_lines) == n_events
    if replay_matches:
        for line, record in zip(stream_lines, records):
            payload = json.loads(line)
            expected = {
                "t": record.t,
                "reject": bool(record.rejected),
                "tested_layers": record.tested_layers(),
                "thresholds": [
                    record.layers[m].threshold for m in record.tested_layers()
                ],
                "halted": record.halted,
            }
            if payload != expected:
                replay_matches = False
                break

    ok = byte_identical and replay_matches
    report(
        9,
        ok,
        f"repeated sweep emission byte-identical: {byte_identical}; stream CLI == "
        f"library replay over {n_events} recorded events: {replay_matches}",
    )
    assert ok
