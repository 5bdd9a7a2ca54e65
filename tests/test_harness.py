import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from layerfdr.harness import (
    LAYER_NAMES,
    SweepSpec,
    emit_results,
    replicate_seed,
    run_replicate,
    run_sweep,
    standard_scenarios,
    stream_events,
    stream_tallies,
)
from layerfdr.metrics import aggregate, prefix_tallies
from layerfdr.procedures import METHODS
from layerfdr.simgen import ScenarioSpec, StreamData, make_stream
from test_metrics import tally_from_sets

BASELINE = ScenarioSpec()  # block / fixed / constant, G=20, n=10, s=20, k=100


class TestReplicateSeed:
    def test_stable_values(self):
        assert replicate_seed(1, "ml-LORD", 2.0, 0) == replicate_seed(
            1, "ml-LORD", 2.0, 0
        )

    def test_cells_are_distinct(self):
        seeds = {
            replicate_seed(1, method, beta, r)
            for method in ("GAI", "ml-LORD")
            for beta in (1.0, 2.0)
            for r in range(10)
        }
        assert len(seeds) == 40

    def test_keyed_on_the_float_value_of_beta(self):
        import numpy as np

        seeds = {
            replicate_seed(1, "LORD", beta, 0) for beta in (2, 2.0, np.float64(2.0))
        }
        # sha256(b"1|LORD|2.0|0"): float grids keep the seeds they always had
        assert seeds == {13307478223593482376}

    def test_independent_of_other_grid_entries(self):
        # the hash keys on the beta value itself, so growing the grid or the
        # method list cannot move existing cells
        assert replicate_seed(9, "LOND", 1.5, 3) == replicate_seed(9, "LOND", 1.5, 3)
        assert replicate_seed(9, "LOND", 1.5, 3) != replicate_seed(9, "LOND", 2.5, 3)


class TestRunReplicate:
    def test_all_null_scenario_makes_every_discovery_false(self):
        scenario = ScenarioSpec(s=0.0)
        for method in ("GAI", "ml-GAI", "ml-LORD"):
            run = run_replicate(scenario, method, seed=4)
            for name in LAYER_NAMES:
                tally = run.tallies[name]
                assert tally.true_discoveries == 0
                assert aggregate([tally], scenario.eta).fdr in (0.0, 1.0)

    def test_baseline_truth_counts(self):
        run = run_replicate(BASELINE, "ml-LORD", seed=11)
        assert run.tallies["individual"].true_groups == 40
        assert run.tallies["group"].true_groups == 4

    def test_single_layer_methods_report_group_metrics_post_hoc(self):
        run = run_replicate(BASELINE, "LORD", seed=11)
        assert run.tallies["group"].true_groups == 4
        group, individual = run.tallies["group"], run.tallies["individual"]
        assert sum(group[:2]) <= sum(individual[:2])

    def test_gai_halt_is_recorded_not_raised(self):
        scenario = ScenarioSpec(s=0.0)
        run = run_replicate(scenario, "GAI", seed=2)
        assert len(run.records) == scenario.total
        assert run.records[-1].halted

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_replicate(BASELINE, "storey", seed=0)

    def test_zero_effect_size_keeps_control_with_noise_level_power(self):
        sweep = SweepSpec(BASELINE, (0.0,), ("ml-LORD",), replicates=60, master_seed=123)
        for row in run_sweep(sweep):
            assert row.fdr <= 0.1 + 3.0 * row.fdr_se
            assert row.mfdr <= 0.1 + 3.0 * row.mfdr_se
            assert row.power < 0.2

    @pytest.mark.parametrize(
        "panel",
        ["block-fixed-constant", "unbalanced-fixed-constant", "interleaved-markov-constant"],
    )
    def test_tallies_equal_set_tallies(self, panel):
        # tally_from_sets shares no code with the harness tally route
        scenario = standard_scenarios()[panel]
        for method in METHODS:
            for seed in (3, 8):
                run = run_replicate(scenario, method, seed)
                data = make_stream(replace(scenario, seed=seed))
                # a single-layer record holds the individual id only; the
                # group layer is tallied post hoc from the same rejection
                selected, true_groups = (set(), set()), (set(), set())
                for event, record, truth in zip(stream_events(data, 2), run.records, data.truths):
                    for m, group in enumerate(event.group_index):
                        if record.rejected:
                            selected[m].add(group)
                        if truth == 1:
                            true_groups[m].add(group)
                assert run.tallies == {
                    "individual": tally_from_sets(selected[0], true_groups[0]),
                    "group": tally_from_sets(selected[1], true_groups[1]),
                }

    def test_deterministic_given_seed(self):
        a = run_replicate(BASELINE, "ml-LOND_m", seed=77)
        b = run_replicate(BASELINE, "ml-LOND_m", seed=77)
        assert a.records == b.records
        assert a.tallies == b.tallies


def seeded_cases():
    """(groups, truths, rejected) of R streams of N arrivals with ids 1..G,
    for (R, N, G) in (1, 1, 1), (7, 40, 3), (30, 200, 20) and (5, 60, 2**40)."""
    rng = np.random.default_rng(12)
    for rows, total, groups in ((1, 1, 1), (7, 40, 3), (30, 200, 20), (5, 60, 2**40)):
        yield (
            rng.integers(1, groups + 1, size=(rows, total)),
            rng.random((rows, total)) < 0.3,
            rng.random((rows, total)) < 0.2,
        )


CASES = list(seeded_cases())


@st.composite
def stacked_streams(draw):
    """(groups, truths, rejected) of 1-6 streams of 1-40 arrivals, with ids
    from 0 to a top that keeps them below N or lets them reach it."""
    rows, total = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    top = draw(st.sampled_from([1, total, total + 1, 2**40]))
    groups = draw(arrays(np.int64, (rows, total), elements=st.integers(0, top)))
    return groups, draw(arrays(bool, (rows, total))), draw(arrays(bool, (rows, total)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=stacked_streams())
@example(case=CASES[0])
@example(case=CASES[1])
@example(case=CASES[2])
@example(case=CASES[3])
def test_stacked_tallies_equal_per_stream_set_tallies(case):
    groups, truths, rejected = case
    data = StreamData(
        groups=groups, truths=truths.astype(np.int8), pvalues=np.zeros(groups.shape)
    )
    tallies = stream_tallies(data, rejected)
    for name in LAYER_NAMES:
        assert tallies[name].shape == (len(groups), 3)
        assert tallies[name].dtype == np.int64
    for r in range(len(groups)):
        assert tuple(tallies["individual"][r].tolist()) == tally_from_sets(
            set(np.flatnonzero(rejected[r]).tolist()), set(np.flatnonzero(truths[r]).tolist())
        )
        assert tuple(tallies["group"][r].tolist()) == tally_from_sets(
            set(groups[r][rejected[r]].tolist()), set(groups[r][truths[r]].tolist())
        )
        # the last prefix of each layer is the end-of-stream tally
        arrivals = np.arange(groups.shape[1])
        for name, ids in zip(LAYER_NAMES, (arrivals, groups[r])):
            per_prefix = prefix_tallies(ids, truths[r], rejected[r])
            assert np.array_equal(per_prefix[-1], tallies[name][r])


def test_both_tally_routes_refuse_a_truth_label_other_than_0_or_1():
    # stream_tallies used to count a label of 2 as null
    groups, truths, rejected = [1, 1, 2], [2, 0, 1], [True, False, False]
    data = StreamData(
        groups=np.array([groups]),
        truths=np.array([truths], dtype=np.int8),
        pvalues=np.zeros((1, 3)),
    )
    with pytest.raises(ValueError, match="truth label must be 0 or 1, got 2"):
        stream_tallies(data, np.array([rejected]))
    with pytest.raises(ValueError, match="truth label must be 0 or 1, got 2"):
        prefix_tallies(groups, truths, rejected)


def test_stream_tallies_refuse_a_mask_of_another_shape():
    # a (1, N) mask for R > 1 streams used to raise an IndexError from a
    # boolean index, and a transposed (N, R) mask a broadcasting error
    rng = np.random.default_rng(0)
    data = StreamData(
        groups=rng.integers(0, 3, size=(4, 6)),
        truths=rng.integers(0, 2, size=(4, 6)).astype(np.int8),
        pvalues=np.zeros((4, 6)),
    )
    rejected = rng.random((4, 6)) < 0.5
    for mask in (rejected[:1], rejected.T, rejected[0]):
        shape = str(mask.shape).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ValueError, match=rf"shape {shape}, not \(4, 6\)"):
            stream_tallies(data, mask)


def test_stream_tallies_keep_distinct_uint64_group_ids_apart():
    # pairing int64 row numbers with uint64 ids promoted both to float64, so
    # 2**60 + 1 and 2**60 + 2 became one group and a false discovery a true one
    ids = [2**60 + 1, 2**60 + 2, 5]
    tallies = []
    for dtype in (np.uint64, np.int64):
        data = StreamData(
            groups=np.array([ids], dtype=dtype),
            truths=np.array([[1, 0, 0]], dtype=np.int8),
            pvalues=np.zeros((1, 3)),
        )
        tallies.append(stream_tallies(data, np.array([[False, True, False]]))["group"])
    assert tallies[0].tolist() == tallies[1].tolist() == [[1, 0, 1]]


@pytest.mark.parametrize(
    "groups, message",
    [
        (np.array([[1, -1, 2]]), "group ids must be non-negative"),
        (np.array([[1.0, 2.0, 3.0]]), "group ids must be integers, got dtype float64"),
        (np.array([[1, 2**63, 3]], dtype=np.uint64), "must fit in int64, got 9223372036854775808"),
    ],
)
def test_stream_tallies_refuse_the_group_ids_the_kernel_refuses(groups, message):
    data = StreamData(groups=groups, truths=np.zeros((1, 3), np.int8), pvalues=np.zeros((1, 3)))
    with pytest.raises(ValueError, match=message):
        stream_tallies(data, np.zeros((1, 3), dtype=bool))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario=BASELINE, replicates=0)
        with pytest.raises(ValueError):
            SweepSpec(scenario=BASELINE, beta_grid=())
        with pytest.raises(ValueError):
            SweepSpec(scenario=BASELINE, methods=())
        with pytest.raises(ValueError, match="unknown methods"):
            SweepSpec(scenario=BASELINE, methods=("GAI", "BH"))
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(scenario=BASELINE, methods=("GAI", "GAI"))
        for sizes in ({"replicates": 2.5}, {"master_seed": 1.0}):
            with pytest.raises(ValueError, match="must be an integer"):
                SweepSpec(scenario=BASELINE, **sizes)
        # operator.index(True) is 1, so a bool would otherwise pass as a count or seed
        for field in ("replicates", "master_seed"):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
                SweepSpec(scenario=BASELINE, **{field: True})

    def test_every_beta_is_validated(self):
        with pytest.raises(ValueError, match="non-negative"):
            SweepSpec(scenario=BASELINE, beta_grid=(1.0, -1.0))

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_betas_rejected(self, beta):
        # NaN also never equals itself, so the duplicate check cannot catch (nan, nan)
        for grid in ((beta,), (1.0, beta, beta)):
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(scenario=BASELINE, beta_grid=grid)

    def test_duplicate_betas_compare_as_floats(self):
        # 1 and 1.0 share replicate seeds, so they would be one cell emitted twice
        with pytest.raises(ValueError, match="duplicate beta"):
            SweepSpec(scenario=BASELINE, beta_grid=(1, 1.0))

    def test_betas_that_print_alike_are_duplicates(self):
        # the CSVs label rows to six significant digits: two rows would read 1
        with pytest.raises(ValueError, match="duplicate beta values: two print as 1$"):
            SweepSpec(scenario=BASELINE, beta_grid=(2.0, 1, 1.0000001))
        SweepSpec(scenario=BASELINE, beta_grid=(1, 1.00001))


class TestRunSweep:
    def small_sweep(self, methods):
        return SweepSpec(
            scenario=BASELINE,
            beta_grid=(2.0, 3.0),
            methods=methods,
            replicates=5,
            master_seed=31,
        )

    def test_single_replicate_equals_run_replicate(self):
        sweep = SweepSpec(
            scenario=BASELINE,
            beta_grid=(2.0,),
            methods=("ml-LORD",),
            replicates=1,
            master_seed=99,
        )
        rows = run_sweep(sweep)
        from dataclasses import replace

        seed = replicate_seed(99, "ml-LORD", 2.0, 0)
        run = run_replicate(replace(BASELINE, beta=2.0), "ml-LORD", seed)
        by_layer = {row.layer: row for row in rows}
        for name in LAYER_NAMES:
            expected = aggregate(
                [run.tallies[name]], BASELINE.eta, method="ml-LORD", beta=2.0, layer=name
            )
            assert by_layer[name] == expected

    def test_method_order_does_not_change_numbers(self):
        rows_a = run_sweep(self.small_sweep(("GAI", "ml-LORD")))
        rows_b = run_sweep(self.small_sweep(("ml-LORD", "GAI")))
        assert rows_a == rows_b

    def test_rows_cover_the_grid(self):
        rows = run_sweep(self.small_sweep(("GAI", "ml-LOND")))
        assert len(rows) == 2 * 2 * 2
        assert {(r.method, r.beta, r.layer) for r in rows} == {
            (m, b, layer)
            for m in ("GAI", "ml-LOND")
            for b in (2.0, 3.0)
            for layer in LAYER_NAMES
        }


class TestEmitResults:
    def rows(self):
        return run_sweep(
            SweepSpec(
                scenario=BASELINE,
                beta_grid=(2.0, 4.0),
                methods=("GAI", "ml-LORD"),
                replicates=4,
                master_seed=8,
            )
        )

    def test_empty_table_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_results([], tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_a_repeated_cell_is_an_error(self, tmp_path):
        # results.csv would hold both rows and the panels only the last one
        rows = self.rows()
        with pytest.raises(ValueError, match=r"repeats the cell \('GAI', 2\.0, 'individual'\)"):
            emit_results(rows + [replace(rows[0], fdr=0.5)], tmp_path / "out")
        # 2 and 2.0 name one cell, as in SweepSpec
        with pytest.raises(ValueError, match="repeats the cell"):
            emit_results(rows + [replace(rows[0], beta=2)], tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_betas_that_print_alike_are_an_error(self, tmp_path):
        # a full grid at 2 and 2.0000001 would give each panel two rows labelled 2
        rows = self.rows()
        rows += [replace(row, beta=2.0000001) for row in rows if row.beta == 2.0]
        with pytest.raises(ValueError, match="duplicate beta values: two print as 2$"):
            emit_results(rows, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("method", "BH", "unknown method: 'BH'"),
            ("layer", "capsule", "unknown layer: 'capsule'"),
            ("beta", float("nan"), "non-finite beta: nan"),
            ("beta", float("inf"), "non-finite beta: inf"),
        ],
    )
    def test_a_row_outside_the_grid_is_named(self, tmp_path, field, value, message):
        # both rows of one cell, so the table is otherwise a full grid
        rows = self.rows()
        rows[:2] = [replace(row, **{field: value}) for row in rows[:2]]
        with pytest.raises(ValueError, match=message):
            emit_results(rows, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_a_missing_cell_is_an_error(self, tmp_path):
        missing = r"not a full grid; missing \[\('GAI', 2\.0, 'individual'\)\]"
        with pytest.raises(ValueError, match=missing):
            emit_results(self.rows()[1:], tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_writes_results_and_six_panels(self, tmp_path):
        paths = emit_results(self.rows(), tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == [
            "panel_fdr_group.csv",
            "panel_fdr_individual.csv",
            "panel_mfdr_group.csv",
            "panel_mfdr_individual.csv",
            "panel_power_group.csv",
            "panel_power_individual.csv",
            "results.csv",
        ]

    def test_results_round_trip_at_emitted_precision(self, tmp_path):
        rows = self.rows()
        emit_results(rows, tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["method", "beta", "layer"]
        assert len(lines) == 1 + len(rows)
        parsed = {}
        for line in lines[1:]:
            fields = line.split(",")
            parsed[(fields[0], float(fields[1]), fields[2])] = [
                float(x) for x in fields[3:9]
            ]
        for row in rows:
            values = parsed[(row.method, row.beta, row.layer)]
            for got, want in zip(
                values,
                [row.fdr, row.fdr_se, row.mfdr, row.mfdr_se, row.power, row.power_se],
            ):
                assert got == pytest.approx(want, rel=1e-5, abs=1e-9)

    def test_rerun_is_byte_identical(self, tmp_path):
        emit_results(self.rows(), tmp_path / "a")
        emit_results(self.rows(), tmp_path / "b")
        for name in ("results.csv", "panel_power_group.csv", "panel_mfdr_individual.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_panel_layout(self, tmp_path):
        emit_results(self.rows(), tmp_path)
        lines = (tmp_path / "panel_power_individual.csv").read_text().splitlines()
        assert lines[0] == "beta,GAI,ml-LORD"
        assert len(lines) == 3  # header + one row per beta

    def test_emitted_rates_live_in_unit_interval(self, tmp_path):
        emit_results(self.rows(), tmp_path)
        for line in (tmp_path / "results.csv").read_text().splitlines()[1:]:
            fields = line.split(",")
            fdr, _, mfdr, _, power, _ = (float(x) for x in fields[3:9])
            assert 0.0 <= fdr <= 1.0
            assert 0.0 <= mfdr <= 1.0
            assert 0.0 <= power <= 1.0


def test_sweep_csvs_match_the_golden_digest(tmp_path):
    # every tally, aggregate and CSV byte of ten panels, and a beta that _fmt
    # prints as 1e+06, in one hash of each emitted file's name and bytes
    sweeps = [
        SweepSpec(spec, beta_grid=(1.0, 4.0), replicates=20, master_seed=0)
        for spec in standard_scenarios().values()
    ]
    sweeps.append(SweepSpec(ScenarioSpec(), beta_grid=(10**6, 2), replicates=5, master_seed=1))
    digest = hashlib.sha256()
    for i, sweep in enumerate(sweeps):
        for path in emit_results(run_sweep(sweep), tmp_path / str(i)):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == (
        "a005177a2fbd2a9279348a3258d4e6d6e4c56325f9731abaf50aef11d6f5c5b1"
    )


def test_standard_scenarios_cover_every_panel():
    panels = standard_scenarios()
    assert len(panels) == 10
    structures = {spec.structure for spec in panels.values()}
    patterns = {spec.pattern for spec in panels.values()}
    strengths = {spec.strength for spec in panels.values()}
    assert structures == {"block", "interleaved", "unbalanced"}
    assert patterns == {"fixed", "random", "markov"}
    assert strengths == {"constant", "increasing", "decreasing"}
    ks = {spec.k for spec in panels.values()}
    assert ks == {100.0, 50.0}
