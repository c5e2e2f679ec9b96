import datetime
import json
import re
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import bayesdn.harness as harness
from bayesdn.config import decode
from bayesdn.gibbs import STACK_MIN_CHAINS, GibbsConfig
from bayesdn.harness import (
    ExperimentConfig,
    RealAnalysisConfig,
    ResultsTable,
    emit_real,
    emit_results_table,
    emit_study,
    run_real_analysis,
    run_synthetic_experiment,
    run_threshold_study,
    task_seeds,
)
from bayesdn.ista import IstaConfig
from bayesdn.metrics import LossReport
from bayesdn.pipeline import read_csv, write_csv
from bayesdn.structures import StructureSpec, make_structure, sample_gaussian

TINY = ExperimentConfig(
    structures=("ar2",),
    dims=(6,),
    sample_sizes=(40,),
    replications=2,
    gibbs=GibbsConfig(burn_in=40, retained=80),
    master_seed=7,
)


class TestSeeds:
    def test_deterministic_function(self):
        assert task_seeds(5, 1, 0, 3) == task_seeds(5, 1, 0, 3)

    def test_pairwise_distinct_within_run(self):
        seen = set()
        for si in range(3):
            for di in range(2):
                for rep in range(10):
                    s = tuple(task_seeds(0, si, di, rep))
                    assert s not in seen
                    seen.add(s)

    def test_changes_with_master_seed(self):
        assert task_seeds(0, 0, 0, 0) != task_seeds(1, 0, 0, 0)


class TestSyntheticExperiment:
    def test_deterministic(self):
        t1 = run_synthetic_experiment(TINY)
        t2 = run_synthetic_experiment(TINY)
        for key in t1.entries:
            np.testing.assert_array_equal(
                t1.entries[key]["values"], t2.entries[key]["values"]
            )

    def test_table_shape(self):
        table = run_synthetic_experiment(TINY)
        keys = set(table.entries)
        assert ("ar2", 6, "bnet", "l1") in keys
        assert ("ar2", 6, "dnet", "mcc") in keys
        for e in table.entries.values():
            assert e["values"].size == 2
            assert e["n"] == 40

    def test_error_context(self, monkeypatch):
        def broken(x1, x2, cfg):
            raise ValueError("solver broke down")

        monkeypatch.setattr(harness, "estimate_dnet", broken)
        cfg = ExperimentConfig(
            structures=("ar2",), dims=(6,), sample_sizes=(40,), replications=1, estimators=("dnet",)
        )
        with pytest.raises(RuntimeError, match="synthetic experiment failed: solver broke down"):
            run_synthetic_experiment(cfg)

    @pytest.mark.parametrize("run", [run_synthetic_experiment, run_threshold_study])
    @pytest.mark.parametrize("threads", [0, -1])
    def test_bad_worker_count_is_a_value_error(self, run, threads):
        # the synthetic runner used to wrap the pool's refusal in its RuntimeError;
        # counts below 1 start no process
        with pytest.raises(ValueError, match="max_workers must be greater than 0"):
            run(TINY, threads=threads)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_chain_names_its_task(self, tmp_path, monkeypatch, capsys):
        # one chain of a stacked run overflows in its first sweep: the
        # error names its structure, p, replication, sample and sweep, and
        # the command exits 1
        from bayesdn.cli import main

        build = harness.bnet_requests
        broken = "ar2 p=6 replication 1 sample 2"

        def breaking_requests(x1, x2, cfg, seed, labels):
            return [
                replace(req, scatter=req.scatter * 1e250) if req.label == broken else req
                for req in build(x1, x2, cfg, seed, labels)
            ]

        monkeypatch.setattr(harness, "bnet_requests", breaking_requests)
        replications = max(2, -(-STACK_MIN_CHAINS // 2))
        rc = main(
            ["synthetic", "--structures", "ar2", "--dims", "6", "--sizes", "40",
             "--replications", str(replications), "--estimators", "bnet",
             "--out", str(tmp_path / "o"), "--config", str(_tiny_cli_config(tmp_path))]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: synthetic experiment failed: {broken}: sweep 0: ")

    def test_mock_estimator_scores_perfectly(self, monkeypatch):
        # the Bayesian estimate is formed from its two chains and its two
        # tight references in the scoring stage, so that is where a perfect
        # estimator is put in
        def perfect(chains, tight, cfg):
            assert len(chains) == len(tight) == 2
            pair = make_structure(StructureSpec("ar2", tight[0].shape[0]))
            return pair.true_delta, pair.true_adjacency

        monkeypatch.setattr(harness, "_bnet_estimate", perfect)
        table = run_synthetic_experiment(
            ExperimentConfig(
                structures=("ar2",),
                dims=(6,),
                sample_sizes=(40,),
                replications=2,
                estimators=("bnet",),
                gibbs=GibbsConfig(burn_in=1, retained=1),
                master_seed=3,
            )
        )
        for metric in ("l1", "l2", "el1", "el2", "maxel1", "minel1"):
            assert table.entries[("ar2", 6, "bnet", metric)]["median"] == 0.0
        assert table.entries[("ar2", 6, "bnet", "mcc")]["median"] == 1.0


def column_median(values):
    """``_nanmedian_columns`` of one column, as ``run_synthetic_experiment`` takes it."""
    return harness._nanmedian_columns(np.asarray(values)[:, None])[0]


class TestAggregation:
    def test_median_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(11)
        ordered = sorted(values)
        assert column_median(values) == ordered[5]
        values = rng.standard_normal(8)
        ordered = sorted(values)
        assert column_median(values) == pytest.approx(0.5 * (ordered[3] + ordered[4]))

    def test_median_permutation_invariant(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(9)
        m = column_median(values)
        for _ in range(5):
            perm = rng.permutation(values)
            assert column_median(perm) == m

    def test_median_with_nas(self):
        vals = np.array([1.0, np.nan, 3.0])
        assert column_median(vals) == 2.0
        assert np.isnan(column_median(np.array([np.nan, np.nan])))

    def test_column_median_is_the_median_of_the_finite_values(self):
        # the synthetic table's medians and se_mad's centre were np.median of
        # each metric's finite values; one sort over the table gives the same bits
        rng = np.random.default_rng(45)
        for _ in range(2000):
            values = rng.standard_normal(int(rng.integers(1, 60)))
            values[rng.random(values.size) < rng.random()] = np.nan
            finite = values[~np.isnan(values)]
            got = column_median(values)
            if finite.size == 0:
                assert np.isnan(got) and np.isnan(harness._se_mad(values, got))
                continue
            want = np.median(finite)
            assert got.tobytes() == want.tobytes()
            mad = np.median(np.abs(finite - want))
            assert harness._se_mad(values, got) == float(1.4826 * mad / np.sqrt(finite.size))


class TestThresholdStudy:
    def test_reports_per_structure(self):
        cfg = ExperimentConfig(
            structures=("ar2", "cluster"),
            dims=(8,),
            sample_sizes=(100,),
            replications=2,
            estimators=("bnet",),
            gibbs=GibbsConfig(burn_in=10, retained=20),
            master_seed=1,
        )
        studies = run_threshold_study(cfg)
        assert len(studies) == 2
        for st in studies:
            rs = st.rules["mean"]
            assert rs.median_mcc.size == len(cfg.sweep_grid)
            assert len(rs.per_rep_best_eta) == 2
            assert rs.best_eta in st.grid

    def test_ratio_rule_runs(self):
        cfg = ExperimentConfig(
            structures=("cluster",),
            dims=(6,),
            sample_sizes=(80,),
            replications=1,
            rules=("mean", "ratio"),
            gibbs=GibbsConfig(burn_in=30, retained=60),
            master_seed=2,
        )
        studies = run_threshold_study(cfg)
        assert set(studies[0].rules) == {"mean", "ratio"}

    def test_column_median_is_nanmedian(self):
        rng = np.random.default_rng(44)
        for _ in range(400):
            rows, cols = int(rng.integers(1, 60)), int(rng.integers(1, 25))
            a = rng.standard_normal((rows, cols))
            a[rng.random((rows, cols)) < rng.random()] = np.nan
            a[:, rng.random(cols) < 0.2] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
                want = np.nanmedian(a, axis=0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = harness._nanmedian_columns(a)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _both_rules_config(tmp_path):
    path = tmp_path / "rules.json"
    gibbs = {"burn_in": 5, "retained": 10}
    path.write_text(json.dumps({"rules": ["mean", "ratio"], "gibbs": gibbs}))
    return path


def _spy_batches(monkeypatch) -> list:
    """Record the requests of every ``gibbs.run_batch`` call made in this process."""
    import bayesdn.gibbs as gibbs

    batches, run_batch = [], gibbs.run_batch

    def spy(requests):
        batches.append(list(requests))
        return run_batch(requests)

    monkeypatch.setattr(gibbs, "run_batch", spy)
    return batches


class TestOnePass:
    # synthetic studies its rules on bnet's own chains, so a run that wants
    # both the table and the study runs each chain once
    def test_both_rules_run_two_chains_per_task(self, tmp_path, monkeypatch):
        from bayesdn.cli import main

        batches = _spy_batches(monkeypatch)
        out = tmp_path / "o"
        rc = main(["synthetic", "--structures", "ar2,cluster", "--dims", "6", "--sizes", "40",
                   "--replications", "2", "--config", str(_both_rules_config(tmp_path)),
                   "--out", str(out)])
        assert rc == 0
        requests = [req for batch in batches for req in batch]
        assert len(requests) == 2 * 2 * 2
        assert len({req.seed for req in requests}) == len(requests)
        study = json.loads((out / "threshold_study.json").read_text())
        assert [set(st["rules"]) for st in study] == [{"mean", "ratio"}] * 2

    def test_study_is_sweeps(self, tmp_path):
        from bayesdn.cli import main

        config = _both_rules_config(tmp_path)
        outputs = {}
        for command in ("synthetic", "sweep"):
            for threads in ("1", "2"):
                out = tmp_path / f"{command}{threads}"
                rc = main([command, "--structures", "ar2,circle", "--dims", "6", "--sizes", "40",
                           "--replications", "2", "--seed", "5", "--config", str(config),
                           "--threads", threads, "--out", str(out)])
                assert rc == 0
                outputs[command, threads] = [
                    (out / name).read_bytes() for name in ("threshold_study.json", "manifest.json")
                ]
        first = outputs["sweep", "1"]
        assert all(got == first for got in outputs.values())

    def test_dnet_only_studies_nothing(self, tmp_path, monkeypatch):
        batches = _spy_batches(monkeypatch)
        made = []
        monkeypatch.setattr(harness, "bnet_requests", lambda *a: made.append(a))
        monkeypatch.setattr(harness, "posterior_partial_corr_mean", lambda *a: made.append(a))
        cfg = replace(TINY, estimators=("dnet",), rules=("mean", "ratio"))
        table = run_synthetic_experiment(cfg)
        assert table.studies == () and batches == [] and made == []
        emit_results_table(table, cfg, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "results.csv"]


    def test_mean_rule_alone_runs_no_chain(self, monkeypatch):
        # the mean rule reads only the scatters, so its tasks do not chain
        batches = _spy_batches(monkeypatch)
        (study,) = run_threshold_study(replace(TINY, rules=("mean",)))
        assert batches == [] and set(study.rules) == {"mean"}

    def test_ratio_rule_reads_two_chains_per_task(self, monkeypatch):
        # zeroing every chain's partial_mean empties every ratio graph, so
        # each threshold misses each true edge and no MCC is defined
        import bayesdn.gibbs as gibbs

        batches = _spy_batches(monkeypatch)
        spy = gibbs.run_batch

        def zeroed(requests):
            return [replace(s, partial_mean=np.zeros_like(s.partial_mean)) for s in spy(requests)]

        monkeypatch.setattr(gibbs, "run_batch", zeroed)
        cfg = replace(TINY, rules=("ratio",))
        (study,) = run_threshold_study(cfg)
        labels = [req.label for batch in batches for req in batch]
        assert sorted(labels) == [
            f"ar2 p=6 replication {rep} sample {k}" for rep in range(2) for k in (1, 2)
        ]
        edges = [
            np.triu(make_structure(StructureSpec("ar2", 6, seed=seeds[0])).true_adjacency).sum()
            for seeds in harness._manifest_seeds(cfg)
        ]
        rs = study.rules["ratio"]
        np.testing.assert_array_equal(rs.median_sparsity_error, np.median(edges))
        assert np.isnan(rs.best_mcc) and set(rs.per_rep_best_eta) == {cfg.sweep_grid[0]}


class TestConfigSerialization:
    def test_round_trip(self):
        d = asdict(TINY)
        back = decode(ExperimentConfig, d)
        assert back == TINY

    def test_round_trip_with_penalty_grid(self):
        cfg = replace(TINY, ista=IstaConfig(max_iters=50, penalty_grid=(0.05, 0.1, 0.2)))
        back = decode(ExperimentConfig, json.loads(json.dumps(asdict(cfg))))
        assert back == cfg and hash(back) == hash(cfg)

    def test_real_config_round_trip(self):
        cfg = RealAnalysisConfig(
            csv_path="x.csv",
            date_column="date",
            boundaries=("2020-06-06",),
            gibbs=GibbsConfig(burn_in=5, retained=10),
        )
        back = decode(RealAnalysisConfig, asdict(cfg))
        assert back == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(structures=("nope",))
        with pytest.raises(ValueError):
            ExperimentConfig(dims=(10,), sample_sizes=(50, 100))
        with pytest.raises(ValueError, match="repeated"):
            # results are keyed by dimension, so a second n at p=10 would overwrite the first
            ExperimentConfig(dims=(10, 10), sample_sizes=(100, 200))
        # the bounds are what the estimators need: MIN_DIM for the designs,
        # two rows per sample for estimate_bnet
        for dims, sizes, match in (
            ((6,), (0,), "sample_sizes .* >= 2"),
            ((0,), (40,), "dims .* >= 4"),
            ((6, 8), (40, -1), "sample_sizes .* >= 2"),
        ):
            with pytest.raises(ValueError, match=match):
                ExperimentConfig(dims=dims, sample_sizes=sizes)
        with pytest.raises(ValueError):
            RealAnalysisConfig(csv_path="x.csv")  # neither split style
        for eta in (1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
                ExperimentConfig(eta=eta)
            with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\]"):
                RealAnalysisConfig(csv_path="x.csv", class_column="label", eta=eta)
        for grid in ((), (0.3, 0.2), (0.3, 0.3), (0.5, 1.5), (-0.1, 0.2), (0.2, float("nan"))):
            with pytest.raises(ValueError, match="sweep_grid"):
                ExperimentConfig(sweep_grid=grid)
        assert ExperimentConfig(eta=0.0, sweep_grid=(0.0, 1.0)).eta == 0.0


class TestEmit:
    def test_empty_table_header_only(self, tmp_path):
        emit_results_table(ResultsTable(entries={}), TINY, str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines == ["structure,p,n,estimator,metric,median,se_mad,se_boot"]
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_hash_tracks_config(self, tmp_path):
        from bayesdn.harness import write_manifest

        h1 = write_manifest(str(tmp_path), {"a": 1}, [])
        h2 = write_manifest(str(tmp_path), {"a": 1}, [])
        h3 = write_manifest(str(tmp_path), {"a": 2}, [])
        assert h1 == h2 and h1 != h3

    def test_sweep_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            structures=("cluster",),
            dims=(6,),
            sample_sizes=(60,),
            replications=1,
            gibbs=GibbsConfig(burn_in=10, retained=20),
            master_seed=4,
        )
        studies = run_threshold_study(cfg)
        emit_study(studies, cfg, str(tmp_path))
        payload = json.loads((tmp_path / "threshold_study.json").read_text())
        st, rs = studies[0], studies[0].rules["mean"]
        got = payload[0]["rules"]["mean"]
        np.testing.assert_array_equal(got["median_sparsity_error"], rs.median_sparsity_error)
        recon = [np.nan if v is None else v for v in got["median_mcc"]]
        np.testing.assert_array_equal(np.isnan(recon), np.isnan(rs.median_mcc))
        np.testing.assert_array_equal(
            np.asarray(recon)[~np.isnan(rs.median_mcc)],
            rs.median_mcc[~np.isnan(rs.median_mcc)],
        )
        assert got["best_eta"] == rs.best_eta
        assert payload[0]["grid"] == [float(x) for x in st.grid]

    def test_byte_identical_across_thread_counts(self, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out1, 1), (out2, 2)):
            table = run_synthetic_experiment(TINY, threads=threads)
            emit_results_table(table, TINY, str(out))
        for name in ("results.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("tasks", [-(-STACK_MIN_CHAINS // 2), STACK_MIN_CHAINS + 1])
    def test_byte_identical_however_the_workers_cut_the_stacks(self, tmp_path, tasks):
        # the run's chains are stacked (the size rule sees all of them); with
        # few tasks the group stays one stack at 2 and 3 workers, whose
        # shares would fall below STACK_MIN_CHAINS, and with more it is cut
        # into two stacks at 2 and 3 workers
        cfg = ExperimentConfig(
            structures=("ar2",),
            dims=(6,),
            sample_sizes=(40,),
            replications=tasks,
            rules=("mean", "ratio"),
            gibbs=GibbsConfig(burn_in=10, retained=20),
            master_seed=23,
        )
        assert 2 * tasks >= STACK_MIN_CHAINS
        names = ("results.csv", "threshold_study.json", "manifest.json")
        outputs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            emit_results_table(run_synthetic_experiment(cfg, threads=threads), cfg, str(out))
            emit_study(run_threshold_study(cfg, threads=threads), cfg, str(out))
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1] == outputs[2]

    def test_multi_group_byte_identical_across_thread_counts(self, tmp_path):
        cfg = ExperimentConfig(
            structures=("ar2", "cluster"),
            dims=(5, 6),
            sample_sizes=(40, 50),
            replications=2,
            gibbs=GibbsConfig(burn_in=10, retained=20),
            master_seed=17,
        )
        names = ("results.csv", "threshold_study.json", "manifest.json")
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            emit_results_table(run_synthetic_experiment(cfg, threads=threads), cfg, str(out))
            studies = run_threshold_study(cfg, threads=threads)
            emit_study(studies, cfg, str(out))
            assert [(st.structure, st.dim, st.sample_size) for st in studies] == [
                ("ar2", 5, 40),
                ("ar2", 6, 50),
                ("cluster", 5, 40),
                ("cluster", 6, 50),
            ]
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1]
        seeds = json.loads(outputs[0]["manifest.json"])["seeds"]
        assert seeds == [
            task_seeds(17, si, di, rep) for si in range(2) for di in range(2) for rep in range(2)
        ]


def phase_csv(tmp_path, pair, n1=90, n2=110, identical=False):
    x1 = sample_gaussian(pair.theta1, n1, seed=31)
    x2 = x1.copy() if identical else sample_gaussian(pair.theta2, n2, seed=32)
    rows = np.vstack([x1, x2])
    start = datetime.date(2021, 1, 1)
    dates = [start + datetime.timedelta(days=k) for k in range(rows.shape[0])]
    path = tmp_path / "phases.csv"
    write_csv(path, [f"m{k}" for k in range(rows.shape[1])], rows, dates=dates)
    boundary = (start + datetime.timedelta(days=n1)).isoformat()
    return path, boundary


class TestRealAnalysis:
    def test_identical_phases_null(self, tmp_path):
        pair = make_structure(StructureSpec("ar1", 5))
        path, boundary = phase_csv(tmp_path, pair, n1=80, n2=80, identical=True)
        cfg = RealAnalysisConfig(
            csv_path=str(path),
            date_column="date",
            boundaries=(boundary,),
            gibbs=GibbsConfig(burn_in=50, retained=100),
            dn_mode="difference",
            master_seed=9,
        )
        result = run_real_analysis(cfg)
        assert result.box_m_p_value == pytest.approx(1.0)
        assert not result.network.adjacency.any()

    def test_known_structures_recovered(self, tmp_path):
        pair = make_structure(StructureSpec("cluster", 6))
        path, boundary = phase_csv(tmp_path, pair, n1=150, n2=150)
        cfg = RealAnalysisConfig(
            csv_path=str(path),
            date_column="date",
            boundaries=(boundary,),
            gibbs=GibbsConfig(burn_in=100, retained=200),
            dn_mode="difference",
            master_seed=10,
        )
        result = run_real_analysis(cfg)
        from bayesdn.metrics import classification_scores, confusion

        mcc = classification_scores(
            confusion(result.network.adjacency, pair.true_adjacency)
        ).mcc
        assert mcc > 0.3
        assert result.box_m_p_value < 0.01

    def test_class_column_split(self, tmp_path):
        pair = make_structure(StructureSpec("cluster", 5))
        x1 = sample_gaussian(pair.theta1, 70, seed=41)
        x2 = sample_gaussian(pair.theta2, 90, seed=42)
        rows = np.vstack(
            [
                np.column_stack([x1, np.zeros(70)]),
                np.column_stack([x2, np.ones(90)]),
            ]
        )
        path = tmp_path / "labeled.csv"
        write_csv(path, ["a", "b", "c", "d", "e", "label"], rows)
        cfg = RealAnalysisConfig(
            csv_path=str(path),
            class_column="label",
            gibbs=GibbsConfig(burn_in=40, retained=80),
            master_seed=12,
        )
        result = run_real_analysis(cfg)
        assert result.group_sizes == (70, 90)
        assert result.columns == ["a", "b", "c", "d", "e"]
        assert result.box_m_p_value < 0.05

    def test_class_values_match_exactly(self, tmp_path):
        # np.isclose used to put 1 and 1.000001 into both groups
        rows = np.column_stack([np.arange(8.0), np.arange(8.0) ** 2, [1, 1.000001] * 4])
        path = tmp_path / "close.csv"
        write_csv(path, ["a", "b", "label"], rows)
        cfg = RealAnalysisConfig(csv_path=str(path), class_column="label")
        _, names, g1, g2 = harness._two_groups(cfg)
        assert names == ("1.0", "1.000001")
        np.testing.assert_array_equal(g1[:, 0], [0, 2, 4, 6])
        np.testing.assert_array_equal(g2[:, 0], [1, 3, 5, 7])

    def test_unmatched_compare_value_names_value_and_column(self, tmp_path, capsys):
        # it used to exit 2 with "need at least 3 rows", naming neither
        from bayesdn.cli import main

        rows = np.column_stack([np.arange(8.0), np.arange(8.0) ** 2, [0, 1] * 4])
        path = tmp_path / "labeled.csv"
        write_csv(path, ["a", "b", "label"], rows)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"class_column": "label", "compare": [0, "2"]}))
        out = tmp_path / "o"
        assert main(["real", "--csv", str(path), "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error: no 'label' row holds compare value '2'" in err

    def test_constant_column_names_group_and_header(self, tmp_path, capsys):
        # it used to read "column 0 is constant", naming neither
        from bayesdn.cli import main

        rows = np.column_stack([np.arange(8.0), [2.0, 5.0] * 4, np.arange(8.0) ** 2, [0, 1] * 4])
        rows[1::2, 1] = np.arange(4.0)  # "b" is constant in group 0 only
        path = tmp_path / "labeled.csv"
        write_csv(path, ["a", "b", "c", "label"], rows)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"class_column": "label"}))
        out = tmp_path / "o"
        assert main(["real", "--csv", str(path), "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: group '0.0': column 'b' is constant" in capsys.readouterr().err

    def test_byte_identical_across_thread_counts(self, tmp_path):
        from bayesdn.cli import main

        pair = make_structure(StructureSpec("ar1", 4))
        path, boundary = phase_csv(tmp_path, pair, n1=60, n2=60)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"csv_path": str(path), "date_column": "date",
                                   "boundaries": [boundary], "master_seed": 11,
                                   "gibbs": {"burn_in": 30, "retained": 60}}))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            argv = ["real", "--config", str(cfg), "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 7 and outputs[0] == outputs[1]

    def test_outputs_round_trip(self, tmp_path):
        pair = make_structure(StructureSpec("ar1", 4))
        path, boundary = phase_csv(tmp_path, pair, n1=60, n2=60)
        cfg = RealAnalysisConfig(
            csv_path=str(path),
            date_column="date",
            boundaries=(boundary,),
            gibbs=GibbsConfig(burn_in=30, retained=60),
            master_seed=11,
        )
        result = run_real_analysis(cfg)
        outdir = tmp_path / "out"
        emit_real(result, cfg, str(outdir))
        back = read_csv(outdir / "delta_hat.csv")
        np.testing.assert_array_equal(back.rows, result.network.delta_hat)
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["group_sizes"] == [60, 60]


class TestCli:
    def test_synthetic_exit_zero(self, tmp_path):
        from bayesdn.cli import main

        rc = main(
            [
                "synthetic",
                "--structures",
                "ar2",
                "--dims",
                "6",
                "--sizes",
                "40",
                "--replications",
                "1",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "o"),
                "--config",
                str(_tiny_cli_config(tmp_path)),
            ]
        )
        assert rc == 0
        assert (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("field", ["r", "lambda_init"])
    @pytest.mark.parametrize("command", ["sample", "synthetic"])
    def test_penalty_overflow_names_the_field(self, tmp_path, capsys, command, field):
        # at 1e300, and at the largest float the config accepts, lam**2
        # overflows: the chain fails naming the field and the overflow, and
        # numpy warns of nothing
        from bayesdn.cli import main

        for value in (1e300, sys.float_info.max):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(_penalty_run(tmp_path, command, field, value, burn_in=2, retained=3))
            assert rc == 1
            err = capsys.readouterr().err
            assert re.search(r"sweep \d+: penalty overflow: ", err), err
            assert f"gibbs.{field} = {value:g}" in err
            assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("field", ["r", "lambda_init"])
    @pytest.mark.parametrize("command", ["sample", "synthetic"])
    def test_large_penalty_that_runs_writes_finite_numbers(self, tmp_path, command, field):
        # 1e100 still runs: the chains shrink every edge to about 1e-60,
        # and every number the command writes is finite
        from bayesdn.cli import main

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(_penalty_run(tmp_path, command, field, 1e100, burn_in=20, retained=30))
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        written = sorted((tmp_path / "o").iterdir())
        assert written
        for path in written:
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                numbers = _json_numbers(json.loads(text))
            else:
                cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
                numbers = [float(c) for c in cells if c != "NA" and re.fullmatch(r"[-+.\deE]+", c)]
            assert numbers and all(np.isfinite(numbers)), path.name

    def test_missing_csv_exit_code(self, tmp_path):
        from bayesdn.cli import main

        rc = main(["sample", "--csv", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_cell_exit_code(self, tmp_path, capsys, cell):
        from bayesdn.cli import main

        csv_path = tmp_path / "x.csv"
        csv_path.write_text(f"a,b,c\n1,2,3\n4,{cell},6\n7,8,9\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sample", "--csv", str(csv_path), "--out", str(out)]) == 2
        assert f"x.csv:3: non-finite value '{cell}' in column 'b'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        from bayesdn.cli import main

        cfg = tmp_path / "bad.json"
        cfg.write_text('{"structures": ["nope"]}')
        rc = main(["synthetic", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        for bad in ('{"gibbs": 3}', "[1]"):
            cfg.write_text(bad)
            for command in ("synthetic", "real"):
                assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        cfg.write_text('{"ista": 3}')
        for command in ("synthetic", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert not out.exists()
        out = tmp_path / "o"
        rc = main(["synthetic", "--dims", "10,10", "--sizes", "100,200", "--out", str(out)])
        assert rc == 2 and not out.exists()
        # dims below MIN_DIM and fewer than two rows per sample are refused too
        for flags in (["--dims", "6", "--sizes", "0"], ["--dims", "0", "--sizes", "40"],
                      ["--dims", "2", "--sizes", "40"], ["--dims", "6", "--sizes", "1"]):
            for command in ("synthetic", "sweep"):
                assert main([command, *flags, "--out", str(out)]) == 2 and not out.exists()

    @pytest.mark.parametrize("mode", ["difference", "union"])
    def test_synthetic_eta_out_of_range_exit_code(self, tmp_path, capsys, mode):
        # before the config checked eta, difference mode wrote an empty graph
        # and union mode failed only after its chains had run
        from bayesdn.cli import main

        out = tmp_path / "o"
        rc = main(["synthetic", "--structures", "ar2", "--dims", "6", "--sizes", "40",
                   "--replications", "1", "--estimators", "bnet", "--mode", mode,
                   "--eta", "1.5", "--out", str(out), "--config", str(_tiny_cli_config(tmp_path))])
        assert rc == 2 and not out.exists()
        assert "config error: eta must lie in [0, 1], got 1.5" in capsys.readouterr().err

    def test_real_eta_out_of_range_exit_code(self, tmp_path, capsys):
        # before the config checked eta, -0.5 gave a complete graph
        from bayesdn.cli import main

        pair = make_structure(StructureSpec("ar1", 4))
        path, boundary = phase_csv(tmp_path, pair, n1=40, n2=40)
        cfg = tmp_path / "real.json"
        cfg.write_text(json.dumps({"csv_path": str(path), "date_column": "date",
                                   "boundaries": [boundary], "eta": -0.5}))
        out = tmp_path / "o"
        assert main(["real", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: eta must lie in [0, 1], got -0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [[], [0.4, 0.3], [0.5, 1.5]])
    def test_sweep_grid_exit_code(self, tmp_path, capsys, grid):
        # a ratio-rule grid above 1 is refused like any other
        from bayesdn.cli import main

        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"sweep_grid": grid, "rules": ["mean", "ratio"]}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: sweep_grid must be" in capsys.readouterr().err

    def test_sample_overflowing_scatter_exit_code(self, tmp_path, capsys):
        # 1e200 is finite, but its square overflows the scatter to inf
        from bayesdn.cli import main

        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b,c\n1,2,3\n4,1e200,6\n7,8,9\n5,3,1\n", encoding="utf-8")
        out = tmp_path / "o"
        with np.errstate(over="ignore"):
            rc = main(["sample", "--csv", str(csv_path), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "config error: scatter is not finite" in capsys.readouterr().err

    def test_synthetic_accepts_fewer_samples_than_dimensions(self, tmp_path):
        import csv

        from bayesdn.cli import main

        out = tmp_path / "o"
        rc = main(["synthetic", "--structures", "ar2", "--dims", "30", "--sizes", "20",
                   "--replications", "1", "--estimators", "bnet", "--seed", "5",
                   "--out", str(out), "--config", str(_tiny_cli_config(tmp_path))])
        assert rc == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["p"], r["n"]) for r in rows} == {("30", "20")}
        for r in rows:
            if r["metric"] in LossReport._fields:
                assert np.isfinite(float(r["median"])), r
            else:  # a score is NA only when its denominator class is empty
                assert r["median"] == "NA" or np.isfinite(float(r["median"])), r

    @pytest.mark.parametrize("flag", [["--eta", "0.9"], ["--estimators", "dnet"]])
    def test_sweep_rejects_estimator_flags(self, tmp_path, flag):
        from bayesdn.cli import main

        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *flag, "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_refused(self, tmp_path, capsys, threads):
        # such counts used to run in-process without a word
        from bayesdn.cli import main

        out = tmp_path / "o"
        for command in (["synthetic"], ["sweep"], ["real"], ["sample", "--csv", "x.csv"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--threads", threads, "--out", str(out)])
            assert exc.value.code == 2 and not out.exists()
            assert f"--threads: must be >= 1, got {threads}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "10,", "1.5"])
    @pytest.mark.parametrize("flag", ["--dims", "--sizes"])
    def test_bad_int_list_names_its_flag(self, tmp_path, capsys, flag, value):
        # these used to read "config error: invalid literal for int() with base 10"
        from bayesdn.cli import main

        out = tmp_path / "o"
        for command in ("synthetic", "sweep"):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, value, "--out", str(out)])
            assert exc.value.code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert f"argument {flag}: invalid comma list of ints: {value!r}" in err

    def test_sample_refuses_more_than_one_thread(self, tmp_path, capsys):
        # sample runs one chain, so a second worker would sit idle; the CSV
        # does not exist, so reading it before the check would exit 3
        from bayesdn.cli import main

        out = tmp_path / "o"
        rc = main(["sample", "--csv", str(tmp_path / "missing.csv"), "--threads", "2",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "config error: --threads must be 1 for sample" in capsys.readouterr().err

    def test_sample_constant_column_names_header(self, tmp_path, capsys):
        # it used to read "column 0 is constant", naming no header
        from bayesdn.cli import main

        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b,c\n1,2,3\n1,5,6\n1,8,0\n1,3,1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sample", "--csv", str(csv_path), "--nonparanormal", "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error: column 'a' is constant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("window", "group 'phase1' has 4 rows; moving_average_window 6 needs at least 8"),
            (
                "smoothed",
                "group 'phase1' has 4 rows of 3 columns; moving_average_window 2 needs at least 5",
            ),
            ("class", "group '0.0' has 2 rows; needs at least 3"),
            ("sample", "{csv}: need at least 3 rows, got 2"),
        ],
        ids=["window", "smoothed", "class", "sample"],
    )
    def test_short_input_names_its_group_or_file(
        self, tmp_path, capsys, monkeypatch, case, message
    ):
        # these used to read "series of length 4 shorter than window 6" and
        # "need at least 3 rows", naming neither the group nor the file; a
        # group left with no more rows than columns after smoothing used to
        # fail in Box's M, after both chains had run
        from bayesdn.cli import main

        batches = _spy_batches(monkeypatch)
        path, out = tmp_path / "x.csv", tmp_path / "o"
        config = tmp_path / "c.json"
        if case in ("window", "smoothed"):
            start = datetime.date(2021, 1, 1)
            dates = [start + datetime.timedelta(days=k) for k in range(14)]
            rows = np.random.default_rng(0).standard_normal((14, 3))
            write_csv(path, ["a", "b", "c"], rows, dates=dates)
            config.write_text(json.dumps({
                "date_column": "date",
                "boundaries": ["2021-01-05"],
                "moving_average_window": 6 if case == "window" else 2,
            }))
        elif case == "class":
            rows = np.column_stack([np.arange(8.0), np.arange(8.0) ** 2, [0, 0] + [1] * 6])
            write_csv(path, ["a", "b", "label"], rows)
            config.write_text(json.dumps({"class_column": "label"}))
        else:
            path.write_text("a,b\n1,2\n3,5\n", encoding="utf-8")
        command = ["real", "--config", str(config)]
        if case == "sample":
            command = ["sample", "--nonparanormal"]
        assert main([*command, "--csv", str(path), "--out", str(out)]) == 2
        assert not out.exists() and batches == []
        assert f"config error: {message.format(csv=path)}" in capsys.readouterr().err

    def test_repeated_header_exit_code(self, tmp_path, capsys):
        # a repeated name used to be read as two columns and written back twice
        from bayesdn.cli import main

        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a, a ,b\n1,2,3\n4,5,6\n7,8,0\n5,3,1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sample", "--csv", str(csv_path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"config error: {csv_path}: repeated column name 'a' in header" in err

    @pytest.mark.parametrize("command", ["synthetic", "sweep", "real", "sample"])
    def test_chain_seed_refused(self, tmp_path, capsys, command):
        # every command seeds its chains from master_seed, so gibbs.seed is no
        # field; the CSV does not exist, so reading it before the check would exit 3
        from bayesdn.cli import main

        missing = str(tmp_path / "missing.csv")
        real = {"csv_path": missing, "class_column": "c"} if command == "real" else {}
        csv = ["--csv", missing] if command == "sample" else []
        out = tmp_path / "o"
        for seed in (4, 0):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"gibbs": {"seed": seed}, **real}))
            assert main([command, *csv, "--config", str(cfg), "--out", str(out)]) == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert "config error: gibbs.seed is not a field of GibbsConfig" in err

    def test_sample_reads_gibbs_section_with_flags_on_top(self, tmp_path):
        # the manifest also names the two flags that are no config field
        from bayesdn.cli import main

        rows = sample_gaussian(np.eye(3), 30, seed=1)
        lines = ["date,a,b,c"] + [
            f"2024-01-{day:02d}," + ",".join(map(repr, row.tolist()))
            for day, row in enumerate(rows, start=1)
        ]
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "g.json"
        cfg.write_text(
            json.dumps({"gibbs": {"burn_in": 7, "retained": 9, "r": 0.5}, "master_seed": 3})
        )
        out = tmp_path / "o"
        rc = main(["sample", "--csv", str(csv_path), "--config", str(cfg),
                   "--retained", "5", "--seed", "4", "--nonparanormal", "--date-column", "date",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        gibbs = manifest["config"]["gibbs"]
        assert (gibbs["burn_in"], gibbs["retained"], gibbs["r"]) == (7, 5, 0.5)
        assert manifest["config"]["master_seed"] == 4 and manifest["seeds"] == [[4]]
        assert "seed" not in gibbs
        assert (manifest["csv"], manifest["n"]) == (str(csv_path), 30)
        assert (manifest["nonparanormal"], manifest["date_column"]) == (True, "date")

    def test_sample_manifest_config_reproduces_the_run(self, tmp_path):
        # its config used to flatten the gibbs fields, which --config refuses
        from bayesdn.cli import main

        csv_path = tmp_path / "x.csv"
        write_csv(csv_path, ["a", "b", "c"], sample_gaussian(np.eye(3), 30, seed=1))
        first, again = tmp_path / "o1", tmp_path / "o2"
        assert main(["sample", "--csv", str(csv_path), "--burn-in", "6", "--retained", "9",
                     "--seed", "5", "--out", str(first)]) == 0
        cfg = tmp_path / "manifest_config.json"
        cfg.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
        rc = main(["sample", "--csv", str(csv_path), "--config", str(cfg), "--out", str(again)])
        assert rc == 0
        for name in ("posterior_mean.csv", "manifest.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("command", ["synthetic", "sweep", "sample"])
    def test_failing_draw_names_chain_and_sweep(self, tmp_path, capsys, command):
        # at s = 1e160 the penalty draws underflow, lam**2 reaches 0 and
        # Generator.wald refuses it; synthetic exited 1 and sweep 2, naming
        # no chain and no sweep
        from bayesdn.cli import main

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gibbs": {"s": 1e160, "burn_in": 2, "retained": 3},
                                   **({"rules": ["ratio"]} if command == "sweep" else {})}))
        if command == "sample":
            csv_path = tmp_path / "x.csv"
            write_csv(csv_path, ["a", "b", "c", "d", "e"], sample_gaussian(np.eye(5), 50, seed=1))
            argv = ["sample", "--csv", str(csv_path)]
            label = ""
        else:
            argv = [command, "--structures", "ar2", "--dims", "5", "--sizes", "50",
                    "--replications", "1", "--seed", "0"]
            argv += ["--estimators", "bnet"] if command == "synthetic" else []
            label = r"ar2 p=5 replication 0 sample [12]: "
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip()
        prefix = "synthetic experiment failed: " if command == "synthetic" else ""
        assert re.fullmatch(rf"error: {prefix}{label}sweep [0-4]: scale <= 0", err), err

    def test_sample_refuses_unknown_top_level_keys(self, tmp_path, capsys):
        # sample used to read only the "gibbs" section and ignore every other key
        from bayesdn.cli import main

        csv_path = tmp_path / "x.csv"
        write_csv(csv_path, ["a", "b", "c"], sample_gaussian(np.eye(3), 30, seed=1))
        cfg = tmp_path / "c.json"
        out = tmp_path / "o"
        for bad in ({"gibs": {"burn_in": 5}, "gibbs": {"retained": 5}}, {"anything": 3}):
            cfg.write_text(json.dumps(bad))
            rc = main(["sample", "--csv", str(csv_path), "--config", str(cfg), "--out", str(out)])
            assert rc == 2 and not out.exists()
            key = next(iter(bad))
            assert f"config error: {key} is not a field of SampleConfig" in capsys.readouterr().err

    def test_sample_config_errors(self, tmp_path):
        from bayesdn.cli import main

        rows = sample_gaussian(np.eye(3), 30, seed=1)
        csv_path = tmp_path / "x.csv"
        write_csv(csv_path, ["a", "b", "c"], rows)
        base = ["sample", "--csv", str(csv_path), "--out", str(tmp_path / "o")]
        assert main(base + ["--config", str(tmp_path / "absent.json")]) == 3
        for bad in ({"gibbs": {"burn_inn": 5}}, {"gibbs": {"retained": 0}}, {"gibbs": 3}, [1]):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(bad))
            assert main(base + ["--config", str(cfg)]) == 2, bad
        assert not (tmp_path / "o").exists()


def _penalty_run(tmp_path, command, field, value, burn_in, retained):
    """CLI arguments of a small run with ``gibbs.<field>`` set to ``value``."""
    gibbs = {"burn_in": burn_in, "retained": retained, field: value}
    if field == "lambda_init":
        gibbs["adapt_lambda"] = False
    cfg = tmp_path / "penalty.json"
    cfg.write_text(json.dumps({"gibbs": gibbs}))
    out = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "synthetic":
        return ["synthetic", "--structures", "ar2", "--dims", "5", "--sizes", "50",
                "--estimators", "bnet", "--replications", "1", *out]
    x = np.random.default_rng(1).standard_normal((40, 5))
    csv_path = tmp_path / "x.csv"
    csv_path.write_text("a,b,c,d,e\n" + "".join(",".join(map(str, row)) + "\n" for row in x))
    return ["sample", "--csv", str(csv_path), *out]


def _json_numbers(value):
    """Every number in a decoded JSON value."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _json_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


def _tiny_cli_config(tmp_path):
    import json as _json

    path = tmp_path / "tiny.json"
    path.write_text(_json.dumps({"gibbs": {"burn_in": 20, "retained": 40}}))
    return path
