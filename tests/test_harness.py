import datetime
import json
from dataclasses import replace

import numpy as np
import pytest

import bayesdn.harness as harness
from bayesdn.diffnet import DifferentialNetwork
from bayesdn.gibbs import STACK_MIN_CHAINS, GibbsConfig
from bayesdn.harness import (
    ExperimentConfig,
    RealAnalysisConfig,
    ResultsTable,
    config_from_dict,
    config_to_dict,
    emit_real,
    emit_results_table,
    emit_study,
    run_real_analysis,
    run_synthetic_experiment,
    run_threshold_study,
    task_seeds,
)
from bayesdn.ista import IstaConfig
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_chain_names_its_task(self, tmp_path, monkeypatch, capsys):
        # one chain of a stacked run overflows in its first sweep: the
        # error names its structure, p, replication, sample and sweep, and
        # the command exits 1
        from bayesdn.cli import main

        build = harness.bnet_requests
        broken = "ar2 p=6 replication 1 sample 2"

        def breaking_requests(x1, x2, cfg, labels):
            return [
                replace(req, scatter=req.scatter * 1e250) if req.label == broken else req
                for req in build(x1, x2, cfg, labels)
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
        # the Bayesian estimate is assembled from its two chains in the
        # scoring stage, so that is where a perfect estimator is put in
        def perfect(requests, chains, eta, **kwargs):
            assert len(requests) == len(chains) == 2
            p = requests[0].scatter.shape[0]
            pair = make_structure(StructureSpec("ar2", p))
            eh = np.eye(p)
            return DifferentialNetwork(
                delta_hat=pair.true_delta,
                component_means=(pair.theta1, pair.theta2),
                component_partials=(eh, eh),
                adjacency=pair.true_adjacency,
                eta=eta,
                mode="union",
            )

        monkeypatch.setattr(harness, "bnet_network", perfect)
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


class TestAggregation:
    def test_median_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(11)
        ordered = sorted(values)
        assert harness._median(np.asarray(values)) == ordered[5]
        values = rng.standard_normal(8)
        ordered = sorted(values)
        assert harness._median(np.asarray(values)) == pytest.approx(
            0.5 * (ordered[3] + ordered[4])
        )

    def test_median_permutation_invariant(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(9)
        m = harness._median(values)
        for _ in range(5):
            perm = rng.permutation(values)
            assert harness._median(perm) == m

    def test_median_with_nas(self):
        vals = np.array([1.0, np.nan, 3.0])
        assert harness._median(vals) == 2.0
        assert np.isnan(harness._median(np.array([np.nan, np.nan])))


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


class TestConfigSerialization:
    def test_round_trip(self):
        d = config_to_dict(TINY)
        back = config_from_dict(d)
        assert back == TINY

    def test_round_trip_with_penalty_grid(self):
        cfg = replace(TINY, ista=IstaConfig(max_iters=50, penalty_grid=(0.05, 0.1, 0.2)))
        back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert back == cfg and hash(back) == hash(cfg)

    def test_real_config_round_trip(self):
        cfg = RealAnalysisConfig(
            csv_path="x.csv",
            date_column="date",
            boundaries=("2020-06-06",),
            gibbs=GibbsConfig(burn_in=5, retained=10),
        )
        back = config_from_dict(config_to_dict(cfg), real=True)
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
            if r["metric"] in harness.LOSS_METRICS:
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

    def test_sample_reads_gibbs_section_with_flags_on_top(self, tmp_path):
        from bayesdn.cli import main

        rows = sample_gaussian(np.eye(3), 30, seed=1)
        csv_path = tmp_path / "x.csv"
        write_csv(csv_path, ["a", "b", "c"], rows)
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"gibbs": {"burn_in": 7, "retained": 9, "r": 0.5, "seed": 4}}))
        out = tmp_path / "o"
        rc = main(["sample", "--csv", str(csv_path), "--config", str(cfg),
                   "--retained", "5", "--out", str(out)])
        assert rc == 0
        gibbs = json.loads((out / "manifest.json").read_text())["config"]
        assert (gibbs["burn_in"], gibbs["retained"], gibbs["r"], gibbs["seed"]) == (7, 5, 0.5, 4)

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


def _tiny_cli_config(tmp_path):
    import json as _json

    path = tmp_path / "tiny.json"
    path.write_text(_json.dumps({"gibbs": {"burn_in": 20, "retained": 40}}))
    return path
