"""Config checking and decoding: one type and range check per field.

The CLI must refuse a bad config with exit 2 before any work, naming the
field as ``section.field``, and must keep accepting every config that
runs correctly.
"""

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesdn.cli import main
from bayesdn.config import FieldError, decode
from bayesdn.gibbs import GibbsConfig
from bayesdn.harness import ExperimentConfig, RealAnalysisConfig
from bayesdn.ista import IstaConfig
from bayesdn.pipeline import write_csv
from bayesdn.structures import MIN_DIM, StructureSpec, make_structure, sample_gaussian

SYNTHETIC = ["synthetic", "--structures", "ar2", "--dims", "6", "--sizes", "40"]


def _run(tmp_path, argv, config):
    """Run the CLI with ``config`` written as JSON; return its exit code and output dir."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    return main([*argv, "--config", str(path), "--out", str(out)]), out


class TestCheckFields:
    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: ExperimentConfig(master_seed=True), "master_seed must be an integer, got True"),
            (lambda: GibbsConfig(burn_in=1.0), "burn_in must be an integer, got 1.0"),
            (lambda: GibbsConfig(r=False), "r must be a number, got False"),
            (lambda: GibbsConfig(s=float("inf")), "s must be > 0, got inf"),
            (lambda: GibbsConfig(adapt_lambda=1), "adapt_lambda must be true or false, got 1"),
            (lambda: IstaConfig(tol=float("nan")), "tol must be > 0, got nan"),
            (lambda: IstaConfig(penalty_grid=np.array([0.1])), "penalty_grid must be a list"),
            (lambda: IstaConfig(penalty_grid=(0.1, -0.2)), "penalty_grid must be a list of numbers, each > 0"),
            (lambda: ExperimentConfig(eta=-math.inf), "eta must lie in [0, 1], got -inf"),
            (lambda: ExperimentConfig(dn_mode="both"), "dn_mode must be one of 'difference'"),
            (lambda: ExperimentConfig(gibbs={"burn_in": 1}), "gibbs must be a GibbsConfig"),
            (lambda: StructureSpec("ar1", MIN_DIM - 1), f"dim must be >= {MIN_DIM}, got {MIN_DIM - 1}"),
            (lambda: StructureSpec("mystery", 10), "kind must be one of 'ar1'"),
        ],
    )
    def test_refused_with_field_named(self, make, text):
        with pytest.raises(FieldError) as err:
            make()
        assert str(err.value).startswith(text)

    def test_numbers_of_other_types_accepted(self):
        # JSON writes 1 for 1.0, and numpy scalars are numbers too
        assert GibbsConfig(r=1, burn_in=np.int64(3)).burn_in == 3
        assert ExperimentConfig(eta=np.float64(0.5), sweep_grid=(0, 1)).sweep_grid == (0, 1)


class TestDecode:
    def test_nested_errors_name_the_section(self):
        with pytest.raises(FieldError, match=r"^gibbs\.retained must be >= 1, got 0$"):
            decode(ExperimentConfig, {"gibbs": {"retained": 0}})
        with pytest.raises(FieldError, match=r"^ista\.penalty_grid must be a list"):
            decode(ExperimentConfig, {"ista": {"penalty_grid": 0.1}})

    def test_unknown_key_names_its_section(self):
        with pytest.raises(FieldError, match=r"^gibbs\.burn_inn is not a field of GibbsConfig$"):
            decode(ExperimentConfig, {"gibbs": {"burn_inn": 5}})
        with pytest.raises(FieldError, match=r"^seed is not a field of ExperimentConfig$"):
            decode(ExperimentConfig, {"seed": 5})

    def test_lists_become_tuples_by_annotation(self):
        cfg = decode(ExperimentConfig, {"dims": [6], "sample_sizes": [40], "ista": {"penalty_grid": [1, 2]}})
        assert cfg.dims == (6,) and cfg.ista.penalty_grid == (1, 2)
        real = decode(
            RealAnalysisConfig,
            {"csv_path": "x.csv", "class_column": "c", "compare": [0, 1], "phase_names": None},
        )
        assert real.compare == (0, 1) and real.phase_names is None

    def test_decode_builds_any_config(self):
        assert decode(GibbsConfig, {"burn_in": 4}) == GibbsConfig(burn_in=4)
        with pytest.raises(FieldError, match=r"^gibbs must be an object, got 3$"):
            decode(GibbsConfig, 3, "gibbs")


# One bad field each, in a config that is otherwise fine; without the check
# some ran to exit 0 on a wrong value and the others failed mid-run.
BAD_FIELDS = [
    ({"eps": -1}, ["--replications", "1"], "eps must be > 0"),
    ({"eps": "nan"}, ["--replications", "1"], "eps must be a number"),
    ({"gibbs": {"burn_in": 1.5}}, ["--replications", "1"], "gibbs.burn_in must be an integer"),
    ({"replications": True}, [], "replications must be an integer"),
    ({"ista": {"max_iters": 2.5}}, ["--replications", "1", "--estimators", "dnet"], "ista.max_iters"),
    ({"ista": {"tol": float("nan")}}, ["--replications", "1"], "ista.tol must be > 0"),
    ({"gibbs": {"lambda_diag": float("nan")}}, ["--replications", "1"], "gibbs.lambda_diag"),
    ({"master_seed": -1}, ["--replications", "1"], "master_seed must be >= 0"),
    ({"gibbs": {"retained": "5"}}, ["--replications", "1"], "gibbs.retained must be an integer"),
]


class TestCliRefusesBeforeWork:
    @pytest.mark.parametrize("config, flags, text", BAD_FIELDS)
    def test_bad_field_exit_code(self, tmp_path, capsys, config, flags, text):
        rc, out = _run(tmp_path, [*SYNTHETIC, *flags], config)
        assert rc == 2 and not out.exists()
        assert f"config error: {text}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, field",
        [("synthetic", "structures"), ("sweep", "dims"),
         ("synthetic", "estimators"), ("sweep", "rules")],
    )
    def test_empty_run_list_refused(self, tmp_path, capsys, command, field):
        # each used to exit 0 with an empty study, "[]" or a header-only results.csv
        rc, out = _run(tmp_path, [command], {field: []})
        assert rc == 2 and not out.exists()
        assert f"config error: {field} must be non-empty" in capsys.readouterr().err


def _labeled_csv(tmp_path):
    pair = make_structure(StructureSpec("cluster", 4))
    rows = np.vstack(
        [
            np.column_stack([sample_gaussian(pair.theta1, 30, seed=1), np.zeros(30)]),
            np.column_stack([sample_gaussian(pair.theta2, 30, seed=2), np.ones(30)]),
        ]
    )
    path = tmp_path / "labeled.csv"
    write_csv(path, ["a", "b", "c", "d", "label"], rows)
    return str(path)


class TestRealConfig:
    def test_zero_window_refused(self, tmp_path, capsys):
        # _preprocess treats any window below 2 as no smoothing, so 0 would pass silently
        config = {"csv_path": _labeled_csv(tmp_path), "class_column": "label",
                  "moving_average_window": 0}
        rc, out = _run(tmp_path, ["real"], config)
        assert rc == 2 and not out.exists()
        assert "config error: moving_average_window must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split, text",
        [
            ({"boundaries": ["2020-13-45"]}, "boundaries must be ISO dates (YYYY-MM-DD)"),
            ({"boundaries": ["2020-06-01", "2020-03-01"]}, "boundaries must be in date order"),
            ({"boundaries": ["2020-06-01"], "phase_names": ["a", "b", "c"]},
             "phase_names must name 2 phases for 1 boundaries, got 3"),
            ({"boundaries": ["2020-06-01"], "phase_names": ["a", "a"]}, "phase_names must be distinct"),
            ({"boundaries": ["2020-06-01"], "compare": ["phase1", "phase3"]},
             "compare must name phases among ['phase1', 'phase2'], got 'phase3'"),
            ({"class_column": "label", "compare": ["a", "b"]}, "compare must be numbers or numeric strings"),
            ({"class_column": "label", "compare": ["1", "nan"]}, "compare must be numbers or numeric strings"),
            # class values are compared as numbers, so 1 and "1.0" name one group
            ({"class_column": "label", "compare": [1, "1.0"]},
             "compare must name two different groups, got [1, '1.0']"),
            ({"boundaries": ["2020-06-01"], "compare": ["phase1", "phase1"]},
             "compare must name two different groups, got ['phase1', 'phase1']"),
        ],
    )
    def test_split_refused_before_the_csv_is_read(self, tmp_path, capsys, split, text):
        # the CSV does not exist, so reading it before the check would exit 3
        config = {"csv_path": str(tmp_path / "missing.csv"), "date_column": "date", **split}
        rc, out = _run(tmp_path, ["real"], config)
        assert rc == 2 and not out.exists()
        assert f"config error: {text}" in capsys.readouterr().err

    def test_empty_phase_names_take_the_default_names(self):
        cfg = decode(
            RealAnalysisConfig,
            {"csv_path": "x.csv", "boundaries": ["2020-06-01"], "phase_names": [], "compare": ["phase2", "phase1"]},
        )
        assert cfg.phases == ("phase1", "phase2")

    def test_numeric_string_compare_accepted(self, tmp_path):
        config = {"csv_path": _labeled_csv(tmp_path), "class_column": "label", "compare": ["0", "1e0"],
                  "gibbs": {"burn_in": 5, "retained": 10}}
        rc, out = _run(tmp_path, ["real"], config)
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["groups"] == ["0.0", "1.0"]

    def test_numeric_compare_accepted(self, tmp_path):
        # class values are compared as numbers, so JSON numbers name them
        config = {"csv_path": _labeled_csv(tmp_path), "class_column": "label", "compare": [1, 0],
                  "gibbs": {"burn_in": 5, "retained": 10}}
        rc, out = _run(tmp_path, ["real"], config)
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["groups"] == ["1.0", "0.0"]


TINY = {
    "structures": ["ar2"],
    "dims": [6],
    "sample_sizes": [40],
    "replications": 1,
    "gibbs": {"burn_in": 5, "retained": 10},
    "ista": {"max_iters": 50},
}
FIELDS = (
    [(f.name,) for f in dataclasses.fields(ExperimentConfig)]
    + [("gibbs", f.name) for f in dataclasses.fields(GibbsConfig)]
    + [("ista", f.name) for f in dataclasses.fields(IstaConfig)]
)
BAD_VALUES = ["x", True, [1], {"a": 1}, None, math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(BAD_VALUES))
def test_one_bad_field_runs_or_exits_2_before_work(path, value):
    config = json.loads(json.dumps(TINY))
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "c.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "o")
        rc = main(["synthetic", "--config", cfg_path, "--out", out])
        assert rc in (0, 2), (path, value)
        assert os.path.exists(os.path.join(out, "results.csv")) == (rc == 0)
