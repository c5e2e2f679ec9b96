import datetime

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2, rankdata, skew, spearmanr

from bayesdn.linalg import mirror_lower
from bayesdn.pipeline import (
    EmptyDataError,
    boxs_m_test,
    moving_average,
    nonparanormal_transform,
    read_csv,
    split_phases,
    write_csv,
)


def make_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCsv:
    def test_numeric_file(self, tmp_path):
        path = make_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        ds = read_csv(path)
        assert ds.columns == ["a", "b"]
        np.testing.assert_array_equal(ds.rows, [[1, 2], [3, 4], [5, 6]])
        assert ds.n_dropped == 0

    def test_blank_cell_drops_row(self, tmp_path):
        path = make_csv(tmp_path, "a,b\n1,2\n3,\n5,6\n")
        ds = read_csv(path)
        assert ds.rows.shape == (2, 2)
        assert ds.n_dropped == 1

    def test_header_only(self, tmp_path):
        path = make_csv(tmp_path, "a,b\n")
        with pytest.raises(EmptyDataError):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = make_csv(tmp_path, "")
        with pytest.raises(EmptyDataError):
            read_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = make_csv(tmp_path, "a,b\n1,2\nx,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = make_csv(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match=rf"data.csv:3: non-finite value '{cell}' in column 'b'"):
            read_csv(path)

    def test_ragged_row(self, tmp_path):
        path = make_csv(tmp_path, "a,b\n1,2,3\n")
        with pytest.raises(ValueError, match="fields"):
            read_csv(path)

    def test_date_column(self, tmp_path):
        path = make_csv(tmp_path, "date,a,b\n2020-02-07,1,4\n2020-02-08,2,5\n")
        ds = read_csv(path, date_column="date")
        assert ds.columns == ["a", "b"]
        assert ds.dates == [datetime.date(2020, 2, 7), datetime.date(2020, 2, 8)]

    def test_bad_date(self, tmp_path):
        path = make_csv(tmp_path, "date,a,b\nnot-a-date,1,4\n")
        with pytest.raises(ValueError, match="ISO date"):
            read_csv(path, date_column="date")

    def test_single_numeric_column_rejected(self, tmp_path):
        path = make_csv(tmp_path, "date,a\n2020-02-07,1\n")
        with pytest.raises(ValueError, match="2 numeric columns"):
            read_csv(path, date_column="date")

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((7, 3)) * np.array([1e-7, 1.0, 1e9])
        path = tmp_path / "rt.csv"
        write_csv(path, ["x", "y", "z"], rows)
        back = read_csv(path)
        np.testing.assert_array_equal(back.rows, rows)
        path2 = tmp_path / "rt2.csv"
        write_csv(path2, back.columns, back.rows)
        assert path.read_bytes() == path2.read_bytes()


class TestMovingAverage:
    def test_week_window(self):
        np.testing.assert_array_equal(moving_average(np.arange(1.0, 8.0), 7), [4.0])

    def test_constant(self):
        np.testing.assert_allclose(moving_average(np.full(10, 3.5), 4), np.full(7, 3.5))

    def test_window_one_is_identity(self):
        x = np.array([2.0, -1.0, 5.0])
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_affine_commutes(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        lhs = moving_average(3.0 * x + 2.0, 7)
        rhs = 3.0 * moving_average(x, 7) + 2.0
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(3), 4)


class TestNonparanormal:
    def test_preserves_order(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 1))
        out = nonparanormal_transform(x)
        rho = spearmanr(x[:, 0], out[:, 0]).statistic
        assert rho == pytest.approx(1.0)

    def test_exponential_becomes_symmetric(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=(1000, 1))
        out = nonparanormal_transform(x)
        assert abs(skew(out[:, 0])) < 0.2
        assert out[:, 0].mean() == pytest.approx(0.0, abs=1e-12)

    def test_monotone_invariance_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 2))
        warped = np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3])
        np.testing.assert_array_equal(
            nonparanormal_transform(x), nonparanormal_transform(warped)
        )

    def test_constant_column_error_names_column(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ValueError, match="column 0"):
            nonparanormal_transform(x)

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            nonparanormal_transform(np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_ranks_match_scipy_rankdata_with_ties(self, seed):
        # columns with many ties, few ties and none
        rng = np.random.default_rng(seed)
        x = np.column_stack(
            [rng.integers(0, 3, 60), rng.integers(0, 40, 60), rng.standard_normal(60)]
        ).astype(float)
        scores = ndtri(rankdata(x, method="average", axis=0) / 61)
        np.testing.assert_array_equal(nonparanormal_transform(x), scores - scores.mean(axis=0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_error_names_column(self, value):
        x = np.column_stack([np.arange(10.0), np.arange(10.0)])
        x[4, 1] = value
        with pytest.raises(ValueError, match="column 1 holds a non-finite value"):
            nonparanormal_transform(x)


def sample_cov(x):
    centered = x - x.mean(axis=0)
    return mirror_lower(centered.T @ centered / (x.shape[0] - 1))


class TestBoxM:
    def test_identical_covariances(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 4))
        s = sample_cov(x)
        stat, p = boxs_m_test(s, 50, s, 50)
        assert stat == pytest.approx(0.0, abs=1e-10)
        assert p == pytest.approx(1.0)

    def test_null_distribution(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x1 = rng.standard_normal((200, 5))
            x2 = rng.standard_normal((200, 5))
            _, p = boxs_m_test(sample_cov(x1), 200, sample_cov(x2), 200)
            hits += p > 0.01
        assert hits >= 9

    def test_strongly_different(self):
        rng = np.random.default_rng(6)
        x1 = rng.standard_normal((200, 5))
        x2 = rng.standard_normal((200, 5)) * np.sqrt(5.0)
        _, p = boxs_m_test(sample_cov(x1), 200, sample_cov(x2), 200)
        assert p < 0.001

    def test_symmetric_in_groups(self):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((60, 3))
        x2 = rng.standard_normal((80, 3)) * 1.3
        s1, s2 = sample_cov(x1), sample_cov(x2)
        assert boxs_m_test(s1, 60, s2, 80)[0] == pytest.approx(
            boxs_m_test(s2, 80, s1, 60)[0]
        )

    def test_p_value_matches_scipy_chi2_sf(self):
        # odd seeds compare a covariance with itself: the statistic then rounds
        # to either side of 0, and a negative one must still give p = 1, not NaN
        signs = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s1 = sample_cov(rng.standard_normal((50, 4)))
            s2 = s1 if seed % 2 else sample_cov(rng.standard_normal((70, 4)))
            stat, p = boxs_m_test(s1, 50, s2, 70)
            assert p == chi2.sf(stat, 10)
            signs.add(np.sign(stat))
        assert {-1.0, 1.0} <= signs

    def test_small_groups_rejected(self):
        with pytest.raises(ValueError):
            boxs_m_test(np.eye(5), 5, np.eye(5), 50)


def dated_dataset(n=30, p=2, start=datetime.date(2020, 2, 7)):
    from bayesdn.pipeline import Dataset

    rng = np.random.default_rng(8)
    dates = [start + datetime.timedelta(days=k) for k in range(n)]
    return Dataset(
        columns=[f"c{k}" for k in range(p)], rows=rng.standard_normal((n, p)), dates=dates
    )


class TestSplitPhases:
    def test_no_boundaries_single_phase(self):
        ds = dated_dataset()
        split = split_phases(ds, [], ["phase1"])
        assert list(split) == ["phase1"]
        np.testing.assert_array_equal(split["phase1"], ds.rows)

    def test_one_boundary_partitions(self):
        ds = dated_dataset()
        b = ds.dates[10]
        split = split_phases(ds, [b], ["phase1", "phase2"])
        np.testing.assert_array_equal(split["phase1"], ds.rows[0:10])
        np.testing.assert_array_equal(split["phase2"], ds.rows[10:30])
        assert split["phase1"].shape == (10, 2)

    def test_boundary_before_range_rejected(self):
        ds = dated_dataset()
        with pytest.raises(ValueError):
            split_phases(ds, [ds.dates[0] - datetime.timedelta(days=1)], ["phase1", "phase2"])

    def test_custom_names(self):
        ds = dated_dataset()
        split = split_phases(ds, [ds.dates[15]], names=["wave1", "plateau1"])
        assert list(split) == ["wave1", "plateau1"]

    def test_one_name_per_phase(self):
        ds = dated_dataset()
        with pytest.raises(ValueError, match="need 2 names, got 1"):
            split_phases(ds, [ds.dates[15]], ["phase1"])

    def test_short_phase_warns(self):
        ds = dated_dataset(n=10, p=6)
        with pytest.warns(UserWarning, match="fewer than"):
            split_phases(ds, [ds.dates[2]], ["phase1", "phase2"])

    def test_backwards_dates_refused(self, tmp_path, capsys):
        # an unsorted CSV used to be split by row position: cut at day 6, the
        # early phase held day 1 alone and the late phase days 2, 3 and 4
        from bayesdn.cli import main
        from bayesdn.pipeline import Dataset

        days = [1, 6, 2, 7, 3, 8, 4, 9]
        dates = [datetime.date(2020, 1, d) for d in days]
        ds = Dataset(columns=["a", "b"], rows=np.zeros((8, 2)), dates=dates)
        message = r"^dates must not go backwards: 2020-01-06 is followed by 2020-01-02$"
        with pytest.raises(ValueError, match=message):
            split_phases(ds, [datetime.date(2020, 1, 6)], ["early", "late"])
        # the command exits as read_csv's malformed-data errors do
        rows = np.column_stack([np.arange(8.0), np.arange(8.0) ** 2])
        write_csv(tmp_path / "d.csv", ["a", "b"], rows, dates=dates)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"date_column": "date", "boundaries": ["2020-01-06"]}')
        out = tmp_path / "o"
        argv = ["real", "--csv", str(tmp_path / "d.csv"), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2 and not out.exists()
        assert "config error: dates must not go backwards" in capsys.readouterr().err

    def test_requires_dates(self):
        from bayesdn.pipeline import Dataset

        ds = Dataset(columns=["a"], rows=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            split_phases(ds, [], ["phase1"])
