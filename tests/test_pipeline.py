import csv
import datetime
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import chi2, rankdata, skew, spearmanr

from bayesdn.linalg import mirror_lower
from bayesdn.pipeline import (
    Dataset,
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

    def test_rows_are_writable_c_contiguous_float64(self, tmp_path):
        rows = read_csv(make_csv(tmp_path, "a,b\n1,2\n3,\n5,6\n")).rows
        assert rows.dtype == np.float64
        assert rows.flags.c_contiguous and rows.flags.writeable

    @pytest.mark.parametrize(
        "text, date_column, error, message",
        [
            ("", None, EmptyDataError, ": file is empty"),
            ("a,b\n", None, EmptyDataError, ": no data rows (dropped 0)"),
            ("a,b\n1,\n ,2\n", None, EmptyDataError, ": no data rows (dropped 2)"),
            ("a, a ,b\n1,2,3\n", None, ValueError, ": repeated column name 'a' in header"),
            ("a,b\n1,2\n", "date", ValueError, ": date column 'date' not in header ['a', 'b']"),
            ("date,a\n2020-02-07,1\n", "date", ValueError,
             ": need at least 2 numeric columns, found 1"),
            ("a,b\n1,2\n3,4,5\n", None, ValueError, ":3: expected 2 fields, got 3"),
            ("a,b\n1,2\n x ,4\n", None, ValueError, ":3: non-numeric value 'x' in column 'a'"),
            ("a,b\n1,2\n3, -inf \n", None, ValueError, ":3: non-finite value '-inf' in column 'b'"),
            ("date,a,b\n2020-13-01,1,4\n", "date", ValueError, ":2: bad ISO date '2020-13-01'"),
        ],
    )
    def test_messages_verbatim(self, tmp_path, text, date_column, error, message):
        path = make_csv(tmp_path, text)
        with pytest.raises(ValueError) as err:
            read_csv(path, date_column=date_column)
        assert type(err.value) is error
        assert str(err.value) == f"{path}{message}"

    def test_earlier_non_finite_beats_later_non_numeric(self, tmp_path):
        # the packed pass meets the non-numeric cell first; the error must
        # still be the first one in file order
        path = make_csv(tmp_path, "a,b\n1,2\n3,nan\n4,5\nx,6\n")
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}:3: non-finite value 'nan' in column 'b'"

    @pytest.mark.parametrize("bad", ["x,", "nan,", ",inf", "1_0_,", " ,x"])
    def test_blank_cell_drops_row_with_bad_cell(self, tmp_path, bad):
        path = make_csv(tmp_path, f"a,b\n1,2\n{bad}\n3,4\n")
        ds = read_csv(path)
        np.testing.assert_array_equal(ds.rows, [[1, 2], [3, 4]])
        assert ds.n_dropped == 1

    def test_blank_cell_drops_row_with_bad_date(self, tmp_path):
        path = make_csv(tmp_path, "date,a,b\nnot-a-date,1,\n2020-02-07,1,4\n,2,3\n")
        ds = read_csv(path, date_column="date")
        assert ds.dates == [datetime.date(2020, 2, 7)]
        assert ds.n_dropped == 2

    def test_byte_order_mark_skipped(self, tmp_path):
        # the mark used to stay on the first header name: "date column 'date'
        # not in header ['\ufeffdate', 'a', 'b']"
        path = tmp_path / "bom.csv"
        path.write_text("date,a,b\n2020-02-07,1,4\n2020-02-08,2,5\n", encoding="utf-8-sig")
        ds = read_csv(path, date_column="date")
        assert ds.columns == ["a", "b"]
        assert ds.dates == [datetime.date(2020, 2, 7), datetime.date(2020, 2, 8)]

    def test_empty_line_is_a_dropped_blank_row(self, tmp_path):
        # a trailing empty line used to fail with "expected 2 fields, got 0"
        ds = read_csv(make_csv(tmp_path, "a,b\n1,2\n3,4\n\n5,6\n\n"))
        np.testing.assert_array_equal(ds.rows, [[1, 2], [3, 4], [5, 6]])
        assert ds.n_dropped == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            # the quoted cell spans lines 2 and 3, so the x is on line 4;
            # counting records cited line 3
            ('a,b\n"1\n",2\n3,x\n', ":4: non-numeric value 'x' in column 'b'"),
            # an error inside a record cites the line the record ends on
            ('a,b\n"1\n",x\n', ":3: non-numeric value 'x' in column 'b'"),
            ("a,b\n\n1,2\n\n3\n", ":5: expected 2 fields, got 1"),
        ],
    )
    def test_errors_cite_physical_lines(self, tmp_path, text, message):
        path = make_csv(tmp_path, text)
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}{message}"


def per_cell_read_csv(path, date_column=None):
    """Cell-by-cell reference for ``read_csv``: same conventions, same messages."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ValueError(f"{path}: repeated column name {repeated[0]!r} in header")
        date_idx = None
        if date_column is not None:
            if date_column not in header:
                raise ValueError(f"{path}: date column {date_column!r} not in header {header}")
            date_idx = header.index(date_column)
        value_idx = [k for k in range(len(header)) if k != date_idx]
        if len(value_idx) < 2:
            raise ValueError(f"{path}: need at least 2 numeric columns, found {len(value_idx)}")
        rows, dates, n_dropped = [], [], 0
        for record in reader:
            ln = reader.line_num
            if not record:
                n_dropped += 1
                continue
            if len(record) != len(header):
                raise ValueError(f"{path}:{ln}: expected {len(header)} fields, got {len(record)}")
            if any(cell.strip() == "" for cell in record):
                n_dropped += 1
                continue
            values = []
            for k in value_idx:
                cell = record[k].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}:{ln}: non-numeric value {cell!r} in column {header[k]!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}:{ln}: non-finite value {cell!r} in column {header[k]!r}"
                    )
                values.append(value)
            if date_idx is not None:
                cell = record[date_idx].strip()
                try:
                    dates.append(datetime.date.fromisoformat(cell))
                except ValueError:
                    raise ValueError(f"{path}:{ln}: bad ISO date {cell!r}") from None
            rows.append(values)
    if not rows:
        raise EmptyDataError(f"{path}: no data rows (dropped {n_dropped})")
    return Dataset(
        columns=[header[k] for k in value_idx],
        rows=np.asarray(rows, dtype=float),
        dates=dates if date_idx is not None else None,
        n_dropped=n_dropped,
    )


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_000", " 2.5 ", "\xa03\xa0", "\x1c4\x1f", "-0.0", "5\n", "1e308"]),
)
_ODD_CELLS = st.sampled_from(["", " ", "nan", "-inf", "x", "1e999", "2020-02-07"])
_DATES = st.sampled_from(["2020-02-07", " 2021-12-31 ", "2020-13-01", "", "x", "1.5"])


@st.composite
def csv_files(draw):
    """Header, records and date column of a small CSV; ``noise`` in 10 cells are odd."""
    names = ["a", "b", "c"][: draw(st.integers(2, 3))]
    date_at = draw(st.one_of(st.none(), st.integers(0, len(names))))
    header = list(names)
    if date_at is not None:
        header.insert(date_at, "day")
    noise = draw(st.integers(0, 3))

    def cell(good, odd):
        return draw(odd if draw(st.integers(0, 9)) < noise else good)

    records = []
    for _ in range(draw(st.integers(0, 6))):
        kind = cell(st.just("row"), st.sampled_from(["row", "empty", "ragged"]))
        if kind == "empty":
            records.append([])
        elif kind == "ragged":
            width = draw(st.integers(1, len(header) + 1))
            records.append([cell(_NUMBERS, _ODD_CELLS) for _ in range(width)])
        else:
            records.append([cell(_NUMBERS, _ODD_CELLS) for _ in names])
            if date_at is not None:
                records[-1].insert(date_at, cell(st.just("2020-02-07"), _DATES))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + out.getvalue(), "day" if date_at is not None else None


def _outcome(read, path, date_column):
    try:
        return read(path, date_column=date_column)
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_files())
def test_read_csv_agrees_with_per_cell_reader(tmp_path_factory, drawn):
    text, date_column = drawn
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(read_csv, path, date_column)
    want = _outcome(per_cell_read_csv, path, date_column)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset)
    assert (got.columns, got.dates, got.n_dropped) == (want.columns, want.dates, want.n_dropped)
    assert got.rows.shape == want.rows.shape and got.rows.dtype == want.rows.dtype
    assert got.rows.tobytes() == want.rows.tobytes()


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
