import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibimpute import data
from ibimpute.data import (
    BLOCK,
    POINT,
    CsvFormatError,
    Dataset,
    MaskError,
    MaskSpec,
    SplitError,
    Window,
    apply_mask,
    chrono_split,
    fit_normalizer,
    load_csv,
    make_synthetic,
    make_windows,
    normalize_window,
    stack_windows,
    write_csv,
    write_rows,
)
from ibimpute.rng import SplitMix64, derive


def _write(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text)
    return str(p)


def _eval_mask(w: Window) -> np.ndarray:
    """Evaluation positions: observed in the source, artificially hidden."""
    return w.m_obs * (1.0 - w.m_art)


def _realized_rate(w: Window) -> float:
    """Share of the observed entries that the artificial mask hides."""
    n_obs = w.m_obs.sum()
    return float(_eval_mask(w).sum() / n_obs) if n_obs else 0.0


def _run_lengths(hidden_col: np.ndarray) -> list[int]:
    """Lengths of maximal runs of hidden (True) entries in one column."""
    runs, current = [], 0
    for h in hidden_col:
        if h:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


class TestLoadCsv:
    def test_one_empty_cell(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,b\n1,2\n3,\n5,6\n"))
        assert ds.values.shape == (3, 2)
        assert ds.native_mask.sum() == 5
        assert ds.native_mask[1, 1] == 0.0
        assert ds.values[1, 1] == 0.0

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(_write(tmp_path, "a,b\n"))

    def test_native_mask_example(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,b\n1.5,2.5\n3.5,\n"))
        assert np.array_equal(ds.native_mask, [[1.0, 1.0], [1.0, 0.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(_write(tmp_path, "a,b\n1,2\n1,2,3\n"))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(_write(tmp_path, "a,b\n1,oops\n"))

    def test_round_trip(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,b\n1.5,2.5\n3.5,\n"))
        out = str(tmp_path / "out.csv")
        write_csv(out, ds)
        again = load_csv(out)
        assert np.array_equal(again.values, ds.values)
        assert np.array_equal(again.native_mask, ds.native_mask)
        assert again.variable_names == ds.variable_names


class TestChronoSplit:
    def test_60_20_20(self):
        ds = make_synthetic(2, 100, seed=1)
        train, val, test = chrono_split(ds, window_len=10)
        assert (train.length, val.length, test.length) == (60, 20, 20)

    def test_segments_are_contiguous_and_ordered(self):
        ds = make_synthetic(1, 50, seed=2)
        train, val, test = chrono_split(ds, window_len=5)
        joined = np.concatenate([train.values, val.values, test.values])
        assert np.array_equal(joined, ds.values)

    def test_empty_split_rejected(self):
        ds = make_synthetic(1, 100, seed=3)
        with pytest.raises(SplitError, match="empty split"):
            chrono_split(ds, window_len=10, fractions=(1.0, 0.0, 0.0))

    def test_short_segment_rejected(self):
        ds = make_synthetic(1, 96, seed=4)
        with pytest.raises(SplitError):
            chrono_split(ds, window_len=96)

    def test_bad_fractions_rejected(self):
        ds = make_synthetic(1, 100, seed=5)
        with pytest.raises(SplitError):
            chrono_split(ds, window_len=5, fractions=(0.5, 0.2, 0.2))


class TestMakeWindows:
    @pytest.mark.parametrize(
        "length,t,stride,expected",
        [(96, 96, 1, 1), (100, 96, 1, 5), (100, 96, 4, 2)],
    )
    def test_window_counts(self, length, t, stride, expected):
        ds = make_synthetic(2, length, seed=6)
        windows = make_windows(ds, t, stride)
        assert len(windows) == expected
        assert all(w.shape == (t, 2) for w in windows)
        assert [w.index for w in windows] == list(range(expected))

    def test_window_too_long_rejected(self):
        ds = make_synthetic(1, 10, seed=7)
        with pytest.raises(SplitError):
            make_windows(ds, 11, 1)

    def test_contents_match_source(self):
        ds = make_synthetic(2, 30, seed=8)
        windows = make_windows(ds, 10, 10)
        for k, w in enumerate(windows):
            assert np.array_equal(w.x, ds.values[10 * k : 10 * k + 10])
            assert np.array_equal(w.m_art, np.ones((10, 2)))

    def test_stack_windows(self):
        ds = make_synthetic(2, 30, seed=8)
        windows = make_windows(ds, 10, 10)
        windows[1] = apply_mask(windows[1], MaskSpec(rate=0.5, seed=2))
        x, m_obs, m_art = stack_windows(windows)
        assert x.shape == m_obs.shape == m_art.shape == (3, 10, 2)
        for k, w in enumerate(windows):
            assert np.array_equal(x[k], w.x)
            assert np.array_equal(m_obs[k], w.m_obs)
            assert np.array_equal(m_art[k], w.m_art)


class TestPointMask:
    def test_rate_zero_hides_nothing(self):
        ds = make_synthetic(3, 50, seed=9)
        w = make_windows(ds, 20, 20)[0]
        tsw = apply_mask(w, MaskSpec(pattern=POINT, rate=0.0, seed=1))
        assert np.all(tsw.m_art == 1.0)
        assert np.array_equal(tsw.x * tsw.m_obs * tsw.m_art, w.x * w.m_obs)
        assert _realized_rate(tsw) == 0.0

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_realized_rate_concentrates(self, rate):
        ds = make_synthetic(10, 1000, seed=10)
        w = make_windows(ds, 1000, 1000)[0]  # 10000 entries
        tsw = apply_mask(w, MaskSpec(pattern=POINT, rate=rate, seed=2))
        assert abs(_realized_rate(tsw) - rate) < 0.02

    def test_never_hides_natively_missing(self):
        values = np.arange(40.0).reshape(20, 2)
        m_obs = np.ones((20, 2))
        m_obs[::3, 0] = 0.0
        w = Window(x=values * m_obs, m_obs=m_obs, index=0)
        tsw = apply_mask(w, MaskSpec(pattern=POINT, rate=0.9, seed=3))
        assert np.all(tsw.m_art[m_obs == 0.0] == 1.0)

    def test_eval_positions_disjoint_from_visible(self):
        ds = make_synthetic(2, 50, seed=11)
        w = make_windows(ds, 25, 25)[0]
        tsw = apply_mask(w, MaskSpec(pattern=POINT, rate=0.4, seed=4))
        visible = tsw.m_obs * tsw.m_art
        assert np.all(visible * _eval_mask(tsw) == 0.0)

    def test_deterministic_per_window_index(self):
        ds = make_synthetic(2, 60, seed=12)
        w0, w1 = make_windows(ds, 20, 20)[:2]
        spec = MaskSpec(pattern=POINT, rate=0.5, seed=5)
        a = apply_mask(w0, spec)
        b = apply_mask(w0, spec)
        c = apply_mask(w1, spec)
        assert np.array_equal(a.m_art, b.m_art)
        assert not np.array_equal(a.m_art, c.m_art)

    def test_x_masked_identity(self):
        ds = make_synthetic(2, 40, seed=13)
        w = make_windows(ds, 20, 20)[0]
        tsw = apply_mask(w, MaskSpec(pattern=POINT, rate=0.3, seed=6))
        # masking only replaces m_art; the model input is x * m_obs * m_art
        assert tsw.x is w.x and tsw.m_obs is w.m_obs and tsw.index == w.index
        assert np.all(w.m_art == 1.0)
        keep = tsw.m_obs * tsw.m_art
        assert (keep == 0.0).any()
        assert np.all((tsw.x * keep)[keep == 0.0] == 0.0)


class TestBlockMask:
    def test_single_block_example(self):
        w = Window(x=np.arange(16.0).reshape(16, 1), m_obs=np.ones((16, 1)), index=0)
        tsw = apply_mask(w, MaskSpec(pattern=BLOCK, rate=0.25, block_len=4, seed=7))
        runs = _run_lengths(tsw.m_art[:, 0] == 0.0)
        assert runs == [4]

    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.4])
    def test_runs_have_configured_length(self, rate):
        ds = make_synthetic(4, 960, seed=14)
        windows = make_windows(ds, 96, 96)
        spec = MaskSpec(pattern=BLOCK, rate=rate, block_len=4, seed=8)
        for w in windows:
            tsw = apply_mask(w, spec)
            for col in range(4):
                runs = _run_lengths(tsw.m_art[:, col] == 0.0)
                short = [r for r in runs if r != 4]
                assert all(r < 4 for r in short)
                assert len(short) <= 1  # at most the one truncated final run

    def test_quota_met_per_variable(self):
        ds = make_synthetic(3, 96, seed=15)
        w = make_windows(ds, 96, 96)[0]
        spec = MaskSpec(pattern=BLOCK, rate=0.3, block_len=5, seed=9)
        tsw = apply_mask(w, spec)
        for col in range(3):
            hidden = int((_eval_mask(tsw)[:, col]).sum())
            n_obs = int(w.m_obs[:, col].sum())
            assert hidden == int(np.ceil(0.3 * n_obs))

    def test_high_rate_still_meets_quota(self):
        # beyond the non-adjacent packing limit the placement relaxes, so
        # runs may merge, but the requested amount is still hidden
        w = Window(x=np.zeros((40, 1)), m_obs=np.ones((40, 1)), index=0)
        tsw = apply_mask(w, MaskSpec(pattern=BLOCK, rate=0.9, block_len=4, seed=10))
        assert int(_eval_mask(tsw).sum()) == 36

    def test_block_respects_native_missing(self):
        m_obs = np.ones((30, 1))
        m_obs[10:20, 0] = 0.0
        w = Window(x=np.ones((30, 1)) * m_obs, m_obs=m_obs, index=0)
        tsw = apply_mask(w, MaskSpec(pattern=BLOCK, rate=0.5, block_len=3, seed=11))
        assert np.all(tsw.m_art[m_obs == 0.0] == 1.0)
        assert int(_eval_mask(tsw).sum()) == 10  # ceil(0.5 * 20)

    def test_block_len_longer_than_window_rejected(self):
        w = Window(x=np.zeros((8, 1)), m_obs=np.ones((8, 1)), index=0)
        with pytest.raises(MaskError):
            apply_mask(w, MaskSpec(pattern=BLOCK, rate=0.2, block_len=9, seed=12))


def _reference_rows(path: str, fh):
    """``csv.reader`` rows, with an unreadable line raised as CsvFormatError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except (csv.Error, ValueError) as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _reference_load_csv(path: str) -> Dataset:
    """Reference copy of the original per-cell ``load_csv``, kept verbatim as
    the oracle for the bulk parser, except that unreadable lines raise
    CsvFormatError (through ``_reference_rows``) instead of ``csv.Error``."""
    with open(path, newline="") as fh:
        reader = _reference_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        n = len(names)
        rows: list[list[float]] = []
        mask_rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {n} cells, got {len(row)}"
                )
            vals, mask = [], []
            for col, cell in enumerate(row):
                cell = cell.strip()
                if cell == "":
                    vals.append(0.0)
                    mask.append(0.0)
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: non-numeric cell "
                        f"{cell!r} in column {names[col]!r}"
                    ) from None
                if not math.isfinite(v):
                    raise CsvFormatError(
                        f"{path}: line {lineno}: non-finite value in column "
                        f"{names[col]!r}"
                    )
                vals.append(v)
                mask.append(1.0)
            rows.append(vals)
            mask_rows.append(mask)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(mask_rows), names)


def _load_outcome(loader, path):
    """The dataset ``loader`` returns, or the type and message it raises."""
    try:
        return loader(path)
    except CsvFormatError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_load_matches_reference(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got = _load_outcome(load_csv, path)
        want = _load_outcome(_reference_load_csv, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.variable_names == want.variable_names
    assert got.values.dtype == want.values.dtype == np.float64
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.native_mask, want.native_mask)
    # equal as floats is not enough: -0.0 must stay -0.0
    assert got.values.tobytes() == want.values.tobytes()


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-(10**9), max_value=10**9).map(str),
    st.sampled_from(["1e3", " 2.5 ", "-0.0", "1_0", "\t-7E-2", "+.5", "", " ", "\t "]),
)
_BAD_CELLS = st.sampled_from(
    ["oops", "1..2", "0x10", "1 2", "--1", "nan", " inf", "-inf", "NaN", "1e999"]
)


@st.composite
def _csv_texts(draw):
    """A CSV with 1-9 columns, mostly well formed; some get bad cells or
    ragged rows, at most two of them."""
    n = draw(st.integers(min_value=1, max_value=9))
    t = draw(st.integers(min_value=1, max_value=12))
    names = [draw(st.sampled_from(["a", " b ", "c1", "x_2"])) + str(i) for i in range(n)]
    rows = [[draw(_GOOD_CELLS) for _ in range(n)] for _ in range(t)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = rows[draw(st.integers(min_value=0, max_value=t - 1))]
        kind = draw(st.sampled_from(["cell", "extra", "short"]))
        if kind == "cell" and row:
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(_BAD_CELLS)
        elif kind == "short" and row:
            row.pop()
        else:
            row.append("1")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(row) + eol for row in [names, *rows])


class TestLoadCsvMatchesReference:
    @given(_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_random_grids(self, text):
        _assert_load_matches_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a,b\n",
            "a,b\n1,2\n1,2,3\n",
            "a,b\n1,oops\n",
            "a,b\n1,nan\n",
            "a,b\ninf,1\n",
            "a,b\n1, -inf \n",
            "a,b\n1,2\n1,x\n3\n",  # non-numeric row before a ragged one
            "a,b\n1,2\n3\n1,x\n",  # ragged row before a non-numeric one
            "a,b\nnan,1\n1,oops\n",  # non-finite row before a non-numeric one
            "a,b\nx,nan\n",  # first bad cell of a row wins
            "a,b\nnan,x\n",
            "a\n1\n\n2\n",  # a blank line is a ragged row
        ],
    )
    def test_errors(self, text):
        _assert_load_matches_reference(text)

    def test_bad_row_before_unreadable_row(self):
        huge = "9" * (csv.field_size_limit() + 1)
        _assert_load_matches_reference(f"a,b\n1,x\n1,{huge}\n")
        _assert_load_matches_reference(f"a,b\n1,2\n1,{huge}\n")

    @pytest.mark.parametrize("line", [1, 3])
    def test_unreadable_line_is_csv_format_error(self, tmp_path, line):
        rows = ["a,b", "1,2", "3,4"]
        rows[line - 1] = "5," + "9" * 200000
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CsvFormatError, match=rf"huge\.csv: line {line}: field larger"):
            load_csv(str(path))


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _reference_write_csv(path: str, ds: Dataset) -> None:
    """The row-by-row ``write_csv`` that :func:`write_rows` replaced, kept as
    the oracle for its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.variable_names)
        for t in range(ds.length):
            writer.writerow(
                [
                    repr(float(ds.values[t, i])) if ds.native_mask[t, i] == 1.0 else ""
                    for i in range(ds.n_vars)
                ]
            )


@st.composite
def _datasets(draw):
    """0-8 rows of 1-4 columns, any finite values, any cells missing, and
    names that may need quoting."""
    n = draw(st.integers(min_value=1, max_value=4))
    t = draw(st.integers(min_value=0, max_value=8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(
        [[draw(finite) for _ in range(n)] for _ in range(t)], dtype=np.float64
    ).reshape(t, n)
    mask = np.array(
        [[draw(st.sampled_from([0.0, 1.0])) for _ in range(n)] for _ in range(t)]
    ).reshape(t, n)
    names = [draw(st.text(alphabet='ab ,"', min_size=1, max_size=3)) for _ in range(n)]
    return Dataset(values, mask, names)


class TestWriteCsvMatchesReference:
    @given(_datasets())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_row_by_row_writer(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
            write_csv(got, ds)
            _reference_write_csv(want, ds)
            assert _read_bytes(got) == _read_bytes(want)


_WRITER_CELLS = st.text(alphabet='0.5e-," \r\n\tx', max_size=5)


class TestWriteRows:
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                st.lists(_WRITER_CELLS, min_size=n, max_size=n),
                st.lists(
                    st.lists(_WRITER_CELLS, min_size=n, max_size=n)
                    | st.lists(_WRITER_CELLS, max_size=n + 1),
                    max_size=6,
                ),
            )
        ),
    )
    # ragged rows whose commas add up to a rectangular body's count
    @example(case=(["a", "b"], [["1,2"], ["3", "4"]]))
    # a cell holding a comma, which csv.writer quotes
    @example(case=(["a", "b"], [["1,2", "3"]]))
    # a lone empty cell, which csv.writer quotes
    @example(case=(["a"], [["1"], [""]]))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_csv_writer(self, case):
        header, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
            write_rows(got, header, [list(row) for row in rows])
            with open(want, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            assert _read_bytes(got) == _read_bytes(want)


def _reference_block_mask_column(hidden, obs, spec, rng):
    """Reference copy of the original O(T^2) block placement, kept verbatim
    as the oracle for the vectorized ``data._block_mask_column``."""
    t = hidden.shape[0]
    n_obs = int(obs.sum())
    quota = int(math.ceil(spec.rate * n_obs))
    if quota == 0:
        return

    def hidden_obs() -> int:
        return int((hidden & (obs == 1.0)).sum())

    for allow_touching in (False, True):
        stalled = False
        while hidden_obs() < quota and not stalled:
            length = min(spec.block_len, t)
            starts = []
            for s in range(t - length + 1):
                if hidden[s : s + length].any():
                    continue
                if not allow_touching:
                    if s > 0 and hidden[s - 1]:
                        continue
                    if s + length < t and hidden[s + length]:
                        continue
                starts.append(s)
            if not starts:
                stalled = True
                continue
            s = starts[rng.below(len(starts))]
            remaining = quota - hidden_obs()
            run = length
            if int(obs[s : s + length].sum()) > remaining:
                # truncate the final run to the remaining quota of observed cells
                run, seen = 0, 0
                while seen < remaining:
                    if obs[s + run] == 1.0:
                        seen += 1
                    run += 1
            hidden[s : s + run] = True
        if hidden_obs() >= quota:
            return
    for s in range(t):
        if hidden_obs() >= quota:
            return
        if obs[s] == 1.0 and not hidden[s]:
            hidden[s] = True


def _reference_block_m_art(window, spec):
    """``apply_mask(window, spec).m_art`` for the block pattern, built with
    the reference placement."""
    spec.validate(window_len=window.shape[0])
    rng = SplitMix64(derive(spec.seed, window.index))
    t, n = window.shape
    hidden = np.zeros((t, n), dtype=bool)
    for col in range(n):
        _reference_block_mask_column(hidden[:, col], window.m_obs[:, col], spec, rng)
    return ~(hidden & (window.m_obs == 1.0))


def _assert_block_mask_matches_reference(window, spec):
    got = apply_mask(window, spec).m_art
    want = _reference_block_m_art(window, spec)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def _block_cases(draw):
    t = draw(st.integers(min_value=1, max_value=130))
    # up to 8 variables, so one window's draws can span several chunks
    n = draw(st.integers(min_value=1, max_value=8))
    block_len = draw(
        st.integers(min_value=1, max_value=min(t, 12))
        | st.integers(min_value=1, max_value=t)
        | st.just(t)
    )
    rate = draw(
        st.sampled_from([0.0, 0.05, 0.5, 0.9, 0.99])
        | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    )
    missing = draw(st.floats(min_value=0.0, max_value=0.6))
    obs_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m_obs = (np.random.default_rng(obs_seed).random((t, n)) >= missing).astype(
        np.float64
    )
    all_missing = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
    m_obs[:, all_missing] = 0.0
    window = Window(
        x=np.zeros((t, n)),
        m_obs=m_obs,
        index=draw(st.integers(min_value=0, max_value=10**6)),
    )
    spec = MaskSpec(
        pattern=BLOCK,
        rate=rate,
        block_len=block_len,
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    return window, spec


class TestBlockMaskMatchesReference:
    @given(_block_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_cases(self, case):
        _assert_block_mask_matches_reference(*case)

    @pytest.mark.parametrize("rate", [0.3, 0.5, 0.7])
    def test_eval_shape(self, rate):
        ds = make_synthetic(7, 96 * 8, seed=21)
        spec = MaskSpec(pattern=BLOCK, rate=rate, block_len=4, seed=13)
        windows = make_windows(ds, 96, 96)
        assert [w.index for w in windows] == list(range(8))
        for w in windows:
            _assert_block_mask_matches_reference(w, spec)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_draw_chunk_size_does_not_change_bits(self, monkeypatch, chunk):
        # 8 variables at rate 0.9 and block_len 1 take far more draws per
        # window than any of these chunks hold
        monkeypatch.setattr(data, "_DRAW_CHUNK", chunk)
        m_obs = (np.random.default_rng(chunk).random((40, 8)) >= 0.2).astype(np.float64)
        m_obs[:, 5] = 0.0  # an all-missing column takes no draws
        for block_len in (1, 3, 40):
            spec = MaskSpec(pattern=BLOCK, rate=0.9, block_len=block_len, seed=chunk)
            for index in range(3):
                window = Window(x=np.zeros((40, 8)), m_obs=m_obs, index=index)
                _assert_block_mask_matches_reference(window, spec)


class TestMaskSpecValidation:
    def test_rate_one_rejected(self):
        with pytest.raises(MaskError):
            MaskSpec(rate=1.0).validate()

    def test_negative_rate_rejected(self):
        with pytest.raises(MaskError):
            MaskSpec(rate=-0.1).validate()

    def test_unknown_pattern_rejected(self):
        with pytest.raises(MaskError):
            MaskSpec(pattern="diagonal").validate()

    def test_bad_block_len_rejected(self):
        with pytest.raises(MaskError):
            MaskSpec(pattern=BLOCK, block_len=0).validate()


class TestNormalizer:
    def test_constant_variable(self):
        w = Window(x=np.full((10, 1), 3.0), m_obs=np.ones((10, 1)), index=0)
        norm = fit_normalizer([w])
        assert norm.std[0] == 1.0
        assert np.all(norm.normalize(w.x) == 0.0)

    def test_population_std_example(self):
        x = np.array([[0.0], [2.0]])
        w = Window(x=x, m_obs=np.ones((2, 1)), index=0)
        norm = fit_normalizer([w])
        assert norm.mean[0] == 1.0
        assert norm.std[0] == 1.0
        assert np.array_equal(norm.normalize(x)[:, 0], [-1.0, 1.0])

    def test_round_trip(self):
        ds = make_synthetic(4, 200, seed=16)
        windows = make_windows(ds, 50, 50)
        norm = fit_normalizer(windows)
        x = np.random.default_rng(17).normal(size=(50, 4))
        assert np.max(np.abs(norm.denormalize(norm.normalize(x)) - x)) < 1e-10

    def test_fit_ignores_missing_entries(self):
        x = np.array([[1.0, 5.0], [3.0, 100.0]])
        m = np.array([[1.0, 1.0], [1.0, 0.0]])
        w = Window(x=x * m, m_obs=m, index=0)
        norm = fit_normalizer([w])
        assert norm.mean[1] == 5.0  # the masked 100 never contributes

    def test_normalize_window_zeroes_missing(self):
        x = np.array([[2.0, 0.0], [4.0, 7.0]])
        m = np.array([[1.0, 0.0], [1.0, 1.0]])
        w = Window(x=x * m, m_obs=m, index=0)
        norm = fit_normalizer([w])
        nw = normalize_window(w, norm)
        assert nw.x[0, 1] == 0.0


class TestSynthetic:
    def test_shape_and_full_observation(self):
        ds = make_synthetic(7, 2000, seed=18)
        assert ds.values.shape == (2000, 7)
        assert np.all(ds.native_mask == 1.0)
        assert ds.variable_names == [f"v{i}" for i in range(1, 8)]

    def test_same_seed_identical(self):
        a = make_synthetic(3, 100, seed=19)
        b = make_synthetic(3, 100, seed=19)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = make_synthetic(3, 100, seed=20)
        b = make_synthetic(3, 100, seed=21)
        assert not np.array_equal(a.values, b.values)

    def test_noiseless_is_band_limited(self):
        # two sinusoids with periods in [12, 48]: the power spectrum is
        # concentrated around two frequencies (leakage spreads each peak
        # over a few neighboring bins)
        ds = make_synthetic(1, 960, seed=22, noise_std=0.0)
        power = np.abs(np.fft.rfft(ds.values[:, 0])) ** 2
        top = np.sort(power)[-20:].sum()
        assert top / power.sum() > 0.95

    def test_amplitude_bounded(self):
        # each variable sums two sinusoids with amplitude at most 2.0
        ds = make_synthetic(5, 500, seed=24, noise_std=0.0)
        assert np.max(np.abs(ds.values)) <= 4.0
        assert np.std(ds.values) > 0.1

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_synthetic(0, 10, seed=1)
        with pytest.raises(ValueError):
            make_synthetic(1, 0, seed=1)


class TestDatasetInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.ones((2, 2)), ["a", "b"])

    def test_nonfinite_observed_rejected(self):
        vals = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            Dataset(vals, np.ones((1, 2)), ["a", "b"])

    def test_nonfinite_allowed_when_masked(self):
        vals = np.array([[1.0, np.nan]])
        ds = Dataset(vals, np.array([[1.0, 0.0]]), ["a", "b"])
        assert ds.n_vars == 2


class TestBoolMasks:
    """Every mask is bool, one byte per cell."""

    def test_load_csv(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,b\n1,2\n3,\n"))
        assert ds.native_mask.dtype == bool
        assert np.array_equal(ds.native_mask, [[True, True], [True, False]])

    def test_make_synthetic(self):
        mask = make_synthetic(2, 10, seed=1).native_mask
        assert mask.dtype == bool and mask.all()

    def test_numeric_mask_is_converted(self):
        ds = Dataset(np.zeros((2, 2)), np.array([[1.0, 0.0], [0, 1]]), ["a", "b"])
        assert ds.native_mask.dtype == bool
        assert np.array_equal(ds.native_mask, [[True, False], [False, True]])

    def test_bool_mask_is_kept_without_a_copy(self):
        mask = np.array([[True, False]])
        assert Dataset(np.zeros((1, 2)), mask, ["a", "b"]).native_mask is mask

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
    def test_other_mask_values_rejected(self, bad):
        mask = np.ones((2, 2))
        mask[1, 0] = bad
        with pytest.raises(ValueError, match="0s and 1s"):
            Dataset(np.zeros((2, 2)), mask, ["a", "b"])

    @pytest.mark.parametrize("field", ["m_obs", "m_art"])
    def test_window_mask_is_converted_or_rejected(self, field):
        masks = {"m_obs": np.ones((2, 2)), "m_art": np.ones((2, 2))}
        masks[field][0, 1] = 0.0
        mask = getattr(Window(x=np.zeros((2, 2)), **masks), field)
        assert mask.dtype == bool
        assert np.array_equal(mask, [[True, False], [True, True]])
        masks[field][1, 0] = 0.5
        with pytest.raises(ValueError, match=f"{field} must hold only 0s and 1s"):
            Window(x=np.zeros((2, 2)), **masks)

    def test_default_m_art(self):
        w = Window(x=np.zeros((3, 2)), m_obs=np.ones((3, 2), dtype=bool))
        assert w.m_art.dtype == bool and w.m_art.shape == (3, 2) and w.m_art.all()

    @pytest.mark.parametrize("pattern", [POINT, BLOCK])
    def test_apply_mask(self, pattern):
        w = make_windows(make_synthetic(3, 40, seed=2), 40, 40)[0]
        m_art = apply_mask(w, MaskSpec(pattern=pattern, rate=0.5, seed=3)).m_art
        assert m_art.dtype == bool
        assert 0 < (~m_art).sum() < m_art.size


class TestViews:
    """Split segments and windows are read-only views of their series."""

    @staticmethod
    def _assert_read_only_view(view, base):
        assert np.shares_memory(view, base)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = view[0, 0]

    def test_chrono_split_segments(self):
        ds = make_synthetic(2, 100, seed=1)
        for seg in chrono_split(ds, window_len=10):
            self._assert_read_only_view(seg.values, ds.values)
            self._assert_read_only_view(seg.native_mask, ds.native_mask)
        assert ds.values.flags.writeable and ds.native_mask.flags.writeable

    def test_make_windows(self):
        train, _, _ = chrono_split(make_synthetic(2, 100, seed=1), window_len=10)
        for w in make_windows(train, 10, 5):
            self._assert_read_only_view(w.x, train.values)
            self._assert_read_only_view(w.m_obs, train.native_mask)

    def test_make_windows_of_given_values(self):
        ds = make_synthetic(2, 30, seed=8)
        values = np.arange(60.0).reshape(30, 2)
        for k, w in enumerate(make_windows(ds, 10, 5, values=values)):
            self._assert_read_only_view(w.x, values)
            assert np.array_equal(w.x, values[5 * k : 5 * k + 10])
            assert np.shares_memory(w.m_obs, ds.native_mask)


@given(st.floats(min_value=0.05, max_value=0.9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_point_mask_disjointness_property(rate, seed):
    ds = make_synthetic(3, 60, seed=23)
    w = make_windows(ds, 30, 30)[0]
    tsw = apply_mask(w, MaskSpec(pattern=POINT, rate=rate, seed=seed))
    visible = tsw.m_obs * tsw.m_art
    assert np.all(visible * _eval_mask(tsw) == 0.0)
    assert np.all(_eval_mask(tsw) <= tsw.m_obs)
