"""Multivariate series loading, windowing, splitting, masking, scaling.

Conventions used throughout:

* arrays are time-major ``[T, N]`` float64;
* masks are bool, one byte per cell, with True = observed / kept visible; a
  product or sum reads a cell as exactly 0.0 or 1.0;
* split segments and windows are read-only views of their series; normalizing
  and masking make new arrays;
* the model input is the literal product ``x * observed_mask * artificial_mask``
  (hidden entries become zeros, no learned missing token);
* evaluation positions are exactly the entries that are observed in the
  source but hidden by the artificial mask.

CSV format: one header row of variable names, one row per timestep, empty
cell = natively missing.  :func:`write_rows` is the one CSV writer: it writes
the bytes ``csv.writer`` would, as one joined string when that is provably the
same, for both :func:`write_csv` and ``ibimpute impute``.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .rng import STREAM_SYNTH, SplitMix64, derive

POINT = "point"
BLOCK = "block"
# raw draws a block mask takes from its window's stream per vectorized batch;
# the stream is the window's own, so drawing past its last use changes nothing
_DRAW_CHUNK = 64
# the version of what load_csv makes of a file's bytes; a kept parse is keyed
# by it, so change it whenever the same bytes would parse differently
LOADER_FORMAT = 1


class CsvFormatError(ValueError):
    """Malformed input CSV (ragged row, non-numeric cell, no data)."""


class SplitError(ValueError):
    """Chronological split cannot produce usable segments."""


class MaskError(ValueError):
    """Invalid mask specification."""


@dataclass
class Dataset:
    """A full multivariate series with its native missingness mask; a bool
    mask is kept as it is, a numeric one must hold only 0s and 1s."""

    values: np.ndarray          # [T_total, N]
    native_mask: np.ndarray     # [T_total, N] bool, True = present in source
    variable_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.native_mask)
        if mask.dtype != bool and not np.all((mask == 0) | (mask == 1)):
            raise ValueError("native_mask must hold only 0s and 1s")
        self.native_mask = mask if mask.dtype == bool else mask == 1
        if self.values.shape != self.native_mask.shape:
            raise ValueError(
                f"values {self.values.shape} and native_mask "
                f"{self.native_mask.shape} differ"
            )
        if not np.all(np.isfinite(self.values[self.native_mask])):
            raise ValueError("observed entries must be finite")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass
class Window:
    """A fixed-length slice of a dataset and its artificial mask.

    ``m_art`` marks entries kept visible (True) or artificially hidden (False);
    it is all True until :func:`apply_mask` replaces it.  Entries not observed
    in the source always keep ``m_art`` True, so evaluation positions,
    ``m_obs & ~m_art``, never include natively missing cells.  Windows of
    :func:`make_windows` share their ``x`` and ``m_obs`` with those they overlap.
    """

    x: np.ndarray         # [T, N] ground truth (0 where natively missing)
    m_obs: np.ndarray     # [T, N] bool observed-in-source mask
    m_art: np.ndarray | None = None  # [T, N] bool artificial mask; all True if omitted
    index: int = 0        # position among the windows of its split

    def __post_init__(self):
        if self.m_art is None:
            self.m_art = np.ones(self.x.shape, dtype=bool)

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape


def stack_windows(windows: list[Window]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows' ``x``, ``m_obs`` and ``m_art`` as ``[W, T, N]`` arrays."""
    x = np.stack([w.x for w in windows])
    m_obs = np.stack([w.m_obs for w in windows])
    m_art = np.stack([w.m_art for w in windows])
    return x, m_obs, m_art


@dataclass(frozen=True)
class MaskSpec:
    """How to generate artificial masks.

    ``rate`` is the target fraction of observed entries to hide.  For the
    block pattern, hiding proceeds per variable in runs of ``block_len``
    until at least ``rate`` of that variable's observed entries are hidden;
    the final run is truncated to the remaining quota.
    """

    pattern: str = POINT
    rate: float = 0.5
    block_len: int = 4
    seed: int = 0

    def validate(self, window_len: int | None = None) -> None:
        if self.pattern not in (POINT, BLOCK):
            raise MaskError(f"unknown mask pattern {self.pattern!r}")
        if not (0.0 <= self.rate < 1.0):
            raise MaskError(f"mask rate must be in [0, 1), got {self.rate}")
        if self.pattern == BLOCK:
            if self.block_len < 1:
                raise MaskError(f"block_len must be >= 1, got {self.block_len}")
            if window_len is not None and self.block_len > window_len:
                raise MaskError(
                    f"block_len {self.block_len} exceeds window length {window_len}"
                )


def load_csv(path: str, raw: list[list[str]] | None = None) -> Dataset:
    """Read a dataset CSV; empty cells become natively-missing zeros.

    Cells are stripped and parsed with Python's ``float``, all cells in one
    pass; when that pass fails, the rows are rescanned in file order so the
    error names the first bad line, as a row-by-row reader would.  Given an
    empty list ``raw``, the rows are read into it as they are in the file
    (header first, cells unstripped), so a caller that rewrites the file needs
    no second pass.
    """
    unreadable = None
    rows = raw if raw is not None else []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows.extend(reader)
        except (csv.Error, ValueError) as exc:
            unreadable = CsvFormatError(f"{path}: line {reader.line_num}: {exc}")
    if not rows:
        raise unreadable or CsvFormatError(f"{path}: empty file")
    names = [h.strip() for h in rows[0]]
    n = len(names)
    rows = rows[1:]
    if unreadable is not None:
        # a bad row before the unreadable one is reported first
        raise _first_bad_row(path, names, rows) or unreadable
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    if any(len(row) != n for row in rows):
        raise _first_bad_row(path, names, rows)
    cells = list(map(str.strip, itertools.chain.from_iterable(rows)))
    present = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    values = np.zeros(len(cells))
    try:
        values[present] = np.fromiter(
            map(float, filter(None, cells)), dtype=np.float64, count=int(present.sum())
        )
    except ValueError:
        raise _first_bad_row(path, names, rows) from None
    if not np.isfinite(values).all():
        raise _first_bad_row(path, names, rows)
    shape = (len(rows), n)
    return Dataset(values.reshape(shape), present.reshape(shape), names)


def _first_bad_row(
    path: str, names: list[str], rows: list[list[str]]
) -> CsvFormatError | None:
    """The error for the first ragged, non-numeric or non-finite row, if any."""
    n = len(names)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != n:
            return CsvFormatError(
                f"{path}: line {lineno}: expected {n} cells, got {len(row)}"
            )
        for col, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                continue
            try:
                v = float(cell)
            except ValueError:
                return CsvFormatError(
                    f"{path}: line {lineno}: non-numeric cell "
                    f"{cell!r} in column {names[col]!r}"
                )
            if not math.isfinite(v):
                return CsvFormatError(
                    f"{path}: line {lineno}: non-finite value in column "
                    f"{names[col]!r}"
                )
    return None


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing; on success it replaces ``path``.

    A process killed mid-write leaves the previous file whole, and a write
    that fails removes the temporary file.  Text mode does no newline
    translation, as ``csv`` requires.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_rows(path, header: list[str], rows: list[list[str]]) -> None:
    """Write ``header`` and ``rows`` exactly as ``csv.writer`` would.

    The body goes out as one joined string when that is provably the same
    bytes: every row has one cell per header name and is not a lone empty cell
    (which ``csv.writer`` writes as ``""``), and no cell holds a quote, a comma,
    a CR or a LF, so the counts of each are exactly the separators.  Otherwise,
    e.g. for input that needed quoting, ``csv.writer`` writes the rows itself.
    """
    n = len(header)
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        body = "".join([",".join(row) + "\r\n" for row in rows])
        if (
            all(len(row) == n and row != [""] for row in rows)
            and '"' not in body
            and body.count(",") == len(rows) * (n - 1)
            and body.count("\r") == body.count("\n") == len(rows)
        ):
            fh.write(body)
        else:
            writer.writerows(rows)


def write_csv(path: str, ds: Dataset) -> None:
    """Inverse of :func:`load_csv`; natively missing cells become empty."""
    rows = [
        [repr(v) if seen else "" for v, seen in zip(values, row_seen)]
        for values, row_seen in zip(ds.values.tolist(), ds.native_mask.tolist())
    ]
    write_rows(path, ds.variable_names, rows)


def check_split_fractions(fractions) -> None:
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError(f"fractions must sum to 1, got {fractions}")


def chrono_split(
    ds: Dataset,
    window_len: int,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> tuple[Dataset, Dataset, Dataset]:
    """Split into contiguous train/val/test segments, in time order; each
    segment's arrays are read-only views of ``ds``'s."""
    check_split_fractions(fractions)
    t = ds.length
    n_train = int(math.floor(fractions[0] * t))
    n_val = int(math.floor(fractions[1] * t))
    n_test = t - n_train - n_val
    bounds = {"train": n_train, "val": n_val, "test": n_test}
    for name, size in bounds.items():
        if size <= 0:
            raise SplitError(f"empty split: {name} segment has length {size}")
        if size < window_len:
            raise SplitError(
                f"{name} segment of length {size} is shorter than window {window_len}"
            )
    values, mask = _read_only(ds.values), _read_only(ds.native_mask)
    ends = (0, n_train, n_train + n_val, t)
    train, val, test = (
        Dataset(values[a:b], mask[a:b], list(ds.variable_names)) for a, b in zip(ends, ends[1:])
    )
    return train, val, test


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that raises on a write, as do its slices."""
    view = a.view()
    view.flags.writeable = False
    return view


def make_windows(
    segment: Dataset, window_len: int, stride: int, values: np.ndarray | None = None
) -> list[Window]:
    """Fixed-length windows at the given stride; floor((len-T)/stride)+1 of them.

    Each window's ``x`` and ``m_obs`` are read-only views of the segment's
    arrays, or ``x`` views ``values`` (the segment normalized, say) if given.
    """
    if window_len > segment.length:
        raise SplitError(
            f"window length {window_len} exceeds segment length {segment.length}"
        )
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    x = _read_only(segment.values if values is None else values)
    m_obs = _read_only(segment.native_mask)
    return [
        Window(x=x[s : s + window_len], m_obs=m_obs[s : s + window_len], index=k)
        for k, s in enumerate(range(0, segment.length - window_len + 1, stride))
    ]


def _point_mask(window: Window, spec: MaskSpec, rng: SplitMix64) -> np.ndarray:
    t, n = window.shape
    u = rng.uniforms(t * n).reshape(t, n)
    return ~((u < spec.rate) & (window.m_obs == 1.0))


def _block_mask_column(
    obs_before: list[int], length: int, rate: float, draws: Iterator[int]
) -> bytearray:
    """The cells of one variable's column to hide (1 = hidden): runs until
    the quota is met.  ``obs_before[i]`` counts the observed cells in
    ``[0, i)`` of the column's ``T`` cells.

    Runs have length ``L = length``.  In the first phase a start ``s`` is
    free iff ``[max(s-1, 0), min(s+L+1, T))`` holds no hidden cell, so one
    un-hidden cell separates runs and every run has exactly length ``L``.
    Once no start is free, the second phase drops that gap and only requires
    ``[s, s+L)`` to be clear.  Each run's start is ``free[u % len(free)]``
    for the next raw draw ``u``, as ``rng.below`` would pick it; the final
    run is truncated to the remaining quota of observed cells.  If both
    phases stall before the quota is met, the remaining observed cells are
    hidden left to right.

    The free starts are kept in a sorted list.  The first phase begins with
    every start free, the second rebuilds it once from the gaps between the
    runs placed, and each placed run deletes the starts it blocks by bisection.
    """
    t = len(obs_before) - 1
    hidden = bytearray(t)
    quota = int(math.ceil(rate * obs_before[t]))
    # runs only ever cover un-hidden cells, so the count of hidden observed
    # cells is kept by adding each run's observed cells
    n_hidden = 0
    runs: list[tuple[int, int]] = []
    free = list(range(t - length + 1))
    for pad in (1, 0):
        if pad == 0 and n_hidden < quota:
            free, end = [], 0
            for s, run in sorted(runs):
                free += range(end, s - length + 1)
                end = s + run
            free += range(end, t - length + 1)
        while n_hidden < quota and free:
            s = free[next(draws) % len(free)]
            run = length
            target = obs_before[s] + quota - n_hidden
            if obs_before[s + length] > target:
                # truncate the final run to the remaining quota of observed cells
                run = bisect.bisect_left(obs_before, target, s, s + length) - s
            hidden[s : s + run] = b"\x01" * run
            runs.append((s, run))
            n_hidden += obs_before[s + run] - obs_before[s]
            # the starts whose padded span meets [s, s + run)
            del free[
                bisect.bisect_left(free, s - length - pad + 1) :
                bisect.bisect_right(free, s + run + pad - 1)
            ]
    if n_hidden < quota:
        rest = [i for i in range(t) if not hidden[i] and obs_before[i + 1] > obs_before[i]]
        for i in rest[: quota - n_hidden]:
            hidden[i] = 1
    return hidden


def _chunked_draws(rng: SplitMix64) -> Iterator[int]:
    """``rng``'s raw outputs one by one, generated ``_DRAW_CHUNK`` at a time."""
    return itertools.chain.from_iterable(iter(lambda: rng.u64s(_DRAW_CHUNK).tolist(), None))


def apply_mask(window: Window, spec: MaskSpec) -> Window:
    """Generate this window's artificial mask from ``spec``'s seeded stream:
    the bool complement of the cells it hides.

    The stream is derived from ``(spec.seed, window.index)`` so masking is
    reproducible and windows can be processed in any order.
    """
    spec.validate(window_len=window.shape[0])
    rng = SplitMix64(derive(spec.seed, window.index))
    if spec.pattern == POINT:
        m_art = _point_mask(window, spec, rng)
    else:
        is_obs = window.m_obs == 1.0
        length = min(spec.block_len, window.shape[0])
        draws = _chunked_draws(rng)
        columns = b"".join(
            _block_mask_column([0, *col], length, spec.rate, draws)
            for col in np.cumsum(is_obs, axis=0).T.tolist()
        )
        hidden = np.frombuffer(columns, dtype=bool).reshape(is_obs.T.shape).T
        m_art = ~(hidden & is_obs)
    return replace(window, m_art=m_art)


@dataclass
class Normalizer:
    """Per-variable standardization fitted on training observations only."""

    mean: np.ndarray  # [N]
    std: np.ndarray   # [N], constant variables forced to 1

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


def fit_normalizer(train_windows: list[Window]) -> Normalizer:
    """Population mean/std over observed entries of the training windows."""
    if not train_windows:
        raise ValueError("fit_normalizer: no training windows")
    n = train_windows[0].shape[1]
    mean = np.zeros(n)
    std = np.ones(n)
    xs = np.stack([w.x for w in train_windows])  # [W, T, N]
    ms = np.stack([w.m_obs for w in train_windows])
    for i in range(n):
        vals = xs[:, :, i][ms[:, :, i] == 1.0]
        if vals.size == 0:
            continue
        mean[i] = vals.mean()
        s = vals.std()  # population (ddof=0)
        std[i] = s if s > 0.0 else 1.0
    return Normalizer(mean=mean, std=std)


def normalize_window(window: Window, norm: Normalizer) -> Window:
    return replace(window, x=norm.normalize(window.x) * window.m_obs)


@np.errstate(over="ignore", invalid="ignore")  # Dataset's finiteness check reports the result
def make_synthetic(
    n_vars: int, t_total: int, seed: int, noise_std: float = 0.1
) -> Dataset:
    """Fully observed sum-of-two-sinusoids series, seeded.

    Each variable gets two components with period in [12, 48] steps,
    amplitude in [0.5, 2], uniform phase, plus Gaussian noise.
    """
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    if t_total < 1:
        raise ValueError(f"t_total must be >= 1, got {t_total}")
    rng = SplitMix64(derive(seed, STREAM_SYNTH))
    t = np.arange(t_total, dtype=np.float64)
    values = np.zeros((t_total, n_vars))
    for i in range(n_vars):
        for _ in range(2):
            period = 12.0 + 36.0 * rng.uniform()
            amplitude = 0.5 + 1.5 * rng.uniform()
            phase = 2.0 * np.pi * rng.uniform()
            values[:, i] += amplitude * np.sin(2.0 * np.pi * t / period + phase)
        if noise_std > 0.0:
            values[:, i] += noise_std * rng.normals(t_total)
    names = [f"v{i + 1}" for i in range(n_vars)]
    return Dataset(values, np.ones(values.shape, dtype=bool), names)
