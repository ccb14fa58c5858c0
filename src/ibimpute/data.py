"""Multivariate series loading, windowing, splitting, masking, scaling.

Conventions used throughout:

* arrays are time-major ``[T, N]`` float64;
* masks are {0, 1} with 1 = observed / kept visible;
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

import csv
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .rng import STREAM_SYNTH, SplitMix64, derive

POINT = "point"
BLOCK = "block"


class CsvFormatError(ValueError):
    """Malformed input CSV (ragged row, non-numeric cell, no data)."""


class SplitError(ValueError):
    """Chronological split cannot produce usable segments."""


class MaskError(ValueError):
    """Invalid mask specification."""


@dataclass
class Dataset:
    """A full multivariate series with its native missingness mask."""

    values: np.ndarray          # [T_total, N]
    native_mask: np.ndarray     # [T_total, N], 1 = present in source
    variable_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.native_mask = np.asarray(self.native_mask, dtype=np.float64)
        if self.values.shape != self.native_mask.shape:
            raise ValueError(
                f"values {self.values.shape} and native_mask "
                f"{self.native_mask.shape} differ"
            )
        if not np.all(np.isfinite(self.values[self.native_mask == 1.0])):
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

    ``m_art`` marks entries kept visible (1) or artificially hidden (0); it is
    all ones until :func:`apply_mask` replaces it.  Entries not observed in the
    source always keep ``m_art == 1``, so evaluation positions,
    ``m_obs == 1 and m_art == 0``, never include natively missing cells.
    """

    x: np.ndarray         # [T, N] ground truth (0 where natively missing)
    m_obs: np.ndarray     # [T, N] observed-in-source mask
    m_art: np.ndarray | None = None  # [T, N] artificial mask; all ones if omitted
    index: int = 0        # position among the windows of its split

    def __post_init__(self):
        if self.m_art is None:
            self.m_art = np.ones(self.x.shape)

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
    return Dataset(values.reshape(shape), present.reshape(shape).astype(np.float64), names)


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
    observed = (ds.native_mask == 1.0).tolist()
    rows = [
        [repr(v) if seen else "" for v, seen in zip(values, row_seen)]
        for values, row_seen in zip(ds.values.tolist(), observed)
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
    """Split into contiguous train/val/test segments, in time order."""
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
    parts = []
    start = 0
    for size in (n_train, n_val, n_test):
        parts.append(
            Dataset(
                ds.values[start : start + size].copy(),
                ds.native_mask[start : start + size].copy(),
                list(ds.variable_names),
            )
        )
        start += size
    return parts[0], parts[1], parts[2]


def make_windows(segment: Dataset, window_len: int, stride: int) -> list[Window]:
    """Fixed-length windows at the given stride; floor((len-T)/stride)+1 of them."""
    if window_len > segment.length:
        raise SplitError(
            f"window length {window_len} exceeds segment length {segment.length}"
        )
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    windows = []
    for k, start in enumerate(range(0, segment.length - window_len + 1, stride)):
        windows.append(
            Window(
                x=segment.values[start : start + window_len].copy(),
                m_obs=segment.native_mask[start : start + window_len].copy(),
                index=k,
            )
        )
    return windows


def _point_mask(window: Window, spec: MaskSpec, rng: SplitMix64) -> np.ndarray:
    t, n = window.shape
    u = rng.uniforms(t * n).reshape(t, n)
    hidden = (u < spec.rate) & (window.m_obs == 1.0)
    return 1.0 - hidden.astype(np.float64)


def _block_mask_column(
    hidden: np.ndarray, obs: np.ndarray, spec: MaskSpec, rng: SplitMix64
) -> None:
    """Hide runs in one variable's column (in place) until the quota is met.

    Runs have length ``L = min(block_len, T)``.  In the first phase a start
    ``s`` is free iff ``hidden[max(s-1, 0) : min(s+L+1, T)]`` holds no hidden
    cell, so one un-hidden cell separates runs and every run has exactly
    length ``L``.  Once no start is free, the second phase drops that gap and
    only requires ``hidden[s : s+L]`` to be clear.  Each run's start is drawn
    uniformly from the free starts with one ``rng.below``; the final run is
    truncated to the remaining quota of observed cells.  If both phases stall
    before the quota is met, the remaining observed cells are hidden left to
    right.

    Each placed run costs one prefix-sum pass over the column, which finds
    every free start at once.
    """
    t = hidden.shape[0]
    n_obs = int(obs.sum())
    quota = int(math.ceil(spec.rate * n_obs))
    if quota == 0:
        return
    is_obs = obs == 1.0
    # obs_before[i]: observed cells in [0, i).  Runs only ever cover
    # un-hidden cells, so the count of hidden observed cells is kept by
    # adding each run's observed cells.
    obs_before = [0, *np.cumsum(is_obs).tolist()]
    n_hidden = int((hidden & is_obs).sum())
    length = min(spec.block_len, t)
    s_all = np.arange(t - length + 1)
    counts = np.zeros(t + 1, dtype=np.int64)  # counts[i]: hidden cells in [0, i)
    for pad in (1, 0):
        # start s is free iff hidden[lo[s] : hi[s]] holds no hidden cell
        lo = np.maximum(s_all - pad, 0)
        hi = np.minimum(s_all + length + pad, t)
        while n_hidden < quota:
            hidden.cumsum(out=counts[1:])
            starts = (counts[hi] == counts[lo]).nonzero()[0]
            if starts.size == 0:
                break
            s = int(starts[rng.below(starts.size)])
            remaining = quota - n_hidden
            run = length
            if obs_before[s + length] - obs_before[s] > remaining:
                # truncate the final run to the remaining quota of observed cells
                run = int(np.flatnonzero(is_obs[s : s + length])[remaining - 1]) + 1
            hidden[s : s + run] = True
            n_hidden += obs_before[s + run] - obs_before[s]
    if n_hidden < quota:
        rest = np.flatnonzero(is_obs & ~hidden)[: quota - n_hidden]
        hidden[rest] = True


def apply_mask(window: Window, spec: MaskSpec) -> Window:
    """Generate this window's artificial mask from ``spec``'s seeded stream.

    The stream is derived from ``(spec.seed, window.index)`` so masking is
    reproducible and windows can be processed in any order.
    """
    spec.validate(window_len=window.shape[0])
    rng = SplitMix64(derive(spec.seed, window.index))
    if spec.pattern == POINT:
        m_art = _point_mask(window, spec, rng)
    else:
        t, n = window.shape
        hidden = np.zeros((t, n), dtype=bool)
        for col in range(n):
            _block_mask_column(hidden[:, col], window.m_obs[:, col], spec, rng)
        m_art = np.where(hidden & (window.m_obs == 1.0), 0.0, 1.0)
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
    xs, ms, _ = stack_windows(train_windows)  # [W, T, N]
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
    return Dataset(values, np.ones_like(values), names)
