"""Data pipeline: CSV ingestion, 15-minute consolidation, binned hourly
targets, sliding-window samples, randomized splits with overlap discard, and
a seeded synthetic PV + weather generator.

Time is handled as integer minutes since the Unix epoch. A 15-minute grid
slot labeled t covers [t, t+15); an hourly value labeled t covers [t, t+60).
Sample anchors t0 are hour-aligned; the input window covers [t0 - W, t0) and
the forecast targets cover [t0, t0 + 24h).
"""

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, ContractError, DataError, ParseError

MINUTE = 1
HOUR = 60
DAY = 1440
GRID_STEP = 15
SLOTS_PER_HOUR = HOUR // GRID_STEP

NWP_CHANNELS = ("temp_c", "pressure_kpa", "ghi_wm2", "wind_ms", "rh_pct")
PV_CSV_HEADER = ("timestamp", "power_w")
NWP_CSV_HEADER = ("timestamp",) + NWP_CHANNELS
CSV_CHUNK_ROWS = 4096  # stamps per fast-path chunk, rows per write_csv chunk
MAX_GAP_MINUTES = 120  # longest interior gap that consolidate fills
MIN_DAYS = 6  # shortest overlapping coverage a grid is built from


def parse_timestamp(text: str) -> int:
    """ISO-8601 UTC timestamp to whole minutes since the epoch."""
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ParseError(f"bad timestamp '{text}'") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    seconds = dt.timestamp()
    if seconds % 60:
        raise ParseError(f"timestamp '{text}' is not minute-aligned")
    return int(seconds // 60)


def format_timestamp(minute: int) -> str:
    dt = datetime.fromtimestamp(minute * 60, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Raw series
# ---------------------------------------------------------------------------


@dataclass
class RawPvSeries:
    """1-minute PV power stream in watts, clipped to [0, p_max]."""

    timestamps: np.ndarray
    power: np.ndarray
    p_max: float
    clip_warnings: int = 0


@dataclass
class RawNwpSeries:
    """Hourly weather stream; each value is valid for the hour it labels."""

    timestamps: np.ndarray
    channels: np.ndarray  # (n, 5) in NWP_CHANNELS order


def _check_monotone(stamps: np.ndarray, what: str, path) -> None:
    diffs = np.diff(stamps)
    bad = np.nonzero(diffs <= 0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{what} timestamps not strictly increasing at row {_record_line(path, i)}: "
            f"{format_timestamp(int(stamps[i]))} then {format_timestamp(int(stamps[i + 1]))}")


def _records(reader):
    """(line, fields) of each non-blank record of a csv.reader, with the line
    of its input that the record starts on, counting from 1. A record that
    csv.reader rejects, such as one that an unclosed quote runs on past the
    field size limit, is a ParseError that names its line."""
    line = reader.line_num + 1
    try:
        for row in reader:
            if row:
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {line}: {exc}") from None


def _record_line(path, index: int) -> int:
    """File line on which the index-th data record (0-based) starts."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return next(islice(_records(reader), index, None))[0]


# write_csv's stamp layout as a 21-byte field holds it, with the NUL that
# pads it: a digit wherever it has "d".
_FIXED_HEAD = np.frombuffer(b"dddd-dd-ddTdd:dd:00Z\0", dtype=np.uint8)
_DIGIT = _FIXED_HEAD == ord("d")
# Month lengths and the days before each month: a common year's, then a
# leap year's.
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31,
                        31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.concatenate([np.cumsum(m) - m for m in _MONTH_DAYS.reshape(2, 12)])
# The bytes a file on the fast path may hold: printable ASCII, tab and line
# ends. np.loadtxt strips other control bytes around a value, which float()
# rejects, and drops a NUL after a stamp.
_PLAIN_BYTES = bytes(range(32, 127)) + b"\t\r\n"


def _stamp_minutes(heads: np.ndarray) -> np.ndarray | None:
    """Minutes since the epoch of (rows, 21) stamp fields, each in
    write_csv's layout, from arithmetic on their digits, as parse_timestamp
    reads them; None if any field is not so, or names a date or time that
    does not exist."""
    cols = heads.T
    digits = cols[_DIGIT] - ord("0")  # bytes below "0" wrap round above 9
    if (digits > 9).any() or (cols[~_DIGIT] != _FIXED_HEAD[~_DIGIT, None]).any():
        return None
    pairs = 10 * digits[0::2].astype(np.int64) + digits[1::2]
    year = 100 * pairs[0] + pairs[1]
    month, day, hour, minute = pairs[2:]
    if not ((year >= 1).all() and ((month >= 1) & (month <= 12)).all() and (day >= 1).all()
            and (hour < 24).all() and (minute < 60).all()):
        return None
    # Days since 1970-01-01 in the proleptic Gregorian calendar, as Python's
    # datetime counts them, from a table of the years the stamps span; 477
    # leap days fall before 1970. numpy's S16 -> datetime64 cast is not
    # used: with numpy 2.4 it crashes the interpreter when an invalid date
    # follows a few hundred valid ones.
    years = np.arange(year.min(), year.max() + 1)
    before = years - 1
    leap = (years % 4 == 0) & ((years % 100 != 0) | (years % 400 == 0))
    year_start = 365 * (years - 1970) + before // 4 - before // 100 + before // 400 - 477
    nth = year - years[0]
    month_of = month - 1 + 12 * leap[nth]
    if not (day <= _MONTH_DAYS[month_of]).all():
        return None
    days = year_start[nth] + _DAYS_BEFORE_MONTH[month_of] + day - 1
    return days * DAY + hour * HOUR + minute


def _read_fixed(path, header: tuple) -> tuple[np.ndarray, np.ndarray, None] | None:
    """Stamps and (rows, values) of a CSV file whose records each start with
    a stamp in write_csv's layout, read by one np.loadtxt call exactly as the
    row loop reads them, with no parse error. None if the header or any
    record may read otherwise there: another stamp layout, quotes, a field
    that loadtxt rejects, or a byte outside _PLAIN_BYTES. A file whose first
    record's stamp is not in that layout is turned away before loadtxt reads
    it."""
    with open(path, "rb") as fh:
        first = fh.readline(1 << 20)
        names = first.removesuffix(b"\n").removesuffix(b"\r")
        if (not first.endswith(b"\n") or b"\r" in names
                or [n.strip() for n in names.split(b",")] != [h.encode() for h in header]):
            return None
        record = fh.readline(1 << 20)
        stamp = record.split(b",", 1)[0].ljust(_FIXED_HEAD.size, b"\0")
        if (len(stamp) != _FIXED_HEAD.size
                or _stamp_minutes(np.frombuffer(stamp, dtype=np.uint8)[None]) is None):
            return None
        blocks = chain([record], iter(lambda: fh.read(1 << 20), b""))
        if any(block.translate(None, _PLAIN_BYTES) for block in blocks):
            return None
    layout = [("stamp", "S21"), ("values", np.float64, (len(header) - 1,))]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, layout, delimiter=",", comments=None, quotechar=None,
                               skiprows=1, ndmin=1)
    except ValueError:
        return None
    values = np.ascontiguousarray(table["values"])
    heads = table.view(np.uint8).reshape(table.size, table.itemsize)[:, :_FIXED_HEAD.size]
    stamps = np.empty(table.size, dtype=np.int64)
    # A chunk at a time bounds the scratch of the digit arithmetic.
    for lo in range(0, table.size, CSV_CHUNK_ROWS):
        chunk = _stamp_minutes(heads[lo:lo + CSV_CHUNK_ROWS])
        if chunk is None:
            return None
        stamps[lo:lo + CSV_CHUNK_ROWS] = chunk
    return stamps, values, None


def _read_rows(path, header: tuple) -> tuple[np.ndarray, np.ndarray, ParseError | None]:
    """The row loop: read a CSV file with one csv.reader, parse_timestamp and
    float(). Stamps and (rows, values) of the records before the first that
    does not parse, and that record's ParseError or None; no later record is
    read. The error names the file and, but for a byte that does not decode,
    the line; a record that csv.reader rejects is such an error too."""
    stamps, values, error = array("q"), array("d"), None
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise ParseError("empty file")
            if tuple(h.strip() for h in first) != header:
                raise ParseError(f"expected header {','.join(header)}")
            for line, row in _records(reader):
                try:
                    if len(row) != len(header):
                        raise ParseError(f"expected {len(header)} fields, got {len(row)}")
                    stamp, row_values = parse_timestamp(row[0]), [float(v) for v in row[1:]]
                except (ParseError, ValueError) as exc:
                    raise ParseError(f"line {line}: {exc}") from None
                stamps.append(stamp)
                values.extend(row_values)
    except (ParseError, UnicodeDecodeError) as exc:
        error = ParseError(f"{path}: {exc}")
    except csv.Error as exc:  # the header's; _records names a later record's line
        error = ParseError(f"{path}: line 1: {exc}")
    return (np.frombuffer(stamps, dtype=np.int64),
            np.frombuffer(values).reshape(-1, len(header) - 1), error)


def _read_table(path, header: tuple, first_problem) -> tuple[np.ndarray, np.ndarray]:
    """Stamps and (rows, values) of one CSV file: by _read_fixed, or else by
    the row loop from its first line. `first_problem(values)` returns the
    index and message of the first row whose values fail a check, or None.
    Errors name the file line and come in row order, as in a plain row loop:
    every row that the row loop returns comes before its parse error."""
    stamps, values, error = _read_fixed(path, header) or _read_rows(path, header)
    problem = first_problem(values)
    if problem is not None:
        raise DataError(f"{path}: line {_record_line(path, problem[0])}: {problem[1]}")
    if error is not None:
        raise error
    return stamps, values


def _first_nwp_problem(chans: np.ndarray):
    finite = np.isfinite(chans)
    rh = chans[:, 4]
    bad = np.flatnonzero(~finite.all(axis=1) | ~((rh >= 0.0) & (rh <= 100.0))
                         | (chans[:, 2] < 0.0))
    if not bad.size:
        return None
    i = int(bad[0])
    row = chans[i]
    if not finite[i].all():
        k = int(np.argmin(finite[i]))
        return i, f"non-finite {NWP_CHANNELS[k]} {row[k]}"
    if not 0.0 <= row[4] <= 100.0:
        return i, f"humidity {row[4]} outside [0, 100]"
    return i, f"negative irradiance {row[2]}"


def ingest_csv(pv_path, nwp_path, p_max: float) -> tuple[RawPvSeries, RawNwpSeries]:
    """Parse and validate the PV and weather CSV files.

    PV power below 0 or up to 5% above p_max is clipped (counted as a
    warning); beyond 5% is a data error, and so is a non-finite value in any
    channel. Timestamps must strictly increase. Errors name the file line.
    """
    if not 0 < p_max < math.inf:
        raise ContractError(f"p_max must be positive and finite, got {p_max}")
    limit = p_max * 1.05

    def first_pv_problem(power: np.ndarray):
        bad = np.flatnonzero(~(np.isfinite(power[:, 0]) & (power[:, 0] <= limit)))
        if not bad.size:
            return None
        i = int(bad[0])
        value = power[i, 0]
        if not np.isfinite(value):
            return i, f"non-finite power_w {value}"
        return i, f"power {value} exceeds rated {p_max} by more than 5%"

    stamps, power = _read_table(pv_path, PV_CSV_HEADER, first_pv_problem)
    power = power[:, 0]
    low, high = power < 0.0, power > p_max
    clipped = int(np.count_nonzero(low | high))
    power[low] = 0.0
    power[high] = p_max
    _check_monotone(stamps, "PV", pv_path)

    nstamps, chans = _read_table(nwp_path, NWP_CSV_HEADER, _first_nwp_problem)
    _check_monotone(nstamps, "NWP", nwp_path)

    return (RawPvSeries(stamps, power, float(p_max), clipped),
            RawNwpSeries(nstamps, chans))


# ---------------------------------------------------------------------------
# Binned distributions
# ---------------------------------------------------------------------------


def bin_distribution(minute_values, p_max: float, bins: int = 50) -> np.ndarray:
    """Histogram of sub-hourly power over uniform bins of [0, p_max], over
    the last axis: (..., minutes) values give (..., bins) probabilities.

    Bin k covers [k*p_max/bins, (k+1)*p_max/bins); the last bin is closed
    above so the rated maximum itself lands in bin bins-1.
    """
    values = np.asarray(minute_values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("bin_distribution needs at least one value")
    values = np.clip(values, 0.0, p_max)
    idx = np.minimum((values * bins / p_max).astype(np.int64), bins - 1)
    # One bincount for every histogram: row r counts into bins [r*bins, (r+1)*bins).
    rows = idx.reshape(-1, idx.shape[-1])
    offsets = bins * np.arange(rows.shape[0], dtype=np.int64)[:, None]
    counts = np.bincount((rows + offsets).ravel(), minlength=rows.shape[0] * bins)
    counts = counts.reshape(values.shape[:-1] + (bins,)).astype(np.float64)
    return counts / counts.sum(axis=-1, keepdims=True)


def expected_value(probs) -> float:
    """Bin-center expectation of a binned distribution, normalized to [0, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    bins = p.shape[-1]
    centers = (np.arange(bins) + 0.5) / bins
    return float(p @ centers) if p.ndim == 1 else p @ centers


def distribution_quantile(probs, q: float) -> float:
    """Quantile of a binned distribution with linear within-bin interpolation,
    in normalized [0, 1] power units."""
    p = np.asarray(probs, dtype=np.float64)
    bins = p.size
    cdf = np.cumsum(p)
    k = int(np.searchsorted(cdf, q, side="left"))
    if k >= bins:
        return 1.0
    prev = cdf[k - 1] if k > 0 else 0.0
    frac = (q - prev) / (cdf[k] - prev) if cdf[k] > prev else 0.0
    return (k + frac) / bins


# ---------------------------------------------------------------------------
# Consolidated dataset
# ---------------------------------------------------------------------------


@dataclass
class AlignedDataset:
    """Uniform 15-minute grid of 5 weather channels plus PV, with hourly
    binned target distributions built from the native 1-minute PV stream."""

    grid_start: int                 # minute stamp of the first 15-min slot
    features: np.ndarray            # (n_slots, 6), normalized to [0, 1]
    norm_min: np.ndarray            # (6,) physical-unit constants
    norm_max: np.ndarray
    hour_targets: np.ndarray        # (n_hours, bins)
    p_max: float
    bins: int = 50

    @property
    def n_slots(self) -> int:
        return self.features.shape[0]

    @property
    def n_hours(self) -> int:
        return self.hour_targets.shape[0]

    @property
    def hours_end(self) -> int:
        return self.grid_start + self.n_hours * HOUR

    def slot_index(self, minute: int) -> int:
        offset = minute - self.grid_start
        if offset % GRID_STEP:
            raise ContractError(f"minute {minute} is not on the 15-minute grid")
        return offset // GRID_STEP

    def hour_index(self, minute: int) -> int:
        offset = minute - self.grid_start
        if offset % HOUR:
            raise ContractError(f"minute {minute} is not hour-aligned")
        return offset // HOUR


def _check_gaps(stamps: np.ndarray, what: str) -> None:
    """Reject a stream (two or more stamps) with a gap over MAX_GAP_MINUTES."""
    gaps = np.diff(stamps)
    i = int(np.argmax(gaps))
    if gaps[i] > MAX_GAP_MINUTES:
        raise DataError(
            f"{what} gap of {int(gaps[i])} minutes at {format_timestamp(int(stamps[i]))} "
            f"exceeds the {MAX_GAP_MINUTES}-minute fill limit")


def _fill_minute_gaps(stamps: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    full = np.arange(stamps[0], stamps[-1] + 1, dtype=np.int64)
    if full.size == stamps.size:
        return stamps, values
    return full, np.interp(full, stamps, values)


def _build_grid(pv: RawPvSeries, nwp: RawNwpSeries,
                bins: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Shared grid construction; returns (first_hour, raw features, targets)."""
    if pv.timestamps.size < 2 or nwp.timestamps.size < 2:
        raise DataError("need at least two records in each stream")

    _check_gaps(pv.timestamps, "PV")
    _check_gaps(nwp.timestamps, "NWP")
    pv_stamps, pv_power = _fill_minute_gaps(pv.timestamps, pv.power)

    lo = max(int(pv_stamps[0]), int(nwp.timestamps[0]))
    hi = min(int(pv_stamps[-1]), int(nwp.timestamps[-1]) + HOUR - 1)
    if hi - lo + 1 < MIN_DAYS * DAY:
        raise DataError(
            f"overlapping coverage is {(hi - lo + 1) / DAY:.2f} days; need >= {MIN_DAYS}")

    first_hour = int(math.ceil(lo / HOUR)) * HOUR
    last_hour_start = ((hi - HOUR + 1) // HOUR) * HOUR
    n_hours = (last_hour_start - first_hour) // HOUR + 1
    if n_hours <= 0:
        raise DataError("no complete hour in the overlapping coverage")
    n_slots = n_hours * SLOTS_PER_HOUR
    slot_stamps = first_hour + GRID_STEP * np.arange(n_slots, dtype=np.int64)

    # PV: mean over each [t, t+15) slot; minute stream is gap-free here.
    base = first_hour - int(pv_stamps[0])
    pv_window = pv_power[base:base + n_slots * GRID_STEP]
    pv_15 = pv_window.reshape(n_slots, GRID_STEP).mean(axis=1)

    # NWP: linear interpolation at slot stamps, clamped at the range ends.
    features = np.empty((n_slots, 6))
    for ch in range(5):
        features[:, ch] = np.interp(slot_stamps, nwp.timestamps, nwp.channels[:, ch])
    features[:, 5] = pv_15

    targets = bin_distribution(pv_window.reshape(n_hours, HOUR), pv.p_max, bins)

    return first_hour, features, targets


def _scale_in_place(data: AlignedDataset, norm_min, norm_max) -> None:
    """Min-max scale the grid to [0, 1] in place with the given constants and
    record them; every view of the grid, such as a Sample's, sees the result."""
    data.norm_min = np.asarray(norm_min, dtype=np.float64)
    data.norm_max = np.asarray(norm_max, dtype=np.float64)
    data.features -= data.norm_min
    data.features /= np.where(data.norm_max > data.norm_min,
                              data.norm_max - data.norm_min, 1.0)
    np.clip(data.features, 0.0, 1.0, out=data.features)


def consolidate(pv: RawPvSeries, nwp: RawNwpSeries,
                norm_min: np.ndarray | None = None,
                norm_max: np.ndarray | None = None,
                bins: int = 50) -> AlignedDataset:
    """Merge the two streams onto the common 15-minute grid.

    Weather channels are linearly interpolated from hourly to 15-minute
    resolution; PV is averaged over each 15-minute slot; hourly targets are
    histograms of the 60 underlying minute values. Interior gaps up to two
    hours are filled linearly, larger ones are an error. Channels are min-max
    normalized; pass explicit constants to reuse training-split statistics.
    """
    first_hour, features, targets = _build_grid(pv, nwp, bins)
    if norm_min is None or norm_max is None:
        norm_min, norm_max = features.min(axis=0), features.max(axis=0)
    data = AlignedDataset(first_hour, features, norm_min, norm_max, targets, pv.p_max, bins)
    _scale_in_place(data, norm_min, norm_max)
    return data


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One forecasting example: an input window ending just before the anchor
    and the next day of hourly targets."""

    anchor: int
    input: np.ndarray                  # (input_steps, 6)
    history_pdf: np.ndarray            # (output_steps, bins) hours before anchor
    p0_pdf: np.ndarray                 # (bins,) the hour ending at the anchor
    target_pdf: np.ndarray | None      # (output_steps, bins)
    nwp_ahead: np.ndarray | None = None  # (output_steps, 5) forecast-day weather

    @property
    def input_steps(self) -> int:
        return self.input.shape[0]

    @property
    def output_steps(self) -> int:
        return self.history_pdf.shape[0]

    @property
    def p0_e(self) -> float:
        return expected_value(self.p0_pdf)

    @property
    def target_e(self) -> np.ndarray:
        if self.target_pdf is None:
            raise ContractError("sample has no targets")
        return expected_value(self.target_pdf)

    def input_span(self) -> tuple[int, int]:
        return (self.anchor - self.input_steps * GRID_STEP,
                self.anchor + self.output_steps * HOUR)

    def target_span(self) -> tuple[int, int]:
        return (self.anchor, self.anchor + self.output_steps * HOUR)


def make_sample(data: AlignedDataset, anchor: int, input_steps: int = 480,
                output_steps: int = 24, with_targets: bool = True) -> Sample:
    """Build the sample anchored at the given hour-aligned minute.

    Every array is a read-only view of the dataset's grid, not a copy.
    """
    window = input_steps * GRID_STEP
    s0 = data.slot_index(anchor - window)
    s1 = data.slot_index(anchor)
    if s0 < 0 or s1 > data.n_slots:
        raise ContractError(f"anchor {format_timestamp(anchor)} lacks a full input window")
    h_hist = data.hour_index(anchor - output_steps * HOUR)
    if h_hist < 0:
        raise ContractError(f"anchor {format_timestamp(anchor)} lacks forecast-length history")
    h0 = data.hour_index(anchor)
    # Slices of read-only views are read-only; the grid itself stays writable.
    features, targets = data.features.view(), data.hour_targets.view()
    features.flags.writeable = targets.flags.writeable = False
    target = None
    nwp_ahead = None
    if with_targets:
        if h0 + output_steps > data.n_hours:
            raise ContractError(f"anchor {format_timestamp(anchor)} lacks a full target day")
        target = targets[h0:h0 + output_steps]
        nwp_ahead = features[s1:s1 + SLOTS_PER_HOUR * output_steps:SLOTS_PER_HOUR, :5]
    return Sample(anchor, features[s0:s1], targets[h_hist:h0], targets[h0 - 1], target,
                  nwp_ahead)


def list_anchors(data: AlignedDataset, stride_hours: int = 24, input_steps: int = 480,
                 output_steps: int = 24) -> list[int]:
    window = input_steps * GRID_STEP
    lead = max(window, output_steps * HOUR)
    first = data.grid_start + lead
    last = data.hours_end - output_steps * HOUR
    return list(range(first, last + 1, stride_hours * HOUR))


def make_samples(data: AlignedDataset, stride_hours: int = 24, input_steps: int = 480,
                 output_steps: int = 24) -> list[Sample]:
    """One sample per stride step over every anchor with full coverage."""
    return [make_sample(data, t0, input_steps, output_steps)
            for t0 in list_anchors(data, stride_hours, input_steps, output_steps)]


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    train: list[Sample]
    val: list[Sample]
    test: list[Sample]
    discarded: int

    def __iter__(self):
        return iter((self.train, self.val, self.test))


def _spans_conflict(a: Sample, b: Sample) -> bool:
    for span, target in ((a.input_span(), b.target_span()),
                         (b.input_span(), a.target_span())):
        if span[0] < target[1] and target[0] < span[1]:
            return True
    return False


def split(samples, fractions=(0.70, 0.15, 0.15), seed: int = 0) -> SplitResult:
    """Seeded random assignment at the given ratios, then discard of any
    sample whose full span overlaps a differently assigned sample's target
    span. Ties keep the earlier-anchored sample and drop the later one.
    The discard is linear after the sort: each sample is checked against at
    most one kept sample of each other class. Samples need at least one
    output step.
    """
    samples = list(samples)
    if not samples:
        raise ContractError("split needs a nonempty sample set")
    if abs(sum(fractions) - 1.0) > 1e-9 or len(fractions) != 3:
        raise ConfigError(f"fractions must be three values summing to 1, got {fractions}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_train = int(round(fractions[0] * len(samples)))
    n_val = int(round(fractions[1] * len(samples)))
    assign = np.empty(len(samples), dtype=np.int64)
    assign[order[:n_train]] = 0
    assign[order[n_train:n_train + n_val]] = 1
    assign[order[n_train + n_val:]] = 2

    # Every span starts at or before its anchor and ends where its targets
    # end, so a kept sample conflicts with a later-anchored one exactly when
    # it ends after the later one's input start: per class, the kept sample
    # that ends latest decides.
    by_anchor = sorted(range(len(samples)), key=lambda i: samples[i].anchor)
    latest: list[Sample | None] = [None, None, None]
    kept: list[int] = []
    discarded = 0
    for i in by_anchor:
        s, cls = samples[i], assign[i]
        if any(c != cls and other is not None and _spans_conflict(other, s)
               for c, other in enumerate(latest)):
            discarded += 1
            continue
        kept.append(i)
        if latest[cls] is None or s.target_span()[1] > latest[cls].target_span()[1]:
            latest[cls] = s

    parts: tuple[list[Sample], list[Sample], list[Sample]] = ([], [], [])
    for i in kept:
        parts[assign[i]].append(samples[i])
    return SplitResult(parts[0], parts[1], parts[2], discarded)


@dataclass
class PreparedData:
    """Fully prepared splits plus the constants a run manifest records."""

    dataset: AlignedDataset
    splits: SplitResult
    split_seed: int
    input_steps: int


def build_splits(pv: RawPvSeries, nwp: RawNwpSeries, stride_hours: int = 24,
                 input_steps: int = 480, output_steps: int = 24,
                 fractions=(0.70, 0.15, 0.15), seed: int = 0,
                 bins: int = 50) -> PreparedData:
    """End-to-end preparation with leakage-safe normalization.

    The split is decided on the raw grid; min-max constants are then computed
    over the grid rows covered by training-sample input windows only and
    applied to the whole grid in place, so the split's samples, which are
    views of it, come out scaled. Each window is built once.
    """
    first_hour, features, targets = _build_grid(pv, nwp, bins)
    # Constants 0 and 1 until the grid is scaled below.
    data = AlignedDataset(first_hour, features, np.zeros(6), np.ones(6), targets,
                          pv.p_max, bins)
    splits = split(make_samples(data, stride_hours, input_steps, output_steps),
                   fractions, seed)

    # Slots under a train window: each window adds 1 from its first slot on
    # and takes it away after its last.
    anchor_slots = (np.array([s.anchor for s in splits.train], dtype=np.int64)
                    - data.grid_start) // GRID_STEP
    edges = (np.bincount(anchor_slots - input_steps, minlength=data.n_slots + 1)
             - np.bincount(anchor_slots, minlength=data.n_slots + 1))
    mask = np.cumsum(edges[:data.n_slots]) > 0
    if not mask.any():
        raise DataError("no training coverage left after the overlap discard")
    _scale_in_place(data, features[mask].min(axis=0), features[mask].max(axis=0))
    return PreparedData(data, splits, seed, input_steps)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def _daylight(day_of_year: np.ndarray, minute_of_day: np.ndarray):
    """Seasonal half-sine envelope; zero outside the sunrise-sunset span."""
    season = np.sin(2.0 * np.pi * (day_of_year - 80.0) / 365.0)
    sunrise = (6.5 - 1.5 * season) * HOUR
    sunset = (17.5 + 1.5 * season) * HOUR
    amplitude = 0.75 + 0.25 * season
    phase = (minute_of_day - sunrise) / (sunset - sunrise)
    up = (phase > 0.0) & (phase < 1.0)
    env = np.where(up, amplitude * np.sin(np.pi * np.clip(phase, 0.0, 1.0)), 0.0)
    return env, up


def synth_generate(days: int, seed: int = 0, p_max: float = 5000.0,
                   start_minute: int = 0) -> tuple[RawPvSeries, RawNwpSeries]:
    """Seeded synthetic stand-in for a real site: a clear-sky envelope with
    seasonal modulation, an hourly AR(1) cloudiness factor in [0.1, 1], and
    weather channels driven by the same processes."""
    if days < 6:
        raise ConfigError(f"need at least 6 days of data, got {days}")
    rng = np.random.default_rng(seed)

    n_min = days * DAY
    minutes = start_minute + np.arange(n_min, dtype=np.int64)
    day_of_year = (minutes // DAY) % 365
    minute_of_day = minutes % DAY

    n_hours = days * 24
    # Hourly AR(1) with unit stationary variance; phi trades within-day
    # smoothness against day-to-day carryover of cloud conditions.
    phi = 0.7
    sigma = math.sqrt(1.0 - phi * phi)
    z = np.empty(n_hours + 1)
    z[0] = rng.normal()
    shocks = rng.normal(size=n_hours)
    for h in range(n_hours):
        z[h + 1] = phi * z[h] + sigma * shocks[h]
    cloud_hourly = 0.1 + 0.9 / (1.0 + np.exp(-1.4 * z[1:] + 0.3))

    hour_stamps = start_minute + HOUR * np.arange(n_hours, dtype=np.int64)
    cloud_min = np.interp(minutes, hour_stamps, cloud_hourly)

    env, up = _daylight(day_of_year, minute_of_day)
    pv = p_max * env * cloud_min
    noise = rng.normal(scale=0.01 * p_max, size=n_min)
    pv = np.where(up, np.clip(pv + noise, 0.0, p_max), 0.0)

    doy_h = (hour_stamps // DAY) % 365
    mod_h = hour_stamps % DAY
    env_h, _ = _daylight(doy_h, mod_h)
    hour_frac = mod_h / DAY

    ghi = 1000.0 * env_h * cloud_hourly
    ghi = np.clip(ghi + rng.normal(scale=15.0, size=n_hours) * (env_h > 0), 0.0, None)
    temp = (10.0 + 12.0 * np.sin(2.0 * np.pi * (doy_h - 100.0) / 365.0)
            + 6.0 * np.sin(2.0 * np.pi * (hour_frac - 0.375)) * (0.4 + 0.6 * cloud_hourly)
            + rng.normal(scale=0.3, size=n_hours))
    pressure = (101.3 + 1.2 * np.sin(2.0 * np.pi * doy_h / 365.0 + 0.7)
                + rng.normal(scale=0.05, size=n_hours))
    wind = np.clip(3.0 + 1.5 * np.sin(2.0 * np.pi * hour_frac + 1.0)
                   + 2.0 * (1.0 - cloud_hourly) * 0.5
                   + rng.normal(scale=0.4, size=n_hours), 0.0, None)
    rh = np.clip(55.0 + 30.0 * (1.0 - cloud_hourly)
                 + 8.0 * np.sin(2.0 * np.pi * (hour_frac - 0.2))
                 + rng.normal(scale=2.0, size=n_hours), 0.0, 100.0)

    channels = np.column_stack([temp, pressure, ghi, wind, rh])
    return (RawPvSeries(minutes, pv, float(p_max)),
            RawNwpSeries(hour_stamps, channels))


def write_csv(pv: RawPvSeries, nwp: RawNwpSeries, pv_path, nwp_path) -> None:
    """Write both streams as CSV with csv.writer's \\r\\n line ends. Rows are
    formatted and written in chunks, which bounds the memory the text takes."""
    for path, header, stamps, values, digits in (
            (pv_path, PV_CSV_HEADER, pv.timestamps, pv.power[:, None], 3),
            (nwp_path, NWP_CSV_HEADER, nwp.timestamps, nwp.channels, 4)):
        row_format = "%sZ" + f",%.{digits}f" * values.shape[1] + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, stamps.size, CSV_CHUNK_ROWS):
                chunk = slice(lo, lo + CSV_CHUNK_ROWS)
                text = np.datetime_as_string(stamps[chunk].astype("datetime64[m]"), unit="s")
                fh.write("".join(row_format % (t, *row) for t, row in
                                 zip(text.tolist(), values[chunk].tolist())))
