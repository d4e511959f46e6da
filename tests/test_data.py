"""Data pipeline tests: ingestion, consolidation, binning, sampling, splits,
and the synthetic generator."""

import csv
import hashlib
import logging
import math
import re
import tracemalloc
import warnings
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcast import data
from pvcast.data import (DAY, GRID_STEP, HOUR, NWP_CSV_HEADER, PV_CSV_HEADER,
                         RawNwpSeries, RawPvSeries, SplitResult, Window,
                         bin_distribution, build_splits,
                         consolidate, distribution_quantile, expected_value,
                         format_timestamp, ingest_csv, list_anchors, make_sample,
                         make_samples, split, synth_generate, write_csv)
from pvcast.errors import ConfigError, ContractError, DataError, ParseError

P_MAX = 1000.0


def _pv_csv(tmp_path, rows, name="pv.csv"):
    path = tmp_path / name
    path.write_text("timestamp,power_w\n" + "\n".join(rows) + "\n")
    return path


def _nwp_csv(tmp_path, rows, name="nwp.csv"):
    path = tmp_path / name
    path.write_text("timestamp,temp_c,pressure_kpa,ghi_wm2,wind_ms,rh_pct\n"
                    + "\n".join(rows) + "\n")
    return path


def _small_nwp(tmp_path):
    return _nwp_csv(tmp_path, ["2021-01-01T00:00:00Z,5,101,0,3,60",
                               "2021-01-01T01:00:00Z,6,101,0,3,61"])


# ---------------------------------------------------------------- ingest ---


def test_ingest_two_rows():
    # round-trip through the CSV writer to pin both schema directions
    pv, nwp = synth_generate(6, seed=1, p_max=P_MAX)
    assert pv.timestamps.size == 6 * DAY
    assert nwp.timestamps.size == 6 * 24


def test_ingest_well_formed(tmp_path):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,100.0",
                                 "2021-01-01T00:01:00Z,101.5"])
    pv, nwp = ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)
    assert pv.timestamps.size == 2
    assert pv.power[1] == pytest.approx(101.5)
    assert nwp.channels.shape == (2, 5)


def test_ingest_negative_power_clipped_with_warning(tmp_path):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,-3.0",
                                 "2021-01-01T00:01:00Z,50.0"])
    pv, _ = ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)
    assert pv.power[0] == 0.0
    assert pv.clip_warnings == 1


def test_ingest_logs_one_warning_naming_the_file_and_the_clip_count(tmp_path, caplog):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,-3.0",
                                 "2021-01-01T00:01:00Z,50.0"])
    with caplog.at_level(logging.WARNING, logger="pvcast"):
        ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("pvcast", logging.WARNING, f"{pv_path}: clipped 1 power_w values to [0, 1000]")]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="pvcast"):
        ingest_csv(_pv_csv(tmp_path, ["2021-01-01T00:00:00Z,50.0"], name="ok.csv"),
                   _small_nwp(tmp_path), P_MAX)
    assert not caplog.records


def test_ingest_small_overshoot_clipped_large_rejected(tmp_path):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,1040.0"])
    pv, _ = ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)
    assert pv.power[0] == P_MAX
    assert pv.clip_warnings == 1

    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,1051.0"], name="pv2.csv")
    with pytest.raises(DataError, match="more than 5%"):
        ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)


def test_ingest_shuffled_timestamps_name_first_inversion(tmp_path):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:02:00Z,1.0",
                                 "2021-01-01T00:01:00Z,2.0",
                                 "2021-01-01T00:03:00Z,3.0"])
    with pytest.raises(DataError, match="row 2"):
        ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)


def test_ingest_malformed_row_reports_line(tmp_path):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,1.0",
                                 "2021-01-01T00:01:00Z,not-a-number"])
    with pytest.raises(ParseError, match="line 3"):
        ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)


def test_ingest_bad_header(tmp_path):
    path = tmp_path / "pv.csv"
    path.write_text("time,watts\n2021-01-01T00:00:00Z,1\n")
    with pytest.raises(ParseError, match="header"):
        ingest_csv(path, _small_nwp(tmp_path), P_MAX)


def test_ingest_humidity_range(tmp_path):
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,1.0"])
    nwp_path = _nwp_csv(tmp_path, ["2021-01-01T00:00:00Z,5,101,0,3,140"])
    with pytest.raises(DataError, match="humidity"):
        ingest_csv(pv_path, nwp_path, P_MAX)


def test_csv_round_trip(tmp_path):
    pv, nwp = synth_generate(6, seed=9, p_max=P_MAX)
    write_csv(pv, nwp, tmp_path / "pv.csv", tmp_path / "nwp.csv")
    pv2, nwp2 = ingest_csv(tmp_path / "pv.csv", tmp_path / "nwp.csv", P_MAX)
    assert np.array_equal(pv.timestamps, pv2.timestamps)
    assert np.allclose(pv.power, pv2.power, atol=5e-4)
    assert np.allclose(nwp.channels, nwp2.channels, atol=5e-5)


def _write_csv_reference(pv, nwp, pv_path, nwp_path):
    with open(pv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PV_CSV_HEADER)
        for t, w in zip(pv.timestamps, pv.power):
            writer.writerow([format_timestamp(int(t)), f"{w:.3f}"])
    with open(nwp_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NWP_CSV_HEADER)
        for t, row in zip(nwp.timestamps, nwp.channels):
            writer.writerow([format_timestamp(int(t))] + [f"{v:.4f}" for v in row])


def test_write_csv_bytes_match_csv_writer_reference(tmp_path):
    pv, nwp = synth_generate(6, seed=9, p_max=P_MAX, start_minute=26_000_000)
    pv.power[:3] = [-0.0, 1e-4, -2.5]
    write_csv(pv, nwp, tmp_path / "pv.csv", tmp_path / "nwp.csv")
    _write_csv_reference(pv, nwp, tmp_path / "pv_ref.csv", tmp_path / "nwp_ref.csv")
    for name in ("pv", "nwp"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert got.endswith(b"\r\n")


# SHA-256 of pv.csv and nwp.csv for the default generator's output as
# write_csv writes it: a change to either shows here.
@pytest.mark.parametrize("days, seed, p_max, pv_sha, nwp_sha", [
    (16, 5, 2000.0, "e9ad86706fc03629f6c1766174bc102b10111a2196be44718c4573d1d5cb6d7e",
     "9e3ce665d766630376350ce8c8e251e49eb8a21effc5ad4993d09f9597f8edf2"),
    (180, 7, 5000.0, "4153711f1624260ebefd47946d6aa98081b0845df1bc7c9428f296d9dc4e1ca1",
     "7bab4d82244cf43bdeff2fc3fc545cef702083602755c82971a0ba7004cecf19"),
])
def test_write_csv_bytes_are_pinned(tmp_path, days, seed, p_max, pv_sha, nwp_sha):
    pv, nwp = synth_generate(days, seed=seed, p_max=p_max)
    write_csv(pv, nwp, tmp_path / "pv.csv", tmp_path / "nwp.csv")
    assert hashlib.sha256((tmp_path / "pv.csv").read_bytes()).hexdigest() == pv_sha
    assert hashlib.sha256((tmp_path / "nwp.csv").read_bytes()).hexdigest() == nwp_sha


def _numpy_stamps(minutes):
    text = np.datetime_as_string(np.asarray(minutes).astype("datetime64[m]"), unit="s")
    return [t + "Z" for t in text.tolist()]


def _reference_rows(stamps, values, digits):
    """Rows as write_csv wrote them one at a time: numpy's stamp text and
    each value through Python's float formatting."""
    return "".join(f"{t},{','.join(f'{v:.{digits}f}' for v in row)}\r\n"
                   for t, row in zip(_numpy_stamps(stamps), values.tolist())).encode()


FIRST_MINUTE = data.parse_timestamp("0001-01-01T00:00:00Z")
LAST_MINUTE = data.parse_timestamp("9999-12-31T23:59:00Z")


def _nudged(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _csv_values(digits):
    """Finite floats, ones near the fast path's range limit 2^30/10^digits,
    tiny ones of either sign, signed zeros, and near-ties (k + 0.5)/10^digits
    a few ulps either way."""
    limit = 2.0 ** 30 / 10 ** digits
    signs = st.sampled_from([1.0, -1.0])
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-limit, limit),
        st.builds(lambda s, k: s * _nudged(limit, k), signs, st.integers(-4, 4)),
        st.floats(-1e-3, 1e-3),
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda s, k, n: s * _nudged((k + 0.5) / 10 ** digits, n),
                  signs, st.integers(0, int(limit)), st.integers(-4, 4)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(lambda d: st.tuples(st.just(d), _csv_values(d))))
def test_fast_csv_values_print_as_float_formatting(case):
    digits, value = case
    got = data._csv_rows(np.zeros(1, dtype=np.int64), np.array([[value]]), digits)
    assert got is None or got == f"1970-01-01T00:00:00Z,{value:.{digits}f}\r\n".encode()
    scaled = abs(value) * 10 ** digits
    if scaled < 2 ** 29 and abs(scaled - math.floor(scaled) - 0.5) > 1e-5:
        assert got is not None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(FIRST_MINUTE, LAST_MINUTE), min_size=1, max_size=40))
def test_fast_stamps_match_numpy_and_read_back(minutes):
    minutes = np.array(minutes, dtype=np.int64)
    heads = data._stamp_bytes(minutes)
    assert [h.tobytes().decode() for h in heads] == _numpy_stamps(minutes)
    assert np.array_equal(data._stamp_minutes(np.pad(heads, ((0, 0), (0, 1)))), minutes)


def test_fast_stamps_match_numpy_on_every_day_of_two_eras():
    days = np.arange(data.parse_timestamp("1599-12-25T00:00:00Z") // DAY,
                     data.parse_timestamp("2400-03-05T00:00:00Z") // DAY)
    minutes = days * DAY + days * 37 % DAY
    heads = data._stamp_bytes(minutes)
    assert heads.tobytes().decode() == "".join(_numpy_stamps(minutes))
    assert data._stamp_bytes([FIRST_MINUTE, LAST_MINUTE]) is not None
    assert data._stamp_bytes([FIRST_MINUTE - 1]) is None
    assert data._stamp_bytes([LAST_MINUTE + 1]) is None


def _numpy_minute(text):
    return int(np.datetime64(text, "m").astype(np.int64))


# Each case makes a chunk fall back to the row format, by an edit (stream,
# row, column, value) or by its first stamp: the 0000 and 9999 runs cross
# into and out of years 1-9999. Every case writes other chunks on the fast
# path.
@pytest.mark.parametrize("edit, start", [
    (("pv", 5000, 0, math.nan), 0),
    (("pv", 5000, 0, -math.inf), 0),
    (("nwp", 50, 2, math.inf), 0),
    (("pv", 5000, 0, 2.0e6), 0),
    (("nwp", 50, 1, -1.0e6), 0),
    (("pv", 5000, 0, 2.0005), 0),
    (("nwp", 50, 4, 57.00005), 0),
    (None, _numpy_minute("0000-12-29T00:00")),
    (None, _numpy_minute("9999-12-28T00:00")),
])
def test_write_csv_falls_back_to_the_row_format(tmp_path, edit, start):
    pv, nwp = synth_generate(6, seed=9, p_max=P_MAX, start_minute=start)
    if edit:
        stream, row, column, value = edit
        (pv.power[:, None] if stream == "pv" else nwp.channels)[row, column] = value
    write_csv(pv, nwp, tmp_path / "pv.csv", tmp_path / "nwp.csv")
    chunks = []
    for name, header, stamps, values, digits in (
            ("pv", PV_CSV_HEADER, pv.timestamps, pv.power[:, None], 3),
            ("nwp", NWP_CSV_HEADER, nwp.timestamps, nwp.channels, 4)):
        want = (",".join(header) + "\r\n").encode() + _reference_rows(stamps, values, digits)
        assert (tmp_path / f"{name}.csv").read_bytes() == want
        rows = data.CSV_CHUNK_ROWS
        chunks += [data._csv_rows(stamps[lo:lo + rows], values[lo:lo + rows], digits)
                   for lo in range(0, stamps.size, rows)]
    assert None in chunks and any(chunk is not None for chunk in chunks)


# The row loop ingest_csv ran before chunked ingest, kept as the reference
# the vectorized path must match bitwise (it keeps non-finite values, so
# cases with them compare arrays only). Each row comes with the physical line
# its record starts on, counted by csv.reader past blank lines, lone CRs and
# quoted line ends.
def _reference_read_rows(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if tuple(h.strip() for h in first) != header:
            raise ParseError(f"{path}: expected header {','.join(header)}")
        rows = []
        while True:
            line = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return rows
            if row:
                rows.append((line, row))


def _reference_check_monotone(stamps, what):
    bad = np.nonzero(np.diff(stamps) <= 0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{what} timestamps not strictly increasing at row {i + 2}: "
            f"{format_timestamp(int(stamps[i]))} then {format_timestamp(int(stamps[i + 1]))}")


def _reference_ingest(pv_path, nwp_path, p_max):
    pv_rows = _reference_read_rows(pv_path, PV_CSV_HEADER)
    stamps = np.empty(len(pv_rows), dtype=np.int64)
    power = np.empty(len(pv_rows))
    clipped = 0
    for i, (line, row) in enumerate(pv_rows):
        if len(row) != 2:
            raise ParseError(f"{pv_path}: line {line}: expected 2 fields, got {len(row)}")
        try:
            stamps[i] = data.parse_timestamp(row[0])
            value = float(row[1])
        except (ParseError, ValueError) as exc:
            raise ParseError(f"{pv_path}: line {line}: {exc}") from None
        if value > p_max * 1.05:
            raise DataError(
                f"{pv_path}: line {line}: power {value} exceeds rated {p_max} by more than 5%")
        if value < 0.0 or value > p_max:
            clipped += 1
            value = min(max(value, 0.0), p_max)
        power[i] = value
    _reference_check_monotone(stamps, "PV")

    nwp_rows = _reference_read_rows(nwp_path, NWP_CSV_HEADER)
    nstamps = np.empty(len(nwp_rows), dtype=np.int64)
    chans = np.empty((len(nwp_rows), 5))
    for i, (line, row) in enumerate(nwp_rows):
        if len(row) != 6:
            raise ParseError(f"{nwp_path}: line {line}: expected 6 fields, got {len(row)}")
        try:
            nstamps[i] = data.parse_timestamp(row[0])
            chans[i] = [float(v) for v in row[1:]]
        except (ParseError, ValueError) as exc:
            raise ParseError(f"{nwp_path}: line {line}: {exc}") from None
        if not 0.0 <= chans[i, 4] <= 100.0:
            raise DataError(f"{nwp_path}: line {line}: humidity {chans[i, 4]} outside [0, 100]")
        if chans[i, 2] < 0.0:
            raise DataError(f"{nwp_path}: line {line}: negative irradiance {chans[i, 2]}")
    _reference_check_monotone(nstamps, "NWP")
    return RawPvSeries(stamps, power, float(p_max), clipped), RawNwpSeries(nstamps, chans)


def _written_files(tmp_path, days=6, start="1970-01-01T00:00:00Z"):
    pv, nwp = synth_generate(days, seed=5, p_max=P_MAX,
                             start_minute=data.parse_timestamp(start))
    pv.power[3:6] = [-0.0001, -3.0, 1040.0]  # written as -0.000, clipped twice
    paths = tmp_path / "pv.csv", tmp_path / "nwp.csv"
    write_csv(pv, nwp, *paths)
    return paths


def _edit(path, edit):
    """Rewrite a file through edit(lines); lines keep their ends, [0] is the header."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    with open(path, "w", newline="") as fh:
        fh.writelines(edit(lines))


def _set(index, make):
    def edit(lines):
        stamp, rest = lines[index].split(",", 1)
        lines[index] = make(stamp, rest)
        return lines
    return edit


def _offset_stamp(stamp, rest):
    minute = data.parse_timestamp(stamp)
    local = datetime.fromtimestamp(minute * 60, tz=timezone(timedelta(hours=1)))
    return f"{local.isoformat()},{rest}"


def _line_ends(end):
    return lambda lines: [line.replace("\r\n", end) for line in lines]


def _truncate(rows):
    return lambda lines: lines[:rows + 1]


INGEST_CASES = {
    "crlf": (None, None),
    "lf": (_line_ends("\n"), _line_ends("\n")),
    "cr": (_line_ends("\r"), None),
    "quoted": (_set(10, lambda s, r: f'"{s}","{r[:-2]}"\r\n'),
               _set(7, lambda s, r: f'"{s}",{r}')),
    # a quoted value over two lines in record 4,096: every later record
    # starts a line further down
    "quoted_newline_across_chunk": (_set(4096, lambda s, r: f'{s},"{r}"\r\n'), None),
    "offset_stamps": (lambda lines: _set(4100, _offset_stamp)(_set(5, _offset_stamp)(lines)),
                      _set(3, _offset_stamp)),
    "no_z": (_set(4097, lambda s, r: f"{s[:-1]},{r}"), _set(2, lambda s, r: f"{s[:-1]},{r}")),
    "fractional_seconds": (_set(200, lambda s, r: f"{s[:-1]}.000Z,{r}"), None),
    "spaces_in_values": (_set(9, lambda s, r: f"{s}, {r[:-2]} \r\n"),
                         _set(4, lambda s, r: f"{s}, {r}")),
    "blank_lines": (lambda lines: lines[:3] + ["\r\n"] + lines[3:4097] + ["\r\n"] + lines[4097:],
                    lambda lines: lines[:5] + ["\n"] + lines[5:]),
    "rows_4095": (_truncate(4095), None),
    "rows_4096": (_truncate(4096), None),
    "rows_4097": (_truncate(4097), None),
    "rows_4097_slow_tail": (lambda lines: _set(4097, _offset_stamp)(lines[:4098]), None),
    "rows_4097_lf": (lambda lines: _line_ends("\n")(lines[:4098]), None),
    # a plain file, a quoted stamp late in each file, and a long line: 400
    # zeros before its pressure
    "blocks_of_300_bytes": (None, None),
    "hand_over_at_late_block": (_set(6000, lambda s, r: f'"{s}",{r}'),
                                _set(100, lambda s, r: f'"{s}",{r}')),
    "line_longer_than_a_block": (
        None, _set(50, lambda s, r: f"{s},{r.replace(',', ',' + 400 * '0', 1)}")),
    "no_final_line_end": (lambda lines: lines[:-1] + [lines[-1][:-2]],
                          lambda lines: lines[:-1] + [lines[-1][:-2]]),
    "underscore_value": (_set(7, lambda s, r: f"{s},1_0\r\n"), None),
    # a lone CR before a CRLF: one more file line, blank, for csv.reader
    "lone_cr_before_crlf": (_set(100, lambda s, r: f"{s},{r[:-2]}\r\r\n"), None),
    # digits that float() reads in text but not in bytes: U+0661 U+0660 is 10
    "arabic_indic_digits": (_set(8, lambda s, r: f"{s},\u0661\u0660\r\n"), None),
    # a NUL after a stamp, which parse_timestamp reads and a 21-byte stamp
    # field would drop
    "nul_after_stamp": (_set(11, lambda s, r: f"{s}\x00,{r}"),
                        _set(6, lambda s, r: f"{s}\x00,{r}")),
}
# The cases that the row loop, _read_rows, reads from the first line; the
# fast path reads every other case.
READERS = {"arabic_indic_digits", "cr", "fractional_seconds", "hand_over_at_late_block",
           "no_z", "nul_after_stamp", "offset_stamps", "quoted", "quoted_newline_across_chunk",
           "rows_4097_slow_tail", "underscore_value"}


def _assert_same_ingest(got, want):
    for a, b in zip(got, want):
        for name in ("timestamps", "power", "channels"):
            if hasattr(b, name):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes(), name
    assert got[0].clip_warnings == want[0].clip_warnings
    assert got[0].p_max == want[0].p_max


@pytest.mark.parametrize("start", ["1970-01-01T00:00:00Z", "2020-02-27T00:00:00Z",
                                   "2000-02-28T00:00:00Z", "1900-02-27T00:00:00Z"])
@pytest.mark.parametrize("case", sorted(INGEST_CASES))
def test_ingest_matches_row_loop_reference(tmp_path, monkeypatch, case, start):
    pv_path, nwp_path = _written_files(tmp_path, start=start)
    for path, edit in zip((pv_path, nwp_path), INGEST_CASES[case]):
        if edit is not None:
            _edit(path, edit)
    calls = []
    row_loop = data._read_rows
    monkeypatch.setattr(data, "_read_rows", lambda *args: calls.append(args) or row_loop(*args))
    got = ingest_csv(pv_path, nwp_path, P_MAX)
    _assert_same_ingest(got, _reference_ingest(pv_path, nwp_path, P_MAX))
    assert bool(calls) == (case in READERS)
    assert got[0].clip_warnings == 2 and got[0].power[3] == 0.0
    if start.startswith("2020"):
        leap_day = data.parse_timestamp("2020-02-29T12:00:00Z")
        assert leap_day in got[0].timestamps and leap_day in got[1].timestamps


def _stamp_minutes(lines):
    """The stamp parser over the 21-byte fields that np.loadtxt would cut
    from the first field of each line."""
    fields = np.array([line.split(",")[0].encode() for line in lines], dtype="S21")
    return data._stamp_minutes(fields.view(np.uint8).reshape(len(lines), 21))


def test_fixed_layout_stamps_match_parse_timestamp():
    valid = ["0001-01-01T00:00", "1899-12-31T23:59", "1900-02-28T12:00", "1900-03-01T00:00",
             "1969-12-31T23:59", "1970-01-01T00:00", "2000-02-29T00:01", "2020-12-31T23:59",
             "2100-02-28T00:00", "2100-03-01T00:00", "9999-12-31T23:59"]
    lines = [f"{stamp}:00Z,1.0\n" for stamp in valid]
    assert _stamp_minutes(lines).tolist() == [data.parse_timestamp(f"{s}:00Z")
                                              for s in valid]
    invalid = ["0000-01-01T00:00", "1900-02-29T00:00", "2021-02-29T00:00", "2100-02-29T00:00",
               "2021-04-31T00:00", "2021-00-10T00:00", "2021-13-10T00:00", "2021-01-00T00:00",
               "2021-01-01T24:00", "2021-01-01T23:60", "2021-01-01 00:00", "2021-01-0a:00:00"]
    for stamp in invalid:
        assert _stamp_minutes(lines[:3] + [f"{stamp}:00Z,1.0\n"]) is None, stamp
    for line in ["2021-01-01T00:00:30Z,1.0\n", "2021-01-01T00:00:00+00:00,1.0\n",
                 "2021-01-01T00:00:00Z;1.0\n", "2021-01-01T00:00:00Z\n", "\n",
                 "2021-01-01T00:00:00Ż,1.0\n", "2021-01-01T00:00:00,1.0\n"]:
        assert _stamp_minutes(lines[:3] + [line]) is None, line


def _swap_stamps(index):
    def edit(lines):
        (a, ra), (b, rb) = (line.split(",", 1) for line in lines[index:index + 2])
        lines[index:index + 2] = [f"{b},{ra}", f"{a},{rb}"]
        return lines
    return edit


INGEST_ERROR_CASES = {
    "bad_value": (_set(5000, lambda s, r: f"{s},abc\r\n"), None),
    "three_fields": (_set(5000, lambda s, r: f"{s},{r[:-2]},1\r\n"), None),
    "bad_stamp": (_set(5000, lambda s, r: f"2021-13-01T00:00:00Z,{r}"), None),
    "year_zero": (_set(5000, lambda s, r: f"0000-01-01T00:00:00Z,{r}"), None),
    "odd_minute_second": (_set(5000, lambda s, r: f"{s[:-3]}30Z,{r}"), None),
    "leading_space_stamp": (_set(5000, lambda s, r: f" {s},{r}"), None),
    "overshoot": (_set(5000, lambda s, r: f"{s},1060.0\r\n"), None),
    "inversion": (_swap_stamps(5000), None),
    "humidity": (None, _set(100, lambda s, r: f"{s},{r.rsplit(',', 1)[0]},140.0\r\n")),
    "negative_ghi": (None, _set(100, lambda s, r: f"{s},1,2,-5,3,{r.rsplit(',', 1)[1]}")),
    # a blank line, or a lone CR before a CRLF, earlier in the file: the
    # error names the physical line, one past the row count
    "blank_line_then_bad_value": (
        lambda lines: _set(5001, lambda s, r: f"{s},abc\r\n")(
            lines[:200] + ["\r\n"] + lines[200:]), None),
    "lone_cr_then_overshoot": (
        lambda lines: _set(5000, lambda s, r: f"{s},1060.0\r\n")(
            _set(100, lambda s, r: f"{s},{r[:-2]}\r\r\n")(lines)), None),
    # a value error earlier in a row-loop batch wins over a later parse error,
    # and the other way round
    "data_then_parse_in_slow_chunk": (
        lambda lines: _set(4300, lambda s, r: f"{s},abc\r\n")(
            _set(4200, lambda s, r: f'"{s}",1060.0\r\n')(lines)), None),
    "parse_then_data_in_slow_chunk": (
        lambda lines: _set(4300, lambda s, r: f"{s},1060.0\r\n")(
            _set(4200, lambda s, r: f'"{s}",abc\r\n')(lines)), None),
    "bad_value_lf": (lambda lines: _set(5000, lambda s, r: f"{s},abc\n")(
        _line_ends("\n")(lines)), None),
    "empty_field": (_set(5000, lambda s, r: f"{s},\r\n"), None),
    "header_with_lone_cr": (lambda lines: ["timestamp\r,power_w\r\n"] + lines[1:], None),
    "nul_byte": (_set(5000, lambda s, r: f"{s},1.0\x00\r\n"), None),
    "hex_value": (_set(5000, lambda s, r: f"{s},0x10\r\n"), None),
    # in one block, an empty field and then two values with a space between,
    # which a count of the block's cells would let even out
    "empty_field_beside_spaced_values": (
        lambda lines: _set(5001, lambda s, r: f"{s},1.0 2.0\r\n")(
            _set(5000, lambda s, r: f"{s},\r\n")(lines)),
        lambda lines: _set(31, lambda s, r: f"{s},1,2 9,3,4,5\r\n")(
            _set(30, lambda s, r: f"{s},1,,3,4,5\r\n")(lines))),
    # a PV file of its rows twice over: an overshoot in the second copy, and
    # a parse error there after a quoted stamp
    "overshoot_in_second_block": (
        lambda lines: _set(12000, lambda s, r: f"{s},1060.0\r\n")(lines + lines[1:]), None),
    "parse_error_after_hand_over": (
        lambda lines: _set(13000, lambda s, r: f"{s},abc\r\n")(
            _set(10000, lambda s, r: f'"{s}",{r}')(lines + lines[1:])), None),
    # bytes that np.loadtxt strips around a value and float() does not
    "control_bytes_around_value": (_set(5000, lambda s, r: f"{s},\x0c{r[:-2]}\x1f\r\n"), None),
    # a stamp field past 20 bytes, a record of one blank field, and an
    # error that the fast path finds after a blank line
    "two_spaces_after_stamp": (_set(5000, lambda s, r: f"{s}  ,{r}"), None),
    "whitespace_only_line": (lambda lines: lines[:300] + ["   \r\n"] + lines[300:], None),
    "blank_line_then_overshoot": (
        lambda lines: _set(5001, lambda s, r: f"{s},1060.0\r\n")(
            lines[:200] + ["\r\n"] + lines[200:]), None),
    # five and seven fields: the right count of values over the two lines
    "nwp_field_counts_even_out": (None, lambda lines: _set(21, lambda s, r: f"{s},1,{r}")(
        _set(20, lambda s, r: f"{s},{r.split(',', 1)[1]}")(lines))),
}


# The error cases that the fast path finds; the row loop finds every other.
FAST_ERRORS = {"blank_line_then_overshoot", "humidity", "inversion", "lone_cr_then_overshoot",
               "negative_ghi", "overshoot", "overshoot_in_second_block"}


@pytest.mark.parametrize("case", sorted(INGEST_ERROR_CASES))
def test_ingest_errors_match_row_loop_reference(tmp_path, monkeypatch, case):
    pv_path, nwp_path = _written_files(tmp_path)
    for path, edit in zip((pv_path, nwp_path), INGEST_ERROR_CASES[case]):
        if edit is not None:
            _edit(path, edit)
    with pytest.raises((ParseError, DataError)) as want:
        _reference_ingest(pv_path, nwp_path, P_MAX)
    calls = []
    row_loop = data._read_rows
    monkeypatch.setattr(data, "_read_rows", lambda *args: calls.append(args) or row_loop(*args))
    with pytest.raises(want.type) as got:
        ingest_csv(pv_path, nwp_path, P_MAX)
    assert str(got.value) == str(want.value)
    assert (not calls) == (case in FAST_ERRORS)


def test_ingest_of_header_only_files_matches_reference_without_warnings(tmp_path):
    pv_path, nwp_path = _written_files(tmp_path)
    for path in (pv_path, nwp_path):
        _edit(path, lambda lines: lines[:1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ingest_csv(pv_path, nwp_path, P_MAX)
    _assert_same_ingest(got, _reference_ingest(pv_path, nwp_path, P_MAX))
    assert got[0].timestamps.size == got[1].timestamps.size == 0


# Records that the reference row loop above lets escape as csv.Error: an
# unclosed quote runs its record on past csv.reader's field size limit, in a
# record or in the header. A value error in an earlier record still comes
# first.
UNREADABLE_CASES = {
    "unclosed_quote": (_set(100, lambda s, r: f'"{s},{r}'), ParseError,
                       "pv.csv: line 101: field larger than field limit (131072)"),
    "unclosed_quote_in_header": (lambda lines: ['"' + lines[0]] + lines[1:], ParseError,
                                 "pv.csv: line 1: field larger than field limit (131072)"),
    "overshoot_then_unclosed_quote": (
        lambda lines: _set(100, lambda s, r: f'"{s},{r}')(
            _set(50, lambda s, r: f"{s},1060.0\r\n")(lines)), DataError,
        "pv.csv: line 51: power 1060.0 exceeds rated 1000.0 by more than 5%"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CASES))
def test_ingest_of_a_record_csv_reader_rejects_is_a_parse_error(tmp_path, case):
    pv_path, nwp_path = _written_files(tmp_path)
    edit, error, message = UNREADABLE_CASES[case]
    _edit(pv_path, edit)
    with pytest.raises(error, match=re.escape(message)):
        ingest_csv(pv_path, nwp_path, P_MAX)


def test_ingest_of_a_byte_that_is_not_utf8_is_a_parse_error(tmp_path):
    # the reference row loop lets UnicodeDecodeError escape
    pv_path, nwp_path = _written_files(tmp_path)
    lines = pv_path.read_bytes().split(b"\r\n")
    lines[100] += b"\xe9"
    pv_path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ParseError, match="pv.csv: 'utf-8' codec can't decode byte 0xe9"):
        ingest_csv(pv_path, nwp_path, P_MAX)


@pytest.mark.parametrize("p_max", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_ingest_rejects_p_max_not_positive_and_finite(tmp_path, p_max):
    pv_path, nwp_path = _written_files(tmp_path)
    with pytest.raises(ContractError, match="p_max must be positive and finite"):
        ingest_csv(pv_path, nwp_path, p_max)


def test_ingest_errors_name_file_lines_after_blank_lines_and_multiline_records(tmp_path):
    pv_path = tmp_path / "pv.csv"
    pv_path.write_text("timestamp,power_w\n2021-01-01T00:00:00Z,1.0\n\n"
                       "2021-01-01T00:01:00Z,not-a-number\n")
    with pytest.raises(ParseError, match=r"pv.csv: line 4: "):
        ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)

    pv_path.write_text("timestamp,power_w\n2021-01-01T00:00:00Z,1.0\n\n"
                       "2021-01-01T00:02:00Z,1.0\n2021-01-01T00:01:00Z,1.0\n")
    with pytest.raises(DataError, match="at row 4: 2021-01-01T00:02:00Z then"):
        ingest_csv(pv_path, _small_nwp(tmp_path), P_MAX)

    # a quoted record over two lines, the last of the row loop's first batch
    pv_path, nwp_path = _written_files(tmp_path)
    _edit(pv_path, lambda lines: _set(5000, lambda s, r: f"{s},abc\r\n")(
        _set(4096, lambda s, r: f'{s},"{r}"\r\n')(lines)))
    with pytest.raises(ParseError, match=r"pv.csv: line 5002: could not convert"):
        ingest_csv(pv_path, nwp_path, P_MAX)

    nwp_path = _nwp_csv(tmp_path, ["", "2021-01-01T00:00:00Z,5,101,0,3,60", "",
                                   "2021-01-01T01:00:00Z,5,101,-1,3,60"])
    pv_path = _pv_csv(tmp_path, ["2021-01-01T00:00:00Z,1.0"])
    with pytest.raises(DataError, match=r"nwp.csv: line 5: negative irradiance -1.0"):
        ingest_csv(pv_path, nwp_path, P_MAX)


NON_FINITE_CASES = [
    ("pv", "nan", "power_w"), ("pv", "inf", "power_w"), ("pv", "-inf", "power_w"),
    ("nwp", "nan,101,0,3,60", "temp_c"), ("nwp", "5,inf,0,3,60", "pressure_kpa"),
    ("nwp", "5,101,nan,3,60", "ghi_wm2"), ("nwp", "5,101,0,-inf,60", "wind_ms"),
    ("nwp", "5,101,0,3,nan", "rh_pct"),
]


@pytest.mark.parametrize("quoted", [False, True], ids=["fixed", "row_loop"])
@pytest.mark.parametrize("which,values,channel", NON_FINITE_CASES)
def test_ingest_rejects_non_finite_values(tmp_path, which, values, channel, quoted):
    stamp = '"2021-01-01T01:00:00Z"' if quoted else "2021-01-01T01:00:00Z"
    pv_rows = ["2021-01-01T00:00:00Z,1.0", f"{stamp},1.0"]
    nwp_rows = ["2021-01-01T00:00:00Z,5,101,0,3,60", f"{stamp},5,101,0,3,61"]
    if which == "pv":
        pv_rows[1] = f"{stamp},{values}"
    else:
        nwp_rows[1] = f"{stamp},{values}"
    pv_path, nwp_path = _pv_csv(tmp_path, pv_rows), _nwp_csv(tmp_path, nwp_rows)
    with pytest.raises(DataError, match=rf"{which}.csv: line 3: non-finite {channel} "):
        ingest_csv(pv_path, nwp_path, P_MAX)


def test_ingest_of_written_files_never_falls_back_to_row_loop(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(data, "_read_rows", lambda *args: calls.append(args))
    pv_path, nwp_path = _written_files(tmp_path)
    pv, nwp = ingest_csv(pv_path, nwp_path, P_MAX)
    assert (pv.timestamps.size, nwp.timestamps.size) == (6 * DAY, 6 * 24)
    assert calls == []
    _assert_same_ingest((pv, nwp), _reference_ingest(pv_path, nwp_path, P_MAX))


FIRST_RECORD_LAYOUTS = {
    "offset": _offset_stamp,
    "no_z": lambda s, r: f"{s[:-1]},{r}",
    "quoted": lambda s, r: f'"{s}",{r}',
}


@pytest.mark.parametrize("layout", sorted(FIRST_RECORD_LAYOUTS))
def test_ingest_of_another_stamp_layout_from_the_first_record_skips_loadtxt(
        tmp_path, monkeypatch, layout):
    # Every record's stamp is in another layout, so the first record's
    # stamp sends each file to the row loop before np.loadtxt reads it.
    pv_path, nwp_path = _written_files(tmp_path)
    make = FIRST_RECORD_LAYOUTS[layout]
    for path in (pv_path, nwp_path):
        _edit(path, lambda lines: lines[:1] + [make(*line.split(",", 1)) for line in lines[1:]])
    loads, rows = [], []
    loadtxt, row_loop = np.loadtxt, data._read_rows
    monkeypatch.setattr(np, "loadtxt",
                        lambda *args, **kw: loads.append(args) or loadtxt(*args, **kw))
    monkeypatch.setattr(data, "_read_rows", lambda *args: rows.append(args) or row_loop(*args))
    got = ingest_csv(pv_path, nwp_path, P_MAX)
    assert loads == [] and [args[0] for args in rows] == [pv_path, nwp_path]
    _assert_same_ingest(got, _reference_ingest(pv_path, nwp_path, P_MAX))


def test_row_loop_ingest_peaks_below_five_times_its_table(tmp_path, monkeypatch):
    # CR-only line ends: the row loop reads the whole PV file. Its records
    # go into typed buffers; a Python list per record would peak at about
    # 13 times the table.
    pv_path, nwp_path = _written_files(tmp_path, days=30)
    _edit(pv_path, _line_ends("\r"))
    calls = []
    row_loop = data._read_rows
    monkeypatch.setattr(data, "_read_rows", lambda *args: calls.append(args) or row_loop(*args))
    tracemalloc.start()
    try:
        pv, _ = ingest_csv(pv_path, nwp_path, P_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [args[0] for args in calls] == [pv_path] and pv.timestamps.size == 30 * DAY
    assert peak < 5 * (pv.timestamps.nbytes + pv.power.nbytes)


# ------------------------------------------------------------------ bins ---


def test_bin_distribution_all_zero():
    probs = bin_distribution(np.zeros(60), P_MAX)
    assert probs[0] == 1.0
    assert probs[1:].sum() == 0.0


def test_bin_distribution_rated_power_last_bin_closed():
    probs = bin_distribution(np.full(60, P_MAX), P_MAX)
    assert probs[49] == 1.0


def test_bin_distribution_split_mass():
    values = np.concatenate([np.full(30, 0.01 * P_MAX), np.full(30, 0.99 * P_MAX)])
    probs = bin_distribution(values, P_MAX)
    assert probs[0] == pytest.approx(0.5)
    assert probs[49] == pytest.approx(0.5)
    assert probs[1:49].sum() == 0.0


def test_bin_distribution_empty_is_error():
    with pytest.raises(ContractError):
        bin_distribution([], P_MAX)


def _reference_bin_distribution(minute_values, p_max, bins=50):
    """One histogram per call, as before the batched bincount."""
    values = np.clip(np.asarray(minute_values, dtype=np.float64), 0.0, p_max)
    idx = np.minimum((values * bins / p_max).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.float64)
    return counts / counts.sum()


@pytest.mark.parametrize("bins", [50, 7])
def test_batched_bin_distribution_matches_per_hour_loop(bins):
    pv, nwp = synth_generate(8, seed=3, p_max=P_MAX)
    pv.power[:120] = np.linspace(-5.0, 1.2 * P_MAX, 120)
    _, _, targets = data._build_grid(pv, nwp, bins)
    hours = pv.power.reshape(-1, HOUR)
    assert targets.shape == (hours.shape[0], bins)
    reference = np.stack([_reference_bin_distribution(h, P_MAX, bins) for h in hours])
    assert targets.tobytes() == reference.tobytes()
    cube = bin_distribution(hours.reshape(4, -1, HOUR), P_MAX, bins)
    assert cube.shape == (4, hours.shape[0] // 4, bins)
    assert cube.tobytes() == reference.tobytes()
    assert bin_distribution(hours[5], P_MAX, bins).tobytes() == reference[5].tobytes()


def test_expected_value_examples():
    point = np.zeros(50)
    point[0] = 1.0
    assert expected_value(point) == pytest.approx(0.01)
    assert expected_value(np.full(50, 0.02)) == pytest.approx(0.5)
    half = np.zeros(50)
    half[0] = half[49] = 0.5
    assert expected_value(half) == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(0, 2 ** 31))
def test_binning_expectation_within_half_bin(values, seed):
    values = np.asarray(values) * P_MAX
    probs = bin_distribution(values, P_MAX)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs >= 0.0)
    assert abs(expected_value(probs) - values.mean() / P_MAX) <= 0.01 + 1e-12


def test_distribution_quantile_interpolates():
    probs = np.zeros(50)
    probs[10] = 1.0
    assert distribution_quantile(probs, 0.5) == pytest.approx(10.5 / 50, abs=1e-9)
    uniform = np.full(50, 0.02)
    assert distribution_quantile(uniform, 0.5) == pytest.approx(0.5, abs=1e-9)


# ----------------------------------------------------------- consolidate ---


def _constant_pv(days, level=100.0):
    n = days * DAY
    return RawPvSeries(np.arange(n, dtype=np.int64), np.full(n, level), P_MAX)


def _ramp_nwp(days):
    n = days * 24
    stamps = HOUR * np.arange(n, dtype=np.int64)
    chans = np.zeros((n, 5))
    chans[:, 0] = np.where(np.arange(n) % 2 == 0, 10.0, 14.0)  # temp alternates
    chans[:, 1] = 101.0
    chans[:, 2] = 100.0
    chans[:, 3] = 3.0
    chans[:, 4] = 50.0
    return RawNwpSeries(stamps, chans)


def _physical_grid(pv, nwp):
    """consolidate's dataset and the physical-unit grid it normalizes."""
    _, grid, _ = data._build_grid(pv, nwp, bins=50)
    ds = consolidate(pv, nwp)
    assert np.array_equal(ds.norm_min, grid.min(axis=0))
    assert np.array_equal(ds.norm_max, grid.max(axis=0))
    span = ds.norm_max - ds.norm_min  # a constant channel scales to 0
    scaled = np.divide(grid - ds.norm_min, span, out=np.zeros_like(grid), where=span > 0)
    assert np.array_equal(ds.features, scaled)
    return grid, ds


def test_consolidate_scales_by_given_constants_and_clips_beyond_them():
    pv, nwp = synth_generate(8, seed=3, p_max=P_MAX)
    grid, _ = _physical_grid(pv, nwp)  # by default: the grid's own range
    lo, hi = np.quantile(grid, 0.25, axis=0), np.quantile(grid, 0.75, axis=0)
    hi[1] = lo[1]  # a zero-width channel is shifted, not divided
    ds = consolidate(pv, nwp, norm_min=lo, norm_max=hi)
    assert ds.norm_min.tolist() == lo.tolist()
    assert ds.norm_max.tolist() == hi.tolist()
    span = np.where(hi > lo, hi - lo, 1.0)
    assert np.array_equal(ds.features, np.clip((grid - lo) / span, 0.0, 1.0))
    below, above = grid < lo, grid > hi + span  # the shifted channel too reads 1 there
    assert below.any() and above.any()
    assert np.all(ds.features[below] == 0.0) and np.all(ds.features[above] == 1.0)


def test_consolidate_interpolates_nwp_linearly():
    grid, _ = _physical_grid(_constant_pv(6), _ramp_nwp(6))
    temp = grid[:, 0]
    # hours alternate 10, 14: quarter-hour stamps read 10, 11, 12, 13, 14
    assert temp[:5] == pytest.approx([10.0, 11.0, 12.0, 13.0, 14.0], abs=1e-9)


def test_consolidate_constant_pv_average():
    grid, _ = _physical_grid(_constant_pv(6, level=100.0), _ramp_nwp(6))
    pv = grid[:, 5]
    assert pv[:4] == pytest.approx([100.0] * 4, abs=1e-9)


def test_consolidate_alternating_pv_matches_mean_oracle():
    days = 6
    n = days * DAY
    values = np.where(np.arange(n) % 2 == 0, 0.0, 200.0)
    pv = RawPvSeries(np.arange(n, dtype=np.int64), values.astype(float), P_MAX)
    grid, _ = _physical_grid(pv, _ramp_nwp(days))
    got = grid[:, 5]
    expected = values.reshape(-1, 15).mean(axis=1)  # independent mean oracle
    assert np.allclose(got, expected, atol=1e-9)
    hourly = got.reshape(-1, 4).mean(axis=1)
    assert np.allclose(hourly, 100.0, atol=1e-9)


def test_consolidate_energy_conservation_per_hour():
    pv, nwp = synth_generate(8, seed=13, p_max=P_MAX)
    grid, ds = _physical_grid(pv, nwp)
    pv15 = grid[:, 5]
    per_hour_15 = pv15.reshape(-1, 4).sum(axis=1) * 15.0
    minutes = pv.power[:ds.n_hours * HOUR].reshape(-1, HOUR)
    per_hour_1 = minutes.sum(axis=1) * 1.0
    scale = np.maximum(np.abs(per_hour_1), 1.0)
    assert np.all(np.abs(per_hour_15 - per_hour_1) / scale < 1e-9)


def test_consolidate_requires_six_days():
    with pytest.raises(DataError, match="coverage"):
        consolidate(_constant_pv(3), _ramp_nwp(3))


def test_consolidate_rejects_long_gap():
    pv = _constant_pv(7)
    keep = (pv.timestamps < 2 * DAY) | (pv.timestamps >= 2 * DAY + 180)
    gappy = RawPvSeries(pv.timestamps[keep], pv.power[keep], P_MAX)
    with pytest.raises(DataError) as exc:
        consolidate(gappy, _ramp_nwp(7))
    assert str(exc.value) == ("PV gap of 181 minutes at 1970-01-02T23:59:00Z "
                              "exceeds the 120-minute fill limit")


def test_consolidate_rejects_long_nwp_gap():
    pv, nwp = _constant_pv(7), _ramp_nwp(7)
    one = nwp.timestamps != 2 * DAY  # a 120-minute gap is filled
    consolidate(pv, RawNwpSeries(nwp.timestamps[one], nwp.channels[one]))
    two = one & (nwp.timestamps != 2 * DAY + HOUR)
    with pytest.raises(DataError) as exc:
        consolidate(pv, RawNwpSeries(nwp.timestamps[two], nwp.channels[two]))
    assert str(exc.value) == ("NWP gap of 180 minutes at 1970-01-02T23:00:00Z "
                              "exceeds the 120-minute fill limit")


def test_consolidate_fills_short_gap():
    pv = _constant_pv(7)
    keep = (pv.timestamps < 2 * DAY) | (pv.timestamps >= 2 * DAY + 90)
    gappy = RawPvSeries(pv.timestamps[keep], pv.power[keep], P_MAX)
    grid, _ = _physical_grid(gappy, _ramp_nwp(7))
    pv15 = grid[:, 5]
    assert np.allclose(pv15, 100.0, atol=1e-9)  # linear fill of a flat signal


def test_target_distributions_are_valid():
    pv, nwp = synth_generate(7, seed=3, p_max=P_MAX)
    ds = consolidate(pv, nwp)
    sums = ds.hour_targets.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    assert np.all(ds.hour_targets >= 0.0)


# ---------------------------------------------------------------- samples ---


def _dataset(days, seed=21):
    pv, nwp = synth_generate(days, seed=seed, p_max=P_MAX)
    return consolidate(pv, nwp)


def test_make_samples_window_counts():
    assert len(make_samples(_dataset(6), stride_hours=24)) == 1
    assert len(make_samples(_dataset(7), stride_hours=24)) == 2
    assert len(make_samples(_dataset(7), stride_hours=1)) == 25


def test_sample_fields_and_spans():
    ds = _dataset(7)
    samples = make_samples(ds, stride_hours=24)
    s = samples[0]
    assert s.input.shape == (480, 6)
    assert s.target_pdf.shape == (24, 50)
    assert s.history_pdf.shape == (24, 50)
    assert s.p0_pdf.shape == (50,)
    # the input is the 480 grid slots before the anchor and the targets are
    # exactly the dataset's next 24 hourly distributions
    s1 = (s.anchor - ds.grid_start) // GRID_STEP
    assert np.array_equal(s.input, ds.features[s1 - 480:s1])
    h0 = (s.anchor - ds.grid_start) // HOUR
    assert np.array_equal(s.target_pdf, ds.hour_targets[h0:h0 + 24])


def test_make_sample_returns_read_only_views_equal_to_copies():
    ds = _dataset(7)
    for anchor in list_anchors(ds, stride_hours=5):
        s = make_sample(ds, anchor, 480, 24)
        s1, h0 = (anchor - ds.grid_start) // 15, (anchor - ds.grid_start) // HOUR
        s0 = s1 - 480
        expected = {"input": ds.features[s0:s1],
                    "history_pdf": ds.hour_targets[h0 - 24:h0],
                    "p0_pdf": ds.hour_targets[h0 - 1],
                    "target_pdf": ds.hour_targets[h0:h0 + 24],
                    "nwp_ahead": ds.features[s1 + 4 * np.arange(24), :5]}
        for name, want in expected.items():
            got = getattr(s, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
            assert np.shares_memory(got, ds.features) or np.shares_memory(got, ds.hour_targets)
            with pytest.raises(ValueError):
                got[...] = 0.0
    edge = make_sample(ds, ds.grid_start + 480 * 15, 480, 24, with_targets=False)
    for got in (edge.input, edge.history_pdf, edge.p0_pdf):
        assert not got.flags.writeable


def test_make_sample_without_targets_at_data_edge():
    ds = _dataset(6)
    anchor = ds.hours_end  # one day past the last full target day
    with pytest.raises(ContractError):
        make_sample(ds, anchor, 480, 24)
    s = make_sample(ds, ds.grid_start + 480 * 15, 480, 24, with_targets=False)
    assert s.target_pdf is None


# (anchor minute, input_steps, message) on a 6-day grid that starts at the
# epoch; each case fails one of make_sample's checks and passes those
# before it.
MAKE_SAMPLE_ERRORS = {
    "off_grid": (5 * DAY + 7, 480, "minute 7 is not on the 15-minute grid"),
    "short_input_window": (
        5 * DAY - HOUR, 480, "anchor 1970-01-05T23:00:00Z lacks a full input window"),
    "past_the_grid": (
        6 * DAY + HOUR, 480, "anchor 1970-01-07T01:00:00Z lacks a full input window"),
    "off_the_hour": (5 * DAY + 15, 480, "minute 5775 is not hour-aligned"),
    "short_history": (
        2 * HOUR, 4, "anchor 1970-01-01T02:00:00Z lacks forecast-length history"),
    "short_target_day": (
        5 * DAY + HOUR, 480, "anchor 1970-01-06T01:00:00Z lacks a full target day"),
}


@pytest.mark.parametrize("case", sorted(MAKE_SAMPLE_ERRORS))
def test_make_sample_names_the_check_that_fails(case):
    ds = _dataset(6)
    assert ds.grid_start == 0 and ds.hours_end == 6 * DAY
    anchor, input_steps, message = MAKE_SAMPLE_ERRORS[case]
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        make_sample(ds, anchor, input_steps, 24)


def test_make_samples_raises_the_first_bad_anchors_message(monkeypatch):
    ds = _dataset(6)
    anchors = [5 * DAY, 5 * DAY + HOUR, 5 * DAY + 7]  # good, short target day, off grid
    monkeypatch.setattr(data, "list_anchors", lambda *args: anchors)
    with pytest.raises(ContractError,
                       match="^anchor 1970-01-06T01:00:00Z lacks a full target day$"):
        make_samples(ds, 1, 480, 24)


# ------------------------------------------------------------------ split ---


def _mini_window(anchor, input_steps=480, output_steps=24):
    return Window(anchor - input_steps * GRID_STEP, anchor, anchor + output_steps * HOUR)


def _windows(ds, stride_hours, input_steps):
    """The Windows build_splits decides its split on."""
    return [_mini_window(t0, input_steps)
            for t0 in list_anchors(ds, stride_hours, input_steps, 24)]


def test_split_no_overlap_counts_within_rounding():
    windows = [_mini_window(6 * DAY * i + 5 * DAY) for i in range(40)]
    result = split(windows, seed=3)
    assert result.discarded == 0
    assert len(result.train) == round(0.70 * 40)
    assert len(result.val) == round(0.15 * 40)
    assert len(result.test) == round(0.15 * 40)


def test_split_adjacent_samples_drop_later():
    a = _mini_window(5 * DAY)
    b = _mini_window(5 * DAY + HOUR)
    result = split([a, b], seed=0)
    kept = result.train + result.val + result.test
    assert result.discarded == 1
    assert len(kept) == 1
    assert kept[0].anchor == a.anchor  # earlier anchor wins


def test_split_deterministic():
    windows = [_mini_window(5 * DAY + DAY * i) for i in range(100)]
    r1 = split(windows, seed=42)
    r2 = split(windows, seed=42)
    for part1, part2 in zip(r1, r2):
        assert [w.anchor for w in part1] == [w.anchor for w in part2]


def test_split_no_cross_split_overlap_after_discard():
    windows = [_mini_window(5 * DAY + DAY * i) for i in range(60)]
    result = split(windows, seed=7)
    parts = [result.train, result.val, result.test]
    for i, part_a in enumerate(parts):
        for part_b in parts[i + 1:]:
            for a in part_a:
                for b in part_b:
                    assert not (a.start < b.end and b.anchor < a.end)
                    assert not (b.start < a.end and a.anchor < b.end)


def _reference_split(windows, fractions, seed):
    """The quadratic discard: every candidate against every kept window."""
    def overlaps(a, b):  # a's full span against b's target span
        return a.start < b.end and b.anchor < a.end

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(windows))
    n_train = int(round(fractions[0] * len(windows)))
    n_val = int(round(fractions[1] * len(windows)))
    assign = np.empty(len(windows), dtype=np.int64)
    assign[order[:n_train]] = 0
    assign[order[n_train:n_train + n_val]] = 1
    assign[order[n_train + n_val:]] = 2
    kept, discarded = [], 0
    for i in sorted(range(len(windows)), key=lambda i: windows[i].anchor):
        a = windows[i]
        if any(assign[j] != assign[i]
               and (overlaps(windows[j], a) or overlaps(a, windows[j]))
               for j in kept):
            discarded += 1
        else:
            kept.append(i)
    parts = ([], [], [])
    for i in kept:
        parts[assign[i]].append(i)
    return parts, discarded


# (anchor hour, input steps, output steps) of each window, and the split's
# train and val percentages and seed.
SPLIT_CASES = given(
    st.lists(st.tuples(st.integers(0, 240), st.integers(0, 600), st.integers(1, 48)),
             min_size=1, max_size=50),
    st.integers(0, 100), st.integers(0, 100), st.integers(0, 2 ** 32 - 1))


def _split_case(specs, pct_train, pct_val):
    pct_val = min(pct_val, 100 - pct_train)
    fractions = (pct_train / 100, pct_val / 100, 1.0 - pct_train / 100 - pct_val / 100)
    windows = [_mini_window(5 * DAY + h * HOUR, steps_in, steps_out)
               for h, steps_in, steps_out in specs]
    return windows, fractions


@settings(max_examples=300, deadline=None)
@SPLIT_CASES
def test_split_matches_quadratic_reference(specs, pct_train, pct_val, seed):
    windows, fractions = _split_case(specs, pct_train, pct_val)
    index = {id(w): i for i, w in enumerate(windows)}
    result = split(windows, fractions, seed)
    parts, discarded = _reference_split(windows, fractions, seed)
    assert result.discarded == discarded
    for part, want in zip(result, parts):
        assert [index[id(w)] for w in part] == want


def test_split_checks_at_most_two_pairs_per_sample(monkeypatch):
    calls = []
    check = data._spans_conflict

    def counted(a, b):
        calls.append(1)
        return check(a, b)

    monkeypatch.setattr(data, "_spans_conflict", counted)
    pv, nwp = synth_generate(30, seed=2, p_max=P_MAX)
    prep = build_splits(pv, nwp, stride_hours=1, input_steps=480, seed=54)
    n_samples = sum(len(part) for part in prep.splits) + prep.splits.discarded
    assert n_samples > 500
    assert 0 < len(calls) <= 2 * n_samples


def test_split_empty_is_error():
    with pytest.raises(ContractError):
        split([])


@pytest.mark.parametrize("fractions", [(0.5, 0.6, -0.1), (1.2, -0.1, -0.1),
                                       (math.nan, 0.5, 0.5), (0.5, 0.5, math.nan)])
def test_split_rejects_fractions_outside_the_unit_interval(fractions):
    windows = [_mini_window(5 * DAY + DAY * i) for i in range(20)]
    with pytest.raises(ConfigError, match=re.escape(
            f"fractions must be three values in [0, 1] summing to 1, got {fractions}")):
        split(windows, fractions)


def test_build_splits_rejects_a_window_longer_than_the_data():
    pv, nwp = synth_generate(16, seed=5, p_max=2000.0)
    message = ("no window fits: a 30-day input window and its 24-hour forecast do not fit "
               "in the 16.00 days of overlapping coverage; use a shorter input window or "
               "more days")
    with pytest.raises(DataError, match=re.escape(message)):
        build_splits(pv, nwp, input_steps=30 * 96)


@pytest.mark.parametrize("seed", [6, 9, 10, 11])
def test_build_splits_empty_train_split_names_the_counts_and_the_fix(seed):
    pv, nwp = synth_generate(16, seed=5, p_max=2000.0)
    parts = split(_windows(consolidate(pv, nwp), 1, 96), seed=seed)
    assert not parts.train
    message = (f"no training coverage left after the overlap discard: 0/{len(parts.val)}/"
               f"{len(parts.test)} train/val/test and {parts.discarded} discarded; use "
               f"another split seed or a larger stride")
    with pytest.raises(DataError, match=re.escape(message)):
        build_splits(pv, nwp, stride_hours=1, input_steps=96, seed=seed)


def test_build_splits_normalizes_from_training_rows():
    pv, nwp = synth_generate(30, seed=5, p_max=P_MAX)
    prep = build_splits(pv, nwp, stride_hours=24, input_steps=192, seed=9)
    ds = prep.dataset
    assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)
    assert len(prep.splits.train) > 0
    # anchors differ across splits and the discard count is recorded
    anchors = {s.anchor for part in prep.splits for s in part}
    assert len(anchors) == sum(len(p) for p in prep.splits)
    assert prep.splits.discarded >= 0


def test_build_splits_builds_each_kept_window_once_and_no_discarded_one(monkeypatch):
    built = Counter()
    build = data.Sample

    def counted(*args, **kwargs):
        sample = build(*args, **kwargs)
        built[sample.anchor] += 1
        return sample

    monkeypatch.setattr(data, "Sample", counted)
    pv, nwp = synth_generate(30, seed=5, p_max=P_MAX)
    prep = build_splits(pv, nwp, stride_hours=6, input_steps=192, seed=9)
    anchors = list_anchors(prep.dataset, 6, 192, 24)
    kept = [s.anchor for part in prep.splits for s in part]
    assert len(anchors) == len(kept) + prep.splits.discarded
    discarded = set(anchors) - set(kept)
    assert len(discarded) == prep.splits.discarded > 0
    assert not discarded & built.keys()
    assert built == Counter(kept)


def _old_build_splits(pv, nwp, stride_hours, input_steps, seed):
    """build_splits as a split of make_samples(grid): every window built into
    a Sample, the windows split, each part taken from the Samples, then the
    grid scaled from the train windows."""
    first_hour, features, targets = data._build_grid(pv, nwp, 50)
    ds = data.AlignedDataset(first_hour, features, np.zeros(6), np.ones(6), targets,
                             pv.p_max, 50)
    built = {s.anchor: s for s in make_samples(ds, stride_hours, input_steps, 24)}
    parts = split(_windows(ds, stride_hours, input_steps), seed=seed)
    splits = SplitResult(*([built[w.anchor] for w in part] for part in parts), parts.discarded)
    mask = np.zeros(ds.n_slots, dtype=bool)
    for s in splits.train:
        s1 = (s.anchor - ds.grid_start) // 15
        mask[s1 - input_steps:s1] = True
    data._scale_in_place(ds, features[mask].min(axis=0), features[mask].max(axis=0))
    return ds, splits


@pytest.mark.parametrize("seed", [7, 54])
def test_build_splits_equals_split_of_every_window_built(seed):
    pv, nwp = synth_generate(30, seed=5, p_max=P_MAX)
    prep = build_splits(pv, nwp, stride_hours=1, input_steps=480, seed=seed)
    ds, splits = _old_build_splits(pv, nwp, 1, 480, seed)
    assert prep.splits.discarded == splits.discarded > 0
    assert prep.dataset.norm_min.tolist() == ds.norm_min.tolist()
    assert prep.dataset.norm_max.tolist() == ds.norm_max.tolist()
    assert np.array_equal(prep.dataset.features, ds.features)
    for got_part, want_part in zip(prep.splits, splits):
        assert [s.anchor for s in got_part] == [s.anchor for s in want_part]
        for got, want in zip(got_part, want_part):
            for name in ("input", "history_pdf", "p0_pdf", "target_pdf", "nwp_ahead"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and np.array_equal(a, b), name
                assert not a.flags.writeable, name


def test_build_splits_samples_are_scaled_views_of_the_grid():
    pv, nwp = synth_generate(30, seed=5, p_max=P_MAX)
    prep = build_splits(pv, nwp, stride_hours=6, input_steps=192, seed=9)
    ds = prep.dataset
    samples = [s for part in prep.splits for s in part]
    assert samples
    for s in samples:
        want = make_sample(ds, s.anchor, 192, 24)
        for name, grid in (("input", ds.features), ("nwp_ahead", ds.features),
                           ("history_pdf", ds.hour_targets), ("p0_pdf", ds.hour_targets),
                           ("target_pdf", ds.hour_targets)):
            got = getattr(s, name)
            assert np.array_equal(got, getattr(want, name)), name
            assert np.shares_memory(got, grid), name


def test_build_splits_pinned_seeded_case():
    # Recorded from the quadratic discard with per-sample copies.
    pv, nwp = synth_generate(20, seed=4, p_max=5000.0)
    prep = build_splits(pv, nwp, stride_hours=24, input_steps=96, seed=3)
    ds = prep.dataset
    hours = [[(s.anchor - ds.grid_start) // HOUR for s in part] for part in prep.splits]
    assert ds.grid_start == 0
    assert hours == [[72, 96, 288, 312, 336, 384, 408, 432, 456], [24, 240], [144, 192]]
    assert prep.splits.discarded == 6
    assert ds.norm_min.tolist() == [-8.495125559485963, 102.02367636916826, 0.0,
                                    0.8628458644249815, 49.24238642955782, 0.0]
    assert ds.norm_max.tolist() == [3.2044434864262854, 102.46955275507393, 403.9935830342845,
                                    5.79779952136677, 89.83910901451024, 2034.6484462327621]


# ------------------------------------------------------------- synthetic ---


def test_synth_night_is_exactly_zero():
    pv, _ = synth_generate(10, seed=2, p_max=P_MAX)
    minute_of_day = pv.timestamps % DAY
    night = (minute_of_day < 4 * HOUR) | (minute_of_day > 20 * HOUR)
    assert np.all(pv.power[night] == 0.0)


def test_synth_deterministic_per_seed():
    pv1, nwp1 = synth_generate(8, seed=123, p_max=P_MAX)
    pv2, nwp2 = synth_generate(8, seed=123, p_max=P_MAX)
    assert np.array_equal(pv1.power, pv2.power)
    assert np.array_equal(nwp1.channels, nwp2.channels)
    pv3, _ = synth_generate(8, seed=124, p_max=P_MAX)
    assert not np.array_equal(pv1.power, pv3.power)


def test_synth_pv_irradiance_correlation():
    pv, nwp = synth_generate(60, seed=31, p_max=P_MAX)
    hourly_pv = pv.power.reshape(-1, HOUR).mean(axis=1)
    ghi = nwp.channels[:, 2]
    corr = np.corrcoef(hourly_pv, ghi)[0, 1]
    assert corr > 0.8


def test_synth_rejects_short_runs():
    with pytest.raises(ConfigError):
        synth_generate(3, seed=0)


def test_synth_power_within_rated_range():
    pv, _ = synth_generate(12, seed=8, p_max=P_MAX)
    assert np.all(pv.power >= 0.0)
    assert np.all(pv.power <= P_MAX)


@pytest.mark.parametrize("text", [
    "0001-01-01T00:00:00Z", "0999-03-01T00:00:00Z", "1900-02-28T00:00:00Z",
    "1900-03-01T00:00:00Z", "1969-12-31T23:59:00Z", "2000-02-29T00:00:00Z",
    "2019-06-08T13:20:00Z", "9999-12-31T23:59:00Z"])
def test_format_timestamp_round_trip(text):
    minute = data.parse_timestamp(text)
    assert format_timestamp(minute) == text
    assert data.parse_timestamp(format_timestamp(minute)) == minute
