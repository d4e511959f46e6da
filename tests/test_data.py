"""Data pipeline tests: ingestion, consolidation, binning, sampling, splits,
and the synthetic generator."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcast import data
from pvcast.data import (DAY, HOUR, NWP_CSV_HEADER, PV_CSV_HEADER, RawNwpSeries,
                         RawPvSeries, Sample, bin_distribution, build_splits, consolidate,
                         distribution_quantile, expected_value, format_timestamp,
                         ingest_csv, list_anchors, make_sample, make_samples,
                         split, synth_generate, write_csv)
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


def test_consolidate_interpolates_nwp_linearly():
    ds = consolidate(_constant_pv(6), _ramp_nwp(6))
    temp = ds.denormalize(0, ds.features[:, 0])
    # hours alternate 10, 14: quarter-hour stamps read 10, 11, 12, 13, 14
    assert temp[:5] == pytest.approx([10.0, 11.0, 12.0, 13.0, 14.0], abs=1e-9)


def test_consolidate_constant_pv_average():
    ds = consolidate(_constant_pv(6, level=100.0), _ramp_nwp(6))
    pv = ds.denormalize(5, ds.features[:, 5])
    assert pv[:4] == pytest.approx([100.0] * 4, abs=1e-9)


def test_consolidate_alternating_pv_matches_mean_oracle():
    days = 6
    n = days * DAY
    values = np.where(np.arange(n) % 2 == 0, 0.0, 200.0)
    pv = RawPvSeries(np.arange(n, dtype=np.int64), values.astype(float), P_MAX)
    ds = consolidate(pv, _ramp_nwp(days))
    got = ds.denormalize(5, ds.features[:, 5])
    expected = values.reshape(-1, 15).mean(axis=1)  # independent mean oracle
    assert np.allclose(got, expected, atol=1e-9)
    hourly = got.reshape(-1, 4).mean(axis=1)
    assert np.allclose(hourly, 100.0, atol=1e-9)


def test_consolidate_energy_conservation_per_hour():
    pv, nwp = synth_generate(8, seed=13, p_max=P_MAX)
    ds = consolidate(pv, nwp)
    pv15 = ds.denormalize(5, ds.features[:, 5])
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
    with pytest.raises(DataError, match="gap"):
        consolidate(gappy, _ramp_nwp(7))


def test_consolidate_fills_short_gap():
    pv = _constant_pv(7)
    keep = (pv.timestamps < 2 * DAY) | (pv.timestamps >= 2 * DAY + 90)
    gappy = RawPvSeries(pv.timestamps[keep], pv.power[keep], P_MAX)
    ds = consolidate(gappy, _ramp_nwp(7))
    pv15 = ds.denormalize(5, ds.features[:, 5])
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
    lo, hi = s.input_span()
    assert hi - lo == 480 * 15 + 24 * 60
    t_lo, t_hi = s.target_span()
    assert (t_lo, t_hi) == (s.anchor, s.anchor + 24 * 60)
    # the targets are exactly the dataset's next 24 hourly distributions
    h0 = ds.hour_index(s.anchor)
    assert np.array_equal(s.target_pdf, ds.hour_targets[h0:h0 + 24])


def test_make_sample_returns_read_only_views_equal_to_copies():
    ds = _dataset(7)
    for anchor in list_anchors(ds, stride_hours=5):
        s = make_sample(ds, anchor, 480, 24)
        s0, s1 = ds.slot_index(anchor) - 480, ds.slot_index(anchor)
        h0 = ds.hour_index(anchor)
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


# ------------------------------------------------------------------ split ---


def _mini_sample(anchor, input_steps=480, output_steps=24):
    return Sample(anchor=anchor,
                  input=np.zeros((input_steps, 6)),
                  history_pdf=np.full((output_steps, 2), 0.5),
                  p0_pdf=np.array([0.5, 0.5]),
                  target_pdf=np.full((output_steps, 2), 0.5))


def test_split_no_overlap_counts_within_rounding():
    samples = [_mini_sample(6 * DAY * i + 5 * DAY) for i in range(40)]
    result = split(samples, seed=3)
    assert result.discarded == 0
    assert len(result.train) == round(0.70 * 40)
    assert len(result.val) == round(0.15 * 40)
    assert len(result.test) == round(0.15 * 40)


def test_split_adjacent_samples_drop_later():
    a = _mini_sample(5 * DAY)
    b = _mini_sample(5 * DAY + HOUR)
    result = split([a, b], seed=0)
    kept = result.train + result.val + result.test
    assert result.discarded == 1
    assert len(kept) == 1
    assert kept[0].anchor == a.anchor  # earlier anchor wins


def test_split_deterministic():
    samples = [_mini_sample(5 * DAY + DAY * i) for i in range(100)]
    r1 = split(samples, seed=42)
    r2 = split(samples, seed=42)
    for part1, part2 in zip(r1, r2):
        assert [s.anchor for s in part1] == [s.anchor for s in part2]


def test_split_no_cross_split_overlap_after_discard():
    samples = [_mini_sample(5 * DAY + DAY * i) for i in range(60)]
    result = split(samples, seed=7)
    parts = [result.train, result.val, result.test]
    for i, part_a in enumerate(parts):
        for part_b in parts[i + 1:]:
            for a in part_a:
                for b in part_b:
                    sa, ta = a.input_span(), a.target_span()
                    sb, tb = b.input_span(), b.target_span()
                    assert not (sa[0] < tb[1] and tb[0] < sa[1])
                    assert not (sb[0] < ta[1] and ta[0] < sb[1])


def _reference_split(samples, fractions, seed):
    """The quadratic discard: every candidate against every kept sample."""
    def overlaps(span, target):
        return span[0] < target[1] and target[0] < span[1]

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_train = int(round(fractions[0] * len(samples)))
    n_val = int(round(fractions[1] * len(samples)))
    assign = np.empty(len(samples), dtype=np.int64)
    assign[order[:n_train]] = 0
    assign[order[n_train:n_train + n_val]] = 1
    assign[order[n_train + n_val:]] = 2
    kept, discarded = [], 0
    for i in sorted(range(len(samples)), key=lambda i: samples[i].anchor):
        a = samples[i]
        if any(assign[j] != assign[i]
               and (overlaps(samples[j].input_span(), a.target_span())
                    or overlaps(a.input_span(), samples[j].target_span()))
               for j in kept):
            discarded += 1
        else:
            kept.append(i)
    parts = ([], [], [])
    for i in kept:
        parts[assign[i]].append(i)
    return parts, discarded


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 240), st.integers(0, 600), st.integers(1, 48)),
                min_size=1, max_size=50),
       st.integers(0, 100), st.integers(0, 100), st.integers(0, 2 ** 32 - 1))
def test_split_matches_quadratic_reference(specs, pct_train, pct_val, seed):
    pct_val = min(pct_val, 100 - pct_train)
    fractions = (pct_train / 100, pct_val / 100, 1.0 - pct_train / 100 - pct_val / 100)
    samples = [_mini_sample(5 * DAY + h * HOUR, steps_in, steps_out)
               for h, steps_in, steps_out in specs]
    index = {id(s): i for i, s in enumerate(samples)}
    result = split(samples, fractions, seed)
    parts, discarded = _reference_split(samples, fractions, seed)
    assert result.discarded == discarded
    for part, want in zip(result, parts):
        assert [index[id(s)] for s in part] == want


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


def test_format_timestamp_round_trip():
    from pvcast.data import parse_timestamp
    minute = 26_000_000
    assert parse_timestamp(format_timestamp(minute)) == minute
