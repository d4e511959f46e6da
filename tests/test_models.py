"""Model construction, parameter budgets, decoding modes, persistence."""

import tracemalloc

import numpy as np
import pytest

from pvcast import autodiff as ad
from pvcast import models
from pvcast.autodiff import Tape, Tensor
from pvcast.data import (DAY, HOUR, RawNwpSeries, RawPvSeries, consolidate,
                         make_samples, synth_generate)
from pvcast.errors import ConfigError, ContractError
from pvcast.layers import DenseLayer
from pvcast.metrics import nrmse
from pvcast.models import (BENCHMARK_UNITS, Forecast, ModelConfig, assemble_forecast,
                           benchmark_config, build_model, count_parameters,
                           persistence_forecast, sample_arrays)
from pvcast.training import _batch_loss

from reference_ops import step_major_forward

P_MAX = 1000.0

# (family, mode) -> (published approximate count, tolerance)
BUDGETS = {
    ("ffnn", "expected"): (428_000, 0.03),
    ("ffnn", "pdf"): (428_000, 0.03),
    ("lstm", "expected"): (425_000, 0.03),
    ("lstm", "pdf"): (434_000, 0.03),
    ("s2s", "expected"): (425_000, 0.03),
    ("s2s", "pdf"): (431_000, 0.03),
    ("s2s_attn", "expected"): (441_000, 0.10),
    ("s2s_attn", "pdf"): (423_000, 0.10),
}

# Frozen expected counts for this implementation's layer layout.
EXACT_COUNTS = {
    ("ffnn", "expected"): 426_881,
    ("ffnn", "pdf"): 426_754,
    ("lstm", "expected"): 423_865,
    ("lstm", "pdf"): 432_930,
    ("s2s", "expected"): 424_117,
    ("s2s", "pdf"): 430_386,
    ("s2s_attn", "expected"): 414_745,
    ("s2s_attn", "pdf"): 410_130,
}


@pytest.mark.parametrize("family,mode", sorted(BUDGETS))
def test_parameter_budget_parity(family, mode):
    target, tolerance = BUDGETS[(family, mode)]
    model = build_model(benchmark_config(family, mode), seed=0)
    count = count_parameters(model)
    assert count == EXACT_COUNTS[(family, mode)]
    assert abs(count - target) / target <= tolerance


def test_persistence_has_zero_parameters():
    model = build_model(ModelConfig(family="persistence"), seed=0)
    assert count_parameters(model) == 0


def test_dense_parameter_count_hand_example():
    layer = DenseLayer(2, 3)
    assert sum(p.data.size for _, p in layer.parameters()) == 9


def test_unknown_family_is_config_error():
    with pytest.raises(ConfigError):
        ModelConfig(family="transformer")
    with pytest.raises(ConfigError):
        ModelConfig(family="lstm", target_mode="quantile")


# ---------------------------------------------------------------- samples ---


def _micro_samples(days=8, seed=5, input_steps=96, bins=50):
    rng = np.random.default_rng(seed)
    n = days * DAY
    minutes = np.arange(n, dtype=np.int64)
    mod = minutes % DAY
    envelope = np.clip(np.sin(np.pi * (mod - 6 * HOUR) / (12 * HOUR)), 0.0, None)
    pv = RawPvSeries(minutes, P_MAX * envelope * rng.uniform(0.4, 1.0, size=n), P_MAX)
    hours = HOUR * np.arange(days * 24, dtype=np.int64)
    chans = np.column_stack([
        15 + 5 * np.sin(2 * np.pi * hours / DAY),
        np.full(hours.size, 101.0),
        800 * np.clip(np.sin(np.pi * (hours % DAY - 6 * HOUR) / (12 * HOUR)), 0, None),
        3 + rng.uniform(-1, 1, hours.size),
        np.clip(60 + rng.normal(0, 5, hours.size), 0, 100),
    ])
    ds = consolidate(pv, RawNwpSeries(hours, chans), bins=bins)
    return make_samples(ds, stride_hours=24, input_steps=input_steps), ds


def _micro_config(family, mode, **kw):
    defaults = dict(family=family, target_mode=mode, units_per_layer=6,
                    input_steps=96)
    defaults.update(kw)
    return ModelConfig(**defaults)


@pytest.mark.parametrize("family", ["s2s", "s2s_attn"])
@pytest.mark.parametrize("mode", ["pdf", "expected"])
def test_step_one_identical_under_both_decoding_modes(family, mode):
    samples, _ = _micro_samples()
    model = build_model(_micro_config(family, mode), seed=3)
    inputs, p0, teacher, _ = sample_arrays(samples[:1], model.config)
    forced = model.forward_batch(inputs, p0, teacher, "teacher_forcing").data
    recurrent = model.forward_batch(inputs, p0, None, "self_recurrent").data
    assert np.array_equal(forced[:, 0], recurrent[:, 0])


@pytest.mark.parametrize("family", ["s2s", "s2s_attn"])
@pytest.mark.parametrize("mode", ["pdf", "expected"])
def test_teacher_forced_step_reads_the_previous_teacher_row(family, mode):
    samples, _ = _micro_samples()
    model = build_model(_micro_config(family, mode), seed=3)
    inputs, p0, teacher, _ = sample_arrays(samples[:3], model.config)
    forced = model.forward_batch(inputs, p0, teacher, "teacher_forcing").data
    assert forced.shape == (3, 24, model.config.step_width)
    for k in (0, 11, 22):
        changed = teacher.copy()
        changed[:, k] = np.where(teacher[:, k] > 0.5, 0.0, 1.0)  # differs in every entry
        out = model.forward_batch(inputs, p0, changed, "teacher_forcing").data
        assert np.array_equal(out[:, :k + 1], forced[:, :k + 1])
        assert all(not np.array_equal(out[i, k + 1], forced[i, k + 1]) for i in range(3))
    # Fed back as the teacher, the self-recurrent decoder's own feedback
    # reproduces its forecast bitwise.
    recurrent = model.forward_batch(inputs, p0, None, "self_recurrent").data
    feedback = recurrent if mode == "pdf" else np.clip(recurrent, 0.0, 1.0)
    replay = model.forward_batch(inputs, p0, feedback, "teacher_forcing").data
    assert np.array_equal(replay, recurrent)


def _teacher_forced_step(model, forward, batch: int):
    """The forecast, loss and every parameter gradient of one taped batch of
    random windows through `forward`, whose loss reads the random teacher."""
    cfg = model.config
    rng = np.random.default_rng(batch)
    inputs = rng.uniform(0.0, 1.0, (batch, cfg.input_steps, cfg.input_features))
    if cfg.target_mode == "pdf":
        p0 = rng.dirichlet(np.ones(cfg.step_width), size=batch)
        teacher = rng.dirichlet(np.ones(cfg.step_width), size=(batch, cfg.output_steps))
    else:
        p0 = rng.uniform(0.0, 1.0, (batch, 1))
        teacher = rng.uniform(0.0, 1.0, (batch, cfg.output_steps, 1))
    nwp = rng.uniform(0.0, 1.0, (batch, cfg.output_steps, 5)) if cfg.decoder_nwp else None
    with Tape() as tape:
        out = forward(inputs, p0, teacher, nwp)
        loss = _batch_loss("kl" if cfg.target_mode == "pdf" else "mse", out, teacher, 1e-9)
    ad.backward(tape, loss)
    return [("forecast", out.data), ("loss", loss.data)] + [(n, p.grad) for n, p in
                                                            model.parameters()]


@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("family", ["s2s", "s2s_attn"])
@pytest.mark.parametrize("mode", ["pdf", "expected"])
@pytest.mark.parametrize("decoder_nwp", [False, True], ids=["plain", "decoder_nwp"])
def test_teacher_forced_decoder_equals_the_step_major_reference(decoder_nwp, mode, family,
                                                                batch):
    # The layer-major decoder (one lstm_layer node per layer, reading its
    # attention at every step) against per-step attend, one-step lstm_layer
    # and head nodes: every value and every gradient, encoder included, is
    # the same to the bit.
    cfg = _micro_config(family, mode, units_per_layer=6, input_steps=40,
                        decoder_nwp=decoder_nwp)
    model = build_model(cfg, seed=4)
    new = _teacher_forced_step(
        model, lambda *a: model.forward_batch(*a[:3], "teacher_forcing", a[3]), batch)
    model = build_model(cfg, seed=4)
    ref = _teacher_forced_step(model, lambda *a: step_major_forward(model, *a), batch)
    assert [name for name, _ in new] == [name for name, _ in ref]
    for (name, a), (_, b) in zip(new, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("family", ["s2s", "s2s_attn"])
@pytest.mark.parametrize("mode", ["pdf", "expected"])
@pytest.mark.parametrize("decoder_nwp", [False, True], ids=["plain", "decoder_nwp"])
def test_self_recurrent_gradients_equal_the_teacher_forced_replays(decoder_nwp, mode, family):
    # The self-recurrent decoder feeds back its forecast's values, clipped in
    # E mode, as constants: under a tape its gradients are those of the
    # teacher-forced decoder given that feedback as the teacher.
    cfg = _micro_config(family, mode, units_per_layer=6, input_steps=40,
                        decoder_nwp=decoder_nwp)
    model = build_model(cfg, seed=4)
    recurrent = _teacher_forced_step(
        model, lambda *a: model.forward_batch(*a[:2], None, "self_recurrent", a[3]), 3)
    forecast = recurrent[0][1]
    feedback = forecast if mode == "pdf" else np.clip(forecast, 0.0, 1.0)
    model = build_model(cfg, seed=4)
    replay = _teacher_forced_step(
        model, lambda *a: model.forward_batch(*a[:2], feedback, "teacher_forcing", a[3]), 3)
    assert [name for name, _ in recurrent] == [name for name, _ in replay]
    # The one-step reads add the key and value gradients step by step, the
    # layer-major node in one GEMM: what reaches the encoder through them is
    # equal up to rounding. The key bias's gradient is zero but for rounding
    # (a shift of every key's score leaves the softmax as it is), so the
    # bound is taken against the largest gradient entry of the model.
    largest = max(np.abs(g).max() for _, g in replay[2:])
    for (name, a), (_, b) in zip(recurrent, replay):
        assert a.shape == b.shape, name
        if family == "s2s_attn" and (name.startswith("encoder") or ".w_k." in name
                                     or ".w_v." in name):
            assert np.abs(a - b).max() <= 1e-12 * largest, name
        else:
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("family", ["ffnn", "lstm", "s2s", "s2s_attn"])
@pytest.mark.parametrize("mode", ["pdf", "expected"])
def test_forward_batch_returns_one_forecast_tensor(family, mode):
    samples, _ = _micro_samples()
    model = build_model(_micro_config(family, mode), seed=1)
    inputs, p0, _, _ = sample_arrays(samples[:3], model.config)
    out = model.forward_batch(inputs, p0, None, "self_recurrent")
    assert isinstance(out, Tensor)
    assert out.shape == (3, 24, model.config.step_width)


@pytest.mark.parametrize("family", ["ffnn", "lstm", "s2s", "s2s_attn"])
def test_pdf_forecast_steps_are_distributions(family):
    samples, _ = _micro_samples()
    model = build_model(_micro_config(family, "pdf"), seed=11)
    forecast = model.forward(samples[0])
    assert forecast.steps.shape == (24, 50)
    assert np.all(forecast.steps >= 0.0)
    assert np.all(np.abs(forecast.steps.sum(axis=1) - 1.0) < 1e-9)


@pytest.mark.parametrize("family", ["ffnn", "lstm", "s2s", "s2s_attn"])
def test_forward_deterministic(family):
    samples, _ = _micro_samples()
    model = build_model(_micro_config(family, "pdf"), seed=11)
    a = model.forward(samples[0]).steps
    b = model.forward(samples[0]).steps
    assert np.array_equal(a, b)


def spy_forward_batch(model):
    """Wrap model.forward_batch; returns the list of its calls' batch widths."""
    widths, inner = [], model.forward_batch

    def spy(inputs, *args, **kwargs):
        widths.append(inputs.shape[0])
        return inner(inputs, *args, **kwargs)

    model.forward_batch = spy
    return widths


def budget_for(cfg, windows):
    """A _FORWARD_BYTES value that gives groups of `windows` for cfg."""
    return windows * models._window_bytes(cfg)


@pytest.mark.parametrize("family,mode", [
    ("s2s_attn", "pdf"), ("s2s_attn", "expected"), ("s2s", "pdf"), ("lstm", "expected"),
    ("ffnn", "pdf")])
@pytest.mark.parametrize("group", [1, 2, 3])
def test_forward_samples_runs_budget_groups_in_order(monkeypatch, family, mode, group):
    samples, _ = _micro_samples()
    n = len(samples)
    assert n == 7  # not a multiple of 2 or 3: the last group is partial
    cfg = _micro_config(family, mode)
    model = build_model(cfg, seed=4)
    reference = model.forward_batch
    monkeypatch.setattr(models, "_FORWARD_BYTES", budget_for(cfg, group))
    assert models._forward_group(cfg) == group
    widths = spy_forward_batch(model)
    forecasts = model.forward_samples(samples)
    assert widths == [min(group, n - g0) for g0 in range(0, n, group)]
    # Bitwise what self-recurrent forward_batch gives for each group of
    # consecutive windows.
    for g0 in range(0, n, group):
        inputs, p0, _, nwp = sample_arrays(samples[g0:g0 + group], cfg, targets=False)
        out = reference(inputs, p0, None, "self_recurrent", nwp).data
        for got, steps in zip(forecasts[g0:g0 + group], out):
            assert np.array_equal(got.steps, assemble_forecast(cfg, steps).steps)
    # One window at a time is forward(); other group widths agree to rounding,
    # since a BLAS GEMM may round a row differently at another row count.
    singles = [model.forward(s).steps for s in samples]
    for got, single in zip(forecasts, singles):
        if group == 1:
            assert np.array_equal(got.steps, single)
        np.testing.assert_allclose(got.steps, single, rtol=1e-12, atol=1e-15)


def test_forward_group_follows_the_budget():
    assert models._FORWARD_BYTES == 9 * 2**20
    groups = {key: models._forward_group(benchmark_config(*key)) for key in BENCHMARK_UNITS}
    assert groups == {("ffnn", "expected"): 1, ("ffnn", "pdf"): 1,
                      ("lstm", "expected"): 4, ("lstm", "pdf"): 4,
                      ("s2s", "expected"): 36, ("s2s", "pdf"): 37,
                      ("s2s_attn", "expected"): 8, ("s2s_attn", "pdf"): 8}
    # Criterion 4's s2s_attn: a 9-window validation split is one call.
    assert models._forward_group(ModelConfig(family="s2s_attn", units_per_layer=32,
                                             input_steps=192)) == 57


@pytest.fixture(scope="module")
def published_windows():
    """Eight windows of 5-day (480-step) input, the published window length."""
    pv, nwp = synth_generate(13, seed=7, p_max=P_MAX)
    samples = make_samples(consolidate(pv, nwp), stride_hours=24, input_steps=480)
    assert len(samples) == 8
    return samples


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family,mode", [("ffnn", "expected"), ("lstm", "pdf"),
                                         ("s2s", "expected"), ("s2s_attn", "expected"),
                                         ("s2s_attn", "pdf")])
def test_forward_samples_peak_memory_stays_within_the_budget(published_windows,
                                                             family, mode):
    # The wider mode of each family, and s2s_attn pdf, at the published widths
    # over two groups, or one where a group takes all eight windows.
    cfg = benchmark_config(family, mode)
    model = build_model(cfg, seed=1)
    group = models._forward_group(cfg)
    windows = published_windows[:2 * group]
    model.forward_samples(windows[:1])  # lazy numpy and BLAS set-up
    peak = traced_peak(lambda: model.forward_samples(windows))
    assert peak <= models._FORWARD_BYTES


@pytest.mark.parametrize("family", ["s2s", "s2s_attn"])
@pytest.mark.parametrize("mode", ["pdf", "expected"])
@pytest.mark.parametrize("decoder_nwp", [False, True], ids=["plain", "decoder_nwp"])
def test_streamed_encoder_equals_the_taped_whole_sequence_forward(monkeypatch, family,
                                                                  mode, decoder_nwp):
    # Two whole projection chunks and a partial third: the untaped encoder
    # carries each layer's state over two chunk boundaries.
    chunk = ad._PROJECTION_CHUNK
    steps = 2 * chunk + 5
    samples, _ = _micro_samples(input_steps=steps)
    cfg = _micro_config(family, mode, input_steps=steps, decoder_nwp=decoder_nwp)
    model = build_model(cfg, seed=6)
    inputs, p0, _, nwp = sample_arrays(samples[:3], cfg, targets=False)
    encoder_steps, inner = [], ad.lstm_layer

    def spy(x, *args):
        if x.data.ndim == 3:
            encoder_steps.append(x.shape[1])
        return inner(x, *args)

    monkeypatch.setattr(ad, "lstm_layer", spy)
    streamed = model.forward_batch(inputs, p0, None, "self_recurrent", nwp).data
    assert encoder_steps == [chunk, chunk, chunk, chunk, 5, 5]
    encoder_steps.clear()
    with Tape() as tape:
        taped = model.forward_batch(inputs, p0, None, "self_recurrent", nwp).data
    assert encoder_steps == [steps, steps]
    assert tape.nodes[0].op == "lstm_layer"
    assert np.array_equal(streamed, taped)


def test_expected_mode_outputs_clipped_to_unit_interval():
    samples, _ = _micro_samples()
    model = build_model(_micro_config("s2s", "expected"), seed=1)
    forecast = model.forward(samples[0])
    assert np.all(forecast.steps >= 0.0)
    assert np.all(forecast.steps <= 1.0)


def test_output_steps_independent_of_input_steps():
    samples_long, _ = _micro_samples(input_steps=192)
    model = build_model(_micro_config("s2s", "pdf", input_steps=192), seed=2)
    assert model.forward(samples_long[0]).steps.shape[0] == 24
    samples_short, _ = _micro_samples(input_steps=48)
    model = build_model(_micro_config("lstm", "pdf", input_steps=48), seed=2)
    assert model.forward(samples_short[0]).steps.shape[0] == 24


def test_teacher_forcing_without_targets_is_contract_error():
    samples, _ = _micro_samples()
    s = samples[0]
    s.target_pdf = None
    model = build_model(_micro_config("s2s", "pdf"), seed=0)
    with pytest.raises(ContractError, match="sample has no targets"):
        sample_arrays([s], model.config)
    inputs, p0, teacher, _ = sample_arrays([s], model.config, targets=False)
    assert teacher is None
    with pytest.raises(ContractError, match="teacher forcing requires target values"):
        model.forward_batch(inputs, p0, teacher, "teacher_forcing")


def test_decoder_nwp_flag_changes_decoder_width_and_runs():
    samples, _ = _micro_samples()
    base = build_model(_micro_config("s2s_attn", "pdf"), seed=4)
    wide = build_model(_micro_config("s2s_attn", "pdf", decoder_nwp=True), seed=4)
    assert count_parameters(wide) > count_parameters(base)
    forecast = wide.forward(samples[0])
    assert forecast.steps.shape == (24, 50)
    with pytest.raises(ConfigError):
        _micro_config("lstm", "pdf", decoder_nwp=True)


# ------------------------------------------------------------ persistence ---


def test_persistence_constant_history():
    history = np.zeros((24, 50))
    history[:, 7] = 1.0
    forecast = persistence_forecast(history)
    assert np.array_equal(forecast.steps, history)


def test_persistence_periodic_signal_has_zero_error():
    # A strictly day-periodic signal: yesterday equals today, so the
    # persistence forecast is exact and its nRMSE vanishes.
    days = 8
    n = days * DAY
    minutes = np.arange(n, dtype=np.int64)
    mod = minutes % DAY
    pattern = P_MAX * np.clip(np.sin(np.pi * (mod - 5 * HOUR) / (14 * HOUR)), 0.0, None)
    pv = RawPvSeries(minutes, pattern, P_MAX)
    hours = HOUR * np.arange(days * 24, dtype=np.int64)
    chans = np.column_stack([np.full(hours.size, 10.0), np.full(hours.size, 101.0),
                             np.full(hours.size, 100.0), np.full(hours.size, 3.0),
                             np.full(hours.size, 50.0)])
    ds = consolidate(pv, RawNwpSeries(hours, chans))
    samples = make_samples(ds, stride_hours=24, input_steps=96)
    model = build_model(ModelConfig(family="persistence", input_steps=96), seed=0)
    for s in samples:
        forecast = model.forward(s)
        assert nrmse(forecast.expected, s.target_e, 1.0) < 1e-12


def test_persistence_matches_index_shift_oracle():
    samples, ds = _micro_samples()
    model = build_model(_micro_config("persistence", "pdf"), seed=0)
    s = samples[1]
    forecast = model.forward(s)
    h0 = (s.anchor - ds.grid_start) // HOUR
    assert np.array_equal(forecast.steps, ds.hour_targets[h0 - 24:h0])


def test_persistence_wrong_history_length():
    samples, _ = _micro_samples()
    s = samples[0]
    s.history_pdf = s.history_pdf[:12]
    model = build_model(_micro_config("persistence", "pdf"), seed=0)
    with pytest.raises(ContractError):
        model.forward(s)


def test_forecast_validation():
    bad = np.full((24, 50), 0.02)
    bad[0, 0] += 0.5
    with pytest.raises(ContractError):
        Forecast("pdf", bad)
    with pytest.raises(ContractError):
        Forecast("expected", np.array([0.5, 1.2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forecast_rejects_non_finite_steps(bad):
    pdf, expected = np.full((24, 50), 0.02), np.full(24, 0.5)
    pdf[3, 7], expected[5] = bad, bad
    for steps in (pdf, np.full((24, 50), bad)):
        with pytest.raises(ContractError, match="distributions summing to 1"):
            Forecast("pdf", steps)
    for steps in (expected, np.full(24, bad)):
        with pytest.raises(ContractError, match=r"lie in \[0, 1\]"):
            Forecast("expected", steps)


def test_benchmark_units_table_complete():
    assert set(BENCHMARK_UNITS) == set(BUDGETS)
