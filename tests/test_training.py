"""Loss functions, the fit loop, early stopping, and checkpoint round-trips."""

import ast
import dataclasses
import hashlib
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pvcast import autodiff as ad
from pvcast.autodiff import Tape, Tensor, backward
from pvcast.data import (DAY, HOUR, RawNwpSeries, RawPvSeries, consolidate, make_sample,
                         make_samples)
from pvcast.errors import ConfigError, ContractError, FormatError, TrainingError
from pvcast import models, training
from pvcast.metrics import nrmse
from pvcast.models import (Forecast, ModelConfig, assemble_forecast, build_model,
                           count_parameters, sample_arrays)
from pvcast.training import (TrainConfig, _batch_loss, fit, kl_loss, load_checkpoint,
                             mse_loss, save_checkpoint, validation_nrmse)

from reference_ops import (add, check_gradients, clamped_log, mul, reshape, scale, sigmoid,
                           slice_axis, sub, sum_all)

P_MAX = 1000.0


def _dataset(days=8, seed=17, constant_level=None):
    rng = np.random.default_rng(seed)
    n = days * DAY
    minutes = np.arange(n, dtype=np.int64)
    mod = minutes % DAY
    if constant_level is None:
        env = np.clip(np.sin(np.pi * (mod - 6 * HOUR) / (12 * HOUR)), 0.0, None)
        power = P_MAX * env * rng.uniform(0.3, 1.0, n)
    else:
        power = np.full(n, constant_level * P_MAX)
    pv = RawPvSeries(minutes, power, P_MAX)
    hours = HOUR * np.arange(days * 24, dtype=np.int64)
    chans = np.column_stack([10 + rng.normal(0, 1, hours.size),
                             np.full(hours.size, 101.0),
                             800 * np.clip(np.sin(np.pi * (hours % DAY - 6 * HOUR)
                                                  / (12 * HOUR)), 0, None),
                             np.full(hours.size, 3.0),
                             np.clip(50 + rng.normal(0, 5, hours.size), 0, 100)])
    return consolidate(pv, RawNwpSeries(hours, chans))


def _samples(days=8, seed=17, input_steps=96, constant_level=None):
    return make_samples(_dataset(days, seed, constant_level), stride_hours=24,
                        input_steps=input_steps)


def _config(family="s2s", mode="pdf", **kw):
    defaults = dict(family=family, target_mode=mode, units_per_layer=4, input_steps=96)
    defaults.update(kw)
    return ModelConfig(**defaults)


# ----------------------------------------------------------------- losses ---


def test_kl_loss_zero_on_identical_distributions():
    rng = np.random.default_rng(4)
    p = rng.dirichlet(np.ones(50), size=24)
    assert kl_loss(p.copy(), p).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_loss_hand_example():
    p = np.array([[0.5, 0.5]])
    f = np.array([[0.25, 0.75]])
    expected = 0.5 * np.log(2.0) - 0.5 * np.log(1.5)
    assert kl_loss(f, p).item() == pytest.approx(expected, abs=1e-12)
    assert kl_loss(f, p).item() == pytest.approx(0.1438, abs=1e-4)


def test_kl_loss_clamps_zero_forecast_mass():
    p = np.array([[1.0, 0.0]])
    f = np.array([[0.0, 1.0]])
    value = kl_loss(f, p, epsilon_floor=1e-9).item()
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(1e-9), abs=1e-9)
    assert value == pytest.approx(20.72, abs=5e-3)


def test_kl_loss_nonnegative_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6), size=3)
        f = rng.dirichlet(np.ones(6), size=3)
        assert kl_loss(f, p).item() >= -1e-12


def test_kl_loss_shape_mismatch():
    with pytest.raises(ContractError):
        kl_loss(np.full((2, 3), 1 / 3), np.full((2, 4), 0.25))


def test_kl_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    p = rng.dirichlet(np.ones(5), size=3)

    def build_loss():
        return kl_loss(ad.softmax(logits), p)

    assert check_gradients(build_loss, [logits]) < 1e-4


def test_mse_loss_examples():
    t = np.linspace(0.1, 0.9, 24)
    assert mse_loss(t.copy(), t).item() == pytest.approx(0.0, abs=1e-15)
    assert mse_loss(t + 0.5, t).item() == pytest.approx(0.25, abs=1e-12)
    f = np.zeros(24)
    p = np.zeros(24)
    f[0], p[1] = 1.0, 1.0
    assert mse_loss(f, p).item() == pytest.approx(2.0 / 24.0, abs=1e-12)


def test_mse_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    pred = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    target = rng.uniform(0, 1, size=(4, 1))

    def build_loss():
        return mse_loss(sigmoid(pred), target)

    assert check_gradients(build_loss, [pred]) < 1e-4


def _reference_batch_loss(kind, outputs, teacher, epsilon_floor):
    """The per-step loop the batched loss replaced, kept as its oracle:
    `outputs` holds one (batch, width) tensor per step."""
    batch = outputs[0].shape[0]
    total = None
    plogp = 0.0
    for t, out in enumerate(outputs):
        target_t = teacher[:, t]
        if kind == "kl":
            safe = np.where(target_t > 0.0, target_t, 1.0)
            plogp += float((target_t * np.log(safe)).sum())
            term = sum_all(mul(Tensor(target_t), clamped_log(out, epsilon_floor)))
        else:
            diff = sub(out, Tensor(target_t))
            term = sum_all(mul(diff, diff))
        total = term if total is None else add(total, term)
    if kind == "kl":
        return scale(add(scale(total, -1.0), Tensor(plogp)), 1.0 / batch)
    return scale(total, 1.0 / (len(outputs) * batch))


def _per_step(out):
    batch, steps, width = out.shape
    return [reshape(slice_axis(out, 1, t, t + 1), (batch, width)) for t in range(steps)]


def _loss_and_gradients(model, inputs, p0, teacher, loss_fn):
    params = [p for _, p in model.parameters()]
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn(model.forward_batch(inputs, p0, teacher, "teacher_forcing"))
    backward(tape, loss)
    return loss.item(), [p.grad for p in params]


@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("kind", ["kl", "mse"])
def test_batch_loss_matches_per_step_reference(kind, batch):
    rng = np.random.default_rng(batch)
    cfg = _config("s2s_attn", "pdf" if kind == "kl" else "expected", input_steps=16, bins=8)
    model = build_model(cfg, seed=batch)
    inputs = rng.uniform(0.0, 1.0, (batch, 16, cfg.input_features))
    if kind == "kl":
        # Bins the head pushes below the floor, and targets with empty bins.
        model.head.bias.data[:3] = -40.0
        p0 = rng.dirichlet(np.ones(8), size=batch)
        teacher = rng.dirichlet(np.ones(8), size=(batch, 24))
        teacher[..., :2] = 0.0
        teacher[..., 5] = 0.0
        teacher /= teacher.sum(axis=-1, keepdims=True)
    else:
        p0 = rng.uniform(0.0, 1.0, (batch, 1))
        teacher = rng.uniform(0.0, 1.0, (batch, 24, 1))
    floor = 1e-9
    value, grads = _loss_and_gradients(
        model, inputs, p0, teacher, lambda out: _batch_loss(kind, out, teacher, floor))
    ref_value, ref_grads = _loss_and_gradients(
        model, inputs, p0, teacher,
        lambda out: _reference_batch_loss(kind, _per_step(out), teacher, floor))
    if kind == "kl":
        out = model.forward_batch(inputs, p0, teacher, "teacher_forcing").data
        assert (out < floor).any() and (teacher == 0.0).any()
    assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


def _composite_loss(kind, out, target, floor, factor):
    """The whole-tensor composite of reference ops that ad.summed_loss must
    match bitwise."""
    if kind == "kl":
        safe = np.where(target > 0.0, target, 1.0)
        plogp = float((target * np.log(safe)).sum())
        cross = sum_all(mul(Tensor(target), clamped_log(out, floor)))
        return scale(add(scale(cross, -1.0), Tensor(plogp)), factor)
    diff = sub(out, Tensor(target))
    return scale(sum_all(mul(diff, diff)), factor)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["kl", "mse"])
def test_summed_loss_equals_whole_tensor_composite_bitwise(kind, seed):
    rng = np.random.default_rng(seed)
    batch, steps, floor = 1 + seed % 4, 24, 1e-9
    if kind == "kl":
        # Forecast bins below the floor, and targets with empty bins.
        data = rng.dirichlet(np.ones(8), size=(batch, steps))
        data[..., :2] = rng.uniform(0.0, 1e-10, (batch, steps, 2))
        target = rng.dirichlet(np.ones(8), size=(batch, steps))
        target[..., 1:3] = 0.0
        target /= target.sum(axis=-1, keepdims=True)
        assert (data < floor).any() and (target == 0.0).any()
    else:
        data = rng.normal(0.5, 0.5, (batch, steps, 1))
        target = rng.uniform(0.0, 1.0, (batch, steps, 1))
    for factor in (1.0, 1.0 / batch, 1.0 / (steps * batch)):
        x, y = (Tensor(data.copy(), requires_grad=True) for _ in range(2))
        with Tape() as tape:
            loss = ad.summed_loss(kind, x, target, floor, factor)
        backward(tape, loss)
        assert [node.op for node in tape.nodes] == ["loss"]
        with Tape() as tape:
            ref = _composite_loss(kind, y, target, floor, factor)
        backward(tape, ref)
        assert loss.item() == ref.item()
        assert np.array_equal(x.grad, y.grad)


def test_summed_loss_rejects_bad_arguments():
    p = np.full((2, 4), 0.25)
    with pytest.raises(ContractError, match="mse loss shape mismatch"):
        ad.summed_loss("mse", np.zeros((2, 3)), p, 1e-9, 1.0)
    with pytest.raises(ContractError, match="floor must be positive"):
        ad.summed_loss("kl", p, p, 0.0, 1.0)
    with pytest.raises(ContractError, match="unknown loss kind"):
        ad.summed_loss("crps", p, p, 1e-9, 1.0)


def _public_loss_cases():
    rng = np.random.default_rng(30)
    f_pdf = rng.dirichlet(np.ones(6), size=24)
    f_pdf[:, 0] = 1e-12
    f_pdf /= f_pdf.sum(axis=1, keepdims=True)
    p_pdf = rng.dirichlet(np.ones(6), size=24)
    p_pdf[:, 1] = 0.0
    p_pdf /= p_pdf.sum(axis=1, keepdims=True)
    f_e, p_e = rng.uniform(0, 1, 24), rng.uniform(0, 1, 24)
    return [
        ("kl", f_pdf, p_pdf, f_pdf, p_pdf),
        ("kl", Forecast("pdf", f_pdf), p_pdf, f_pdf, p_pdf),
        ("mse", f_e, p_e, f_e[:, None], p_e[:, None]),
        ("mse", f_e[:, None], p_e[:, None], f_e[:, None], p_e[:, None]),
        ("mse", f_e, p_e[:, None], f_e[:, None], p_e[:, None]),
        ("mse", Forecast("expected", f_e), p_e, f_e[:, None], p_e[:, None]),
    ]


@pytest.mark.parametrize("case", range(6))
def test_public_losses_match_per_step_reference(case):
    kind, f, p, steps, targets = _public_loss_cases()[case]
    loss_fn = kl_loss if kind == "kl" else mse_loss
    value = loss_fn(f, p).item()
    # Gradients with respect to the forecast, through trainable tensors.
    x, y = (Tensor(steps.copy(), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        loss = loss_fn(x, p)
    backward(tape, loss)
    with Tape() as tape:
        ref = _reference_batch_loss(kind, _per_step(reshape(y, (1,) + y.shape)),
                                    targets[None], 1e-9)
    backward(tape, ref)
    assert value == pytest.approx(ref.item(), rel=1e-12, abs=0.0)
    assert np.array_equal(x.grad, y.grad)


def test_public_losses_reject_mismatched_shapes():
    with pytest.raises(ContractError, match="kl loss shape mismatch"):
        kl_loss(np.full((24, 3), 1 / 3), np.full((23, 3), 1 / 3))
    with pytest.raises(ContractError):
        mse_loss(np.zeros(24), np.zeros(23))
    with pytest.raises(ContractError):
        mse_loss(np.zeros((24, 2)), np.zeros(24))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epsilon_floor=0.0)
    for name in ("learning_rate", "epsilon_floor"):
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
                TrainConfig(**{name: value})
    for clip_norm in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="clip_norm must be positive"):
            TrainConfig(clip_norm=clip_norm)
    for momentum in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ConfigError, match=re.escape(
                f"momentum must lie in [0, 1), got {momentum}")):
            TrainConfig(momentum=momentum)
    assert TrainConfig(momentum=0.0).momentum == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().seed = 1


# -------------------------------------------------------------------- fit ---


def test_fit_stacks_one_batch_at_a_time(monkeypatch):
    samples = _samples(days=10)
    train = samples[:7]
    stacked = []

    def spy(group, cfg, targets=True):
        stacked.append([s.anchor for s in group])
        return sample_arrays(group, cfg, targets)

    monkeypatch.setattr(training, "sample_arrays", spy)
    model = build_model(_config("s2s", "expected"), seed=0)
    fit(model, train, samples[7:8], TrainConfig(batch_size=3, max_epochs=2, seed=1))
    assert [len(anchors) for anchors in stacked] == [3, 3, 1] * 2
    for epoch in (stacked[:3], stacked[3:]):
        assert sorted(a for anchors in epoch for a in anchors) == [s.anchor for s in train]


@pytest.mark.parametrize("mode", ["pdf", "expected"])
def test_fit_rejects_train_sample_without_targets_before_any_step(mode):
    ds = _dataset(days=9)
    samples = make_samples(ds, stride_hours=24, input_steps=96)
    bare = make_sample(ds, samples[3].anchor, 96, 24, with_targets=False)
    model = build_model(_config("ffnn", mode, units_per_layer=3), seed=0)
    before = [p.data.copy() for _, p in model.parameters()]
    with pytest.raises(ContractError, match="no targets"):
        fit(model, samples[:3] + [bare], samples[4:5],
            TrainConfig(batch_size=1, max_epochs=1, seed=0))
    assert all(np.array_equal(p.data, b) for (_, p), b in zip(model.parameters(), before))


def test_fit_patience_stops_after_no_improvement(monkeypatch):
    samples = _samples()
    model = build_model(_config("ffnn", "expected"), seed=0)
    scripted = iter([0.5, 0.6, 0.7, 0.8])
    monkeypatch.setattr("pvcast.training.validation_nrmse",
                        lambda m, s: next(scripted))
    report = fit(model, samples[:3], samples[3:4],
                 TrainConfig(patience=1, max_epochs=10, batch_size=2, seed=1))
    assert len(report.val_nrmse) == 2  # epoch 1 improves, epoch 2 stops
    assert report.best_epoch == 1
    assert report.stop_reason == "early_stop"


def test_fit_best_epoch_is_minimum_and_weights_restored():
    samples = _samples(days=10)
    model = build_model(_config("ffnn", "expected", units_per_layer=3), seed=5)
    cfg = TrainConfig(learning_rate=0.05, batch_size=4, patience=3, max_epochs=12, seed=3)
    report = fit(model, samples[:4], samples[4:6], cfg)
    assert report.best_epoch >= 1
    best = report.val_nrmse[report.best_epoch - 1]
    assert best == min(report.val_nrmse)
    # restored weights reproduce the best validation score exactly
    assert validation_nrmse(model, samples[4:6]) == pytest.approx(best, abs=1e-15)


def test_validation_nrmse_rejects_an_empty_split():
    model = build_model(_config("s2s", "pdf"), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        with pytest.raises(ContractError, match="nonempty"):
            validation_nrmse(model, [])


def test_validation_nrmse_runs_budget_groups(monkeypatch):
    samples = _samples(days=10)
    assert len(samples) == 9
    cfg = _config("s2s_attn", "pdf")
    model = build_model(cfg, seed=2)
    reference = model.forward_batch
    # Groups of two windows: four pairs and one single.
    monkeypatch.setattr(models, "_FORWARD_BYTES", 2 * models._window_bytes(cfg))
    widths = []

    def spy(inputs, *args, **kwargs):
        widths.append(inputs.shape[0])
        return reference(inputs, *args, **kwargs)

    model.forward_batch = spy
    score = validation_nrmse(model, samples)
    assert widths == [2, 2, 2, 2, 1]
    scores = []
    for g0 in range(0, len(samples), 2):
        group = samples[g0:g0 + 2]
        inputs, p0, _, nwp = sample_arrays(group, cfg, targets=False)
        out = reference(inputs, p0, None, "self_recurrent", nwp).data
        scores += [nrmse(assemble_forecast(cfg, steps).expected, s.target_e, 1.0)
                   for steps, s in zip(out, group)]
    assert score == float(np.mean(scores))


def test_fit_training_loss_decreases_on_constant_target():
    samples = _samples(days=8, constant_level=0.4)
    model = build_model(_config("ffnn", "expected", units_per_layer=2), seed=2)
    cfg = TrainConfig(learning_rate=0.02, batch_size=4, patience=50, max_epochs=5, seed=0)
    report = fit(model, samples[:3], samples[3:4], cfg)
    for a, b in zip(report.train_loss, report.train_loss[1:]):
        assert b < a


def test_fit_deterministic_checkpoints(tmp_path):
    samples = _samples(days=9)

    def run(path):
        model = build_model(_config("s2s", "pdf"), seed=4)
        cfg = TrainConfig(learning_rate=0.01, batch_size=3, patience=2,
                          max_epochs=3, seed=21)
        fit(model, samples[:4], samples[4:5], cfg)
        save_checkpoint(model, path)

    run(tmp_path / "a.ckpt")
    run(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_fit_teacher_forcing_never_consumes_model_output():
    samples = _samples(days=9)
    train = samples[:4]
    model = build_model(_config("s2s_attn", "pdf"), seed=6)
    inner = model.forward_batch
    taped, untaped = [], []

    def spy(inputs, p0, teacher, mode, nwp_ahead=None):
        out = inner(inputs, p0, teacher, mode, nwp_ahead)
        if ad._active_tape() is None:
            untaped.append(mode)
            return out
        rows = [next(j for j, s in enumerate(train) if np.array_equal(s.input, x))
                for x in inputs]
        own = all(np.array_equal(teacher[i], train[j].target_pdf)
                  and np.array_equal(p0[i], train[j].p0_pdf) for i, j in enumerate(rows))
        # The loss must see outputs driven by those rows: another teacher
        # leaves the first step alone and moves every later one.
        with Tape():
            other = inner(inputs, p0, np.full_like(teacher, 1.0 / teacher.shape[-1]),
                          mode, nwp_ahead).data
        driven = (np.array_equal(other[:, 0], out.data[:, 0])
                  and all(not np.array_equal(other[i, t], out.data[i, t])
                          for i in range(len(rows)) for t in range(1, other.shape[1])))
        taped.append((mode, sorted(rows), own, driven))
        return out

    model.forward_batch = spy
    cfg = TrainConfig(learning_rate=0.003, batch_size=3, patience=5, max_epochs=2, seed=2)
    fit(model, train, samples[4:5], cfg)
    assert [mode for mode, *_ in taped] == ["teacher_forcing"] * 4  # 2 batches x 2 epochs
    assert sorted(taped[0][1] + taped[1][1]) == sorted(taped[2][1] + taped[3][1]) == [0, 1, 2, 3]
    assert all(own and driven for _, _, own, driven in taped)
    assert untaped == ["self_recurrent"] * 2  # one validation pass per epoch


def test_fit_divergence_reports_epoch_and_batch():
    samples = _samples(days=8)
    model = build_model(_config("ffnn", "expected", units_per_layer=2), seed=1)
    cfg = TrainConfig(learning_rate=1e18, batch_size=4, patience=5, max_epochs=8, seed=0)
    with pytest.raises(TrainingError, match="epoch"):
        fit(model, samples[:3], samples[3:4], cfg)


def test_fit_divergence_in_recurrent_model_reports_epoch_and_batch():
    samples = _samples(days=9)
    model = build_model(_config("s2s_attn", "pdf"), seed=1)
    # Saturated gates keep the loss finite at 1e18; 1e300 overflows the weights.
    cfg = TrainConfig(learning_rate=1e300, batch_size=2, patience=5, max_epochs=3, seed=0)
    with pytest.raises(TrainingError, match=r"epoch 1, batch 1: non-finite"):
        fit(model, samples[:5], samples[5:6], cfg)


def test_fit_warns_when_saturated_gates_freeze_the_loss(caplog):
    samples = _samples(days=9)
    model = build_model(_config("s2s_attn", "pdf"), seed=1)
    # Finite, but every gate saturates from the first steps on.
    cfg = TrainConfig(learning_rate=1e18, batch_size=2, patience=5, max_epochs=4, seed=0)
    with caplog.at_level("WARNING", logger="pvcast"):
        report = fit(model, samples[:5], samples[5:6], cfg)
    assert report.stop_reason == "max_epochs"
    assert report.train_loss[0] != pytest.approx(report.train_loss[1], rel=1e-6)
    assert report.train_loss[1:] == pytest.approx([208.2226390266076] * 3, rel=1e-12)
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert [r.name for r in warnings] == ["pvcast", "pvcast"]
    for epoch, record in zip((3, 4), warnings):
        text = record.getMessage()
        assert f"at epoch {epoch} is unchanged" in text
        assert "208.22263" in text
        assert "saturated" in text and "lower the learning rate" in text


def test_fit_gives_no_saturation_warning_while_the_loss_moves(caplog):
    samples = _samples(days=9)
    model = build_model(_config("s2s_attn", "pdf"), seed=1)
    cfg = TrainConfig(learning_rate=0.01, batch_size=2, patience=5, max_epochs=3, seed=0)
    with caplog.at_level("WARNING", logger="pvcast"):
        fit(model, samples[:5], samples[5:6], cfg)
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


# Seeded results of 1-epoch fits, recorded before the LSTM step became one
# fused tape node; the fused op must reproduce them bitwise.
PINNED_TINY_FITS = {
    "pdf": (3, 58.20508552107317, 0.07551604596831478),
    "expected": (4, 0.13561949317003946, 0.06576123756575575),
}


@pytest.mark.parametrize("mode", sorted(PINNED_TINY_FITS))
def test_fit_seeded_s2s_attn_numerics_are_pinned(mode):
    seed, train_loss, val_nrmse = PINNED_TINY_FITS[mode]
    samples = _samples(days=9)
    model = build_model(_config("s2s_attn", mode), seed=seed)
    cfg = TrainConfig(learning_rate=0.01, batch_size=3, patience=2, max_epochs=1, seed=seed)
    report = fit(model, samples[:5], samples[5:7], cfg)
    assert report.train_loss == [train_loss]
    assert report.val_nrmse == [val_nrmse]


MAX_TAPE_NODES_C4_STEP = 61


def test_teacher_forced_s2s_attn_step_tape_size():
    # Criterion-4 scale: 192 encoder steps, 32 units, batch 32. 4 lstm_layer
    # nodes, one per encoder layer and one per decoder layer over all 24
    # steps, each decoder layer reading its attention context at every step
    # itself and forming its keys' and values' gradients; 2 key swaps, one
    # per attention layer; 28 affine nodes, one per head call and per key or
    # value projection; 1 unstack of the top decoder layer's outputs into the
    # head's 24 step views; 24 softmax nodes, one per pdf step; and one stack
    # of the decoder's outputs feeding one loss node over the whole forecast
    # give 4 + 2 + 28 + 1 + 24 + 1 + 1 = 61 nodes.
    rng = np.random.default_rng(0)
    cfg = ModelConfig(family="s2s_attn", target_mode="pdf", units_per_layer=32,
                      input_steps=192)
    model = build_model(cfg, seed=5)
    batch = 32
    inputs = rng.uniform(0.0, 1.0, (batch, 192, cfg.input_features))
    p0 = rng.dirichlet(np.ones(cfg.step_width), size=batch)
    teacher = rng.dirichlet(np.ones(cfg.step_width), size=(batch, cfg.output_steps))
    with Tape() as tape:
        outputs = model.forward_batch(inputs, p0, teacher, "teacher_forcing")
        _batch_loss("kl", outputs, teacher, 1e-9)
    # Exactly these ops: no attention node, and no slice, reshape, concat or
    # matmul glue between the encoder's last states, the queries and their
    # parts.
    assert Counter(node.op for node in tape.nodes) == {
        "lstm_layer": 2 * cfg.depth, "swap": cfg.depth,
        "affine": cfg.output_steps + 2 * cfg.depth, "unstack": 1,
        "softmax": cfg.output_steps, "stack": 1, "loss": 1}
    assert len(tape) == MAX_TAPE_NODES_C4_STEP


# Criterion-4 teacher-forced step tapes (192 steps, 32 units, batch 32), pdf
# and expected mode.
TAPE_NODES_C4_STEP = {
    "s2s_attn": (61, 37),
    "s2s": (100, 76),
    "lstm": (6, 5),
    "ffnn": (8, 7),
}


def _c4_step_tape(family: str, mode: str) -> Tape:
    """The tape of one criterion-4 teacher-forced step, loss included."""
    rng = np.random.default_rng(1)
    cfg = ModelConfig(family=family, target_mode=mode, units_per_layer=32, input_steps=192)
    model = build_model(cfg, seed=2)
    batch = 32
    inputs = rng.uniform(0.0, 1.0, (batch, 192, cfg.input_features))
    if mode == "pdf":
        p0 = rng.dirichlet(np.ones(cfg.step_width), size=batch)
        teacher = rng.dirichlet(np.ones(cfg.step_width), size=(batch, cfg.output_steps))
    else:
        p0 = rng.uniform(0.0, 1.0, (batch, 1))
        teacher = rng.uniform(0.0, 1.0, (batch, cfg.output_steps, 1))
    with Tape() as tape:
        outputs = model.forward_batch(inputs, p0, teacher, "teacher_forcing")
        _batch_loss("kl" if mode == "pdf" else "mse", outputs, teacher, 1e-9)
    return tape


@pytest.mark.parametrize("mode", ["pdf", "expected"])
@pytest.mark.parametrize("family", sorted(TAPE_NODES_C4_STEP))
def test_teacher_forced_step_tape_has_one_loss_node_and_no_scalar_ops(family, mode):
    tape = _c4_step_tape(family, mode)
    ops = Counter(node.op for node in tape.nodes)
    assert ops["loss"] == 1 and tape.nodes[-1].op == "loss"
    for op in ("add", "sub", "mul", "scale", "sum", "clamped_log", "reshape", "concat",
               "matmul"):
        assert ops[op] == 0, op
    assert len(tape) == TAPE_NODES_C4_STEP[family][mode != "pdf"]


def _recorded_op_names(source: Path) -> set:
    """Every op name that `source` passes as a string to _emit or Node."""
    return {call.args[0].value for call in ast.walk(ast.parse(source.read_text()))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in ("_emit", "Node") and call.args
            and isinstance(call.args[0], ast.Constant)}


def test_autodiff_op_set_is_what_the_models_record():
    # The package defines no op that the models do not record.
    defined = _recorded_op_names(Path(ad.__file__))
    recorded = {node.op for family in TAPE_NODES_C4_STEP for mode in ("pdf", "expected")
                for node in _c4_step_tape(family, mode).nodes}
    assert defined == recorded == {"affine", "loss", "lstm_layer", "softmax", "stack", "swap",
                                   "tanh", "temporal", "unstack"}


def _private_definitions(tree: ast.Module) -> set:
    """The _-prefixed functions, classes and constants a module defines at
    its top level, __all__ aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and name != "__all__"}


def test_every_private_package_name_is_used():
    # A private helper that nothing in the package refers to is dead code.
    trees = [ast.parse(path.read_text()) for path in Path(ad.__file__).parent.glob("*.py")]
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    defined = set().union(*map(_private_definitions, trees))
    assert defined
    assert defined - used == set()


def test_fit_gradient_clipping_flag_runs():
    samples = _samples(days=8)
    model = build_model(_config("ffnn", "expected", units_per_layer=2), seed=1)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, patience=2, max_epochs=2,
                      seed=0, clip_norm=0.001)
    report = fit(model, samples[:3], samples[3:4], cfg)
    assert len(report.train_loss) >= 1


def test_fit_empty_split_is_contract_error():
    samples = _samples()
    model = build_model(_config("ffnn", "expected"), seed=0)
    with pytest.raises(ContractError):
        fit(model, [], samples[:1], TrainConfig(max_epochs=1))


def test_train_report_csv():
    samples = _samples(days=8)
    model = build_model(_config("ffnn", "expected", units_per_layer=2), seed=2)
    report = fit(model, samples[:3], samples[3:4],
                 TrainConfig(batch_size=4, max_epochs=2, patience=5, seed=0))
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_nrmse"
    assert len(lines) == 1 + len(report.train_loss)


# ------------------------------------------------------------ checkpoints ---


def test_checkpoint_round_trip_bitwise(tmp_path):
    samples = _samples(days=8)
    model = build_model(_config("s2s_attn", "pdf"), seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert count_parameters(loaded) == count_parameters(model)
    assert loaded.config == model.config
    for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    a = model.forward(samples[0]).steps
    b = loaded.forward(samples[0]).steps
    assert np.array_equal(a, b)


# SHA-256 of the checkpoint bytes of seeded units-4 s2s_attn models, recorded
# while the query projection was a dense layer: equal bytes mean the files
# written then, with the same names, shapes and draws, still load.
V1_CHECKPOINT_SHA256 = {
    "pdf": "934dc201459b4cbbc7875fd87973cee32bf0b208e20de859801768edfa0c8800",
    "expected": "e26a2c968596408342bb6255b7bfdc6d38ed21f5d9ba2675df14158d88436889",
}


@pytest.mark.parametrize("mode", sorted(V1_CHECKPOINT_SHA256))
def test_checkpoint_bytes_of_s2s_attn_are_those_of_v1(tmp_path, mode):
    model = build_model(_config("s2s_attn", mode), seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_CHECKPOINT_SHA256[mode]
    names = [name for name, _ in load_checkpoint(path).parameters()]
    assert [n for n in names if n.startswith("attention0.")] == [
        f"attention0.{p}.{q}" for p in ("w_q", "w_k", "w_v") for q in ("weights", "bias")]


def test_checkpoint_corrupted_header(tmp_path):
    model = build_model(_config("ffnn", "pdf"), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    model = build_model(_config("lstm", "pdf"), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:int(len(blob) * 0.8)])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    model = build_model(_config("s2s", "pdf"), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 5)
    with pytest.raises(FormatError, match="5 bytes after the last parameter block"):
        load_checkpoint(path)


@pytest.mark.parametrize("text", [b"false", b"yes", b""])
def test_checkpoint_bool_is_true_or_false_only(tmp_path, text):
    model = build_model(_config("s2s", "pdf"), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert b"\ndecoder_nwp=False\n" in blob
    path.write_bytes(blob.replace(b"\ndecoder_nwp=False\n", b"\ndecoder_nwp=" + text + b"\n", 1))
    with pytest.raises(FormatError, match="'decoder_nwp' must be True or False"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    model = build_model(_config("ffnn", "pdf"), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes().replace(b"pvcast-checkpoint 1", b"pvcast-checkpoint 9", 1)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)
