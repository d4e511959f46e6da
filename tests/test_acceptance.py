"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criterion 4 trains two models end to end and dominates the
runtime; every run is fully seeded and deterministic.
"""

import time

import numpy as np
import pytest

from pvcast import autodiff as ad
from pvcast import data
from pvcast.autodiff import Tensor
from pvcast.data import (HOUR, build_splits, consolidate, make_samples,
                         split, synth_generate)
from pvcast.layers import (AttentionLayer, DenseLayer, LstmLayer,
                           TemporalTransform, attend_projected, dense_forward,
                           lstm_step, temporal_transform)
from pvcast.metrics import crps, evaluate, nme, nrmse, skill
from pvcast.models import (ModelConfig, benchmark_config, build_model,
                           count_parameters, sample_arrays)
from pvcast.training import (TrainConfig, fit, kl_loss, load_checkpoint,
                             mse_loss, save_checkpoint)

from reference_ops import add, check_gradients, mul, reshape, sigmoid, sum_all

GRADCHECK_SEED = 42          # documented seed for every randomized gradient check
BENCH_DATA_SEED = 7          # documented seeds for the synthetic skill benchmark
BENCH_SPLIT_SEED = 54
BENCH_TRAIN_SEED_PDF = 5
BENCH_TRAIN_SEED_E = 6
BENCH_MAX_EPOCHS = 120

P_MAX = 5000.0


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {state}{suffix}")


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    started = time.time()
    rng = np.random.default_rng(GRADCHECK_SEED)
    worst = {}

    dense = DenseLayer(4, 3, activation="tanh", rng=rng)
    x = rng.normal(size=(2, 4))
    mix = rng.normal(size=(2, 3))
    worst["dense"] = check_gradients(
        lambda: sum_all(mul(dense_forward(dense, Tensor(x)), Tensor(mix))),
        [p for _, p in dense.parameters()])

    lstm = LstmLayer(3, 2, rng=rng)
    xl = rng.normal(size=(1, 3))

    def lstm_loss():
        h, c = lstm.initial_state(1)
        h2, c2 = lstm_step(lstm, Tensor(xl), (h, c))
        return add(sum_all(mul(h2, h2)), sum_all(c2))

    worst["lstm"] = check_gradients(lstm_loss, [p for _, p in lstm.parameters()])

    attn = AttentionLayer(3, 3, 3, width=2, rng=rng)
    q = rng.normal(size=(2, 3))
    kv = rng.normal(size=(4, 3))
    mix_a = rng.normal(size=(2, 2))
    kv_rows = np.broadcast_to(kv, (2,) + kv.shape)  # one key/value sequence per query
    # The read inside an LSTM step whose query (step input, h) is q; the
    # cell draws from its own generator, so the later checks' inputs stay.
    reader = LstmLayer(2 + 1, 2, rng=np.random.default_rng(GRADCHECK_SEED))

    def attention_loss():
        keys_values = attn.project_keys_values(Tensor(kv_rows), Tensor(kv_rows))
        h, _ = lstm_step(reader, Tensor(q[:, :1]), (Tensor(q[:, 1:]), Tensor(np.zeros((2, 2)))),
                         attend_projected(attn, keys_values))
        return sum_all(mul(h, Tensor(mix_a)))

    worst["attention"] = check_gradients(
        attention_loss, [p for _, p in attn.parameters() + reader.parameters()])

    tt = TemporalTransform(8, 3, 2, out_steps=24, rng=rng)
    xt = rng.normal(size=(8, 3))
    mix_t = rng.normal(size=(24, 2))
    worst["temporal"] = check_gradients(
        lambda: sum_all(mul(temporal_transform(tt, Tensor(xt)),
                                  Tensor(mix_t))),
        [p for _, p in tt.parameters()])

    logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    p_kl = rng.dirichlet(np.ones(5), size=3)
    worst["kl_loss"] = check_gradients(lambda: kl_loss(ad.softmax(logits), p_kl),
                                       [logits])

    pred = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    p_mse = rng.uniform(0, 1, size=(4, 1))
    worst["mse_loss"] = check_gradients(lambda: mse_loss(sigmoid(pred), p_mse),
                                        [pred])

    # Full graph: attention encoder-decoder with binned output and KL loss.
    cfg = ModelConfig(family="s2s_attn", target_mode="pdf", units_per_layer=4,
                      input_steps=8, output_steps=3, bins=5)
    model = build_model(cfg, seed=GRADCHECK_SEED)
    inputs = rng.uniform(0, 1, (1, 8, 6))
    p0 = rng.dirichlet(np.ones(5))[None]
    teacher = rng.dirichlet(np.ones(5), size=3)[None]

    def graph_loss():
        outs = model.forward_batch(inputs, p0, teacher, "teacher_forcing")
        return kl_loss(reshape(outs, outs.shape[1:]), teacher[0])

    worst["full_s2s_attn_pdf"] = check_gradients(
        graph_loss, [p for _, p in model.parameters()])

    elapsed = time.time() - started
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 120.0
    _report("criterion 1 (gradient suite)", ok,
            f"max rel err {peak:.2e} over {list(worst)} in {elapsed:.0f}s, "
            f"seed {GRADCHECK_SEED}")
    assert peak < 1e-4, worst
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion 2: metric golden tests
# ---------------------------------------------------------------------------

PUBLISHED_PERSISTENCE = {"val": 0.145, "test": 0.133}
PUBLISHED_ROWS = [
    ("FFNN-E",       "val", 0.078, 0.464), ("FFNN-E",       "test", 0.083, 0.376),
    ("FFNN-pdf",     "val", 0.072, 0.501), ("FFNN-pdf",     "test", 0.074, 0.446),
    ("LSTM-E",       "val", 0.073, 0.496), ("LSTM-E",       "test", 0.080, 0.395),
    ("LSTM-pdf",     "val", 0.080, 0.450), ("LSTM-pdf",     "test", 0.087, 0.344),
    ("S2S-E",        "val", 0.089, 0.388), ("S2S-E",        "test", 0.100, 0.249),
    ("S2S-pdf",      "val", 0.068, 0.529), ("S2S-pdf",      "test", 0.072, 0.456),
    ("S2S-Attn-E",   "val", 0.119, 0.184), ("S2S-Attn-E",   "test", 0.121, 0.089),
    ("S2S-Attn-pdf", "val", 0.067, 0.536), ("S2S-Attn-pdf", "test", 0.069, 0.481),
]


def test_criterion_2a_metric_hand_examples():
    started = time.time()
    checks = [
        nme(np.full(24, 0.5), np.zeros(24), 1.0) == pytest.approx(0.5),
        nme(np.array([1.0, -1.0]), np.zeros(2), 2.0) == pytest.approx(0.5),
        nrmse(np.full(4, 0.5), np.zeros(4), 1.0) == pytest.approx(0.25),
        crps(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(0.5),
        skill(0.5, 0.5) == 0.0,
        skill(0.069, 0.133) == pytest.approx(0.481, abs=2e-3),
        skill(0.937, 1.944) == pytest.approx(0.518, abs=2e-3),
    ]
    ok = all(checks) and (time.time() - started) < 1.0
    _report("criterion 2a (metric hand examples)", ok)
    assert all(checks)


def test_criterion_2b_published_skill_table_point_tolerance():
    """Recompute every published skill from the published error pair at the
    pinned +-0.002 point tolerance.

    The published skills were computed from unrounded errors, so recomputing
    them from the 3-decimal table entries carries rounding noise up to about
    +-0.005; four of the 16 entries therefore sit outside +-0.002 and this
    check is expected to fail. It is kept at the pinned tolerance on purpose
    rather than being loosened; the rounding-interval companion test in
    tests/test_metrics.py shows the formula itself reproduces all 16 entries.
    """
    started = time.time()
    misses = []
    for name, split_name, model_nrmse, published in PUBLISHED_ROWS:
        recomputed = skill(model_nrmse, PUBLISHED_PERSISTENCE[split_name])
        if abs(recomputed - published) > 2e-3:
            misses.append(f"{name}/{split_name}: recomputed {recomputed:.4f} "
                          f"vs published {published:.3f}")
    ok = not misses and (time.time() - started) < 1.0
    _report("criterion 2b (published skill table, +-0.002)", ok,
            f"{len(misses)} of 16 entries outside tolerance")
    assert not misses, (
        "published-table rounding exceeds the pinned +-0.002 tolerance:\n  "
        + "\n  ".join(misses))


# ---------------------------------------------------------------------------
# Criterion 3: parameter budget parity
# ---------------------------------------------------------------------------

BUDGET_TABLE = {
    ("ffnn", "expected"): (428_000, 0.03),
    ("ffnn", "pdf"): (428_000, 0.03),
    ("lstm", "expected"): (425_000, 0.03),
    ("lstm", "pdf"): (434_000, 0.03),
    ("s2s", "expected"): (425_000, 0.03),
    ("s2s", "pdf"): (431_000, 0.03),
    ("s2s_attn", "expected"): (441_000, 0.10),
    ("s2s_attn", "pdf"): (423_000, 0.10),
}


def test_criterion_3_parameter_budgets():
    started = time.time()
    failures = []
    for (family, mode), (target, tol) in sorted(BUDGET_TABLE.items()):
        count = count_parameters(build_model(benchmark_config(family, mode), seed=0))
        deviation = abs(count - target) / target
        if deviation > tol:
            failures.append(f"{family}-{mode}: {count} vs ~{target} "
                            f"({100 * deviation:.1f}% > {100 * tol:.0f}%)")
    elapsed = time.time() - started
    ok = not failures and elapsed < 1.0
    _report("criterion 3 (parameter budgets)", ok, f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 4: synthetic skill benchmark
# ---------------------------------------------------------------------------


def test_criterion_4_synthetic_skill_benchmark():
    started = time.time()
    pv, nwp = synth_generate(180, seed=BENCH_DATA_SEED, p_max=P_MAX)
    prepared = build_splits(pv, nwp, stride_hours=24, input_steps=192,
                            seed=BENCH_SPLIT_SEED)
    splits = prepared.splits
    assert splits.val and splits.test

    models = [build_model(ModelConfig(family="persistence", input_steps=192))]
    for mode, seed in (("pdf", BENCH_TRAIN_SEED_PDF), ("expected", BENCH_TRAIN_SEED_E)):
        cfg = ModelConfig(family="s2s_attn", target_mode=mode, units_per_layer=32,
                          input_steps=192)
        model = build_model(cfg, seed=seed)
        fit(model, splits.train, splits.val,
            TrainConfig(batch_size=32, max_epochs=BENCH_MAX_EPOCHS, patience=15,
                        seed=seed))
        models.append(model)

    report = evaluate(models, splits.test, P_MAX, "test")
    rows = {r.model: r for r in report.rows}
    s_pdf = rows["S2S-Attn-pdf"].s_nrmse
    s_e = rows["S2S-Attn-E"].s_nrmse
    elapsed = time.time() - started
    ok = s_pdf >= 0.10 and s_pdf >= s_e and elapsed < 45 * 60
    _report("criterion 4 (synthetic skill benchmark)", ok,
            f"S_nRMSE pdf {s_pdf:+.3f} vs E {s_e:+.3f}, "
            f"{len(splits.test)} test windows, {elapsed:.0f}s, seeds "
            f"data={BENCH_DATA_SEED} split={BENCH_SPLIT_SEED} "
            f"train={BENCH_TRAIN_SEED_PDF}/{BENCH_TRAIN_SEED_E}")
    print(report.to_text())
    assert s_pdf >= 0.10
    assert s_pdf >= s_e
    assert elapsed < 45 * 60


# ---------------------------------------------------------------------------
# Criterion 5: probabilistic validity
# ---------------------------------------------------------------------------


def test_criterion_5_probabilistic_validity():
    started = time.time()
    rng = np.random.default_rng(GRADCHECK_SEED)
    forecasts = 0
    for family in ("ffnn", "lstm", "s2s", "s2s_attn"):
        cfg = ModelConfig(family=family, target_mode="pdf", units_per_layer=6,
                          input_steps=32)
        model = build_model(cfg, seed=int(rng.integers(1 << 31)))
        batch = 250
        inputs = rng.uniform(0, 1, (batch, 32, 6))
        p0 = rng.dirichlet(np.ones(50), size=batch)
        outs = model.forward_batch(inputs, p0, None, "self_recurrent").data
        assert outs.shape == (batch, cfg.output_steps, cfg.bins)
        assert np.all(outs >= 0.0)
        assert np.all(np.abs(outs.sum(axis=-1) - 1.0) < 1e-9)
        forecasts += batch

    for _ in range(100):
        f = rng.dirichlet(np.ones(50), size=24)
        p = rng.dirichlet(np.ones(50), size=24)
        assert kl_loss(f, p).item() >= -1e-12
        assert crps(f, p) >= 0.0
        assert kl_loss(p.copy(), p).item() == pytest.approx(0.0, abs=1e-12)
        assert crps(p, p) == 0.0

    elapsed = time.time() - started
    ok = forecasts == 1000 and elapsed < 60.0
    _report("criterion 5 (probabilistic validity)", ok,
            f"{forecasts} forecasts, {elapsed:.0f}s")
    assert forecasts == 1000
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 6: pipeline invariants
# ---------------------------------------------------------------------------


def test_criterion_6_pipeline_invariants(tmp_path):
    started = time.time()

    # Consolidation conserves energy per hour (1e-9 relative).
    pv, nwp = synth_generate(10, seed=3, p_max=P_MAX)
    ds = consolidate(pv, nwp)
    pv15 = data._build_grid(pv, nwp, bins=50)[1][:, 5]  # what ds normalizes
    per_hour_15 = pv15.reshape(-1, 4).sum(axis=1) * 15.0
    per_hour_1 = pv.power[:ds.n_hours * HOUR].reshape(-1, HOUR).sum(axis=1)
    scale = np.maximum(np.abs(per_hour_1), 1.0)
    energy_ok = bool(np.all(np.abs(per_hour_15 - per_hour_1) / scale < 1e-9))

    # Split determinism and zero cross-split overlap after discard.
    samples = make_samples(ds, stride_hours=24, input_steps=96)
    r1, r2 = split(samples, seed=9), split(samples, seed=9)
    det_ok = all([a.anchor for a in p1] == [b.anchor for b in p2]
                 for p1, p2 in zip(r1, r2))
    overlap_ok = True
    parts = [r1.train, r1.val, r1.test]
    for i, part_a in enumerate(parts):
        for part_b in parts[i + 1:]:
            for a in part_a:
                for b in part_b:
                    sa, tb = a.input_span(), b.target_span()
                    sb, ta = b.input_span(), a.target_span()
                    if (sa[0] < tb[1] and tb[0] < sa[1]) or \
                       (sb[0] < ta[1] and ta[0] < sb[1]):
                        overlap_ok = False

    # Checkpoint round-trip is bitwise lossless.
    model = build_model(ModelConfig(family="s2s_attn", target_mode="pdf",
                                    units_per_layer=4, input_steps=96), seed=8)
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    ckpt_ok = all(np.array_equal(pa.data, pb.data)
                  for (_, pa), (_, pb) in zip(model.parameters(), loaded.parameters()))

    # End-to-end run determinism: same seeds, same bytes.
    prep = build_splits(pv, nwp, stride_hours=24, input_steps=96, seed=4)

    def train_once(path):
        m = build_model(ModelConfig(family="s2s", target_mode="pdf",
                                    units_per_layer=4, input_steps=96), seed=2)
        fit(m, prep.splits.train, prep.splits.val or prep.splits.test,
            TrainConfig(batch_size=4, max_epochs=3, patience=5, seed=6))
        save_checkpoint(m, path)

    train_once(tmp_path / "a.ckpt")
    train_once(tmp_path / "b.ckpt")
    e2e_ok = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    pv2, nwp2 = synth_generate(10, seed=3, p_max=P_MAX)
    gen_ok = np.array_equal(pv.power, pv2.power) and np.array_equal(
        nwp.channels, nwp2.channels)

    elapsed = time.time() - started
    ok = all([energy_ok, det_ok, overlap_ok, ckpt_ok, e2e_ok, gen_ok]) and elapsed < 300
    _report("criterion 6 (pipeline invariants)", ok,
            f"energy={energy_ok} split_det={det_ok} overlap={overlap_ok} "
            f"ckpt={ckpt_ok} e2e={e2e_ok} gen={gen_ok}, {elapsed:.0f}s")
    assert energy_ok and det_ok and overlap_ok and ckpt_ok and e2e_ok and gen_ok
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 7: decoding-mode contract
# ---------------------------------------------------------------------------


def _decoder_reads_only_the_teacher(model, samples) -> bool:
    """Teacher-forced step k+1 reads teacher row k: changing that row keeps
    steps 0..k bitwise and moves step k+1, and the self-recurrent feedback,
    fed back as the teacher, replays the self-recurrent forecast bitwise."""
    inputs, p0, teacher, _ = sample_arrays(samples, model.config)
    forced = model.forward_batch(inputs, p0, teacher, "teacher_forcing").data
    ok = True
    for k in range(teacher.shape[1] - 1):
        changed = teacher.copy()
        changed[:, k] = np.where(teacher[:, k] > 0.5, 0.0, 1.0)
        out = model.forward_batch(inputs, p0, changed, "teacher_forcing").data
        ok = ok and np.array_equal(out[:, :k + 1], forced[:, :k + 1]) and all(
            not np.array_equal(a, b) for a, b in zip(out[:, k + 1], forced[:, k + 1]))
    recurrent = model.forward_batch(inputs, p0, None, "self_recurrent").data
    feedback = recurrent if model.config.target_mode == "pdf" else np.clip(recurrent, 0, 1)
    replay = model.forward_batch(inputs, p0, feedback, "teacher_forcing").data
    return ok and np.array_equal(replay, recurrent)


def test_criterion_7_mode_contract():
    started = time.time()
    pv, nwp = synth_generate(10, seed=5, p_max=P_MAX)
    prep = build_splits(pv, nwp, stride_hours=24, input_steps=96, seed=4)
    sample = prep.splits.train[0]

    step1_ok = True
    tf_ok = True
    for family in ("s2s", "s2s_attn"):
        for mode in ("pdf", "expected"):
            model = build_model(ModelConfig(family=family, target_mode=mode,
                                            units_per_layer=5, input_steps=96),
                                seed=3)
            teacher = model.forward(sample, mode="teacher_forcing")
            recurrent = model.forward(sample, mode="self_recurrent")
            if not np.array_equal(np.atleast_1d(teacher.steps[0]),
                                  np.atleast_1d(recurrent.steps[0])):
                step1_ok = False
            tf_ok = tf_ok and _decoder_reads_only_the_teacher(model, prep.splits.train[:2])

    # Every taped forward pass of a fit is teacher-forced on its batch's own
    # target rows.
    train = prep.splits.train
    model = build_model(ModelConfig(family="s2s_attn", target_mode="pdf",
                                    units_per_layer=5, input_steps=96), seed=3)
    inner, taped = model.forward_batch, []

    def spy(inputs, p0, teacher, mode, nwp_ahead=None):
        if ad._active_tape() is not None:
            taped.append(mode == "teacher_forcing" and all(
                any(np.array_equal(s.input, x) and np.array_equal(s.target_pdf, y)
                    for s in train) for x, y in zip(inputs, teacher)))
        return inner(inputs, p0, teacher, mode, nwp_ahead)

    model.forward_batch = spy
    fit(model, train, prep.splits.val or prep.splits.test,
        TrainConfig(batch_size=8, max_epochs=1, patience=5, seed=1))
    tf_ok = tf_ok and len(taped) == -(-len(train) // 8) and all(taped)

    elapsed = time.time() - started
    ok = step1_ok and tf_ok
    _report("criterion 7 (mode contract)", ok,
            f"step1_bitwise={step1_ok} teacher_forcing_pure={tf_ok}, {elapsed:.0f}s")
    assert step1_ok
    assert tf_ok
