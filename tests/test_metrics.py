"""Metric formula tests, the published-benchmark arithmetic cross-checks,
and the multi-model report."""

import math

import numpy as np
import pytest

from pvcast import models as pvmodels
from pvcast.data import DAY, HOUR, RawNwpSeries, RawPvSeries, consolidate, make_samples
from pvcast.errors import ContractError
from pvcast.metrics import EvalReport, crps, evaluate, nme, nrmse, skill
from pvcast.models import Forecast, ModelConfig, build_model

P_MAX = 1000.0

# Published day-ahead PV benchmark table used as an arithmetic cross-check of
# the skill formula. Columns: nRMSE (val, test) and skill (val, test), all
# rounded to three decimals; the persistence row is the reference.
PERSISTENCE_NRMSE = {"val": 0.145, "test": 0.133}
PUBLISHED_SKILL_ROWS = [
    ("FFNN-E",       {"val": (0.078, 0.464), "test": (0.083, 0.376)}),
    ("FFNN-pdf",     {"val": (0.072, 0.501), "test": (0.074, 0.446)}),
    ("LSTM-E",       {"val": (0.073, 0.496), "test": (0.080, 0.395)}),
    ("LSTM-pdf",     {"val": (0.080, 0.450), "test": (0.087, 0.344)}),
    ("S2S-E",        {"val": (0.089, 0.388), "test": (0.100, 0.249)}),
    ("S2S-pdf",      {"val": (0.068, 0.529), "test": (0.072, 0.456)}),
    ("S2S-Attn-E",   {"val": (0.119, 0.184), "test": (0.121, 0.089)}),
    ("S2S-Attn-pdf", {"val": (0.067, 0.536), "test": (0.069, 0.481)}),
]


def test_nme_examples():
    f = np.full(24, 0.5)
    p = np.zeros(24)
    assert nme(p, p, 1.0) == 0.0
    assert nme(f, p, 1.0) == pytest.approx(0.5)
    assert nme(np.array([1.0, -1.0]), np.zeros(2), 2.0) == pytest.approx(0.5)


def test_nrmse_examples():
    p = np.zeros(4)
    f = np.full(4, 0.5)
    assert nrmse(p, p, 1.0) == 0.0
    assert nrmse(f, p, 1.0) == pytest.approx(0.25)  # sqrt(4*0.25)/4


def test_nrmse_scale_invariance():
    rng = np.random.default_rng(3)
    f, p = rng.uniform(0, 1, 24), rng.uniform(0, 1, 24)
    base = nrmse(f, p, 1.0)
    for c in (2.0, 10.0, 0.3):
        assert nrmse(c * f, c * p, c) == pytest.approx(base, rel=1e-12)


def test_nrmse_conventional_variant():
    # The conventional sqrt(sum / T) / p_max would give 0.5 here; the full
    # 1/T outside the root makes nrmse smaller by exactly sqrt(T).
    f, p = np.full(4, 0.5), np.zeros(4)
    assert nrmse(f, p, 1.0) == pytest.approx(0.5 / math.sqrt(4))


def test_crps_examples():
    point0 = np.zeros(2)
    point0[0] = 1.0
    point1 = np.zeros(2)
    point1[1] = 1.0
    assert crps(point0[None], point0[None]) == 0.0
    assert crps(point0[None], point1[None]) == pytest.approx(0.5)
    assert crps(point1[None], point0[None]) == pytest.approx(0.5)  # symmetric


def test_crps_nonnegative_random():
    rng = np.random.default_rng(8)
    f = rng.dirichlet(np.ones(50), size=24)
    p = rng.dirichlet(np.ones(50), size=24)
    assert crps(f, p) >= 0.0
    assert crps(f, f) == 0.0


def test_crps_refinement_of_point_masses():
    # Splitting every bin of both distributions into two equal halves turns a
    # point mass into two adjacent half masses. For point masses in bins a<b
    # the squared-cdf-difference sum is (b-a) before and 2(b-a)-1/2 after, so
    # with the doubled bin count the score becomes (2(b-a)-1/2)/(2*i_max*T).
    for a, b, bins in ((0, 1, 2), (2, 7, 10), (3, 40, 50)):
        f = np.zeros(bins)
        f[a] = 1.0
        p = np.zeros(bins)
        p[b] = 1.0
        old = crps(f[None], p[None])
        assert old == pytest.approx((b - a) / bins, rel=1e-12)
        f2 = np.repeat(f / 2.0, 2)
        p2 = np.repeat(p / 2.0, 2)
        new = crps(f2[None], p2[None])
        assert new == pytest.approx((2 * (b - a) - 0.5) / (2 * bins), rel=1e-12)


def test_skill_examples():
    assert skill(0.5, 0.5) == 0.0
    assert skill(0.069, 0.133) == pytest.approx(0.481, abs=2e-3)
    assert skill(0.937, 1.944) == pytest.approx(0.518, abs=2e-3)
    with pytest.raises(ContractError):
        skill(0.1, 0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_metrics_reject_a_reference_not_positive_and_finite(bad):
    # nrmse([1, 2], [0, 0], inf) read 0.0 and nme([1], [0], nan) read nan.
    with pytest.raises(ContractError, match="p_max must be positive and finite"):
        nrmse(np.array([1.0, 2.0]), np.zeros(2), bad)
    with pytest.raises(ContractError, match="p_max must be positive and finite"):
        nme(np.array([1.0]), np.zeros(1), bad)
    with pytest.raises(ContractError, match="persistence error must be positive and finite"):
        skill(0.1, bad)


def test_published_skill_table_consistent_with_rounding():
    # Each published skill was computed before the error columns were rounded
    # to three decimals. With half-ulp intervals around the rounded inputs,
    # every published skill must be achievable; this pins the formula without
    # inheriting the table's rounding noise.
    for name, cols in PUBLISHED_SKILL_ROWS:
        for split_name, (model_nrmse, published) in cols.items():
            ref = PERSISTENCE_NRMSE[split_name]
            lo = 1.0 - (model_nrmse + 5e-4) / (ref - 5e-4)
            hi = 1.0 - (model_nrmse - 5e-4) / (ref + 5e-4)
            assert lo - 5e-4 <= published <= hi + 5e-4, (
                f"{name} {split_name}: published {published} outside [{lo:.4f}, {hi:.4f}]")


def test_metric_contract_errors():
    with pytest.raises(ContractError):
        nme(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ContractError):
        nrmse(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ContractError):
        crps(np.zeros((1, 5)), np.zeros((1, 6)))


# ------------------------------------------------------------------ report ---


def _samples(periodic=False):
    """Windows over 8 days of noisy clear-sky PV; with `periodic`, one day's
    noise repeats every day, so yesterday's PV is exactly today's."""
    rng = np.random.default_rng(17)
    days = 8
    n = days * DAY
    minutes = np.arange(n, dtype=np.int64)
    mod = minutes % DAY
    env = np.clip(np.sin(np.pi * (mod - 6 * HOUR) / (12 * HOUR)), 0.0, None)
    noise = np.tile(rng.uniform(0.3, 1.0, DAY), days) if periodic else rng.uniform(0.3, 1.0, n)
    pv = RawPvSeries(minutes, P_MAX * env * noise, P_MAX)
    hours = HOUR * np.arange(days * 24, dtype=np.int64)
    chans = np.column_stack([np.full(hours.size, 10.0), np.full(hours.size, 101.0),
                             800 * np.clip(np.sin(np.pi * (hours % DAY - 6 * HOUR)
                                                  / (12 * HOUR)), 0, None),
                             np.full(hours.size, 3.0), np.full(hours.size, 50.0)])
    ds = consolidate(pv, RawNwpSeries(hours, chans))
    return make_samples(ds, stride_hours=24, input_steps=96)


class _PerfectModel:
    """Echoes the sample targets; used as an oracle row in report tests."""

    def __init__(self):
        self.config = ModelConfig(family="ffnn", target_mode="pdf", input_steps=96)

    def forward_samples(self, samples):
        return [Forecast("pdf", s.target_pdf.copy()) for s in samples]


def test_evaluate_perfect_model_scores_zero_and_skill_one():
    samples = _samples()
    persistence = build_model(ModelConfig(family="persistence", input_steps=96))
    report = evaluate([persistence, _PerfectModel()], samples, P_MAX, "val")
    ref, perfect = report.rows
    assert ref.model == "Persistence"
    assert ref.s_nrmse is None and ref.s_crps is None
    assert perfect.nrmse == pytest.approx(0.0, abs=1e-12)
    assert perfect.nme == pytest.approx(0.0, abs=1e-12)
    assert perfect.crps == pytest.approx(0.0, abs=1e-12)
    assert perfect.s_nrmse == pytest.approx(1.0)
    assert perfect.s_crps == pytest.approx(1.0)


def test_evaluate_leaves_skills_blank_against_a_perfect_persistence():
    samples = _samples(periodic=True)
    persistence = build_model(ModelConfig(family="persistence", input_steps=96))
    trained = build_model(ModelConfig(family="lstm", target_mode="expected",
                                      units_per_layer=4, input_steps=96), seed=9)
    report = evaluate([persistence, _PerfectModel(), trained], samples, P_MAX, "val")
    ref, perfect, e_row = report.rows
    assert ref.nrmse == 0.0 and ref.nme == 0.0 and ref.crps == 0.0
    assert perfect.nrmse == pytest.approx(0.0, abs=1e-12)
    assert e_row.nrmse > 0.0 and e_row.crps is None
    for row in report.rows:
        assert row.s_nrmse is None and row.s_crps is None
    for line in report.to_csv().splitlines()[1:]:
        assert line.split(",")[5:7] == ["", ""]
    with pytest.raises(ContractError, match="persistence error must be positive"):
        skill(e_row.nrmse, ref.nrmse)


def test_evaluate_requires_persistence():
    samples = _samples()
    with pytest.raises(ContractError):
        evaluate([_PerfectModel()], samples, P_MAX)


def test_evaluate_report_internal_consistency():
    samples = _samples()
    persistence = build_model(ModelConfig(family="persistence", input_steps=96))
    trained = build_model(ModelConfig(family="lstm", target_mode="pdf",
                                      units_per_layer=4, input_steps=96), seed=9)
    report = evaluate([persistence, trained], samples, P_MAX, "test")
    ref = report.rows[0]
    for row in report.rows[1:]:
        assert row.s_nrmse == pytest.approx(1.0 - row.nrmse / ref.nrmse, abs=1e-12)
        if row.crps is not None:
            assert row.s_crps == pytest.approx(1.0 - row.crps / ref.crps, abs=1e-12)


def test_evaluate_expected_mode_has_no_crps():
    samples = _samples()
    persistence = build_model(ModelConfig(family="persistence", input_steps=96))
    e_model = build_model(ModelConfig(family="ffnn", target_mode="expected",
                                      units_per_layer=4, input_steps=96), seed=2)
    report = evaluate([persistence, e_model], samples, P_MAX)
    row = report.rows[1]
    assert row.crps is None and row.s_crps is None
    csv_text = report.to_csv()
    assert "FFNN-E" in csv_text
    text = report.to_text()
    assert "-" in text.splitlines()[3]


def _per_window_rows(models, samples):
    """evaluate's report rows from a loop of one-window Model.forward calls,
    the reference for its batched path: (name, nrmse, nme, crps, s_nrmse,
    s_crps) per model, persistence first."""
    means = []
    for model in models:
        scores = []
        for sample in samples:
            forecast = model.forward(sample)
            fe, pe = forecast.expected * P_MAX, sample.target_e * P_MAX
            c = crps(forecast.steps, sample.target_pdf) if forecast.mode == "pdf" else None
            scores.append((nrmse(fe, pe, P_MAX), nme(fe, pe, P_MAX), c))
        crpss = [c for _, _, c in scores if c is not None]
        means.append((model.config.name, float(np.mean([s[0] for s in scores])),
                      float(np.mean([s[1] for s in scores])),
                      float(np.mean(crpss)) if crpss else None))
    _, ref_nrmse, _, ref_crps = means[0]
    rows = [means[0] + (None, None)]
    for name, m_nrmse, m_nme, m_crps in means[1:]:
        rows.append((name, m_nrmse, m_nme, m_crps, skill(m_nrmse, ref_nrmse),
                     None if m_crps is None else skill(m_crps, ref_crps)))
    return rows


BATCHED_EVAL_CONFIGS = [
    dict(family="s2s_attn", target_mode="pdf"),
    dict(family="s2s_attn", target_mode="expected"),
    dict(family="s2s", target_mode="pdf", decoder_nwp=True),
    dict(family="lstm", target_mode="pdf"),
    dict(family="ffnn", target_mode="expected"),
]


@pytest.mark.parametrize("n_windows", [1, 3, 4])
def test_batched_evaluate_matches_per_window_forward(monkeypatch, n_windows):
    samples = _samples()[:n_windows]
    assert len(samples) == n_windows
    models = [build_model(ModelConfig(family="persistence", input_steps=96))]
    models += [build_model(ModelConfig(units_per_layer=4, input_steps=96, **kw), seed=11)
               for kw in BATCHED_EVAL_CONFIGS]
    calls = {}
    for model in models[1:]:
        def counted(*args, _inner=model.forward_batch, _name=model.config, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        model.forward_batch = counted
    expected = _per_window_rows(models, samples)
    # At 4 units the default budget takes every window in one group; a
    # budget of two s2s_attn windows makes s2s_attn pairs, the last one
    # partial for odd n, and groups of 3 for the smaller windows of the
    # other families.
    attn_window = pvmodels._window_bytes(models[1].config)
    for budget_windows in (None, 2):
        if budget_windows is not None:
            monkeypatch.setattr(pvmodels, "_FORWARD_BYTES", budget_windows * attn_window)
        calls.clear()
        report = evaluate(models, samples, P_MAX, "test")
        groups = {m.config: pvmodels._forward_group(m.config) for m in models[1:]}
        if budget_windows is None:
            assert min(groups.values()) == 526
        else:
            assert list(groups.values()) == [2, 2, 3, 3, 3]
        # One forward_batch call per budget group.
        assert calls == {cfg: math.ceil(n_windows / g) for cfg, g in groups.items()}
        assert len(report.rows) == len(expected)
        for row, ref in zip(report.rows, expected):
            got = (row.model, row.nrmse, row.nme, row.crps, row.s_nrmse, row.s_crps)
            assert got[0] == ref[0]
            for a, b in zip(got[1:], ref[1:]):
                assert (a is None) == (b is None), row.model
                if a is not None:
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12), row.model
            assert row.n_samples == n_windows


def test_report_csv_layout():
    rows = EvalReport([])
    assert rows.to_csv().startswith("model,split,nrmse,nme,crps,s_nrmse,s_crps,n_samples")
