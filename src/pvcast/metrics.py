"""Forecast evaluation: normalized mean error, normalized RMSE, the binned
CRPS, skill scores against the persistence reference, and multi-model
comparison reports."""

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import ContractError


def _check_p_max(p_max: float) -> None:
    # An infinite p_max would score every forecast 0, and NaN would pass a
    # plain `<= 0` test.
    if not (math.isfinite(p_max) and p_max > 0.0):
        raise ContractError(f"p_max must be positive and finite, got {p_max}")


def nme(f, p, p_max: float) -> float:
    """Mean absolute error normalized by horizon length and rated power."""
    f = np.asarray(f, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if f.shape != p.shape:
        raise ContractError(f"nme shape mismatch: {f.shape} vs {p.shape}")
    _check_p_max(p_max)
    return float(np.abs(f - p).sum() / (f.size * p_max))


def nrmse(f, p, p_max: float) -> float:
    """Normalized root mean square error, with the full 1/(T * p_max) factor
    outside the square root."""
    f = np.asarray(f, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if f.shape != p.shape:
        raise ContractError(f"nrmse shape mismatch: {f.shape} vs {p.shape}")
    _check_p_max(p_max)
    sq = float(((f - p) ** 2).sum())
    return math.sqrt(sq) / (f.size * p_max)


def crps(f, p) -> float:
    """Mean squared difference of the two binned cumulative distributions,
    averaged over bins and forecast steps."""
    f = np.atleast_2d(np.asarray(f, dtype=np.float64))
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    if f.shape != p.shape:
        raise ContractError(f"crps shape mismatch: {f.shape} vs {p.shape}")
    diff = np.cumsum(f, axis=-1) - np.cumsum(p, axis=-1)
    return float((diff * diff).sum() / f.size)


def skill(model_err: float, persistence_err: float) -> float:
    """Relative improvement over the persistence reference: 1 - err/ref."""
    if not (math.isfinite(persistence_err) and persistence_err > 0.0):
        raise ContractError(f"persistence error must be positive and finite, "
                            f"got {persistence_err}")
    return 1.0 - model_err / persistence_err


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EvalRow:
    model: str
    split: str
    nrmse: float
    nme: float
    crps: float | None
    s_nrmse: float | None
    s_crps: float | None
    n_samples: int


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def to_csv(self) -> str:
        lines = ["model,split,nrmse,nme,crps,s_nrmse,s_crps,n_samples"]
        for r in self.rows:
            cells = [r.model, r.split, f"{r.nrmse:.6f}", f"{r.nme:.6f}"]
            cells.append("" if r.crps is None else f"{r.crps:.6f}")
            cells.append("" if r.s_nrmse is None else f"{r.s_nrmse:.6f}")
            cells.append("" if r.s_crps is None else f"{r.s_crps:.6f}")
            cells.append(str(r.n_samples))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        headers = ["Model", "Split", "nRMSE", "nME", "CRPS", "S_nRMSE", "S_CRPS", "N"]
        table = [headers]
        for r in self.rows:
            table.append([
                r.model, r.split, f"{r.nrmse:.3f}", f"{r.nme:.3f}",
                "-" if r.crps is None else f"{r.crps:.3f}",
                "-" if r.s_nrmse is None else f"{r.s_nrmse:.3f}",
                "-" if r.s_crps is None else f"{r.s_crps:.3f}",
                str(r.n_samples),
            ])
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = []
        for j, row in enumerate(table):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def _mean_metrics(model, samples: list[Sample], p_max: float):
    """Per-window metrics averaged uniformly over the sample windows."""
    nrmses, nmes, crpss = [], [], []
    for sample, forecast in zip(samples, model.forward_samples(samples)):
        fe = forecast.expected * p_max
        pe = sample.target_e * p_max
        nrmses.append(nrmse(fe, pe, p_max))
        nmes.append(nme(fe, pe, p_max))
        if forecast.mode == "pdf":
            crpss.append(crps(forecast.steps, sample.target_pdf))
    return (float(np.mean(nrmses)), float(np.mean(nmes)),
            float(np.mean(crpss)) if crpss else None)


def evaluate(models: list, samples: list[Sample], p_max: float,
             split_name: str = "test") -> EvalReport:
    """Score every model on one split, with skills against persistence.

    The persistence row is the reference: its skill columns stay blank and
    exactly one persistence model must be present. A skill whose reference
    error is 0, as persistence scores on day-periodic data, stays blank too.
    """
    if not samples:
        raise ContractError("evaluate needs a nonempty sample list")
    reference = [m for m in models if m.config.family == "persistence"]
    if len(reference) != 1:
        raise ContractError("evaluate needs exactly one persistence model")
    ref_nrmse, ref_nme, ref_crps = _mean_metrics(reference[0], samples, p_max)

    rows = []
    for model in models:
        if model.config.family == "persistence":
            rows.append(EvalRow("Persistence", split_name, ref_nrmse, ref_nme,
                                ref_crps, None, None, len(samples)))
            continue
        m_nrmse, m_nme, m_crps = _mean_metrics(model, samples, p_max)
        s_n = skill(m_nrmse, ref_nrmse) if ref_nrmse else None
        s_c = skill(m_crps, ref_crps) if m_crps is not None and ref_crps else None
        rows.append(EvalRow(model.config.name, split_name, m_nrmse, m_nme,
                            m_crps, s_n, s_c, len(samples)))
    return EvalReport(rows)
