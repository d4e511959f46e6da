"""Loss functions, the teacher-forced training loop with early stopping on
validation error, and checkpoint serialization."""

import logging
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import SgdNesterov, Tape, Tensor, backward
from .data import Sample, expected_value
from .errors import ConfigError, ContractError, FormatError, NumericsError, TrainingError
from .metrics import nrmse
from .models import Forecast, Model, ModelConfig, build_model, sample_arrays

log = logging.getLogger("pvcast")

CHECKPOINT_MAGIC = "pvcast-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    learning_rate: float = 0.003
    momentum: float = 0.75
    batch_size: int = 128
    patience: int = 15
    max_epochs: int = 500
    seed: int = 0
    loss: str | None = None          # derived from the model's target mode
    epsilon_floor: float = 1e-9
    clip_norm: float | None = None   # off unless explicitly set

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epsilon_floor <= 0.0:
            raise ConfigError("epsilon_floor must be positive")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.loss not in (None, "kl", "mse"):
            raise ConfigError(f"unknown loss '{self.loss}'")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_nrmse: list[float] = field(default_factory=list)
    best_epoch: int = 0          # 1-based index into the epoch lists
    stop_reason: str = ""
    seconds: float = 0.0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_nrmse"]
        for i, (tl, vn) in enumerate(zip(self.train_loss, self.val_nrmse), start=1):
            lines.append(f"{i},{tl:.10g},{vn:.10g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _step_tensors(f) -> list[Tensor]:
    """Normalize a forecast-like argument to one tensor per step."""
    if isinstance(f, Forecast):
        f = f.steps
    if isinstance(f, (list, tuple)) and f and isinstance(f[0], Tensor):
        return list(f)
    arr = f if isinstance(f, Tensor) else Tensor(np.asarray(f, dtype=np.float64))
    if arr.data.ndim == 1:
        arr = ad.reshape(arr, (arr.shape[0], 1))
    return [ad.reshape(ad.slice_axis(arr, 0, t, t + 1), arr.shape[1:])
            for t in range(arr.shape[0])]


def kl_loss(f, p, epsilon_floor: float = 1e-9) -> Tensor:
    """Summed KL divergence of the target from the forecast over all steps.

    Terms with zero target probability contribute nothing; the forecast is
    clamped to epsilon_floor inside the logarithm only, so it stays a valid
    distribution while the loss remains finite and differentiable.
    """
    steps = _step_tensors(f)
    targets = np.asarray(p, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[None]
    if len(steps) != targets.shape[0] or steps[0].shape[-1] != targets.shape[-1]:
        raise ContractError(
            f"kl_loss shape mismatch: forecast {len(steps)}x{steps[0].shape[-1]}, "
            f"targets {targets.shape}")
    total = None
    plogp = 0.0
    for t, out in enumerate(steps):
        pt = targets[t]
        safe = np.where(pt > 0.0, pt, 1.0)
        plogp += float((pt * np.log(safe)).sum())
        term = ad.sum_all(ad.mul(Tensor(pt), ad.clamped_log(out, epsilon_floor)))
        total = term if total is None else ad.add(total, term)
    return ad.add(ad.scale(total, -1.0), Tensor(plogp))


def mse_loss(f, p) -> Tensor:
    """Mean squared error over the forecast steps."""
    steps = _step_tensors(f)
    targets = np.asarray(p, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    if len(steps) != targets.shape[0]:
        raise ContractError(
            f"mse_loss shape mismatch: forecast {len(steps)} steps, targets {targets.shape}")
    total = None
    for t, out in enumerate(steps):
        diff = ad.sub(out, Tensor(targets[t]))
        term = ad.sum_all(ad.mul(diff, diff))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / len(steps))


def _batch_loss(kind: str, outputs: list[Tensor], teacher: np.ndarray,
                epsilon_floor: float) -> Tensor:
    """Per-sample loss averaged over the batch, on batched step tensors."""
    batch = outputs[0].shape[0]
    total = None
    plogp = 0.0
    for t, out in enumerate(outputs):
        target_t = teacher[:, t]
        if kind == "kl":
            safe = np.where(target_t > 0.0, target_t, 1.0)
            plogp += float((target_t * np.log(safe)).sum())
            term = ad.sum_all(ad.mul(Tensor(target_t), ad.clamped_log(out, epsilon_floor)))
        else:
            diff = ad.sub(out, Tensor(target_t))
            term = ad.sum_all(ad.mul(diff, diff))
        total = term if total is None else ad.add(total, term)
    if kind == "kl":
        return ad.scale(ad.add(ad.scale(total, -1.0), Tensor(plogp)), 1.0 / batch)
    return ad.scale(total, 1.0 / (len(outputs) * batch))


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


def _forecast_expected(outputs: list[Tensor], cfg: ModelConfig) -> np.ndarray:
    """(batch, steps) expected values from batched step outputs."""
    cols = []
    for out in outputs:
        if cfg.target_mode == "pdf":
            cols.append(expected_value(out.data))
        else:
            cols.append(np.clip(out.data[:, 0], 0.0, 1.0))
    return np.stack(cols, axis=1)


def validation_nrmse(model: Model, samples: list[Sample]) -> float:
    """Mean per-window nRMSE of self-recurrent forecasts, in normalized power."""
    cfg = model.config
    inputs, p0, _, target_e, nwp = sample_arrays(samples, cfg)
    outputs = model.forward_batch(inputs, p0, None, "self_recurrent", nwp)
    forecast_e = _forecast_expected(outputs, cfg)
    scores = [nrmse(forecast_e[i], target_e[i], 1.0) for i in range(len(samples))]
    return float(np.mean(scores))


def _snapshot(model: Model) -> list[np.ndarray]:
    return [p.data.copy() for _, p in model.parameters()]


def _restore(model: Model, snapshot: list[np.ndarray]) -> None:
    for (_, p), data in zip(model.parameters(), snapshot):
        p.data[...] = data


def fit(model: Model, train_samples: list[Sample], val_samples: list[Sample],
        cfg: TrainConfig, input_log: list | None = None) -> TrainReport:
    """Teacher-forced mini-batch training with early stopping.

    After each epoch the model is evaluated self-recurrently on the
    validation split; training stops once that error has not improved for
    `patience` epochs (or at max_epochs) and the best-epoch weights are
    restored.
    """
    if not train_samples or not val_samples:
        raise ContractError("fit needs nonempty train and validation splits")
    mcfg = model.config
    loss_kind = "kl" if mcfg.target_mode == "pdf" else "mse"
    if cfg.loss is not None and cfg.loss != loss_kind:
        raise ConfigError(
            f"loss '{cfg.loss}' conflicts with target mode '{mcfg.target_mode}'")

    inputs, p0, teacher, _, nwp = sample_arrays(train_samples, mcfg)
    params = [p for _, p in model.parameters()]
    optimizer = SgdNesterov(params, cfg.learning_rate, cfg.momentum)
    rng = np.random.default_rng(cfg.seed)

    report = TrainReport()
    best_val = np.inf
    best_snapshot = _snapshot(model)
    bad_epochs = 0
    started = time.time()

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        for b0 in range(0, len(order), cfg.batch_size):
            idx = order[b0:b0 + cfg.batch_size]
            batch_index = b0 // cfg.batch_size
            try:
                with Tape() as tape:
                    outputs = model.forward_batch(
                        inputs[idx], p0[idx], teacher[idx], "teacher_forcing",
                        nwp[idx] if nwp is not None else None, input_log)
                    loss = _batch_loss(loss_kind, outputs, teacher[idx], cfg.epsilon_floor)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericsError("loss is not finite")
                backward(tape, loss)
            except NumericsError as exc:
                raise TrainingError(
                    f"divergence at epoch {epoch}, batch {batch_index}: {exc}") from exc
            if cfg.clip_norm is not None:
                norm = ad.clip_gradient_norm(params, cfg.clip_norm)
                if norm > cfg.clip_norm:
                    log.info("clipped gradient norm %.3g at epoch %d batch %d",
                             norm, epoch, batch_index)
            optimizer.step()
            optimizer.zero_grad()
            epoch_loss += value * len(idx)
        report.train_loss.append(epoch_loss / len(order))

        try:
            val = validation_nrmse(model, val_samples)
        except NumericsError as exc:
            raise TrainingError(
                f"divergence at epoch {epoch} during validation: {exc}") from exc
        report.val_nrmse.append(val)
        if val < best_val:
            best_val = val
            report.best_epoch = epoch
            best_snapshot = _snapshot(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience:
            report.stop_reason = "early_stop"
            break
    else:
        report.stop_reason = "max_epochs"

    _restore(model, best_snapshot)
    report.seconds = time.time() - started
    return report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = [f.name for f in fields(ModelConfig)]


def save_checkpoint(model: Model, path) -> None:
    """Self-describing container: text header, then named float64 blocks."""
    with open(path, "wb") as fh:
        header = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
        for name in _CONFIG_FIELDS:
            header.append(f"{name}={getattr(model.config, name)}")
        params = model.parameters()
        header.append(f"params {len(params)}")
        fh.write(("\n".join(header) + "\n").encode())
        for name, p in params:
            shape = ",".join(str(d) for d in p.data.shape)
            fh.write(f"{name} {shape}\n".encode())
            fh.write(p.data.astype("<f8").tobytes())


def _parse_config(pairs: dict[str, str]) -> ModelConfig:
    kwargs = {}
    for name in _CONFIG_FIELDS:
        if name not in pairs:
            raise FormatError(f"checkpoint header missing '{name}'")
        raw = pairs[name]
        kind = ModelConfig.__dataclass_fields__[name].type
        if kind in (bool, "bool"):
            kwargs[name] = raw == "True"
        elif kind in (int, "int"):
            kwargs[name] = int(raw)
        else:
            kwargs[name] = raw
    return ModelConfig(**kwargs)


def load_checkpoint(path) -> Model:
    """Rebuild a model with bitwise-identical parameters from disk."""
    with open(path, "rb") as fh:
        line = fh.readline().decode(errors="replace").strip()
        parts = line.split()
        if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC:
            raise FormatError(f"not a checkpoint file: '{line[:40]}'")
        if parts[1] != str(CHECKPOINT_VERSION):
            raise FormatError(f"unsupported checkpoint version '{parts[1]}'")
        pairs = {}
        while True:
            line = fh.readline().decode(errors="replace").strip()
            if not line:
                raise FormatError("checkpoint header ended unexpectedly")
            if line.startswith("params "):
                try:
                    n_params = int(line.split()[1])
                except (IndexError, ValueError):
                    raise FormatError(f"bad params line '{line}'") from None
                break
            if "=" not in line:
                raise FormatError(f"bad header line '{line}'")
            key, _, value = line.partition("=")
            pairs[key] = value
        try:
            config = _parse_config(pairs)
        except (ConfigError, ValueError) as exc:
            raise FormatError(f"invalid checkpoint config: {exc}") from exc

        blocks = []
        for _ in range(n_params):
            line = fh.readline().decode(errors="replace").strip()
            try:
                name, shape_text = line.rsplit(" ", 1)
                shape = tuple(int(d) for d in shape_text.split(","))
            except ValueError:
                raise FormatError(f"bad parameter block header '{line}'") from None
            count = int(np.prod(shape))
            payload = fh.read(count * 8)
            if len(payload) != count * 8:
                raise FormatError(f"truncated payload for parameter '{name}'")
            blocks.append((name, np.frombuffer(payload, dtype="<f8").reshape(shape)))

    model = build_model(config, seed=0)
    params = model.parameters()
    if len(params) != len(blocks):
        raise FormatError(f"expected {len(params)} parameter blocks, found {len(blocks)}")
    for (name, p), (bname, data) in zip(params, blocks):
        if name != bname or p.data.shape != data.shape:
            raise FormatError(f"parameter mismatch: '{name}' vs '{bname}' {data.shape}")
        p.data[...] = data
    return model
