"""Loss functions, the teacher-forced training loop with early stopping on
validation error, and checkpoint serialization."""

import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import SgdNesterov, Tape, Tensor, backward
from .data import Sample
from .errors import ConfigError, ContractError, FormatError, NumericsError, TrainingError
from .metrics import nrmse
from .models import Forecast, Model, ModelConfig, build_model, sample_arrays

log = logging.getLogger("pvcast")

CHECKPOINT_MAGIC = "pvcast-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.003
    momentum: float = 0.75
    batch_size: int = 128
    patience: int = 15
    max_epochs: int = 500
    seed: int = 0
    epsilon_floor: float = 1e-9
    clip_norm: float | None = None   # off unless explicitly set

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name, value in (("learning_rate", self.learning_rate),
                            ("epsilon_floor", self.epsilon_floor)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ConfigError(f"clip_norm must be positive (or unset to turn clipping "
                              f"off), got {self.clip_norm}")


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


def _steps(shape: tuple) -> tuple:
    """A forecast-like shape as (steps, width); (steps,) has width 1."""
    return shape + (1,) if len(shape) == 1 else shape


def _summed_loss(kind: str, f, p, epsilon_floor: float = 1e-9) -> Tensor:
    """The loss of a forecast-like f (a Forecast, tensor or array) against
    targets p of the same (steps, width) shape; a (steps,) argument has width
    1. mse is averaged over the steps, kl is summed."""
    out = ad.as_tensor(f.steps if isinstance(f, Forecast) else f)
    target = ad.as_tensor(p.steps if isinstance(p, Forecast) else p).data
    if _steps(target.shape) == _steps(out.shape):
        target = target.reshape(out.shape)
    factor = 1.0 / out.shape[0] if kind == "mse" else 1.0
    return ad.summed_loss(kind, out, target, epsilon_floor, factor)


def kl_loss(f, p, epsilon_floor: float = 1e-9) -> Tensor:
    """Summed KL divergence of the target from the forecast over all steps;
    the forecast is clamped to epsilon_floor inside the logarithm only."""
    return _summed_loss("kl", f, p, epsilon_floor)


def mse_loss(f, p) -> Tensor:
    """Mean squared error over the forecast steps."""
    return _summed_loss("mse", f, p)


def _batch_loss(kind: str, outputs: Tensor, teacher: np.ndarray,
                epsilon_floor: float) -> Tensor:
    """Per-sample loss averaged over the batch (and, for mse, the steps), on
    forward_batch's (batch, steps, width) output."""
    batch, steps = outputs.shape[:2]
    factor = 1.0 / batch if kind == "kl" else 1.0 / (steps * batch)
    return ad.summed_loss(kind, outputs, teacher, epsilon_floor, factor)


# ---------------------------------------------------------------------------
# Fit loop
# ---------------------------------------------------------------------------


def validation_nrmse(model: Model, samples: list[Sample]) -> float:
    """Mean per-window nRMSE of self-recurrent forecasts, in normalized power."""
    if not samples:
        raise ContractError("validation needs a nonempty sample list")
    forecasts = model.forward_samples(samples)
    scores = [nrmse(f.expected, s.target_e, 1.0) for f, s in zip(forecasts, samples)]
    return float(np.mean(scores))


def _snapshot(model: Model) -> list[np.ndarray]:
    return [p.data.copy() for _, p in model.parameters()]


def _restore(model: Model, snapshot: list[np.ndarray]) -> None:
    for (_, p), data in zip(model.parameters(), snapshot):
        p.data[...] = data


def fit(model: Model, train_samples: list[Sample], val_samples: list[Sample],
        cfg: TrainConfig) -> TrainReport:
    """Teacher-forced mini-batch training with early stopping.

    Each batch is stacked from its own samples, so no copy of the train split
    is held. After each epoch the model is evaluated self-recurrently on the
    validation split; training stops once that error has not improved for
    `patience` epochs (or at max_epochs) and the best-epoch weights are
    restored.
    """
    if not train_samples or not val_samples:
        raise ContractError("fit needs nonempty train and validation splits")
    if any(s.target_pdf is None for s in train_samples):
        raise ContractError("sample has no targets")
    mcfg = model.config
    loss_kind = "kl" if mcfg.target_mode == "pdf" else "mse"
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
            inputs, p0, teacher, nwp = sample_arrays([train_samples[i] for i in idx], mcfg)
            try:
                with Tape() as tape:
                    outputs = model.forward_batch(inputs, p0, teacher, "teacher_forcing", nwp)
                    loss = _batch_loss(loss_kind, outputs, teacher, cfg.epsilon_floor)
                value = loss.item()
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
        if epoch > 1 and abs(report.train_loss[-1] - report.train_loss[-2]) <= (
                1e-12 * abs(report.train_loss[-2])):
            log.warning("train loss %.10g at epoch %d is unchanged from the epoch before: "
                        "the gates have likely saturated; lower the learning rate",
                        report.train_loss[-1], epoch)

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
            if raw not in ("True", "False"):
                raise FormatError(f"'{name}' must be True or False, got '{raw}'")
            kwargs[name] = raw == "True"
        elif kind in (int, "int"):
            kwargs[name] = int(raw)
        else:
            kwargs[name] = raw
    return ModelConfig(**kwargs)


def load_checkpoint(path) -> Model:
    """Rebuild a model with bitwise-identical parameters from disk."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read the checkpoint: {exc.strerror}") from None
    with fh:
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
        if extra := len(fh.read()):
            raise FormatError(f"checkpoint has {extra} bytes after the last parameter block")

    model = build_model(config, seed=0)
    params = model.parameters()
    if len(params) != len(blocks):
        raise FormatError(f"expected {len(params)} parameter blocks, found {len(blocks)}")
    for (name, p), (bname, data) in zip(params, blocks):
        if name != bname or p.data.shape != data.shape:
            raise FormatError(f"parameter mismatch: '{name}' vs '{bname}' {data.shape}")
        p.data[...] = data
    return model
