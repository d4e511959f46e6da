"""Command-line pipeline: data generation, training, benchmarking, forecasts.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime or
numerical error. Every artifact-producing command writes a manifest of
key=value lines next to its outputs.
"""

import argparse
import logging
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from . import __version__, data, svg
from .data import (DAY, HOUR, PreparedData, build_splits, distribution_quantile,
                   expected_value, format_timestamp, ingest_csv, make_sample,
                   parse_timestamp, synth_generate, write_csv)
from .errors import ConfigError, ContractError, DataError, FormatError, PvcastError
from .metrics import EvalReport, evaluate
from .models import Model, ModelConfig, build_model, count_parameters
from .training import TrainConfig, fit, load_checkpoint, save_checkpoint

USAGE_ERRORS = (ConfigError, ContractError, DataError, FormatError)


def write_manifest(path: Path, entries: dict) -> None:
    lines = [f"{k}={v}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n")


def read_manifest(path: Path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and "=" in line:
            key, _, value = line.partition("=")
            entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# Run configuration file (flat key=value)
# ---------------------------------------------------------------------------

def _bool(text: str) -> bool:
    """true or false, in any case; anything else is a ValueError."""
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got '{text}'")
    return text.lower() == "true"


# Each key's parser, least value (None: no least) and default. The training
# keys are the fields of TrainConfig and take its defaults.
_RUN_KEYS = {
    "learning_rate": (float, None, TrainConfig.learning_rate),
    "momentum": (float, None, TrainConfig.momentum),
    "batch_size": (int, 1, TrainConfig.batch_size),
    "patience": (int, 1, TrainConfig.patience),
    "max_epochs": (int, 1, TrainConfig.max_epochs),
    "seed": (int, 0, TrainConfig.seed),
    "epsilon_floor": (float, None, TrainConfig.epsilon_floor),
    "clip_norm": (float, None, TrainConfig.clip_norm),
    "units": (int, 1, 32), "depth": (int, 1, 2), "window_days": (int, 1, 2),
    "stride_hours": (int, 1, 24), "bins": (int, 1, 50), "split_seed": (int, 0, 11),
    "decoder_nwp": (_bool, None, False),
}


def load_run_config(path: str | None) -> dict:
    values = {key: default for key, (_, _, default) in _RUN_KEYS.items()}
    if path is None:
        return values
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the run config: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: the run config is not UTF-8 text") from None
    set_on = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {i}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _RUN_KEYS:
            raise ConfigError(f"{path}: line {i}: unknown key '{key}'")
        parse, least, _ = _RUN_KEYS[key]
        try:
            values[key] = parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: line {i}: bad value for '{key}'") from exc
        if least is not None and values[key] < least:
            raise ConfigError(f"{path}: line {i}: '{key}' must be at least "
                              f"{least}, got {values[key]}")
        if key in set_on:
            raise ConfigError(f"{path}: line {i}: '{key}' is already set on line "
                              f"{set_on[key]}")
        set_on[key] = i
    return values


def _load_dataset(data_dir: str, pmax_flag: float | None):
    root = Path(data_dir)
    pv_path, nwp_path = root / "pv.csv", root / "nwp.csv"
    if not pv_path.exists() or not nwp_path.exists():
        raise DataError(f"{data_dir}: expected pv.csv and nwp.csv")
    p_max = pmax_flag
    manifest = root / "manifest.txt"
    if p_max is None and manifest.exists():
        entries = read_manifest(manifest)
        if "p_max" in entries:
            try:
                p_max = float(entries["p_max"])
            except ValueError:
                raise ConfigError(f"{manifest}: p_max={entries['p_max']} is not a number; "
                                  "fix it or pass --pmax") from None
    if p_max is None:
        raise ConfigError("rated power unknown: pass --pmax or provide manifest.txt")
    return ingest_csv(pv_path, nwp_path, p_max)


def _require_splits(prepared: PreparedData, command: str, needed: tuple[str, ...]) -> None:
    """Fail before any training when a split the command needs is empty,
    with the split counts and how to get more windows."""
    splits = prepared.splits
    counts = {"train": len(splits.train), "val": len(splits.val), "test": len(splits.test)}
    if not all(counts[name] for name in needed):
        raise DataError(
            f"{command} needs nonempty {', '.join(needed)} splits, got "
            f"{counts['train']}/{counts['val']}/{counts['test']} train/val/test and "
            f"{splits.discarded} discarded; use more days, a smaller window_days or a "
            f"smaller stride_hours")


def _set_up(args, command: str, variants: list[tuple[str, str]],
            needed: tuple[str, ...]):
    """Build the run's TrainConfig and each (family, mode) variant's
    ModelConfig from run.cfg, then read and split the data, then create
    --out: a settings error raises before a CSV is opened, and no error
    leaves --out behind. Returns the run.cfg values, the TrainConfig, the
    ModelConfigs, --out and the prepared data."""
    values = load_run_config(args.config)
    tcfg = TrainConfig(**{f.name: values[f.name] for f in fields(TrainConfig)})
    input_steps = values["window_days"] * DAY // data.GRID_STEP
    configs = [ModelConfig(
        family=family, target_mode=mode, units_per_layer=values["units"],
        depth=values["depth"], input_steps=input_steps, bins=values["bins"],
        decoder_nwp=values["decoder_nwp"] and family in ("s2s", "s2s_attn"))
        for family, mode in variants]
    pv, nwp = _load_dataset(args.data, args.pmax)
    prepared = build_splits(
        pv, nwp, stride_hours=values["stride_hours"], input_steps=input_steps,
        fractions=(0.70, 0.15, 0.15), seed=values["split_seed"], bins=values["bins"])
    _require_splits(prepared, command, needed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return values, tcfg, configs, out, prepared


def _dataset_manifest_entries(prepared: PreparedData) -> dict:
    ds = prepared.dataset
    entries = {
        "p_max": ds.p_max,
        "split_seed": prepared.split_seed,
        "discarded": prepared.splits.discarded,
        "n_train": len(prepared.splits.train),
        "n_val": len(prepared.splits.val),
        "n_test": len(prepared.splits.test),
    }
    for ch, name in enumerate(data.NWP_CHANNELS + ("pv_w",)):
        entries[f"norm_min_{name}"] = f"{ds.norm_min[ch]:.10g}"
        entries[f"norm_max_{name}"] = f"{ds.norm_max[ch]:.10g}"
    return entries


def _normalize_mode(mode: str) -> str:
    low = mode.lower()
    if low in ("pdf",):
        return "pdf"
    if low in ("e", "expected"):
        return "expected"
    raise ConfigError(f"unknown target mode '{mode}' (use pdf or E)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    started = time.time()
    pv, nwp = synth_generate(args.days, seed=args.seed, p_max=args.pmax)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(pv, nwp, out / "pv.csv", out / "nwp.csv")
    write_manifest(out / "manifest.txt", {
        "command": "gen-data", "version": __version__,
        "days": args.days, "seed": args.seed, "p_max": args.pmax,
        "pv_rows": pv.timestamps.size, "nwp_rows": nwp.timestamps.size,
        "outputs": "pv.csv,nwp.csv",
        "started": format_timestamp(int(started // 60)),
        "elapsed_s": f"{time.time() - started:.2f}",
    })
    print(f"wrote {pv.timestamps.size} PV rows and {nwp.timestamps.size} NWP rows to {out}")
    return 0


def _train_one(config: ModelConfig, tcfg: TrainConfig, prepared: PreparedData,
               out: Path):
    model = build_model(config, seed=tcfg.seed)
    report = fit(model, prepared.splits.train, prepared.splits.val, tcfg)
    stem = config.name.lower().replace("-", "_")
    ckpt = out / f"{stem}.ckpt"
    save_checkpoint(model, ckpt)
    (out / f"{stem}_train_report.csv").write_text(report.to_csv())
    return model, report, ckpt


def cmd_train(args) -> int:
    if args.model == "persistence":
        raise ConfigError("persistence has no trainable parameters")
    mode = _normalize_mode(args.mode)
    started = time.time()
    values, tcfg, (config,), out, prepared = _set_up(
        args, "train", [(args.model, mode)], ("train", "val"))
    model, report, ckpt = _train_one(config, tcfg, prepared, out)
    entries = {
        "command": "train", "version": __version__,
        "model": args.model, "mode": mode,
        "units": values["units"], "seed": tcfg.seed,
        "parameters": count_parameters(model),
        "best_epoch": report.best_epoch,
        "best_val_nrmse": f"{report.val_nrmse[report.best_epoch - 1]:.6f}",
        "stop_reason": report.stop_reason,
        "checkpoint": ckpt.name,
        "elapsed_s": f"{time.time() - started:.2f}",
    }
    entries.update(_dataset_manifest_entries(prepared))
    write_manifest(out / "manifest.txt", entries)
    print(f"trained {args.model}-{mode}: best val nRMSE "
          f"{report.val_nrmse[report.best_epoch - 1]:.4f} at epoch {report.best_epoch}")
    return 0


BENCHMARK_VARIANTS = [(f, m) for f in ("ffnn", "lstm", "s2s", "s2s_attn")
                      for m in ("expected", "pdf")]


def cmd_benchmark(args) -> int:
    started = time.time()
    values, tcfg, configs, out, prepared = _set_up(
        args, "benchmark", BENCHMARK_VARIANTS, ("train", "val", "test"))
    _, val, test = prepared.splits

    persistence = build_model(ModelConfig(
        family="persistence", units_per_layer=1, input_steps=prepared.input_steps,
        bins=values["bins"]))
    models: list[Model] = [persistence]
    for i, config in enumerate(configs):
        model, report, _ = _train_one(config, replace(tcfg, seed=tcfg.seed + i),
                                      prepared, out)
        print(f"{model.config.name}: best val nRMSE "
              f"{report.val_nrmse[report.best_epoch - 1]:.4f} "
              f"({report.best_epoch}/{len(report.val_nrmse)} epochs)")
        models.append(model)

    p_max = prepared.dataset.p_max
    report_rows = []
    for split_name, samples in (("val", val), ("test", test)):
        part = evaluate(models, samples, p_max, split_name)
        report_rows.extend(part.rows)
    full = EvalReport(report_rows)
    (out / "report.csv").write_text(full.to_csv())
    (out / "report.txt").write_text(full.to_text())
    print(full.to_text())

    example = test[0]
    actual = example.target_e
    for model in models:
        forecast = model.forward(example)
        stem = model.config.name.lower().replace("-", "_")
        svg.line_chart([("actual", actual), ("forecast", forecast.expected)],
                       f"{model.config.name} day-ahead forecast",
                       out / f"{stem}.svg")

    entries = {
        "command": "benchmark", "version": __version__,
        "seed": tcfg.seed, "units": values["units"],
        "models": ",".join(m.config.name for m in models),
        "outputs": "report.csv,report.txt",
        "elapsed_s": f"{time.time() - started:.2f}",
    }
    entries.update(_dataset_manifest_entries(prepared))
    write_manifest(out / "manifest.txt", entries)
    return 0


def cmd_forecast(args) -> int:
    anchor = parse_timestamp(args.at)
    if anchor % HOUR:
        raise ConfigError(f"--at must be hour-aligned, got {args.at}")
    model = load_checkpoint(args.checkpoint)
    cfg = model.config
    pv, nwp = _load_dataset(args.data, args.pmax)
    dataset = data.consolidate(pv, nwp, bins=cfg.bins)
    try:
        sample = make_sample(dataset, anchor, cfg.input_steps, cfg.output_steps,
                             with_targets=False)
    except ContractError as exc:
        raise DataError(str(exc)) from exc

    forecast = model.forward(sample)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    if cfg.target_mode == "pdf":
        header = ["hour", "expected"] + [f"bin_{i:02d}" for i in range(cfg.bins)]
        lines.append(",".join(header))
        for h in range(cfg.output_steps):
            probs = forecast.steps[h]
            row = [str(h + 1), f"{expected_value(probs):.6f}"]
            row += [f"{v:.12e}" for v in probs]
            lines.append(",".join(row))
    else:
        lines.append("hour,expected")
        for h in range(cfg.output_steps):
            lines.append(f"{h + 1},{forecast.steps[h]:.6f}")
    (out / "forecast.csv").write_text("\n".join(lines) + "\n")

    if args.svg:
        if cfg.target_mode == "pdf":
            lower = [distribution_quantile(forecast.steps[h], 0.1)
                     for h in range(cfg.output_steps)]
            upper = [distribution_quantile(forecast.steps[h], 0.9)
                     for h in range(cfg.output_steps)]
        else:
            lower = upper = forecast.expected
        svg.fan_chart(forecast.expected, lower, upper,
                      f"{cfg.name} forecast from {args.at}", out / "forecast.svg")

    write_manifest(out / "manifest.txt", {
        "command": "forecast", "version": __version__,
        "checkpoint": args.checkpoint, "at": args.at,
        "model": cfg.name, "outputs": "forecast.csv",
    })
    print(f"wrote 24-hour forecast anchored at {args.at} to {out / 'forecast.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvcast",
        description="Day-ahead probabilistic PV power forecasting.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic PV + weather dataset")
    gen.add_argument("--days", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pmax", type=float, default=5000.0, help="rated power in watts")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train one model variant")
    tr.add_argument("--model", required=True)
    tr.add_argument("--mode", default="pdf", help="pdf or E")
    tr.add_argument("--data", required=True)
    tr.add_argument("--config", default=None)
    tr.add_argument("--pmax", type=float, default=None)
    tr.add_argument("--out", required=True)
    tr.set_defaults(func=cmd_train)

    bench = sub.add_parser("benchmark",
                           help="train all eight variants and compare to persistence")
    bench.add_argument("--data", required=True)
    bench.add_argument("--config", default=None)
    bench.add_argument("--pmax", type=float, default=None)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_benchmark)

    fc = sub.add_parser("forecast", help="run a saved model at a timestamp")
    fc.add_argument("--checkpoint", required=True)
    fc.add_argument("--data", required=True)
    fc.add_argument("--at", required=True, help="ISO-8601 UTC, hour-aligned")
    fc.add_argument("--pmax", type=float, default=None)
    fc.add_argument("--out", required=True)
    fc.add_argument("--svg", action="store_true")
    fc.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The library logs through "pvcast" (fit's gradient clipping); show it on
    # stderr for this call only.
    log = logging.getLogger("pvcast")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    saved_level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PvcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
