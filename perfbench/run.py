"""The pvcast benchmark: three closed-loop workloads driven through pvcast's
public library calls in one process.

    python3 perfbench/run.py --workload train_c4 --seed 7 --seconds 35 --trace 0

Workloads (one caller; each call starts when the previous one returns):

  train_c4      criterion-4 training: s2s_attn pdf and E fits, 32 units,
                batch 32, 2-day windows, a fixed number of epochs.
  forecast_pub  one `evaluate` call scoring persistence and s2s_attn pdf/E at
                the published widths on 5-day windows; forward only.
  prepare_data  `ingest_csv` then `build_splits` at the paper protocol
                (5-day windows, 1 h stride); data layer only.

`--seed` seeds the synthetic data; the split and training seeds have their
own flags. All defaults are the criterion-4 constants (data 7, split 54,
train 5/6), and on those the outputs are also compared with
`reference.json` to 1e-12 relative.

With `--trace 0` the last line carries the end-to-end metrics, scaled to a
reference machine speed measured by `probe_s` around each operation; with
`--trace 1` untraced and traced operations alternate and it carries the
per-layer metrics from the spans of `tracing.py`, which are also written to
`perfbench/results/`. The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"

if not (SRC / "pvcast" / "__init__.py").is_file():
    sys.stderr.write(f"pvcast sources not found under {SRC}; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pvcast  # noqa: E402
from pvcast import data, metrics, models, training  # noqa: E402
from pvcast.errors import PvcastError  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

P_MAX = 5000.0
DATA_SEED = 7
SPLIT_SEED = 54
TRAIN_SEEDS = {"pdf": 5, "expected": 6}
SETUP_REPEATS = 3
REL_TOL = 1e-12
# The host's CPU speed swings by up to 2x over seconds to minutes. A fixed
# probe that does not touch pvcast runs before and after every operation;
# norm_items_per_s scales each operation's rate by (probe time around it /
# PROBE_REF_S), the rate on a machine that runs the probe in PROBE_REF_S.
# setup_s is scaled the same way by the probes that follow the set-up.
PROBE_ROUNDS = 800
PROBES_PER_GAP = 3
PROBE_REF_S = 0.010

# Full size is what the benchmark measures; tiny is for the smoke test.
SIZES = {
    "full": {"train_c4": {"days": 180, "units": 32, "epochs": 1},
             "forecast_pub": {"windows": 8, "units": None},
             "prepare_data": {"days": 180}},
    "tiny": {"train_c4": {"days": 40, "units": 4, "epochs": 1},
             "forecast_pub": {"windows": 2, "units": 4},
             "prepare_data": {"days": 12}},
}

END_TO_END = {"norm_items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "autodiff.backward.s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.tape_nodes_per_step": "count",
    "autodiff.tape_bytes_per_step": "B",
    "autodiff.sgd_step.s": "s",
    "layers.lstm_step.s": "s",
    "layers.lstm_step.calls": "count",
    "layers.attend_projected.s": "s",
    "layers.attend_projected.calls": "count",
    "layers.project_keys_values.s": "s",
    "layers.dense.s": "s",
    "layers.dense.calls": "count",
    "models.forward_batch.teacher.self_s": "s",
    "models.forward_batch.recurrent.self_s": "s",
    "models.forward_batch.calls": "count",
    "models.forward.s": "s",
    "models.forward.calls": "count",
    "training.fit.self_s": "s",
    "training.batch_loss.s": "s",
    "training.validation_nrmse.s": "s",
    "training.batches": "count",
    "metrics.evaluate.s": "s",
    "metrics.evaluate.self_s": "s",
    "data.ingest_csv.s": "s",
    "data.ingest_csv.rows": "count",
    "data.split.s": "s",
    "data.split.pair_checks": "count",
    "data.split.n_train": "count",
    "data.split.n_val": "count",
    "data.split.n_test": "count",
    "data.split.discarded": "count",
    "data.make_sample.s": "s",
    "data.make_sample.calls": "count",
    "data.build_splits.self_s": "s",
    "data.consolidate.s": "s",
    "data.synth_generate.s": "s",
    "data.write_csv.s": "s",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_forecasts(model, samples) -> None:
    """pdf steps are non-negative and sum to 1 within 1e-9; E steps lie in [0, 1]."""
    for sample in samples:
        steps = model.forward(sample).steps
        if model.config.family == "persistence" or model.config.target_mode == "pdf":
            _require(bool(np.all(steps >= 0.0)), f"{model.config.name}: negative probability")
            _require(bool(np.all(np.abs(steps.sum(axis=-1) - 1.0) <= 1e-9)),
                     f"{model.config.name}: pdf steps do not sum to 1")
        else:
            _require(bool(np.all((steps >= 0.0) & (steps <= 1.0))),
                     f"{model.config.name}: E forecast outside [0, 1]")


def _split_counts(splits) -> list[int]:
    return [len(splits.train), len(splits.val), len(splits.test), splits.discarded]


def _check_split(counts: list[int], n_samples: int) -> None:
    _require(sum(counts) == n_samples,
             f"split counts {counts} do not add up to {n_samples} samples")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """setup() builds the inputs; op() is one timed operation and returns
    (timed seconds, work items, jsonable output, stage figures); check()
    validates one output; final_check() validates the forecasts once.
    `item` names the workload's own throughput, printed with its unit."""

    item: tuple[str, str]

    def __init__(self, args, size):
        self.args, self.size = args, size

    def final_check(self):
        pass

    def named(self, ops) -> dict:
        """Workload-specific metrics printed next to the end-to-end ones."""
        return {}

    def cleanup(self):
        pass


class TrainC4(Workload):
    item = ("train_samples_per_s", "samples/s")

    def __init__(self, args, size):
        super().__init__(args, size)
        self.configs = {mode: models.ModelConfig(family="s2s_attn", target_mode=mode,
                                                 units_per_layer=size["units"],
                                                 input_steps=192)
                        for mode in TRAIN_SEEDS}
        self.seeds = {"pdf": args.train_seed_pdf, "expected": args.train_seed_e}

    def setup(self):
        pv, nwp = data.synth_generate(self.size["days"], seed=self.args.seed, p_max=P_MAX)
        prepared = data.build_splits(pv, nwp, stride_hours=24, input_steps=192,
                                     seed=self.args.split_seed)
        self.splits = prepared.splits
        self.n_samples = len(data.list_anchors(prepared.dataset, 24, 192, 24))
        self.models = {mode: models.build_model(cfg, seed=self.seeds[mode])
                       for mode, cfg in self.configs.items()}

    def op(self):
        epochs = self.size["epochs"]
        seconds, output = 0.0, {"splits": _split_counts(self.splits)}
        for mode, cfg in self.configs.items():
            model = models.build_model(cfg, seed=self.seeds[mode])
            # Patience above max_epochs: early stopping never fires.
            train_cfg = training.TrainConfig(batch_size=32, max_epochs=epochs,
                                             patience=epochs + 1, seed=self.seeds[mode])
            started = time.perf_counter()
            report = training.fit(model, self.splits.train, self.splits.val, train_cfg)
            seconds += time.perf_counter() - started
            self.models[mode] = model
            output[mode] = {"train_loss": report.train_loss, "val_nrmse": report.val_nrmse}
        items = len(self.splits.train) * epochs * len(self.configs)
        return seconds, items, output, {}

    def check(self, output):
        _check_split(output["splits"], self.n_samples)
        for mode in self.configs:
            _require(_all_finite(output[mode]["train_loss"] + output[mode]["val_nrmse"]),
                     f"{mode}: non-finite loss")

    def final_check(self):
        for model in self.models.values():
            _check_forecasts(model, self.splits.val)


class ForecastPub(Workload):
    item = ("evaluate_windows_per_s", "windows/s")

    def __init__(self, args, size):
        super().__init__(args, size)
        overrides = {} if size["units"] is None else {"units_per_layer": size["units"]}
        self.configs = [(models.benchmark_config("s2s_attn", "pdf", **overrides),
                         args.train_seed_pdf),
                        (models.benchmark_config("s2s_attn", "expected", **overrides),
                         args.train_seed_e)]

    def setup(self):
        # 5 days of input and 1 day of targets around `windows` daily anchors.
        pv, nwp = data.synth_generate(self.size["windows"] + 5, seed=self.args.seed,
                                      p_max=P_MAX)
        dataset = data.consolidate(pv, nwp)
        self.samples = data.make_samples(dataset, stride_hours=24, input_steps=480)
        _require(len(self.samples) == self.size["windows"],
                 f"expected {self.size['windows']} windows, got {len(self.samples)}")
        self.models = [models.build_model(models.ModelConfig(family="persistence"))]
        self.models += [models.build_model(cfg, seed=seed) for cfg, seed in self.configs]

    def op(self):
        started = time.perf_counter()
        report = metrics.evaluate(self.models, self.samples, P_MAX, "test")
        seconds = time.perf_counter() - started
        rows = [[r.model, r.nrmse, r.nme, r.crps, r.s_nrmse, r.s_crps, r.n_samples]
                for r in report.rows]
        return seconds, len(self.samples), {"rows": rows}, {}

    def check(self, output):
        _require(len(output["rows"]) == len(self.models), "missing report rows")
        for name, *scores, n in output["rows"]:
            present = [v for v in scores if v is not None]
            _require(_all_finite(present), f"{name}: non-finite score")
            _require(all(v >= 0.0 for v in scores[:3] if v is not None),
                     f"{name}: negative error")
            _require(n == len(self.samples), f"{name}: scored {n} windows")

    def final_check(self):
        for model in self.models:
            _check_forecasts(model, self.samples)


class PrepareData(Workload):
    item = ("prepare_rows_per_s", "rows/s")

    def __init__(self, args, size):
        super().__init__(args, size)
        self.workdir = RESULTS / f"work-{os.getpid()}"
        self.paths = (self.workdir / "pv.csv", self.workdir / "nwp.csv")

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pv, self.nwp = data.synth_generate(self.size["days"], seed=self.args.seed,
                                                p_max=P_MAX)
        data.write_csv(self.pv, self.nwp, *self.paths)

    def op(self):
        started = time.perf_counter()
        pv, nwp = data.ingest_csv(*self.paths, P_MAX)
        ingested = time.perf_counter()
        prepared = data.build_splits(pv, nwp, stride_hours=1, input_steps=480,
                                     seed=self.args.split_seed)
        finished = time.perf_counter()
        # CSV keeps 3 decimals of power and 4 of each weather channel.
        _require(np.array_equal(pv.timestamps, self.pv.timestamps)
                 and np.array_equal(nwp.timestamps, self.nwp.timestamps), "timestamps differ")
        _require(float(np.abs(pv.power - self.pv.power).max()) <= 5.0001e-4,
                 "ingested power differs from the written values")
        _require(float(np.abs(nwp.channels - self.nwp.channels).max()) <= 5.0001e-5,
                 "ingested weather differs from the written values")
        rows = pv.timestamps.size + nwp.timestamps.size
        output = {"splits": _split_counts(prepared.splits),
                  "n_samples": len(data.list_anchors(prepared.dataset, 1, 480, 24)),
                  "norm_min": prepared.dataset.norm_min.tolist(),
                  "norm_max": prepared.dataset.norm_max.tolist()}
        stages = {"ingest_s": ingested - started, "build_splits_s": finished - ingested,
                  "rows": rows}
        return finished - started, rows, output, stages

    def check(self, output):
        # Empty val/test at the 5-day protocol is a known defect: it is
        # recorded in the split counts, not counted as a failure.
        _check_split(output["splits"], output["n_samples"])
        lo, hi = output["norm_min"], output["norm_max"]
        _require(_all_finite(lo + hi) and all(a <= b for a, b in zip(lo, hi)),
                 "bad normalization constants")

    def named(self, ops):
        stages = [o["stages"] for o in ops]
        return {"ingest_rows_per_s": (statistics.median(st["rows"] / st["ingest_s"]
                                                        for st in stages), "rows/s"),
                "build_splits_s": (statistics.median(st["build_splits_s"] for st in stages), "s")}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"train_c4": TrainC4, "forecast_pub": ForecastPub, "prepare_data": PrepareData}


# ---------------------------------------------------------------------------
# Output comparison and the run record
# ---------------------------------------------------------------------------


def _matches(a, b, rel: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_matches(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_matches(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_record(args) -> dict:
    return {"workload": args.workload, "size": args.size, "seconds": args.seconds,
            "trace": args.trace,
            "seeds": {"data": args.seed, "split": args.split_seed,
                      "train_pdf": args.train_seed_pdf, "train_e": args.train_seed_e},
            "commit": _git_commit(), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__, "blas": _blas(),
            "pvcast": pvcast.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Per-layer metrics from span summaries
# ---------------------------------------------------------------------------


def _is_count(key: str) -> bool:
    return not key.endswith((".s", ".self_s"))


def _derive(summary: dict) -> dict:
    """Adds the per-layer metrics that combine several span names or counters."""
    out = dict(summary)
    steps = summary.get("autodiff.backward.calls", 0)
    for kind in ("nodes", "bytes"):
        total = summary.get(f"autodiff.tape_{kind}", 0)
        out[f"autodiff.tape_{kind}_per_step"] = total / steps if steps else 0
    out["models.forward_batch.calls"] = (summary.get("models.forward_batch.teacher.calls", 0)
                                         + summary.get("models.forward_batch.recurrent.calls", 0))
    out["training.batches"] = summary.get("training.batch_loss.calls", 0)
    return out


def _counts_repeat(summaries: list[dict]) -> list[str]:
    """Names of counts that differ between repeats of the same phase."""
    keys = set().union(*summaries) if summaries else set()
    return sorted(k for k in keys if _is_count(k)
                  and len({s.get(k, 0) for s in summaries}) > 1)


def per_layer(setup_summaries: list[dict], op_summaries: list[dict]) -> dict:
    """Each metric is its per-setup median plus its per-operation median."""
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        out[name] = sum(statistics.median(s.get(name, 0) for s in phase)
                        for phase in (setup_summaries, op_summaries))
    return out


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DATA_SEED, help="synthetic data seed")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--split-seed", type=int, default=SPLIT_SEED)
    parser.add_argument("--train-seed-pdf", type=int, default=TRAIN_SEEDS["pdf"])
    parser.add_argument("--train-seed-e", type=int, default=TRAIN_SEEDS["expected"])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for the default seeds")
    return parser.parse_args(argv)


def _default_seeds(args) -> bool:
    return (args.size == "full" and args.seed == DATA_SEED and args.split_seed == SPLIT_SEED
            and args.train_seed_pdf == TRAIN_SEEDS["pdf"]
            and args.train_seed_e == TRAIN_SEEDS["expected"])


def run_setups(workload, tracer) -> tuple[list[float], list[dict]]:
    walls, summaries = [], []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.install()
            mark = tracer.mark()
        started = time.perf_counter()
        workload.setup()
        walls.append(time.perf_counter() - started)
        if tracer:
            summaries.append(_derive(tracer.summarize(mark)))
            tracer.uninstall()
    return walls, summaries


def probe_s() -> float:
    """Seconds for a fixed mix of small numpy ops and interpreter work."""
    a = np.full((32, 64), 0.5)
    w = np.full((64, 64), 0.01)
    started = time.perf_counter()
    total = 0.0
    for i in range(PROBE_ROUNDS):
        total += float(np.tanh(a @ w).sum())
        total += sum(x < y for x, y in [((i, j), (j, i)) for j in range(10)])
    return time.perf_counter() - started


def run_ops(workload, tracer, seconds: float, reference, probes: list[float]):
    """The closed loop: stops before an operation that would end past the
    deadline. A traced run alternates untraced and traced operations and
    stops only after a pair. `probes` are the ones taken just before."""
    ops, problems = [], []
    first_output = None
    deadline = time.perf_counter() + seconds
    min_ops = 4 if tracer else 3
    while True:
        traced = bool(tracer) and len(ops) % 2 == 1
        if traced:
            tracer.install()
            mark = tracer.mark()
        started = time.perf_counter()
        entry = {"traced": traced, "failed": False}
        try:
            op_seconds, items, output, stages = workload.op()
            entry.update(seconds=op_seconds, items=items, stages=stages)
            workload.check(output)
            if first_output is None:
                first_output = output
            _require(output == first_output, "output differs from the first operation")
            if reference is not None:
                _require(_matches(output, reference, REL_TOL),
                         "output differs from reference.json")
        except (PvcastError, CheckFailed) as exc:
            entry["failed"] = True
            problems.append(f"operation {len(ops)}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                entry["summary"] = _derive(tracer.summarize(mark))
                tracer.uninstall()
        ops.append(entry)
        wall = time.perf_counter() - started
        after = [probe_s() for _ in range(PROBES_PER_GAP)]
        entry["probe_s"] = statistics.mean(probes + after)
        probes = after
        enough = len(ops) >= min_ops and (not tracer or len(ops) % 2 == 0)
        if enough and time.perf_counter() + wall > deadline:
            break
    try:
        workload.final_check()
    except (PvcastError, CheckFailed) as exc:
        problems.append(f"forecast check: {type(exc).__name__}: {exc}")
        ops[-1]["failed"] = True
    return ops, problems, first_output


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_reference and not _default_seeds(args):
        sys.stderr.write("--write-reference needs the default seeds and full size\n")
        return 2
    record = run_record(args)
    workload = WORKLOADS[args.workload](args, SIZES[args.size][args.workload])
    tracer = Tracer() if args.trace else None
    reference = None
    if _default_seeds(args) and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    try:
        setup_walls, setup_summaries = run_setups(workload, tracer)
        setup_probes = [probe_s() for _ in range(PROBES_PER_GAP)]
        ops, problems, first_output = run_ops(workload, tracer, args.seconds, reference,
                                              setup_probes)
    finally:
        workload.cleanup()
    setup_wall = IMPORT_S + statistics.median(setup_walls)
    setup_s = setup_wall * PROBE_REF_S / statistics.mean(setup_probes)

    if args.write_reference:
        existing = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        existing[args.workload] = first_output
        REFERENCE.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")

    good = [o for o in ops if not o["failed"]]
    failed = len(ops) - len(good)
    correct = failed == 0
    timed = [o for o in good if not o["traced"]]
    rate = statistics.median(o["items"] / o["seconds"] for o in timed) if timed else 0.0
    norm_rate = statistics.median(o["items"] / o["seconds"] * o["probe_s"] / PROBE_REF_S
                                  for o in timed) if timed else 0.0
    named = {workload.item[0]: (rate, workload.item[1])}
    if timed:
        named.update(workload.named(timed))
    named["setup_wall_s"] = (setup_wall, "s")
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    named["fail_ratio"] = (failed / len(ops), "ratio")
    named["probe_s"] = (statistics.median(o["probe_s"] for o in ops), "s")

    if tracer:
        op_summaries = [o["summary"] for o in ops if o["traced"]]
        drifting = _counts_repeat(setup_summaries) + _counts_repeat(op_summaries)
        if drifting:
            correct = False
            problems.append(f"counts differ between repeats: {', '.join(drifting)}")
        values = per_layer(setup_summaries, op_summaries)
        traced_s = [o["seconds"] for o in good if o["traced"]]
        values["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(
            o["seconds"] for o in timed)) if traced_s and timed else 0.0
        result_metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"norm_items_per_s": norm_rate, "setup_s": setup_s,
                  "peak_rss_mb": named["peak_rss_mb"][0]}
        result_metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write_spans(RESULTS / f"{stem}.spans.csv")
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"record": record, "named": named, "problems": problems,
         "ops": [{k: v for k, v in o.items() if k != "summary"} for o in ops],
         "metrics": result_metrics}, indent=1) + "\n")

    print(f"pvcast benchmark: {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(ops)} operations, trace {args.trace}")
    for name, (value, unit) in named.items():
        print(f"  {name:24s} {value:.6g} {unit}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
