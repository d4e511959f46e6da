"""Outside-in tracing of pvcast: spans recorded around calls into its modules.

The tracer patches public functions (and the few private helpers whose cost
or call count the benchmark reports) with wrappers that record one span per
call: name, start, end and the index of the enclosing span. Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

Two names are bound at import and are patched where they are used:
``pvcast.training`` imports ``backward`` by name, and ``PersistenceModel``
overrides ``Model.forward``.
"""

import time
from collections import Counter

import pvcast.autodiff
import pvcast.data
import pvcast.layers
import pvcast.metrics
import pvcast.models
import pvcast.training


class Tracer:
    """Keeps spans and counters in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _call(self, name: str, fn, args, kwargs):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._call(name, fn, args, kwargs)
            return wrapper
        return make

    def install(self) -> None:
        ad, data, ly = pvcast.autodiff, pvcast.data, pvcast.layers
        models, training, metrics = pvcast.models, pvcast.training, pvcast.metrics

        for fn_name in ("synth_generate", "write_csv", "consolidate", "make_sample",
                        "build_splits"):
            self._patch(data, fn_name, self._spanned(f"data.{fn_name}"))
        self._patch(data, "ingest_csv", self._counted_ingest)
        self._patch(data, "split", self._counted_split)
        self._patch(data, "_spans_conflict", self._counted_pair_check)

        self._patch(ad, "backward", self._traced_backward)
        self._patch(training, "backward", self._traced_backward)
        self._patch(ad.SgdNesterov, "step", self._spanned("autodiff.sgd_step"))

        self._patch(ly, "lstm_step", self._spanned("layers.lstm_step"))
        self._patch(ly, "attend_projected", self._spanned("layers.attend_projected"))
        self._patch(ly, "dense_forward", self._spanned("layers.dense"))
        self._patch(ly.AttentionLayer, "project_keys_values",
                    self._spanned("layers.project_keys_values"))

        for cls in (models.Seq2SeqModel, models.OneBlockModel):
            self._patch(cls, "forward_batch", self._forward_batch)
        self._patch(models.Model, "forward", self._spanned("models.forward"))
        self._patch(models.PersistenceModel, "forward", self._spanned("models.forward"))

        self._patch(training, "fit", self._spanned("training.fit"))
        self._patch(training, "_batch_loss", self._spanned("training.batch_loss"))
        self._patch(training, "validation_nrmse", self._spanned("training.validation_nrmse"))
        self._patch(metrics, "evaluate", self._spanned("metrics.evaluate"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers that also count ------------------------------------------

    def _counted_ingest(self, fn):
        def wrapper(*args, **kwargs):
            pv, nwp = self._call("data.ingest_csv", fn, args, kwargs)
            self.counts["data.ingest_csv.rows"] += pv.timestamps.size + nwp.timestamps.size
            return pv, nwp
        return wrapper

    def _counted_split(self, fn):
        def wrapper(*args, **kwargs):
            result = self._call("data.split", fn, args, kwargs)
            self.counts["data.split.n_train"] += len(result.train)
            self.counts["data.split.n_val"] += len(result.val)
            self.counts["data.split.n_test"] += len(result.test)
            self.counts["data.split.discarded"] += result.discarded
            return result
        return wrapper

    def _counted_pair_check(self, fn):
        # Called about a million times per paper-protocol split: count only.
        def wrapper(a, b):
            self.counts["data.split.pair_checks"] += 1
            return fn(a, b)
        return wrapper

    def _traced_backward(self, fn):
        def wrapper(tape, loss):
            self.counts["autodiff.tape_nodes"] += len(tape.nodes)
            self.counts["autodiff.tape_bytes"] += sum(n.output.data.nbytes for n in tape.nodes)
            return self._call("autodiff.backward", fn, (tape, loss), {})
        return wrapper

    def _forward_batch(self, fn):
        def wrapper(model, inputs, p0, teacher, mode, *args, **kwargs):
            kind = "teacher" if mode == "teacher_forcing" else "recurrent"
            return self._call(f"models.forward_batch.{kind}", fn,
                              (model, inputs, p0, teacher, mode) + args, kwargs)
        return wrapper

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def summarize(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Totals, self times and call counts of the spans recorded since
        `since`, plus the counters' increments over the same interval."""
        first, counts_before = since
        child_time: dict[int, float] = {}
        for index in range(first, len(self.spans)):
            _, start, end, parent = self.spans[index]
            if parent >= first:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for index in range(first, len(self.spans)):
            name, start, end, _ = self.spans[index]
            duration = end - start
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + duration - child_time.get(index, 0.0))
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in self.counts.items():
            out[key] = value - counts_before.get(key, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start:.9f},{end:.9f},{parent}\n")
