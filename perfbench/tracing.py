"""In-memory spans and the per-layer metrics derived from them.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span or -1. The benchmark opens spans around its own calls
(set-up phases, one span per operation, isolated cases). ``install``
additionally replaces the public functions of each module at the names
their callers look them up by, so a traced operation also records its
layers. Spans are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

from aspectsent import autodiff

# (module, attribute, span name, tape-op count to record)
TARGETS = (
    ("aspectsent.training", "train", "training.train", None),
    ("aspectsent.training", "forward", "model.forward", "delta"),
    ("aspectsent.training", "combined_loss", "model.combined_loss", "delta"),
    ("aspectsent.training", "backward", "autodiff.backward", "root"),
    ("aspectsent.training", "adam_step", "training.adam_step", None),
    ("aspectsent.training", "evaluate", "training.evaluate", None),
    ("aspectsent.model", "forward", "model.forward", "delta"),
    ("aspectsent.model", "embed_sequence", "embeddings.embed_sequence", None),
    ("aspectsent.model", "bilstm_forward", "recurrent.bilstm_forward", None),
    ("aspectsent.model", "self_attention", "attention.self_attention", None),
    ("aspectsent.model", "position_aware_attention", "attention.position_aware_attention", None),
    ("aspectsent.model", "cross_entropy", "model.cross_entropy", None),
    ("aspectsent.model", "orthogonal_penalty", "model.orthogonal_penalty", None),
    ("aspectsent.heatmap", "build_report", "heatmap.build_report", None),
    ("aspectsent.heatmap", "render_heatmap", "heatmap.render_heatmap", None),
)


def _tape_size() -> int:
    tape = autodiff.active_tape()
    return 0 if tape is None else len(tape)


class Tracer:
    def __init__(self):
        self.spans = []
        self.padded_positions = 0
        self.batch_positions = 0
        self._open = []
        self._saved = []

    def _start(self, name: str, attrs: dict) -> list:
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, attrs]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the block; yields its attribute dict."""
        record = self._start(name, attrs)
        try:
            yield attrs
        finally:
            self._end(record)

    def _wrap(self, fn, name, ops):
        def traced(*args, **kwargs):
            before = _tape_size() if ops == "delta" else 0
            record = self._start(name, {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(record)
                if ops == "delta":
                    record[4]["tape_ops"] = _tape_size() - before
                elif ops == "root":
                    record[4]["tape_ops"] = len(args[0].tape)
        return traced

    def _wrap_batches(self, fn):
        def traced(examples, batch_size, rng):
            for batch in fn(examples, batch_size, rng):
                positions = len(batch) * len(batch[0].mask)
                self.batch_positions += positions
                self.padded_positions += positions - sum(int(ex.mask.sum()) for ex in batch)
                yield batch
        return traced

    def install(self) -> None:
        for module_name, attr, name, ops in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, ops))
        training = importlib.import_module("aspectsent.training")
        self._saved.append((training, "batch_iter", training.batch_iter))
        training.batch_iter = self._wrap_batches(training.batch_iter)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, **attrs}
                ) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


class SpanIndex:
    """Lookups over a span list: enclosing operation, validation flag, child time."""

    def __init__(self, spans):
        self.spans = spans
        self.op = []
        self.in_eval = []
        self.child_time = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            op, in_eval = -1, False
            if parent >= 0:
                op = self.op[parent]
                in_eval = self.in_eval[parent] or spans[parent][0] == "training.evaluate"
                self.child_time[parent] += end - start
            self.op.append(i if name.startswith("op.") else op)
            self.in_eval.append(in_eval)

    def _in_phase(self, op: int, phase: str) -> bool:
        """Whether ``op`` is a traced operation of the phase."""
        return (
            op >= 0
            and self.spans[op][0] == "op." + phase
            and self.spans[op][4].get("traced") is True
        )

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name: str, phase: str = None) -> list:
        """Indices of spans with this name, inside traced operations of the phase.

        Without a phase, only spans outside every operation count. Spans
        under a validation pass are skipped: they run the forward pass
        without a tape, which is the explain phase's job to measure.
        """
        out = []
        for i, span in enumerate(self.spans):
            if span[0] != name or self.in_eval[i]:
                continue
            op = self.op[i]
            if phase is None:
                if op < 0:
                    out.append(i)
            elif self._in_phase(op, phase):
                out.append(i)
        return out

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def ms(self, name: str, phase: str) -> float:
        return 1e3 * _median([self.duration(i) for i in self.named(name, phase)])

    def per_parent_ms(self, name: str, phase: str) -> float:
        """Median over parent spans of the summed durations of ``name`` under each."""
        totals = {}
        for i in self.named(name, phase):
            parent = self.spans[i][3]
            totals[parent] = totals.get(parent, 0.0) + self.duration(i)
        return 1e3 * _median(list(totals.values()))

    def overhead(self, phase: str) -> float:
        """Median over operation pairs of traced / untraced duration, minus 1."""
        pairs = {}
        for i, (name, _, _, _, attrs) in enumerate(self.spans):
            if name == "op." + phase and "pair" in attrs and not attrs.get("failed"):
                pairs.setdefault(attrs["pair"], {})[attrs["traced"]] = self.duration(i)
        ratios = [p[True] / p[False] - 1.0 for p in pairs.values() if len(p) == 2]
        return _median(ratios)

    def self_times(self, phase: str) -> dict:
        """Total self time by span name inside traced operations of the phase."""
        totals = {}
        for i, span in enumerate(self.spans):
            if self._in_phase(self.op[i], phase):
                totals[span[0]] = totals.get(span[0], 0.0) + self.self_time(i)
        return totals


def layer_metrics(spans, primary: str, tracer: Tracer) -> dict:
    """Per-layer metrics from a traced run, by the names BENCHMARK.json lists.

    Forward-layer times come from the workload's primary phase; loss,
    backward and optimizer times from the training phase; heatmap times
    from the explain phase. Times are medians per call.
    """
    ix = SpanIndex(spans)
    setup = {}
    for name in ("data.ingest", "data.preprocess", "data.encode", "embeddings.vocab"):
        # Set-up phases; the explain workload builds its vocabulary only
        # while generating its checkpoint, so that span stands in there.
        found = ix.named(name)
        in_setup = [i for i in found if spans[i][3] >= 0 and spans[spans[i][3]][0] == "setup"]
        setup[name] = _median([ix.duration(i) for i in in_setup or found])
    forwards = ix.named("model.forward", "train")
    losses = ix.named("model.combined_loss", "train")
    tape_ops = sum(spans[i][4].get("tape_ops", 0) for i in forwards + losses)
    return {
        "data.ingest_s": setup["data.ingest"],
        "data.preprocess_s": setup["data.preprocess"],
        "data.encode_s": setup["data.encode"],
        "data.pad_frac": tracer.padded_positions / max(1, tracer.batch_positions),
        "embeddings.vocab_s": setup["embeddings.vocab"],
        "embeddings.embed_fwd_ms": ix.ms("embeddings.embed_sequence", primary),
        "recurrent.bilstm_fwd_ms": ix.ms("recurrent.bilstm_forward", primary),
        "attention.self_fwd_ms": ix.per_parent_ms("attention.self_attention", primary),
        "attention.pos_fwd_ms": ix.per_parent_ms("attention.position_aware_attention", primary),
        "model.forward_ms": ix.ms("model.forward", primary),
        "model.loss_ms": ix.ms("model.combined_loss", "train"),
        "model.loss_self_ms": 1e3 * _median([ix.self_time(i) for i in losses]),
        "model.tape_ops_per_example": tape_ops / max(1, len(forwards)),
        "autodiff.backward_ms": ix.ms("autodiff.backward", "train"),
        "autodiff.tape_ops_per_step": _median(
            [spans[i][4]["tape_ops"] for i in ix.named("autodiff.backward", "train")]
        ),
        "training.adam_ms": ix.ms("training.adam_step", "train"),
        "training.evaluate_s": 1e-3 * ix.ms("training.evaluate", "train"),
        "training.train_self_ms": 1e3 * _median(
            [ix.self_time(i) for i in ix.named("training.train", "train")]
        ),
        "heatmap.build_report_ms": ix.ms("heatmap.build_report", "explain"),
        "heatmap.render_ms": ix.ms("heatmap.render_heatmap", "explain"),
        "trace.overhead_frac": ix.overhead(primary),
    }
