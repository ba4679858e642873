"""One benchmark run; run.py starts it in a fresh process.

The run builds its workload's inputs from the seed, sets the system up,
then drives the public aspectsent API closed-loop (one client; each
operation starts when the previous one has ended) for the given seconds.
An operation is one training step, made as one ``training.train`` call
over a single batch, or one explained review, made as ``model.forward``
without a tape, ``heatmap.build_report``, ``heatmap.render_heatmap`` and
the file writes of ``aspectsent explain``. Every workload has a training
phase and an explain phase, so it reports every end-to-end metric; its
primary phase gets most of the time. Every output is checked, and the
last line printed is the JSON result.

With ``--trace 1`` every operation runs twice from the same state, once
with the layers traced and once without, which gives the per-layer
metrics and the tracing overhead; isolated per-layer cases follow.
Details (environment, corpus statistics, loss trace, all metrics) go to
``.perfbench/results/`` and the spans next to them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from aspectsent import data, embeddings, heatmap, model, training

import cases
import corpus
import run
import tracing

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".perfbench" / "results"
TRAIN_SHARE = 0.6  # share of a corpus that data.split puts in the training part
RANKING_MODE = "magnitude"
WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # "train" or "explain": the phase that gets most of the time
    primary_share: float  # of --seconds; the other phase gets the rest
    lengths: tuple  # shortest and longest review, in tokens
    vocab: int  # vocabulary size the training part must reach
    reviews: int  # reviews in the corpus the vocabulary is built from
    batch_size: int
    explain_reviews: int = 0  # size of a separate corpus to explain, if any
    embedding_width: int = 300
    cell_width: int = 64


WORKLOADS = {
    w.name: w
    for w in (
        # BiLSTM and tape dominate; vocabulary-sized work is small.
        Workload("train-t100-v5k", "train", 0.85, (50, 100), 5_000, 600, 32),
        # Dense V x d work dominates: L2 term, embedding scatter, Adam,
        # snapshots. Batch 8: at this size a run already peaks near 3.2 GB.
        Workload("train-t32-v50k", "train", 0.85, (16, 32), 50_000, 15_000, 8),
        # Forward only with no tape, as readers of explanations use it.
        # Its training phase needs a larger share for a few steps at T=256.
        Workload("explain-t256-v5k", "explain", 0.6, (128, 256), 5_000, 300, 4,
                 explain_reviews=400),
    )
}
SMOKE = dict(lengths=(6, 12), vocab=400, reviews=240, batch_size=4,
             embedding_width=8, cell_width=4)


@dataclass
class Setup:
    config: model.ModelConfig
    vocab: embeddings.Vocabulary
    params: model.ModelParams
    train_pool: list  # examples the training phase draws batches from
    validation_pool: list
    explain_pool: list


def prepare_split(path, config, seed, tracer):
    """Ingest, preprocess, split and encode a corpus as ``aspectsent train`` does."""
    with tracer.span("data.ingest"):
        reviews = data.ingest(path, config.aspect_names)
    with tracer.span("data.preprocess"):
        processed = data.preprocess_corpus(reviews, data.PreprocessRules.default(config.max_length))
    with tracer.span("data.split"):
        parts = data.split(processed, seed=seed)
    with tracer.span("embeddings.vocab"):
        vocab = embeddings.build_vocabulary([p.tokens for p in parts.train])
    with tracer.span("data.encode"):
        encoded = {
            name: [data.encode_example(p, vocab) for p in part]
            for name, part in parts.parts().items()
        }
    return encoded, vocab


def setup_train(paths, config, seed, tracer) -> Setup:
    encoded, vocab = prepare_split(paths["corpus"], config, seed, tracer)
    with tracer.span("model.init_params"):
        params = model.init_params(config, len(vocab), seed=seed)
    return Setup(config, vocab, params, encoded["train"], encoded["validation"], encoded["test"])


def setup_explain(paths, config, seed, tracer) -> Setup:
    with tracer.span("model.load_checkpoint"):
        config, vocab, params = model.load_checkpoint(paths["checkpoint"])
    with tracer.span("data.ingest"):
        reviews = data.ingest(paths["explain"], config.aspect_names)
    with tracer.span("data.preprocess"):
        processed = data.preprocess_corpus(reviews, data.PreprocessRules.default(config.max_length))
    with tracer.span("data.encode"):
        examples = [data.encode_example(p, vocab) for p in processed]
    if len(examples) != len(reviews):
        raise corpus.CorpusError(f"{len(reviews) - len(examples)} reviews were dropped")
    return Setup(config, vocab, params, examples, examples, examples)


def generate(w: Workload, config, seed, workdir, tracer):
    """Write the workload's corpora (and checkpoint).

    Returns their paths and the corpus whose lines the explained reviews
    come from.
    """
    rules = data.PreprocessRules.default(config.max_length)
    rng = np.random.default_rng(seed)
    lo, hi = w.lengths
    draws = TRAIN_SHARE * w.reviews * ((lo + hi) / 2 - len(corpus.CUES))
    reserved = 2 + 2 * len(corpus.CUES)  # padding, unknown, and the cue tokens
    words = corpus.lexicon(corpus.lexicon_size_for(w.vocab - reserved, draws), rules)
    base = corpus.draw_reviews(rng, words, corpus.stratified_lengths(rng, w.reviews, lo, hi))
    paths = {"corpus": workdir / "corpus.jsonl"}
    corpus.write_jsonl(paths["corpus"], base)
    if w.primary == "train":
        return paths, base
    # The checkpoint is what `aspectsent train` would save, before any step.
    _, vocab = prepare_split(paths["corpus"], config, seed, tracer)
    params = model.init_params(config, len(vocab), seed=seed)
    paths["checkpoint"] = workdir / "checkpoint.npz"
    model.save_checkpoint(paths["checkpoint"], config, vocab, params)
    explain = corpus.draw_reviews(
        rng, words, corpus.stratified_lengths(rng, w.explain_reviews, lo, hi)
    )
    paths["explain"] = workdir / "explain.jsonl"
    corpus.write_jsonl(paths["explain"], explain)
    return paths, explain


def stratified_chunks(examples, size: int) -> list:
    """Chunks of ``size`` examples, each taking one from every length stratum.

    Every chunk then holds about the same number of tokens, so operations
    of a run, and of runs with other seeds, do the same amount of work.
    """
    order = sorted(range(len(examples)), key=lambda i: (len(examples[i].token_ids), i))
    n = len(examples) // size
    return [[examples[order[s * n + j]] for s in range(size)] for j in range(n)]


def balanced_order(examples) -> list:
    """Examples in an order whose every prefix spans the lengths evenly.

    Sorted by length, then visited with a stride near n / golden ratio
    that is coprime with n, so a run that stops part way through a pass
    still samples short and long reviews alike.
    """
    n = len(examples)
    by_length = sorted(examples, key=lambda ex: len(ex.token_ids))
    stride = max(1, round(n / 1.618034))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [by_length[(i * stride) % n] for i in range(n)]


class Runner:
    def __init__(self, w: Workload, state: Setup, generated, seed: int, tracer, outdir):
        self.state = state
        self.tracer = tracer
        self.outdir = outdir
        self.seed = seed
        self.lines = generated.lines
        self.line_of = generated.line_of()
        self.train_config = training.TrainConfig(epochs=1, batch_size=w.batch_size)
        self.chunks = stratified_chunks(state.train_pool, w.batch_size)
        self.validation_chunks = stratified_chunks(
            state.validation_pool, math.ceil(w.batch_size / 3)
        )
        self.explain_order = balanced_order(state.explain_pool)
        self.attempted = 0
        self.failed = 0
        self.loss_trace = []
        self.step = 0

    def _op(self, kind: str, traced: bool, body, **attrs):
        """Run ``body`` as one operation; returns its result, or None if it failed."""
        self.attempted += 1
        if traced:
            self.tracer.install()
        try:
            with self.tracer.span("op." + kind, traced=traced, **attrs) as span:
                try:
                    return body()
                except (ArithmeticError, ValueError) as exc:
                    span["failed"] = f"{type(exc).__name__}: {exc}"
                    self.failed += 1
                    return None
        finally:
            if traced:
                self.tracer.uninstall()

    def _fail(self, reason: str) -> None:
        self.failed += 1
        print(f"check failed: {reason}", file=sys.stderr)

    # training phase --------------------------------------------------------

    def train_step(self, i: int, traced: bool, **attrs):
        chunk = self.chunks[i % len(self.chunks)]
        split = data.DatasetSplit(
            train=chunk,
            validation=self.validation_chunks[i % len(self.validation_chunks)],
            test=[],
            seed=self.seed,
        )
        state = self.state
        result = self._op(
            "train", traced,
            lambda: training.train(state.params, state.config, self.train_config, split),
            examples=len(chunk), **attrs,
        )
        if result is None:
            return None
        loss = result.log[0].mean_loss
        if not math.isfinite(loss):
            self._fail(f"step {self.step}: batch loss {loss}")
        norm = math.sqrt(sum(float(np.vdot(t.values, t.values)) for t in state.params.tensors()))
        self.loss_trace.append(
            {"step": self.step, "traced": traced, "loss": loss, "param_norm": norm}
        )
        self.step += 1
        return loss

    def train_pair(self, i: int):
        params = self.state.params.tensors()
        before = [t.values.copy() for t in params]
        first = i % 2 == 1
        losses = [self.train_step(i, first, pair=i)]
        for tensor, values in zip(params, before):
            tensor.values[...] = values
        losses.append(self.train_step(i, not first, pair=i))
        if losses[0] != losses[1]:
            self._fail(f"pair {i}: traced and untraced losses differ: {losses}")

    # explain phase ---------------------------------------------------------

    def explain_review(self, i: int, traced: bool, **attrs):
        example = self.explain_order[i % len(self.explain_order)]
        line = self.line_of.get(tuple(example.tokens))
        if line is None:
            self._fail(f"review {i} does not match any input line")
            return None
        state = self.state
        html_path = self.outdir / f"heatmap_{line:05d}.html"

        def explain():
            output = model.forward(example, state.params, state.config)
            report = heatmap.build_report(
                example.tokens, output, state.config.aspect_names, RANKING_MODE
            )
            html = heatmap.render_heatmap(report)
            html_path.write_text(html, encoding="utf-8")
            ranking = "".join(
                f"{state.config.aspect_names[k]} = {score!r}\n" for k, score in report.ranking
            )
            (self.outdir / f"ranking_{line:05d}.txt").write_text(ranking, encoding="utf-8")
            return output, report, html

        result = self._op("explain", traced, explain, line=line, **attrs)
        if result is not None:
            self.check_explanation(line, example, *result, html_path)
        return result

    def check_explanation(self, line, example, output, report, html, html_path) -> None:
        n = len(example.tokens)
        for k, trace in enumerate(output.traces):
            for stage, weights in (("self", trace.self_weights), ("pos", trace.pos_weights)):
                total = float(np.sum(weights.values[:n]))
                if abs(total - 1.0) > WEIGHT_TOLERANCE:
                    self._fail(f"line {line}: aspect {k} {stage} weights sum to {total!r}")
        if sorted(k for k, _ in report.ranking) != list(range(len(output.traces))):
            self._fail(f"line {line}: ranking {report.ranking} does not list every aspect once")
        if not html or html_path.stat().st_size == 0:
            self._fail(f"line {line}: empty heatmap")
        if report.tokens != self.lines[line - 1]:
            self._fail(f"line {line}: heatmap tokens differ from the input line")

    def explain_pair(self, i: int):
        first = i % 2 == 1
        results = [self.explain_review(i, first, pair=i)]
        results.append(self.explain_review(i, not first, pair=i))
        if None not in results and results[0][2] != results[1][2]:
            self._fail(f"pair {i}: traced and untraced heatmaps differ")

    def run(self, shares: dict, seconds: float, paired: bool, every_quarter) -> dict:
        """Run the phases closed-loop, interleaved; returns operations per phase.

        Each step runs an operation of the phase furthest behind its share
        of the time spent so far, so every metric samples the whole run and
        not one window of it: on a shared host the machine's speed drifts
        over tens of seconds. Operations stop when the next one would take
        the time spent past ``seconds``; ``every_quarter()`` runs, untimed,
        when a quarter, half and three quarters of it are spent. Unpaired,
        the first operation of each phase warms caches and the allocator:
        it is checked and counted, but left out of the timings.
        """
        gc.collect()
        if paired:
            operations = {"train": self.train_pair, "explain": self.explain_pair}
            minimum = 1
        else:
            operations = {
                "train": lambda i: self.train_step(i, False, warmup=i == 0),
                "explain": lambda i: self.explain_review(i, False, warmup=i == 0),
            }
            minimum = 2
        durations = {phase: [] for phase in shares}
        spent = dict.fromkeys(shares, 0.0)
        quarters = [3 * seconds / 4, seconds / 2, seconds / 4]
        while True:
            pending = [p for p in shares if len(durations[p]) < minimum]
            phase = pending[0] if pending else min(shares, key=lambda p: spent[p] / shares[p])
            if not pending and (
                sum(spent.values()) + statistics.median(durations[phase]) > seconds
            ):
                break
            t0 = time.perf_counter()
            operations[phase](len(durations[phase]))
            durations[phase].append(time.perf_counter() - t0)
            spent[phase] += durations[phase][-1]
            while quarters and sum(spent.values()) >= quarters[-1]:
                quarters.pop()
                every_quarter()
        per_op = 2 if paired else 1
        return {phase: per_op * len(d) for phase, d in durations.items()}


def rows_touched(batches, vocab_size: int) -> float:
    """Median over batches of distinct word ids divided by the vocabulary size."""
    return statistics.median(
        len(np.unique(np.concatenate([ex.token_ids for ex in batch]))) / vocab_size
        for batch in batches
    )


def end_to_end(spans, setup_spans) -> dict:
    train, explain = [], []
    for name, start, end, _, attrs in spans:
        if attrs.get("traced") is not False or "failed" in attrs or attrs.get("warmup"):
            continue
        if name == "op.train":
            train.append(attrs["examples"] / (end - start))
        elif name == "op.explain":
            explain.append(1e3 * (end - start))
    # explain_ms_p90 stays in the details, out of BENCHMARK.json: across
    # seeds on a shared 2-vCPU host its quartiles spread by up to 37% of its
    # median, more than the largest bound a metric may have.
    p50, p90 = np.percentile(explain, [50, 90]) if explain else (math.nan, math.nan)
    return {
        "setup_s": statistics.median(end - start for _, start, end, _, _ in setup_spans),
        "train_ex_per_s": statistics.median(train) if train else math.nan,
        "explain_ms_p50": float(p50),
        "explain_ms_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in run.THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny widths and corpora, to check the benchmark itself")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = replace(w, **SMOKE, explain_reviews=40 if w.explain_reviews else 0)
    traced = bool(args.trace)
    tag = f"{w.name}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = ROOT / ".perfbench" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        return measure(w, args, traced, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(w: Workload, args, traced: bool, tag: str, workdir: Path) -> int:
    tracer = tracing.Tracer()
    config = model.ModelConfig(
        aspect_names=list(data.RESTAURANT_ASPECTS),
        embedding_width=w.embedding_width,
        cell_width=w.cell_width,
    )
    with tracer.span("generate"):
        paths, generated = generate(w, config, args.seed, workdir, tracer)
    setup = setup_train if w.primary == "train" else setup_explain

    def timed_setup() -> Setup:
        gc.collect()
        with tracer.span("setup"):
            return setup(paths, config, args.seed, tracer)

    state = timed_setup()
    corpus.check_vocabulary(len(state.vocab), w.vocab)

    outdir = workdir / "explain"
    outdir.mkdir()
    runner = Runner(w, state, generated, args.seed, tracer, outdir)
    secondary = "explain" if w.primary == "train" else "train"
    shares = {w.primary: w.primary_share, secondary: 1.0 - w.primary_share}
    # Set-up also runs at each quarter of the run and at its end, its result
    # dropped, so that its samples are spread over the run like the
    # operations' samples, and a slow spell of a shared host hits few.
    operations = runner.run(shares, args.seconds, traced, every_quarter=timed_setup)
    timed_setup()
    setup_spans = [s for s in tracer.spans if s[0] == "setup"]
    metrics = end_to_end(tracer.spans, setup_spans)

    batches = runner.chunks if w.primary == "train" else [[ex] for ex in state.explain_pool]
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "corpus": {
            "vocab_size": len(state.vocab),
            "vocab_target": w.vocab,
            "length_quantiles": dict(zip(
                ("p10", "p50", "p90"), np.quantile(generated.lengths, [0.1, 0.5, 0.9]).tolist()
            )),
            "rows_touched_frac": rows_touched(batches, len(state.vocab)),
        },
        "operations": operations,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_share": runner.failed / runner.attempted,
        "loss_trace": runner.loss_trace,
        "end_to_end": metrics,
    }
    if traced:
        pool = state.train_pool if w.primary == "train" else state.explain_pool
        median_example = sorted(pool, key=lambda ex: len(ex.token_ids))[len(pool) // 2]
        layers = tracing.layer_metrics(tracer.spans, w.primary, tracer)
        layers.update(cases.run_cases(state.params, state.config, median_example,
                                      args.seed, tracer))
        layers["embeddings.rows_touched_frac"] = detail["corpus"]["rows_touched_frac"]
        detail["per_layer"] = layers
        detail["self_s"] = tracing.SpanIndex(tracer.spans).self_times(w.primary)
        metrics = layers
    tracer.write(RESULTS / f"{tag}.spans.jsonl")
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    # The result line holds the metrics BENCHMARK.json names, with its units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
