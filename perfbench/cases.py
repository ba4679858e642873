"""Isolated per-layer cases at a workload's shapes.

Each case runs one layer's public functions forward and backward on its
own tape: ``embed_sequence``; ``bilstm_forward``; ``self_attention`` with
``position_aware_attention`` for every aspect; ``combined_loss`` on a
forward output made without a tape, so its backward is the loss's alone;
and ``adam_step``. One pass under tracemalloc gives the tape-op count and
the memory peaks, then untraced passes give the backward times, which
split the single ``backward`` call of a training step by layer.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from aspectsent import attention, embeddings, model, recurrent, training
from aspectsent import autodiff as ad

TIMED_PASSES = 2
MB = 1024.0 * 1024.0


def _measure(prepare, tensors) -> dict:
    """Time the backward of ``prepare()()``; ``prepare`` runs untimed.

    ``prepare`` returns a function that records the case on the active
    tape and returns its scalar root.
    """
    forward = prepare()
    tracemalloc.start()
    with ad.Tape() as tape:
        root = forward()
        tape_ops = len(tape)
        kept, fwd_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ad.backward(root)
        bwd_peak = tracemalloc.get_traced_memory()[1] - kept
    tracemalloc.stop()
    ad.zero_grads(tensors)
    bwd = []
    for _ in range(TIMED_PASSES):
        forward = prepare()
        with ad.Tape():
            root = forward()
            t0 = time.perf_counter()
            ad.backward(root)
            bwd.append(time.perf_counter() - t0)
        ad.zero_grads(tensors)
    return {
        "bwd_ms": 1e3 * statistics.median(bwd),
        "tape_ops": tape_ops,
        "peak_mb": max(fwd_peak, kept + bwd_peak) / MB,
        "bwd_peak_mb": bwd_peak / MB,
    }


def _adam_peak_mb(params) -> float:
    """Memory peak of a first ``adam_step``, as each training call makes one."""
    named = params.named_tensors()
    for _, tensor in named:
        tensor.grad = 1e-3 * tensor.values
    tracemalloc.start()
    training.adam_step(named, training.AdamState(), training.TrainConfig())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    ad.zero_grads(params.tensors())
    return peak / MB


def run_cases(params, config, example, seed: int, tracer) -> dict:
    """Per-layer metrics of the isolated cases, shaped like ``example``.

    Runs after the workload, on its parameters; ``adam_step`` changes them.
    """
    rng = np.random.default_rng(seed)
    length = len(example.token_ids)
    mask = np.ones(length, dtype=bool)
    ids = example.token_ids
    embed_width = 2 * config.embedding_width
    inputs = ad.parameter(0.1 * rng.standard_normal((length, embed_width)))
    hidden = ad.parameter(0.1 * rng.standard_normal((length, config.hidden_width)))
    mean_embedding = ad.parameter(0.1 * rng.standard_normal(embed_width))
    everything = params.tensors() + [inputs, hidden, mean_embedding]

    def embed():
        return lambda: ad.reduce_sum(embeddings.embed_sequence(ids, params.tables))

    def bilstm():
        return lambda: ad.reduce_sum(
            recurrent.bilstm_forward(inputs, params.lstm_fwd, params.lstm_bwd, mask).values
        )

    def attend():
        def forward():
            total = None
            for aspect in params.attention:
                sa = attention.self_attention(hidden, aspect, mask)
                pa = attention.position_aware_attention(
                    sa.weighted, hidden, mean_embedding, aspect, mask
                )
                term = ad.reduce_sum(pa.context)
                total = term if total is None else ad.add(total, term)
            return total
        return forward

    def loss():
        output = model.forward(example, params, config)
        return lambda: model.combined_loss(output, example, params, config)[0]

    results = {}
    for name, prepare in (("embed", embed), ("bilstm", bilstm), ("attention", attend),
                          ("loss", loss)):
        with tracer.span("case." + name):
            results[name] = _measure(prepare, everything)
    with tracer.span("case.adam"):
        adam_peak_mb = _adam_peak_mb(params)
    return {
        "embeddings.embed_bwd_ms": results["embed"]["bwd_ms"],
        "embeddings.bwd_peak_mb": results["embed"]["bwd_peak_mb"],
        "recurrent.bilstm_bwd_ms": results["bilstm"]["bwd_ms"],
        # less the reduce_sum that makes the case's scalar root
        "recurrent.bilstm_tape_ops": results["bilstm"]["tape_ops"] - 1,
        "attention.bwd_ms": results["attention"]["bwd_ms"],
        "model.loss_bwd_ms": results["loss"]["bwd_ms"],
        "model.loss_peak_mb": results["loss"]["peak_mb"],
        "training.adam_peak_mb": adam_peak_mb,
    }
