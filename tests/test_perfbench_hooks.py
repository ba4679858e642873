"""The benchmark's tracer and isolated cases reach into the program by name.

``perfbench/tracing.py`` replaces module attributes listed in ``TARGETS``
and ``perfbench/cases.py`` calls a few functions with fixed argument
shapes. These tests fail when a refactor renames, moves or re-signs one of
them, instead of letting a traced layer silently drop out of the numbers.
The last test runs the benchmark's own smoke check end to end.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent import model, training
from aspectsent.data import DatasetSplit
from perfbench import tracing
from tests.corpus import synthetic_split


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in tracing.TARGETS])
def test_traced_target_resolves_to_callable(module_name, attr):
    assert module_name.startswith("aspectsent.")
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_training_step_records_every_training_layer():
    split, vocab, config = synthetic_split(n=20, seed=1)
    params = model.init_params(config, len(vocab), seed=0)
    one_batch = DatasetSplit(split.train[:4], split.validation[:2], [], seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        training.train(params, config, training.TrainConfig(epochs=1, batch_size=4), one_batch)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name, _ in tracing.TARGETS if not name.startswith("heatmap.")}
    assert expected <= recorded
    assert tracer.batch_positions > 0


def test_case_call_shapes():
    """``combined_loss`` and ``adam_step`` as ``perfbench/cases.py`` calls them."""
    split, vocab, config = synthetic_split(n=20, seed=2)
    params = model.init_params(config, len(vocab), seed=0)
    example = split.train[0]
    output = model.forward(example, params, config)
    with ad.Tape() as tape:
        root = model.combined_loss(output, example, params, config)[0]
        assert root.values.shape == () and np.isfinite(root.item())
        assert root.tape is not None and len(tape) > 0
        ad.backward(root)
    ad.zero_grads(params.tensors())

    named = params.named_tensors()
    before = {name: t.values.copy() for name, t in named}
    for _, tensor in named:
        tensor.grad = 1e-3 * tensor.values  # a 0-d parameter gets a numpy scalar
    training.adam_step(named, training.AdamState(), training.TrainConfig())
    for name, tensor in named:
        assert tensor.values.shape == before[name].shape
        assert np.all(np.isfinite(tensor.values))
    ad.zero_grads(params.tensors())


def test_perfbench_smoke_check_passes():
    """``perfbench/smoke.py`` runs every workload at tiny widths, in about 10 s."""
    root = Path(__file__).resolve().parents[1]
    child = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=root,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
