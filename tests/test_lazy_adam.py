"""Row-sparse table gradients and lazy Adam against a kept dense-Adam oracle.

The oracle is ``reference_adam_step``, the plain out-of-place formula over
whole tensors. Lazy Adam must equal it on the rows a gradient touches, from
the moments those rows have, and leave every other row and its moments as
they were.
"""

import tracemalloc

import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent import training
from aspectsent.autodiff import NumericError, Tape, backward
from aspectsent.data import DatasetSplit
from aspectsent.embeddings import EmbeddingTables, embed_sequence
from aspectsent.model import init_params
from aspectsent.training import AdamState, TrainConfig, adam_step, train
from tests.corpus import synthetic_split
from tests.test_training import reference_adam_step

CONFIG = TrainConfig(learning_rate=0.03)
MB = 1024 * 1024


def row_grad(shape, rows, rng):
    """A row-sparse gradient from ``accumulate_rows`` over ids with repeats."""
    t = ad.parameter(np.zeros(shape))
    t.accumulate_rows(np.asarray(rows), rng.normal(size=(len(rows),) + shape[1:]))
    return t.grad


def traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_row_sums_equal_the_add_at_scatter():
    """Over several calls with repeated ids in any order, the kept sums are
    ``np.add.at`` into a zeroed buffer, to the bit."""
    rng = np.random.default_rng(3)
    t = ad.parameter(np.zeros((50, 7)))
    expected = np.zeros((50, 7))
    for size in (40, 1, 200):
        ids = rng.integers(0, 50, size=size)
        rows = rng.normal(size=(size, 7)) * 10.0 ** rng.integers(-8, 8, size=(size, 1))
        t.accumulate_rows(ids, rows)
        np.add.at(expected, ids, rows)
        assert isinstance(t.grad, ad.RowGrad)
        np.testing.assert_array_equal(t.grad.rows, np.flatnonzero(np.any(expected != 0.0, axis=1)))
        assert np.array_equal(ad.dense_grad(t), expected)


def test_lazy_rows_equal_the_dense_oracle_on_every_step():
    """Each step, the touched rows of the table and of its moments equal the
    dense formula applied from the current state; the rest keep their values."""
    rng = np.random.default_rng(5)
    shape = (30, 4)
    table = ad.parameter(rng.normal(size=shape), "word_table")
    state = AdamState()
    oracle = ad.parameter(table.values.copy(), "word_table")
    first, second = {"word_table": np.zeros(shape)}, {"word_table": np.zeros(shape)}
    for t, rows in enumerate(([1, 2, 2, 7], [7, 3], [29, 0, 1, 1, 1], [3], [12, 7, 2]), 1):
        table.grad = row_grad(shape, rows, rng)
        before = table.values.copy(), first["word_table"].copy(), second["word_table"].copy()
        oracle.grad = table.grad.dense(shape)
        reference_adam_step([("word_table", oracle)], first, second, t, CONFIG)
        adam_step([("word_table", table)], state, CONFIG)

        touched = np.zeros(shape[0], dtype=bool)
        touched[rows] = True
        m, v = state.first["word_table"].copy(), state.second["word_table"].copy()
        for got, want, old in zip((table.values, m, v),
                                  (oracle.values, first["word_table"], second["word_table"]),
                                  before):
            assert np.array_equal(got[touched], want[touched]), t
            assert np.array_equal(got[~touched], old[~touched]), t
        # the oracle continues from the lazy state
        oracle.values = table.values.copy()
        first["word_table"], second["word_table"] = m, v
    assert state.step == 5


def test_rows_without_a_gradient_keep_values_and_moments():
    rng = np.random.default_rng(8)
    shape = (6, 3)
    table = ad.parameter(rng.normal(size=shape), "word_table")
    state = AdamState()
    table.grad = row_grad(shape, [1, 2], rng)
    adam_step([("word_table", table)], state, CONFIG)
    values = table.values.copy()
    moments = state.first["word_table"].copy(), state.second["word_table"].copy()
    table.grad = row_grad(shape, [4], rng)
    adam_step([("word_table", table)], state, CONFIG)
    after = state.first["word_table"], state.second["word_table"]
    for row in (0, 1, 2, 3, 5):
        assert np.array_equal(table.values[row], values[row]), row
        for old, new in zip(moments, after):
            assert np.array_equal(new[row], old[row]), row
    assert not np.array_equal(table.values[4], values[4])


def test_one_step_from_fresh_moments_equals_dense_adam_everywhere():
    """Dense Adam moves a zero-gradient row by zero from fresh moments, so
    one lazy step equals it on every entry, moments included."""
    rng = np.random.default_rng(9)
    shape = (40, 6)
    table = ad.parameter(rng.normal(size=shape), "word_table")
    oracle = ad.parameter(table.values.copy(), "word_table")
    table.grad = row_grad(shape, rng.integers(0, 40, size=25), rng)
    oracle.grad = table.grad.dense(shape)
    state, first, second = AdamState(), {}, {}
    adam_step([("word_table", table)], state, CONFIG)
    reference_adam_step([("word_table", oracle)], first, second, 1, CONFIG)
    assert np.array_equal(table.values, oracle.values)
    for ours, theirs in ((state.first, first), (state.second, second)):
        assert np.array_equal(ours["word_table"], theirs["word_table"])


def test_one_training_step_equals_dense_adam_with_the_tables_out_of_the_decay(monkeypatch):
    """One batch at the default config (L2 on): every parameter equals, to the
    bit, a step that hands Adam each table's gradient as a whole array."""
    split, vocab, config = synthetic_split(n=40, seed=2)
    assert config.l2_weight > 0
    one_batch = DatasetSplit(split.train[:8], split.validation, [], seed=2)
    train_config = TrainConfig(epochs=1, batch_size=8)
    lazy = train(init_params(config, len(vocab), seed=3), config, train_config, one_batch)

    def dense_adam(named, state, config, l2_weight):
        for _, t in named:
            if isinstance(t.grad, ad.RowGrad):
                t.grad = ad.dense_grad(t)
        adam_step(named, state, config, l2_weight)

    monkeypatch.setattr(training, "adam_step", dense_adam)
    dense = train(init_params(config, len(vocab), seed=3), config, train_config, one_batch)
    for (name, ours), (_, theirs) in zip(lazy.params.named_tensors(), dense.params.named_tensors()):
        assert np.array_equal(ours.values, theirs.values), name


def test_gradient_forms_can_alternate():
    """A dense gradient after a row step starts from the moments the rows
    left; a row gradient after a dense step updates its rows alone."""
    rng = np.random.default_rng(12)
    shape = (10, 3)
    table = ad.parameter(rng.normal(size=shape), "word_table")
    oracle = ad.parameter(table.values.copy(), "word_table")
    state = AdamState()
    table.grad = row_grad(shape, [0, 5, 5], rng)
    adam_step([("word_table", table)], state, CONFIG)
    oracle.values = table.values.copy()
    first = {"word_table": state.first["word_table"].copy()}
    second = {"word_table": state.second["word_table"].copy()}

    table.grad = rng.normal(size=shape)
    oracle.grad = table.grad.copy()
    adam_step([("word_table", table)], state, CONFIG)
    reference_adam_step([("word_table", oracle)], first, second, 2, CONFIG)
    assert np.array_equal(table.values, oracle.values)
    assert np.array_equal(state.first["word_table"], first["word_table"])
    assert np.array_equal(state.second["word_table"], second["word_table"])

    values, moments = table.values.copy(), state.first["word_table"].copy()
    table.grad = row_grad(shape, [2], rng)
    adam_step([("word_table", table)], state, CONFIG)
    changed = np.any(table.values != values, axis=1) | np.any(state.first["word_table"] != moments,
                                                             axis=1)
    np.testing.assert_array_equal(np.flatnonzero(changed), [2])


def test_a_decayed_row_gradient_updates_every_row():
    """Coupled L2 gives every row of a parameter in its scope a gradient."""
    rng = np.random.default_rng(4)
    shape = (8, 2)
    p = ad.parameter(rng.normal(size=shape), "p")
    oracle = ad.parameter(p.values.copy(), "p")
    p.grad = row_grad(shape, [3], rng)
    oracle.grad = p.grad.dense(shape)
    states = AdamState(), AdamState()
    adam_step([("p", p)], states[0], CONFIG, l2_weight=0.1)
    adam_step([("p", oracle)], states[1], CONFIG, l2_weight=0.1)
    assert np.array_equal(p.values, oracle.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_row_gradient_raises_naming_the_parameter(bad):
    rng = np.random.default_rng(6)
    shape = (12, 3)
    start = rng.normal(size=shape)
    table = ad.parameter(start.copy(), "word_table")
    table.grad = row_grad(shape, [1, 4, 9], rng)
    table.grad.sums[1, 2] = bad
    state = AdamState()
    with pytest.raises(NumericError, match="word_table"):
        adam_step([("word_table", table)], state, TrainConfig())
    assert np.array_equal(table.values, start)
    assert not state.first["word_table"].any()  # checked before any row is updated


WIDE = (2000, 300)  # a paper-width table


def wide_row_grad(rng):
    """Unsorted ids with repeats, over more than 400 distinct rows."""
    grad = row_grad(WIDE, rng.integers(0, WIDE[0], size=1200), rng)
    assert len(grad.rows) > 400
    return grad


def test_a_row_gradient_over_several_blocks_equals_the_oracle():
    """The gather and scatter of many rows: each step, the touched rows of
    the table and of its moments equal the dense formula from the current
    state, to the bit, and every other row keeps its value."""
    rng = np.random.default_rng(21)
    table = ad.parameter(rng.normal(size=WIDE), "word_table")
    state = AdamState()
    for t in (1, 2, 3):
        table.grad = wide_row_grad(rng)
        touched = np.zeros(WIDE[0], dtype=bool)
        touched[table.grad.rows] = True
        oracle = ad.parameter(table.values.copy(), "word_table")
        oracle.grad = table.grad.dense(WIDE)
        first = {name: moments.copy() for name, moments in state.first.items()}
        second = {name: moments.copy() for name, moments in state.second.items()}
        before = table.values.copy()
        reference_adam_step([("word_table", oracle)], first, second, t, CONFIG)
        adam_step([("word_table", table)], state, CONFIG)
        for got, want in ((table.values, oracle.values),
                          (state.first["word_table"], first["word_table"]),
                          (state.second["word_table"], second["word_table"])):
            assert np.array_equal(got[touched], want[touched]), t
        assert np.array_equal(table.values[~touched], before[~touched]), t


def test_a_nonfinite_entry_in_the_last_block_leaves_every_row_unchanged():
    """A row gradient is checked whole before any of its rows is updated."""
    rng = np.random.default_rng(22)
    table = ad.parameter(rng.normal(size=WIDE), "word_table")
    state = AdamState()
    table.grad = wide_row_grad(rng)
    adam_step([("word_table", table)], state, CONFIG)
    before = [a.copy() for a in (table.values, state.first["word_table"],
                                 state.second["word_table"])]
    table.grad = wide_row_grad(rng)
    table.grad.sums[-1, 7] = np.nan  # the last touched row
    with pytest.raises(NumericError, match="word_table"):
        adam_step([("word_table", table)], state, CONFIG)
    after = table.values, state.first["word_table"], state.second["word_table"]
    for old, new in zip(before, after):
        assert np.array_equal(new, old)


def test_paper_width_backward_at_v50k_makes_no_table_sized_array():
    """A batch of 8 x 32 tokens into a 50k x 300 table: the backward's peak is
    a few MB (2.3 measured), where one table-sized array is 114 MB."""
    rng = np.random.default_rng(1)
    tables = EmbeddingTables(
        word=ad.parameter(np.zeros((50_000, 300)), "word_table"),
        position=ad.parameter(np.zeros((256, 300)), "position_table"),
    )
    ids = rng.integers(0, 50_000, size=(8, 32))
    with Tape():
        root = ad.reduce_sum(embed_sequence(ids, tables))
        peak = traced_peak(lambda: backward(root))
    assert peak < 8 * MB, peak
    assert isinstance(tables.word.grad, ad.RowGrad)
    assert isinstance(tables.position.grad, ad.RowGrad)
    np.testing.assert_array_equal(tables.word.grad.rows, np.unique(ids))


def test_adam_step_on_200_rows_allocates_only_the_moments():
    """A 200-row gradient of a 50k x 300 table: the first step makes the two
    whole moments and a few MB more (the gathered rows and their scratch);
    a later step makes no table-sized array. The table is outside the
    decay, so its gradient is never made dense."""
    rng = np.random.default_rng(2)
    table = ad.parameter(np.zeros((50_000, 300)), "word_table")
    state = AdamState()

    def step():
        table.grad = row_grad(table.values.shape, rng.choice(50_000, size=200, replace=False), rng)
        return traced_peak(lambda: adam_step([("word_table", table)], state, TrainConfig(), 0.01))

    first_peak = step()
    assert first_peak < 2 * table.values.nbytes + 8 * MB, first_peak
    moments = state.first["word_table"], state.second["word_table"]
    assert step() < 8 * MB
    assert state.first["word_table"] is moments[0] and state.second["word_table"] is moments[1]
