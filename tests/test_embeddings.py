import numpy as np
import pytest

from aspectsent import autodiff as ad
from aspectsent import embeddings as emb
from aspectsent.autodiff import Tape, Tensor, backward
from aspectsent.embeddings import (
    PAD_ID,
    UNK_ID,
    SequenceLengthError,
    build_vocabulary,
    embed_sequence,
    load_pretrained,
    random_tables,
)
from aspectsent.textfile import InputError
from tests.gradcheck import grad_check


def test_build_vocabulary_ordering():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_count=1)
    assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}


def test_build_vocabulary_min_count_filters():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_count=2)
    assert "b" not in vocab.token_to_id
    assert vocab.encode(["b"]).tolist() == [UNK_ID]


def test_build_vocabulary_deterministic():
    corpus = [["x", "y", "y"], ["z", "x"]]
    assert build_vocabulary(corpus).id_to_token == build_vocabulary(corpus).id_to_token


def test_vocabulary_frequency_then_lexicographic():
    vocab = build_vocabulary([["b", "b", "c", "a", "c"]])
    # b and c tie at 2, a has 1
    assert vocab.id_to_token[2:] == ["b", "c", "a"]


@pytest.fixture
def small_vocab():
    return build_vocabulary([["pizza", "good", "pizza"], ["slow", "good"]])


def drawn_tables(vocab, width=3, max_length=4, seed=0):
    return random_tables(len(vocab), width, max_length, np.random.default_rng(seed))


def test_load_pretrained_copies_file_rows(tmp_path, small_vocab):
    path = tmp_path / "vectors.txt"
    path.write_text("pizza 1.0 2.0 3.0\nabsent 9.0 9.0 9.0\n")
    tables = drawn_tables(small_vocab)
    load_pretrained(path, small_vocab, tables)
    row = tables.word.values[small_vocab.token_to_id["pizza"]]
    np.testing.assert_array_equal(row, [1.0, 2.0, 3.0])


def test_load_pretrained_padding_row_zero(tmp_path, small_vocab):
    path = tmp_path / "vectors.txt"
    path.write_text("good 0.5 0.5 0.5\n<pad> 0.5 0.5 0.5\n")
    tables = drawn_tables(small_vocab)
    load_pretrained(path, small_vocab, tables)
    np.testing.assert_array_equal(tables.word.values[PAD_ID], np.zeros(3))


def test_load_pretrained_oov_rows_reproducible_and_bounded(tmp_path, small_vocab):
    path = tmp_path / "vectors.txt"
    path.write_text("good 0.5 0.5 0.5\n")
    t1, t2 = drawn_tables(small_vocab, seed=11), drawn_tables(small_vocab, seed=11)
    drawn = drawn_tables(small_vocab, seed=11)
    load_pretrained(path, small_vocab, t1)
    load_pretrained(path, small_vocab, t2)
    np.testing.assert_array_equal(t1.word.values, t2.word.values)
    oov = [i for i in range(len(small_vocab)) if i != small_vocab.token_to_id["good"]]
    np.testing.assert_array_equal(t1.word.values[oov], drawn.word.values[oov])
    np.testing.assert_array_equal(t1.position.values, drawn.position.values)
    assert np.all(np.abs(t1.word.values[oov]) <= 0.25)
    assert np.all(np.abs(t1.position.values) <= 0.25)


def test_load_pretrained_width_mismatch(tmp_path, small_vocab):
    path = tmp_path / "vectors.txt"
    path.write_text("pizza 1.0 2.0\n")
    with pytest.raises(InputError, match="line 1"):
        load_pretrained(path, small_vocab, drawn_tables(small_vocab))


def test_load_pretrained_malformed_line(tmp_path, small_vocab):
    path = tmp_path / "vectors.txt"
    path.write_text("pizza 1.0 2.0 3.0\nslow 1.0 oops 3.0\n")
    with pytest.raises(InputError, match="line 2"):
        load_pretrained(path, small_vocab, drawn_tables(small_vocab))


def test_embed_sequence_single_token(small_vocab):
    tables = drawn_tables(small_vocab, seed=1)
    ids = small_vocab.encode(["pizza"])
    out = embed_sequence(ids, tables)
    assert out.values.shape == (1, 6)
    np.testing.assert_array_equal(out.values[0, :3], tables.word.values[ids[0]])
    np.testing.assert_array_equal(out.values[0, 3:], tables.position.values[0])


def test_embed_sequence_position_half_differs(small_vocab):
    tables = drawn_tables(small_vocab, seed=1)
    ids = small_vocab.encode(["good", "good"])
    out = embed_sequence(ids, tables).values
    np.testing.assert_array_equal(out[0, :3], out[1, :3])
    assert not np.array_equal(out[0, 3:], out[1, 3:])


def test_embed_sequence_width_is_always_2d(small_vocab):
    for width in (2, 5):
        tables = drawn_tables(small_vocab, width=width, max_length=8, seed=3)
        out = embed_sequence(small_vocab.encode(["pizza", "slow"]), tables)
        assert out.values.shape == (2, 2 * width)


def test_embed_sequence_rejects_overlong(small_vocab):
    tables = drawn_tables(small_vocab, max_length=2, seed=1)
    with pytest.raises(SequenceLengthError):
        embed_sequence(small_vocab.encode(["good", "good", "good"]), tables)


def test_embedding_gradient_hits_only_looked_up_rows(small_vocab):
    tables = drawn_tables(small_vocab, width=2, seed=5)
    ids = small_vocab.encode(["pizza", "good", "pizza"])
    err = grad_check(
        lambda: ad.reduce_sum(ad.tanh(embed_sequence(ids, tables))),
        [tables.word, tables.position],
    )
    assert err < 1e-6

    ad.zero_grads([tables.word, tables.position])
    with Tape():  # a padding position passes no gradient to its word row
        backward(ad.reduce_sum(embed_sequence(np.append(ids, PAD_ID), tables)))
    assert PAD_ID not in tables.word.grad.rows
    used = set(ids.tolist())
    grad = ad.dense_grad(tables.word)
    for row in range(len(small_vocab)):
        if row not in used:
            np.testing.assert_array_equal(grad[row], np.zeros(2))
    # pizza appears twice: its row accumulates twice
    np.testing.assert_array_equal(
        grad[small_vocab.token_to_id["pizza"]], np.full(2, 2.0)
    )
