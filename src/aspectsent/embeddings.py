"""Vocabulary handling and concatenated word + position embeddings.

Every token occurrence is represented by its word vector concatenated with
the vector for its absolute position, so a width-d table pair yields
width-2d sequence rows, as a ``Lookup`` that also carries the ids and tables
they were read from. The padding row of the word table is all zeros, and
no gradient reaches it: ``embed_sequence``'s backward adds no row for
``PAD_ID``, and the layers downstream mask padding positions out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import ShapeError, Tensor
from aspectsent.textfile import InputError, read_lines

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

OOV_INIT_BOUND = 0.25  # rows absent from a pretrained file: U(-0.25, 0.25)


class SequenceLengthError(ValueError):
    """A token sequence exceeds the position table's capacity."""


@dataclass
class Vocabulary:
    """Bidirectional token/id map with reserved padding and unknown ids."""

    token_to_id: dict
    id_to_token: list

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array(
            [self.token_to_id.get(t, UNK_ID) for t in tokens], dtype=np.int64
        )


def build_vocabulary(corpus: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Build a vocabulary from token sequences.

    Ids are assigned by descending frequency, ties broken lexicographically,
    after the reserved padding and unknown slots; tokens rarer than
    ``min_count`` map to the unknown id.
    """
    counts = Counter()
    for seq in corpus:
        counts.update(seq)
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    id_to_token = [PAD_TOKEN, UNK_TOKEN] + kept
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )


@dataclass
class EmbeddingTables:
    word: Tensor  # vocab_size x width, padding row zero
    position: Tensor  # max_length x width

    @property
    def width(self) -> int:
        return self.word.values.shape[1]

    @property
    def max_length(self) -> int:
        return self.position.values.shape[0]


def random_tables(
    rows: int, width: int, max_length: int, rng: np.random.Generator
) -> EmbeddingTables:
    """Draw the rows x width word table, then the position table, from
    U(-0.25, 0.25) with ``rng``; the padding row is zeroed."""
    word = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND, size=(rows, width))
    word[PAD_ID] = 0.0
    position = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND, size=(max_length, width))
    return EmbeddingTables(
        word=ad.parameter(word, "word_table"),
        position=ad.parameter(position, "position_table"),
    )


def load_pretrained(path, vocab: Vocabulary, width: int) -> dict:
    """The vocabulary's rows in a whitespace-separated pretrained-vector file,
    as a map of token id to row, for the word table.

    File format: one token per line followed by ``width`` finite decimal
    numbers. A token listed twice keeps its last row, and the padding token
    gets none. Errors name the file and the line.
    """
    where = f"embeddings {path}"
    found = {}
    for line_no, line in read_lines(path, where):
        if not line.strip():
            continue
        parts = line.split()
        token, numbers = parts[0], parts[1:]
        if len(numbers) != width:
            raise InputError(
                f"{where}: line {line_no}: expected {width} values for {token!r}, "
                f"got {len(numbers)}"
            )
        try:
            row = np.array([float(x) for x in numbers], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{where}: line {line_no}: {exc}") from None
        if not np.all(np.isfinite(row)):
            raise InputError(f"{where}: line {line_no}: non-finite value for {token!r}")
        idx = vocab.token_to_id.get(token)
        if idx is not None and idx != PAD_ID:
            found[idx] = row
    return found


class Lookup(Tensor):
    """``embed_sequence``'s rows, with the ``ids`` and ``tables`` it read them from."""

    __slots__ = ("ids", "tables")


def embed_sequence(token_ids, tables: EmbeddingTables) -> Lookup:
    """Map token ids, (T,) or a batch (B, T), to their (..., T, 2d) rows, as one tape op.

    Row t is the word vector of token t concatenated with the vector of
    absolute position t. The backward pass adds into the tables' gradients
    through ``Tensor.accumulate_rows``, the position half summed over the
    batch first, so each table's gradient is row-sparse: the rows the ids
    and positions touched, which ``training.adam_step`` updates alone (the
    tables are outside the L2 term); a ``PAD_ID`` position adds no word row.
    ``bilstm_forward`` adds its own part into the tables, so in ``model``
    this carries ``mean_embedding``'s alone.
    Sequences longer than the position table are a caller error; truncation
    belongs to the data pipeline.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    length, d = ids.shape[-1], tables.width
    if length > tables.max_length:
        raise SequenceLengthError(
            f"sequence length {length} exceeds maximum {tables.max_length}"
        )
    out = np.empty(ids.shape + (2 * d,))
    out[..., :d] = tables.word.values[ids]
    out[..., d:] = tables.position.values[:length]

    def grad_fn(g):
        real = ids != PAD_ID
        tables.word.accumulate_rows(ids[real], g[..., :d][real])
        positions = g[..., d:].reshape(-1, length, d).sum(axis=0)
        tables.position.accumulate_rows(np.arange(length), positions)
        return None, None

    rows = Lookup(out)
    rows.ids, rows.tables = ids, tables
    return ad.record((tables.word, tables.position), rows, grad_fn)


def mean_embedding(rows: Tensor, mask) -> Tensor:
    """The mean of each sequence's unmasked rows, (..., T, n) under a (T,) or (B, T)
    mask to (..., n), as one tape op over ``rows``: weights 1/count on the unmasked
    positions (zero for a fully masked row), one (1, T) @ (T, n) product each."""
    rv, mask = rows.values, np.asarray(mask)
    if mask.ndim not in (1, 2) or rv.shape[:-1] != mask.shape:
        raise ShapeError(f"mean_embedding: mask {mask.shape} does not match rows {rv.shape}")
    w = mask / np.maximum(np.count_nonzero(mask, axis=-1, keepdims=True), 1)

    def grad_fn(g):
        return (w[..., None] * g[..., None, :],)

    return ad.record((rows,), np.matmul(w[..., None, :], rv)[..., 0, :], grad_fn)
