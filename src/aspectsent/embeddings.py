"""Vocabulary handling and concatenated word + position embeddings.

Every token occurrence is represented by its word vector concatenated with
the vector for its absolute position, so a width-d table pair yields
width-2d sequence rows. The padding row of the word table is all zeros and
is never updated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from aspectsent import autodiff as ad
from aspectsent.autodiff import Tensor

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

OOV_INIT_BOUND = 0.25  # rows absent from a pretrained file: U(-0.25, 0.25)


class EmbeddingParseError(ValueError):
    """A pretrained-vector file line could not be parsed."""


class EmbeddingConfigError(ValueError):
    """A pretrained-vector file disagrees with the configured width."""


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

    def decode(self, ids: Iterable[int]) -> list:
        return [self.id_to_token[int(i)] for i in ids]


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
    word: Tensor  # vocab_size x width, padding row frozen at zero
    position: Tensor  # max_length x width

    @property
    def width(self) -> int:
        return self.word.values.shape[1]

    @property
    def max_length(self) -> int:
        return self.position.values.shape[0]


def random_tables(
    vocab, width: int, max_length: int, seed: int
) -> EmbeddingTables:
    """Draw both tables from U(-0.25, 0.25); the padding row is zeroed.

    ``vocab`` may be a Vocabulary or a plain row count.
    """
    size = vocab if isinstance(vocab, int) else len(vocab)
    rng = np.random.default_rng(seed)
    word = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND, size=(size, width))
    word[PAD_ID] = 0.0
    position = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND, size=(max_length, width))
    return EmbeddingTables(
        word=ad.parameter(word, "word_table"),
        position=ad.parameter(position, "position_table"),
    )


def load_pretrained(
    path, vocab: Vocabulary, width: int, max_length: int, seed: int
) -> EmbeddingTables:
    """Build tables from a whitespace-separated pretrained-vector file.

    File format: one token per line followed by ``width`` decimal numbers.
    Tokens present in the file copy their file row exactly; all other rows
    (and the whole position table) are drawn from U(-0.25, 0.25) under the
    given seed, and the padding row is zeroed.
    """
    tables = random_tables(vocab, width, max_length, seed)
    word = tables.word.values
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            token, numbers = parts[0], parts[1:]
            if len(numbers) != width:
                raise EmbeddingConfigError(
                    f"line {line_no}: expected {width} values for {token!r}, "
                    f"got {len(numbers)}"
                )
            try:
                row = np.array([float(x) for x in numbers], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError(f"line {line_no}: {exc}") from None
            idx = vocab.token_to_id.get(token)
            if idx is not None and idx != PAD_ID:
                word[idx] = row
    return tables


def embed_sequence(token_ids, tables: EmbeddingTables) -> Tensor:
    """Map a token-id sequence to its T x 2d embedding matrix.

    Row t is the word vector of token t concatenated with the vector of
    absolute position t. Sequences longer than the position table are a
    caller error; truncation belongs to the data pipeline.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.shape[0] > tables.max_length:
        raise SequenceLengthError(
            f"sequence length {ids.shape[0]} exceeds maximum {tables.max_length}"
        )
    word_rows = ad.gather_rows(tables.word, ids)
    pos_rows = ad.gather_rows(tables.position, np.arange(ids.shape[0]))
    return ad.concat([word_rows, pos_rows], axis=1)
