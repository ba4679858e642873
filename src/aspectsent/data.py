"""Data pipeline: ingest rated reviews, normalize text, binarize ratings,
split, and batch.

Input corpora are JSON-lines files, one review per line:

    {"text": "...", "overall": 4, "aspects": {"Food": 5, "Service": 2}}

Aspect keys must come from the configured aspect list; aspects may be
omitted (unrated) but never duplicated. A "domain" field is accepted and
ignored. Star ratings 1-3 map to negative,
4-5 to positive.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Optional, Sequence

import numpy as np

from aspectsent.embeddings import PAD_ID, Vocabulary
from aspectsent.textfile import InputError, read_lines

RESTAURANT_ASPECTS = ["Food", "Service", "Value", "Atmosphere"]
HOTEL_ASPECTS = ["Room", "Location", "Value", "Cleanliness"]
DOMAIN_ASPECTS = {"restaurant": RESTAURANT_ASPECTS, "hotel": HOTEL_ASPECTS}

MIN_TOKENS = 3


@dataclass
class RawReview:
    text: str
    overall_rating: int
    aspect_ratings: list  # Optional[int] per configured aspect
    line: int = 0  # 1-based line of the corpus file; 0 when not read from one


@dataclass
class ProcessedExample:
    """One encoded review, or a batch record of B of them made by ``collate``,
    whose ids are padded with ``PAD_ID``; an unrated aspect's label is -1."""

    token_ids: np.ndarray  # int64 (T,), or (B, T)
    mask: np.ndarray  # bool (T,), all True as encoded, or (B, T)
    overall_label: object  # int, or (B,) ints
    aspect_labels: np.ndarray  # int64 (K,), -1 where unrated, or (B, K)
    tokens: list  # surviving token strings, or one list per review


@dataclass
class DatasetSplit:
    train: list
    validation: list
    test: list
    seed: int

    def parts(self):
        return {"train": self.train, "validation": self.validation, "test": self.test}


def binarize(rating: int):
    """Map a 1-5 star rating to binary polarity: 1-3 negative, 4-5 positive."""
    if not isinstance(rating, int) or isinstance(rating, bool) or not 1 <= rating <= 5:
        raise InputError(f"rating {rating!r} outside 1..5")
    return 1 if rating >= 4 else 0


def _check_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise InputError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def ingest(path, aspect_names: Sequence[str]) -> list:
    """Parse a JSON-lines corpus into raw reviews, in file order.

    Errors name the file and the line.
    """
    where = f"corpus {path}"
    reviews = []
    for line_no, line in read_lines(path, where):
        if not line.strip():
            continue
        try:
            record = json.loads(line, object_pairs_hook=_check_duplicate_keys)
            reviews.append(_validate_record(record, aspect_names, line_no))
        except ValueError as exc:
            raise InputError(f"{where}: line {line_no}: {exc}") from None
    return reviews


def _validate_record(record, aspect_names, line_no: int) -> RawReview:
    if not isinstance(record, dict):
        raise InputError("record is not an object")
    if "text" not in record or not isinstance(record["text"], str):
        raise InputError("missing or non-string 'text'")
    if "overall" not in record:
        raise InputError("missing 'overall' rating")
    overall = record["overall"]
    binarize(overall)  # range check only
    aspects = record.get("aspects", {})
    if not isinstance(aspects, dict):
        raise InputError("'aspects' must be a map")
    unknown = set(aspects) - set(aspect_names)
    if unknown:
        raise InputError(f"unknown aspect keys {sorted(unknown)}")
    ratings = []
    for name in aspect_names:
        if name in aspects:
            binarize(aspects[name])
            ratings.append(aspects[name])
        else:
            ratings.append(None)
    extra = set(record) - {"text", "overall", "aspects", "domain"}
    if extra:
        raise InputError(f"unknown fields {sorted(extra)}")
    return RawReview(
        text=record["text"],
        overall_rating=overall,
        aspect_ratings=ratings,
        line=line_no,
    )


# ---------------------------------------------------------------------------
# text normalization

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")

# Suffix-stripping rules tried in order; the first whose suffix matches and
# leaves at least min_stem characters is applied, once.
_SUFFIX_RULES = (
    ("sses", "ss", 2),
    ("ies", "i", 2),
    ("ing", "", 3),
    ("edly", "", 3),
    ("ed", "", 3),
    ("ly", "", 3),
    ("s", "", 2),
)


@functools.cache
def stem(token: str) -> str:
    """Deterministic suffix stripper; rough but stable across runs."""
    if token.endswith("ss") or token.endswith("us"):
        return token
    for suffix, replacement, min_stem in _SUFFIX_RULES:
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: -len(suffix)] + replacement
    return token


def load_stopwords() -> frozenset:
    text = resources.files("aspectsent").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


@dataclass(frozen=True)
class PreprocessRules:
    stop_words: frozenset
    max_length: int
    min_tokens: int = MIN_TOKENS

    @staticmethod
    def default(max_length: int = 256) -> "PreprocessRules":
        return PreprocessRules(stop_words=load_stopwords(), max_length=max_length)

    def record(self) -> dict:
        """What a checkpoint stores to refuse other preprocessing; max_length is in its config."""
        digest = hashlib.sha256("\n".join(sorted(self.stop_words)).encode("utf-8")).hexdigest()
        return {"min_tokens": self.min_tokens, "stop_words_sha256": digest}


def tokenize(text: str, rules: PreprocessRules) -> list:
    """Lowercase, split on non-alphanumeric runs, drop stop words, stem."""
    pieces = [p for p in _TOKEN_SPLIT.split(text.lower()) if p]
    return [stem(p) for p in pieces if p not in rules.stop_words]


@dataclass
class PreprocessedReview:
    tokens: list
    overall_label: int
    aspect_labels: list
    line: int = 0  # the source review's line


def preprocess(review: RawReview, rules: PreprocessRules) -> Optional[PreprocessedReview]:
    """Normalize one review; returns None when too few tokens survive."""
    tokens = tokenize(review.text, rules)
    if len(tokens) < rules.min_tokens:
        return None
    tokens = tokens[: rules.max_length]
    return PreprocessedReview(
        tokens=tokens,
        overall_label=binarize(review.overall_rating),
        aspect_labels=[
            None if r is None else binarize(r) for r in review.aspect_ratings
        ],
        line=review.line,
    )


def preprocess_corpus(reviews: Sequence[RawReview], rules: PreprocessRules) -> list:
    out = []
    for review in reviews:
        processed = preprocess(review, rules)
        if processed is not None:
            out.append(processed)
    return out


# ---------------------------------------------------------------------------
# splitting, encoding, batching


def split(examples: Sequence, seed: int) -> DatasetSplit:
    """Seeded uniform shuffle followed by a contiguous 60/20/20 cut."""
    n = len(examples)
    if n < 5:
        raise InputError(f"need at least 5 examples to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [examples[i] for i in order]
    n_train = (6 * n + 5) // 10
    n_val = (2 * n + 5) // 10
    return DatasetSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
        seed=seed,
    )


def encode_example(review: PreprocessedReview, vocab: Vocabulary) -> ProcessedExample:
    ids = vocab.encode(review.tokens)
    return ProcessedExample(
        token_ids=ids,
        mask=np.ones(len(ids), dtype=bool),
        overall_label=review.overall_label,
        aspect_labels=np.array(
            [-1 if label is None else label for label in review.aspect_labels], dtype=np.int64
        ),
        tokens=list(review.tokens),
    )


def collate(examples: Sequence[ProcessedExample]) -> ProcessedExample:
    """One batch record of the examples, each padded at its end with ``PAD_ID``
    to the longest and masked there; ``examples`` must not be empty."""
    if not examples:
        raise ValueError("collate: no examples")
    ids = np.full((len(examples), max(len(ex.token_ids) for ex in examples)), PAD_ID)
    mask = np.zeros(ids.shape, dtype=bool)
    for row, ex in enumerate(examples):
        ids[row, : len(ex.token_ids)] = ex.token_ids
        mask[row, : len(ex.mask)] = ex.mask
    return ProcessedExample(ids, mask, np.array([ex.overall_label for ex in examples]),
                            np.stack([ex.aspect_labels for ex in examples]),
                            [ex.tokens for ex in examples])


def batch_iter(
    examples: Sequence[ProcessedExample], batch_size: int, rng: np.random.Generator
) -> Iterator[list]:
    """One epoch of shuffled batches of the examples themselves, unpadded;
    ``collate`` makes each batch one padded record."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = rng.permutation(len(examples))
    for start in range(0, len(examples), batch_size):
        yield [examples[i] for i in order[start : start + batch_size]]
