"""Shared synthetic review corpora for tests.

Each review carries exactly one sentiment-bearing token per aspect; the
aspect rating follows that token deterministically and the overall rating
is positive only when every aspect is. This makes tiny corpora separable,
with per-aspect supervision that is genuinely informative.
"""

import numpy as np

from aspectsent.data import (
    DatasetSplit,
    PreprocessRules,
    RawReview,
    encode_example,
    preprocess_corpus,
    split,
)
from aspectsent.embeddings import build_vocabulary
from aspectsent.model import ModelConfig

ASPECT_TOKENS = {
    "food": ("tasty", "bland"),
    "service": ("friendly", "rude"),
}
FILLERS = ["pizza", "table", "menu", "plate", "fork", "window", "chair", "lunch"]


def tiny_model_config(**overrides) -> ModelConfig:
    base = dict(
        aspect_names=list(ASPECT_TOKENS),
        embedding_width=8,
        cell_width=8,
        max_length=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


def synthetic_reviews(n: int, seed: int, unrated_fraction: float = 0.0):
    rng = np.random.default_rng(seed)
    reviews = []
    for _ in range(n):
        polarity = {name: int(rng.integers(2)) for name in ASPECT_TOKENS}
        words = list(rng.choice(FILLERS, size=int(rng.integers(3, 6)), replace=True))
        for name, (positive, negative) in ASPECT_TOKENS.items():
            words.insert(
                int(rng.integers(len(words) + 1)),
                positive if polarity[name] else negative,
            )
        ratings = []
        for name in ASPECT_TOKENS:
            if unrated_fraction and rng.random() < unrated_fraction:
                ratings.append(None)
            else:
                ratings.append(5 if polarity[name] else 2)
        overall = 5 if all(polarity.values()) else 2
        reviews.append(RawReview(" ".join(words), overall, ratings))
    return reviews


def write_jsonl(path, reviews):
    import json

    names = list(ASPECT_TOKENS)
    with open(path, "w", encoding="utf-8") as fh:
        for review in reviews:
            record = {
                "text": review.text,
                "overall": review.overall_rating,
                "aspects": {
                    name: rating
                    for name, rating in zip(names, review.aspect_ratings)
                    if rating is not None
                },
            }
            fh.write(json.dumps(record) + "\n")
    return path


def synthetic_split(
    n: int, seed: int, unrated_fraction: float = 0.0, config: ModelConfig = None
):
    config = config or tiny_model_config()
    rules = PreprocessRules.default(max_length=config.max_length)
    processed = preprocess_corpus(synthetic_reviews(n, seed, unrated_fraction), rules)
    parts = split(processed, seed=seed)
    vocab = build_vocabulary([p.tokens for p in parts.train])
    encoded = DatasetSplit(
        train=[encode_example(p, vocab) for p in parts.train],
        validation=[encode_example(p, vocab) for p in parts.validation],
        test=[encode_example(p, vocab) for p in parts.test],
        seed=seed,
    )
    return encoded, vocab, config
