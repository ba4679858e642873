import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectsent.data import (
    RESTAURANT_ASPECTS,
    CorpusParseError,
    CorpusValidationError,
    PreprocessRules,
    RawReview,
    SplitConfigError,
    batch_iter,
    binarize,
    encode_example,
    ingest,
    preprocess,
    preprocess_corpus,
    split,
    tokenize,
)
from aspectsent.embeddings import build_vocabulary


@pytest.fixture(scope="module")
def rules():
    return PreprocessRules.default(max_length=16)


def write_corpus(tmp_path, records):
    path = tmp_path / "reviews.jsonl"
    path.write_text("\n".join(records) + "\n")
    return path


def test_ingest_partial_aspects(tmp_path):
    record = json.dumps(
        {"text": "Great pizza", "overall": 5,
         "aspects": {"Food": 5, "Service": 4, "Value": 2}}
    )
    reviews = ingest(write_corpus(tmp_path, [record]), RESTAURANT_ASPECTS)
    assert len(reviews) == 1
    assert reviews[0].aspect_ratings == [5, 4, 2, None]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest(path, RESTAURANT_ASPECTS) == []


def test_ingest_duplicate_aspect_key(tmp_path):
    record = '{"text": "x", "overall": 4, "aspects": {"Food": 5, "Food": 4}}'
    with pytest.raises(CorpusValidationError, match="line 1"):
        ingest(write_corpus(tmp_path, [record]), RESTAURANT_ASPECTS)


def test_ingest_malformed_line_numbered(tmp_path):
    good = json.dumps({"text": "x", "overall": 4})
    with pytest.raises(CorpusParseError, match="line 2"):
        ingest(write_corpus(tmp_path, [good, "not json"]), RESTAURANT_ASPECTS)


def test_ingest_rating_out_of_range(tmp_path):
    record = json.dumps({"text": "x", "overall": 6})
    with pytest.raises(CorpusValidationError, match="line 1"):
        ingest(write_corpus(tmp_path, [record]), RESTAURANT_ASPECTS)


def test_ingest_unknown_aspect_key(tmp_path):
    record = json.dumps({"text": "x", "overall": 4, "aspects": {"Pool": 3}})
    with pytest.raises(CorpusValidationError, match="Pool"):
        ingest(write_corpus(tmp_path, [record]), RESTAURANT_ASPECTS)


def test_binarize_mapping():
    assert [binarize(r) for r in (1, 2, 3, 4, 5)] == [0, 0, 0, 1, 1]


def test_binarize_rejects_out_of_range():
    for bad in (0, 6, -1):
        with pytest.raises(CorpusValidationError):
            binarize(bad)


def test_preprocess_drops_short_reviews(rules):
    review = RawReview("The food was GREAT!!", 5, [None] * 4)
    assert preprocess(review, rules) is None
    assert tokenize("The food was GREAT!!", rules) == ["food", "great"]


def test_preprocess_keeps_content_tokens(rules):
    review = RawReview("Great pizza, terrible service, long wait", 2, [None] * 4)
    processed = preprocess(review, rules)
    assert processed is not None
    assert len(processed.tokens) == 5
    ex = encode_example(processed, build_vocabulary([processed.tokens]))
    np.testing.assert_array_equal(ex.mask, np.ones(5, dtype=bool))


def test_preprocess_deterministic(rules):
    review = RawReview("Tasty soup and friendly staff today", 4, [None] * 4)
    a = preprocess(review, rules)
    b = preprocess(review, rules)
    assert a.tokens == b.tokens


def test_preprocess_truncates_to_max_length():
    rules = PreprocessRules.default(max_length=4)
    review = RawReview("alpha bravo charlie delta echo foxtrot golf", 4, [])
    assert len(preprocess(review, rules).tokens) == 4


def test_preprocess_binarizes_labels(rules):
    review = RawReview("tasty pizza crispy crust", 5, [3, 4, None, 1])
    processed = preprocess(review, rules)
    assert processed.overall_label == 1
    assert processed.aspect_labels == [0, 1, None, 0]


def test_split_exact_sizes():
    for n, expected in ((10, (6, 2, 2)), (101, (61, 20, 20)), (1000, (600, 200, 200))):
        parts = split(list(range(n)), seed=3)
        sizes = (len(parts.train), len(parts.validation), len(parts.test))
        assert sizes == expected


def test_split_deterministic_and_disjoint():
    data = list(range(100))
    a = split(data, seed=5)
    b = split(data, seed=5)
    assert a.train == b.train and a.validation == b.validation and a.test == b.test
    assert sorted(a.train + a.validation + a.test) == data


def test_split_different_seeds_differ():
    data = list(range(100))
    assert split(data, seed=1).train != split(data, seed=2).train


def test_split_too_few_examples():
    with pytest.raises(SplitConfigError):
        split([1, 2, 3, 4], seed=0)


def make_examples(rules, n, length=4):
    words = ["pizza", "soup", "crust", "staff", "menu", "table"]
    reviews = [
        RawReview(" ".join(words[(i + j) % len(words)] for j in range(length)), 4, [])
        for i in range(n)
    ]
    processed = preprocess_corpus(reviews, rules)
    vocab = build_vocabulary([p.tokens for p in processed])
    return [encode_example(p, vocab) for p in processed]


def test_batch_iter_sizes_and_partition(rules):
    examples = make_examples(rules, 5)
    batches = list(batch_iter(examples, 2, np.random.default_rng(0)))
    assert [len(b) for b in batches] == [2, 2, 1]
    seen = sorted(
        tuple(ex.token_ids[ex.mask].tolist()) for batch in batches for ex in batch
    )
    expected = sorted(tuple(ex.token_ids.tolist()) for ex in examples)
    assert seen == expected


def test_batch_iter_pads_to_batch_longest(rules):
    review_a = RawReview("tasty pizza crispy crust", 4, [])
    review_b = RawReview("friendly staff warm soup cold beer fresh bread", 5, [])
    processed = preprocess_corpus([review_a, review_b], rules)
    vocab = build_vocabulary([p.tokens for p in processed])
    examples = [encode_example(p, vocab) for p in processed]
    (batch,) = list(batch_iter(examples, 2, np.random.default_rng(1)))
    longest = max(len(p.tokens) for p in processed)
    for ex in batch:
        assert len(ex.token_ids) == longest
        assert ex.mask.sum() == len(ex.tokens)


def test_round_trip_ids_to_tokens(rules):
    examples = make_examples(rules, 3)
    vocab = build_vocabulary([ex.tokens for ex in examples])
    for ex in examples:
        ids = vocab.encode(ex.tokens)
        assert vocab.decode(ids) == ex.tokens


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_binarize_total_on_valid_range(rating):
    assert binarize(rating) == (1 if rating >= 4 else 0)
