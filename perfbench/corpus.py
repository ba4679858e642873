"""Seeded synthetic restaurant-review corpora.

Every review carries exactly one cue token per aspect, and that aspect's
star rating follows its cue, as in the test corpora. The other tokens are
fillers drawn from a Zipf-Mandelbrot distribution over a made-up lexicon.
Review lengths are stratified over the workload's range, so the set of
lengths is the same for every seed; the seed only changes which tokens
appear and in which order.

Lexicon words are consonant-vowel syllables and end in a vowel, so no
stemming rule applies to them; stop words are filtered out. The generator
checks with the program's own tokenizer that every token survives
preprocessing unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count, islice, product

import numpy as np

from aspectsent import data

CUES = {
    "Food": ("tasty", "bland"),
    "Service": ("attentive", "rude"),
    "Value": ("cheap", "pricey"),
    "Atmosphere": ("cozy", "noisy"),
}
SYLLABLES = [c + v for c in "bdfgklmnprtvz" for v in "aeiou"]
ZIPF_SHIFT = 2.7  # Mandelbrot offset: flattens the head of the rank curve
VOCAB_TOLERANCE = 0.05


class CorpusError(RuntimeError):
    """The generated corpus misses a property the workload relies on."""


def lexicon(size: int, rules: data.PreprocessRules) -> list:
    """The first ``size`` syllable words that preprocessing leaves unchanged."""
    cues = [token for pair in CUES.values() for token in pair]
    reserved = rules.stop_words | set(cues)
    words = (
        "".join(parts)
        for n in count(2)
        for parts in product(SYLLABLES, repeat=n)
    )
    out = list(islice((w for w in words if w not in reserved), size))
    if data.tokenize(" ".join(out + cues), rules) != out + cues:
        raise CorpusError("a lexicon or cue word is changed by data.tokenize")
    return out


def _zipf(size: int) -> np.ndarray:
    weights = 1.0 / (np.arange(size) + 1 + ZIPF_SHIFT)
    return weights / weights.sum()


def lexicon_size_for(distinct: int, draws: float) -> int:
    """Lexicon size at which ``draws`` Zipf draws are expected to show
    ``distinct`` different words, to within 0.1%.

    The expected number of distinct words grows with the lexicon size, so a
    bisection finds it.
    """
    def expected(size):
        return float(np.sum(-np.expm1(-draws * _zipf(size))))

    lo, hi = distinct, distinct * 2
    while expected(hi) < distinct:
        lo, hi = hi, hi * 2
        if hi > 64 * distinct:
            raise CorpusError(f"{draws:.0f} draws cannot show {distinct} distinct words")
    while hi - lo > max(1, lo // 1000):
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if expected(mid) < distinct else (lo, mid)
    return hi


@dataclass
class Corpus:
    lines: list  # token list per JSONL line, in file order
    lengths: np.ndarray

    def line_of(self) -> dict:
        """Map a review's token tuple to its 1-based line number."""
        return {tuple(tokens): i + 1 for i, tokens in enumerate(self.lines)}


def stratified_lengths(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """One length from each of n equal slices of [lo, hi], in seeded order."""
    width = hi - lo + 1
    lengths = lo + np.floor((np.arange(n) + rng.random(n)) * width / n).astype(np.int64)
    return rng.permutation(lengths)


def draw_reviews(rng, words: list, lengths) -> Corpus:
    """Reviews of the given lengths, each with one cue token per aspect."""
    counts = np.asarray(lengths) - len(CUES)
    draws = rng.choice(len(words), size=int(counts.sum()), p=_zipf(len(words)))
    ends = np.cumsum(counts)
    lines = []
    for end, n in zip(ends, counts):
        tokens = [words[i] for i in draws[end - n : end]]
        for positive, negative in CUES.values():
            cue = positive if rng.integers(2) else negative
            tokens.insert(int(rng.integers(len(tokens) + 1)), cue)
        lines.append(tokens)
    return Corpus(lines, np.asarray(lengths))


def write_jsonl(path, corpus: Corpus) -> None:
    """One record per review: each aspect rated by its cue, overall by majority."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens in corpus.lines:
            aspects = {
                aspect: 5 if positive in tokens else 2
                for aspect, (positive, _) in CUES.items()
            }
            positives = sum(r >= 4 for r in aspects.values())
            overall = 5 if 2 * positives > len(aspects) else 2
            record = {"text": " ".join(tokens), "overall": overall, "aspects": aspects}
            fh.write(json.dumps(record) + "\n")


def check_vocabulary(size: int, target: int) -> None:
    if abs(size - target) > VOCAB_TOLERANCE * target:
        raise CorpusError(
            f"vocabulary reached {size} words, more than {VOCAB_TOLERANCE:.0%} "
            f"away from the target {target}"
        )
