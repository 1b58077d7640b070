"""Text metrics: ROUGE-1/2/L.

ROUGE here is the F1 variant with clipped n-gram counts; tokenization for the
CLI is whitespace split with lowercase folding, no stemming or stopword
removal. Every report that embeds these scores states the variant.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

ROUGE_VARIANT = "F1, clipped counts, whitespace tokens, lowercased, no stemming"


@dataclass
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "RougeScore":
        if precision + recall == 0:
            return cls(precision, recall, 0.0)
        return cls(precision, recall, 2 * precision * recall / (precision + recall))


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(reference, hypothesis, n: int) -> RougeScore:
    """Clipped n-gram overlap F1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ref = _ngrams(list(reference), n)
    hyp = _ngrams(list(hypothesis), n)
    if not ref or not hyp:
        return RougeScore(0.0, 0.0, 0.0)
    overlap = sum((ref & hyp).values())
    return RougeScore.from_pr(overlap / sum(hyp.values()), overlap / sum(ref.values()))


def lcs_length(a, b) -> int:
    a, b = list(a), list(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(reference, hypothesis) -> RougeScore:
    ref, hyp = list(reference), list(hypothesis)
    if not ref or not hyp:
        return RougeScore(0.0, 0.0, 0.0)
    l = lcs_length(ref, hyp)
    return RougeScore.from_pr(l / len(hyp), l / len(ref))
