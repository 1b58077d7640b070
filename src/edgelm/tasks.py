"""Synthetic corpus for the benchmarks: needle retrieval.

The needle task builds a long low-entropy filler context with one planted
key/value fact and a trailing query that repeats the key. The value span is a
single token repeated, so attention-score policies treat it coherently; the
span boundaries are returned for retention scoring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUERY_MARKER = 2
KEY_RANGE = (64, 128)
VALUE_RANGE = (128, 256)
FILLER_RANGE = (16, 64)


@dataclass
class NeedleSample:
    tokens: list[int]
    needle_start: int          # first token of the planted fact (key)
    answer_start: int          # first token of the value span
    answer_end: int            # one past the value span
    key_tokens: list[int]
    value_token: int


def gen_needle(context_len: int, needle_pos: int, seed: int,
               key_len: int = 2, value_len: int = 8) -> NeedleSample:
    """Deterministic filler with one key/value fact and a trailing query."""
    needle_len = key_len + value_len
    query_len = 1 + key_len
    if not (0 <= needle_pos < context_len):
        raise ValueError("needle_pos must lie inside the context")
    if needle_pos + needle_len + query_len > context_len:
        raise ValueError("needle + query do not fit in the context")
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 0x6E]))
    filler = int(rng.integers(*FILLER_RANGE))
    key = [int(t) for t in rng.integers(*KEY_RANGE, size=key_len)]
    value = int(rng.integers(*VALUE_RANGE))
    tokens = [filler] * context_len
    for i, t in enumerate(key):
        tokens[needle_pos + i] = t
    for i in range(value_len):
        tokens[needle_pos + key_len + i] = value
    query = [QUERY_MARKER] + key
    tokens[-query_len:] = query
    return NeedleSample(tokens=tokens, needle_start=needle_pos,
                        answer_start=needle_pos + key_len,
                        answer_end=needle_pos + key_len + value_len,
                        key_tokens=key, value_token=value)
