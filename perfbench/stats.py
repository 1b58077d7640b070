"""Arithmetic behind the reported figures: percentiles, token rates, match shares."""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# Percentiles in per mille, so the "ten samples beyond" test stays in integers
# (100 * (1 - 0.9) is 9.999999999999998 in floating point).
_LADDER_PERMILLE = (500, 900, 950, 990, 999)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_permille(n: int) -> Optional[int]:
    """Highest ladder percentile (per mille) with at least ten samples beyond it.

    ``None`` when even the median lacks ten samples above it (n < 20).
    """
    best = None
    for p in _LADDER_PERMILLE:
        if n * (1000 - p) >= MIN_BEYOND * 1000:
            best = p
    return best


def summarize(values: Sequence[float]) -> dict:
    """p10, quartiles, mean, the supported tail percentile, and the sample count."""
    n = len(values)
    out: dict = {"n": n}
    if n:
        out.update(p10=percentile(values, 10), p25=percentile(values, 25),
                   p50=percentile(values, 50),
                   p75=percentile(values, 75), mean=float(np.mean(values)))
    p = tail_permille(n)
    if p is not None:
        out["tail"] = {"percentile": p / 10, "value": percentile(values, p / 10)}
    return out


def token_gaps(t0: float, stamps: Sequence[tuple[float, int]]
               ) -> tuple[float, list[float]]:
    """Time to first token and per-token gaps from (time, tokens emitted) stamps.

    Every stamp after the first spreads its wall time since the previous stamp
    evenly over the tokens it emitted, so one-token steps give plain gaps and a
    speculative round of n tokens gives n samples of (round time / n). Tokens
    emitted together with the first token belong to the time to first token.
    """
    if not stamps:
        raise ValueError("a request emitted no tokens")
    ttft = stamps[0][0] - t0
    gaps: list[float] = []
    for (prev, _), (now, emitted) in zip(stamps, stamps[1:]):
        gaps.extend([(now - prev) / emitted] * emitted)
    return ttft, gaps


def tokens_per_second(generated: int, wall_s: float) -> float:
    if wall_s <= 0:
        raise ValueError("tokens per second needs a positive wall time")
    return generated / wall_s


def match_share(outputs: Sequence[Sequence[int]],
                references: Sequence[Sequence[int]]) -> float:
    """Share of generated tokens equal, position by position, to the reference."""
    equal = total = 0
    for out, ref in zip(outputs, references, strict=True):
        if len(out) != len(ref):
            raise ValueError("output and reference lengths differ")
        equal += sum(int(a == b) for a, b in zip(out, ref))
        total += len(ref)
    if total == 0:
        raise ValueError("match share of zero tokens")
    return equal / total
