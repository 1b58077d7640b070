"""Forward evaluation of the alignment and reward formulas.

Preference / quality / generation losses and their weighted joint form, the
reward-shift moving average, entity-weighted cross-entropy, caption rewards,
rollout-difficulty selection, preference-pair similarity filtering, and the
interleaved-document image repositioning transform.

All log-sigmoid terms go through logaddexp, so losses stay finite for margins
up to 1e4 and beyond.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError


def log_sigmoid(z) -> np.ndarray:
    return -np.logaddexp(0.0, -np.asarray(z, dtype=np.float64))


# --- preference optimization -------------------------------------------------

@dataclass
class PrefBatch:
    """Sequence log-prob sums of chosen/rejected responses under the policy
    and the frozen reference."""
    lp_theta_c: np.ndarray
    lp_0_c: np.ndarray
    lp_theta_r: np.ndarray
    lp_0_r: np.ndarray

    def __post_init__(self):
        arrs = [np.atleast_1d(np.asarray(a, dtype=np.float64))
                for a in (self.lp_theta_c, self.lp_0_c, self.lp_theta_r, self.lp_0_r)]
        if len({a.shape for a in arrs}) != 1:
            raise ValueError("log-prob arrays must share a shape")
        if not all(np.all(np.isfinite(a)) for a in arrs):
            raise ValueError("log-probs must be finite")
        self.lp_theta_c, self.lp_0_c, self.lp_theta_r, self.lp_0_r = arrs

    @property
    def chosen_log_ratio(self) -> np.ndarray:
        return self.lp_theta_c - self.lp_0_c

    @property
    def rejected_log_ratio(self) -> np.ndarray:
        return self.lp_theta_r - self.lp_0_r


@dataclass
class MpoWeights:
    w_p: float = 1.0
    w_q: float = 1.0
    w_g: float = 1.0
    beta: float = 0.1
    delta: float = 0.0

    def __post_init__(self):
        if self.w_p < 0 or self.w_q < 0 or self.w_g < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.w_p + self.w_q + self.w_g == 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")


def mpo_preference_loss(batch: PrefBatch, beta: float) -> float:
    """Mean of -log sigmoid(beta * (chosen log-ratio - rejected log-ratio))."""
    margin = batch.chosen_log_ratio - batch.rejected_log_ratio
    return float(np.mean(-log_sigmoid(beta * margin)))


def mpo_quality_loss(batch: PrefBatch, beta: float, delta: float) -> float:
    """Absolute-quality loss: chosen pushed above and rejected below the
    reward shift delta."""
    term_c = -log_sigmoid(beta * batch.chosen_log_ratio - delta)
    term_r = -log_sigmoid(-(beta * batch.rejected_log_ratio - delta))
    return float(np.mean(term_c + term_r))


def generation_loss(token_logprobs) -> float:
    """Negative sum of per-token log-probabilities (sum, not mean)."""
    lps = np.asarray(token_logprobs, dtype=np.float64)
    if lps.size == 0:
        raise ValueError("token_logprobs must be nonempty")
    if not np.isfinite(lps).all():
        raise ValueError("token_logprobs must be finite")
    return float(-np.sum(lps))


def mpo_joint_loss(batch: PrefBatch, weights: MpoWeights,
                   token_logprobs) -> tuple[float, dict]:
    l_p = mpo_preference_loss(batch, weights.beta)
    l_q = mpo_quality_loss(batch, weights.beta, weights.delta)
    l_g = generation_loss(token_logprobs)
    total = weights.w_p * l_p + weights.w_q * l_q + weights.w_g * l_g
    return total, {"preference": l_p, "quality": l_q, "generation": l_g}


def reward_shift_update(delta_prev: float, new_reward: float,
                        momentum: float) -> float:
    """Exponential moving average of rewards."""
    if not (0 <= momentum < 1):
        raise ValueError("momentum must be in [0, 1)")
    return momentum * delta_prev + (1 - momentum) * new_reward


# --- scenario-adapter losses and rewards -------------------------------------

def entity_weighted_ce(sequences) -> float:
    """-(1/N) sum_i sum_t alpha_{i,t} * logprob_{i,t}.

    `sequences` is a list of (token_logprobs, alphas) pairs; every alpha must
    be >= 1 (entity tokens get > 1, the rest exactly 1).
    """
    sequences = list(sequences)
    if not sequences:
        raise ValueError("need at least one sequence")
    total = 0.0
    for lps, alphas in sequences:
        lps = np.asarray(lps, dtype=np.float64)
        alphas = np.asarray(alphas, dtype=np.float64)
        if lps.shape != alphas.shape:
            raise ValueError("logprobs and alphas must have matching lengths")
        if not (np.isfinite(lps).all() and np.isfinite(alphas).all()):
            raise ValueError("logprobs and entity weights must be finite")
        if np.any(alphas < 1):
            raise ValueError("entity weights must be >= 1")
        total += -np.sum(alphas * lps)
    return total / len(sequences)


@dataclass
class CaptionStats:
    tokens: list[str]
    entity_flags: list[bool]
    has_color: bool = False
    has_number: bool = False

    def __post_init__(self):
        if len(self.tokens) != len(self.entity_flags):
            raise ValueError("entity_flags must align with tokens")


def entity_density_reward(stats: CaptionStats) -> float:
    if not stats.tokens:
        raise ValueError("caption must be nonempty")
    return sum(stats.entity_flags) / len(stats.tokens)


def key_info_reward(stats: CaptionStats, beta1: float, beta2: float) -> float:
    return beta1 * float(stats.has_color) + beta2 * float(stats.has_number)


def total_reward(r_entity: float, r_info: float, r_quality: float,
                 lambda1: float, lambda2: float, lambda3: float) -> float:
    return lambda1 * r_entity + lambda2 * r_info + lambda3 * r_quality


def caption_stats(text: str, entity_lexicon, color_words=None) -> CaptionStats:
    """Lexicon-driven caption analysis (the detectors are caller-supplied)."""
    words = text.lower().split()
    lex = {w.lower() for w in entity_lexicon}
    colors = {w.lower() for w in (color_words or ())}
    flags = [w.strip(".,!?") in lex for w in words]
    has_color = any(w.strip(".,!?") in colors for w in words)
    has_number = any(any(ch.isdigit() for ch in w) for w in words)
    return CaptionStats(tokens=words, entity_flags=flags,
                        has_color=has_color, has_number=has_number)


# --- rollout difficulty selection --------------------------------------------

@dataclass
class RolloutRecord:
    sample_id: str
    n_rollouts: int
    n_correct: int

    def __post_init__(self):
        if self.n_rollouts < 1:
            raise ValueError("n_rollouts must be positive")
        if not (0 <= self.n_correct <= self.n_rollouts):
            raise ValueError("n_correct must be within [0, n_rollouts]")


def select_by_difficulty(records, lo: int = 1, hi: int = 4,
                         invert: bool = False) -> list[RolloutRecord]:
    """Keep records whose score (n_correct, or rollouts - correct when
    inverted) lies in [lo, hi]; drops the too-hard and too-easy extremes."""
    records = list(records)
    if records:
        n = records[0].n_rollouts
        if not (0 <= lo <= hi <= n):
            raise ValueError(f"bounds must satisfy 0 <= lo <= hi <= {n}")
    out = []
    for rec in records:
        score = rec.n_rollouts - rec.n_correct if invert else rec.n_correct
        if lo <= score <= hi:
            out.append(rec)
    return out


# --- preference-pair similarity filtering ------------------------------------

@dataclass
class PairSim:
    sim_chosen_rejected: float
    sim_rejected_gt: float

    def __post_init__(self):
        for v in (self.sim_chosen_rejected, self.sim_rejected_gt):
            if not (0 <= v <= 1):
                raise ValueError("similarity scores must be in [0, 1]")


class FilterDecision(NamedTuple):
    keep: bool
    reason: Optional[str]


def mpo_pair_filter(sim: PairSim, contrast_max: float = 0.9,
                    gt_max: float = 0.8) -> FilterDecision:
    """Discard pairs whose chosen/rejected are too alike, or whose rejected
    answer is too close to the ground truth."""
    for t in (contrast_max, gt_max):
        if not (0 <= t <= 1):
            raise ValueError("thresholds must be in [0, 1]")
    if sim.sim_chosen_rejected > contrast_max:
        return FilterDecision(False, "insufficient-contrast")
    if sim.sim_rejected_gt > gt_max:
        return FilterDecision(False, "rejected-too-correct")
    return FilterDecision(True, None)


# --- interleaved-document image repositioning --------------------------------

@dataclass(frozen=True)
class Text:
    content: str


@dataclass(frozen=True)
class Image:
    source: str


Segment = Union[Text, Image]


_IMG_RE = re.compile(r"<img>(.*?)</img>", flags=re.S)


@dataclass
class InterleavedDoc:
    segments: tuple

    def to_text(self) -> str:
        parts = []
        for seg in self.segments:
            if isinstance(seg, Image):
                parts.append(f"<img>{seg.source}</img>")
            else:
                parts.append(seg.content)
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "InterleavedDoc":
        segments = []
        pos = 0
        for m in _IMG_RE.finditer(text):
            if m.start() > pos:
                segments.append(Text(text[pos:m.start()]))
            segments.append(Image(m.group(1)))
            pos = m.end()
        if pos < len(text):
            segments.append(Text(text[pos:]))
        return cls(segments=tuple(segments))


def _canonical_text(text: str) -> str:
    sources = _IMG_RE.findall(text)
    if not sources:
        return text
    header = "".join(f"<|image_{k}|> <img>{src}</img>\n"
                     for k, src in enumerate(sources))
    if text.startswith(header) and not _IMG_RE.search(text[len(header):]):
        return text  # already canonical
    counter = iter(range(len(sources)))
    body = _IMG_RE.sub(lambda m: f"<|image_{next(counter)}|>", text)
    return header + body


def reposition_images(doc: InterleavedDoc, p: float, seed: int) -> InterleavedDoc:
    """With probability p (one draw per document), move every image to a header
    at the front and replace its inline occurrence with its index token."""
    if not (0 <= p <= 1):
        raise ValueError("p must be a probability")
    rng = np.random.default_rng(seed)
    if rng.random() >= p:
        return doc
    return InterleavedDoc.from_text(_canonical_text(doc.to_text()))
