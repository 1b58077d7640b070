from itertools import combinations

import numpy as np
import pytest

import edgelm as E


class TestRougeN:
    def test_identical_is_one(self):
        toks = "the cat sat".split()
        s = E.rouge_n(toks, toks, 1)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_hand_case_half(self):
        s = E.rouge_n("a b c d".split(), "a b e f".split(), 1)
        assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)

    def test_disjoint_is_zero(self):
        s = E.rouge_n("a b".split(), "c d".split(), 1)
        assert s.f1 == 0.0

    def test_clipping(self):
        # hyp repeats "a" three times but ref has it once: overlap clipped to 1
        s = E.rouge_n(["a", "b"], ["a", "a", "a"], 1)
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)

    def test_bigram(self):
        s = E.rouge_n("a b c".split(), "a b d".split(), 2)
        assert s.precision == pytest.approx(0.5)

    def test_empty_inputs_zero(self):
        assert E.rouge_n([], ["a"], 1).f1 == 0.0
        assert E.rouge_n(["a"], [], 1).f1 == 0.0

    def test_f1_symmetric_under_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 8))]
            b = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 8))]
            assert E.rouge_n(a, b, 1).f1 == pytest.approx(E.rouge_n(b, a, 1).f1)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            E.rouge_n(["a"], ["a"], 0)


def lcs_bruteforce(a, b):
    best = 0
    for r in range(len(a) + 1):
        for sub in combinations(range(len(a)), r):
            seq = [a[i] for i in sub]
            it = iter(b)
            if all(tok in it for tok in seq):
                best = max(best, r)
    return best


class TestRougeL:
    def test_hand_case(self):
        s = E.rouge_l("a b c d".split(), "a c b d".split())
        assert s.f1 == pytest.approx(0.75)  # LCS length 3

    def test_identical(self):
        assert E.rouge_l(["x", "y"], ["x", "y"]).f1 == 1.0

    def test_empty_hypothesis(self):
        assert E.rouge_l(["a"], []).f1 == 0.0

    def test_dp_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            assert E.lcs_length(a, b) == lcs_bruteforce(a, b)


class TestTokenize:
    def test_lowercase_whitespace(self):
        assert E.tokenize("The  Cat\nsat") == ["the", "cat", "sat"]
