import numpy as np
import pytest

import edgelm as E
from edgelm import tasks


class TestNeedle:
    def test_layout(self):
        s = E.gen_needle(128, 40, seed=0)
        assert len(s.tokens) == 128
        assert s.tokens[s.answer_start:s.answer_end] == [s.value_token] * 8
        assert s.tokens[s.needle_start:s.needle_start + 2] == s.key_tokens
        # trailing query repeats the key after the marker
        assert s.tokens[-3:] == [tasks.QUERY_MARKER] + s.key_tokens

    def test_value_span_unique(self):
        s = E.gen_needle(256, 100, seed=1)
        assert s.tokens.count(s.value_token) == s.answer_end - s.answer_start

    def test_deterministic(self):
        a = E.gen_needle(64, 10, seed=5)
        b = E.gen_needle(64, 10, seed=5)
        assert a.tokens == b.tokens

    def test_token_ranges_disjoint(self):
        s = E.gen_needle(64, 10, seed=2)
        assert tasks.VALUE_RANGE[0] <= s.value_token < tasks.VALUE_RANGE[1]
        for k in s.key_tokens:
            assert tasks.KEY_RANGE[0] <= k < tasks.KEY_RANGE[1]
        filler = s.tokens[0]
        assert tasks.FILLER_RANGE[0] <= filler < tasks.FILLER_RANGE[1]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            E.gen_needle(64, 60, seed=0)  # needle + query overflow
        with pytest.raises(ValueError):
            E.gen_needle(64, -1, seed=0)


class TestCopy:
    def test_prompt_ends_with_marker(self):
        c = E.gen_copy(16, seed=0)
        assert c["prompt"][-1] == tasks.QUERY_MARKER
        assert c["prompt"][:-1] == c["expected"]

