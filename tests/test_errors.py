"""Every count check goes through ``errors.at_least``: a ConfigError that
names the field and its value."""
import pytest

import edgelm as E
from edgelm import bench
from edgelm.errors import ConfigError

MODEL = E.init_model(E.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                   n_kv_heads=1, head_dim=8, max_seq=64), 0)
MODEL_FIELDS = ("vocab_size", "d_model", "n_layers", "n_heads", "n_kv_heads",
                "head_dim", "ffn_mult", "max_seq")

CASES = [(lambda f=f: E.ModelConfig(**{f: 0}), f, 0) for f in MODEL_FIELDS] + [
    (lambda: E.DraftConfig(E.IndependentDraft(MODEL), k=0), "k", 0),
    (lambda: E.create_adapter(MODEL, ("layers.0.wq",), r=0, alpha=1.0, seed=0), "r", 0),
    (lambda: E.QuantSpec(group_size=0), "group_size", 0),
    (lambda: E.AttentionSink(sinks=-1), "sinks", -1),
    (lambda: E.AttentionSink(window=-1), "window", -1),
    (lambda: E.HeavyHitter(recent=-1), "recent", -1),
    (lambda: E.ObsWindow(obs=0), "obs", 0),
    (lambda: E.ObsWindow(pool_kernel=-1), "pool_kernel", -1),
    (lambda: E.Hybrid(sinks=-2), "sinks", -2),
    (lambda: E.KvCache(1, 1, 2, window=-1), "window", -1),
    (lambda: E.evict(E.KvCache(1, 1, 2), E.RandomPolicy(), 0), "budget", 0),
    (lambda: bench.Experiment(seed=-1), "seed", -1),
    (lambda: bench.Experiment(seed=0, trials=0), "trials", 0),
    (lambda: bench.EvictTask(context_len=28), "context_len", 28),
    (lambda: bench.EvictTask(decode_len=0), "decode_len", 0),
    (lambda: bench.EvictMethod(eviction_ratios=(0.5, -0.25)), "eviction_ratio", -0.25),
    (lambda: bench.SpecTask(max_new=0), "max_new", 0),
    (lambda: bench.SpecTask(prompt_len=0), "prompt_len", 0),
    (lambda: bench.SpecMethod(k=(2, 0)), "k", 0),
    (lambda: bench.QuantTask(sequences=0), "sequences", 0),
    (lambda: bench.QuantTask(seq_len=0), "seq_len", 0),
    (lambda: bench.LoraMethod(adapters=-1), "adapters", -1),
    (lambda: bench.LoraMethod(swaps=-1), "swaps", -1),
]


@pytest.mark.parametrize("build, name, value", CASES,
                         ids=[f"{i}-{name}" for i, (_, name, _) in enumerate(CASES)])
def test_count_below_its_floor_is_a_config_error_naming_it(build, name, value):
    with pytest.raises(ConfigError, match=rf"^{name} \({value}\) must be >= "):
        build()
