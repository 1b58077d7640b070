import contextlib
import copy
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgelm import bench
from edgelm.cli import main

TINY = {"n_layers": 1, "d_model": 16, "n_heads": 2, "n_kv_heads": 1,
        "head_dim": 8}

# a valid tiny config for each command that reads one, with every key it reads
VALID = {
    "gen": {"seed": 1, "model": {**TINY, "vocab_size": 64, "ffn_mult": 2,
                                 "rope_theta": 100.0, "tie_embeddings": False,
                                 "max_seq": 64}},
    "evict": {"seed": 1, "trials": 1, "model": TINY,
              "task": {"context_len": 80, "decode_len": 2},
              "method": {"eviction_ratios": [0.25],
                         "policies": [{"kind": "heavy_hitter", "recent": 4},
                                      {"kind": "obs_window", "obs": 8, "pool_kernel": 3},
                                      {"kind": "hybrid", "lambda_sink": 0.0,
                                       "lambda_recent": 0.0, "lambda_acc": 0.5,
                                       "lambda_win": 0.5, "sinks": 2, "obs": 8,
                                       "pool_kernel": 3},
                                      {"kind": "attention_sink", "sinks": 2,
                                       "window": 8},
                                      {"kind": "random", "seed": 0}]}},
    "spec": {"seed": 1, "trials": 1, "model": TINY,
             "task": {"max_new": 4, "prompt_len": 3},
             "method": {"k": [2], "draft_kinds": ["independent", "feature_reuse"]}},
    "quant": {"seed": 1, "model": TINY, "task": {"sequences": 1, "seq_len": 6},
              "method": {"bits": [8], "scheme": "symmetric", "bpw_budget": 8.5}},
    "lora-demo": {"seed": 1, "model": TINY, "task": {},
                  "method": {"adapters": 1, "swaps": 2, "base_bits": 8}},
}

# every module that calls ``forward`` by its imported name
FORWARD_SITES = ("edgelm.model", "edgelm.bench", "edgelm.specdec", "edgelm.lora",
                 "edgelm.quant")


def run_cli(command: str, config) -> tuple[int, dict, int]:
    """Exit code, parsed stderr (or {}) and forward count of one command run
    on ``config``."""
    forwards = []
    real = sys.modules["edgelm.model"].forward

    def counted(*args, **kwargs):
        forwards.append(1)
        return real(*args, **kwargs)

    with tempfile.TemporaryDirectory() as d, contextlib.ExitStack() as stack:
        path = Path(d) / "c.json"
        path.write_text(json.dumps(config))
        for site in FORWARD_SITES:
            stack.enter_context(mock.patch.object(sys.modules[site], "forward", counted))
        err = io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main([command, "--config", str(path)])
    return code, json.loads(err.getvalue() or "{}"), len(forwards)


def replaced(command: str, path: tuple, value) -> dict:
    """The valid config of ``command`` with the field at ``path`` set to ``value``."""
    config = copy.deepcopy(VALID[command])
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    return config


def _field_paths(node, path=()):
    """The path of every object field and list entry in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


JSON_VALUES = st.one_of(
    st.booleans(), st.integers(-2, 3), st.integers(-2, 3).map(float),
    st.text(max_size=2), st.none(),
    st.lists(st.integers(-1, 2) | st.text(max_size=1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.just(math.nan))


class TestConfig:
    def test_valid_config_passes(self):
        bench.validate_config({"seed": 1, "trials": 2, "model": TINY})

    def test_missing_seed_rejected(self):
        with pytest.raises(Exception):
            bench.validate_config({"trials": 2})

    def test_unknown_model_key_rejected(self):
        with pytest.raises(Exception):
            bench.validate_config({"seed": 1, "model": {"n_layer": 2}})

    @pytest.mark.parametrize("command, path, value, named", [
        ("gen", ("seed",), 1.0, "seed"),
        ("evict", ("trials",), 2.0, "trials"),
        ("gen", ("model", "n_layers"), 1.0, "n_layers"),
        ("evict", ("task", "context_lenn"), 96, "context_lenn"),
        ("evict", ("method", "policies", 0, "recent"), "4", "recent"),
        ("evict", ("method", "policies", 0, "recent"), -3, "recent"),
        ("evict", ("method", "policies", 1, "obs"), 0, "obs"),
        ("evict", ("method", "policies", 2, "obs"), 0, "obs"),
        ("spec", ("method", "draft_kinds"), ["eagle"], "eagle"),
        # each would otherwise run and write a wrong report
        ("evict", ("seed",), -1, "seed"),
        ("spec", ("seed",), -1, "seed"),
        ("evict", ("task", "decode_len"), 0, "decode_len"),
        ("evict", ("method", "eviction_ratios", 0), -1, "eviction_ratio"),
        ("lora-demo", ("method", "adapters"), -1, "adapters"),
        ("lora-demo", ("method", "swaps"), -1, "swaps"),
        # each would otherwise fail later with a bare ValueError
        ("gen", ("seed",), -1, "seed"),
        ("quant", ("task", "sequences"), 0, "sequences"),
        ("quant", ("task", "seq_len"), 0, "seq_len"),
        ("spec", ("task", "max_new"), 0, "max_new"),
        ("spec", ("task", "prompt_len"), 0, "prompt_len"),
        # each used to fail inside the first trial: the needle did not fit,
        # the prompt passed max_seq, or the first eviction read 40 rows of 32
        ("evict", ("task", "context_len"), 28, "context_len"),
        ("evict", ("task", "context_len"), 5000, "max_seq"),
        ("evict", ("method", "policies", 1, "obs"), 40, "obs"),
    ])
    def test_bad_value_is_a_config_error_before_any_forward(self, command, path,
                                                             value, named):
        code, err, forwards = run_cli(command, replaced(command, path, value))
        assert (code, err.get("error"), forwards) == (1, "ConfigError", 0)
        assert named in err["message"]

    def test_evict_config_checks_admit_their_edges(self):
        # the shortest context the needle fits, and a hybrid that weights
        # no window rows, however many it would read
        config = replaced("evict", ("task", "context_len"), 29)
        config["method"]["policies"][2].update(lambda_win=0.0, obs=40)
        code, err, forwards = run_cli("evict", config)
        assert code == 0 and err == {} and forwards > 0

    def test_config_that_is_not_an_object_rejected_with_seed_override(self, tmp_path,
                                                                       capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        assert main(["gen", "--config", str(cfg), "--seed", "3"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "not a JSON object" in err["message"]

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_valid_tiny_config_runs(self, command):
        # the adapter demo quantizes and fits but never runs the model
        code, err, forwards = run_cli(command, VALID[command])
        assert code == 0 and err == {} and (forwards > 0) == (command != "lora-demo")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_field_replaced_runs_or_is_a_config_error_before_any_forward(data):
    # the values span every JSON kind: bool, integer, integral float, string,
    # null, list, object and NaN
    command = data.draw(st.sampled_from(sorted(VALID)))
    path = data.draw(st.sampled_from(list(_field_paths(VALID[command]))))
    config = replaced(command, path, data.draw(JSON_VALUES))
    code, err, forwards = run_cli(command, config)
    assert code in (0, 1)
    if code:
        assert err["error"] == "ConfigError" and forwards == 0, err


def test_cli_runs_without_jsonschema(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(VALID["evict"]))
    code = ("import runpy, sys; sys.modules['jsonschema'] = None; "
            f"sys.argv = ['edgelm', 'evict', '--config', {str(cfg)!r}]; "
            "runpy.run_module('edgelm.cli', run_name='__main__')")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["trials"]) == 5


class TestReports:
    def evict_report(self):
        return bench.run_evict_bench({
            "seed": 1, "trials": 1, "model": TINY,
            "task": {"context_len": 96, "decode_len": 4},
            "method": {"eviction_ratios": [0.5],
                       "policies": [{"kind": "heavy_hitter", "recent": 2},
                                    {"kind": "random", "seed": 0}]}})

    def test_aggregates_recomputable(self):
        report = self.evict_report()
        assert bench.verify_report(report)

    def test_tampered_aggregate_detected(self):
        report = self.evict_report()
        tampered = copy.deepcopy(report)
        tampered["aggregates"]["rouge1_vs_baseline"]["mean"] += 0.1
        assert not bench.verify_report(tampered)
        rates = report["aggregates"]["retention_rate_by_policy"]
        rates[next(iter(rates))] = 0.123
        assert not bench.verify_report(report)

    def test_spec_bench_lossless_and_bounded(self):
        report = bench.run_spec_bench({
            "seed": 2, "trials": 2, "model": TINY,
            "task": {"max_new": 8, "prompt_len": 4}, "method": {"k": [2]}})
        for row in report["trials"]:
            assert 1.0 <= row["block_efficiency"] <= 3.0
            assert row["target_forwards"] == row["rounds"]

    def test_quant_bench_sanity_row(self):
        report = bench.run_quant_bench({
            "seed": 3, "model": TINY,
            "task": {"sequences": 1, "seq_len": 8}, "method": {"bits": [8]}})
        sanity = report["trials"][0]
        assert sanity["plan"] == "identity-sanity"
        assert sanity["top1_overlap"] == 1.0

    def test_lora_demo_invariants(self):
        report = bench.run_lora_demo({
            "seed": 4, "model": TINY, "method": {"adapters": 2, "swaps": 10}})
        row = report["trials"][0]
        assert row["hash_invariant"]
        assert row["qalft_final_loss"] < 1e-6
        assert row["gradient_check_max_rel_err"] < 1e-4

    def test_write_report_formats(self, tmp_path):
        report = self.evict_report()
        paths = bench.write_report(report, tmp_path, "r")
        assert [p.name for p in paths] == ["r.json", "r.trials.jsonl"]
        assert {p.name for p in tmp_path.iterdir()} == {"r.json", "r.trials.jsonl"}
        with open(tmp_path / "r.json") as f:
            assert json.load(f)["trials"] == report["trials"]
        with open(tmp_path / "r.trials.jsonl") as f:
            rows = [json.loads(line) for line in f]
        assert rows == report["trials"]


class TestCli:
    def test_gen(self, capsys):
        assert main(["gen", "--seed", "3", "--max-new", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["tokens"]) == len(out["prompt"]) + 4

    @pytest.mark.parametrize("prompt", ["[1.5, 2.9, true]", "[1, true]", '{"a": 1}', "7"])
    def test_gen_prompt_must_be_a_list_of_ints(self, prompt, capsys):
        assert main(["gen", "--prompt", prompt, "--max-new", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "--prompt" in err["message"]

    def test_gen_rejects_report_options(self, tmp_path, capsys):
        # gen prints tokens and writes no report, so --out is not its option
        out = tmp_path / "DIR"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "--max-new", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_evict_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 5, "trials": 1, "model": TINY,
            "task": {"context_len": 80, "decode_len": 2},
            "method": {"eviction_ratios": [0.25],
                       "policies": [{"kind": "random", "seed": 0}]}}))
        out = tmp_path / "out"
        assert main(["evict", "--config", str(cfg), "--out", str(out)]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        assert written == [str(out / "evict.json"), str(out / "evict.trials.jsonl")]
        assert {p.name for p in out.iterdir()} == {"evict.json", "evict.trials.jsonl"}

    def test_evict_budget_below_policy_floor_named_up_front(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 0, "trials": 1, "model": TINY,
                                   "task": {"context_len": 128}}))
        assert main(["evict", "--config", str(cfg)]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        for part in ("attention_sink", "ratio 0.5", "budget 63"):
            assert part in err["message"]

    @pytest.mark.parametrize("policy, named", [
        ({"kind": "lru"}, "lru"), ({"recent": 4}, "None"),
        ({"kind": "random", "sed": 0}, "sed")])
    def test_evict_bad_policy_spec_named(self, tmp_path, capsys, policy, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 0, "trials": 1, "model": TINY,
            "task": {"context_len": 80, "decode_len": 2},
            "method": {"eviction_ratios": [0.25], "policies": [policy]}}))
        assert main(["evict", "--config", str(cfg)]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and named in err["message"]

    def test_report_verification_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 6, "trials": 1, "model": TINY,
            "task": {"max_new": 6, "prompt_len": 3}, "method": {"k": [2]}}))
        assert main(["spec", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "spec.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"]

    @pytest.mark.parametrize("report, named", [
        ({"trials": 1}, "trials"),
        ({"trials": []}, "missing field 'aggregates'"),
        ({"trials": 1, "aggregates": {}}, "trials"),
        ([1], "not a JSON object"),
        ({"trials": [1], "aggregates": {}}, "trials"),
        ({"trials": [], "aggregates": []}, "aggregates"),
    ])
    def test_report_malformed_named(self, tmp_path, capsys, report, named):
        p = tmp_path / "r.json"
        p.write_text(json.dumps(report))
        assert main(["report", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and named in err["message"]

    @pytest.mark.parametrize("rows, field, named", [
        ([{}], "retention_rate_by_policy", "trials[0]: missing field 'policy'"),
        ([{"policy": "p", "target_ratio": "0.5", "needle_retained": True}],
         "retention_rate_by_policy", "trials[0]: field 'target_ratio'"),
        ([{"policy": "p", "target_ratio": 0.5, "needle_retained": True},
          {"policy": "p", "target_ratio": 0.5, "needle_retained": 1}],
         "retention_rate_by_policy", "trials[1]: field 'needle_retained'"),
        ([{"x": "a"}], "x", "trials[0]: field 'x'"),
        ([{"x": 1.0}, {}, {"x": None}, {"x": [2]}], "x", "trials[3]: field 'x'"),
        ([{"x": True}], "x", "trials[0]: field 'x'"),
    ])
    def test_report_trial_fields_typed(self, tmp_path, capsys, rows, field, named):
        # each trial field an aggregate reads is checked, and named with its row
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"trials": rows, "aggregates": {
            field: {} if field == "retention_rate_by_policy"
            else {"mean": 1, "min": 1, "max": 1}}}))
        assert main(["report", str(p)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and named in err["message"]

    def test_report_summary_skips_rows_without_the_field(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"trials": [{"x": 1}, {}, {"x": None}, {"x": 3.0}],
                                 "aggregates": {"x": {"mean": 2, "min": 1, "max": 3}}}))
        assert main(["report", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"]

    def test_report_records_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 6, "trials": 1, "model": TINY,
            "task": {"max_new": 4, "prompt_len": 3}, "method": {"k": [2]}}))
        assert main(["spec", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "spec.json").read_text())["meta"]
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert meta["threads"]["MKL_NUM_THREADS"] is None
        assert set(meta["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
        capsys.readouterr()
        assert main(["report", str(tmp_path / "spec.json")]) == 0
        assert json.loads(capsys.readouterr().out)["verified"]

    def test_losses(self, tmp_path, capsys):
        payload = {"lp_theta_c": [0.0], "lp_0_c": [0.0],
                   "lp_theta_r": [0.0], "lp_0_r": [0.0],
                   "weights": {"beta": 1.0}, "token_logprobs": [-1.0]}
        p = tmp_path / "b.json"
        p.write_text(json.dumps(payload))
        assert main(["losses", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["breakdown"]["preference"] == pytest.approx(math.log(2))

    @pytest.mark.parametrize("change, named", [
        ({"lp_0_r": None}, "lp_0_r"),
        ({"weights": {"bogus": 1}}, "bogus"),
        ({"weights": {"beta": "1"}}, "beta"),
        ({"weights": {"w_p": True}}, "w_p"),
        ({"weights": {"beta": 0}}, "beta"),
    ])
    def test_losses_bad_input_named(self, tmp_path, capsys, change, named):
        payload = {"lp_theta_c": [0.0], "lp_0_c": [0.0], "lp_theta_r": [0.0],
                   "lp_0_r": [0.0], "token_logprobs": [-1.0], **change}
        payload = {k: v for k, v in payload.items() if v is not None}
        p = tmp_path / "b.json"
        p.write_text(json.dumps(payload))
        assert main(["losses", str(p)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and named in err["message"]

    def test_losses_reject_non_finite_logprobs(self, tmp_path, capsys):
        payload = {"lp_theta_c": [0.0], "lp_0_c": [0.0],
                   "lp_theta_r": [0.0], "lp_0_r": [0.0], "token_logprobs": [math.nan]}
        p = tmp_path / "b.json"
        p.write_text(json.dumps(payload))
        assert main(["losses", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and "finite" in err["message"]

    def test_rouge(self, tmp_path, capsys):
        (tmp_path / "ref.txt").write_text("a b c d")
        (tmp_path / "hyp.txt").write_text("a b e f")
        assert main(["rouge", str(tmp_path / "ref.txt"),
                     str(tmp_path / "hyp.txt")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rouge1"]["f1"] == pytest.approx(0.5)

    def test_error_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"trials": 1}))  # missing seed
        assert main(["evict", "--config", str(bad)]) != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_seed_override(self, capsys):
        assert main(["gen", "--seed", "11", "--max-new", "2"]) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(["gen", "--seed", "11", "--max-new", "2"]) == 0
        b = json.loads(capsys.readouterr().out)
        assert a == b
