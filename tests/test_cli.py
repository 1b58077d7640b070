import copy
import csv
import json
import math
import os
import platform

import numpy as np
import pytest

from edgelm import bench
from edgelm.cli import main

TINY = {"n_layers": 1, "d_model": 16, "n_heads": 2, "n_kv_heads": 1,
        "head_dim": 8}


class TestConfig:
    def test_valid_config_passes(self):
        bench.validate_config({"seed": 1, "trials": 2, "model": TINY})

    def test_missing_seed_rejected(self):
        with pytest.raises(Exception):
            bench.validate_config({"trials": 2})

    def test_unknown_model_key_rejected(self):
        with pytest.raises(Exception):
            bench.validate_config({"seed": 1, "model": {"n_layer": 2}})


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
        paths = bench.write_report(report, tmp_path, "r", fmt="csv")
        names = {p.name for p in paths}
        assert names == {"r.json", "r.trials.jsonl", "r.csv"}
        with open(tmp_path / "r.trials.jsonl") as f:
            rows = [json.loads(line) for line in f]
        assert len(rows) == len(report["trials"])
        with open(tmp_path / "r.csv") as f:
            rdr = list(csv.reader(f))
        assert rdr[0] == [bench.CSV_HEADER_VERSION]
        assert len(rdr) == 2 + len(report["trials"])


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
        # gen prints tokens and writes no report, so --out/--format are not its options
        out = tmp_path / "DIR"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "--max-new", "2", "--out", str(out),
                  "--format", "csv"])
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
        assert main(["evict", "--config", str(cfg), "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        assert any(p.endswith("evict.csv") for p in written)

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
