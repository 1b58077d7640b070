"""tools/ab_inprocess.py --quick, with this checkout on both sides."""
import json
import math
import subprocess
import sys
from pathlib import Path

from tools import ab_inprocess

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {"unit", "parent_median", "change_median", "median_ratio", "change_faster",
          "tokens_equal", "parent_peak_kib", "change_peak_kib"}


def test_quick_run_writes_every_shape_and_keeps_other_keys(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"summary": {"kept": True}}))
    # a process of its own: the tool sets this process's BLAS thread variables
    proc = subprocess.run([sys.executable, "tools/ab_inprocess.py", str(ROOT), str(ROOT),
                           "--out", str(out), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"kept": True}
    shapes = doc["in_process"]["shapes"]
    assert set(shapes) == set(ab_inprocess.SHAPES)
    # a speculative round's two forwards, forwards with no cache, and a plan
    assert {"draft_step", "verify_step", "cacheless_8", "cacheless_32",
            "cacheless_512", "assign_precision"} <= set(shapes)
    assert shapes["assign_precision"]["unit"] == "ms per plan"
    for name, shape in shapes.items():
        assert set(shape) == FIELDS, name
        assert math.isfinite(shape["median_ratio"]) and shape["median_ratio"] > 0
        assert shape["change_faster"].endswith("of 2")
        assert shape["tokens_equal"] is True, name
        # one tree on both sides: the same array peak, give or take the few
        # Python objects a tree's first samples allocate
        peaks = shape["parent_peak_kib"], shape["change_peak_kib"]
        assert min(peaks) > 0 and math.isclose(*peaks, rel_tol=0.02), name
