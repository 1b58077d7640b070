"""Each benchmark workload builds and serves one request through edgelm's
current API, so a change that breaks the benchmark's calls fails here.

Run from the repository root (``PYTHONPATH=src python -m pytest``), which
puts ``perfbench`` on the import path.
"""
import time

import pytest

from perfbench.workloads import WORKLOADS, Served


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_serves_one_request(name, tmp_path):
    wl = WORKLOADS[name](tmp_path)
    state = wl.setup()
    served = Served(entry=0, t0=time.perf_counter())
    wl.serve(state, wl.inputs(seed=1)[0], served)
    wl.inspect(served)
    assert served.error is None and served.fault is None
    assert len(served.tokens) == wl.max_new
    if name == "edge_stream":
        assert state.manifest_ok
