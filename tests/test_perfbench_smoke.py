"""Each benchmark workload builds, serves and verifies one request through
edgelm's current API, so a change that breaks the benchmark's calls, or
changes what it serves (tokens that differ from ``greedy_decode``, a failed
eviction or manifest check), fails here.

Run from the repository root (``PYTHONPATH=src python -m pytest``), which
puts ``perfbench`` on the import path.
"""
import time

import pytest

from perfbench.tracing import Tracer, check_forward_spans, has_ancestor, instrument
from perfbench.workloads import WORKLOADS, Served


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_serves_one_request(name, tmp_path):
    wl = WORKLOADS[name](tmp_path)
    state = wl.setup()
    entries = wl.inputs(seed=1)
    served = Served(entry=0, t0=time.perf_counter())
    wl.serve(state, entries[0], served)
    wl.inspect(served)
    assert served.error is None and served.fault is None
    assert len(served.tokens) == wl.max_new
    if name == "edge_stream":
        assert state.manifest_ok
    checked = wl.verify(state, entries, [served])
    assert checked.failures == {} and checked.reference_failures == 0


# the spans each workload's request must record, beyond model.forward
TRACED_SPANS = {
    "long_prompt": {"kvcache.append"},
    "spec_decode": {"kvcache.append", "specdec.propose", "kvcache.truncate"},
    "edge_stream": {"kvcache.append", "kvcache.evict", "quant.manifest_load",
                    "lora.activate"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_request_records_every_layer(name, tmp_path):
    # a call that bypasses a traced name (a draft forwarded directly, not
    # through specdec.propose) would silently zero that layer's figures
    wl = WORKLOADS[name](tmp_path)
    tracer = Tracer()
    served = Served(entry=0, t0=time.perf_counter())
    with instrument(tracer, lambda: wl.models):
        state = wl.setup()
        wl.serve(state, wl.inputs(seed=1)[0], served)
    assert served.error is None
    assert check_forward_spans(tracer)["ok"]
    spans = tracer.spans
    assert TRACED_SPANS[name] <= {s.name for s in spans}
    # every forward commits each of its model's layers through append_block:
    # one that wrote its keys and values another way would zero the cache's
    # figures
    appends = [0] * len(spans)
    for s in spans:
        if s.name == "kvcache.append" and s.parent >= 0:
            appends[s.parent] += 1
    for i, s in enumerate(spans):
        if s.name == "model.forward":
            model = (state.draft if has_ancestor(spans, i, "specdec.propose")
                     else state.model)
            assert appends[i] == model.config.n_layers
    if name == "spec_decode":
        # a round drafts unless it has only the target's last token to emit
        before = [0]
        for _, emitted in served.stamps:
            before.append(before[-1] + emitted)
        drafting = sum(wl.max_new - b > 1 for b in before[:-1])
        assert sum(s.name == "specdec.propose" for s in spans) == drafting
        nested = sum(s.name == "model.forward"
                     and has_ancestor(spans, i, "specdec.propose")
                     for i, s in enumerate(spans))
        assert nested == state.draft.stats["forwards"] > 0
