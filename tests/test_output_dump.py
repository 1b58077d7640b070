"""tools/output_dump.py covers every output it names, the same way twice."""
from tools import output_dump

KEYS = {
    "serve.long_prompt.tokens", "serve.spec_decode.tokens",
    "serve.spec_decode.spec_stats", "serve.edge_stream.tokens",
    "serve.edge_stream.kept_sets", "bench.evict_rows", "bench.spec_rows",
    "bench.quant_rows", "bpw_exact", "manifest.float.edgelm",
    "manifest.sym.edgelmq", "manifest.asym_sparse.edgelmq",
    "manifest.adapter.edgelma", "argmax.float", "argmax.quant4", "argmax.adapter",
    "argmax.adapter_untied", "evict.window_rows",
}


def test_quick_dump_repeats_with_every_key():
    first = output_dump.digests(quick=True)
    assert output_dump.digests(quick=True) == first
    assert set(first) == KEYS
    assert all(len(d) == 64 for d in first.values())
    # an adapter whose delta changed no argmax would show nothing
    assert first["argmax.adapter"] != first["argmax.float"]
