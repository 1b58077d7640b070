"""The shared manifest envelope behind the model, quant and adapter files."""
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgelm as E
from edgelm import _manifest
from edgelm.errors import ManifestError

# SHA-256 of each file written by `write_files`; the formats are frozen, so
# files written by any earlier version must still load.
DIGESTS = {
    "float.edgelm": "a68a65a25e5df3c968a8de8b586a6225e9121ddd2769a432c6706c94cab58af8",
    "sym.edgelmq": "9194865bdea2ba03e08790924a82a67d6878d0e9c1f7fe033e07bffdd7b6e16b",
    "asym_sparse.edgelmq": "32da812a1e879a3d3318639926e1c7be7121bb57f4270518a5d63f67751e5bfb",
    "adapter.edgelma": "16b84708a47767ba249d100e8f70ea5b9287abf30da3045c32646e1ec4ecb807",
}
FORMATS = {  # file -> (loader, saver, magic)
    "float.edgelm": (E.load_model, E.save_model, b"EDGELM01"),
    "sym.edgelmq": (E.load_quant_model, E.save_quant_model, b"EDGELMQ1"),
    "asym_sparse.edgelmq": (E.load_quant_model, E.save_quant_model, b"EDGELMQ1"),
    "adapter.edgelma": (E.load_adapter, E.save_adapter, b"EDGELMA1"),
}


def write_files(out):
    """One seeded small model in every format: float, symmetric 3-bit with
    partial groups, asymmetric 4-bit with both sparsity kinds, and an adapter."""
    cfg = E.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                        n_kv_heads=1, head_dim=8, max_seq=128, tie_embeddings=False)
    m = E.init_model(cfg, 11)
    E.save_model(m, out / "float.edgelm")
    sym = E.ptq_model(m, E.uniform_plan(m, 3, group_size=6), freeze=True)
    E.save_quant_model(sym, out / "sym.edgelmq")
    plan = E.uniform_plan(m, 4, scheme="asymmetric", group_size=8)
    plan.sparsity = {"layers.0.wq": E.Unstructured(0.5),
                     "layers.0.w_up": E.Structured(2, 4)}
    E.save_quant_model(E.ptq_model(m, plan), out / "asym_sparse.edgelmq")
    ad = E.create_adapter(m, ("layers.0.wq", "layers.0.wv"), r=2, alpha=4.0,
                          seed=5, name="demo")
    for slot, b in ad.B.items():
        ad.B[slot] = E.slot_rng(5, slot + ".B").normal(0, 0.02, b.shape).astype(np.float32)
    E.save_adapter(ad, out / "adapter.edgelma")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    out = tmp_path_factory.mktemp("manifests")
    write_files(out)
    return {name: (out / name).read_bytes() for name in FORMATS}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_bytes_match_digest_and_reload_identically(name, files, tmp_path):
    assert hashlib.sha256(files[name]).hexdigest() == DIGESTS[name]
    load, save, _ = FORMATS[name]
    src = tmp_path / name
    src.write_bytes(files[name])
    save(load(src), tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == files[name]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_truncation_raises_manifest_error(files, tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(FORMATS)))
    raw = files[name]
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path_factory.mktemp("cut") / name
    path.write_bytes(raw[:cut])
    with pytest.raises(ManifestError):
        FORMATS[name][0](path)


def _first(h):
    return h["slots"][0]


def _nan_alpha(h):
    # a NaN alpha turns every logit into NaN
    h["alpha"] = float("nan")


def _rank_zero(h):
    # empty A and B of rank 0: forward would divide alpha by r = 0
    h["r"] = 0
    for s in h["slots"]:
        s.update(a_shape=[0, 16], b_shape=[16, 0])


def _a_of_one_axis(h):
    # A is [r, in]: an [r] A would fail in AdapterRegistry.register
    _first(h).update(a_shape=[2])


def _a_of_three_axes(h):
    # an [r, in, 1] A would register, then fail to broadcast in the first forward
    _first(h).update(a_shape=[2, 16, 1])


def _slot_twice(h):
    # a manifest's later entry would replace the first; an adapter's slot
    # would be applied twice
    h["slots"].append(dict(_first(h)))


def _five_bits(h):
    _first(h)["spec"].update(bits=5)


def _group_wider_than_row(h):
    entry = next(s for s in h["slots"] if s["spec"]["granularity"] == "per-group")
    entry["spec"].update(group_size=entry["shape"][-1] + 1)


def _negative_scale_bits(h):
    # a reloaded tensor of this spec reported bpw_exact -2
    _first(h)["spec"].update(scale_bits=-64)


def _zero_point_bits_zero(h):
    _first(h)["spec"].update(zero_point_bits=0)


def _three_heads(h):
    # d_model 16 is not 3 heads of head_dim 8
    h["config"].update(n_heads=3)


def _negative_rope_theta(h):
    h["config"].update(rope_theta=-1.0)


@pytest.mark.parametrize("name, mutate", [
    # a slot shape the config does not have
    ("float.edgelm", lambda h: _first(h).update(shape=[1, 2])),
    # the last blob reaches four bytes past the region
    ("float.edgelm", lambda h: h["slots"][-1].update(offset=h["slots"][-1]["offset"] + 4)),
    # np.unpackbits would zero-pad a codes blob one byte short without complaint
    ("sym.edgelmq", lambda h: _first(h).update(
        codes=[_first(h)["codes"][0], _first(h)["codes"][1] - 1])),
    ("asym_sparse.edgelmq", lambda h: _first(h).update(zero_points=[-4, 4])),
    # A is [r, in]: a rank-1 A under a rank-2 adapter
    ("adapter.edgelma", lambda h: _first(h).update(a_shape=[1, 16])),
    ("adapter.edgelma", _a_of_one_axis),
    ("adapter.edgelma", _a_of_three_axes),
    ("adapter.edgelma", _slot_twice),
    ("float.edgelm", _slot_twice),
    ("sym.edgelmq", _slot_twice),
    ("adapter.edgelma", _nan_alpha),
    ("adapter.edgelma", _rank_zero),
    # in-type values that the spec or config rejects
    ("sym.edgelmq", _five_bits),
    ("sym.edgelmq", _group_wider_than_row),
    ("sym.edgelmq", _negative_scale_bits),
    ("asym_sparse.edgelmq", _zero_point_bits_zero),
    ("float.edgelm", _three_heads),
    ("float.edgelm", _negative_rope_theta),
])
def test_inconsistent_header_rejected(name, mutate, files, tmp_path):
    load, _, magic = FORMATS[name]
    path = tmp_path / name
    path.write_bytes(files[name])
    header, blobs = _manifest.read(path, magic)
    mutate(header)
    _manifest.write(path, magic, header, blobs)
    with pytest.raises(ManifestError):
        load(path)


@pytest.mark.parametrize("name, mutate, field", [
    ("asym_sparse.edgelmq", lambda h: _first(h).pop("zero_points"), "zero_points"),
    ("float.edgelm", lambda h: h["config"].update(n_experts=2), "n_experts"),
    ("sym.edgelmq", lambda h: h["config"].pop("max_seq"), "max_seq"),
    ("sym.edgelmq", lambda h: _first(h)["spec"].update(bits="4"), "bits"),
    ("sym.edgelmq", lambda h: _first(h).update(codes=[0]), "codes"),
    ("float.edgelm", lambda h: _first(h).update(name=["token_embed"]), "name"),
    ("adapter.edgelma", lambda h: h.pop("alpha"), "alpha"),
    ("adapter.edgelma", lambda h: _first(h).update(b_offset=None), "b_offset"),
    # a bool is an int to isinstance, and an integral float is no int
    ("sym.edgelmq", lambda h: _first(h)["spec"].update(group_size=True), "group_size"),
    ("adapter.edgelma", lambda h: h.update(r=True), "'r'"),
    ("float.edgelm", lambda h: h["config"].update(n_layers=2.0), "n_layers"),
    ("float.edgelm", lambda h: h["config"].update(n_layers=True), "n_layers"),
])
def test_missing_or_mistyped_field_named(name, mutate, field, files, tmp_path):
    load, _, magic = FORMATS[name]
    path = tmp_path / name
    path.write_bytes(files[name])
    header, blobs = _manifest.read(path, magic)
    mutate(header)
    _manifest.write(path, magic, header, blobs)
    with pytest.raises(ManifestError, match=field):
        load(path)


def _nan_weight(m):
    m.weights["token_embed"][0, 0] = np.nan


def _inf_adapter(a):
    a.A["layers.0.wq"][0, 0] = np.inf


def _scale(value):
    def poison(m):
        qt = m.weights["layers.0.wq"]
        qt.scales = np.full_like(qt.scales, value)
    return poison


@pytest.mark.parametrize("name, poison, match", [
    ("float.edgelm", _nan_weight, "non-finite"),
    ("adapter.edgelma", _inf_adapter, "non-finite"),
    ("sym.edgelmq", _scale(np.inf), "non-finite"),
    ("asym_sparse.edgelmq", _scale(0.0), "positive"),
    ("sym.edgelmq", _scale(-1.0), "positive"),
], ids=["model-nan", "adapter-inf", "scale-inf", "scale-zero", "scale-negative"])
def test_values_the_writer_never_stores_rejected(name, poison, match, files, tmp_path):
    load, save, _ = FORMATS[name]
    path = tmp_path / name
    path.write_bytes(files[name])
    obj = load(path)
    poison(obj)
    save(obj, path)
    with pytest.raises(ManifestError, match=match):
        load(path)


def test_packed_code_above_qmax_rejected(files, tmp_path):
    # the writer refuses a symmetric code of qmax + 1, so its packed value,
    # 2^b - 1, is written into the first code's bits (LSB first) by hand
    path = tmp_path / "sym.edgelmq"
    path.write_bytes(files["sym.edgelmq"])
    header, blobs = _manifest.read(path, b"EDGELMQ1")
    data = bytearray(blobs.data)
    entry = next(s for s in header["slots"] if s["name"] == "layers.0.wq")
    data[entry["codes"][0]] |= 2 ** entry["spec"]["bits"] - 1
    _manifest.write(path, b"EDGELMQ1", header, _manifest.Blobs(data))
    with pytest.raises(ManifestError, match="symmetric code 4 exceeds qmax 3"):
        E.load_quant_model(path)


@pytest.mark.parametrize("raw", [
    b"EDGELM02" + struct.pack("<I", 2) + b"{}",    # wrong magic
    b"EDGELM01" + struct.pack("<I", 3) + b"{x}",   # header is not JSON
    b"EDGELM01" + struct.pack("<I", 2) + b"[]",    # header is not an object
])
def test_unreadable_envelope_rejected(raw, tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(raw)
    with pytest.raises(ManifestError):
        E.load_model(path)
