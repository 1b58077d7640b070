from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgelm as E
from edgelm import quant as Q
from edgelm.errors import ConfigError, ShapeError


def small_model(seed=0):
    return E.init_model(E.ModelConfig(vocab_size=32, d_model=16, n_layers=1,
                                      n_heads=2, n_kv_heads=1, head_dim=8,
                                      max_seq=128), seed)


class TestQuantSpec:
    def test_allowed_bits(self):
        for b in (2, 3, 4, 8):
            E.QuantSpec(bits=b)
        with pytest.raises(ConfigError):
            E.QuantSpec(bits=5)

    def test_scheme_and_granularity_checked(self):
        with pytest.raises(ConfigError):
            E.QuantSpec(scheme="ternary")
        with pytest.raises(ConfigError):
            E.QuantSpec(granularity="per-column")


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_error_within_half_scale(self, bits, scheme):
        rng = np.random.default_rng(bits * 10 + len(scheme))
        x = rng.normal(0, 1, (16, 64))
        spec = E.QuantSpec(bits=bits, scheme=scheme, granularity="per-row")
        qt = E.quantize(x, spec)
        err = np.abs(qt.dequantize().astype(np.float64) - x)
        bound = qt.scales[qt.group_index].reshape(x.shape) / 2 + 1e-7
        assert np.all(err <= bound)

    def test_all_zero_tensor(self):
        qt = E.quantize(np.zeros((4, 8)), E.QuantSpec(bits=4, granularity="per-tensor"))
        np.testing.assert_array_equal(qt.dequantize(), np.zeros((4, 8)))

    def test_constant_tensor_both_schemes(self):
        for scheme in ("symmetric", "asymmetric"):
            for c in (0.7, -0.3):
                x = np.full((3, 4), c)
                qt = E.quantize(x, E.QuantSpec(bits=2, scheme=scheme,
                                               granularity="per-tensor"))
                np.testing.assert_allclose(qt.dequantize(), x, atol=1e-7)

    def test_symmetric_codes_in_restricted_range(self):
        x = np.random.default_rng(0).normal(size=(8, 16))
        qt = E.quantize(x, E.QuantSpec(bits=4, granularity="per-row"))
        assert qt.codes.min() >= -7 and qt.codes.max() <= 7

    def test_requantization_idempotent(self):
        x = np.random.default_rng(1).normal(size=(4, 32))
        spec = E.QuantSpec(bits=4, granularity="per-row")
        d1 = E.quantize(x, spec).dequantize()
        d2 = E.quantize(d1, spec).dequantize()
        # float32 storage perturbs the recovered scale at the last ulp, so
        # idempotence holds to ~1e-7 rather than bit-exactly
        np.testing.assert_allclose(d2, d1, atol=1e-6)

    def test_group_size_exceeding_row_rejected(self):
        with pytest.raises(ConfigError):
            E.quantize(np.ones((2, 8)),
                       E.QuantSpec(bits=4, granularity="per-group", group_size=16))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            E.quantize(np.zeros((0,)), E.QuantSpec())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_non_finite_rejected(self, bad, scheme):
        x = np.ones((2, 8))
        x[1, 3] = bad
        with pytest.raises(ShapeError):
            E.quantize(x, E.QuantSpec(scheme=scheme, granularity="per-row"))

    def test_zero_point_outside_int32_rejected(self):
        # zero point about -2.55e14: an int32 cast would keep 1991094963
        with pytest.raises(ShapeError, match="int32"):
            E.quantize(np.array([[1.0, 1.0 + 1e-12]]),
                       E.QuantSpec(bits=8, scheme="asymmetric", granularity="per-tensor"))
        qt = E.quantize(np.array([[1.0, 1.0 + 1e-6]]),
                        E.QuantSpec(bits=8, scheme="asymmetric", granularity="per-tensor"))
        np.testing.assert_allclose(qt.dequantize(), [[1.0, 1.0 + 1e-6]], rtol=1e-7)

    @pytest.mark.parametrize("x, scheme", [
        ([0.0, 0.0, 0.0, 5e-324], "symmetric"),      # amax / 7 underflows to 0
        ([0.0, 5e-324], "asymmetric"),               # range / 255 underflows to 0
        ([-1e308, 1e308], "asymmetric")])            # range overflows to inf
    def test_scale_out_of_range_rejected(self, x, scheme):
        with pytest.raises(ShapeError, match="scale"):
            E.quantize(np.array(x), E.QuantSpec(bits=4, scheme=scheme,
                                                granularity="per-tensor"))


def reference_quantize(x, spec):
    """Group-by-group loop over explicit slices: the reference for quantize."""
    flat = x.ravel()
    rowlen = x.shape[-1] if x.ndim > 1 and spec.granularity != "per-tensor" else x.size
    width = spec.group_size if spec.granularity == "per-group" else rowlen
    slices = [slice(r + c, r + min(c + width, rowlen))
              for r in range(0, x.size, rowlen) for c in range(0, rowlen, width)]
    codes = np.empty(flat.size, dtype=np.int64)
    scales, zps = [], []
    qmax, hi = 2 ** (spec.bits - 1) - 1, 2 ** spec.bits - 1
    for sl in slices:
        g = flat[sl]
        if spec.scheme == "symmetric":
            amax = np.max(np.abs(g))
            scale = amax / qmax if amax > 0 else 1.0
            codes[sl] = np.clip(np.rint(g / scale), -qmax, qmax)
        elif g.max() > g.min():
            scale = (g.max() - g.min()) / hi
            zps.append(int(np.rint(-g.min() / scale)))
            codes[sl] = np.clip(np.rint(g / scale) + zps[-1], 0, hi)
        else:  # constant group
            c = float(g[0])
            scale = 1.0 if c == 0 else abs(c)
            zps.append(int(c < 0))
            codes[sl] = int(c > 0)
        scales.append(scale)
    return codes.reshape(x.shape), np.array(scales), np.array(zps, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), cols=st.integers(1, 24),
       bits=st.sampled_from([2, 3, 4, 8]), scheme=st.sampled_from(["symmetric", "asymmetric"]),
       granularity=st.sampled_from(["per-tensor", "per-row", "per-group"]), data=st.data())
def test_quantize_matches_reference_loop(seed, rows, cols, bits, scheme, granularity, data):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    x[rng.random(rows) < 0.4] = rng.choice([0.0, 0.7, -0.3])  # constant rows
    spec = E.QuantSpec(bits=bits, scheme=scheme, granularity=granularity,
                       group_size=data.draw(st.integers(1, cols)))
    qt = E.quantize(x, spec)
    codes, scales, zps = reference_quantize(x, spec)
    np.testing.assert_array_equal(qt.codes, codes)
    np.testing.assert_array_equal(qt.scales, scales)
    if scheme == "asymmetric":
        np.testing.assert_array_equal(qt.zero_points, zps)
    np.testing.assert_array_equal(np.unique(qt.group_index), np.arange(len(scales)))


class TestFrozen:
    def test_freeze_blocks_writes(self):
        qt = E.quantize(np.ones((2, 2)) * 0.5, E.QuantSpec(granularity="per-tensor"))
        qt.freeze()
        with pytest.raises((ValueError, RuntimeError)):
            qt.codes[0, 0] = 3

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_dequantize_unchanged_by_freeze(self, scheme):
        x = np.random.default_rng(5).normal(size=(6, 16))
        spec = E.QuantSpec(bits=4, scheme=scheme, group_size=8)
        qt = E.quantize(x, spec, mask=np.abs(x) > 0.3)
        before = qt.dequantize()
        qt.freeze()
        after = qt.dequantize()
        assert before.dtype == after.dtype == np.float32
        np.testing.assert_array_equal(after, before)
        assert after is not qt.dequantize()     # decoded on every call

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_holds_only_its_encodings(self, scheme):
        x = np.random.default_rng(7).normal(size=(6, 16))
        spec = E.QuantSpec(bits=4, scheme=scheme, group_size=8)
        qt = E.quantize(x, spec, mask=np.abs(x) > 0.3)
        qt.freeze()
        qt.dequantize()
        held = sum(v.nbytes for v in vars(qt).values() if isinstance(v, np.ndarray))
        assert held <= sum(a.nbytes for a in (qt.codes, qt.scales, qt.zero_points,
                                              qt.mask) if a is not None)
        # one read-only group index per shape and spec, shared by every tensor
        assert qt.group_index is E.quantize(x * 2, spec).group_index
        assert not qt.group_index.flags.writeable


class TestSparsify:
    def test_unstructured_keep_ratio(self):
        x = np.random.default_rng(2).normal(size=(8, 8))
        pruned, mask = E.sparsify(x, E.Unstructured(keep_ratio=0.25))
        assert mask.sum() == 16
        assert np.all(pruned[~mask] == 0)
        # kept magnitudes dominate dropped ones
        assert np.abs(x[mask]).min() >= np.abs(x[~mask]).max() - 1e-12

    def test_structured_2_of_4(self):
        x = np.random.default_rng(3).normal(size=(4, 8))
        _, mask = E.sparsify(x, E.Structured(n=2, m=4))
        assert np.all(mask.reshape(-1, 4).sum(axis=1) == 2)

    def test_tie_keeps_lower_index(self):
        x = np.array([1.0, -1.0, 1.0, 0.5])
        _, mask = E.sparsify(x, E.Unstructured(keep_ratio=0.5))
        np.testing.assert_array_equal(mask, [True, True, False, False])

    @pytest.mark.parametrize("ratio, total, kept", [(0.07, 100, 7), (0.15, 20, 3),
                                                     (0.5, 7, 4)])
    def test_unstructured_kept_is_exact(self, ratio, total, kept):
        # in floats 0.07 * 100 is 7.000000000000001, whose ceiling is 8
        assert E.Unstructured(keep_ratio=ratio).kept(total) == kept

    def test_unstructured_exact_count_reaches_sparsify_and_bpw(self):
        x = np.random.default_rng(4).normal(size=(4, 25))
        sparsity = E.Unstructured(keep_ratio=0.07)
        pruned, mask = E.sparsify(x, sparsity)
        assert mask.sum() == 7
        spec = E.QuantSpec(bits=4, granularity="per-tensor")
        # 7 codes of 4 bits, one 16-bit scale, 1 mask bit per weight
        want = Fraction(7 * 4 + 16 + 100, 100)
        assert E.bpw_exact(E.quantize(pruned, spec), sparsity) == want
        assert E.bpw_exact(E.quantize(pruned, spec, mask=mask), sparsity) == want

    def test_structured_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            E.sparsify(np.ones((2, 6)), E.Structured(n=2, m=4))


class TestBpw:
    def test_hand_example_4125(self):
        # 1024 weights, 4-bit symmetric, groups of 128 -> 8 scales x 16 bits
        qt = E.quantize(np.random.default_rng(0).normal(size=(1024,)),
                        E.QuantSpec(bits=4, granularity="per-group", group_size=128))
        assert E.bpw_exact(qt) == Fraction(33, 8)  # 4.125 exactly

    def test_hand_example_3125_with_mask(self):
        x = np.random.default_rng(1).normal(size=(1024,))
        pruned, mask = E.sparsify(x, E.Unstructured(keep_ratio=0.5))
        qt = E.quantize(pruned, E.QuantSpec(bits=4, granularity="per-group",
                                            group_size=128), mask=mask)
        got = E.bpw_exact(qt, E.Unstructured(keep_ratio=0.5))
        assert got == Fraction(25, 8)  # (512*4 + 128 + 1024)/1024 = 3.125

    def test_asymmetric_adds_zero_point_bits(self):
        x = np.random.default_rng(2).normal(size=(1024,))
        qt = E.quantize(x, E.QuantSpec(bits=4, scheme="asymmetric",
                                       granularity="per-group", group_size=128))
        assert E.bpw_exact(qt) == Fraction(1024 * 4 + 128 + 128, 1024)

    def test_structured_mask_bits(self):
        # 2:4 mask costs ceil(log2 C(4,2)) = 3 bits per 4 weights
        assert E.Structured(n=2, m=4).mask_bits_per_weight() == Fraction(3, 4)

    def test_plan_bpw_all_8bit(self):
        m = E.init_model(E.ModelConfig(vocab_size=128, d_model=128, n_layers=1,
                                       n_heads=2, n_kv_heads=2, head_dim=64),
                         0)
        plan = E.uniform_plan(m, 8, group_size=128)
        # every matrix slot is per-group-128; 1-D norms are per-tensor, but
        # their scale overhead is the same 16 bits per 128 weights
        got = E.plan_bpw_exact(m, plan)
        assert got == Fraction(65, 8)  # 8.125 exactly


class TestPtqAndOverlap:
    def test_ptq_replaces_all_slots(self):
        m = small_model()
        qm = E.ptq_model(m, E.uniform_plan(m, 8, group_size=8))
        assert all(isinstance(w, Q.QuantTensor) for w in qm.weights.values())

    def test_self_overlap_is_one(self):
        m = small_model(3)
        seqs = [[1, 2, 3], [4, 5]]
        assert E.top1_overlap(m, m, seqs) == 1.0

    def test_overlap_symmetric(self):
        a, b = small_model(1), small_model(2)
        seqs = [[1, 2, 3, 4]]
        assert E.top1_overlap(a, b, seqs) == E.top1_overlap(b, a, seqs)

    def test_zero_positions_rejected(self):
        m = small_model()
        with pytest.raises(ValueError):
            E.top1_overlap(m, m, [])

    def test_more_bits_no_worse_overlap(self):
        m = small_model(5)
        seqs = [list(range(1, 17)), list(range(16, 0, -1))]
        ov8 = E.top1_overlap(m, E.ptq_model(m, E.uniform_plan(m, 8, group_size=8)), seqs)
        ov2 = E.top1_overlap(m, E.ptq_model(m, E.uniform_plan(m, 2, group_size=8)), seqs)
        assert ov8 >= ov2


class TestAssignPrecision:
    def test_budget_respected(self):
        m = small_model(7)
        seqs = [[1, 2, 3, 4, 5]]
        lo = E.plan_bpw(m, E.uniform_plan(m, 2, group_size=8))
        hi = E.plan_bpw(m, E.uniform_plan(m, 8, group_size=8))
        for frac in (1.0, 0.6, 0.3, 0.0):
            budget = lo + frac * (hi - lo)
            plan = E.assign_precision(m, seqs, budget, group_size=8)
            assert E.plan_bpw(m, plan) <= budget

    def test_infeasible_budget_rejected(self):
        m = small_model(7)
        for budget in (1.0, float("nan")):
            with pytest.raises(ConfigError):
                E.assign_precision(m, [[1, 2]], budget, group_size=8)

    def test_generous_budget_keeps_8_bits(self):
        m = small_model(7)
        plan = E.assign_precision(m, [[1, 2, 3]], 100.0, group_size=8)
        assert all(s.bits == 8 for s in plan.specs.values())


class TestPacking:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_pack_unpack_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        vals = rng.integers(0, 2 ** bits, size=77)
        back = Q.unpack_bits(Q.pack_bits(vals, bits), bits, 77)
        np.testing.assert_array_equal(back, vals)

    def test_packed_size(self):
        assert len(Q.pack_bits(np.zeros(8, dtype=np.int64), 3)) == 3  # 24 bits

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bits=st.sampled_from([2, 3, 4, 8]))
    def test_pack_matches_reference_and_roundtrips(self, data, bits):
        vals = data.draw(st.lists(st.integers(0, 2 ** bits - 1), max_size=200))
        packed = Q.pack_bits(np.array(vals, dtype=np.int64), bits)
        # reference: value i occupies bits [i*bits, (i+1)*bits), LSB first
        acc = sum(v << (i * bits) for i, v in enumerate(vals))
        assert packed == acc.to_bytes((len(vals) * bits + 7) // 8, "little")
        np.testing.assert_array_equal(Q.unpack_bits(packed, bits, len(vals)), vals)

    def test_unpack_short_buffer_rejected(self):
        with pytest.raises(ShapeError):
            Q.unpack_bits(b"\x00\x00", 3, 6)  # 18 bits need 3 bytes

    def test_quant_manifest_roundtrip(self, tmp_path):
        m = small_model(9)
        qm = E.ptq_model(m, E.uniform_plan(m, 3, scheme="asymmetric",
                                           group_size=8), freeze=True)
        p = tmp_path / "q.bin"
        E.save_quant_model(qm, p)
        back = E.load_quant_model(p)
        for name in qm.weights:
            np.testing.assert_array_equal(back.weights[name].codes,
                                          qm.weights[name].codes)
            np.testing.assert_array_equal(back.weight(name), qm.weight(name))
            assert back.weights[name].frozen
