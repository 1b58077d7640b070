"""Desk-scale lab for on-device LLM serving techniques on a deterministic
toy transformer: budgeted KV-cache eviction, lossless speculative decoding,
low-bit quantization with mixed-precision assignment, swappable low-rank
adapters over a frozen base, and the associated training losses and metrics.
"""

from .errors import (ConfigError, ContractViolation, FrozenEncodingError,
                     ShapeError)
from .model import (ForwardOutput, ModelConfig, PatchGrid, TinyLM, apply_rope,
                    forward, greedy_decode, init_model, load_model,
                    pixel_shuffle, pixel_unshuffle, rms_norm, save_model,
                    slot_rng)
from .kvcache import (AttentionSink, EvictionReport, HeavyHitter, Hybrid,
                      KvCache, LayerReport, ObsWindow, RandomPolicy,
                      cache_bytes, evict, eviction_ratio)
from .specdec import (DraftConfig, FeatureReuseDraft, IndependentDraft,
                      SpecStats, block_efficiency, decode_speculative,
                      propose)
from .quant import (PrecisionPlan, QuantSpec, QuantTensor, Structured,
                    Unstructured, assign_precision, bpw_exact, load_quant_model,
                    pack_bits, plan_bpw, plan_bpw_exact, ptq_model, quantize,
                    save_quant_model, sparsify, top1_overlap, uniform_plan,
                    unpack_bits)
from .lora import (AdapterRegistry, LinearFit, LoraAdapter, create_adapter,
                   load_adapter, qalft_fit, qalft_gradient_check,
                   save_adapter)
from .trainmath import (CaptionStats, FilterDecision, Image, InterleavedDoc,
                        MpoWeights, PairSim, PrefBatch, RolloutRecord, Text,
                        caption_stats, entity_density_reward,
                        entity_weighted_ce, generation_loss, key_info_reward,
                        log_sigmoid, mpo_joint_loss, mpo_pair_filter,
                        mpo_preference_loss, mpo_quality_loss,
                        reposition_images, reward_shift_update,
                        select_by_difficulty, total_reward)
from .metrics import (ROUGE_VARIANT, RougeScore, lcs_length, rouge_l, rouge_n,
                      tokenize)
from .tasks import NeedleSample, gen_needle

__version__ = "0.1.0"
