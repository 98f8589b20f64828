"""Hand-counted multiply-accumulate totals for the cost estimator."""

import pytest

from stgraph.errors import ConfigError
from stgraph.flops import estimate_flops
from stgraph.passing import ModelConfig


def matmul_macs(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Multiply-accumulates of an (m, k) @ (k, n) product."""
    (m, k), (k2, n) = a, b
    assert k == k2
    return m * k * n


def cfg(**overrides) -> ModelConfig:
    base = dict(state_dim=4, heads=1, iterations=1, message_fns=("nonlocal",),
                tau_c=3, tau_s=1, task="action", feature_channels=3,
                action_classes=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def test_nonlocal_counts_by_hand():
    # n=2 fg, m=3 ctx, d=4, c=3, one nonlocal head, window 3, 4 keyframes
    out = estimate_flops(cfg(), n_fg=2, n_context=3, keyframes=4)
    # input: (2+3) nodes * 3 channels * 4 dims per keyframe
    assert out["input_projection"] == 4 * 5 * 3 * 4
    # spatial per keyframe, reassociated: q = h wq 2*16, u = q wk^T 2*16,
    # logits u kv^T 2*5*4, pooled A kv 2*5*4, message pooled wv 2*16
    assert out["spatial_messages"] == 4 * (32 + 32 + 40 + 40 + 32)
    # temporal kv rows = (3-1)*2 = 4 on every keyframe
    assert out["temporal_messages"] == 4 * (32 + 32 + 32 + 32 + 32)
    assert out["gating"] == 0
    assert out["readout"] == 4 * 2 * 4 * 2
    assert out["total"] == sum(v for k, v in out.items() if k != "total")
    assert out["total"] == 240 + 704 + 640 + 0 + 64


def test_gat_counts_by_hand():
    out = estimate_flops(cfg(message_fns=("gat",), tau_c=1), n_fg=2, n_context=3, keyframes=2)
    # numgrad.additive_attention with receivers (n, d) = (2, 4), neighbors
    # (s, d) = (5, 4), transform (4, 4) and score [a1 || a2] of 2 x 4
    n, s, d = 2, 5, 4
    per_kf = (matmul_macs((n, d), (d, 1))      # receivers @ a1
              + matmul_macs((s, d), (d, 1))    # neighbors @ a2
              + matmul_macs((n, s), (s, d))    # attention @ neighbors
              + matmul_macs((n, d), (d, d)))   # pooled @ transform
    assert per_kf == 100
    assert out["spatial_messages"] == 2 * per_kf
    assert out["temporal_messages"] == 0


def test_gating_counts_only_with_parallel_messages():
    single = estimate_flops(cfg(), n_fg=2, n_context=3, keyframes=1)
    assert single["gating"] == 0
    double = estimate_flops(cfg(message_fns=("nonlocal", "gat")), n_fg=2, n_context=3, keyframes=1)
    # numgrad.gated_mix of K = 2 messages (n, d) = (2, 4) for receivers
    # (2, 4), with gate [g1 || g2] of 2 x 4, once per phase, 2 phases
    k, n, d = 2, 2, 4
    per_phase = (matmul_macs((n, d), (d, 1))        # receivers @ g1
                 + k * matmul_macs((n, d), (d, 1))  # each message @ g2
                 + k * n * d)                       # sum of weight * message
    assert per_phase == 40
    assert double["gating"] == 2 * per_phase
    heads2 = estimate_flops(cfg(heads=2), n_fg=2, n_context=3, keyframes=1)
    assert heads2["gating"] == 2 * per_phase


def test_scenegraph_readout_counts():
    config = cfg(task="scenegraph", object_classes=5, relation_classes=3, tau_c=1)
    out = estimate_flops(config, n_fg=4, n_context=2, keyframes=2)
    # objects n*d*O; relations project each node by both weight halves,
    # 2*n*d*R, not each of the 6 pairs' 2d-wide rows
    n, d = 4, 4
    assert out["readout"] == 2 * (n * d * 5 + 2 * n * d * 3)


def test_total_is_linear_in_keyframes():
    one = estimate_flops(cfg(), n_fg=2, n_context=3, keyframes=1)
    five = estimate_flops(cfg(), n_fg=2, n_context=3, keyframes=5)
    nine = estimate_flops(cfg(), n_fg=2, n_context=3, keyframes=9)
    assert five["total"] == 5 * one["total"]
    assert nine["total"] == 9 * one["total"]
    for key in one:
        assert five[key] == 5 * one[key]


def test_total_is_constant_in_stride():
    a = estimate_flops(cfg(tau_s=1), n_fg=2, n_context=3, keyframes=4)
    b = estimate_flops(cfg(tau_s=50), n_fg=2, n_context=3, keyframes=4)
    assert a == b


def test_window_one_has_no_temporal_cost():
    out = estimate_flops(cfg(tau_c=1), n_fg=2, n_context=3, keyframes=4)
    assert out["temporal_messages"] == 0


def test_iterations_and_heads_scale_messages():
    base = estimate_flops(cfg(), n_fg=2, n_context=3, keyframes=2)
    twice = estimate_flops(cfg(iterations=2), n_fg=2, n_context=3, keyframes=2)
    heads3 = estimate_flops(cfg(heads=3), n_fg=2, n_context=3, keyframes=2)
    assert twice["spatial_messages"] == 2 * base["spatial_messages"]
    assert twice["temporal_messages"] == 2 * base["temporal_messages"]
    assert heads3["spatial_messages"] == 3 * base["spatial_messages"]


def test_estimate_validates_inputs():
    with pytest.raises(ConfigError):
        estimate_flops(cfg(), n_fg=0, n_context=3, keyframes=1)
    with pytest.raises(ConfigError):
        estimate_flops(cfg(), n_fg=1, n_context=-1, keyframes=1)
    with pytest.raises(ConfigError):
        estimate_flops(cfg(), n_fg=1, n_context=0, keyframes=0)
