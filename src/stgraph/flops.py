"""Closed-form multiply-accumulate counts for one clip forward pass.

Counts cover projections, message passing, gating, and readout, in the
association the code runs; cheap elementwise work (softmax, ReLU, layer
norm, the pair sums of the relation readout) is excluded.  Every keyframe
is treated as interior, so the temporal key/value set always holds
(tau_c - 1) * n_fg rows and the total is exactly linear in the number of
keyframes and independent of the temporal stride.
"""

from .errors import ConfigError
from .passing import FN_GAT, FN_NONLOCAL, TASK_ACTION, ModelConfig


def _attention_macs(fn: str, n_queries: int, n_kv: int, d: int) -> int:
    if fn == FN_NONLOCAL:
        # numgrad.nonlocal_attention projects only the query rows, by each
        # head's wq, wk^T and wv; the scores and the pooling read the
        # neighbor rows as they are, for all heads' stacked rows at once
        project = 3 * n_queries * d * d
        mix = 2 * n_queries * n_kv * d
        return project + mix
    # the score halves h_v . a1 and h_j . a2 once per row, the
    # attention-weighted sum of neighbor rows, and the output transform
    score = (n_queries + n_kv) * d
    aggregate = n_queries * n_kv * d
    transform = n_queries * d * d
    return score + aggregate + transform


def estimate_flops(config: ModelConfig, n_fg: int, n_context: int, keyframes: int) -> dict:
    """Multiply-accumulate counts, itemized and totaled.

    n_fg and n_context are per-keyframe node counts; the estimate assumes
    they are uniform across the clip.
    """
    if n_fg < 1:
        raise ConfigError(f"n_fg must be at least 1, got {n_fg}")
    if n_context < 0:
        raise ConfigError(f"n_context must be nonnegative, got {n_context}")
    if keyframes < 1:
        raise ConfigError(f"keyframes must be at least 1, got {keyframes}")
    d = config.state_dim
    c = config.feature_channels

    input_projection = keyframes * (n_fg + n_context) * c * d

    # every (iteration, head, keyframe) runs each function on the same shapes
    repeats = config.iterations * config.heads * keyframes
    spatial = repeats * sum(_attention_macs(fn, n_fg, n_fg + n_context, d)
                            for fn in config.message_fns)
    temporal = 0
    if config.tau_c > 1:
        temporal = repeats * sum(_attention_macs(fn, n_fg, (config.tau_c - 1) * n_fg, d)
                                 for fn in config.message_fns)
    gating = 0
    if config.num_messages > 1:
        # h_v . g1 once, m_k . g2 per slot, then the weighted sum of the slots
        per_node = (2 * config.num_messages + 1) * d
        gating = config.iterations * len(config.phases()) * keyframes * n_fg * per_node

    if config.task == TASK_ACTION:
        readout = keyframes * n_fg * d * config.action_classes
    else:
        # heads.pair_logits projects each node by both halves of the
        # relation weight, then adds projected rows per pair
        readout = keyframes * (n_fg * d * config.object_classes
                               + 2 * n_fg * d * config.relation_classes)

    components = {
        "input_projection": input_projection,
        "spatial_messages": spatial,
        "temporal_messages": temporal,
        "gating": gating,
        "readout": readout,
    }
    components["total"] = sum(components.values())
    return components
