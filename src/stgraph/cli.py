"""Command line interface: synthesize datasets, train, evaluate, inspect.

Subcommands:

    synth           write a synthetic dataset (action-overfit, temporal-pairs, scenegraph)
    train           fit a model on a manifest and write checkpoint + report
    eval            score a checkpoint on a manifest and write a report
    gradcheck       compare analytic and numeric gradients for a config
    dump-attention  write per-node attention and gate records for one clip
    flops           print the multiply-accumulate estimate for a config

Reports are canonical JSON (sorted keys, no timestamps) and write floats in
their shortest representation.  Checkpoints use the safetensors layout: an
8-byte header length, a canonical JSON header with the config echo, then
each tensor's raw little-endian float64 bytes (see train.save_checkpoint).
Identical runs produce identical bytes.
"""

import argparse
import json
import os
import sys

from . import data as data_mod
from .errors import ConfigError, GraphModelError
from .flops import estimate_flops
from .graph import build_graph, node_ids
from .heads import pair_index
from .metrics import check_iou_threshold, check_recall_cutoffs
from .passing import (FN_GAT, FN_NONLOCAL, TASK_ACTION, TASK_SCENEGRAPH, ModelConfig,
                      param_shapes, run_inference)
from .train import (Schedule, canonical_json, effective_batch_size, evaluate_action,
                    evaluate_scenegraph, gradient_check, load_checkpoint, save_checkpoint,
                    train_loop)

# the ModelConfig fields set by a flag of the same name
_CONFIG_FLAGS = ("state_dim", "heads", "iterations", "tau_c", "tau_s", "seed", "feature_channels",
                 "action_classes", "object_classes", "relation_classes", "task")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of model settings; flags override it")
    p.add_argument("--state-dim", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--message-fn", action="append", choices=[FN_NONLOCAL, FN_GAT],
                   help="repeat to run several message functions in parallel")
    p.add_argument("--tau-c", type=int, help="temporal window (odd; 1 disables temporal edges)")
    p.add_argument("--tau-s", type=int, help="temporal stride between connected keyframes")
    p.add_argument("--seed", type=int)
    p.add_argument("--task", choices=[TASK_ACTION, TASK_SCENEGRAPH])
    p.add_argument("--feature-channels", type=int)
    p.add_argument("--action-classes", type=int)
    p.add_argument("--object-classes", type=int)
    p.add_argument("--relation-classes", type=int)


def _config_from_args(args, forced: dict | None = None, base: dict | None = None,
                      check=param_shapes) -> ModelConfig:
    """The model config from base, the --config file, flags and forced values, in that order.

    A ModelConfig validates itself, and check runs on it too: param_shapes
    bounds the parameter count for callers that allocate parameters.  An
    error caused by a value from the file starts with the file's path.
    """
    settings: dict = dict(base or {})
    path = getattr(args, "config", None)
    from_file: set = set()
    if path:
        try:
            with open(path) as f:
                loaded = json.load(f)
        except (OSError, ValueError, RecursionError) as err:
            raise ConfigError(f"{path}: cannot read config file: {err}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config file must hold a JSON object")
        unknown = set(loaded) - set(ModelConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"{path}: unknown config fields: {sorted(unknown)}")
        settings.update(loaded)
        from_file = set(loaded)
    flags = {key: getattr(args, key, None) for key in _CONFIG_FLAGS}
    if getattr(args, "message_fn", None):
        flags["message_fns"] = tuple(args.message_fn)
    for key, value in flags.items():
        if value is not None:
            settings[key] = value
            from_file.discard(key)
    for key, value in (forced or {}).items():
        if key in settings and settings[key] != value:
            where = f"{path}: " if key in from_file else ""
            raise ConfigError(
                f"{where}{key} is {value!r} in the dataset but {settings[key]!r} was requested")
        settings[key] = value
        from_file.discard(key)
    try:
        config = ModelConfig(**settings)
        check(config)
    except ConfigError as err:
        if not from_file:
            raise
        # what the flags get wrong on their own is reported as it is; the
        # rest fails only with the file's values
        check(ModelConfig(**{k: v for k, v in settings.items() if k not in from_file}))
        raise ConfigError(f"{path}: {err}") from None
    return config


def _forced_from_dataset(info: data_mod.DatasetInfo) -> dict:
    forced: dict = {"task": info.task, "feature_channels": info.grid_shape[2]}
    if info.task == TASK_ACTION:
        forced["action_classes"] = info.action_classes
    else:
        forced["object_classes"] = info.object_classes
        forced["relation_classes"] = info.relation_classes
    return forced


def _check_dataset_matches(config: ModelConfig, info: data_mod.DatasetInfo) -> None:
    for key, value in _forced_from_dataset(info).items():
        if getattr(config, key) != value:
            raise ConfigError(
                f"checkpoint has {key}={getattr(config, key)!r}, dataset needs {value!r}")


def _flatten(payload: dict, prefix: str = ""):
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{name}.")
        else:
            yield name, value


def write_report(out_dir: str, payload: dict) -> None:
    """report.json (canonical JSON) plus report.txt (sorted key = value lines)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        f.write(canonical_json(payload) + "\n")
    lines = [f"{name} = {value!r}" for name, value in _flatten(payload)]
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    if args.kind == "action-overfit":
        manifest = data_mod.synth_action_overfit(
            args.out, seed=args.seed, clips=args.clips, classes=args.classes,
            keyframes=args.keyframes, channels=args.channels)
    elif args.kind == "temporal-pairs":
        manifest = data_mod.synth_temporal_pairs(
            args.out, seed=args.seed, split=args.split, clips=args.clips,
            keyframes=args.keyframes, channels=args.channels, tau_s=args.tau_s)
    else:
        manifest = data_mod.synth_scenegraph(
            args.out, seed=args.seed, clips=args.clips, keyframes=args.keyframes,
            objects=args.objects, relations=args.relations, channels=args.channels)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    info, records = data_mod.load_dataset(args.data)
    config = _config_from_args(args, forced=_forced_from_dataset(info))
    clips = [data_mod.featurize_clip(r, info, mode=data_mod.TRAIN_MODE) for r in records]
    schedule = Schedule() if args.epochs is None else Schedule().scaled(args.epochs)
    effective_batch_size(args.batch_size, config.tau_c)  # a bad --batch-size fails before --out
    init_from = None
    if args.init_from:
        init_from, _, _ = load_checkpoint(args.init_from)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before training
    result = train_loop(clips, config, schedule, seed=config.seed,
                        batch_size=args.batch_size, init_from=init_from)
    save_checkpoint(os.path.join(args.out, "checkpoint.safetensors"),
                    result.params, config, seed=config.seed, log=result.log)
    payload = {
        "command": "train",
        "clips": len(clips),
        "batch_size": args.batch_size,
        "epochs": len(result.log),
        "final_loss": result.log[-1]["loss"],
        "final_lr": result.log[-1]["lr"],
        "parameters": sum(t.data.size for t in result.params.values()),
        "config": config.to_dict(),
    }
    write_report(args.out, payload)
    print(f"trained {len(clips)} clips for {len(result.log)} epochs, "
          f"final loss {result.log[-1]['loss']!r}")
    return 0


def cmd_eval(args) -> int:
    params, config, _ = load_checkpoint(args.checkpoint)
    ks = tuple(args.k) if args.k else (20, 50)
    if config.task == TASK_ACTION:
        check_iou_threshold(args.iou)
    else:
        check_recall_cutoffs(ks)
    info, records = data_mod.load_dataset(args.data)
    _check_dataset_matches(config, info)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before evaluation
    clips = [data_mod.featurize_clip(r, info, mode=data_mod.EVAL_MODE) for r in records]
    payload: dict = {"command": "eval", "clips": len(clips), "config": config.to_dict()}
    if config.task == TASK_ACTION:
        per_class, mean_ap = evaluate_action(clips, params, config, iou_threshold=args.iou)
        payload["map"] = mean_ap
        payload["ap"] = {str(cls): ap for cls, ap in per_class.items()}
        print(f"frame mAP {mean_ap!r} over {len(clips)} clips")
    else:
        recalls = evaluate_scenegraph(clips, params, config, ks=ks, mode=args.mode)
        # with K at or above a keyframe's candidate count, recall@K ranks
        # nothing: every candidate is in the top K
        candidates = max(len(pair_index(len(f.fg_boxes))) * config.relation_classes
                         for clip in clips for f in clip.frames)
        saturated = sorted(k for k in set(ks) if k >= candidates)
        payload["mode"] = args.mode
        payload["recall"] = {str(k): v for k, v in recalls.items()}
        payload["max_candidates"] = candidates
        payload["saturated_k"] = saturated
        shown = ", ".join(f"R@{k} {recalls[k]!r}" for k in ks)
        print(f"{args.mode}: {shown}")
        if saturated:
            print(f"saturated: {', '.join(f'R@{k}' for k in saturated)} (no keyframe has more "
                  f"than {candidates} candidates, so these rank nothing)")
    write_report(args.out, payload)
    return 0


def cmd_gradcheck(args) -> int:
    # finite differences cost two forward passes per scalar, so the default
    # model is deliberately tiny; explicit flags or a config file still win
    small = dict(state_dim=6, heads=1, feature_channels=4,
                 action_classes=2, object_classes=3, relation_classes=2)
    if not 0 <= args.tolerance <= sys.float_info.max:
        raise ConfigError(f"tolerance must be finite and non-negative, got {args.tolerance}")
    config = _config_from_args(args, base=small)
    errors = gradient_check(config, seed=config.seed, step=args.step)
    for name in sorted(errors):
        print(f"{name} {errors[name]:.3e}")
    worst = max(errors.values())
    print(f"worst {worst:.3e} over {len(errors)} parameters")
    if worst > args.tolerance:
        print(f"error: worst relative error {worst:.3e} exceeds {args.tolerance:.3e}",
              file=sys.stderr)
        return 1
    return 0


def cmd_dump_attention(args) -> int:
    params, config, _ = load_checkpoint(args.checkpoint)
    info, records = data_mod.load_dataset(args.data)
    _check_dataset_matches(config, info)
    matching = [r for r in records if args.clip in (None, r.clip_id)]
    if not matching:
        raise ConfigError(f"no clip named {args.clip!r} in {args.data}")
    record = matching[0]
    clip = data_mod.featurize_clip(record, info, mode=data_mod.EVAL_MODE)
    with open(args.out, "w") as f:  # an unusable --out fails before inference
        graph = build_graph(clip.frames, params, config)
        result = run_inference(graph, params, config, record_traces=True)
        nodes = {}
        for pos, frame in enumerate(graph.keyframes):
            for row, nid in enumerate(node_ids(graph, pos, context=True)):
                kind, box, cell = frame.describe(row)
                nodes[nid] = {
                    "node": nid,
                    "kind": kind,
                    "keyframe_id": frame.keyframe_id,
                    "box": box.as_list() if box is not None else None,
                    "cell": list(cell) if cell is not None else None,
                }
        lines = []
        for rec in result.attention:
            lines.append(canonical_json({
                "record": "attention",
                "clip_id": record.clip_id,
                "node": rec.node_id,
                "iteration": rec.iteration,
                "phase": rec.phase,
                "function": rec.function,
                "head": rec.head,
                "neighbors": [nodes[nid] for nid in rec.neighbor_ids],
                "weights": [float(w) for w in rec.weights],
            }) + "\n")
        for g in result.gates:
            lines.append(canonical_json({
                "record": "gate",
                "clip_id": record.clip_id,
                "node": g.node_id,
                "iteration": g.iteration,
                "phase": g.phase,
                "slots": list(g.slots),
                "weights": [float(w) for w in g.weights],
            }) + "\n")
        f.write("".join(lines))
    print(f"wrote {len(lines)} records to {args.out}")
    return 0


def cmd_flops(args) -> int:
    config = _config_from_args(args, check=lambda config: None)  # allocates no parameters
    out = estimate_flops(config, n_fg=args.fg, n_context=args.context,
                         keyframes=args.keyframes)
    if args.out:  # an unusable --out fails before anything is printed
        with open(args.out, "w") as f:
            f.write(canonical_json(out) + "\n")
    for key in sorted(out):
        print(f"{key} = {out[key]}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stgraph",
        description="Spatio-temporal graph models over video keyframes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset")
    p.add_argument("kind", choices=["action-overfit", "temporal-pairs", "scenegraph"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clips", type=int, default=24)
    p.add_argument("--keyframes", type=int, default=2)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--classes", type=int, default=3, help="action classes (action-overfit)")
    p.add_argument("--split", type=int, default=0, help="sample split (temporal-pairs)")
    p.add_argument("--tau-s", type=int, default=1, help="label stride (temporal-pairs)")
    p.add_argument("--objects", type=int, default=4, help="object classes (scenegraph)")
    p.add_argument("--relations", type=int, default=3, help="relation classes (scenegraph)")
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("train", help="train on a manifest")
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=float, help="rescale the schedule to this many epochs")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--init-from", help="checkpoint to warm start from")
    _add_model_flags(p)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iou", type=float, default=0.5, help="matching threshold (action)")
    p.add_argument("--k", type=int, action="append", help="recall cutoffs (scene graph)")
    p.add_argument("--mode", choices=["sgcls", "predcls"], default="sgcls")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    _add_model_flags(p)
    p.set_defaults(run=cmd_gradcheck)

    p = sub.add_parser("dump-attention", help="write attention and gate records for a clip")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output JSON-lines file")
    p.add_argument("--clip", help="clip id (default: first clip)")
    p.set_defaults(run=cmd_dump_attention)

    p = sub.add_parser("flops", help="closed-form multiply-accumulate estimate")
    p.add_argument("--fg", type=int, required=True, help="foreground nodes per keyframe")
    p.add_argument("--context", type=int, required=True, help="context nodes per keyframe")
    p.add_argument("--keyframes", type=int, required=True)
    p.add_argument("--out", help="also write the components as JSON")
    _add_model_flags(p)
    p.set_defaults(run=cmd_flops)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except GraphModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # an output path that cannot be created or written
        where = f"{err.filename}: " if err.filename else ""
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
