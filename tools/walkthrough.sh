#!/bin/sh
# Run the README CLI walkthrough, plus a tau_c 3 run warm-started from the
# walkthrough's spatial-only checkpoint, an evaluation and attention dump of a
# hand-written manifest over the walkthrough's grids whose boxes exercise
# pooling's edge cases (boxes that miss every cell center, one smaller than
# a cell, one centered between four cells, edges on cell centers, small
# proposals and detections) and a short training run on it (its detections
# take labels from the ground truth they overlap), a tau_c 3 action run with
# proposals, a tau_c 3 nonlocal+GAT scene-graph run, a GAT temporal-pairs run
# scored on a held-out split, a 1-epoch one whose held-out mAP stays below 1
# (so the diff sees a precision/recall curve short of perfect), a tau_c 5, tau_s 2
# temporal-pairs run (several window offsets at a stride above 1) with its
# attention dump, a tau_c 5, tau_s 2 gradient check (a stride-2 temporal
# gather next to a block without temporal neighbours), and train and flops
# runs from a --config file (one of them failing on a value from the
# file), with the package from SRC.
# Every file, every printed line and the failing run's stderr and exit
# status land under OUT, so two source trees compare with one diff:
#   tools/walkthrough.sh old/src a && tools/walkthrough.sh src b && diff -r a b
set -eu
[ $# -eq 2 ] || { echo "usage: $0 SRC OUT" >&2; exit 2; }
SRC=$(cd "$1" && pwd)
mkdir -p "$2" && cd "$2"   # relative paths keep OUT out of the outputs
st() { name=$1; shift; PYTHONPATH="$SRC" python3 -m stgraph.cli "$@" > "$name.txt"; }
small="--state-dim 16 --heads 2 --seed 0"
both="--message-fn nonlocal --message-fn gat --tau-c 3"
st synth synth action-overfit --out ds --seed 0
st train train --data ds/manifest.jsonl --out run $small --message-fn nonlocal --tau-c 1
st eval eval --data ds/manifest.jsonl --checkpoint run/checkpoint.safetensors --out eval
st dump dump-attention --data ds/manifest.jsonl --checkpoint run/checkpoint.safetensors --out attention.jsonl
# resume the spatial-only run as a model with temporal phases
st warmtrain train --data ds/manifest.jsonl --out warmrun $small --message-fn nonlocal --tau-c 3 \
  --init-from run/checkpoint.safetensors
# ds's grids are 2x4x4x8, with cell centers at 0.125, 0.375, 0.625 and 0.875 on both axes
cat > ds/edges.jsonl <<'END'
{"record": "header", "version": 1, "task": "action", "action_classes": 3}
{"record": "clip", "clip_id": "edges0", "keyframes": [{"keyframe_id": 0, "grid": "grids/clip000_k0.grid", "foreground": [{"box": [0.0, 0.0, 0.1, 0.1], "labels": [1, 0, 0]}, {"box": [0.55, 0.3, 0.6, 0.35], "labels": [0, 1, 0]}, {"box": [0.125, 0.375, 0.625, 0.875], "labels": [0, 0, 1]}, {"box": [0.45, 0.45, 0.55, 0.55], "labels": [1, 1, 0]}], "proposals": [[0.3, 0.3, 0.4, 0.4], [0.0, 0.5, 1.0, 1.0]]}, {"keyframe_id": 1, "grid": "grids/clip000_k1.grid", "foreground": [{"box": [0.0, 0.0, 0.5, 0.5], "labels": [1, 0, 1]}], "proposals": [[0.875, 0.0, 1.0, 0.125], [0.0, 0.0, 1.0, 1.0]], "detections": [[0.9, 0.9, 1.0, 1.0], [0.0, 0.0, 0.5, 0.5], [0.6, 0.1, 0.7, 0.2]]}]}
{"record": "clip", "clip_id": "edges1", "keyframes": [{"keyframe_id": 0, "grid": "grids/clip001_k0.grid", "foreground": [{"box": [0.126, 0.0, 0.374, 1.0], "labels": [0, 1, 1]}, {"box": [0.375, 0.125, 0.875, 0.375], "labels": [1, 0, 0]}], "proposals": [[0.2, 0.2, 0.3, 0.3], [0.0, 0.0, 1.0, 1.0]]}]}
END
st edgeeval eval --data ds/edges.jsonl --checkpoint run/checkpoint.safetensors --out edgeeval
st edgedump dump-attention --data ds/edges.jsonl --checkpoint run/checkpoint.safetensors --out edgeattention.jsonl
st edgetrain train --data ds/edges.jsonl --out edgerun $small --message-fn nonlocal --tau-c 1 --epochs 2
st flops flops --state-dim 16 --heads 2 --message-fn nonlocal --fg 4 --context 17 --keyframes 8
st gradcheck gradcheck --task scenegraph --tau-c 3 --tolerance 1e-4
st synth4 synth action-overfit --out ds4 --seed 1 --clips 6 --keyframes 4
st train4 train --data ds4/manifest.jsonl --out run4 $small $both --epochs 4
st dump4 dump-attention --data ds4/manifest.jsonl --checkpoint run4/checkpoint.safetensors --out attention4.jsonl
st sgsynth synth scenegraph --out sg --seed 0 --keyframes 4
st sgtrain train --data sg/manifest.jsonl --out sgrun $small $both --epochs 4
st sgeval eval --data sg/manifest.jsonl --checkpoint sgrun/checkpoint.safetensors --out sgeval --k 1 --k 3
st sgdump dump-attention --data sg/manifest.jsonl --checkpoint sgrun/checkpoint.safetensors --out sgattention.jsonl
st tpsynth synth temporal-pairs --out tp --seed 0 --clips 8
st tptrain train --data tp/manifest.jsonl --out tprun $small --message-fn gat --tau-c 3 --epochs 4
st tpdump dump-attention --data tp/manifest.jsonl --checkpoint tprun/checkpoint.safetensors --out tpattention.jsonl
st tpsynth1 synth temporal-pairs --out tp1 --seed 0 --clips 8 --split 1
st tpeval eval --data tp1/manifest.jsonl --checkpoint tprun/checkpoint.safetensors --out tpeval
st tptrain1 train --data tp/manifest.jsonl --out tprun1 $small --message-fn gat --tau-c 3 --epochs 1
st tpeval1 eval --data tp1/manifest.jsonl --checkpoint tprun1/checkpoint.safetensors --out tpeval1
st tp7synth synth temporal-pairs --out tp7 --seed 0 --clips 6 --keyframes 7 --tau-s 2
st tp7train train --data tp7/manifest.jsonl --out tp7run $small \
  --message-fn nonlocal --message-fn gat --tau-c 5 --tau-s 2 --epochs 3
st tp7dump dump-attention --data tp7/manifest.jsonl --checkpoint tp7run/checkpoint.safetensors --out tp7attention.jsonl
st gradcheck5 gradcheck --task action --tau-c 5 --tau-s 2 --message-fn nonlocal --message-fn gat
echo '{"state_dim": 8, "heads": 1, "iterations": 2, "message_fns": ["gat", "nonlocal"], "tau_c": 3, "seed": 3}' > cfg.json
st cfgtrain train --data ds4/manifest.jsonl --out cfgrun --config cfg.json --epochs 2
st cfgflops flops --config cfg.json --tau-c 5 --fg 4 --context 17 --keyframes 8
echo '{"state_dim": 8, "tau_c": 2}' > badcfg.json
status=0
st badcfg train --data ds/manifest.jsonl --out badrun --config badcfg.json 2> badcfg.err || status=$?
echo "exit $status" > badcfg.status
