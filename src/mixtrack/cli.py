"""Command-line entry points.

Five subcommands: train, track, eval, inspect and cost.  Every output
file is written atomically (temp file, then rename), so an interrupted
run never leaves a half-written artifact behind.  ``track`` and
``inspect`` build the model around the checkpoint's arrays, without the
random init that ``train`` draws.  Loading a sequence reads only each
frame's header, and ``track`` and ``eval`` map each frame only while it
is used, so their memory does not grow with the sequence length.  Under
asymmetric attention ``track`` computes the template features once per
template set and reuses them on every search frame, with the same bits as
the joint pass.

Reruns are bit-identical.  The ``tiny`` preset gives the same bits at any
BLAS thread count; the large presets repeat bit for bit only at a fixed
thread count (``OPENBLAS_NUM_THREADS``), which sets their sum orders.
"""

import argparse
import os
import sys

import numpy as np

from . import backbone as bb
from .attention import ASYMMETRIC, attention_weights_dump
from .boxes import to_corners, to_xywh
from .checkpoint import (
    atomic_write,
    load_checkpoint,
    save_checkpoint,
    state_dict,
)
from .config import (
    RunConfig,
    format_run_config,
    load_run_config,
    parse_run_config,
)
from .data import _box_rows, load_sequence, precision, success_auc
from .errors import ConfigError, ParseError, ShapeError, UsageError
from .tracker import Tracker, crop_search, crop_template
from .train import (
    default_training_data,
    train_stage1,
    train_stage2_spm,
    write_loss_curve,
)

_ERRORS = (ConfigError, ParseError, ShapeError, UsageError, OSError)


def _curve_path(out, stage):
    base, _ = os.path.splitext(out)
    return f"{base}.stage{stage}.csv"


def cmd_train(args):
    cfg = load_run_config(args.config)
    data = default_training_data(cfg.seed)
    model = cfg.build_model()
    print(f"stage 1: {cfg.stage1_iters} iterations")
    curve1 = train_stage1(model, data, cfg)
    print(f"  loss {curve1[0][1]:.4f} -> {curve1[-1][1]:.4f}")
    print(f"stage 2: {cfg.stage2_iters} iterations")
    curve2 = train_stage2_spm(model, data, cfg)
    print(f"  loss {curve2[0][1]:.4f} -> {curve2[-1][1]:.4f}")
    write_loss_curve(_curve_path(args.out, 1), curve1)
    write_loss_curve(_curve_path(args.out, 2), curve2)
    save_checkpoint(args.out, state_dict(model),
                    config_text=format_run_config(cfg))
    print(f"wrote {args.out}")
    return 0


def _load_model(checkpoint_path, config_path):
    """The checkpoint's model under the config that ``--config`` names, else
    the embedded one, else the defaults.  The model is built around the
    checkpoint's arrays, with no random draw and one copy of each."""
    arrays, text = load_checkpoint(checkpoint_path)
    if config_path is not None:
        cfg = load_run_config(config_path)
    elif text is not None:
        cfg = parse_run_config(text)
    else:
        cfg = RunConfig()
    return cfg.load_model(arrays), cfg


def cmd_track(args):
    model, cfg = _load_model(args.checkpoint, args.config)
    seq = load_sequence(args.sequence)
    tracker = Tracker(
        model,
        params=cfg.crop_params(),
        update_interval=cfg.update_interval,
        score_threshold=cfg.score_threshold,
        use_template_cache=cfg.attention == ASYMMETRIC,
    )
    boxes, scores = tracker.track(seq)
    lines = []
    for i, (box, score) in enumerate(zip(boxes, scores), start=1):
        x, y, w, h = to_xywh(box)
        lines.append(f"{i},{x:.6f},{y:.6f},{w:.6f},{h:.6f},{score:.6f}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"tracked {len(boxes)} frames of {seq.name} -> {args.out}")
    return 0


def _read_box_lines(path):
    """Rows [frame, x, y, w, h, score] of a boxes csv that can be scored
    honestly, as ``track`` writes them: ``data._box_rows``' rule, and
    frames numbered 1..N in order."""
    rows = []
    for lineno, row in _box_rows(path, "frame,x,y,w,h,score"):
        if row[0] != len(rows) + 1:
            raise ParseError(
                f"frame {row[0]:g} where frame {len(rows) + 1} was due", line=lineno
            )
        rows.append(row)
    return rows


def cmd_eval(args):
    seq = load_sequence(args.sequence)
    if len(seq.gt) != len(seq.frames):
        raise ParseError(
            f"eval needs a ground-truth box for every frame, but "
            f"{args.sequence} has {len(seq.gt)} for {len(seq.frames)} frames"
        )
    rows = _read_box_lines(args.boxes)
    if len(rows) != len(seq.frames):
        raise ParseError(
            f"{args.boxes} has {len(rows)} rows for {len(seq.frames)} frames"
        )
    pred = [to_corners(r[1:5]) for r in rows]
    gt = [seq.gt_corners(i) for i in range(len(seq.frames))]
    auc = success_auc(pred, gt)
    prec = precision(pred, gt)
    atomic_write(
        args.out,
        f"sequence,auc,precision\n{seq.name},{auc:.6f},{prec:.6f}\n",
    )
    print(f"{seq.name}: auc {auc:.4f}, precision {prec:.4f} -> {args.out}")
    return 0


def cmd_inspect(args):
    model, cfg = _load_model(args.checkpoint, args.config)
    seq = load_sequence(args.sequence)
    n = len(seq.frames)
    if not 1 <= args.frame <= n:
        raise UsageError(f"frame must lie in [1, {n}], got {args.frame}")
    idx = args.frame - 1
    prev = max(idx - 1, 0)
    if prev >= len(seq.gt):
        raise UsageError(
            f"inspect --frame {args.frame} needs a ground-truth box for every "
            f"frame it reads (1 and {prev + 1}), but {args.sequence} has "
            f"{len(seq.gt)}"
        )
    mc = model.config
    crop = cfg.crop_params()
    first = crop_template(seq.frames[0], seq.gt_corners(0),
                          crop.template_factor, mc.template_size)
    online = crop_template(seq.frames[prev], seq.gt_corners(prev),
                           crop.template_factor, mc.template_size)
    tmpl = np.stack([first] + [online] * (mc.templates - 1))
    patch, _ = crop_search(seq.frames[idx], seq.gt_corners(prev), crop,
                           mc.search_size)
    tokens, layout = model.backbone.final_block_tokens(tmpl[None], patch[None])
    maps = attention_weights_dump(model.backbone.stage3.block[-1], tokens,
                                  layout)
    os.makedirs(args.out, exist_ok=True)
    for name, arr in maps.items():
        lines = [",".join(f"{v:.8g}" for v in row) for row in arr]
        atomic_write(os.path.join(args.out, f"{name}.csv"),
                     "\n".join(lines) + "\n")
        print(f"wrote {name}.csv  [{arr.shape[0]} x {arr.shape[1]}]")
    return 0


def cmd_cost(args):
    if args.config is not None:
        cfg = load_run_config(args.config)
        bcfg = cfg.backbone_config()
        label = cfg.preset
    else:
        bcfg = bb.preset(args.preset, templates=args.templates,
                         mode=args.attention)
        label = args.preset
    rep = bb.count_params_flops(bcfg)
    print(f"preset {label}  attention {bcfg.mode}  templates {bcfg.templates}")
    print(f"{'stage':<8}{'params':>14}{'flops':>18}")
    for row in rep["stages"]:
        print(f"{row['name']:<8}{row['params']:>14,}{row['flops']:>18,}")
    print(f"{'total':<8}{rep['params']:>14,}{rep['flops']:>18,}")
    print(f"total {rep['params'] / 1e6:.2f} M params, "
          f"{rep['flops'] / 1e9:.2f} G flops per forward")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mixtrack",
        description="train, run and inspect the tracker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run both training stages")
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="track one sequence directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sequence", required=True, help="frame directory")
    p.add_argument("--out", required=True, help="boxes csv to write")
    p.add_argument("--config", default=None,
                   help="override the checkpoint's embedded config")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score a boxes csv against ground truth")
    p.add_argument("--boxes", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True, help="metrics csv to write")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump final-block attention maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--frame", type=int, required=True,
                   help="1-based frame number")
    p.add_argument("--out", required=True, help="directory for the csv maps")
    p.add_argument("--config", default=None,
                   help="override the checkpoint's embedded config")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("cost", help="print the parameter and flop table")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default="mixformer")
    p.add_argument("--templates", type=int, default=2)
    p.add_argument("--attention", default="asymmetric",
                   choices=("full", "asymmetric"))
    p.set_defaults(func=cmd_cost)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
