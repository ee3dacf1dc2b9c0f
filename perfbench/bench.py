"""One benchmark workload, measured in a process of its own.

``run.py`` prepares the inputs, then starts this file as

    python3 bench.py WORKLOAD WORKDIR SEED SECONDS TRACE SMOKE SPANS

It sets the workload up several times (timed), runs operations until
SECONDS have passed, checks every output, and prints one JSON object with
the raw samples.  With TRACE 1 the layers are wrapped in timing spans, the
spans go to SPANS at exit and the JSON adds the per-layer figures.

An operation is one tracked frame or one training iteration.
"""

import copy
import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

import mixtrack as mt
from mixtrack import backbone as bb
from mixtrack.checkpoint import load_checkpoint, load_state, save_checkpoint, state_dict
from mixtrack.config import RunConfig, format_run_config, parse_run_config
from mixtrack.train import default_training_data

from tracing import NAMED_OPS, Tracer

# The frame source shared by both tracking workloads: 640x480, scale jitter,
# three distractors.  A pass of track-tiny reaches the default 200-frame
# template update interval once.
SEQUENCE = dict(frame_size=(480, 640), object_size=(48, 64), translation=6.0,
                scale_jitter=0.02, distractors=3)
WORKLOADS = {
    "track-tiny": dict(kind="track", preset="tiny", cache=False, frames=240,
                       setups=9, smoke_frames=6),
    "track-mixformer": dict(kind="track", preset="mixformer", cache=True,
                            frames=16, setups=3, smoke_frames=3),
    "train-tiny": dict(kind="train", preset="tiny", iters=(100, 25), setups=9,
                       smoke_iters=(4, 1)),
}
TRAIN_BATCH = 4
CACHE_CHECK_FRAMES = 12
CACHE_TOLERANCE_PX = 0.1
FAILURES_KEPT = 5


class _Stop(Exception):
    """Raised from a progress callback to end the run: its time is used up,
    or an output failed its check."""


def run_config(workload, seed, **overrides):
    spec = WORKLOADS[workload]
    return RunConfig(preset=spec["preset"], seed=seed, batch_size=TRAIN_BATCH,
                     **overrides)


# ---------------------------------------------------------------- inputs

def prepare(workload, seed, workdir, smoke=False):
    """Write the untimed inputs: a PPM sequence and a seeded checkpoint.

    Returns the sequence (tracking) or None (training builds its data in
    set-up)."""
    spec = WORKLOADS[workload]
    if spec["kind"] != "track":
        return None
    frames = spec["smoke_frames"] if smoke else spec["frames"]
    cfg = mt.SyntheticConfig(frames=frames, **SEQUENCE)
    seq = mt.generate_synthetic(cfg, seed)
    mt.save_sequence(os.path.join(workdir, "sequence"), seq)
    rc = run_config(workload, seed)
    save_checkpoint(os.path.join(workdir, "model.ckpt"),
                    state_dict(rc.build_model()),
                    config_text=format_run_config(rc))
    return seq


def cache_disagreement(seq, seed, frames=CACHE_CHECK_FRAMES):
    """Largest corner difference, in pixels, between the cached and the
    uncached tiny tracker over the first frames of seq.

    On every frame both step from the same state, and both then follow the
    uncached box.  So the figure is the cached path's own error, not its
    growth through the feedback loop of an untrained tracker, which can
    turn 1e-5 px into pixels within ten frames."""
    model = run_config("track-tiny", seed).build_model()
    plain = mt.Tracker(model)
    cached = mt.Tracker(model, use_template_cache=True)
    state = plain.init(seq.frames[0], seq.gt_corners(0))
    worst = 0.0
    for frame in seq.frames[1:frames]:
        twin = copy.deepcopy(state)
        box, _ = plain.step(state, frame)
        other, _ = cached.step(twin, frame)
        worst = max(worst, float(np.max(np.abs(np.subtract(box, other)))))
    return worst


# ---------------------------------------------------------------- set-up

def _span(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.span(name, fn, *args)


def setup(workload, workdir, seed, tracer=None):
    """What a user waits for before the first operation.

    Tracking: checkpoint load, model build and sequence load, as
    ``mixtrack track`` does.  Training: model build and training data."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "track":
        arrays, text = _span(tracer, "checkpoint.load", load_checkpoint,
                             os.path.join(workdir, "model.ckpt"))
        model = _span(tracer, "model.build", parse_run_config(text).build_model)
        _span(tracer, "checkpoint.load", load_state, model, arrays)
        seq = _span(tracer, "data.load_sequence", mt.load_sequence,
                    os.path.join(workdir, "sequence"))
        return model, seq
    model = _span(tracer, "model.build", run_config(workload, seed).build_model)
    data = _span(tracer, "data.training_data", default_training_data, seed)
    return model, data


# ---------------------------------------------------------------- checks

def box_problem(box, width, height):
    """Why a tracked box is not a valid output, or None."""
    if not all(math.isfinite(float(v)) for v in box):
        return "non-finite box"
    x0, y0, x1, y1 = box
    if not (0.0 <= x0 <= x1 <= width and 0.0 <= y0 <= y1 <= height):
        return "box outside its frame"
    return None


def digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def _matches_prefix(first, other):
    """Count of leading entries compared, and whether they were identical."""
    n = min(len(first), len(other))
    return n, first[:n] == other[:n]


class Outcome:
    """Operations attempted and failed, with the first few reasons.

    The operations are those of the workload's first pass or round.  Later
    passes repeat them to fill the time and must match them bit for bit,
    so they are compared, not counted again: the counts then depend on
    the seed alone, not on how many passes fit in the time.

    ``correct`` turns false when an output fails a check: a box that is
    not finite or not inside its frame, a non-finite score or loss, an
    operation that raised, or a rerun that differs.  Each such failure is
    counted in any pass.  A zero-area box is a failed operation but a
    valid output, so it leaves ``correct`` alone."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = []
        self.repeat_compared = 0

    def fail(self, reason, check=True):
        self.failed += 1
        self.correct = self.correct and not check
        if len(self.reasons) < FAILURES_KEPT:
            self.reasons.append(reason)

    def compare(self, first, other, what):
        n, same = _matches_prefix(first, other)
        self.repeat_compared += n
        if not same:
            self.fail(f"{what} differ from the first run on the same seed")


# ---------------------------------------------------------------- tracking

def measure_track(model, seq, seconds, cache, tracer=None):
    """Track seq in passes, each with a fresh Tracker, until seconds pass.

    Every pass is compared with the first on the frames both reached, so a
    rerun on the same inputs must give bit-identical boxes.  A frame whose
    box or score fails its check ends the run.  Attempted frames,
    zero-area boxes and template installs are counted over the first
    pass, so the counts do not depend on how many passes fit in the
    time."""
    height, width = seq.size
    out = Outcome()
    frame_ms, first, zero_area, op_traces = [], None, [], []
    cfg = RunConfig()

    def new_tracker():
        return mt.Tracker(model, params=cfg.crop_params(),
                          update_interval=cfg.update_interval,
                          score_threshold=cfg.score_threshold,
                          use_template_cache=cache)

    start = time.perf_counter()
    deadline = start + seconds
    while True:
        tracker = new_tracker()
        boxes = []
        last = [time.perf_counter()]

        def on_frame(_, box, score):
            now = time.perf_counter()
            frame_ms.append((now - last[0]) * 1e3)
            last[0] = now
            if first is None:
                out.attempted += 1
            boxes.append(tuple(float(v) for v in box))
            problem = box_problem(box, width, height)
            if problem is None and not math.isfinite(score):
                problem = "non-finite score"
            if tracer is not None:
                op_traces.append(tracer.trace_id)
                tracer.next_trace()
            if problem is not None:
                out.fail(f"frame {len(boxes)}: {problem}")
                raise _Stop
            if first is None and (box[2] - box[0]) * (box[3] - box[1]) <= 0.0:
                zero_area.append(len(boxes))
                out.fail(f"frame {len(boxes)}: zero-area box", check=False)
            if now >= deadline:
                raise _Stop

        stopped = False
        try:
            tracker.track(seq, on_frame=on_frame)
        except _Stop:
            stopped = True
        except Exception as exc:  # an operation that raised is a failed one
            if first is None:
                out.attempted += 1
            out.fail(f"frame {len(boxes) + 1} raised {type(exc).__name__}: {exc}")
            stopped = True
        if first is None:
            first = boxes
        else:
            out.compare(first, boxes, "boxes")
        if stopped:
            break
    work_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if out.repeat_compared == 0 and out.failed == 0 and first:
        # only one pass fitted: rerun its first frames, untimed
        n = min(3, len(seq.frames), len(first) + 1)
        short = mt.Sequence(seq.frames[:n], seq.gt[:n])
        again, _ = new_tracker().track(short)
        out.compare(first, [tuple(b) for b in again[1:]], "boxes")
    return dict(op_ms=frame_ms, all_ms=frame_ms, work_s=work_s, ops=len(frame_ms),
                zero_area=len(zero_area), boxes=first or [], op_traces=op_traces,
                outcome=out)


# ---------------------------------------------------------------- training

def measure_train(model, data, seed, seconds, iters, tracer=None):
    """Train stage 1 then stage 2 in rounds until seconds pass.

    Each round restarts from the same initial parameters, so its losses
    must repeat the first round's bit for bit.  The first round always
    finishes, so both stages are measured, and its iterations are the
    attempted operations."""
    initial = {k: np.array(v, copy=True) for k, v in state_dict(model).items()}
    tcfg = run_config("train-tiny", seed, stage1_iters=iters[0],
                      stage2_iters=iters[1]).to_train_config()
    out = Outcome()
    step_ms = {1: [], 2: []}
    all_ms = []  # both stages, in the order they ran
    first, op_traces, work_s = None, [], 0.0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        load_state(model, initial)
        losses = {1: [], 2: []}
        stopped = False
        for stage, fn in ((1, mt.train_stage1), (2, mt.train_stage2_spm)):
            last = [time.perf_counter()]
            stage_start = last[0]

            def on_iteration(_, loss, gnorm, stage=stage):
                now = time.perf_counter()
                step_ms[stage].append((now - last[0]) * 1e3)
                all_ms.append(step_ms[stage][-1])
                last[0] = now
                if rounds == 0:
                    out.attempted += 1
                losses[stage].append(float(loss))
                if tracer is not None:
                    op_traces.append(tracer.trace_id)
                    tracer.next_trace()
                if not math.isfinite(loss):
                    out.fail(f"stage {stage} iteration {len(losses[stage])}: "
                             f"non-finite loss")
                    raise _Stop
                if rounds > 0 and now >= deadline:
                    raise _Stop

            try:
                fn(model, data, tcfg, on_iteration=on_iteration)
            except _Stop:
                stopped = True
            except Exception as exc:  # an iteration that raised failed
                if rounds == 0:
                    out.attempted += 1
                out.fail(f"stage {stage} iteration {len(losses[stage]) + 1} "
                         f"raised {type(exc).__name__}: {exc}")
                stopped = True
            work_s += time.perf_counter() - stage_start
            if stopped:
                break
        if first is None:
            first = losses
        else:
            for stage in (1, 2):
                out.compare(first[stage], losses[stage], f"stage-{stage} losses")
        rounds += 1
        if stopped or time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()
    ops = len(step_ms[1]) + len(step_ms[2])
    return dict(op_ms=step_ms[1], spm_ms=step_ms[2], all_ms=all_ms,
                work_s=work_s, ops=ops,
                samples=ops * TRAIN_BATCH,
                losses=first[1] + first[2], op_traces=op_traces, outcome=out)


# ---------------------------------------------------------------- layers

def _median_ms(values):
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(tracer, model, result, setup_traces):
    """Per-layer figures: median self time per operation over the
    operations that reach the layer, counts per operation (template
    installs and zero-area boxes: per first pass), and set-up layer
    times."""
    traces = result["op_traces"]
    per = tracer.per_trace(traces)

    def self_ms(label):
        return _median_ms(per[label][1]) if label in per else 0.0

    m = {}
    for short in ("crop_search", "crop_template", "step"):
        m[f"tracker.{short}_ms"] = self_ms(f"tracker.{short}")
    for short in ("batch", "adamw"):
        m[f"train.{short}_ms"] = self_ms(f"train.{short}")
    for short in ("forward", "forward_template", "forward_search", "embed"):
        m[f"backbone.{short}_ms"] = self_ms(f"backbone.{short}")
    for i in (1, 2, 3):
        m[f"attention.stage{i}_ms"] = self_ms(f"attention.stage{i}")
    m["heads.corner_ms"] = self_ms("heads.corner")
    m["spm.predict_score_ms"] = self_ms("spm.predict_score")
    m["losses.loc_loss_ms"] = self_ms("losses.loc_loss")
    m["losses.score_loss_ms"] = self_ms("losses.score_loss")
    m["autodiff.backward_ms"] = self_ms("autodiff.backward")

    op_names = [n for n in per if n.startswith("autodiff.") and n != "autodiff.backward"]
    for op in NAMED_OPS:
        m[f"autodiff.{op}_ms"] = self_ms(f"autodiff.{op}")
    other, calls = {}, {}
    for name in op_names:
        for t, s, c in zip(*per[name]):
            calls[t] = calls.get(t, 0) + int(c)
            if name.split(".", 1)[1] not in NAMED_OPS:
                other[t] = other.get(t, 0.0) + float(s)
    m["autodiff.other_ms"] = _median_ms(list(other.values()))
    m["autodiff.op_calls"] = float(np.median(list(calls.values()))) if calls else 0.0
    wanted = set(traces)
    entries = [n for t, n in tracer.tape_entries if t in wanted]
    m["autodiff.tape_entries"] = float(np.median(entries)) if entries else 0.0

    frames = len(traces) if "tracker.step" in per else 0
    fills = len(tracer.durations("backbone.forward_template"))
    searches = len(tracer.durations("backbone.forward_search"))
    m["tracker.cache_hit_ratio"] = (searches - fills) / frames if frames else 0.0
    first_pass = tracer.per_trace(traces[:len(result.get("boxes", []))])
    installs = first_pass.get("tracker.template_install")
    m["tracker.template_installs"] = float(installs[2].sum()) if installs else 0.0
    m["tracker.zero_area_boxes"] = float(result.get("zero_area", 0))
    m["backbone.gmac_per_s"] = _gmac_per_s(tracer, model)

    setup_per = tracer.per_trace(setup_traces)
    for label in ("checkpoint.load", "model.build", "data.load_sequence",
                  "data.training_data"):
        sums = setup_per.get(label, ([], []))[1]
        m[f"{label}_s"] = float(np.median(sums)) if len(sums) else 0.0
    return m


def _gmac_per_s(tracer, model):
    """Backbone multiply-accumulates per second of backbone time.

    A full forward does ``count_params_flops`` MACs per sample; a cached
    frame splits that work into one template pass (counted at its median
    time) plus one search pass."""
    macs = bb.count_params_flops(model.config)["flops"]
    _, _, _, start, end = tracer.columns()
    if tracer.call_args:
        sids = np.array([s for s, _ in tracer.call_args])
        batch = np.array([b for _, b in tracer.call_args], dtype=np.float64)
        seconds = float(np.sum(end[sids] - start[sids]))
        return float(macs * batch.sum() / seconds / 1e9) if seconds else 0.0
    tmpl = tracer.durations("backbone.forward_template")
    search = tracer.durations("backbone.forward_search")
    if len(tmpl) and len(search):
        return float(macs / (np.median(tmpl) + np.median(search)) / 1e9)
    return 0.0


# ---------------------------------------------------------------- worker

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, workdir, seed, seconds, trace=False, smoke=False,
                 spans_path=None):
    spec = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    setups = 1 if smoke else spec["setups"]
    setup_s, setup_traces = [], []
    for _ in range(setups):
        state = None  # free the previous copy before building the next
        if tracer is not None:
            tracer.next_trace()
            setup_traces.append(tracer.trace_id)
        t0 = time.perf_counter()
        state = setup(workload, workdir, seed, tracer)
        setup_s.append(time.perf_counter() - t0)
    model, inputs = state
    if tracer is not None:
        tracer.install(model)
        tracer.next_trace()
    if spec["kind"] == "track":
        result = measure_track(model, inputs, seconds, spec["cache"], tracer)
    else:
        iters = spec["smoke_iters"] if smoke else spec["iters"]
        result = measure_train(model, inputs, seed, seconds, iters, tracer)
    out = result.pop("outcome")
    result.update(setup_s=setup_s, attempted=out.attempted, failed=out.failed,
                  correct=out.correct,
                  failures=out.reasons, repeat_compared=out.repeat_compared,
                  peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, model, result, setup_traces)
        if spans_path:
            tracer.save(spans_path)
    result.pop("op_traces")
    return result


def main(argv):
    workload, workdir, seed, seconds, trace, smoke, spans = argv
    result = run_workload(workload, workdir, int(seed), float(seconds),
                          trace=trace == "1", smoke=smoke == "1",
                          spans_path=spans or None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
