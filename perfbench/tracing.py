"""Timing spans around the public entry points of each mixtrack layer.

The tracer patches functions and methods from outside the package: every
wrapped call records one span (trace id, span id, parent span, name, start,
end) into typed ``array`` columns, so a long run costs a few
dozen bytes per span.  One trace covers one frame or one training
iteration; ``next_trace`` starts the next one.  Spans stay in memory until
``save`` writes them once, at exit.

A layer's self time is its span's duration minus the time its child spans
cover.  Calls are strictly nested (one thread), so that is the duration
minus the summed durations of the direct children.
"""

import functools
import time
from array import array

import numpy as np

# Ops every caller reaches through ``mixtrack.autodiff.<op>``; any other
# public op function is wrapped too and reported under autodiff.other_ms.
NAMED_OPS = (
    "matmul", "gelu", "softmax", "layer_norm", "reshape", "transpose",
    "concat", "conv2d", "depthwise_conv2d", "take",
)
_NOT_OPS = ("as_tensor", "backward", "grad_check")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.trace = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tape_entries = []  # (trace id, entries) per Tape.backward
        self.call_args = []  # (span id, batch) for backbone.forward spans
        self.trace_id = 0
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ recording

    def next_trace(self):
        self.trace_id += 1

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name, fn, *args, **kwargs):
        """Call fn under a span called name; the span survives exceptions."""
        sid = len(self.start)
        self.trace.append(self.trace_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        tracer = self
        if callable(name):
            namer = name
        else:
            def namer(*_):
                return name

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.span(namer(*args), original, *args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, model):
        """Wrap every layer's entry points; model maps blocks to stages."""
        import mixtrack.autodiff as ad
        import mixtrack.attention as attention
        import mixtrack.backbone as backbone
        import mixtrack.heads as heads
        import mixtrack.spm as spm
        import mixtrack.tracker as tracker
        import mixtrack.train as train

        for fname in dir(ad):
            fn = getattr(ad, fname)
            if (fname.startswith("_") or fname in _NOT_OPS
                    or not callable(fn) or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != ad.__name__):
                continue
            self._wrap(ad, fname, f"autodiff.{fname}")

        tracer = self
        backward = ad.Tape.backward

        def traced_backward(tape, loss):
            tracer.tape_entries.append((tracer.trace_id, len(tape)))
            return tracer.span("autodiff.backward", backward, tape, loss)

        ad.Tape.backward = traced_backward
        self._patches.append((ad.Tape, "backward", backward))

        stage_of = {}
        for i, stage in enumerate(model.backbone._stages(), start=1):
            for blk in stage.block:
                stage_of[id(blk)] = f"attention.stage{i}"

        def block_stage(blk, *_):
            return stage_of.get(id(blk), "attention.other")

        for attr in ("__call__", "forward_template", "forward_search"):
            self._wrap(attention.MAMBlock, attr, block_stage)

        forward = backbone.Backbone.forward

        def traced_forward(bb, templates, search, reg_token=None):
            tracer.call_args.append((len(tracer.start), int(np.shape(search)[0])))
            return tracer.span("backbone.forward", forward, bb, templates,
                               search, reg_token=reg_token)

        backbone.Backbone.forward = traced_forward
        self._patches.append((backbone.Backbone, "forward", forward))
        self._wrap(backbone.Backbone, "forward_template", "backbone.forward_template")
        self._wrap(backbone.Backbone, "forward_search", "backbone.forward_search")
        self._wrap(backbone.PatchEmbed, "__call__", "backbone.embed")
        self._wrap(heads.CornerHead, "__call__", "heads.corner")
        self._wrap(spm.ScorePredictor, "__call__", "spm.predict_score")
        self._wrap(tracker.Tracker, "step", "tracker.step")
        self._wrap(train.AdamW, "step", "train.adamw")
        # tracker and train each hold their own references to the crops,
        # and train its own references to the losses
        for module in (tracker, train):
            self._wrap(module, "crop_search", "tracker.crop_search")
            self._wrap(module, "crop_template", "tracker.crop_template")
        self._wrap(train, "make_training_pair", "train.batch")
        self._wrap(train, "loc_loss", "losses.loc_loss")
        self._wrap(train, "score_loss", "losses.score_loss")

        update = tracker.maybe_update_template

        def traced_update(state, threshold=0.5):
            before = len(state.mutation_frames)
            out = update(state, threshold)
            if len(state.mutation_frames) > before:
                tracer.span("tracker.template_install", lambda: None)
            return out

        tracker.maybe_update_template = traced_update
        self._patches.append((tracker, "maybe_update_template", update))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def columns(self):
        """(trace, parent, name, start, end) as numpy arrays, one row per span."""
        return (np.array(self.trace, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.name, dtype=np.int64),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def self_times(self):
        """Per-span duration minus the summed durations of its children."""
        _, parent, _, start, end = self.columns()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def per_trace(self, trace_ids):
        """name -> (trace ids, self-time sums, span counts), one entry per
        given trace that holds at least one span of that name."""
        trace, _, name, _, _ = self.columns()
        _, self_t = self.self_times()
        keep = np.isin(trace, np.fromiter(trace_ids, dtype=np.int64))
        n_names = max(len(self.names), 1)
        pairs = trace[keep] * n_names + name[keep]
        uniq, inv = np.unique(pairs, return_inverse=True)
        sums = np.bincount(inv, weights=self_t[keep], minlength=len(uniq))
        counts = np.bincount(inv, minlength=len(uniq))
        out = {}
        for nid, label in enumerate(self.names):
            sel = uniq % n_names == nid
            if sel.any():
                out[label] = (uniq[sel] // n_names, sums[sel], counts[sel])
        return out

    def durations(self, label):
        """Inclusive durations of every span with this name, in call order."""
        _, _, name, start, end = self.columns()
        if label not in self._name_ids:
            return np.zeros(0)
        sel = name == self._name_ids[label]
        return end[sel] - start[sel]

    def save(self, path):
        """Write every span once; names index into the stored name table."""
        trace, parent, name, start, end = self.columns()
        np.savez(path, names=np.array(self.names), trace=trace, parent=parent,
                 name=name, start=start, end=end)
