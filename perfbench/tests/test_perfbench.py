"""Short runs of every benchmark workload, plus the failure accounting.

Each workload, including track-mixformer which BENCHMARK.json leaves out,
runs once with ``--smoke`` (a few operations) and ``--trace 1``, which runs
it untraced and then traced; the tests check that every metric named in
BENCHMARK.json comes out with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
import mixtrack as mt  # noqa: E402
from mixtrack.autodiff import Tensor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_short_run_reports_every_metric(workload):
    result = last_json(run_bench(workload, trace=1))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    with open(os.path.join(BENCH_DIR, "out", f"BENCH_{workload}_trace.json")) as fh:
        report = json.load(fh)
    assert report["checks"]["traced_matches_untraced"] is True
    assert set(report["env"]) >= {"nproc", "blas", "blas_threads", "numpy",
                                  "scipy", "python", "commit"}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == end_to_end
    assert all(v["value"] > 0 for v in report["end_to_end"].values())
    kind = bench.WORKLOADS[workload]["kind"]
    named = {"track": {"frame_ms_p50", "track_fps"},
             "train": {"train_step_ms_p50", "spm_step_ms_p50",
                       "train_samples_per_s"}}[kind]
    assert named | {"setup_s", "peak_rss_mb"} <= set(report["named"])


def test_untraced_run_prints_end_to_end_metrics():
    result = last_json(run_bench("train-tiny", trace=0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("track-tiny", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _BoxOnCall:
    """Corner head stand-in that emits a box of all-equal corners (NaN by
    default) on one call, or on that call of every pass of ``every`` calls."""

    def __init__(self, head, bad_call, value=np.nan, every=None):
        self.head, self.bad_call, self.value = head, bad_call, value
        self.every, self.calls = every, 0

    def __call__(self, feat):
        self.calls += 1
        box = self.head(feat)
        call = (self.calls - 1) % self.every + 1 if self.every else self.calls
        if call == self.bad_call:
            return Tensor(np.full(box.shape, self.value, dtype=np.float32))
        return box


def _small_sequence():
    cfg = mt.SyntheticConfig(frame_size=(48, 64), object_size=(12, 12),
                             frames=6, distractors=1)
    return mt.generate_synthetic(cfg, 3)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_forced_non_finite_box_fails_and_ends_the_run():
    model = mt.build_model("tiny", seed=3)
    model.head = _BoxOnCall(model.head, bad_call=3)
    # the score head cannot take a NaN box, so hold the score fixed
    model.predict_score = lambda *_: Tensor(np.float32(0.5))
    result = bench.measure_track(model, _small_sequence(), seconds=60.0,
                                 cache=False)
    out = result["outcome"]
    assert (out.attempted, out.failed, out.correct) == (3, 1, False)
    assert out.reasons == ["frame 3: non-finite box"]


def test_forced_zero_area_box_counts_as_failed_operation():
    seq = _small_sequence()
    model = mt.build_model("tiny", seed=3)
    model.head = _BoxOnCall(model.head, bad_call=2, value=0.5,
                            every=len(seq.frames) - 1)
    result = bench.measure_track(model, seq, seconds=2.0, cache=False)
    out = result["outcome"]
    # later passes repeat the bad frame but count only in the first pass
    assert result["ops"] > len(seq.frames) - 1
    assert (out.attempted, out.failed, out.correct) == (len(seq.frames) - 1, 1, True)
    assert out.reasons == ["frame 2: zero-area box"]
    assert result["zero_area"] == 1


def test_operation_that_raises_counts_as_failed():
    model = mt.build_model("tiny", seed=3)
    model.head = _BoxOnCall(model.head, bad_call=2)
    result = bench.measure_track(model, _small_sequence(), seconds=60.0,
                                 cache=False)
    out = result["outcome"]
    assert (out.attempted, out.failed, out.correct) == (2, 1, False)
    assert out.reasons[0].startswith("frame 2 raised")


def test_windowed_rate_leaves_out_a_short_burst():
    import run

    steady = [10.0] * 200
    burst = steady[:100] + [40.0] * 25 + steady[125:]
    assert run.windowed_rate(steady) == pytest.approx(100.0)
    assert run.windowed_rate(burst) == pytest.approx(100.0)
    assert run.windowed_rate([20.0] * 3) == pytest.approx(50.0)
