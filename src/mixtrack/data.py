"""Sequences for desk-scale training and evaluation.

Synthetic sequences render a checkerboard-textured rectangle wandering over
a noisy background with uniform-color distractor rectangles; ground truth is
exact by construction because the label is the rasterized draw rectangle.
On-disk sequences follow the common directory convention: zero-padded
numbered frames plus a ``groundtruth.txt`` of one ``x,y,w,h`` line per frame
(pixels, top-left origin).  Images are 8-bit RGB PPM so no codec is needed.

A loaded sequence reads no pixels up front.  Loading checks each frame
with one short read of its header and the file's size, and maps none; its
frames are an immutable sequence of PPM paths, and each frame is
memory-mapped, and its size checked again, when it is indexed.  A mapped
frame is a read-only view of its file, so the crops fault in only the
pages they sample and memory does not grow with the sequence length.  A
frame file must not shrink while its frame is in use.
"""

import mmap
import os
import re
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass

import numpy as np

from . import boxes
from .errors import ConfigError, ParseError, ShapeError

_PRECISION_PX = 20.0  # center-distance threshold of the precision metric


@dataclass
class Sequence:
    """Ordered frames with per-frame ground-truth boxes (x, y, w, h).

    ``frames`` is a list of [H, W, 3] uint8 arrays, whose shapes are
    checked here, or the ``FrameFiles`` of a loaded sequence, whose frames
    are read-only mapped views and whose shape was checked at load.
    """

    frames: list
    gt: list
    name: str = "seq"

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ConfigError(
                f"sequence needs at least 2 frames, got {len(self.frames)}"
            )
        if len(self.gt) not in (1, len(self.frames)):
            raise ConfigError(
                f"ground-truth count {len(self.gt)} matches neither frame "
                f"count {len(self.frames)} nor the single-line test form"
            )
        if isinstance(self.frames, FrameFiles):
            return
        shape = self.frames[0].shape
        for i, f in enumerate(self.frames):
            if f.shape != shape or f.ndim != 3 or f.shape[2] != 3:
                raise ShapeError(f"frame {i} has shape {f.shape}, expected {shape}")

    @property
    def size(self):
        """(height, width) of the frames."""
        if isinstance(self.frames, FrameFiles):
            return self.frames.shape[:2]
        return self.frames[0].shape[:2]

    def gt_corners(self, i):
        return boxes.to_corners(self.gt[i])


@dataclass(frozen=True)
class SyntheticConfig:
    frame_size: tuple = (96, 128)
    object_size: tuple = (24, 24)
    frames: int = 40
    translation: float = 4.0
    scale_jitter: float = 0.0
    noise: float = 0.02
    distractors: int = 2

    def __post_init__(self):
        fh, fw = self.frame_size
        oh, ow = self.object_size
        if self.frames < 2:
            raise ConfigError(f"need at least 2 frames, got {self.frames}")
        if oh < 4 or ow < 4:
            raise ConfigError(f"object {oh}x{ow} too small to texture")
        if oh > fh or ow > fw:
            raise ConfigError(
                f"object {oh}x{ow} does not fit in frame {fh}x{fw}"
            )
        for name in ("translation", "scale_jitter", "noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.distractors < 0:
            raise ConfigError("distractor count must be >= 0")


def _checkerboard(h, w, cell, c0, c1):
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    mask = ((ii // cell + jj // cell) % 2).astype(bool)
    out = np.empty((h, w, 3), dtype=np.float64)
    out[~mask] = c0
    out[mask] = c1
    return out


def _draw_rect(img, x0, y0, w, h, patch):
    fh, fw = img.shape[:2]
    x1, y1 = x0 + w, y0 + h
    sx0, sy0 = max(0, -x0), max(0, -y0)
    dx0, dy0 = max(0, x0), max(0, y0)
    dx1, dy1 = min(fw, x1), min(fh, y1)
    if dx1 <= dx0 or dy1 <= dy0:
        return
    img[dy0:dy1, dx0:dx1] = patch[sy0 : sy0 + (dy1 - dy0), sx0 : sx0 + (dx1 - dx0)]


def generate_synthetic(cfg, seed):
    """Render a deterministic sequence for the given seed.

    The target is drawn after every distractor, so its label pixels are never
    overwritten.  At least half the target area stays inside the frame.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5EC, int(seed)]))
    fh, fw = cfg.frame_size
    base_h, base_w = float(cfg.object_size[0]), float(cfg.object_size[1])
    target_colors = rng.uniform(0.0, 1.0, (2, 3))
    # spread the two texture colors so the pattern stays visible
    target_colors[1] = 1.0 - target_colors[0]
    gradient = np.linspace(0.3, 0.5, fw)[None, :, None]
    distractor_colors = rng.uniform(0.2, 0.8, (cfg.distractors, 3))
    distractor_sizes = rng.integers(8, max(9, min(fh, fw) // 3), (cfg.distractors, 2))
    cx, cy = fw / 2.0, fh / 2.0
    oh, ow = base_h, base_w
    frames, gt = [], []
    for _ in range(cfg.frames):
        img = np.broadcast_to(gradient, (fh, fw, 3)).copy()
        if cfg.noise > 0:
            img += rng.normal(0.0, cfg.noise, (fh, fw, 3))
        for d in range(cfg.distractors):
            dh, dw = int(distractor_sizes[d, 0]), int(distractor_sizes[d, 1])
            dx = int(rng.integers(0, max(1, fw - dw)))
            dy = int(rng.integers(0, max(1, fh - dh)))
            _draw_rect(img, dx, dy, dw, dh, np.full((dh, dw, 3), distractor_colors[d]))
        if cfg.scale_jitter > 0:
            f = 1.0 + rng.uniform(-cfg.scale_jitter, cfg.scale_jitter)
            oh = float(np.clip(oh * f, 8.0, fh))
            ow = float(np.clip(ow * f, 8.0, fw))
        if cfg.translation > 0:
            cx += rng.uniform(-cfg.translation, cfg.translation)
            cy += rng.uniform(-cfg.translation, cfg.translation)
        # keep at least three quarters of each axis visible
        cx = float(np.clip(cx, ow * 0.25, fw - ow * 0.25))
        cy = float(np.clip(cy, oh * 0.25, fh - oh * 0.25))
        ix0, iy0 = int(round(cx - ow / 2.0)), int(round(cy - oh / 2.0))
        iw, ih = max(4, int(round(ow))), max(4, int(round(oh)))
        patch = _checkerboard(ih, iw, 4, target_colors[0], target_colors[1])
        _draw_rect(img, ix0, iy0, iw, ih, patch)
        frames.append((np.clip(img, 0.0, 1.0) * 255.0).round().astype(np.uint8))
        gt.append((float(ix0), float(iy0), float(iw), float(ih)))
    return Sequence(frames, gt, name=f"synthetic-{seed}")


# ---------------------------------------------------------------------------
# PPM image IO


def write_ppm(path, img):
    """Write [H, W, 3] uint8 as binary P6."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ShapeError(f"need [H, W, 3] uint8, got {img.shape} {img.dtype}")
    h, w = img.shape[:2]
    # copy the pixels out first: img may be a mapped view of this very file
    pixels = img.tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels)


# magic, width, height and maxval, separated by whitespace and comments,
# then the single whitespace byte that ends the header
_PPM_SEP = rb"(?:\s|#[^\n]*\n)+"
_PPM_HEADER = re.compile(
    rb"P6" + _PPM_SEP + rb"(\d+)" + _PPM_SEP + rb"(\d+)" + _PPM_SEP + rb"(\d+)\s"
)
# a start of a header that may go on past the bytes read so far
_PPM_OPEN = re.compile(rb"P6(?:\s|\d|#[^\n]*\n)*(?:#[^\n]*)?")
_HEADER_READ = 64  # bytes read first for a header; a frame's is about 15


def _ppm_header(path, head, size):
    """(h, w, pixel offset) of the P6 file of ``size`` bytes that starts
    with the bytes ``head``, or None if the header may run past them.

    A malformed header, or a size too small for its pixels, is a
    ParseError naming ``path``."""
    if head[:2] != b"P6":
        raise ParseError(f"{path}: not a binary PPM file")
    header = _PPM_HEADER.match(head)
    if header is None:
        if len(head) < size and _PPM_OPEN.fullmatch(head):
            return None
        raise ParseError(f"{path}: malformed PPM header")
    try:
        w, h, maxval = (int(f) for f in header.groups())
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{path}: PPM header number too long") from None
    if w < 1 or h < 1:
        raise ParseError(f"{path}: image size {w}x{h} is empty")
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 supported, got {maxval}")
    if size < header.end() + w * h * 3:
        raise ParseError(f"{path}: truncated pixel data")
    return h, w, header.end()


def read_ppm(path):
    """Map a binary P6 file and return its pixels as a read-only
    [H, W, 3] uint8 view, without copying them.

    Only the header is read here; pixel pages fault in as they are used.
    The mapping, and one file descriptor, live as long as the array.  The
    file must not shrink while the array is in use: the size is checked
    when it is mapped, and a later truncation would fault on access.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        data = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    except ValueError:  # an empty file cannot be mapped
        raise ParseError(f"{path}: empty file, not a binary PPM") from None
    finally:
        os.close(fd)  # the mapping holds its own duplicate
    h, w, pos = _ppm_header(path, data, len(data))
    return np.frombuffer(data, np.uint8, w * h * 3, pos).reshape(h, w, 3)


def _frame_shape(path):
    """[H, W, 3] of a PPM frame file, from its header and its size: the
    checks of ``read_ppm`` without mapping the file.  The read grows only
    when the header runs past it, as a long comment can."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        n, parsed = _HEADER_READ, None
        while parsed is None:
            head = os.pread(fd, n, 0)
            if len(head) < n:  # the whole file, even if it shrank since fstat
                size = len(head)
            parsed = _ppm_header(path, head, size)
            n *= 2
    finally:
        os.close(fd)
    return parsed[0], parsed[1], 3


class FrameFiles(_SequenceABC):
    """The frames of a loaded sequence: an immutable sequence of PPM paths
    whose headers all gave ``shape``.

    Indexing maps the frame with ``read_ppm`` and returns its read-only
    view; a slice returns a list of such views.  A frame whose file no
    longer has ``shape`` is a ParseError.  Nothing is cached, so a frame's
    mapping is released as soon as its array is dropped.  Each live frame
    holds a file descriptor, so hold only the frames in use: a slice longer
    than the process's descriptor limit raises OSError.
    """

    __slots__ = ("paths", "shape")

    def __init__(self, paths, shape):
        self.paths = tuple(paths)
        self.shape = tuple(shape)

    def __len__(self):
        return len(self.paths)

    def _read(self, path):
        frame = read_ppm(path)
        if frame.shape != self.shape:
            raise ParseError(
                f"{path}: frame is {frame.shape}, was {self.shape} at load"
            )
        return frame

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._read(p) for p in self.paths[index]]
        return self._read(self.paths[index])


# ---------------------------------------------------------------------------
# sequence directories


def _read_text(path):
    """A UTF-8 text file's contents; bytes that do not decode are a
    ParseError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


_FRAME_NAME = re.compile(r"(\d{8})\.ppm", re.ASCII)  # as save_sequence names them
_NUMBERED = re.compile(r"\d+\.ppm", re.ASCII)  # the frames load_sequence counts


def save_sequence(directory, seq):
    """Write frames as 8-digit numbered PPMs plus groundtruth.txt.

    Numbered frames beyond this sequence's count, left by a longer one
    saved there before, are removed; no other file is touched."""
    os.makedirs(directory, exist_ok=True)
    for i, frame in enumerate(seq.frames):
        write_ppm(os.path.join(directory, f"{i + 1:08d}.ppm"), frame)
    for name in os.listdir(directory):
        stale = _FRAME_NAME.fullmatch(name)
        if stale and int(stale.group(1)) > len(seq.frames):
            os.remove(os.path.join(directory, name))
    with open(os.path.join(directory, "groundtruth.txt"), "w") as fh:
        for x, y, w, h in seq.gt:
            fh.write(f"{x},{y},{w},{h}\n")


def _box_rows(path, form):
    """(line number, row) of each non-blank line of a comma-separated box
    file whose fields are named by ``form``, such as "x,y,w,h".

    A row can be scored honestly: every field is a number, x, y, w and h
    are finite, and w, h >= 0.  Anything else raises a ParseError that
    names the file and the line."""
    at = form.split(",").index("x")
    rows = []
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != form.count(",") + 1:
            raise ParseError(f"{path}: expected {form}, got {line!r}", line=lineno)
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric field in {line!r}", line=lineno
            ) from None
        x, y, w, h = row[at : at + 4]
        if not all(np.isfinite((x, y, w, h))):
            raise ParseError(f"{path}: non-finite box in {line!r}", line=lineno)
        if w < 0 or h < 0:
            raise ParseError(f"{path}: negative box size in {line!r}", line=lineno)
        rows.append((lineno, row))
    return rows


def load_sequence(directory):
    """Open a sequence directory written by save_sequence (or compatible);
    the sequence is named after the directory.  Its frames are the files
    named by a number, such as ``00000001.ppm``; any other file is ignored.

    No pixels are read and no frame is mapped: each frame's header is read
    and its size taken from the file system, and the frames are
    ``FrameFiles``, mapped on access.  So a missing, malformed or short
    frame file is a ParseError at load, a frame whose shape differs from
    the first is a ShapeError, and so is a ground-truth line that cannot
    be scored (see ``_box_rows``).  That includes the NaN rows that UAV123
    writes for an absent target: absence is out of scope."""
    gt_path = os.path.join(directory, "groundtruth.txt")
    if not os.path.exists(gt_path):
        raise ParseError(f"{directory}: no groundtruth.txt")
    gt = [tuple(row) for _, row in _box_rows(gt_path, "x,y,w,h")]
    if not gt:
        raise ParseError(f"{gt_path}: empty ground truth")
    names = sorted(f for f in os.listdir(directory) if _NUMBERED.fullmatch(f))
    if not names:
        raise ParseError(f"{directory}: no numbered .ppm frames")
    width = len(os.path.splitext(names[0])[0])
    paths, shape = [], None
    count = max(len(names), len(gt) if len(gt) > 1 else len(names))
    for i in range(1, count + 1):
        path = os.path.join(directory, f"{i:0{width}d}.ppm")
        try:
            frame_shape = _frame_shape(path)
        except FileNotFoundError:
            raise ParseError(f"{directory}: missing frame {i}") from None
        shape = shape or frame_shape
        if frame_shape != shape:
            raise ShapeError(f"{path}: frame shape {frame_shape}, expected {shape}")
        paths.append(path)
    frames = FrameFiles(paths, shape)
    if len(gt) not in (1, len(frames)):
        raise ParseError(
            f"{directory}: {len(gt)} ground-truth lines for {len(frames)} frames"
        )
    return Sequence(frames, gt, name=os.path.basename(os.path.normpath(directory)))


# ---------------------------------------------------------------------------
# metrics


def _check_lengths(pred, gt):
    if len(pred) != len(gt):
        raise ShapeError(
            f"prediction count {len(pred)} != ground-truth count {len(gt)}"
        )
    if not pred:
        raise ShapeError("empty box lists")


def success_auc(pred_boxes, gt_boxes):
    """Mean over IoU thresholds {0, 0.01, ..., 1.0} of the fraction of
    frames whose IoU strictly exceeds the threshold.  Boxes are corner form."""
    _check_lengths(pred_boxes, gt_boxes)
    ious = np.array(
        [boxes.iou(p, g) for p, g in zip(pred_boxes, gt_boxes)]
    )
    thresholds = np.arange(101) / 100.0
    return float((ious[None, :] > thresholds[:, None]).mean())


def precision(pred_boxes, gt_boxes):
    """Fraction of frames whose center distance is at most 20 pixels."""
    _check_lengths(pred_boxes, gt_boxes)
    d = [boxes.center_distance(p, g) for p, g in zip(pred_boxes, gt_boxes)]
    return float(np.mean([dist <= _PRECISION_PX for dist in d]))
