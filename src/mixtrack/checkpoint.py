"""Bit-exact binary checkpoints of a model's parameters, format version 2.

Layout, all integers little-endian u32: magic "MIXF", format version,
entry count, then per entry a name length, the UTF-8 name, a rank, that
many dims, and the payload as little-endian float32; a CRC32 of every
prior byte closes the file.  Entries are written in sorted name order so
identical parameters always produce identical bytes.  Config text is one
more entry, its UTF-8 bytes stored as float32 values.  Version 1 files also
held batch-norm statistics and biases that could not change an output;
they are rejected, not converted.  A file that passes its CRC but does not
decode (a name or config text that is not UTF-8, config values that are
not bytes, a name that appears twice) raises ``CheckpointError``.

Loading costs one copy of each payload.  ``deserialize`` returns read-only
float32 views of the file's bytes (a big-endian host converts them), and
either ``load_state`` copies them into a built model's arena, or a
``Stored`` init builds the model around them (``model.load_model``): no
random draw, one arena allocation, one copy.
"""

import contextlib
import math
import os
import struct
import zlib

import numpy as np

from . import nn
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError

MAGIC = b"MIXF"
VERSION = 2
CONFIG_KEY = "meta.config"

_U32 = struct.Struct("<I")


def atomic_write(path, blob):
    """Write bytes or text through a temp file and rename.

    A failure in the write or the rename removes the temp file, so no
    half-written artifact is left behind, and an OSError names ``path``,
    not the temp file.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    mode = "wb" if isinstance(blob, (bytes, bytearray)) else "w"
    try:
        fh = open(tmp, mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _encode_entry(name, arr):
    data = np.asarray(arr, dtype="<f4", order="C")
    raw = name.encode("utf-8")
    parts = [_U32.pack(len(raw)), raw, _U32.pack(data.ndim)]
    parts += [_U32.pack(d) for d in data.shape]
    parts.append(data.tobytes())
    return b"".join(parts)


def serialize(arrays, config_text):
    """Checkpoint bytes for a dict of name -> array and the config text, which
    may be None: a checkpoint without it still loads."""
    entries = {}
    for name, value in arrays.items():
        if isinstance(value, Tensor):
            value = value.data
        entries[name] = np.asarray(value)
    if config_text is not None:
        if CONFIG_KEY in entries:
            raise ConfigError(f"{CONFIG_KEY!r} is reserved for the config text")
        raw = np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8)
        entries[CONFIG_KEY] = raw.astype(np.float32)
    body = [MAGIC, _U32.pack(VERSION), _U32.pack(len(entries))]
    for name in sorted(entries):
        body.append(_encode_entry(name, entries[name]))
    blob = b"".join(body)
    return blob + _U32.pack(zlib.crc32(blob) & 0xFFFFFFFF)


def save_checkpoint(path, arrays, config_text):
    """Serialize and write atomically."""
    atomic_write(path, serialize(arrays, config_text=config_text))


def deserialize(blob):
    """Parse checkpoint bytes into (arrays, config text or None).

    The arrays are read-only float32 views of ``blob``, which they keep
    alive; only a big-endian host copies them, to convert the bytes."""
    if len(blob) < 16:
        raise CheckpointError("truncated checkpoint")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    view = memoryview(blob)
    stored = _U32.unpack(view[-4:])[0]
    actual = zlib.crc32(view[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise CheckpointError(
            f"CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    body, pos = view[4:-4], 0

    def take(n):  # a view of the next n bytes
        nonlocal pos
        if n < 0 or pos + n > len(body):
            raise CheckpointError("truncated checkpoint")
        pos += n
        return body[pos - n : pos]

    def u32():
        return _U32.unpack(take(4))[0]

    version = u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}, expected {VERSION}")
    arrays = {}
    for _ in range(u32()):
        name = _utf8(take(u32()), "entry name")
        if name in arrays:
            raise CheckpointError(f"entry {name!r} appears twice")
        rank = u32()
        if rank > 16:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        shape = tuple(u32() for _ in range(rank))
        size = math.prod(shape)  # exact, so an overflowing shape fails take()
        arr = np.frombuffer(take(size * 4), "<f4").reshape(shape)
        arrays[name] = arr.astype(np.float32, copy=False)
    if pos != len(body):
        raise CheckpointError("trailing bytes after the last entry")
    config_text = None
    if CONFIG_KEY in arrays:
        raw = arrays.pop(CONFIG_KEY)
        if not np.all((raw >= 0) & (raw <= 255) & (raw == np.floor(raw))):
            raise CheckpointError("config text holds values that are not bytes")
        config_text = _utf8(raw.astype(np.uint8), "config text")
    return arrays, config_text


def _utf8(raw, what):
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {exc}") from None


def load_checkpoint(path):
    """Read and verify a checkpoint file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    return deserialize(blob)


def state_dict(model):
    """All parameters under their hierarchical names."""
    return {name: np.asarray(p.data) for name, p in model.named_params().items()}


def _check_state(targets, arrays):
    """Raise CheckpointError unless ``arrays`` holds exactly the names of
    ``targets`` (name -> Tensor), each with its shape and finite values."""
    missing = [n for n in targets if n not in arrays]
    extra = [n for n in arrays if n not in targets]
    if missing or extra:
        raise CheckpointError(
            f"state mismatch: missing {sorted(missing)[:4]}, "
            f"unexpected {sorted(extra)[:4]}"
        )
    for name, arr in arrays.items():
        shape = targets[name].data.shape
        if tuple(arr.shape) != shape:
            raise CheckpointError(f"shape mismatch for {name!r}: checkpoint "
                                  f"{arr.shape}, model {shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"entry {name!r} holds non-finite values")


def load_state(model, arrays):
    """Copy named arrays into a model's existing parameter arrays.

    Names and shapes must match the model exactly and every value must be
    finite; all entries are checked before any is copied.
    """
    targets = model.named_params()
    _check_state(targets, arrays)
    for name, arr in arrays.items():
        # in place: every parameter is a view of the model's arena
        targets[name].data[...] = arr
    return model


class Stored:
    """The ``init`` of a model built to hold checkpoint arrays, with
    ``nn.Draw``'s methods: the modules get read-only placeholders of the
    right shapes, which hold no memory and draw nothing, and ``pack``
    checks the arrays as ``load_state`` does, then copies each once into
    the one arena."""

    def __init__(self, arrays):
        self.arrays = arrays

    def trunc_normal(self, shape):
        return np.broadcast_to(np.float32(0.0), shape)

    def he_normal(self, shape, fan_in):
        return self.trunc_normal(shape)

    def depthwise_kernel(self, dim):
        return self.trunc_normal((dim, 3, 3))

    def pack(self, named):
        _check_state(named, self.arrays)
        return nn.pack(list(named.values()), [self.arrays[n] for n in named])
