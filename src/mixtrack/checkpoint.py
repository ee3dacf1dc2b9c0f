"""Bit-exact binary checkpoints.

Layout, all integers little-endian u32: magic "MIXF", format version,
entry count, then per entry a name length, the UTF-8 name, a rank, that
many dims, and the payload as little-endian float32; a CRC32 of every
prior byte closes the file.  Entries are written in sorted name order so
identical parameters always produce identical bytes.
"""

import contextlib
import os
import struct
import zlib

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError, ConfigError

MAGIC = b"MIXF"
VERSION = 1
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


def serialize(arrays, config_text=None):
    """Checkpoint bytes for a dict of name -> array."""
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


def save_checkpoint(path, arrays, config_text=None):
    """Serialize and write atomically."""
    atomic_write(path, serialize(arrays, config_text=config_text))


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.offset = 0

    def take(self, n):
        end = self.offset + n
        if n < 0 or end > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        piece = self.blob[self.offset:end]
        self.offset = end
        return piece

    def u32(self):
        return _U32.unpack(self.take(4))[0]


def deserialize(blob):
    """Parse checkpoint bytes into (arrays, config text or None)."""
    if len(blob) < 16:
        raise CheckpointError("truncated checkpoint")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    stored = _U32.unpack(blob[-4:])[0]
    actual = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise CheckpointError(
            f"CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    reader = _Reader(blob[4:-4])
    version = reader.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}, expected {VERSION}")
    count = reader.u32()
    arrays = {}
    for _ in range(count):
        name = reader.take(reader.u32()).decode("utf-8")
        rank = reader.u32()
        if rank > 16:
            raise CheckpointError(f"implausible rank {rank} for {name!r}")
        shape = tuple(reader.u32() for _ in range(rank))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        payload = reader.take(size * 4)
        arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
        arrays[name] = arr.astype(np.float32)
    if reader.offset != len(reader.blob):
        raise CheckpointError("trailing bytes after the last entry")
    config_text = None
    if CONFIG_KEY in arrays:
        raw = arrays.pop(CONFIG_KEY)
        config_text = bytes(raw.astype(np.uint8)).decode("utf-8")
    return arrays, config_text


def load_checkpoint(path):
    """Read and verify a checkpoint file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    return deserialize(blob)


def state_dict(model):
    """All parameters and buffers under their hierarchical names."""
    out = {}
    for name, p in model.named_params().items():
        out[name] = np.asarray(p.data)
    for name, b in model.named_buffers().items():
        if name in out:
            raise ConfigError(f"buffer name {name!r} collides with a parameter")
        out[name] = np.asarray(b)
    return out


def load_state(model, arrays):
    """Copy named arrays into a model's existing arrays.

    Names must match the model exactly, and so must every shape.
    """
    targets = {**model.named_params(), **model.named_buffers()}
    missing = [n for n in targets if n not in arrays]
    extra = [n for n in arrays if n not in targets]
    if missing or extra:
        raise CheckpointError(
            f"state mismatch: missing {sorted(missing)[:4]}, "
            f"unexpected {sorted(extra)[:4]}"
        )
    for name, arr in arrays.items():
        target = targets[name]
        if isinstance(target, Tensor):
            target = target.data
        if tuple(arr.shape) != target.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                f"model {target.shape}"
            )
        # in place, so views onto the arrays (an optimizer's arena) stay valid
        target[...] = arr
    return model
