"""Binary state snapshots.

Layout (all little-endian):
  magic "SMFS" | version u32 | target kind u8 (0 sphere, 1 hyperbolic) |
  dim u8 | n[axis] u64 each | length[axis] f64 each | time f64 |
  repeated field blocks until EOF:
    name length u16 | UTF-8 name | element kind u8 | row-major f64 payload.
Element kinds: 0 real scalar, 1 complex scalar (re,im interleaved per
point), 2 three-vector (components contiguous per point).

Malformed snapshots raise `FormatError`.  Version 1 stores no field
count, so a file cut exactly at a field-block boundary reads as a valid
snapshot with fewer fields; every other cut is an error.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .field import Grid
from .geometry import HYPERBOLIC, SPHERE, Target

MAGIC = b"SMFS"
VERSION = 1

_KIND_CODE = {"sphere": 0, "hyperbolic": 1}
_CODE_KIND = {0: SPHERE, 1: HYPERBOLIC}


@dataclass
class Snapshot:
    grid: Grid
    target: Target
    time: float
    fields: dict[str, np.ndarray]


def _element_kind(grid: Grid, arr: np.ndarray) -> int:
    if np.iscomplexobj(arr):
        if arr.shape != grid.shape:
            raise ValueError("complex field shape must match grid")
        return 1
    if arr.shape == grid.shape:
        return 0
    if arr.shape == grid.shape + (3,):
        return 2
    raise ValueError(f"field shape {arr.shape} not supported on grid {grid.shape}")


def write_snapshot(path, grid: Grid, target: Target, time: float,
                   fields: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBB", VERSION, _KIND_CODE[target.kind], grid.dim))
        for n in grid.n:
            fh.write(struct.pack("<Q", n))
        for ln in grid.length:
            fh.write(struct.pack("<d", ln))
        fh.write(struct.pack("<d", time))
        for name, arr in fields.items():
            arr = np.asarray(arr)
            kind = _element_kind(grid, arr)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", kind))
            if kind == 1:
                payload = np.empty(grid.shape + (2,))
                payload[..., 0] = arr.real
                payload[..., 1] = arr.imag
            else:
                payload = arr.astype(float)
            fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    offset = fh.tell()
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated while reading {what}", offset)
    return data


def read_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise FormatError("bad magic bytes", 0)
        version, kind_code, dim = struct.unpack("<IBB", _read_exact(fh, 6, "header"))
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", 4)
        if kind_code not in _CODE_KIND:
            raise FormatError(f"unknown target kind {kind_code}", 8)
        if dim not in (1, 2):
            raise FormatError(f"unsupported dimension {dim}", 9)
        n = struct.unpack(f"<{dim}Q", _read_exact(fh, 8 * dim, "grid sizes"))
        length = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim, "box lengths"))
        (time,) = struct.unpack("<d", _read_exact(fh, 8, "time"))
        try:
            grid = Grid(n, length)
        except ValueError as exc:
            raise FormatError(str(exc), 10) from exc
        npoints = math.prod(n)
        size = os.fstat(fh.fileno()).st_size

        fields: dict[str, np.ndarray] = {}
        while True:
            head = fh.read(2)
            if not head:
                break
            if len(head) != 2:
                raise FormatError("truncated field-name length", fh.tell() - len(head))
            (name_len,) = struct.unpack("<H", head)
            raw = _read_exact(fh, name_len, "field name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError("field name is not UTF-8", fh.tell() - name_len) from exc
            (kind,) = struct.unpack("<B", _read_exact(fh, 1, "element kind"))
            per_point = {0: 1, 1: 2, 2: 3}.get(kind)
            if per_point is None:
                raise FormatError(f"unknown element kind {kind}", fh.tell() - 1)
            need, left = 8 * per_point * npoints, size - fh.tell()
            if need > left:
                raise FormatError(f"grid sizes {n} need {need} bytes for '{name}', "
                                  f"the file holds {left} more", 10)
            raw = _read_exact(fh, 8 * per_point * npoints, f"payload of '{name}'")
            flat = np.frombuffer(raw, dtype="<f8")
            if kind == 0:
                fields[name] = flat.reshape(grid.shape).copy()
            elif kind == 1:
                pairs = flat.reshape(grid.shape + (2,))
                fields[name] = pairs[..., 0] + 1j * pairs[..., 1]
            else:
                fields[name] = flat.reshape(grid.shape + (3,)).copy()
        return Snapshot(grid=grid, target=_CODE_KIND[kind_code], time=time, fields=fields)
