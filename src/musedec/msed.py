"""On-disk formats: MSED binary tensors and JSON dataset manifests.

An MSED file is: magic b"MSED", version byte (1), dtype byte (1=float32 LE,
2=float64 LE), ndim byte, `ndim` little-endian uint32 dims, then the
row-major payload.  Anything else is rejected.

`read_tensor` returns a copy-on-write map of the file: the array is writable,
but a write to it never reaches the file.  Each live tensor holds one file
descriptor until it is freed, and its data is unaligned (the header is
7 + 4*ndim bytes).  `write_tensor` writes a temporary sibling and renames it
into place, so a mapped file is never truncated under a live tensor; it does
not fsync.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MSED"
VERSION = 1
DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
DTYPE_BYTES = {np.dtype("float32"): 1, np.dtype("float64"): 2}
FEATURE_LABELS = "features/labels.csv"  # an experiment's stimulus labels; manifests do not name this file


class MsedError(Exception):
    pass


class BadMagic(MsedError):
    pass


class DimMismatch(MsedError):
    pass


class ManifestError(Exception):
    pass


def write_tensor(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.dtype not in DTYPE_BYTES:
        array = array.astype(np.float64)
    if array.ndim > 255:
        raise MsedError("too many dimensions")
    header = MAGIC + struct.pack("<BBB", VERSION, DTYPE_BYTES[array.dtype], array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(array).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) < 7 or head[:4] != MAGIC:
            raise BadMagic(f"{path}: not an MSED file")
        version, dtype_code, ndim = struct.unpack("<BBB", head[4:7])
        if version != VERSION:
            raise MsedError(f"{path}: unsupported version {version}")
        if dtype_code not in DTYPE_CODES:
            raise MsedError(f"{path}: unknown dtype code {dtype_code}")
        dims = fh.read(4 * ndim)
        if len(dims) < 4 * ndim:
            raise DimMismatch(f"{path}: truncated header")
        shape = struct.unpack(f"<{ndim}I", dims)
        dtype = DTYPE_CODES[dtype_code]
        expected = math.prod(shape) * dtype.itemsize
        # size the payload before mapping, so a corrupt header cannot ask for a huge array
        offset = fh.tell()
        payload = os.fstat(fh.fileno()).st_size - offset
        if payload != expected:
            raise DimMismatch(f"{path}: payload is {payload} bytes, expected {expected}")
        buf = mmap.mmap(fh.fileno(), offset + expected, access=mmap.ACCESS_COPY)
    return np.frombuffer(buf, dtype, offset=offset).reshape(shape)


def write_ids(path, ids: list) -> None:
    with open(path, "w") as fh:
        json.dump(list(ids), fh)


def read_ids(path) -> list:
    """The ids of a JSON list of distinct strings or integers, as strings (1 and "1" are one id); else ManifestError."""
    with open(path) as fh:
        try:
            ids = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    kinds = set(map(type, ids)) if isinstance(ids, list) else None
    if kinds is None or not kinds <= {str, int}:  # json yields exact types, so bool is not int here
        raise ManifestError(f"{path}: stimulus ids are not a JSON list of strings or integers")
    if int in kinds:
        ids = [str(i) for i in ids]
    if len(set(ids)) != len(ids):
        raise ManifestError(f"{path}: duplicate stimulus ids")
    return ids


def write_labels_csv(path, stimulus_ids, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        cols = ",".join(f"class_{c}" for c in range(labels.shape[1]))
        fh.write(f"stimulus_id,{cols}\n")
        for sid, row in zip(stimulus_ids, labels):
            fh.write(f"{sid}," + ",".join(str(int(v)) for v in row) + "\n")


def read_labels_csv(path):
    """(stimulus ids, float64 label rows) of a `stimulus_id,class_0,...` CSV.

    Cells are integers; blank lines are skipped.  ManifestError, naming the
    file, for a bad header, a row whose cell count differs from the header's,
    or a cell that is not an integer.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "stimulus_id" or len(header) < 2:
            raise ManifestError(f"{path}: bad labels header")
        ids, body = [], []
        for line in fh:
            line = line.strip()
            if line:
                sid, _, cells = line.partition(",")
                ids.append(sid)
                body.append(cells)
    n_classes = len(header) - 1
    rows = np.empty((0, n_classes), dtype=np.int64)
    if any(body):  # loadtxt warns on input with no cells at all
        try:
            rows = np.loadtxt(body, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:
            raise ManifestError(f"{path}: label cells: {exc}") from None
    # loadtxt skips a row with no label cells, and takes any column count shared by every row
    if rows.shape != (len(ids), n_classes):
        raise ManifestError(f"{path}: {len(ids)} rows of {n_classes} label cells expected, got {rows.shape}")
    return ids, rows.astype(np.float64)


def load_manifest(path) -> dict:
    path = Path(path)
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path} does not hold a JSON object")
    for key in ("experiment", "mode", "subjects", "features"):
        if key not in manifest:
            raise ManifestError(f"manifest missing field {key!r}")
    if manifest["mode"] not in ("same-stimuli", "disjoint-stimuli"):
        raise ManifestError(f"unknown mode {manifest['mode']!r}")
    if not isinstance(manifest["subjects"], list) or not all(isinstance(sub, dict) for sub in manifest["subjects"]):
        raise ManifestError("manifest field 'subjects' is not a list of objects")
    if not manifest["subjects"]:
        raise ManifestError("manifest lists no subjects")
    if not isinstance(manifest["features"], dict):
        raise ManifestError("manifest field 'features' is not an object")
    base = path.parent
    for i, sub in enumerate(manifest["subjects"]):
        if "id" not in sub:
            raise ManifestError(f"subject #{i}: manifest entry missing field 'id'")
        if not isinstance(sub["id"], str):
            raise ManifestError(f"subject #{i}: id {json.dumps(sub['id'])} is not a string")
        if any(other["id"] == sub["id"] for other in manifest["subjects"][:i]):
            raise ManifestError(f"subject {sub['id']}: id listed more than once")
        _check_files(base, sub, ("responses", "stimulus_ids"), f"subject {sub['id']}")
    _check_files(base, manifest["features"], ("llv", "hlv", "stimulus_ids"), "features")
    if not (base / FEATURE_LABELS).exists():
        raise ManifestError(f"features: missing file {FEATURE_LABELS}")
    return manifest


def _check_files(base, entry, fields, owner):
    """ManifestError unless `entry` has every field of `fields` and each names an existing file."""
    for k in fields:
        if k not in entry:
            raise ManifestError(f"{owner}: manifest entry missing field {k!r}")
        if not isinstance(entry[k], str):
            raise ManifestError(f"{owner}: field {k!r} is not a file name")
        if not (base / entry[k]).exists():
            raise ManifestError(f"{owner}: missing file {entry[k]}")
