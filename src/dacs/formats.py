"""On-disk formats: the embedding container and index/score lists.

The embedding container is a fixed little-endian layout: 8-byte magic
"DACSEMB1", u64 row count, u64 column count, one flag byte (bit 0 = rows are
unit-norm), then n*d float32 values row-major. A CSV fallback with header
f0..f{d-1} covers hand-made inputs. Parse failures name the byte offset or line
so the CLI can report them cleanly.
"""

from __future__ import annotations

import os
import struct
import tempfile
import warnings

import numpy as np

from .core import FeatureMatrix

MAGIC = b"DACSEMB1"
FLAG_UNIT_NORM = 0x01
_HEADER = struct.Struct("<8sQQB")

FORMAT_BINARY = "binary"
FORMAT_CSV = "csv"


class ParseError(ValueError):
    """Malformed input file; message carries the location."""


def write_embeddings(path, x: FeatureMatrix) -> None:
    flags = FLAG_UNIT_NORM if x.unit_norm else 0
    payload = x.data.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, x.n, x.d, flags))
        fh.write(payload)


def read_embeddings(path) -> FeatureMatrix:
    """Read the binary container; the file size is checked before the payload is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ParseError(
                f"truncated header: need {_HEADER.size} bytes, file has {len(header)} (byte offset 0)"
            )
        magic, n, d, flags = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ParseError(f"bad magic {magic!r} at byte offset 0; expected {MAGIC!r}")
        expected = n * d * 4
        actual = size - _HEADER.size
        if expected != actual:
            raise ParseError(
                f"payload size mismatch at byte offset {_HEADER.size}: "
                f"header promises {expected} bytes ({n}x{d} float32), found {actual}"
            )
        payload = fh.read(expected)
    data = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    return FeatureMatrix(data.astype(np.float64), unit_norm=bool(flags & FLAG_UNIT_NORM))


def write_embeddings_csv(path, x: FeatureMatrix) -> None:
    header = ",".join(f"f{j}" for j in range(x.d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, x.data, delimiter=",", fmt="%.17g")


def read_embeddings_csv(path) -> FeatureMatrix:
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not all(c == f"f{j}" for j, c in enumerate(cols)):
            raise ParseError(f"line 1: expected header f0..f{len(cols)-1}, got {header!r}")
        try:
            with warnings.catch_warnings():
                # an empty body is reported as a ParseError below, not a warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError(f"malformed CSV body: {exc}") from exc
    if data.size == 0:
        raise ParseError("line 2: no data rows")
    if data.shape[1] != len(cols):
        raise ParseError(f"row width {data.shape[1]} does not match header width {len(cols)}")
    return FeatureMatrix(data)


def read_index_file(path) -> list:
    """Newline-separated non-negative integers."""
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(int(line))
            except ValueError as exc:
                raise ParseError(f"line {ln}: {line!r} is not an integer") from exc
    return out


def read_scores_file(path) -> np.ndarray:
    """Newline-separated floats, one per sample."""
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(float(line))
            except ValueError as exc:
                raise ParseError(f"line {ln}: {line!r} is not a number") from exc
    return np.asarray(out, dtype=np.float64)


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
