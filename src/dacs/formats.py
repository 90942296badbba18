"""On-disk formats: the embedding container and index/score lists.

The embedding container is a fixed little-endian layout: 8-byte magic
"DACSEMB1", u64 row count, u64 column count, one flag byte (bit 0 = rows are
unit-norm), then n*d float32 values row-major. A CSV fallback with header
f0..f{d-1} covers hand-made inputs. A binary pool stays float32, as its file
holds it, and a CSV pool is float64; the kernels read both as float64 rows
(FeatureMatrix.take). Parse failures name the byte offset or line
so the CLI can report them cleanly.
"""

from __future__ import annotations

import os
import struct
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


def read_embeddings(path) -> FeatureMatrix:
    """Read the binary container into a float32 pool; the file size is checked before the payload is read."""
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
        for what, count, offset in (("rows", n, 8), ("columns", d, 16)):
            if count == 0:
                raise ParseError(f"header declares 0 {what} at byte offset {offset}; a pool needs one or more")
        expected = n * d * 4
        actual = size - _HEADER.size
        if expected != actual:
            raise ParseError(
                f"payload size mismatch at byte offset {_HEADER.size}: "
                f"header promises {expected} bytes ({n}x{d} float32), found {actual}"
            )
        payload = fh.read(expected)
    # The payload is the pool: FeatureMatrix keeps float32 rows as they are.
    data = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    return FeatureMatrix(data, unit_norm=bool(flags & FLAG_UNIT_NORM))


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


def _read_values(path, cast, kind: str) -> list:
    """One cast value per line; blank lines and # comments are skipped."""
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(cast(line))
            except ValueError as exc:
                raise ParseError(f"line {ln}: {line!r} is not {kind}") from exc
    return out


def read_index_file(path) -> list:
    """Newline-separated non-negative integers."""
    return _read_values(path, int, "an integer")


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def read_scores_file(path) -> np.ndarray:
    """Newline-separated finite floats, one per sample."""
    return np.asarray(_read_values(path, _finite_float, "a finite number"), dtype=np.float64)


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    The file gets mode 0o666 less the umask, as open(path, "w") would give it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
