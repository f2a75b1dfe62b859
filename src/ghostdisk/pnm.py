"""Bit-exact binary PGM (P5) and PPM (P6) readers and writers.

Only maxval 255 is supported; everything else is rejected with the exact
violation named.  Writers emit a canonical header (``magic\\nW H\\n255\\n``)
so identical arrays always produce identical bytes.  Readers accept any
legal Netpbm whitespace and ``#`` comments in the header.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["header", "read_pgm", "write_pgm", "read_ppm", "write_ppm"]


def _read(path, magic: str, channels: tuple[int, ...]) -> np.ndarray:
    """Read a ``magic`` (P5 or P6) file into an ``(h, w, *channels)`` uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:1] != b"P":
        raise ValueError(f"{path}: not a PNM file (missing 'P' magic)")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated header")
        byte = data[pos : pos + 1]
        if byte == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        elif byte.isspace():
            pos += 1
        elif byte.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise ValueError(f"{path}: unexpected byte {byte!r} in header")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ValueError(f"{path}: header must end with single whitespace before raster")
    width, height, maxval = fields
    if data[:2] != magic.encode("ascii"):
        raise ValueError(f"{path}: wrong magic {data[:2]!r}, expected {magic}")
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval} unsupported, expected 255")
    raster, shape = data[pos + 1 :], (height, width, *channels)
    if len(raster) != math.prod(shape):
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {math.prod(shape)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(shape).copy()


def header(magic: str, width: int, height: int) -> bytes:
    """The canonical ``magic`` (P5 or P6) header of a ``width x height`` raster."""
    return f"{magic}\n{width} {height}\n255\n".encode("ascii")


def _write(path, arr: np.ndarray, magic: str, kind: str) -> None:
    """Write an ``(h, w, ...)`` array of 0..255 integers under a ``magic`` header."""
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError(f"{kind} values must lie in 0..255")
    height, width = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(header(magic, width, height))
        fh.write(arr.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) into an (h, w) uint8 array."""
    return _read(path, "P5", ())


def write_pgm(path, image: np.ndarray) -> None:
    """Write an (h, w) array of 0..255 integers as binary PGM."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"PGM image must be 2-D, got shape {arr.shape}")
    _write(path, arr, "P5", "PGM")


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into an (h, w, 3) uint8 array."""
    return _read(path, "P6", (3,))


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (h, w, 3) array of 0..255 integers as binary PPM."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM image must have shape (h, w, 3), got {arr.shape}")
    _write(path, arr, "P6", "PPM")
