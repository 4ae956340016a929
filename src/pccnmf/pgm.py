"""Minimal PGM reader/writer (plain P2 and binary P5).

Only 8-bit grayscale is supported: a maxval above 255 is a FormatError, since
a matrix holds raw samples in [0, 255] and 16-bit samples would either exceed
that range or be taken for 8-bit ones. Comments (``#`` to end of line) are
allowed anywhere in the header. P5 rasters use one byte per sample.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import FormatError


# A header token, or a comment from "#" to the end of its line.
_TOKEN = re.compile(rb"#[^\n]*|[^\s#]+")


def _tokens(data: bytes):
    """Yield (offset, token) for the whitespace-separated header tokens, skipping comments."""
    for match in _TOKEN.finditer(data):
        if not match.group().startswith(b"#"):
            yield match.start(), match.group()


def read_pgm(path) -> np.ndarray:
    """Read a P2/P5 PGM file as a (height, width) float array of the raw sample values."""
    path = Path(path)
    data = path.read_bytes()
    it = _tokens(data)
    try:
        _, magic = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: unsupported magic {magic!r} (want P2 or P5)")
    try:
        _, wtok = next(it)
        _, htok = next(it)
        mpos, mtok = next(it)
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except (StopIteration, ValueError):
        raise FormatError(f"{path}: malformed header") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FormatError(f"{path}: bad dimensions or maxval")
    if maxval > 255:
        raise FormatError(f"{path}: maxval {maxval} is above 255; only 8-bit images are read")

    count = width * height
    if magic == b"P2":
        values = []
        for pos, tok in it:
            try:
                values.append(int(tok))
            except ValueError:
                raise FormatError(f"{path}: non-integer sample {tok!r} at byte {pos}") from None
        if len(values) != count:
            raise FormatError(f"{path}: expected {count} samples, found {len(values)}")
        image = np.array(values, dtype=np.float64)
    else:
        # Raster starts after exactly one whitespace byte following maxval.
        raw = data[mpos + len(mtok) + 1:]
        if len(raw) < count:
            raise FormatError(f"{path}: raster truncated ({len(raw)} of {count} bytes)")
        image = np.frombuffer(raw[:count], dtype=np.uint8).astype(np.float64)
    if np.any(image > maxval):
        raise FormatError(f"{path}: sample exceeds maxval {maxval}")
    return image.reshape(height, width)


def write_pgm(path, image) -> None:
    """Write a (height, width) array of integers in [0, 255] as plain P2 (maxval 255)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise FormatError("image must be 2-d")
    pixels = np.rint(image).astype(np.int64)
    pixels = np.clip(pixels, 0, 255)
    height, width = pixels.shape
    lines = ["P2", f"{width} {height}", "255"]
    for row in pixels:
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
