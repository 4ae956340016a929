"""Image datasets as nonnegative pixels-by-images matrices.

Provides the synthetic Swimmer dataset (256 binary 13x13 images composed of a
shared backbone plus four limbs, each in one of four positions), CSV / PGM
ingestion, and the perturbations used throughout the package: rescaling from
8-bit range to [0, 1], per-pixel flip noise, and threshold binarization.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .pgm import read_pgm

SCALE_RAW255 = "raw255"
SCALE_UNIT = "unit"


@dataclass(frozen=True)
class DataMatrix:
    """Nonnegative matrix of pixel intensities, one column per image.

    ``scale`` records whether entries live in [0, 255] (``raw255``) or [0, 1]
    (``unit``); ``pixel_shape`` is the (height, width) of one image when known.
    Values are copied and frozen on construction, so instances are safe to
    share across threads.
    """

    values: np.ndarray
    pixel_shape: tuple[int, int] | None = None
    scale: str = SCALE_UNIT

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ParameterError("data matrix must be 2-d with at least one pixel and one image")
        if not np.all(np.isfinite(values)):
            raise ParameterError("data matrix entries must be finite")
        if np.any(values < 0):
            pix, img = np.argwhere(values < 0)[0]
            raise ParameterError(f"negative entry at pixel {pix}, image {img}")
        if self.scale not in (SCALE_RAW255, SCALE_UNIT):
            raise ParameterError(f"unknown scale {self.scale!r}")
        limit = 1.0 if self.scale == SCALE_UNIT else 255.0
        if np.any(values > limit):
            raise ParameterError(f"entries exceed {limit:g} for scale={self.scale}")
        if self.pixel_shape is not None:
            height, width = self.pixel_shape
            if height * width != values.shape[0]:
                raise ParameterError(
                    f"pixel_shape {self.pixel_shape} does not match {values.shape[0]} pixels")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_pixels(self) -> int:
        return self.values.shape[0]

    @property
    def n_images(self) -> int:
        return self.values.shape[1]

    def replace_values(self, values, scale: str | None = None) -> "DataMatrix":
        """New DataMatrix with the same pixel_shape and (by default) scale."""
        return DataMatrix(values, self.pixel_shape, self.scale if scale is None else scale)


_SIDE = 13   # Swimmer images are 13x13

# Backbone: a 4x4 block in the middle of the grid, present in every image.
_BACKBONE_ROWS = range(5, 9)
_BACKBONE_COLS = range(5, 9)
# Each limb lives in a 4x4 box at one corner of the backbone; its four
# positions are 3-pixel straight segments along the box edges (a pinwheel),
# which makes all 16 position sets pairwise disjoint.
_LIMB_BOXES = ((1, 1), (1, 8), (9, 1), (9, 8))


def _pinwheel_segments(top: int, left: int):
    """Four disjoint 3-pixel segments around the edges of a 4x4 box."""
    return (
        ((top, left), (top, left + 1), (top, left + 2)),                    # up
        ((top, left + 3), (top + 1, left + 3), (top + 2, left + 3)),        # right
        ((top + 3, left + 1), (top + 3, left + 2), (top + 3, left + 3)),    # down
        ((top + 1, left), (top + 2, left), (top + 3, left)),                # left
    )


def _mask(pixels) -> np.ndarray:
    flat = np.zeros(_SIDE * _SIDE, dtype=np.float64)
    for row, col in pixels:
        flat[row * _SIDE + col] = 1.0
    return flat


def swimmer_parts() -> tuple[np.ndarray, np.ndarray]:
    """The exact 17-part factorization of the Swimmer matrix.

    Returns (basis, weights): basis is 169x17 (column 0 the backbone, then the
    16 limb positions), weights is the 17x256 0/1 membership matrix, and
    basis @ weights reproduces :func:`generate_swimmer` exactly.
    """
    backbone = _mask([(r, c) for r in _BACKBONE_ROWS for c in _BACKBONE_COLS])
    limb_masks = [[_mask(seg) for seg in _pinwheel_segments(top, left)]
                  for top, left in _LIMB_BOXES]

    basis = np.column_stack([backbone] + [m for limb in limb_masks for m in limb])
    weights = np.zeros((1 + 16, 4 ** 4))
    weights[0, :] = 1.0
    for image, positions in enumerate(itertools.product(range(4), repeat=4)):
        for limb, pos in enumerate(positions):
            weights[1 + 4 * limb + pos, image] = 1.0
    return basis, weights


def generate_swimmer() -> DataMatrix:
    """Deterministically generate the 169x256 binary Swimmer matrix.

    Image columns are ordered by the limb-position tuple (last limb varies
    fastest). All parts are pixel-disjoint, so the product of the 17-part
    factorization is exactly binary.
    """
    basis, weights = swimmer_parts()
    values = basis @ weights
    return DataMatrix(values, pixel_shape=(_SIDE, _SIDE), scale=SCALE_UNIT)


def load_matrix(path, format: str = "csv") -> DataMatrix:
    """Load a pixels-by-images matrix from a headerless CSV file or a PGM directory.

    CSV: one row per pixel, comma-separated. PGM directory: every ``*.pgm``
    file (P2 or P5), sorted by filename, flattened row-major into one column.
    The scale is inferred: ``raw255`` if any entry exceeds 1, else ``unit``.
    """
    path = Path(path)
    if format == "csv":
        return _load_csv(path)
    if format == "pgm_dir":
        return _load_pgm_dir(path)
    raise ParameterError(f"unknown format {format!r} (want 'csv' or 'pgm_dir')")


def _load_csv(path: Path) -> DataMatrix:
    lines = path.read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file")
    rows = []
    width = None
    for r, line in enumerate(lines):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(f"{path}: row {r} has {len(cells)} columns, expected {width}")
        row = []
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise FormatError(f"{path}: row {r}, column {c}: not a number: {cell!r}") from None
            if value < 0:
                raise FormatError(f"{path}: row {r}, column {c}: negative entry {value:g}")
            row.append(value)
        rows.append(row)
    values = np.array(rows, dtype=np.float64)
    scale = SCALE_RAW255 if np.any(values > 1.0) else SCALE_UNIT
    return DataMatrix(values, pixel_shape=None, scale=scale)


def _load_pgm_dir(path: Path) -> DataMatrix:
    files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm")
    if not files:
        raise FormatError(f"{path}: no .pgm files found")
    columns = []
    shape = None
    for f in files:
        image, _ = read_pgm(f)
        if shape is None:
            shape = image.shape
        elif image.shape != shape:
            raise FormatError(f"{f}: size {image.shape} differs from first image {shape}")
        columns.append(image.reshape(-1))
    values = np.column_stack(columns)
    scale = SCALE_RAW255 if np.any(values > 1.0) else SCALE_UNIT
    return DataMatrix(values, pixel_shape=shape, scale=scale)


def write_rows(path, rows, header=None) -> None:
    """Write rows as comma-separated text, after an optional header line.

    Python ints are written with ``%r``, every other value with ``%.17g``, so
    floats round-trip exactly.
    """
    with Path(path).open("w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%r" % v if isinstance(v, int) else "%.17g" % v for v in row))
            fh.write("\n")


def save_matrix(m: DataMatrix, path, source: str = "", seed=None, xi=None) -> None:
    """Write a matrix as headerless CSV plus a ``<path>.json`` metadata sidecar."""
    write_rows(path, m.values)
    sidecar = {
        "rows": m.n_pixels,
        "cols": m.n_images,
        "scale": m.scale,
        "source": source,
        "seed": seed,
        "xi": xi,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def rescale(m: DataMatrix) -> DataMatrix:
    """Divide 8-bit entries by 255 so they lie in [0, 1]."""
    if m.scale == SCALE_UNIT:
        warnings.warn("matrix is already unit-scaled; rescale is a no-op")
        return m
    return m.replace_values(m.values / 255.0, scale=SCALE_UNIT)


def apply_flip_noise(m: DataMatrix, xi: float, seed: int) -> DataMatrix:
    """Independently replace each entry v by 1-v with probability xi.

    Requires a unit-scaled matrix. The draw is reproducible: one uniform per
    entry from ``numpy.random.default_rng(seed)``, row-major over entries.
    """
    if m.scale != SCALE_UNIT:
        raise ParameterError("flip noise requires a unit-scaled matrix; rescale first")
    if not 0.0 <= xi <= 1.0:
        raise ParameterError(f"xi must lie in [0, 1], got {xi}")
    rng = np.random.default_rng(seed)
    flip = rng.random(m.values.shape) < xi
    return m.replace_values(np.where(flip, 1.0 - m.values, m.values))


def binarize(m: DataMatrix) -> DataMatrix:
    """Threshold a unit-scaled matrix at 0.5 (entries >= 0.5 become 1)."""
    if m.scale != SCALE_UNIT:
        raise ParameterError("binarize requires a unit-scaled matrix; rescale first")
    return m.replace_values((m.values >= 0.5).astype(np.float64))
