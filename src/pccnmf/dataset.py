"""Image datasets as nonnegative pixels-by-images matrices.

Provides the synthetic Swimmer dataset (256 binary 13x13 images composed of a
shared backbone plus four limbs, each in one of four positions), CSV / PGM
ingestion, and the perturbations used throughout the package: rescaling from
8-bit range to [0, 1], per-pixel flip noise, and threshold binarization.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .pgm import read_pgm

SCALE_RAW255 = "raw255"
SCALE_UNIT = "unit"


@dataclass(frozen=True)
class DataMatrix:
    """Nonnegative matrix of pixel intensities, one column per image.

    Entries must not exceed 255. ``scale`` follows from them: ``unit`` when
    every entry is at most 1, else ``raw255`` (8-bit). ``pixel_shape`` is the
    (height, width) of one image when known. Values are copied and frozen on
    construction, so instances are safe to share across threads.
    """

    values: np.ndarray
    pixel_shape: tuple[int, int] | None = None
    scale: str = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ParameterError("data matrix must be 2-d with at least one pixel and one image")
        if not np.all(np.isfinite(values)):
            raise ParameterError("data matrix entries must be finite")
        if np.any(values < 0):
            pix, img = np.argwhere(values < 0)[0]
            raise ParameterError(f"negative entry at pixel {pix}, image {img}")
        peak = values.max()
        if peak > 255.0:
            raise ParameterError("entries exceed 255 for scale=raw255")
        object.__setattr__(self, "scale", SCALE_UNIT if peak <= 1.0 else SCALE_RAW255)
        if self.pixel_shape is not None:
            shape = tuple(self.pixel_shape) if np.iterable(self.pixel_shape) else ()
            if len(shape) != 2:
                raise ParameterError(
                    f"pixel_shape {self.pixel_shape!r} must have two entries, (height, width)")
            object.__setattr__(self, "pixel_shape", shape)
            height, width = shape
            if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
                   for n in (height, width)):
                raise ParameterError(f"pixel_shape {self.pixel_shape} has a non-integer entry")
            if height < 1 or width < 1:
                raise ParameterError(f"pixel_shape {self.pixel_shape} has an entry below 1")
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

    def replace_values(self, values) -> "DataMatrix":
        """New DataMatrix with the same pixel_shape."""
        return DataMatrix(values, self.pixel_shape)


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
    return DataMatrix(values, pixel_shape=(_SIDE, _SIDE))


def load_matrix(path) -> DataMatrix:
    """Load a pixels-by-images matrix: a directory as PGM, any other path as CSV.

    CSV: headerless UTF-8, one row per pixel, comma-separated. PGM directory:
    every ``*.pgm`` file (P2 or P5), sorted by filename, flattened row-major
    into one column. As for any DataMatrix, the scale follows from the values:
    ``raw255`` if any entry exceeds 1, else ``unit``. The first entry that is
    not a finite value in [0, 255] raises FormatError naming its row and column.
    """
    path = Path(path)
    values, pixel_shape = _load_pgm_dir(path) if path.is_dir() else (read_rows(path), None)
    bad = ~((values >= 0) & (values <= 255))   # NaN fails both comparisons
    if bad.any():
        r, c = np.argwhere(bad)[0]
        kind = "negative entry" if values[r, c] < 0 else "entry"
        raise FormatError(
            f"{path}: row {r}, column {c}: {kind} {values[r, c]:g} is not in [0, 255]")
    return DataMatrix(values, pixel_shape=pixel_shape)


def _load_pgm_dir(path: Path) -> tuple[np.ndarray, tuple[int, int]]:
    """The columns of every ``*.pgm`` file in ``path``, and their common image shape."""
    files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm")
    if not files:
        raise FormatError(f"{path}: no .pgm files found")
    columns = []
    shape = None
    for f in files:
        image = read_pgm(f)
        if shape is None:
            shape = image.shape
        elif image.shape != shape:
            raise FormatError(f"{f}: size {image.shape} differs from first image {shape}")
        columns.append(image.reshape(-1))
    return np.column_stack(columns), shape


def read_rows(path) -> np.ndarray:
    """Read headerless comma-separated UTF-8 rows as a 2-d float array.

    The mirror of :func:`write_rows`. Every cell parses as ``float()`` does;
    trailing blank lines are ignored. An empty file, a row whose width differs
    from the first, or a cell that is not a number raises FormatError naming
    the 0-based row (and column).
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file")
    rows = [line.split(",") for line in lines]
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        # Error path only: rescan for the first ragged row or cell that is not a number.
        width = len(rows[0])
        for r, cells in enumerate(rows):
            if len(cells) != width:
                raise FormatError(
                    f"{path}: row {r} has {len(cells)} columns, expected {width}") from None
            for c, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise FormatError(
                        f"{path}: row {r}, column {c}: not a number: {cell!r}") from None
        raise


def write_rows(path, rows, header=None) -> None:
    """Write rows as comma-separated text, after an optional header line.

    Python ints are written with ``%r``, every other value with ``%.17g``, so
    floats round-trip exactly. The entries of an ndarray are numpy scalars, not
    Python ints, so all of them take ``%.17g``. Each row is one ``%`` operation.
    """
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        lines = [line % tuple(row) for row in rows.tolist()]
    else:
        lines = [",".join(["%r" if isinstance(v, int) else "%.17g" for v in row]) % tuple(row)
                 + "\n" for row in rows]
    with Path(path).open("w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(lines)


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
    """Divide 8-bit entries by 255; a unit matrix is returned as it is, so rescale is idempotent."""
    if m.scale == SCALE_UNIT:
        return m
    return m.replace_values(m.values / 255.0)


def check_xi(xi: float) -> None:
    """Reject a flip-noise intensity outside [0, 1], NaN included."""
    if not 0.0 <= xi <= 1.0:
        raise ParameterError(f"xi must lie in [0, 1], got {xi}")


def apply_flip_noise(m: DataMatrix, xi: float, seed: int) -> DataMatrix:
    """Independently replace each entry v by 1-v with probability xi.

    Requires a unit-scaled matrix. The draw is reproducible: one uniform per
    entry from ``numpy.random.default_rng(seed)``, row-major over entries.
    """
    if m.scale != SCALE_UNIT:
        raise ParameterError("flip noise requires a unit-scaled matrix; rescale first")
    check_xi(xi)
    rng = np.random.default_rng(seed)
    flip = rng.random(m.values.shape) < xi
    return m.replace_values(np.where(flip, 1.0 - m.values, m.values))


def binarize(m: DataMatrix) -> DataMatrix:
    """Threshold a unit-scaled matrix at 0.5 (entries >= 0.5 become 1)."""
    if m.scale != SCALE_UNIT:
        raise ParameterError("binarize requires a unit-scaled matrix; rescale first")
    return m.replace_values((m.values >= 0.5).astype(np.float64))
