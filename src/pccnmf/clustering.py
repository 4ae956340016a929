"""Natural clusterization: group images under the basis that drives them.

An image i belongs to the cluster of basis b when p(i|b) exceeds p(i), i.e.
b raises the image's probability. Clusters may overlap and are reported per
basis, ordered by decreasing prior.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import DataMatrix, SCALE_UNIT
from .errors import ParameterError
from .nmf import Factorization
from .pgm import write_pgm
from .probability import PccModel


@dataclass(frozen=True)
class ClusterMember:
    image: int
    p_image_given_basis: float
    p_image: float


@dataclass(frozen=True)
class Cluster:
    basis: int
    prior: float
    members: tuple


@dataclass(frozen=True)
class ClusterReport:
    k: int
    require_positive: bool
    clusters: tuple


def natural_clusters(pcc: PccModel, k: int = 5, require_positive: bool = True) -> ClusterReport:
    """Top-k members per basis by p(i|b), optionally filtered to p(i|b) > p(i).

    Bases are ordered by decreasing prior (index breaks ties); members by
    decreasing p(i|b) (image index breaks ties). A basis with fewer than k
    qualifying images yields a truncated cluster and a warning.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    basis_order = np.argsort(-pcc.basis_prior, kind="stable")
    clusters = []
    for b in basis_order:
        scores = pcc.cond_image_given_basis[b]
        image_order = np.lexsort((np.arange(len(scores)), -scores))
        members = []
        for i in image_order:
            if require_positive and not scores[i] - pcc.marg_image[i] > 0:
                continue
            members.append(ClusterMember(image=int(i),
                                         p_image_given_basis=float(scores[i]),
                                         p_image=float(pcc.marg_image[i])))
            if len(members) == k:
                break
        if len(members) < k:
            warnings.warn(f"basis {int(b)}: only {len(members)} of {k} images qualify")
        clusters.append(Cluster(basis=int(b), prior=float(pcc.basis_prior[b]),
                                members=tuple(members)))
    return ClusterReport(k=k, require_positive=require_positive, clusters=tuple(clusters))


def _to_gray(column: np.ndarray, limit: float) -> np.ndarray:
    """Map a nonnegative column to 0..255 ints given its full-scale value."""
    if limit <= 0:
        return np.zeros_like(column)
    return np.rint(255.0 * np.clip(column / limit, 0.0, 1.0))


# The JSON files of a cluster output directory: the report that pccnmf cluster
# writes, and the index of the strips that export_cluster_montage writes.
REPORT_FILE = "clusters.json"
MONTAGE_INDEX_FILE = "index.json"


def export_cluster_montage(report: ClusterReport, m: DataMatrix, f: Factorization,
                           path) -> list[Path]:
    """Write one PGM strip per cluster (basis image, then members) plus an index.json.

    Basis columns are normalized by their own maximum; data columns by the
    matrix full-scale value. Returns the written strip paths.
    """
    if m.pixel_shape is None:
        raise ParameterError("pixel_shape is required to render images")
    height, width = m.pixel_shape
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    full_scale = 1.0 if m.scale == SCALE_UNIT else 255.0

    written = []
    index = []
    for position, cluster in enumerate(report.clusters):
        basis_col = f.basis[:, cluster.basis]
        panels = [_to_gray(basis_col, float(basis_col.max()))]
        for member in cluster.members:
            panels.append(_to_gray(m.values[:, member.image], full_scale))
        strip = np.hstack([p.reshape(height, width) for p in panels])
        strip_path = out / f"cluster_{position:02d}_basis_{cluster.basis:02d}.pgm"
        write_pgm(strip_path, strip)
        written.append(strip_path)
        index.append({"file": strip_path.name, **asdict(cluster)})
    (out / MONTAGE_INDEX_FILE).write_text(json.dumps(index, indent=2) + "\n")
    return written
