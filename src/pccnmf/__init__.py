"""Nonnegative matrix factorization with common-cause diagnostics.

A numpy library for factorizing nonnegative pixels-by-images matrices and
analyzing the result as a probabilistic mixture model: predictability-based
effective-rank estimation, basis-stability matching, error-anticorrelation
and entropy diagnostics, common-cause clustering, and dictionary denoising.
Ships with a deterministic synthetic Swimmer dataset for end-to-end checks.
"""

import os as _os

# The update sweep's products are small (169 x 256 on the Swimmer), and handing
# each to a second BLAS thread costs more than it saves. So OpenBLAS runs on one
# thread unless the caller set a thread variable; this takes effect only when
# pccnmf is imported before numpy.
if not any(name in _os.environ for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .analysis import (AnticorrelationReport, EntropyReport, ErrorSequences, SparsityReport,
                       anticorrelation_report, error_sequences, hoyer_sparsity,
                       image_entropies, pearson, sparsity_comparison)
from .clustering import (Cluster, ClusterMember, ClusterReport, export_cluster_montage,
                         natural_clusters)
from .dataset import (DataMatrix, SCALE_RAW255, SCALE_UNIT, apply_flip_noise, binarize,
                      generate_swimmer, load_matrix, rescale, save_matrix, swimmer_parts)
from .denoising import (DenoiseRankEntry, DenoiseReport, accuracy, denoise_margins,
                        find_r_range)
from .errors import (DegenerateInputError, Error, FormatError, ParameterError,
                     UndefinedCorrelationError)
from .nmf import (Factorization, LOSS_FROBENIUS, LOSS_KL, SolverOptions, factorize,
                  factorize_seeds, frobenius_error, gauge_transform, kl_divergence,
                  load_factorization, save_factorization, truncated_svd)
from .probability import (JointModel, PccModel, derive_pcc, export_pcc, marginal_residuals,
                          pcc_summary, to_joint)
from .rank_scan import (BIC_VARIANTS, RankScanEntry, RankScanReport, bic_from_error,
                        dual_predictability_fraction, estimate_rc, estimate_rc_dual,
                        mean_internal_distance, predictability_fraction, rrssq)
from .report import RunReport, SCHEMA_VERSION, matrix_digest, timestamp, __version__
from .stability import (Matching, cosine_distance, cosine_distance_matrix,
                        distance_histogram, lexicographic_assignment, match_bases,
                        solve_assignment, stability_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
