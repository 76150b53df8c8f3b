"""Clustering-quality measures for low-rank approximations.

The paper's conclusion proposes evaluating approximation quality
through the application: "we will investigate other error measurements
(e.g., clustering errors) to better understand the quality of the
approximation computed by different algorithms."  For the HapMap
workload that measure is population recovery: embed the individuals
with the low-rank factors, cluster, and score the agreement with the
known populations.

This module provides that pipeline on top of any of the package's
factorizations (QR/SVD/CUR), using SciPy's k-means for the clustering
step and the optimal label matching for the score.  Both are imported
on first call: ``scipy.cluster`` and ``scipy.optimize`` pull in five
more SciPy packages that nothing else here needs, and would cost every
``import repro`` about 0.25 s and 20 MiB.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SamplingConfig
from ..errors import ShapeError
from .svd import randomized_svd

__all__ = ["clustering_accuracy", "embed_columns", "cluster_columns",
           "population_recovery_score"]


def clustering_accuracy(labels_true: np.ndarray,
                        labels_pred: np.ndarray) -> float:
    """Best label-matching agreement between two clusterings, in [0, 1].

    Uses the Hungarian algorithm on the contingency matrix, so it
    scales to many clusters (exhaustive permutation matching would
    explode past ~8).
    """
    from scipy.optimize import linear_sum_assignment

    labels_true = np.asarray(labels_true)
    labels_pred = np.asarray(labels_pred)
    if labels_true.shape != labels_pred.shape:
        raise ShapeError("label arrays must have equal length")
    kt = int(labels_true.max()) + 1
    kp = int(labels_pred.max()) + 1
    k = max(kt, kp)
    contingency = np.zeros((k, k))
    for t, p in zip(labels_true, labels_pred):
        contingency[int(t), int(p)] += 1
    rows, cols = linear_sum_assignment(-contingency)
    return float(contingency[rows, cols].sum() / labels_true.size)


def embed_columns(a: np.ndarray, rank: int,
                  config: Optional[SamplingConfig] = None,
                  center: bool = True) -> np.ndarray:
    """Low-dimensional embedding of the columns of ``A`` via the
    randomized SVD.

    Each column (e.g. an individual in the genotype workload) gets the
    ``rank`` coordinates ``sigma_i * v_i`` — its weights on the top
    right-singular vectors.

    Parameters
    ----------
    a:
        ``m x n`` data matrix.
    rank:
        Embedding dimension.
    config:
        Sampling parameters (rank is overridden); defaults to
        ``q = 2`` power iterations, which the noisy regimes need.
    center:
        Subtract the row means first (standard for PCA-style
        structure analysis).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError("embed_columns needs a 2-D matrix")
    if center:
        a = a - a.mean(axis=1, keepdims=True)
    cfg = config if config is not None else SamplingConfig(
        rank=rank, oversampling=10, power_iterations=2, seed=0)
    if cfg.rank != rank:
        cfg = cfg.with_rank(rank)
    f = randomized_svd(a, cfg)
    return (f.vt * f.s[:, None]).T  # n x rank


def cluster_columns(a: np.ndarray, n_clusters: int, rank: int,
                    config: Optional[SamplingConfig] = None,
                    seed: int = 0,
                    center: bool = True) -> np.ndarray:
    """Cluster the columns of ``A`` in a rank-``rank`` embedding.

    Returns the predicted label per column.
    """
    from scipy.cluster.vq import kmeans2

    if n_clusters < 2:
        raise ShapeError(f"need >= 2 clusters, got {n_clusters}")
    coords = embed_columns(a, rank, config=config, center=center)
    _, labels = kmeans2(coords, n_clusters, minit="++", seed=seed)
    return labels


def population_recovery_score(a: np.ndarray, labels_true: np.ndarray,
                              rank: int,
                              config: Optional[SamplingConfig] = None,
                              seed: int = 0) -> float:
    """End-to-end clustering quality of a low-rank approximation: embed
    the columns, k-means them, and score against the true labels.

    This is the quality measure that separates the hapmap regimes in
    the examples: the same Figure 6 residual (~0.4) supports ~100 %
    recovery with ``q = 2`` but much less without power iterations.
    """
    labels_true = np.asarray(labels_true)
    if labels_true.size != a.shape[1]:
        raise ShapeError("labels_true must have one entry per column")
    k = int(labels_true.max()) + 1
    pred = cluster_columns(a, n_clusters=k, rank=rank, config=config,
                           seed=seed)
    return clustering_accuracy(labels_true, pred)
