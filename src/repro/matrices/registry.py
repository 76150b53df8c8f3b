"""Named registry of the paper's test matrices (Table 1).

Benches and tests request matrices by name (``"power"``, ``"exponent"``,
``"hapmap"``) at either paper scale or a reduced scale; the registry
also computes the Table 1 summary row (sigma_0, sigma_{k+1}, kappa) for
a generated instance.

Instances that callers share are memoized in a small per-process LRU
keyed on ``(name, m, n, seed)`` — sweep grids hit the same few
matrices dozens of times and generation (a Haar-random orthogonal
factor per side) dominates their host wall-clock.  Only integer seeds
are cached (a Generator carries hidden state).  Tune with
``REPRO_MATRIX_CACHE`` (entry count, 0 disables).

Who owns the returned array depends on one keyword:

- by default, the caller.  On a key the LRU does not hold, the freshly
  generated array itself is returned and the LRU admits nothing, so the
  process holds one copy of the matrix, the caller's.  On a key the LRU
  holds, the caller gets a private copy.  Either way the array is
  writable and a write never reaches the LRU or another caller.
  Repeating a default call on a key nobody shares generates it again:
  pass ``readonly=True`` to share.
- with ``readonly=True``, the LRU.  The first call admits the entry,
  and every such caller gets a read-only view of it, one shared buffer
  and no copy (15 MB for a 3000 x 640 matrix).  A write raises
  ``ValueError``.  When the cache is disabled, the seed is a Generator,
  or the entry is over the size cap, it is a freshly generated array,
  also read-only, that nothing else holds.

So the LRU holds memory only for callers that share.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..backends import hostmath
from . import synthetic
from .hapmap_like import hapmap_like_matrix
from .synthetic import RngLike

__all__ = ["MatrixSpec", "TABLE1_SPECS", "get_matrix", "list_matrices",
           "table1_row", "matrix_cache_info", "clear_matrix_cache"]

#: Default LRU capacity (entries); override with REPRO_MATRIX_CACHE.
_CACHE_DEFAULT_ENTRIES = 8
#: Entries larger than this many bytes are never cached (a paper-scale
#: 500k x 500 matrix is 2 GB; caching it would evict everything else
#: for no win and pin the memory).
_CACHE_MAX_ENTRY_BYTES = 256 * 1024 * 1024

_CACHE: "OrderedDict[Tuple[str, int, int, int], np.ndarray]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}


def _cache_capacity() -> int:
    raw = os.environ.get("REPRO_MATRIX_CACHE", "").strip()
    if not raw:
        return _CACHE_DEFAULT_ENTRIES
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_MATRIX_CACHE must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ConfigurationError(
            f"REPRO_MATRIX_CACHE must be >= 0, got {cap}")
    return cap


def matrix_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the per-process matrix LRU."""
    return {"hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"], "entries": len(_CACHE)}


def clear_matrix_cache() -> None:
    _CACHE.clear()
    _CACHE_STATS["hits"] = _CACHE_STATS["misses"] = 0


@dataclass(frozen=True)
class MatrixSpec:
    """Description of one Table 1 test matrix.

    Attributes
    ----------
    name:
        Registry key.
    paper_shape:
        The (m, n) used in the paper.
    default_rank, default_oversampling:
        The (k, p) the paper pairs with this matrix.
    description:
        Human-readable definition of the spectrum / data source.
    """

    name: str
    paper_shape: Tuple[int, int]
    default_rank: int
    default_oversampling: int
    description: str
    factory: Callable[..., np.ndarray]


def _power_factory(m: int, n: int, seed: RngLike) -> np.ndarray:
    return synthetic.power_matrix(m, n, seed=seed)


def _exponent_factory(m: int, n: int, seed: RngLike) -> np.ndarray:
    return synthetic.exponent_matrix(m, n, seed=seed)


def _hapmap_factory(m: int, n: int, seed: RngLike) -> np.ndarray:
    return hapmap_like_matrix(n_snps=m, n_individuals=n, seed=seed)


TABLE1_SPECS: Dict[str, MatrixSpec] = {
    "power": MatrixSpec(
        name="power",
        paper_shape=(500_000, 500),
        default_rank=50,
        default_oversampling=10,
        description="sigma_i = (i+1)^-3, Haar-random singular vectors",
        factory=_power_factory,
    ),
    "exponent": MatrixSpec(
        name="exponent",
        paper_shape=(500_000, 500),
        default_rank=50,
        default_oversampling=10,
        description="sigma_i = 10^(-i/10), Haar-random singular vectors",
        factory=_exponent_factory,
    ),
    "hapmap": MatrixSpec(
        name="hapmap",
        paper_shape=(503_783, 506),
        default_rank=50,
        default_oversampling=10,
        description="Balding-Nichols synthetic stand-in for the "
                    "International HapMap genotype panel",
        factory=_hapmap_factory,
    ),
}


def list_matrices() -> Tuple[str, ...]:
    """Names of all registered test matrices."""
    return tuple(TABLE1_SPECS)


def get_matrix(name: str, m: Optional[int] = None, n: Optional[int] = None,
               seed: RngLike = 0, *, readonly: bool = False) -> np.ndarray:
    """Instantiate a registered test matrix.

    Parameters
    ----------
    name:
        One of :func:`list_matrices`.
    m, n:
        Override the paper's shape (both default to the paper values —
        note the paper's ``m`` is 500 000; pass something smaller for
        interactive use).
    seed:
        PRNG seed; defaults to 0 for reproducible benches.  Integer
        seeds can hit the LRU cache; Generator instances always
        regenerate.
    readonly:
        Share the matrix instead of owning it: return a read-only view
        of the LRU entry, admitted on the first such call, so repeat
        callers share one buffer and pay no copy.

    By default the caller owns a writable array: the generated matrix
    itself when the LRU does not hold the key (nothing is admitted, so
    no second copy stays behind), a private copy when it does.  A
    caller that repeats a key and does not write should pass
    ``readonly=True``; a repeated default call generates again.
    """
    try:
        spec = TABLE1_SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown matrix {name!r}; available: {list_matrices()}"
        ) from None
    pm, pn = spec.paper_shape
    mm = m if m is not None else pm
    nn = n if n is not None else pn
    capacity = _cache_capacity()
    if capacity == 0 or not isinstance(seed, (int, np.integer)):
        return _uncached(spec.factory(mm, nn, seed), readonly)
    key = (name, int(mm), int(nn), int(seed))
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        return cached.view() if readonly else cached.copy()
    _CACHE_STATS["misses"] += 1
    a = spec.factory(mm, nn, seed)
    # Only sharers are admitted: a writable caller owns the one buffer.
    if not readonly or a.nbytes > _CACHE_MAX_ENTRY_BYTES:
        return _uncached(a, readonly)
    # Entries are frozen, and readers get a view: a view of a
    # read-only base cannot be made writable again.
    a.flags.writeable = False
    _CACHE[key] = a
    while len(_CACHE) > capacity:
        _CACHE.popitem(last=False)
    return a.view()


def _uncached(a: np.ndarray, readonly: bool) -> np.ndarray:
    """A freshly generated matrix nobody else holds."""
    if readonly:
        a.flags.writeable = False
    return a


def table1_row(a: np.ndarray, k: int = 50) -> Dict[str, float]:
    """Compute the Table 1 summary statistics for a matrix instance.

    Returns a dict with ``sigma_0`` (largest singular value),
    ``sigma_k1`` (the (k+1)-th largest, the paper's sigma_{k+1}), and
    ``kappa`` = sigma_0 / sigma_{k+1}, the effective condition number
    the paper reports (the ratio across the truncation point).
    """
    s = hostmath.svdvals(a)
    if k + 1 >= s.size:
        raise ConfigurationError(
            f"k = {k} too large for matrix with min dim {s.size}")
    sigma0 = float(s[0])
    sigmak1 = float(s[k + 1])
    return {"sigma_0": sigma0, "sigma_k1": sigmak1,
            "kappa": sigma0 / sigmak1 if sigmak1 > 0 else np.inf}
