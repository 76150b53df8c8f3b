"""Incremental analysis cache keyed by file content hashes.

Layout: one pickle per analyzed source file under
``.repro-analysis-cache/`` (named by a hash of the file's absolute
path), holding the findings the engine produced for that file plus the
pickled :class:`~repro.analysis.callgraph.ModuleInfo` the project pass
needs to resolve calls *into* the file when a neighbour changes.

An entry is valid only when

- its own content hash matches the file on disk,
- the recorded rule selection and analyzed-file set match (a different
  ``--select`` or path set is a different analysis),
- every file in its recorded transitive import closure still has the
  hash it had when the entry was written.

The third condition is the transitive invalidation the import graph
demands: editing ``gpu/device.py`` re-analyzes everything that imports
it (directly or not), while files outside its dependent cone replay
from cache with zero re-parses.  The known precision limit is shared
with the dataflow pass itself: name-matched method candidates can
cross files with no import edge, so a rename in an unrelated module
conservatively requires a cold run (``--no-cache``) to observe.

The cache is a local build artifact (gitignored); entries are plain
pickles, so never point ``--cache-dir`` at untrusted data.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional

__all__ = ["AnalysisCache", "DEFAULT_CACHE_DIR", "content_hash",
           "selection_key"]

#: Conventional location, relative to the invocation directory.
DEFAULT_CACHE_DIR = ".repro-analysis-cache"

_VERSION = 2


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def selection_key(rules: Iterable[str], relpaths: Iterable[str]) -> str:
    """One hash covering the rule selection and the analyzed set."""
    h = hashlib.sha256()
    for rule in sorted(rules):
        h.update(rule.encode("ascii") + b"\0")
    h.update(b"--\0")
    for rp in sorted(relpaths):
        h.update(rp.encode("utf-8") + b"\0")
    return h.hexdigest()


class AnalysisCache:
    """Per-file entry store with content-hash validity.

    The engine owns the validity *logic* (it knows every file's current
    hash); this class only loads and stores entries atomically.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        #: Counters the incremental-cache tests assert on.
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _entry_path(self, abs_path: Path) -> Path:
        name = hashlib.sha1(
            str(abs_path).encode("utf-8")).hexdigest()
        return self.directory / f"{name}.pkl"

    def load(self, abs_path: Path) -> Optional[Dict]:
        """Raw entry for ``abs_path`` or None; no validity judgement."""
        entry_path = self._entry_path(abs_path)
        try:
            with open(entry_path, "rb") as fh:
                entry = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != _VERSION:
            return None
        return entry

    def store(self, abs_path: Path, entry: Dict) -> None:
        entry = dict(entry, version=_VERSION)
        self.directory.mkdir(parents=True, exist_ok=True)
        entry_path = self._entry_path(abs_path)
        fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, entry_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1
