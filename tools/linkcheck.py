#!/usr/bin/env python3
"""Markdown intra-repo link checker (stdlib only, no dependencies).

Walks the given markdown files/directories (default: every ``*.md`` at
the repo root plus ``docs/``), extracts inline links and images, and
fails when a *repo-internal* target does not exist:

- relative paths are resolved against the file containing the link and
  must exist on disk;
- absolute ``/...`` paths resolve against the repo root;
- an anchor on a markdown target (``docs/backends.md#selection``, or
  ``#selection`` for the linking file itself) must name one of that
  file's headings, slugged as GitHub does: lowercased, every character
  other than a letter, digit, space, ``-`` or ``_`` dropped, spaces
  turned into ``-``, and a repeated heading's slug suffixed ``-1``,
  ``-2``, ...  Only ATX (``#``) headings outside code fences count;
- ``http(s)://`` and ``mailto:`` targets are skipped — CI must not
  depend on external availability.

Exit code 0 when every internal link and anchor resolves, 1 otherwise
(one line per dead link or anchor, ``file:line: target``).

Usage::

    python tools/linkcheck.py            # default scan set
    python tools/linkcheck.py docs README.md
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Tuple
from urllib.parse import unquote

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline links/images: [text](target) / ![alt](target); reference
#: definitions: [label]: target.  Code spans and fenced blocks are
#: stripped first so `cfg.get("path/like")` never false-positives.
_INLINE_RE = re.compile(r"!?\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_REFDEF_RE = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
_FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
_CODESPAN_RE = re.compile(r"`[^`\n]*`")
_HEADING_RE = re.compile(r"^ {0,3}#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$",
                         re.MULTILINE)

_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def iter_markdown(paths: List[str]) -> Iterable[Path]:
    if not paths:
        roots = [p for p in REPO_ROOT.glob("*.md")]
        docs = REPO_ROOT / "docs"
        if docs.is_dir():
            roots.extend(sorted(docs.rglob("*.md")))
        yield from roots
        return
    for raw in paths:
        p = Path(raw)
        if not p.is_absolute():
            p = REPO_ROOT / p
        if p.is_dir():
            yield from sorted(p.rglob("*.md"))
        else:
            yield p


def _blank(m: re.Match) -> str:
    """Blank out a code region, preserving newlines for line numbers."""
    return re.sub(r"[^\n]", " ", m.group(0))


def slugify(heading: str) -> str:
    """GitHub's anchor for a heading's text."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


@lru_cache(maxsize=None)
def heading_anchors(md: Path) -> FrozenSet[str]:
    """Every anchor the headings of markdown file ``md`` define."""
    text = _FENCE_RE.sub(_blank, md.read_text(encoding="utf-8"))
    anchors = set()
    seen: Dict[str, int] = {}
    for m in _HEADING_RE.finditer(text):
        slug = slugify(m.group(1))
        repeats = seen.get(slug, 0)
        seen[slug] = repeats + 1
        anchors.add(f"{slug}-{repeats}" if repeats else slug)
    return frozenset(anchors)


def extract_targets(text: str) -> List[Tuple[int, str]]:
    """(line, target) pairs for every link in ``text``."""
    cleaned = _FENCE_RE.sub(_blank, text)
    cleaned = _CODESPAN_RE.sub(_blank, cleaned)
    out: List[Tuple[int, str]] = []
    for regex in (_INLINE_RE, _REFDEF_RE):
        for m in regex.finditer(cleaned):
            line = cleaned.count("\n", 0, m.start()) + 1
            out.append((line, m.group(1)))
    return sorted(out)


def check_file(md: Path) -> List[str]:
    errors: List[str] = []
    rel = md.relative_to(REPO_ROOT) if md.is_relative_to(REPO_ROOT) else md
    for line, target in extract_targets(md.read_text(encoding="utf-8")):
        if target.startswith(_SKIP_SCHEMES):
            continue
        path_part, _, fragment = target.partition("#")
        path_part = path_part.split("?", 1)[0]
        if not path_part:
            resolved = md
        elif path_part.startswith("/"):
            resolved = REPO_ROOT / path_part.lstrip("/")
        else:
            resolved = md.parent / path_part
        if not resolved.exists():
            errors.append(f"{rel}:{line}: dead link -> {target}")
        elif (fragment and resolved.suffix == ".md"
              and unquote(fragment) not in heading_anchors(resolved.resolve())):
            errors.append(f"{rel}:{line}: dead anchor -> {target}")
    return errors


def main(argv: List[str]) -> int:
    files = list(iter_markdown(argv))
    if not files:
        print("linkcheck: no markdown files found", file=sys.stderr)
        return 1
    errors: List[str] = []
    for md in files:
        if not md.exists():
            errors.append(f"{md}: no such file")
            continue
        errors.extend(check_file(md))
    for err in errors:
        print(err)
    print(f"[linkcheck: {len(files)} file(s), {len(errors)} dead link(s)]")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
