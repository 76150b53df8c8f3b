"""``tools/linkcheck.py``: links and their anchors must resolve."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linkcheck.py"

PAGE = """\
# The page

## Cold start (`import repro`)

```
## Inside a fence
```

## Cold start (`import repro`)
"""


def _run(*paths):
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def _tree(tmp_path, links):
    (tmp_path / "page.md").write_text(PAGE, encoding="utf-8")
    index = tmp_path / "index.md"
    index.write_text("".join(f"[x]({link})\n" for link in links),
                     encoding="utf-8")
    return index


def test_live_anchors_pass(tmp_path):
    index = _tree(tmp_path, ["page.md#cold-start-import-repro",
                             "page.md#cold-start-import-repro-1",
                             "page.md#the-page", "#", "page.md"])
    out = _run(index)
    assert out.returncode == 0, out.stdout
    assert "0 dead link(s)" in out.stdout


def test_dead_and_fenced_anchors_fail(tmp_path):
    index = _tree(tmp_path, ["page.md#cold-start", "page.md#inside-a-fence",
                             "page.md#cold-start-import-repro-2",
                             "missing.md#the-page"])
    out = _run(index)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert sum("dead anchor" in line for line in lines) == 3
    assert "index.md:4: dead link -> missing.md#the-page" in out.stdout
    assert "4 dead link(s)" in out.stdout


def test_same_file_anchor(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(PAGE + "\nSee [above](#the-page) and [gone](#nowhere).\n",
                    encoding="utf-8")
    out = _run(page)
    assert out.returncode == 1
    assert "dead anchor -> #nowhere" in out.stdout
    assert "#the-page" not in out.stdout
