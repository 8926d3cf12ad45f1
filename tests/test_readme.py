"""The README's library quickstart runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_blocks_run_from_the_repo_root(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
