"""Every Python code block in README.md runs as written, so a name the
library drops cannot linger in its examples."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = {f"block{i}": m.group(1) for i, m in enumerate(
    re.finditer(r"^```python\n(.*?)^```$", TEXT, re.DOTALL | re.MULTILINE), 1)}


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS)
def test_readme_block_runs(block):
    exec(compile(BLOCKS[block], f"README.md {block}", "exec"), {})
