"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
