"""The README's Python examples run as written, so a public name that
goes away from the library cannot stay in the docs."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
