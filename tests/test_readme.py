"""The README's documented API runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block_under(heading: str) -> str:
    """The first ```python block after the line `heading` in README.md."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_library_quickstart_runs():
    # the block asserts its own witness sizes; it must run to its end
    exec(compile(python_block_under("## Library quickstart"), str(README), "exec"), {})
