"""The library example in README.md runs and prints its comments.

Each ``# ...`` line of the example's Python block is the line that the
``print`` above it writes, byte for byte.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    source = _example()
    expected = [line[2:] for line in source.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == source.count("print(")
