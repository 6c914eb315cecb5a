"""The library example in README.md runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    size, bound, dist = out.getvalue().split()
    assert size == "2"
    assert abs(float(bound) - 1 / 27) <= 1e-12
    assert abs(float(dist) - float(bound)) <= 1e-12
