"""The README's Library section is the public API: its example runs, and
`quartics.__all__` is exactly the set of names it lists."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import quartics

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_section_is_the_public_api():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    prose = section.replace(code, "")

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(code, {})
    assert stdout.getvalue().strip() == "6028452"

    named = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", prose))
    assert set(quartics.__all__) == named
    assert len(quartics.__all__) == len(named)
    for name in quartics.__all__:
        assert getattr(quartics, name) is not None
