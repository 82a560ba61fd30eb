from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import robustfactors

README = (Path(__file__).parent.parent / "README.md").read_text()


def section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_quickstart_runs_and_prints_two_factors():
    block = re.search(r"```python\n(.*?)```", section("Library quickstart"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quickstart", "exec"), {})
    assert out.getvalue().splitlines()[0] == "2"


def test_lower_level_names_are_exported():
    sentence = re.search(r"Lower-level pieces[^.]*\.", section("Library quickstart")).group(0)
    names = re.findall(r"`([A-Za-z_]+)`", sentence)
    assert len(names) >= 10
    assert set(names) <= set(robustfactors.__all__)
