"""The fenced ``python`` blocks of README.md run as they are written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, capsys):
    # each block in a fresh namespace, so that it cannot lean on another
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().err == ""
