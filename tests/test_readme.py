"""The README's python examples run as written, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)


def test_readme_has_the_library_and_cli_examples():
    assert len(BLOCKS) >= 2
    assert any("cli.solve" in block for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    block = BLOCKS[index]
    namespace = {"__name__": f"readme_block_{index + 1}"}
    exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)
    if "cli.solve" in block:  # its comment promises the preset's N* = 2
        assert namespace["record"].N == 2
