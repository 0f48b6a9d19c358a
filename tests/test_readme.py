"""The README's examples run as written: each python block in a fresh
namespace, and each Quick start preset line through the CLI.  Its list of
SimResult's fields names exactly the dataclass fields, and its Layout names
exactly the package's module files."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from specstab import cli
from specstab.simulate import SimResult

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
QUICK_START = TEXT.split("## Quick start", 1)[1].split("```")[1]
PRESET_LINES = [line for line in QUICK_START.splitlines()
                if line.startswith("specstab run ") and line.split()[2] in cli.PRESETS]


def test_readme_lists_exactly_the_sim_result_fields():
    # the bullet list after "`SimResult` holds:" names each field in backticks
    bullets = TEXT.split("`SimResult` holds:", 1)[1].split("\n\n")[1]
    assert bullets.startswith("- ")
    named = set(re.findall(r"`([A-Za-z_]\w*)`", bullets))
    assert named == {field.name for field in dataclasses.fields(SimResult)}


def test_readme_layout_names_every_module_file():
    layout = TEXT.split("## Layout", 1)[1]
    named = set(re.findall(r"^- `src/specstab/(\w+\.py)`", layout, re.MULTILINE))
    assert named == {path.name for path in (ROOT / "src" / "specstab").glob("*.py")}


def test_readme_has_the_library_and_cli_examples():
    assert len(BLOCKS) >= 2
    assert any("cli.solve" in block for block in BLOCKS)
    assert sorted(line.split()[2] for line in PRESET_LINES) == sorted(cli.PRESETS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    block = BLOCKS[index]
    namespace = {"__name__": f"readme_block_{index + 1}"}
    exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)
    if "cli.solve" in block:  # its comment promises the preset's N* = 2
        assert namespace["record"].N == 2


@pytest.mark.parametrize("line", PRESET_LINES)
def test_quick_start_preset_line_runs(line, tmp_path, monkeypatch):
    # the line's arguments as written, run in tmp_path; its comment quotes N*
    monkeypatch.chdir(tmp_path)
    command, comment = line.split("#", 1)
    argv = command.split()[1:]
    assert cli.main(argv) == 0
    out = argv[argv.index("--out") + 1] if "--out" in argv else "specstab-out"
    report = json.loads((tmp_path / out / "report.json").read_text())
    assert report["N_star"] == int(re.search(r"N\* = (\d+)", comment).group(1))
