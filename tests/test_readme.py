"""The README's Python examples and command lines run as written."""

import re
import shlex
from pathlib import Path

from hftkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def hftkit_commands(text):
    """The argument lists of every ``hftkit ...`` line of the sh blocks, with
    backslash continuations joined and trailing comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hftkit"]:
                commands.append(words[1:])
    return commands


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    commands = hftkit_commands(README.read_text(encoding="utf-8"))
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)  # fermi writes fermi.csv and the fig_*.svg pair here
    for argv in commands:
        assert main(argv) == 0, " ".join(argv)
    assert {p.name for p in tmp_path.iterdir()} == {"fermi.csv", "fig_energy.svg", "fig_slope.svg"}
