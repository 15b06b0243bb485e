"""The README's Library examples, run as a doctest, and its CLI block, run
through ``gpspec.cli.main``."""
import doctest
import shlex
from pathlib import Path

import pytest

from gpspec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def cli_block_commands() -> list[str]:
    """The ``gpspec ...`` lines of the first code block under "## CLI",
    without their comments."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("gpspec ")]


@pytest.mark.parametrize("command", cli_block_commands())
def test_readme_cli_command_exits_0(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_readme_cli_block_covers_every_subcommand():
    assert {command.split()[1] for command in cli_block_commands()} == {
        "spectrum", "energy", "equienergetic", "lift", "family", "verify", "tables"}
