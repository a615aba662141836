"""README.md examples run as written: the quick tour as a doctest, and every
``hadpoly ...`` line of its command blocks through ``cli.main``."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from hadpoly.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_quick_tour_is_a_passing_doctest():
    (tour,) = _blocks("python")
    test = doctest.DocTestParser().get_doctest(tour, {}, "README quick tour", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    results = runner.summarize(verbose=False)
    assert results.attempted >= 8 and results.failed == 0


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("hadpoly ")
]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 20


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_is_well_formed(capsys, argv):
    """0 or 1 is an answer; 2 would mean the README shows malformed input."""
    assert main(argv) in (0, 1), capsys.readouterr().err
