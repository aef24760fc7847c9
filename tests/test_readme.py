"""README: the ``## Command line`` block shows exactly the options each
subcommand accepts.

A flag added to or removed from :func:`bfpksort.cli.build_parser` without the
README following (or the other way round) fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from bfpksort.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("run", "plan", "inspect")


def _command_line_usages() -> dict[str, str]:
    """Each ``bfpksort <command> ...`` usage in the README's command-line
    block, backslash continuations joined and comment lines skipped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    usages, current = {}, None
    for line in block.splitlines():
        if current is None:
            match = re.match(r"bfpksort (\w+) ", line)
            if match is None:
                continue
            current = match.group(1)
            usages[current] = ""
        usages[current] += line.rstrip("\\")
        if not line.endswith("\\"):
            current = None
    return usages


def _subparser(command: str):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    return subparsers.choices[command]


def test_readme_shows_every_subcommand():
    assert sorted(_command_line_usages()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_flags_match_the_parser(command):
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _command_line_usages()[command]))
    options = {
        flag
        for action in _subparser(command)._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert shown == options, f"README shows {sorted(shown)}, parser takes {sorted(options)}"
