"""README: the ``## Command line`` block shows exactly the options each
subcommand accepts, and every module name it cites in backticks exists.

A flag added to or removed from :func:`bfpksort.cli.build_parser` without the
README following (or the other way round) fails here, and so does a renamed
or deleted ``ksort.<name>``-style reference.
"""

from __future__ import annotations

import importlib
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


def _module_references() -> set[str]:
    """Every ``bfp.``/``rope.``/``ksort.``/``simharness.``/``tensorio.``/``cli.``
    dotted name inside an inline backtick span, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    name = re.compile(r"(?<![\w.])(?:bfp|rope|ksort|simharness|tensorio|cli)(?:\.[A-Za-z_]\w*)+")
    return {ref for span in re.findall(r"`([^`]+)`", text) for ref in name.findall(span)}


def test_readme_module_references_exist():
    refs = _module_references()
    assert "simharness.TILE" in refs  # the scan sees the README's references
    missing = []
    for ref in sorted(refs):
        module, *attrs = ref.split(".")
        obj = importlib.import_module(f"bfpksort.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(ref)
                break
            obj = getattr(obj, attr)
    assert not missing, f"README cites names that do not exist: {missing}"
