"""README.md against the code: every ```python block runs cleanly in a fresh
interpreter, every ``$ dgft`` example parses, the output an example shows
is the output it prints, every option is named, and the options table
gives the parser's defaults."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dgft.cli import _build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
COMMANDS = [
    line.removeprefix("$ dgft ")
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("$ dgft ")
]


def _shown_outputs():
    """(command, lines shown under it) of every ``$ dgft`` example that
    shows output: the lines up to the next blank line or prompt."""
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        for example in re.split(r"\n(?=\$ )|\n\n", block.strip()):
            command, *shown = example.splitlines()
            if command.startswith("$ dgft ") and shown:
                yield command.removeprefix("$ dgft "), shown


# An example runs when it shows a line without "..." to check.
SHOWN = [(c, lines) for c, lines in _shown_outputs() if any("..." not in x for x in lines)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(source):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", source],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=[f"cmd{k}" for k in range(len(COMMANDS))])
def test_cli_example_parses(command):
    # parsed only: argparse exits on an unknown option or a bad value
    _build_parser().parse_args(shlex.split(command, comments=True))


def test_readme_shows_cli_output():
    assert SHOWN


@pytest.mark.parametrize("command, shown", SHOWN, ids=[f"out{k}" for k in range(len(SHOWN))])
def test_shown_output_is_the_real_output(command, shown, capsys, monkeypatch):
    # Shown lines match the printed ones by position, or by key in a JSON
    # report, which prints one top-level key per line; a line with "..." is
    # abridged and checks only that its key is printed, in the shown order.
    # An example without "..." is shown in full.
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command, comments=True)) == 0
    out = capsys.readouterr().out
    if shown[0] == "{":
        json.loads(out)
        lines = out.splitlines()
        assert (lines[0], lines[-1], shown[-1]) == ("{", "}", "}")
        printed = {re.match(r'  "(\w+)": ', line).group(1): line for line in lines[1:-1]}
        keys = [re.fullmatch(r'  "(\w+)": .*', line).group(1) for line in shown[1:-1]]
        assert keys == sorted(keys, key=list(printed).index)  # a missing key raises here
        for key, line in zip(keys, shown[1:-1]):
            if "..." not in line:
                assert line == printed[key]
        return
    printed = out.splitlines()
    for want, got in zip(shown, printed):
        if "..." not in want:
            assert got == want
    if not any("..." in line for line in shown):
        assert len(printed) == len(shown)


def test_options_table_gives_the_parser_defaults():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = {
        option: action.default
        for p in sub.choices.values()
        for action in p._actions
        for option in action.option_strings
    }
    rows = re.findall(r"^\| `(--[\w-]+)[^`]*` \|.* \| ([^|]+) \|$", README, re.M)
    assert rows
    for option, cell in rows:
        default = defaults[option]
        if cell.startswith("`"):  # a value, as the parser holds it
            assert type(default)(cell.strip("`")) == default, option
        else:  # prose: no value until the run computes or sets one
            assert default in (None, False), option


def test_every_cli_option_is_named():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        tuple(action.option_strings)
        for p in sub.choices.values()
        for action in p._actions
        if action.option_strings and "--help" not in action.option_strings
    }
    named = lambda s: re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])", README)
    assert [o for o in sorted(options) if not any(map(named, o))] == []
