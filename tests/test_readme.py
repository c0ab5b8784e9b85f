"""README.md against the code: every ```python block runs cleanly in a fresh
interpreter, every ``$ dgft`` example parses, and every option is named."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dgft.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
COMMANDS = [
    line.removeprefix("$ dgft ")
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("$ dgft ")
]


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
