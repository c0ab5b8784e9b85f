"""List the branches of ``src/dgft`` that the tier-1 suite takes one way only.

    python3 tools/one_way_branches.py

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` from
the repository root) in this process under ``sys.settrace``, recording in
every frame of a ``src/dgft`` module each step from one line to the next
(an arc), and a step from a line out of the frame as a return. Then, for
each ``if`` statement of those modules:

- *entered*: some arc leads from a line of its test to the first line of
  its body;
- *passed*: some arc, or a return, leads from a line of its test anywhere
  else outside the test (to its ``else``/``elif``, or past the statement).

An ``if`` that is never entered or never passed is printed, and so is every
``for`` or ``while`` loop whose body is never entered, each as
``file:line  verdict  source line``. A step taken by an exception (to a
handler, or out of the frame) is no arc. Code that runs only in a child
process, such as the CLI tests' ``dgft`` subprocesses, is not traced. The
exit status is pytest's. Uses the standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dgft"
RETURN = -1  # the target of a step out of the frame


def _tracer(arcs: dict[str, set[tuple[int, int]]]):
    """A global trace function that records arcs of the frames of ``arcs``' files."""

    def call(frame, event, arg):
        if (seen := arcs.get(frame.f_code.co_filename)) is None:
            return None
        last = None

        def step(frame, event, arg):
            nonlocal last
            if event == "line":
                if last is not None:
                    seen.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return" and last is not None:
                seen.add((last, RETURN))
            elif event == "exception":  # where it goes next is no branch taken
                last = None
            return step

        return step

    return call


def _one_way(path: Path, arcs: set[tuple[int, int]]):
    """(line, verdict) of each one-way ``if`` and never-entered loop in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.If, ast.For, ast.While)):
            continue
        head = node.iter if isinstance(node, ast.For) else node.test
        header = range(node.lineno, head.end_lineno + 1)
        body = node.body[0].lineno
        exits = {dst for src, dst in arcs if src in header and dst not in header}
        if body not in exits:
            yield node.lineno, "never entered"
        elif isinstance(node, ast.If) and not exits - {body}:
            yield node.lineno, "always entered"


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    arcs = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    sys.settrace(_tracer(arcs))
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    for name, seen in arcs.items():
        path = Path(name)
        lines = path.read_text(encoding="utf-8").splitlines()
        for line, verdict in sorted(_one_way(path, seen)):
            print(f"{path.name}:{line}  {verdict}  {lines[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
