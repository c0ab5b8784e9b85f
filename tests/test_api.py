"""The public API holds no function that nothing uses.

A function in ``dgft.__all__`` earns its place when code outside its
defining module names it: another package module, the acceptance suite
or the benchmark harness. The package's ``__init__`` re-exports every
name, so it counts for none.
"""

import ast
import inspect
from pathlib import Path

import dgft

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(dgft.__file__).resolve().parent

# The shift S = I - L as a matrix: the paper's operator, named in its abstract.
KEEP = {"shift_operator"}


def _referenced_names(path: Path) -> set[str]:
    """Every name a module mentions: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_function_is_used_outside_its_module():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    references = {path.resolve(): _referenced_names(path) for path in users}
    unused = []
    for name in dgft.__all__:
        fn = getattr(dgft, name)
        if not inspect.isfunction(fn) or name in KEEP:
            continue
        home = Path(inspect.getfile(fn)).resolve()
        if not any(name in refs for path, refs in references.items() if path != home):
            unused.append(name)
    assert unused == []
