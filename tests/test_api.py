"""The package holds no public function, property or field that nothing uses.

A public module-level function of any ``dgft`` module, or a public
property or record field (``_fields``) of a class in ``dgft.__all__``,
earns its place when code outside its defining module uses it: another
package module, the acceptance suite or the benchmark harness. The
package's ``__init__`` re-exports every name, so it counts for none. A
function is used where its name is mentioned at all; a property or field
only where it is read as an attribute (``x.name``) or passed as a keyword
(``name=...``), so a local variable of the same name does not count.
``ShiftInvariance.bound`` passed the looser rule only through locals named
``bound``.

The rule matches names, not objects, so a property that shares its name
with something used elsewhere passes unseen. ``LsiFilter.order`` was such
a case: the CLI reads ``FrequencyOrdering.order``, so the rule could not
have caught it.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import dgft

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(dgft.__file__).resolve().parent

# The shift S = I - L as a matrix: the paper's operator, named in its abstract.
KEEP = {"shift_operator"}


def _referenced_names(path: Path, members: bool = False) -> set[str]:
    """Every name a module mentions: bare names, attributes and imports; or,
    for ``members``, the names it reads as attributes or passes as keywords."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and members:
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not members:
            names.add(node.id)
        elif isinstance(node, ast.alias) and not members:
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _unused(named: list[tuple[str, object]], members: bool = False) -> list[str]:
    """The names, each with the object whose module is its home, that no
    user outside that home mentions (:func:`_referenced_names`)."""
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    references = {path.resolve(): _referenced_names(path, members) for path in users}
    unused = []
    for name, owner in named:
        home = Path(inspect.getfile(owner)).resolve()
        if not any(name in refs for path, refs in references.items() if path != home):
            unused.append(name)
    return unused


def test_every_public_function_is_used_outside_its_module():
    modules = [importlib.import_module(f"dgft.{m.name}") for m in pkgutil.iter_modules(dgft.__path__)]
    functions = [
        (name, value)
        for module in modules
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
        and name not in KEEP
    ]
    assert functions  # the rule has something to check
    assert _unused(functions) == []


def test_every_public_property_is_used_outside_its_module():
    classes = [getattr(dgft, name) for name in dgft.__all__]
    properties = [
        (attr, cls)
        for cls in classes
        if inspect.isclass(cls)
        for attr, value in vars(cls).items()
        if isinstance(value, property) and not attr.startswith("_")
    ]
    assert properties  # the rule has something to check
    assert _unused(properties, members=True) == []


def test_every_record_field_is_used_outside_its_module():
    classes = [getattr(dgft, name) for name in dgft.__all__]
    fields = [
        (field, cls)
        for cls in classes
        if inspect.isclass(cls)
        for field in getattr(cls, "_fields", ())
    ]
    assert fields  # the rule has something to check
    assert _unused(fields, members=True) == []
