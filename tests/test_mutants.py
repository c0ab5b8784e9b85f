"""The mutant list of ``tools/mutants.py`` against the source it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_each_mutant_text_occurs_once_in_the_package():
    # A text edited away, or repeated, would leave its mutant testing nothing.
    assert len({name for name, *_ in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for name, text, replacement in mutants.MUTANTS:
        assert text != replacement, name
        mutants.target(ROOT, text)  # a LookupError unless exactly once
