"""Check that the tier-1 suite fails on each of a fixed list of faults.

    python3 tools/mutants.py

Copies the working tree (without ``.git`` and caches) into a temporary
directory, then runs the tier-1 suite (``pytest -q
--continue-on-collection-errors``) there once as it is and once per mutant
of ``MUTANTS``. A mutant is one single-string replacement in the one file
of ``src/dgft`` that holds its text, made in the copy and undone after its
run; ``src/`` itself is never written. Prints the unmutated run, then one
line per mutant, ``name  failed-count  killed|SURVIVED``, where the count
adds up failures and errors (-1 for a run that ended with neither). The exit status is 0 when the unmutated copy
passes and every mutant is killed, 1 otherwise. A survivor means the suite
no longer checks what that fault breaks. ``tests/test_mutants.py`` is left
out of every run: it checks that each mutant's text is still there, so it
would fail on every mutant.

Each run writes no bytecode, starts with no hypothesis database and draws
with hypothesis seed 0, so a mutant's count does not depend on the runs
before it and repeats from one call to the next. The suite takes
about 30 s, so the whole list about 10 minutes on two cores.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "dgft"
STALENESS_TEST = "tests/test_mutants.py"

# (name, text, replacement). Each text occurs exactly once in src/dgft.
MUTANTS = [
    ("swap_levels",  # each chain listed tail first
     "chains += [[level[:, i] for level in reversed(levels)] for i in range(count)]",
     "chains += [[level[:, i] for level in levels] for i in range(count)]"),
    ("drop_level1_chains", "if count == 0:", "if count == 0 or s == 1:"),
    ("skip_zero_snap",
     "snap = zero & (lone & (loose == 0))[component]", "snap = zero & False"),
    ("nonnormal_unitary", "r < 2))", "r < 3))"),
    ("invert_by_transpose", "if u else _inverse(b)", "if u else b.transpose(0, 2, 1)"),
    ("no_obstruction_qr", "if chains:", "if False:"),
    ("no_shortfall_check", "if sigma[count - 1] <= 1e-10:", "if False:"),
    ("no_nullity_check",
     "if not counts or nullities[-1] != multiplicity or min(counts) < 0:",
     "if not counts or min(counts) < 0:"),
    ("pivot_argmin", "np.argmax(mag, axis=0)", "np.argmin(mag, axis=0)"),
    ("no_pair_column_test", "c = c[(v[:, c + 1] == v[:, c].conj()).all(axis=0)]", "c = c"),
    ("no_split_qr", "np.linalg.qr(vectors)[0]", "vectors"),
    ("no_chain_scale_back",
     "cols, rows = _ldexp(v[:, tail], -s), _ldexp(v_inv[tail], s[:, None])",
     "cols, rows = v[:, tail], v_inv[tail]"),
    ("shortest_chain_first",
     "np.lexsort((chains, component, -length))", "np.lexsort((chains, component, length))"),
    ("cluster_mean_not_snapped", "lam = 0j if abs(lam) <= tol * norm else lam", "lam = lam"),
]


def target(root: Path, text: str) -> Path:
    """The one module of ``root``'s ``src/dgft`` that holds ``text``, once."""
    hits = [(p, p.read_text(encoding="utf-8").count(text))
            for p in sorted((root / PACKAGE).glob("*.py"))]
    hits = [(p, count) for p, count in hits if count]
    if len(hits) != 1 or hits[0][1] != 1:
        raise LookupError(f"{text!r} occurs {sum(c for _, c in hits)} times in {PACKAGE}")
    return hits[0][0]


def _failures(tree: Path) -> tuple[int, str]:
    """(failed + errors, summary line) of one tier-1 run in ``tree``."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--hypothesis-seed=0", "--ignore", STALENESS_TEST],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    count = sum(int(k) for k in re.findall(r"(\d+) (?:failed|errors?)\b", summary))
    if proc.returncode and not count:  # interrupted, or no test ran: no verdict
        count = -1
    return count, summary


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dgft-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"))
        count, summary = _failures(tree)
        print(f"unmutated  {count}  {'ok' if count == 0 else 'FAILS'}  ({summary})", flush=True)
        if count:
            return 1
        survivors = 0
        for name, text, replacement in MUTANTS:
            path = target(tree, text)
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(text, replacement), encoding="utf-8")
            try:
                count, _ = _failures(tree)
            finally:
                path.write_text(source, encoding="utf-8")
            survivors += count <= 0
            print(f"{name}  {count}  {'killed' if count > 0 else 'SURVIVED'}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
