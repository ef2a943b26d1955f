"""Recompute every committed golden digest and name the first that moved.

Imports each ``tests/golden/test_*.py`` module, calls its
``compute(case)`` for every case of its ``GOLDEN`` table, and prints
the fresh table, ready to paste over the committed one.  Modules run in
file order; cases and artifacts in table order, which for the world
digests is pipeline order (stream, hour stats, profiles, suspended,
kinds, captures, exposure), so the first difference points at the
earliest stage that changed.  Exits 0 when every digest matches and 1
otherwise:

    PYTHONPATH=src python scripts/regen_golden.py

A change that alters a seeded stream on purpose re-records its digests
with this script; the reported differences are what review checks.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

GOLDEN_DIR = ROOT / "tests" / "golden"


def artifacts(value: dict) -> dict[str, str]:
    """One case's digests by artifact name (list entries by index)."""
    flat: dict[str, str] = {}
    for name, digest in value.items():
        if isinstance(digest, list):
            flat.update((f"{name}[{i}]", d) for i, d in enumerate(digest))
        else:
            flat[name] = digest
    return flat


def first_difference(committed: dict, fresh: dict) -> str | None:
    """The first artifact whose digest differs, or None if all match."""
    old, new = artifacts(committed), artifacts(fresh)
    for name in [*old, *(name for name in new if name not in old)]:
        if old.get(name) != new.get(name):
            return name
    return None


def main() -> int:
    differences: list[str] = []
    for path in sorted(GOLDEN_DIR.glob("test_*.py")):
        module = importlib.import_module(f"tests.golden.{path.stem}")
        fresh = {case: module.compute(case) for case in module.GOLDEN}
        label = path.relative_to(ROOT).as_posix()
        print(f"# {label}\nGOLDEN = {json.dumps(fresh, indent=4)}")
        for case, committed in module.GOLDEN.items():
            name = first_difference(committed, fresh[case])
            if name is not None:
                differences.append(f"{label}: {case}: {name}")
    for line in differences:
        print(f"differs: {line}", file=sys.stderr)
    if differences:
        print(
            f"first difference: {differences[0]} "
            f"({len(differences)} case(s) differ)",
            file=sys.stderr,
        )
        return 1
    print("every golden digest matches", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
