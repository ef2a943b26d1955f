"""Tier-1 gate: the shipped tree stays lint-clean, fast.

A determinism/schema/tracing regression anywhere in ``src/repro``
fails this test immediately — the lint layer's whole purpose.  The
wider tree (scripts, examples, benchmarks) is held to zero findings
too: an inline ``# repro-lint: disable=RPLxxx -- reason`` pragma on
the offending line is the one way to excuse one, and a stale pragma is
itself a finding (RPL310).
"""

from __future__ import annotations

import time

from repro.devtools.lint import run_lint

from tests.devtools.conftest import REPO_ROOT


def render(findings) -> str:
    return "\n".join(f.render() for f in findings)


def test_src_repro_is_lint_clean_and_fast():
    start = time.perf_counter()
    findings, n_files = run_lint(
        [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
    )
    elapsed = time.perf_counter() - start
    assert findings == [], "\n" + render(findings)
    assert n_files >= 80, "lint walked suspiciously few files"
    assert elapsed < 5.0, f"lint took {elapsed:.2f}s (budget 5s)"


def test_full_tree_is_lint_clean():
    findings, _ = run_lint(
        [
            REPO_ROOT / "src" / "repro",
            REPO_ROOT / "scripts",
            REPO_ROOT / "examples",
            REPO_ROOT / "benchmarks",
        ],
        root=REPO_ROOT,
    )
    assert findings == [], "\n" + render(findings)


def test_full_tree_lint_fits_the_ci_budget():
    """check.sh runs the full tree with ``--max-seconds 10``; catch a
    graph-engine slowdown here before it breaks CI."""
    start = time.perf_counter()
    _, n_files = run_lint(
        [
            REPO_ROOT / "src" / "repro",
            REPO_ROOT / "scripts",
            REPO_ROOT / "examples",
            REPO_ROOT / "benchmarks",
        ],
        root=REPO_ROOT,
    )
    elapsed = time.perf_counter() - start
    assert n_files >= 100, "lint walked suspiciously few files"
    assert elapsed < 10.0, (
        f"full-tree lint took {elapsed:.2f}s (CI budget 10s)"
    )
