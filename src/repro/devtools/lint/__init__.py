"""repro-lint: AST + dataflow invariant checking for the reproduction.

The headline results are statements about a *deterministic* pipeline
with a *fixed* 58-feature layout and a *stable* observability
taxonomy; this package enforces those contracts mechanically, with
stdlib ``ast`` only (zero dependencies, like ``repro.obs``).  Since
v2 the engine is project-level: a symbol table + import/call graph
(:mod:`.symbols`) lets rules follow callables and values across
module boundaries.

Rule families (full catalog: ``python -m repro.devtools.lint
--list-rules``; invariants documented in DESIGN.md §7 and §12):

* ``RPL0xx`` determinism — no stdlib ``random``, no wall-clock reads,
  no unseeded/global NumPy RNG, seeds threaded not hard-coded; plus
  the taint-based extension: no entropy-derived or
  constant-masquerading seeds (RPL007), no sibling RNGs sharing one
  seed expression (RPL008), no order-observable set iteration
  (RPL009);
* ``RPL1xx`` schema — the 16/16/8/18 = 58 layout holds statically and
  every feature-name literal resolves against it;
* ``RPL2xx`` observability — span/metric labels fit the dotted
  taxonomy, no instrument-kind conflicts, experiment mutators run
  inside ``experiment.*`` spans, artifacts go through ``RunReport``,
  ledger lines under ``results/ledger/`` go through ``RunLedger``;
* ``RPL3xx`` hygiene — mutable defaults, silently-swallowed broad
  excepts, ``print`` in library code; ``RPL31x`` audit the inline
  ``# repro-lint: disable=`` pragmas (stale, unknown-id, no reason),
  which are the one way to suppress a finding;
* ``RPL4xx`` parallel-safety — callables shipped to pool workers must
  be module-level (RPL401), must not mutate module globals (RPL402),
  and must not emit events the obsmerge protocol cannot ship back
  (RPL403);
* ``RPL5xx`` performance — hot engine/extractor modules must not
  iterate the account store object-by-object (RPL501); the columnar
  data plane exists so population-scale sweeps stay vectorized.

Programmatic use mirrors the CLI:

.. code-block:: python

    from repro.devtools.lint import lint_paths, run_lint
    findings, n_files = run_lint(["src/repro"])
    result = lint_paths(["src/repro"])  # + pragma bookkeeping
"""

from __future__ import annotations

from .base import DETERMINISTIC_PACKAGES, FileContext, FileRule, ProjectRule, Rule
from .engine import (
    ALL_RULES,
    KNOWN_RULE_IDS,
    LintResult,
    RuleSelectionError,
    iter_python_files,
    lint_paths,
    run_lint,
    select_rules,
    validate_rule_ids,
)
from .findings import Finding
from .formats import to_sarif
from .observability_rules import NAMESPACES, TAXONOMY_RE
from .suppressions import Pragma, apply_pragmas, collect_pragmas
from .symbols import (
    GraphRule,
    ModuleTable,
    ProjectIndex,
    Resolution,
    SymbolDef,
    module_name_for,
)

__all__ = [
    "ALL_RULES",
    "DETERMINISTIC_PACKAGES",
    "FileContext",
    "FileRule",
    "Finding",
    "GraphRule",
    "KNOWN_RULE_IDS",
    "LintResult",
    "ModuleTable",
    "NAMESPACES",
    "Pragma",
    "ProjectIndex",
    "ProjectRule",
    "Resolution",
    "Rule",
    "RuleSelectionError",
    "SymbolDef",
    "TAXONOMY_RE",
    "apply_pragmas",
    "collect_pragmas",
    "iter_python_files",
    "lint_paths",
    "module_name_for",
    "run_lint",
    "select_rules",
    "to_sarif",
    "validate_rule_ids",
]
