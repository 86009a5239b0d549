"""reprolint: static + runtime checks of user job functions.

The paper's relaxation spectrum — eager-synchronous through fully
asynchronous — is only correct when the user's map/combine/reduce
functions are pure, deterministic, order-insensitive, and safe to ship
to worker processes.  This developer tool checks those properties; the
``repro`` library never imports it.

* :mod:`~tools.reprolint.findings` — the ``RPR0xx`` rule catalog
  (code, severity, fix hint) and the :class:`Finding` record.
* :mod:`~tools.reprolint.rules` — AST rules over one function.
* :mod:`~tools.reprolint.linter` — linting live objects (``Job``,
  specs, backends) into a :class:`LintReport`.
* :mod:`~tools.reprolint.discovery` — static lint over files,
  directories, modules, and bundled app names (the CLI path).
* :mod:`~tools.reprolint.probe` — runtime property probes
  (:func:`probe_commutative`): random permutations and regroupings of
  sampled values must leave a combiner's result unchanged.
* :mod:`~tools.reprolint.cli` — ``python -m tools.reprolint [--strict]
  [--format json] TARGET...``; exit 0 clean, 1 findings, 2 usage error.

See ``docs/lint_rules.md`` for the catalog with bad/good examples.
"""

from tools.reprolint.discovery import lint_path, lint_source, lint_targets
from tools.reprolint.findings import Finding, RULES, Rule, Severity
from tools.reprolint.linter import (
    LintReport,
    lint_backend,
    lint_callable,
    lint_job,
    lint_spec,
)
from tools.reprolint.probe import (
    ProbeResult,
    probe_commutative,
    probe_permutation_invariant,
    results_equal,
)

__all__ = [
    "RULES",
    "Finding",
    "LintReport",
    "ProbeResult",
    "Rule",
    "Severity",
    "lint_backend",
    "lint_callable",
    "lint_job",
    "lint_path",
    "lint_source",
    "lint_spec",
    "lint_targets",
    "probe_commutative",
    "probe_permutation_invariant",
    "results_equal",
]
