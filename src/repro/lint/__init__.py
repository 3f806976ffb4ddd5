"""SPMD correctness static analysis for the repro codebase.

The distributed generator is an SPMD program whose correctness rests on
invariants the Python runtime cannot enforce:

* every rank must execute the **same collective sequence** -- a
  ``barrier`` reachable only under ``if comm.rank == 0`` deadlocks the
  world (Section III's asynchronous generation);
* every nonblocking request must be **completed** on every path;
* buffers received from ``recv``/``alltoall``/``allgather`` may be
  **shared, read-only views** and must never be mutated in place (the
  contract of :meth:`repro.distributed.comm.Communicator.alltoall`);
* every distributed wait derives from **one timeout knob**, and
  distributed code reads time only from the **injected clocks**.

This package makes those invariants machine-checked: an AST-based rule
framework (:mod:`repro.lint.core`) with per-file rule families
(:mod:`repro.lint.rules`), one communication analysis -- a
communication IR per module (:mod:`repro.lint.ir`), a call graph with
per-function comm summaries (:mod:`repro.lint.callgraph`), and the
protocol rules that interpret it, same-function and interprocedural
alike (:mod:`repro.lint.rules.protocol`) -- one driver
(:mod:`repro.lint.engine`), per-line ``# repro-lint: disable=RULE``
suppressions (the one way to accept a finding), and human/JSON/SARIF
reporters behind ``python -m repro.lint`` (:mod:`repro.lint.cli`).

The dynamic companion -- the runtime collective-order sentinel that turns
a would-be deadlock into a diagnostic naming both divergent call sites --
lives in :mod:`repro.distributed.checked`.
"""

from repro.lint.core import (
    Finding,
    LintContext,
    ProgramRule,
    Rule,
    all_program_rules,
    all_rules,
    known_rule_names,
    register,
    register_program,
    resolve_selection,
)
from repro.lint.engine import analyze_paths, lint_source
from repro.lint.rules import BufferOwnershipRule, CollectiveSymmetryRule

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "ProgramRule",
    "all_rules",
    "all_program_rules",
    "known_rule_names",
    "resolve_selection",
    "register",
    "register_program",
    "lint_source",
    "analyze_paths",
    "CollectiveSymmetryRule",
    "BufferOwnershipRule",
]
