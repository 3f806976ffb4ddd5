"""collective-symmetry: every rank must run the same collective sequence.

The SPMD deadlock class this catches::

    if comm.rank == 0:
        comm.barrier()          # rank 0 waits forever: peers never arrive

and its sneakier sibling, the rank-guarded early exit::

    if comm.rank == 0:
        return                  # rank 0 leaves the rank program...
    comm.allreduce(x, op)       # ...so this collective hangs on 1..R-1

Detection is lexical and conservative, and is read straight off the
communication IR: :mod:`repro.lint.ir` stamps every comm-op site with
its rank-guard context, so a collective is flagged when that context is
(a) ``"guarded"`` -- an enclosing ``if``/``while`` test mentions a rank
identity -- or (b) ``"divergent"`` -- it follows a rank-guarded statement
that exits the enclosing block asymmetrically (one branch
returns/raises/breaks, the other does not).  A *call* in such a context
that reaches a collective down its call chain is not flagged: the
collective-order sentinel (:mod:`repro.distributed.checked`) names both
call sites when it runs.  Point-to-point ``send``/``recv`` are
intentionally exempt -- rank-dependent p2p is the normal SPMD idiom (and
is how the collectives themselves are implemented in
:mod:`repro.distributed.comm`).
"""

from __future__ import annotations

from repro.lint.callgraph import Program, flatten
from repro.lint.core import ProgramRule, register_program
from repro.lint.ir import OpNode

__all__ = ["CollectiveSymmetryRule"]


@register_program
class CollectiveSymmetryRule(ProgramRule):
    name = "collective-symmetry"
    severity = "error"
    description = (
        "collective calls reachable only under rank-dependent control "
        "flow deadlock the ranks that skip them"
    )

    def check(self, program: Program):
        for mod, fn in program.iter_functions():
            for node in flatten(fn.body):
                if (
                    not isinstance(node, OpNode)
                    or node.kind != "collective"
                    or node.guard == "all"
                ):
                    continue
                if node.guard == "divergent":
                    where = (
                        f"follows a rank-guarded early exit at line "
                        f"{node.guard_line}"
                    )
                else:
                    where = (
                        f"is guarded by a rank-dependent test at line "
                        f"{node.guard_line}"
                    )
                yield self.finding(
                    mod.path, node,
                    f"collective '{node.op}' {where}; every rank must "
                    f"execute the same collective sequence or the skipped "
                    f"ranks deadlock",
                )
