"""buffer-ownership: never mutate a buffer received from the comm layer.

The zero-copy exchange of PR 1 made received buffers *shared*: the thread
backend passes arrays by reference and the process backend returns
read-only views into shared memory (the contract documented on
:meth:`repro.distributed.comm.Communicator.alltoall`).  An in-place edit
of a received entry therefore corrupts the sender's data (thread backend)
or raises ``ValueError: assignment destination is read-only`` only on the
one backend that happens to flag it (process backend) -- a latent,
backend-dependent bug.

This rule taints names bound to ``recv``/``alltoall``/``allgather``/
``gather``/``bcast``/``alltoall_finish`` results (including names bound by
unpacking, subscripting the result, or iterating over it) and flags:

* augmented assignment (``buf += x``, ``buf[0] *= 2``);
* subscript assignment (``buf[i] = x``) and subscript deletion;
* calls to in-place mutator methods (``buf.sort()``, ``buf.fill(0)``,
  ``incoming[0].resize(...)``, ``received.append(x)`` ...).

Rebinding a tainted name to anything else (``buf = buf.copy()``) clears
its taint; aliasing (``alias = buf``) propagates it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, LintContext, Rule, register
from repro.lint.ops import (
    MUTATOR_METHODS as _MUTATORS,
    RECEIVING_OPS,
    base_name,
    call_method,
    target_names,
)

__all__ = ["BufferOwnershipRule"]


def _recv_op(value: ast.expr) -> str | None:
    """If ``value`` is (a subscript of) a receiving comm call, its op name."""
    while isinstance(value, (ast.Subscript, ast.Starred)):
        value = value.value
    if isinstance(value, ast.Call):
        op = call_method(value)
        if op in RECEIVING_OPS:
            return op
    return None


@register
class BufferOwnershipRule(Rule):
    name = "buffer-ownership"
    severity = "error"
    description = (
        "buffers received from recv/alltoall/allgather may be shared "
        "read-only views; mutate only private copies"
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        self._ctx = ctx
        self._out: list[Finding] = []
        self._scan_scope(tree.body)
        return self._out

    # ---- scope walking --------------------------------------------------
    def _scan_scope(self, stmts: list[ast.stmt]) -> None:
        """One function (or module) body: fresh taint environment."""
        self._scan_block(stmts, {})

    def _scan_block(
        self, stmts: list[ast.stmt], tainted: dict[str, tuple[str, int]]
    ) -> None:
        for st in stmts:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self._scan_scope(st.body)
            elif isinstance(st, ast.Assign):
                self._handle_assign(st, tainted)
            elif isinstance(st, ast.AnnAssign) and st.value is not None:
                self._handle_assign_one(st.target, st.value, st, tainted)
            elif isinstance(st, ast.AugAssign):
                name = base_name(st.target)
                if name in tainted:
                    self._emit(st, name, tainted[name], "augmented assignment to")
            elif isinstance(st, ast.Delete):
                for tgt in st.targets:
                    if isinstance(tgt, ast.Subscript):
                        name = base_name(tgt)
                        if name in tainted:
                            self._emit(st, name, tainted[name], "deletion from")
            elif isinstance(st, (ast.For, ast.AsyncFor)):
                self._check_mutator_calls(st.iter, tainted)
                if self._iter_is_received(st.iter, tainted):
                    op_line = self._iter_origin(st.iter, tainted)
                    for name in target_names(st.target):
                        tainted[name] = op_line
                self._scan_block(st.body, tainted)
                self._scan_block(st.orelse, tainted)
            elif isinstance(st, ast.If):
                self._check_mutator_calls(st.test, tainted)
                self._scan_block(st.body, tainted)
                self._scan_block(st.orelse, tainted)
            elif isinstance(st, ast.While):
                self._check_mutator_calls(st.test, tainted)
                self._scan_block(st.body, tainted)
                self._scan_block(st.orelse, tainted)
            elif isinstance(st, (ast.With, ast.AsyncWith)):
                self._scan_block(st.body, tainted)
            elif isinstance(st, ast.Try):
                self._scan_block(st.body, tainted)
                for handler in st.handlers:
                    self._scan_block(handler.body, tainted)
                self._scan_block(st.orelse, tainted)
                self._scan_block(st.finalbody, tainted)
            else:
                self._check_mutator_calls(st, tainted)

    # ---- assignment handling --------------------------------------------
    def _handle_assign(
        self, st: ast.Assign, tainted: dict[str, tuple[str, int]]
    ) -> None:
        for target in st.targets:
            self._handle_assign_one(target, st.value, st, tainted)

    def _handle_assign_one(
        self,
        target: ast.expr,
        value: ast.expr,
        st: ast.stmt,
        tainted: dict[str, tuple[str, int]],
    ) -> None:
        self._check_mutator_calls(value, tainted)
        op = _recv_op(value)
        alias = (
            tainted.get(value.id) if isinstance(value, ast.Name) else None
        )
        if isinstance(target, ast.Subscript):
            name = base_name(target)
            if name in tainted:
                self._emit(st, name, tainted[name], "item assignment into")
            return
        names = target_names(target)
        for name in names:
            if op is not None:
                tainted[name] = (op, st.lineno)
            elif alias is not None:
                tainted[name] = alias
            else:
                tainted.pop(name, None)

    # ---- mutation detection ---------------------------------------------
    def _check_mutator_calls(
        self, node: ast.AST, tainted: dict[str, tuple[str, int]]
    ) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            method = call_method(call)
            if method not in _MUTATORS:
                continue
            receiver = call.func.value  # type: ignore[union-attr]
            direct = _recv_op(receiver)
            if direct is not None:
                # comm.recv(0).sort(): mutating the result without even
                # binding it
                self._emit(
                    call,
                    f"{direct}(...)",
                    (direct, receiver.lineno),
                    f"in-place '{method}()' on",
                )
                continue
            name = base_name(receiver)
            if name in tainted:
                self._emit(
                    call, name, tainted[name], f"in-place '{method}()' on"
                )

    def _iter_is_received(
        self, iter_expr: ast.expr, tainted: dict[str, tuple[str, int]]
    ) -> bool:
        if _recv_op(iter_expr) is not None:
            return True
        for sub in ast.walk(iter_expr):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return True
        return False

    def _iter_origin(
        self, iter_expr: ast.expr, tainted: dict[str, tuple[str, int]]
    ) -> tuple[str, int]:
        op = _recv_op(iter_expr)
        if op is not None:
            return (op, iter_expr.lineno)
        for sub in ast.walk(iter_expr):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return tainted[sub.id]
        return ("recv", iter_expr.lineno)

    def _emit(
        self, node: ast.AST, name: str, origin: tuple[str, int], action: str
    ) -> None:
        op, line = origin
        self._out.append(
            self._ctx.finding(
                self,
                node,
                f"{action} '{name}', which holds a buffer received from "
                f"{op}() at line {line}; received buffers may be shared "
                f"read-only views -- copy before mutating "
                f"(Communicator.alltoall contract)",
            )
        )
