"""Communication IR: per-module comm-op extraction for the comm rules.

Every communication rule -- same-function or spanning a call chain --
reads one representation.  This module extracts, per file, a small
*communication IR*: for every function, an abstract statement tree
recording only the events the protocol checker cares about:

* comm-op call sites (collectives, nonblocking starts, waits/finishes)
  and where their result goes (bound to a local, returned, stored on
  ``self``, discarded);
* calls to other functions (with the root names of positional
  arguments), so :mod:`repro.lint.callgraph` can stitch summaries
  together;
* name binding events that matter for request/buffer tracking (aliases,
  rebinding, ``x = None``, names bound to a received buffer) and in-place
  mutations;
* control flow (if/loop/try, returns and raises) with each node's
  *rank-guard context* -- ``"all"`` (every rank executes this),
  ``"guarded"`` (under a rank-dependent test), or ``"divergent"``
  (after a rank-guarded asymmetric early exit).

Known abstractions (see DESIGN.md "Whole-program protocol analysis" for
the soundness discussion): starts nested in lambdas/comprehensions are
recorded as escaping rather than tracked, keyword arguments do not
propagate buffers, and attribute-stored requests are matched by
attribute name program-wide.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.core import LintContext
from repro.lint.ops import (
    COLLECTIVE_OPS,
    FINISH_OPS,
    INFLIGHT_OPS,
    MUTATOR_METHODS,
    RECEIVING_OPS,
    attr_chain,
    base_name,
    call_method,
    contains_rank_ref,
    target_names,
)

__all__ = [
    "OpNode",
    "CallNode",
    "AliasNode",
    "BindNoneNode",
    "RebindNode",
    "MutateNode",
    "ReturnNode",
    "ExitNode",
    "IfNode",
    "LoopNode",
    "TryNode",
    "FuncIR",
    "ModuleIR",
    "extract_module",
    "module_name_for",
]

# --------------------------------------------------------------------- #
# nodes
# --------------------------------------------------------------------- #
@dataclass
class _Node:
    """Common position/context payload of every IR node."""

    line: int = 0
    col: int = 0
    snippet: str = ""
    context: str = ""
    guard: str = "all"  # or "guarded" / "divergent", see module docstring
    guard_line: int = 0


@dataclass
class OpNode(_Node):
    """A comm-op call site.

    ``kind`` is ``"collective"`` / ``"start"`` / ``"finish"`` / ``"recv"``;
    ``op`` the method name.  For starts, ``binds`` holds the names the
    returned request is bound to (possibly dotted ``self.X``), and
    ``escape`` how the request
    leaves if unbound (``"return"``, ``"nested"``, or ``None`` for a
    plain discarded expression).  For finishes, ``request`` names the
    completed request (dotted for attributes).

    A ``recv`` node follows the statement that binds ``binds`` to a
    received buffer: the result of the receiving op ``op``
    (``ops.RECEIVING_OPS``), or -- with ``op`` empty -- an item of a loop
    over an expression mentioning ``buffers``, received if one of them
    is.  A mutator called on the receiving call itself binds the
    pseudo-name ``"op(...)"``.  Collective and request analyses skip it.
    """

    kind: str = ""
    op: str = ""
    buffers: tuple = ()
    binds: tuple = ()
    escape: str | None = None
    request: str | None = None


@dataclass
class CallNode(_Node):
    """A call to a (potentially program-local) plain function or method."""

    callee: tuple = ()
    argroots: tuple = ()  # per positional argument: tuple of root names
    binds: tuple = ()
    escape: str | None = None


@dataclass
class AliasNode(_Node):
    target: str = ""
    source: str = ""


@dataclass
class BindNoneNode(_Node):
    targets: tuple = ()


@dataclass
class RebindNode(_Node):
    targets: tuple = ()


@dataclass
class MutateNode(_Node):
    name: str = ""
    how: str = ""


@dataclass
class ReturnNode(_Node):
    value_root: str | None = None


@dataclass
class ExitNode(_Node):
    """raise/break/continue: the path ends without a leak obligation (a
    ``break`` resumes after its loop)."""

    brk: bool = False


@dataclass
class IfNode(_Node):
    rank_test: bool = False
    #: (name, sense) when the test refines a single name against None /
    #: truthiness: sense True means the *then* branch sees a non-None
    #: value.  ``None`` for any other test.
    refine: tuple | None = None
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


@dataclass
class LoopNode(_Node):
    body: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


@dataclass
class TryNode(_Node):
    body: list = field(default_factory=list)
    handlers: list = field(default_factory=list)  # list of node lists
    orelse: list = field(default_factory=list)
    final: list = field(default_factory=list)


# --------------------------------------------------------------------- #
# functions and modules
# --------------------------------------------------------------------- #
@dataclass
class FuncIR:
    """One function's extracted communication behaviour."""

    qualname: str
    params: tuple = ()
    body: list = field(default_factory=list)
    cls: str | None = None  # enclosing class, for self.method resolution
    local_defs: dict = field(default_factory=dict)  # bare name -> qualname
    line: int = 0


@dataclass
class ModuleIR:
    """Everything the program analysis needs to know about one file."""

    path: str
    module: str
    functions: dict = field(default_factory=dict)  # qualname -> FuncIR
    from_imports: dict = field(default_factory=dict)  # local -> (module, name)
    alias_imports: dict = field(default_factory=dict)  # alias -> module
    plain_imports: tuple = ()  # dotted names bound by plain `import a.b.c`


def module_name_for(path: str | Path) -> str:
    """Dotted module name a file is importable as.

    Files under a ``src`` directory get their full package path
    (``src/repro/distributed/shuffle.py`` -> ``repro.distributed.shuffle``);
    anything else resolves to its stem (benchmarks, examples, and test
    fixtures are imported as top-level modules).
    """
    parts = list(Path(path).parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
        parts[-1] = Path(parts[-1]).stem
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    return Path(path).stem


# --------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------- #
def _roots(expr: ast.expr) -> tuple:
    """Root names of the object(s) an expression passes along.

    Lists/tuples contribute every element's root -- ``[a, b]`` names the
    buffers of an alltoall payload.
    """
    if isinstance(expr, (ast.List, ast.Tuple)):
        names: list[str] = []
        for elt in expr.elts:
            names.extend(_roots(elt))
        return tuple(names)
    name = base_name(expr)
    return (name,) if name is not None else ()


def _dotted(expr: ast.expr) -> str | None:
    """``self._inner`` -> ``"self._inner"``; None for non-dotted forms."""
    chain = attr_chain(expr)
    return ".".join(chain) if chain else None


def _refinement(test: ast.expr) -> tuple | None:
    """(name, sense) for ``x is (not) None`` / bare-``x`` truthiness tests."""
    if isinstance(test, ast.Name):
        return (test.id, True)
    if (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and isinstance(test.operand, ast.Name)
    ):
        return (test.operand.id, False)
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.IsNot):
            return (test.left.id, True)
        if isinstance(test.ops[0], ast.Is):
            return (test.left.id, False)
    return None


def _received_op(expr: ast.expr) -> str | None:
    """The receiving op whose result ``expr`` is (or subscripts), if any."""
    while isinstance(expr, (ast.Subscript, ast.Starred)):
        expr = expr.value
    if isinstance(expr, ast.Call) and call_method(expr) in RECEIVING_OPS:
        return call_method(expr)
    return None


_EXITS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def _block_exits(stmts: list[ast.stmt]) -> bool:
    return any(isinstance(s, _EXITS) for s in stmts)


class _Extractor:
    """Walks one module's AST into a :class:`ModuleIR`."""

    def __init__(self, tree: ast.Module, ctx: LintContext) -> None:
        self.tree = tree
        self.ctx = ctx
        self.mod = ModuleIR(path=ctx.path, module=module_name_for(ctx.path))

    def _place(self, node: _Node, at: ast.AST, guard) -> _Node:
        node.line = getattr(at, "lineno", 0)
        node.col = getattr(at, "col_offset", 0)
        node.snippet = self.ctx.snippet(node.line)
        node.context = self.ctx.context_of(node.line)
        if guard is not None:
            node.guard, node.guard_line = guard
        return node

    # -- module walk ------------------------------------------------------
    def run(self) -> ModuleIR:
        self._imports(self.tree)
        module_fn = FuncIR(qualname="<module>")
        self._extract_defs(self.tree.body, prefix="", cls=None, into=module_fn)
        module_fn.body = self._block(self.tree.body, None)
        self.mod.functions["<module>"] = module_fn
        return self.mod

    def _imports(self, tree: ast.Module) -> None:
        plain: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.mod.alias_imports[alias.asname] = alias.name
                    else:
                        plain.append(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.mod.from_imports[local] = (node.module, alias.name)
        self.mod.plain_imports = tuple(plain)

    def _extract_defs(
        self, stmts: list[ast.stmt], prefix: str, cls: str | None, into: FuncIR
    ) -> None:
        """Register every function/method defined in a statement list."""
        for st in stmts:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + st.name
                into.local_defs[st.name] = qual
                self._function(st, qual, cls)
            elif isinstance(st, ast.ClassDef):
                for sub in st.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{st.name}.{sub.name}"
                        self._function(sub, qual, st.name)
            elif isinstance(st, (ast.If, ast.Try, ast.While, ast.For, ast.With)):
                # defs under module-level conditionals (TYPE_CHECKING etc.)
                for block in ("body", "orelse", "finalbody"):
                    self._extract_defs(
                        getattr(st, block, []) or [], prefix, cls, into
                    )
                for handler in getattr(st, "handlers", []) or []:
                    self._extract_defs(handler.body, prefix, cls, into)

    def _function(
        self, st: ast.FunctionDef, qualname: str, cls: str | None
    ) -> None:
        fn = FuncIR(
            qualname=qualname,
            params=tuple(
                a.arg
                for a in (
                    *st.args.posonlyargs, *st.args.args,
                )
            ),
            cls=cls,
            line=st.lineno,
        )
        self._extract_defs(st.body, prefix=f"{qualname}.<locals>.", cls=cls, into=fn)
        fn.body = self._block(st.body, None)
        self.mod.functions[qualname] = fn

    # -- statement walk ---------------------------------------------------
    def _block(self, stmts: list[ast.stmt], guard) -> list:
        out: list = []
        for st in stmts:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # registered by _extract_defs; fresh scope
            elif isinstance(st, ast.Assign):
                self._assign(out, st, st.targets, st.value, guard)
            elif isinstance(st, ast.AnnAssign):
                if st.value is not None:
                    self._assign(out, st, [st.target], st.value, guard)
            elif isinstance(st, ast.AugAssign):
                self._expr(out, st.value, guard)
                name = base_name(st.target)
                if name:
                    out.append(
                        self._place(
                            MutateNode(name=name, how="augmented assignment to"),
                            st, guard,
                        )
                    )
            elif isinstance(st, ast.Delete):
                for tgt in st.targets:
                    if isinstance(tgt, ast.Subscript):
                        name = base_name(tgt)
                        if name:
                            out.append(
                                self._place(
                                    MutateNode(name=name, how="deletion from"),
                                    st, guard,
                                )
                            )
            elif isinstance(st, ast.Return):
                if st.value is not None and self._is_tracked_call(st.value):
                    self._emit_call(out, st.value, guard, binds=(), escape="return")
                    out.append(self._place(ReturnNode(), st, guard))
                else:
                    root = None
                    if st.value is not None:
                        self._expr(out, st.value, guard)
                        if isinstance(st.value, ast.Name):
                            root = st.value.id
                    out.append(
                        self._place(ReturnNode(value_root=root), st, guard)
                    )
            elif isinstance(st, (ast.Raise, ast.Break, ast.Continue)):
                if isinstance(st, ast.Raise) and st.exc is not None:
                    self._expr(out, st.exc, guard)
                node = ExitNode(brk=isinstance(st, ast.Break))
                out.append(self._place(node, st, guard))
            elif isinstance(st, ast.If):
                guard = self._if(out, st, guard)
            elif isinstance(st, ast.While):
                self._expr(out, st.test, guard)
                rank_test = contains_rank_ref(st.test)
                inner = ("guarded", st.lineno) if rank_test else guard
                node = LoopNode(
                    body=self._block(st.body, inner),
                    orelse=self._block(st.orelse, inner),
                )
                out.append(self._place(node, st, guard))
            elif isinstance(st, (ast.For, ast.AsyncFor)):
                self._expr(out, st.iter, guard)
                body: list = []
                targets = tuple(target_names(st.target))
                if targets:
                    rebind = self._place(RebindNode(targets=targets), st, guard)
                    body.append(rebind)
                    sources = tuple(
                        n.id for n in ast.walk(st.iter) if isinstance(n, ast.Name)
                    )
                    self._recv(body, st.iter, targets, guard, sources)
                body.extend(self._block(st.body, guard))
                node = LoopNode(body=body, orelse=self._block(st.orelse, guard))
                out.append(self._place(node, st, guard))
            elif isinstance(st, (ast.With, ast.AsyncWith)):
                for item in st.items:
                    self._expr(out, item.context_expr, guard)
                    if item.optional_vars is not None:
                        names = tuple(target_names(item.optional_vars))
                        if names:
                            out.append(
                                self._place(
                                    RebindNode(targets=names), st, guard
                                )
                            )
                out.extend(self._block(st.body, guard))
            elif isinstance(st, ast.Try):
                node = TryNode(
                    body=self._block(st.body, guard),
                    handlers=[
                        self._block(h.body, guard) for h in st.handlers
                    ],
                    orelse=self._block(st.orelse, guard),
                    final=self._block(st.finalbody, guard),
                )
                out.append(self._place(node, st, guard))
            elif isinstance(st, ast.Expr):
                if self._is_tracked_call(st.value):
                    self._emit_call(out, st.value, guard, binds=(), escape=None)
                else:
                    self._expr(out, st.value, guard)
            else:
                self._expr(out, st, guard)
        return out

    def _if(self, out: list, st: ast.If, guard):
        """Emit an IfNode; returns the (possibly escalated) guard for the
        statements *after* it -- the rank-guarded asymmetric early exit."""
        self._expr(out, st.test, guard)
        rank_test = contains_rank_ref(st.test)
        inner = ("guarded", st.lineno) if rank_test else guard
        node = IfNode(
            rank_test=rank_test,
            refine=_refinement(st.test),
            then=self._block(st.body, inner),
            orelse=self._block(st.orelse, inner),
        )
        out.append(self._place(node, st, guard))
        if rank_test and _block_exits(st.body) != _block_exits(st.orelse):
            return guard or ("divergent", st.lineno)
        return guard

    # -- assignment -------------------------------------------------------
    def _assign(
        self,
        out: list,
        st: ast.stmt,
        targets: list[ast.expr],
        value: ast.expr,
        guard,
    ) -> None:
        plain: list[str] = []
        attrs: list[str] = []
        for target in targets:
            if isinstance(target, ast.Subscript):
                name = base_name(target)
                if name:
                    out.append(
                        self._place(
                            MutateNode(name=name, how="item assignment into"),
                            st, guard,
                        )
                    )
            elif isinstance(target, ast.Attribute):
                dotted = _dotted(target)
                if dotted:
                    attrs.append(dotted)
            else:
                plain.extend(target_names(target))
        binds = tuple(plain) + tuple(attrs)
        if self._is_tracked_call(value):
            self._emit_call(out, value, guard, binds=binds, escape=None)
        else:
            self._expr(out, value, guard)
            if not binds:
                return
            if isinstance(value, ast.Name):
                for t in plain:
                    out.append(
                        self._place(
                            AliasNode(target=t, source=value.id), st, guard
                        )
                    )
            elif isinstance(value, ast.Constant) and value.value is None:
                out.append(self._place(BindNoneNode(targets=binds), st, guard))
            else:
                out.append(self._place(RebindNode(targets=binds), st, guard))
        if plain:
            self._recv(out, value, tuple(plain), guard, at=st)

    def _recv(
        self, out: list, value: ast.expr, targets: tuple, guard,
        sources: tuple = (), at: ast.AST | None = None,
    ) -> None:
        """Emit the ``recv`` node of names bound from ``value``, if it is
        (an item of) a received buffer -- see :class:`OpNode`."""
        op = _received_op(value)
        if op is None and not sources:
            return
        node = OpNode(kind="recv", op=op or "", binds=targets, buffers=sources)
        out.append(self._place(node, at or value, guard))

    # -- expression scan --------------------------------------------------
    def _is_tracked_call(self, expr: ast.expr) -> bool:
        """Is ``expr`` itself a call we model (comm op or plain call)?"""
        if not isinstance(expr, ast.Call):
            return False
        method = call_method(expr)
        if method in COLLECTIVE_OPS | INFLIGHT_OPS | FINISH_OPS:
            return True
        return self._callee_chain(expr) is not None

    def _callee_chain(self, call: ast.Call) -> tuple | None:
        """Dotted chain of a plain (non-comm-op) callee, if trackable."""
        chain = attr_chain(call.func)
        if chain is None:
            return None
        if chain[-1] in COLLECTIVE_OPS | INFLIGHT_OPS | FINISH_OPS | MUTATOR_METHODS:
            return None
        return chain

    def _emit_call(
        self,
        out: list,
        call: ast.Call,
        guard,
        binds: tuple,
        escape: str | None,
    ) -> None:
        """Emit the node for a *directly consumed* call expression."""
        for arg in call.args:
            self._expr(out, arg, guard)
        for kw in call.keywords:
            self._expr(out, kw.value, guard)
        method = call_method(call)
        if method in COLLECTIVE_OPS:
            out.append(
                self._place(
                    OpNode(kind="collective", op=method), call, guard
                )
            )
            return
        if method in INFLIGHT_OPS:
            out.append(
                self._place(
                    OpNode(kind="start", op=method, binds=binds, escape=escape),
                    call, guard,
                )
            )
            return
        if method in FINISH_OPS:
            receiver = call.func.value  # type: ignore[union-attr]
            if method == "wait":
                if isinstance(receiver, ast.Call):
                    # comm.alltoall_start(x).wait(): starts and completes
                    # inline -- nothing is ever in flight afterwards.
                    return
                request = _dotted(receiver)
            else:  # alltoall_finish(request)
                arg = call.args[0] if call.args else None
                if isinstance(arg, ast.Call):
                    return
                request = _dotted(arg) if arg is not None else None
            out.append(
                self._place(
                    OpNode(kind="finish", op=method, request=request, binds=binds),
                    call, guard,
                )
            )
            return
        chain = self._callee_chain(call)
        if chain is None:
            return
        argroots = tuple(_roots(a) for a in call.args)
        out.append(
            self._place(
                CallNode(
                    callee=chain, argroots=argroots, binds=binds,
                    escape=escape,
                ),
                call, guard,
            )
        )

    def _expr(self, out: list, node: ast.AST, guard, escape: str = "nested") -> None:
        """Scan an arbitrary expression for nested comm events.

        Everything found here is *not* directly consumed by a statement
        we model, so starts are recorded with ``escape="nested"`` (no
        leak obligation -- soundness caveat) and mutator calls become
        MutateNodes.
        """
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            method = call_method(sub)
            if method in COLLECTIVE_OPS:
                out.append(
                    self._place(
                        OpNode(kind="collective", op=method), sub, guard
                    )
                )
            elif method in INFLIGHT_OPS:
                out.append(
                    self._place(
                        OpNode(kind="start", op=method, escape=escape), sub, guard
                    )
                )
            elif method in FINISH_OPS:
                receiver = sub.func.value  # type: ignore[union-attr]
                request = None
                if method == "wait":
                    if isinstance(receiver, ast.Call):
                        continue
                    request = _dotted(receiver)
                elif sub.args and not isinstance(sub.args[0], ast.Call):
                    request = _dotted(sub.args[0])
                if request is not None:
                    out.append(
                        self._place(
                            OpNode(kind="finish", op=method, request=request),
                            sub, guard,
                        )
                    )
            elif method in MUTATOR_METHODS:
                receiver = sub.func.value  # type: ignore[union-attr]
                name = base_name(receiver)
                op = _received_op(receiver)
                if op is not None:  # comm.recv(0).sort()
                    name = f"{op}(...)"
                    self._recv(out, receiver, (name,), guard, at=sub)
                if name:
                    out.append(
                        self._place(
                            MutateNode(
                                name=name, how=f"in-place '{method}()' on"
                            ),
                            sub, guard,
                        )
                    )
            else:
                chain = self._callee_chain(sub)
                if chain is not None:
                    argroots = tuple(_roots(a) for a in sub.args)
                    out.append(
                        self._place(
                            CallNode(
                                callee=chain, argroots=argroots,
                                escape=escape,
                            ),
                            sub, guard,
                        )
                    )


def extract_module(tree: ast.Module, ctx: LintContext) -> ModuleIR:
    """Extract the communication IR of one parsed module."""
    return _Extractor(tree, ctx).run()
