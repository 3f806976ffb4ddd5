"""dtype-overflow: Kronecker index arithmetic must stay in int64.

The product vertex id is ``p = i * n_B + k`` (Section II-A's alpha map);
for paper-scale factors ``p`` exceeds 2**31 long before it exceeds 2**63,
so any narrow intermediate silently wraps.  Two checks, scoped to the
index-carrying packages (``kronecker/`` and ``distributed/``):

* ``np.empty``/``np.zeros`` without an explicit ``dtype=`` -- the float64
  default is both wrong for indices and a waste of the exactness int64
  provides (Sanders et al., arXiv:1803.09021 make the same point for
  at-scale generators);
* index-shaped arithmetic (``a * b + c``) on a name bound to a provably
  narrow array (an explicit ``int32``/``float32``/... dtype or
  ``.astype(<narrow>)``).  Names of unknown dtype are not flagged -- the
  rule is a tripwire for visible narrowing, not a type checker.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, LintContext, Rule, register
from repro.lint.ops import attr_chain, walk_scope as _walk_scope

__all__ = ["DtypeOverflowRule"]

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_ALLOC_FUNCS = frozenset({"empty", "zeros"})
_NUMPY_NAMES = frozenset({"np", "numpy"})

#: dtype spellings wide enough for product vertex ids.
_WIDE_DTYPES = frozenset(
    {"int64", "intp", "uint64", "longlong", "ulonglong", "i8", "u8",
     "<i8", "<u8", "int_", "int"}
)


def _dtype_token(node: ast.expr) -> str | None:
    """Terminal identifier/string of a dtype expression, if recognizable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    chain = attr_chain(node)
    if chain:
        return chain[-1]
    if isinstance(node, ast.Call):
        # np.dtype("int32") and friends: recurse into the argument.
        ch = attr_chain(node.func)
        if ch and ch[-1] == "dtype" and node.args:
            return _dtype_token(node.args[0])
    return None


def _is_narrow_dtype(node: ast.expr) -> bool:
    """True when the dtype expression names a type narrower than int64."""
    token = _dtype_token(node)
    if token is None:
        return False  # unknown (a variable): give the benefit of the doubt
    return token not in _WIDE_DTYPES


def _narrow_binding(value: ast.expr) -> str | None:
    """If ``value`` provably produces a narrow array, describe how."""
    for call in ast.walk(value):
        if not isinstance(call, ast.Call):
            continue
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            if call.args and _is_narrow_dtype(call.args[0]):
                return f"astype({_dtype_token(call.args[0])})"
        chain = attr_chain(call.func)
        if chain and chain[0] in _NUMPY_NAMES:
            for kw in call.keywords:
                if kw.arg == "dtype" and _is_narrow_dtype(kw.value):
                    return f"{'.'.join(chain)}(dtype={_dtype_token(kw.value)})"
    return None


@register
class DtypeOverflowRule(Rule):
    name = "dtype-overflow"
    severity = "warning"
    description = (
        "Kronecker index arithmetic and allocations must be explicit int64; "
        "narrow dtypes silently wrap at paper scale"
    )
    scope_dirs = ("kronecker", "distributed", "skg")

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        self._ctx = ctx
        self._out: list[Finding] = []
        self._check_allocations(tree)
        self._check_index_arithmetic(tree)
        return self._out

    # ---- allocations without explicit dtype ------------------------------
    def _check_allocations(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if (
                chain
                and len(chain) == 2
                and chain[0] in _NUMPY_NAMES
                and chain[1] in _ALLOC_FUNCS
            ):
                if not any(kw.arg == "dtype" for kw in node.keywords):
                    self._out.append(
                        self._ctx.finding(
                            self,
                            node,
                            f"np.{chain[1]} without an explicit dtype "
                            f"defaults to float64; index buffers must be "
                            f"allocated as int64",
                        )
                    )

    # ---- narrow names in index-shaped arithmetic --------------------------
    def _check_index_arithmetic(self, tree: ast.Module) -> None:
        """Run the narrow-name check once per lexical scope.

        Name bindings are function-local; collecting them module-wide
        would let one function's wide rebinding of ``i`` mask another
        function's narrow ``i``.
        """
        for scope_body in self._iter_scopes(tree):
            self._check_scope_arithmetic(scope_body)

    @staticmethod
    def _iter_scopes(tree: ast.Module):
        pending: list[list[ast.stmt]] = [tree.body]
        while pending:
            body = pending.pop()
            yield body
            for node in _walk_scope(body):
                if isinstance(node, _SCOPES):
                    pending.append(node.body)

    def _check_scope_arithmetic(self, body: list[ast.stmt]) -> None:
        narrow = self._collect_narrow_names(body)
        if not narrow:
            return
        for node in _walk_scope(body):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            if not any(
                isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                for side in (node.left, node.right)
            ):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in narrow:
                    how, line = narrow[sub.id]
                    self._out.append(
                        self._ctx.finding(
                            self,
                            node,
                            f"index arithmetic 'a * b + c' involves "
                            f"'{sub.id}', bound narrow via {how} at line "
                            f"{line}; Kronecker indices overflow anything "
                            f"below int64 at scale",
                        )
                    )
                    break  # one finding per expression

    @staticmethod
    def _collect_narrow_names(body: list[ast.stmt]) -> dict[str, tuple[str, int]]:
        narrow: dict[str, tuple[str, int]] = {}
        for node in _walk_scope(body):
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            how = _narrow_binding(value)
            for target in targets:
                if isinstance(target, ast.Name):
                    if how is not None:
                        narrow[target.id] = (how, node.lineno)
                    else:
                        narrow.pop(target.id, None)
        return narrow
