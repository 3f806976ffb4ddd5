"""dtype-overflow: Kronecker index arithmetic runs in the product's id dtype.

The product vertex id is ``p = i * n_B + k`` (Section II-A's alpha map);
for paper-scale factors ``p`` exceeds 2**31 long before it exceeds 2**63,
so a narrow intermediate chosen by hand silently wraps.  The one
sanctioned narrow width is :func:`repro.kronecker.product.id_dtype`,
derived from ``n_C``: ``int32`` only while every id fits, ``int64``
past ``2**31`` vertices.  A dtype spelled ``id_dtype(...)``, or a name
its scope binds to one, therefore counts as wide.  Two checks, scoped to
the index-carrying packages (``kronecker/``, ``distributed/`` and
``skg/``):

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

#: The one function that derives the id width from the product size.
_ID_DTYPE = "id_dtype"

#: dtype spellings wide enough for product vertex ids.
_WIDE_DTYPES = frozenset(
    {"int64", "intp", "uint64", "longlong", "ulonglong", "i8", "u8",
     "<i8", "<u8", "int_", "int", _ID_DTYPE}
)


def _dtype_token(node: ast.expr) -> str | None:
    """Terminal identifier/string of a dtype expression, if recognizable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    chain = attr_chain(node)
    if chain:
        return chain[-1]
    if isinstance(node, ast.Call):
        ch = attr_chain(node.func)
        if ch and ch[-1] == _ID_DTYPE:
            return _ID_DTYPE
        # np.dtype("int32") and friends: recurse into the argument.
        if ch and ch[-1] == "dtype" and node.args:
            return _dtype_token(node.args[0])
    return None


def _is_narrow_dtype(node: ast.expr, sanctioned: frozenset[str]) -> bool:
    """True when the dtype expression names a type narrower than int64.

    ``sanctioned`` holds the names the scope binds to ``id_dtype(...)``.
    """
    if isinstance(node, ast.Name) and node.id in sanctioned:
        return False
    token = _dtype_token(node)
    if token is None:
        return False  # unknown expression: give the benefit of the doubt
    return token not in _WIDE_DTYPES


def _is_id_dtype_call(value: ast.expr) -> bool:
    """Is ``value`` a call of the sanctioned ``id_dtype``?"""
    return isinstance(value, ast.Call) and _dtype_token(value) == _ID_DTYPE


def _narrow_binding(value: ast.expr, sanctioned: frozenset[str]) -> str | None:
    """If ``value`` provably produces a narrow array, describe how."""
    for call in ast.walk(value):
        if not isinstance(call, ast.Call):
            continue
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            if call.args and _is_narrow_dtype(call.args[0], sanctioned):
                return f"astype({_dtype_token(call.args[0])})"
        chain = attr_chain(call.func)
        if chain and chain[0] in _NUMPY_NAMES:
            for kw in call.keywords:
                if kw.arg != "dtype":
                    continue
                if _is_narrow_dtype(kw.value, sanctioned):
                    return f"{'.'.join(chain)}(dtype={_dtype_token(kw.value)})"
    return None


@register
class DtypeOverflowRule(Rule):
    name = "dtype-overflow"
    severity = "warning"
    description = (
        "Kronecker index arithmetic and allocations must be int64 or the "
        "id dtype derived from n_C (id_dtype); other narrow dtypes "
        "silently wrap at paper scale"
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
                            f"allocated as int64 or id_dtype(n_c)",
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
                            f"below int64 at scale -- derive the width "
                            f"with id_dtype(n_c) instead",
                        )
                    )
                    break  # one finding per expression

    @staticmethod
    def _collect_narrow_names(body: list[ast.stmt]) -> dict[str, tuple[str, int]]:
        bindings = []
        for node in _walk_scope(body):
            if isinstance(node, ast.Assign):
                bindings.append((node, node.targets, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bindings.append((node, [node.target], node.value))
        sanctioned = frozenset(
            target.id
            for _node, targets, value in bindings
            if _is_id_dtype_call(value)
            for target in targets
            if isinstance(target, ast.Name)
        )
        narrow: dict[str, tuple[str, int]] = {}
        for node, targets, value in bindings:
            how = _narrow_binding(value, sanctioned)
            for target in targets:
                if isinstance(target, ast.Name):
                    if how is not None:
                        narrow[target.id] = (how, node.lineno)
                    else:
                        narrow.pop(target.id, None)
        return narrow
