"""Shared comm-op tables and AST helpers for every lint layer.

This is a *leaf* module with no package side effects: the communication
IR (:mod:`repro.lint.ir`) imports it directly -- importing the rule
package instead would be circular (rules -> protocol -> callgraph -> ir
-> rules).
"""

from __future__ import annotations

import ast

__all__ = [
    "COLLECTIVE_OPS",
    "RECEIVING_OPS",
    "INFLIGHT_OPS",
    "FINISH_OPS",
    "MUTATOR_METHODS",
    "attr_chain",
    "base_name",
    "call_method",
    "contains_rank_ref",
    "target_names",
]

#: The collective operations of :class:`repro.distributed.comm.Communicator`.
COLLECTIVE_OPS = frozenset(
    {"barrier", "bcast", "gather", "allgather", "allreduce", "alltoall"}
)

#: Operations whose return value is a received (possibly shared) buffer:
#: ``Request.wait()`` returns the very list ``alltoall_finish`` does.
RECEIVING_OPS = frozenset(
    {"recv", "alltoall", "allgather", "gather", "bcast", "alltoall_finish",
     "wait"}
)

#: Split-phase operations: they return a :class:`Request` that must be
#: completed, and their buffer argument stays owned by the runtime until
#: it is.
INFLIGHT_OPS = frozenset({"alltoall_start"})

#: Operations that complete an in-flight request.
FINISH_OPS = frozenset({"wait", "alltoall_finish"})

#: Method names that mutate their receiver in place (ndarray / list /
#: dict / set mutators that matter for message payloads).
MUTATOR_METHODS = frozenset(
    {
        "sort", "fill", "resize", "put", "itemset", "partition", "byteswap",
        "setflags", "append", "extend", "insert", "remove", "pop", "clear",
        "update", "reverse", "setdefault", "popitem", "add", "discard",
    }
)


def attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """Dotted-name chain of a Name/Attribute expression.

    ``np.random.seed`` -> ``("np", "random", "seed")``; ``None`` when the
    expression is not a plain dotted name (e.g. a call result attribute).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def base_name(node: ast.AST) -> str | None:
    """Root variable name of an lvalue-ish expression.

    Peels subscripts and attribute accesses: ``buf[0].real`` -> ``"buf"``.
    """
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_method(node: ast.Call) -> str | None:
    """Method name of an ``obj.method(...)`` call, else ``None``."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def contains_rank_ref(node: ast.AST) -> bool:
    """Does the expression mention a rank identity (``.rank``/``rank``)?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "_rank"):
            return True
        if isinstance(sub, ast.Name) and sub.id in ("rank", "_rank"):
            return True
    return False


def target_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment/loop target (incl. unpacking)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            names.extend(target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    return []
