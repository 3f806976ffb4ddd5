"""determinism: ground truth must be reproducible bit-for-bit.

The paper's validation story compares generated graphs against exact
formulas; that comparison is only trustworthy when generation and
ground-truth evaluation are deterministic (Kepner et al., arXiv:1803.01281
make the same argument for at-scale validation).  Scoped to
``groundtruth/`` and ``kronecker/``, this rule flags:

* **set-order dependence**: iterating a ``set`` (literal, ``set()`` call,
  set comprehension, or a name bound to one), or converting one straight
  to a sequence via ``list(set(...))``/``tuple(set(...))`` -- iteration
  order varies across runs and platforms; ``sorted(...)`` is exempt and
  is the fix;
* **process-global randomness**: any ``np.random.<fn>()`` legacy call
  (seeded or not, the global stream is shared mutable state) and
  ``np.random.default_rng()`` with no seed;
* **time-derived seeds**: ``time.time()``-ish values flowing into a
  ``seed=`` keyword, a ``*.seed(...)``/``default_rng(...)`` call, or a
  variable whose name contains "seed".
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.core import Finding, LintContext, Rule, register
from repro.lint.ops import attr_chain

__all__ = ["DeterminismRule"]

_TIME_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "datetime", "now"),
        ("datetime", "datetime", "utcnow"),
    }
)

_SEQ_CONVERTERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _contains_time_call(node: ast.AST) -> ast.Call | None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = attr_chain(sub.func)
            if chain and (chain in _TIME_CALLS or chain[-2:] in _TIME_CALLS):
                return sub
    return None


@register
class DeterminismRule(Rule):
    name = "determinism"
    severity = "warning"
    description = (
        "ground-truth code must not depend on set iteration order, global "
        "np.random state, or time-derived seeds"
    )
    scope_dirs = ("groundtruth", "kronecker", "skg")

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterable[Finding]:
        self._ctx = ctx
        self._out: list[Finding] = []
        set_names = self._collect_set_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iteration(node.iter, set_names)
            elif isinstance(node, ast.comprehension):
                self._check_iteration(node.iter, set_names)
            elif isinstance(node, ast.Call):
                self._check_call(node, set_names)
            elif isinstance(node, ast.Assign):
                self._check_seed_assign(node)
        return self._out

    # ---- set-order dependence --------------------------------------------
    @staticmethod
    def _collect_set_names(tree: ast.Module) -> dict[str, int]:
        names: dict[str, int] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value):
                        names[target.id] = node.lineno
                    else:
                        names.pop(target.id, None)
        return names

    def _check_iteration(
        self, iter_expr: ast.expr, set_names: dict[str, int]
    ) -> None:
        if _is_set_expr(iter_expr):
            self._emit_set(iter_expr, "iterating a set directly")
        elif (
            isinstance(iter_expr, ast.Name) and iter_expr.id in set_names
        ):
            self._emit_set(
                iter_expr,
                f"iterating '{iter_expr.id}' (bound to a set at line "
                f"{set_names[iter_expr.id]})",
            )

    def _check_call(self, node: ast.Call, set_names: dict[str, int]) -> None:
        # list(set(...)) / tuple(set(...)): order leaks into a sequence.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _SEQ_CONVERTERS
            and node.args
        ):
            arg = node.args[0]
            if _is_set_expr(arg) or (
                isinstance(arg, ast.Name) and arg.id in set_names
            ):
                self._emit_set(
                    node,
                    f"'{node.func.id}()' over a set freezes an "
                    f"unspecified order",
                )
        self._check_np_random(node)
        self._check_time_seed_call(node)

    def _emit_set(self, node: ast.AST, what: str) -> None:
        self._out.append(
            self._ctx.finding(
                self,
                node,
                f"{what}: set iteration order is not deterministic across "
                f"runs/platforms -- use sorted(...) before it can feed "
                f"edge output",
            )
        )

    # ---- global / unseeded randomness ------------------------------------
    def _check_np_random(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if not chain or len(chain) < 3:
            return
        if chain[0] not in ("np", "numpy") or chain[1] != "random":
            return
        fn = chain[2]
        if fn == "default_rng":
            if not node.args and not node.keywords:
                self._out.append(
                    self._ctx.finding(
                        self,
                        node,
                        "np.random.default_rng() without a seed draws "
                        "OS entropy; pass an explicit seed",
                    )
                )
        else:
            self._out.append(
                self._ctx.finding(
                    self,
                    node,
                    f"np.random.{fn} uses the process-global legacy "
                    f"stream; use a seeded np.random.default_rng(seed) "
                    f"Generator instead",
                )
            )

    # ---- time-derived seeds ----------------------------------------------
    def _check_time_seed_call(self, node: ast.Call) -> None:
        seedy = False
        if isinstance(node.func, ast.Attribute) and node.func.attr == "seed":
            seedy = True
        chain = attr_chain(node.func)
        if chain and chain[-1] in ("default_rng", "RandomState", "Generator"):
            seedy = True
        targets: list[ast.AST] = []
        if seedy:
            targets.extend(node.args)
        targets.extend(kw.value for kw in node.keywords if kw.arg == "seed")
        for expr in targets:
            hit = _contains_time_call(expr)
            if hit is not None:
                self._out.append(
                    self._ctx.finding(
                        self,
                        hit,
                        "seed derived from the clock is different on every "
                        "run; use a fixed seed (or thread one through the "
                        "API)",
                    )
                )

    def _check_seed_assign(self, node: ast.Assign) -> None:
        if not any(
            isinstance(t, ast.Name) and "seed" in t.id.lower()
            for t in node.targets
        ):
            return
        hit = _contains_time_call(node.value)
        if hit is not None:
            self._out.append(
                self._ctx.finding(
                    self,
                    hit,
                    "seed variable derived from the clock makes every run "
                    "unrepeatable; use a fixed seed",
                )
            )
