"""Call graph and per-function communication summaries.

Builds a :class:`Program` from the per-module communication IR
(:mod:`repro.lint.ir`) and computes, by fixpoint iteration over the call
graph, a :class:`Summary` for every function:

``returns_request``
    the function may return an in-flight request to its caller;
``finishes_params``
    positional parameters the function may complete (``wait`` /
    ``alltoall_finish`` on the parameter, directly or through a callee);
``returns_params``
    parameters that may be returned unchanged (alias-through helpers
    such as an encoder that passes raw payloads straight through).

Call resolution is deliberately lexical: bare names resolve to nested
defs, module-level functions, then ``from``-imports; ``self.m()``
resolves to a method of the enclosing class; dotted chains resolve
through import aliases.  Calls that cannot be resolved are assumed
effect-free -- the checker compensates by optimistically releasing any
request passed to an unresolved call (see
:mod:`repro.lint.rules.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.ir import (
    AliasNode,
    CallNode,
    FuncIR,
    ModuleIR,
    OpNode,
    ReturnNode,
)

__all__ = ["Summary", "Program", "flatten"]


@dataclass(frozen=True)
class Summary:
    """Abstract communication behaviour of one function."""

    returns_request: bool = False
    finishes_params: frozenset = frozenset()
    returns_params: frozenset = frozenset()


_EMPTY = Summary()

_CHILD_LISTS = ("then", "orelse", "body", "final")


def flatten(nodes):
    """Yield every node of a body in source order, descending into
    control-flow children (a *may*-analysis view of the function)."""
    for node in nodes:
        yield node
        for attr in _CHILD_LISTS:
            for child in getattr(node, attr, ()):
                yield from flatten([child])
        for handler in getattr(node, "handlers", ()):
            yield from flatten(handler)


class Program:
    """An indexed whole program: module IRs, call resolution, summaries."""

    def __init__(self, modules: list[ModuleIR]) -> None:
        self.modules: dict[str, ModuleIR] = {}
        for mod in modules:
            self.modules[mod.module] = mod
        #: attribute names (last segment) that some function completes a
        #: request through (``self._inner.wait()`` releases ``_inner``).
        self.attr_releases: set[str] = set()
        self.summaries: dict[tuple[str, str], Summary] = {}
        #: the request-state interpretation's findings, computed once by
        #: :mod:`repro.lint.rules.protocol` and shared by its rules.
        self.interp_findings: list | None = None
        self._collect_attr_releases()
        self._fixpoint()

    # -- iteration --------------------------------------------------------
    def iter_functions(self):
        """Yield ``(module_ir, func_ir)`` over the whole program,
        deterministically ordered."""
        for name in sorted(self.modules):
            mod = self.modules[name]
            for qual in sorted(mod.functions):
                yield mod, mod.functions[qual]

    def summary_of(self, mod: ModuleIR, fn: FuncIR) -> Summary:
        return self.summaries.get((mod.module, fn.qualname), _EMPTY)

    # -- call resolution --------------------------------------------------
    def resolve(
        self, mod: ModuleIR, fn: FuncIR, chain: tuple
    ) -> tuple[ModuleIR, FuncIR, int] | None:
        """Resolve a callee chain from inside ``fn``.

        Returns ``(module, function, offset)`` where ``offset`` is the
        positional-parameter shift between call-site arguments and the
        callee's parameter list (1 for bound ``self.m()`` calls), or
        ``None`` when the callee is not a program-local function.
        """
        if not chain:
            return None
        if chain[0] in ("self", "cls") and fn.cls and len(chain) == 2:
            target = mod.functions.get(f"{fn.cls}.{chain[1]}")
            if target is not None:
                return (mod, target, 1)
            return None
        if len(chain) == 1:
            name = chain[0]
            qual = fn.local_defs.get(name)
            if qual is not None and qual in mod.functions:
                return (mod, mod.functions[qual], 0)
            module_fn = mod.functions.get("<module>")
            if module_fn is not None:
                qual = module_fn.local_defs.get(name)
                if qual is not None and qual in mod.functions:
                    return (mod, mod.functions[qual], 0)
            imp = mod.from_imports.get(name)
            if imp is not None:
                target_mod = self.modules.get(imp[0])
                if target_mod is not None and imp[1] in target_mod.functions:
                    return (target_mod, target_mod.functions[imp[1]], 0)
            return None
        for split in range(len(chain) - 1, 0, -1):
            head, rest = chain[:split], chain[split:]
            target_mod = self._module_for(mod, head)
            if target_mod is None:
                continue
            target = target_mod.functions.get(".".join(rest))
            if target is not None:
                return (target_mod, target, 0)
        return None

    def _module_for(self, mod: ModuleIR, head: tuple) -> ModuleIR | None:
        dotted = ".".join(head)
        if dotted in mod.plain_imports and dotted in self.modules:
            return self.modules[dotted]
        if len(head) == 1:
            aliased = mod.alias_imports.get(head[0])
            if aliased is not None and aliased in self.modules:
                return self.modules[aliased]
            imp = mod.from_imports.get(head[0])
            if imp is not None:
                name = f"{imp[0]}.{imp[1]}"
                if name in self.modules:
                    return self.modules[name]
        return None

    # -- summaries --------------------------------------------------------
    def _collect_attr_releases(self) -> None:
        for mod, fn in self.iter_functions():
            for node in flatten(fn.body):
                if (
                    isinstance(node, OpNode)
                    and node.kind == "finish"
                    and node.request
                    and "." in node.request
                ):
                    self.attr_releases.add(node.request.rsplit(".", 1)[-1])

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for mod, fn in self.iter_functions():
                key = (mod.module, fn.qualname)
                new = self._summarize(mod, fn)
                if new != self.summaries.get(key, _EMPTY):
                    self.summaries[key] = new
                    changed = True

    def _summarize(self, mod: ModuleIR, fn: FuncIR) -> Summary:
        # May-analysis over the flattened body: alias sets only grow, so
        # a single in-order pass per fixpoint round suffices.
        alias: dict[str, frozenset] = {
            p: frozenset({i}) for i, p in enumerate(fn.params)
        }
        request_names: set[str] = set()
        returns_request = False
        finishes: set[int] = set()
        returns: set[int] = set()

        def params_of(names) -> frozenset:
            hit: frozenset = frozenset()
            for name in names:
                hit |= alias.get(name, frozenset())
            return hit

        for node in flatten(fn.body):
            if isinstance(node, OpNode):
                if node.kind == "start":
                    if node.escape == "return":
                        returns_request = True
                    for bind in node.binds:
                        if "." not in bind:
                            request_names.add(bind)
                elif node.kind == "finish":
                    if node.request and "." not in node.request:
                        finishes |= alias.get(node.request, frozenset())
            elif isinstance(node, CallNode):
                resolved = self.resolve(mod, fn, node.callee)
                if resolved is None:
                    continue
                cmod, callee, offset = resolved
                summary = self.summaries.get(
                    (cmod.module, callee.qualname), _EMPTY
                )
                for i, roots in enumerate(node.argroots):
                    callee_param = i + offset
                    hit = params_of(roots)
                    if callee_param in summary.finishes_params:
                        finishes |= hit
                    if callee_param in summary.returns_params:
                        for bind in node.binds:
                            if "." not in bind:
                                alias[bind] = alias.get(
                                    bind, frozenset()
                                ) | hit
                if summary.returns_request:
                    if node.escape == "return":
                        returns_request = True
                    for bind in node.binds:
                        if "." not in bind:
                            request_names.add(bind)
            elif isinstance(node, ReturnNode):
                root = node.value_root
                if root is None:
                    continue
                returns |= alias.get(root, frozenset())
                if root in request_names:
                    returns_request = True
            elif isinstance(node, AliasNode):
                alias[node.target] = alias.get(
                    node.target, frozenset()
                ) | alias.get(node.source, frozenset())
                if node.source in request_names:
                    request_names.add(node.target)
        return Summary(
            returns_request=returns_request,
            finishes_params=frozenset(finishes),
            returns_params=frozenset(returns),
        )
