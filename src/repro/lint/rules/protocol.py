"""SPMD protocol rules over the communication IR.

Two rules over the :class:`repro.lint.callgraph.Program` built from the
communication IR:

``protocol-leak``
    A nonblocking start whose request is never completed on some path:
    discarded outright, rebound while still in flight, alive at function
    exit, or stored on an attribute that no function ever waits on.
    Requests that escape to the caller (returned) are the caller's
    obligation and tracked there via function summaries.

``buffer-ownership``
    A buffer *received* from the comm layer is mutated in place.  Received
    entries may be shared, read-only views (the contract documented on
    :meth:`repro.distributed.comm.Communicator.alltoall`): the thread
    backend passes arrays by reference, the process backend maps them
    read-only, so an in-place edit corrupts the sender's data on one
    backend and raises on the other.  Names bound to a receiving op's
    result -- directly, by unpacking, subscripting or iterating it, or
    through an alias -- carry a *received* mark until rebound.

Both run off one abstract interpretation of request states.
Each tracked request name holds a *possibility set* drawn from
``{NONE, INFLIGHT, DONE}``, and a name holding a received buffer carries
its origin; branches fork the environment, ``x is not None`` tests refine
it, joins union it, and loop bodies iterate to a fixpoint.  A leak is
reported only when ``INFLIGHT`` is still possible where an obligation
ends -- so the canonical double-buffered pipeline (``pending = None``;
finish-if-not-None; restart; drain after the loop) analyzes clean -- and
a received buffer is reported when one path into the mutation received
it.

Soundness caveats (see DESIGN.md): requests passed to unresolved calls
are optimistically released; starts nested inside lambdas or
comprehensions carry no obligation; ``raise``/``continue`` end a path
without a leak check (a ``break`` resumes after its loop);
attribute-stored requests are matched by attribute name program-wide,
not per object; a received buffer a helper returns is not tracked into
the caller.
"""

from __future__ import annotations

from repro.lint.callgraph import Program, Summary
from repro.lint.core import ProgramRule, register_program
from repro.lint.ir import (
    AliasNode,
    BindNoneNode,
    CallNode,
    ExitNode,
    FuncIR,
    IfNode,
    LoopNode,
    ModuleIR,
    MutateNode,
    OpNode,
    RebindNode,
    ReturnNode,
    TryNode,
)

__all__ = ["ProtocolLeakRule", "BufferOwnershipRule"]

NONE, INFLIGHT, DONE = "none", "inflight", "done"

_LOOP_CAP = 8  # fixpoint rounds before giving up on a loop body


# --------------------------------------------------------------------- #
# abstract interpretation (shared by the leak and ownership rules)
# --------------------------------------------------------------------- #
class _Cell:
    """Abstract state of one value; aliases share the cell."""

    __slots__ = ("statuses", "origin", "received")

    def __init__(self, statuses, origin, received=None):
        self.statuses = set(statuses)
        self.origin = origin  # originating OpNode/CallNode, for messages
        #: (op, line) when the value may be a received buffer
        self.received = received

    def copy(self) -> "_Cell":
        return _Cell(self.statuses, self.origin, self.received)


def _copy_env(env: dict) -> dict:
    """Copy an environment preserving intra-env aliasing."""
    mapping: dict[int, _Cell] = {}
    out = {}
    for name, cell in env.items():
        clone = mapping.get(id(cell))
        if clone is None:
            clone = mapping[id(cell)] = cell.copy()
        out[name] = clone
    return out


def _join_env(a: dict | None, b: dict | None) -> dict | None:
    if a is None:
        return b
    if b is None:
        return a
    out = {}
    for name in set(a) | set(b):
        ca, cb = a.get(name), b.get(name)
        if ca is None or cb is None:
            cell = (ca or cb).copy()
            # The name is untracked on the other branch: anything may
            # have happened to it there.
            cell.statuses.add(DONE)
            out[name] = cell
        else:
            origin = ca.origin if INFLIGHT in ca.statuses else cb.origin
            out[name] = _Cell(
                ca.statuses | cb.statuses, origin, cb.received or ca.received
            )
    return out


def _env_signature(env: dict | None):
    if env is None:
        return None
    return tuple(
        sorted(
            (name, tuple(sorted(c.statuses)), c.received)
            for name, c in env.items()
        )
    )


class _Interp:
    """Interpret one function body, collecting leak and ownership
    findings."""

    def __init__(self, program: Program, mod: ModuleIR, fn: FuncIR) -> None:
        self.program = program
        self.mod = mod
        self.fn = fn
        #: (rule, node, message) keyed for dedupe across loop rounds
        self.findings: dict[tuple, tuple] = {}
        #: environments at the ``break``s of the innermost loop
        self._breaks: list = []

    # -- findings ---------------------------------------------------------
    def _flag(self, rule: str, node, message: str) -> None:
        key = (rule, node.line, node.col, message)
        self.findings.setdefault(key, (rule, node, message))

    def _leak(self, node, origin, why: str) -> None:
        op = origin.op if isinstance(origin, OpNode) else "call"
        label = (
            f"request from '{op}' (line {origin.line})"
            if origin is not node
            else f"request from '{op}'"
        )
        self._flag("protocol-leak", node, f"{label} {why}")

    # -- environment operations -------------------------------------------
    def _kill(self, env: dict, node, names) -> None:
        """Rebinding names: any still-in-flight request they held leaks."""
        for name in names:
            if "." in name:
                continue
            cell = env.pop(name, None)
            if cell is not None and INFLIGHT in cell.statuses:
                self._leak(
                    node, cell.origin,
                    f"is rebound at '{name}' while still in flight",
                )

    def _release(self, env: dict, name: str) -> None:
        cell = env.get(name)
        if cell is not None:
            cell.statuses = {DONE}

    def _end_of_path(self, env: dict, node, *, escaped: str | None = None) -> None:
        """A return (or fall-off-the-end): every tracked request that may
        still be in flight -- other than the one escaping -- leaks."""
        seen: set[int] = set()
        for name, cell in env.items():
            if name == escaped or id(cell) in seen:
                continue
            seen.add(id(cell))
            if INFLIGHT in cell.statuses:
                self._leak(
                    node, cell.origin,
                    f"bound to '{name}' is not completed on this path",
                )

    # -- node dispatch ----------------------------------------------------
    def run(self) -> None:
        env = self._block(self.fn.body, {})
        if env is not None and self.fn.body:
            self._end_of_path(env, self.fn.body[-1])

    def _block(self, nodes: list, env: dict | None) -> dict | None:
        for node in nodes:
            if env is None:
                return None
            env = self._node(node, env)
        return env

    def _node(self, node, env: dict) -> dict | None:
        if isinstance(node, OpNode):
            self._op(node, env)
        elif isinstance(node, CallNode):
            self._call(node, env)
        elif isinstance(node, AliasNode):
            if node.target != node.source:
                cell = env.get(node.source)
                self._kill(env, node, (node.target,))
                if cell is not None:
                    env[node.target] = cell
        elif isinstance(node, BindNoneNode):
            self._kill(env, node, node.targets)
            for name in node.targets:
                if "." not in name:
                    env[name] = _Cell({NONE}, node)
        elif isinstance(node, RebindNode):
            self._kill(env, node, node.targets)
        elif isinstance(node, MutateNode):
            self._mutate(node, env)
        elif isinstance(node, ReturnNode):
            self._end_of_path(env, node, escaped=node.value_root)
            return None
        elif isinstance(node, ExitNode):
            if node.brk:
                self._breaks.append(env)
            return None
        elif isinstance(node, IfNode):
            return self._if(node, env)
        elif isinstance(node, LoopNode):
            return self._loop(node, env)
        elif isinstance(node, TryNode):
            return self._try(node, env)
        return env

    def _op(self, node: OpNode, env: dict) -> None:
        if node.kind == "start":
            if node.escape is None and not node.binds:
                self._flag(
                    "protocol-leak", node,
                    f"request from '{node.op}' is discarded -- it can "
                    f"never be completed",
                )
                return
            for bind in node.binds:
                if "." in bind:
                    attr = bind.rsplit(".", 1)[-1]
                    if attr not in self.program.attr_releases:
                        self._flag(
                            "protocol-leak", node,
                            f"request from '{node.op}' is stored on "
                            f"attribute '{bind}' but no function ever "
                            f"completes '{attr}'",
                        )
                else:
                    self._kill(env, node, (bind,))
                    env[bind] = _Cell({INFLIGHT}, node)
        elif node.kind == "finish":
            request = node.request
            if request and "." not in request:
                self._release(env, request)
            for bind in node.binds:
                if "." not in bind:
                    self._kill(env, node, (bind,))
        elif node.kind == "recv":
            received = (node.op, node.line) if node.op else next(
                (env[n].received for n in node.buffers
                 if n in env and env[n].received),
                None,
            )
            if received is not None:
                self._kill(env, node, node.binds)
                cell = _Cell({NONE, DONE}, node, received=received)
                for bind in node.binds:
                    env[bind] = cell

    def _call(self, node: CallNode, env: dict) -> None:
        resolved = self.program.resolve(self.mod, self.fn, node.callee)
        summary = Summary()
        offset = 0
        if resolved is not None:
            cmod, callee, offset = resolved
            summary = self.program.summary_of(cmod, callee)
        for i, roots in enumerate(node.argroots):
            for root in roots:
                cell = env.get(root)
                if cell is not None and INFLIGHT in cell.statuses:
                    if resolved is None or (i + offset) in summary.finishes_params:
                        # Unresolved callees are optimistically assumed
                        # to complete any request handed to them.
                        self._release(env, root)
        if node.binds:
            self._kill(env, node, node.binds)
            if summary.returns_request:
                cell = _Cell({INFLIGHT}, node)
                for bind in node.binds:
                    if "." not in bind:
                        env[bind] = cell
        elif node.escape is None and summary.returns_request:
            self._flag(
                "protocol-leak", node,
                f"call to '{'.'.join(node.callee)}' returns an in-flight "
                f"request that is discarded -- it can never be completed",
            )

    def _mutate(self, node: MutateNode, env: dict) -> None:
        cell = env.get(node.name)
        if cell is not None and cell.received is not None:
            op, line = cell.received
            self._flag(
                "buffer-ownership", node,
                f"{node.how} '{node.name}', which holds a buffer received "
                f"from {op}() at line {line}; received buffers may be "
                f"shared read-only views -- copy before mutating "
                f"(Communicator.alltoall contract)",
            )

    def _if(self, node: IfNode, env: dict) -> dict | None:
        then_env = _copy_env(env)
        else_env = _copy_env(env)
        then_dead = else_dead = False
        if node.refine is not None:
            name, sense = node.refine
            non_none, is_none = (then_env, else_env) if sense else (
                else_env, then_env
            )
            cell = non_none.get(name)
            if cell is not None:
                cell.statuses.discard(NONE)
                if not cell.statuses:
                    if sense:
                        then_dead = True
                    else:
                        else_dead = True
            cell = is_none.get(name)
            if cell is not None:
                if NONE in cell.statuses:
                    cell.statuses = {NONE}
                else:
                    if sense:
                        else_dead = True
                    else:
                        then_dead = True
        then_out = None if then_dead else self._block(node.then, then_env)
        else_out = None if else_dead else self._block(node.orelse, else_env)
        return _join_env(then_out, else_out)

    def _loop(self, node: LoopNode, env: dict) -> dict | None:
        state = env
        outer, self._breaks = self._breaks, []
        for _ in range(_LOOP_CAP):
            out = self._block(node.body, _copy_env(state))
            joined = _join_env(state, out)
            if joined is None:
                break
            if _env_signature(joined) == _env_signature(state):
                state = joined
                break
            state = joined
        breaks, self._breaks = self._breaks, outer
        out = None if state is None else self._block(node.orelse, state)
        for brk in breaks:
            out = _join_env(out, brk)
        return out

    def _try(self, node: TryNode, env: dict) -> dict | None:
        # A handler is entered from before any one body statement.
        raised, body_out = env, _copy_env(env)
        for i, child in enumerate(node.body):
            if i:
                raised = _join_env(raised, body_out)
            body_out = self._node(child, body_out)
            if body_out is None:
                break
        outs = [body_out]
        for handler in node.handlers:
            outs.append(self._block(handler, _copy_env(raised)))
        if body_out is not None:
            outs.append(self._block(node.orelse, _copy_env(body_out)))
            outs.pop(0)
        joined = None
        for out in outs:
            joined = _join_env(joined, out)
        if node.final:
            if joined is None:
                joined = _copy_env(env)
            return self._block(node.final, joined)
        return joined


def _interp_findings(program: Program) -> list[tuple]:
    """``(rule, path, node, message)`` from the abstract interpretation,
    run once per program and shared by the rules below."""
    if program.interp_findings is None:
        program.interp_findings = results = []
        for mod, fn in program.iter_functions():
            interp = _Interp(program, mod, fn)
            interp.run()
            for rule, node, message in interp.findings.values():
                results.append((rule, mod.path, node, message))
    return program.interp_findings


class _InterpRule(ProgramRule):
    """A rule whose findings are one name's share of the interpretation."""

    def check(self, program: Program):
        for rule, path, node, message in _interp_findings(program):
            if rule == self.name:
                yield self.finding(path, node, message)


# --------------------------------------------------------------------- #
# rules
# --------------------------------------------------------------------- #
@register_program
class ProtocolLeakRule(_InterpRule):
    """Every nonblocking start must be completed on every path."""

    name = "protocol-leak"
    severity = "error"
    description = (
        "a nonblocking request is discarded, rebound, or still in "
        "flight at function exit on some path, so the transfer is "
        "never completed"
    )


@register_program
class BufferOwnershipRule(_InterpRule):
    """Buffers received from the comm layer are never mutated in place."""

    name = "buffer-ownership"
    severity = "error"
    description = (
        "buffers received from recv/alltoall/allgather may be shared "
        "read-only views; mutate only private copies"
    )
