"""Command-line interface.

Mirrors the paper's tooling surface: a generator that "reads two factor
graphs A and B from file and efficiently produces the nonstochastic
Kronecker graph", plus ground-truth and validation commands::

    repro-kron generate    A.txt B.txt --out shards/ --ranks 8 --scheme 2d
    repro-kron generate    --model skg --seed-matrix facebook --out shards/
    repro-kron generate    --list-seed-matrices    # fitted SKG seed library
    repro-kron generate    --out shards/ --trace trace.json  # traced (Perfetto)
    repro-kron groundtruth A.txt B.txt            # stats table from factors
    repro-kron validate    A.txt B.txt            # formula-vs-direct law table
    repro-kron experiments                        # full E1-E8 + ablations
    repro-kron lint src benchmarks examples       # SPMD static analysis
    repro-kron chaos --ranks 4 --seed 0           # seeded fault-injection matrix
    repro-kron serve-rendezvous --port 9310       # roster server for --backend socket
    repro-kron serve --port 0                     # ground-truth query server
    repro-kron loadgen --target auto              # seeded saturation client

Factor files are detected by extension: ``.txt``/``.tsv``/``.el`` (edge
list), ``.npz`` (binary), ``.mtx``/``.mm`` (Matrix Market).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.distributed.generator import PIPELINES, SCHEMES, STORAGES
from repro.distributed.launcher import BACKENDS
from repro.distributed.shuffle import WIRE_FORMATS
from repro.errors import GraphFormatError, ReproError
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import DEFAULT_CHUNK

__all__ = ["main", "build_parser", "load_factor"]


def load_factor(path: str) -> EdgeList:
    """Load a factor file, dispatching on extension."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix in (".txt", ".tsv", ".el", ""):
        from repro.graph.io import read_text

        return read_text(p)
    if suffix == ".npz":
        from repro.graph.io import read_npz

        return read_npz(p)
    if suffix in (".mtx", ".mm"):
        from repro.graph.mmio import read_matrix_market

        return read_matrix_market(p)
    raise GraphFormatError(f"unrecognized factor file extension: {path}")


def _parse_rank_set(spec: str | None, nranks: int) -> tuple[int, ...] | None:
    """Parse a ``--local-ranks`` spec: comma-separated ranks and ranges.

    ``"0-3"`` -> (0, 1, 2, 3); ``"0,2,5"`` -> (0, 2, 5); ``None`` -> None
    (this invocation launches the whole world).
    """
    if spec is None:
        return None
    ranks: list[int] = []
    try:
        for part in spec.split(","):
            lo, sep, hi = part.partition("-")
            if sep:
                ranks.extend(range(int(lo), int(hi) + 1))
            else:
                ranks.append(int(part))
    except ValueError as exc:
        raise ReproError(
            f"--local-ranks {spec!r}: expected ranks/ranges like "
            f"'0-3' or '0,2,5'"
        ) from exc
    out = tuple(sorted(set(ranks)))
    if not out or out[0] < 0 or out[-1] >= nranks:
        raise ReproError(
            f"--local-ranks {spec!r} is outside the world 0..{nranks - 1}"
        )
    return out


def _prepare(el: EdgeList, args: argparse.Namespace) -> EdgeList:
    """Apply the standard preprocessing flags."""
    if getattr(args, "symmetrize", False):
        el = el.symmetrized()
    if getattr(args, "self_loops", False):
        el = el.with_full_self_loops()
    return el


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #
def _print_seed_matrices() -> None:
    """The fitted SKG seed-matrix library as a table."""
    from repro.skg import list_seed_matrices

    print(f"{'name':<14}{'k':>4}{'n':>8}{'source n':>10}{'source m':>10}"
          f"  theta (t00 t01 t10 t11)")
    for sm in list_seed_matrices():
        t = " ".join(f"{x:.6f}" for x in sm.theta)
        print(f"{sm.name:<14}{sm.k:>4}{sm.n:>8}{sm.source_n:>10}"
              f"{sm.source_m:>10}  [{t}]")


def _source(args: argparse.Namespace):
    """The run's source the generate/chaos flags describe.

    ``--model skg`` builds an ``SKGSpec``, which is the whole source;
    otherwise the two factor files form a :class:`KronPair`, or without
    them the built-in K4 (x) C5 pair, small but routing edges across every
    rank pair.  Factor files next to ``--model skg``, and a lone factor
    file, are refused, not ignored.
    """
    from repro.distributed.generator import KronPair

    if args.model == "skg":
        from repro.skg import SKGSpec

        if args.factor_a or args.factor_b:
            raise ReproError(
                "--model skg samples the seed matrix's 2**k vertices; "
                "do not pass factor files"
            )
        return SKGSpec.from_library(
            args.seed_matrix,
            k=args.skg_k,
            skg_seed=args.skg_seed,
            noise_b=args.noise_b,
            noise_seed=args.noise_seed,
        )
    if args.factor_a and args.factor_b:
        a = _prepare(load_factor(args.factor_a), args)
        b = _prepare(load_factor(args.factor_b), args)
        return KronPair(a, b)
    if args.factor_a or args.factor_b:
        raise ReproError(
            "pass two factor files, or none for the built-in K4 (x) C5"
        )
    from repro.graph.generators import clique, cycle

    return KronPair(clique(4), cycle(5))


def cmd_generate(args: argparse.Namespace) -> int:
    """Distributed generation to shard files (exact or SKG model).

    With ``--trace PATH`` the run carries a telemetry session, and the
    command exits 1 unless its edge counters reconcile (see
    :func:`_write_trace`).
    """
    from repro.distributed.supervisor import generate_to_directory

    if args.list_seed_matrices:
        _print_seed_matrices()
        return 0
    if args.out is None:
        raise ReproError("--out is required (unless --list-seed-matrices)")
    source = _source(args)
    session = None
    if args.trace is not None:
        from repro.telemetry import TelemetrySession

        session = TelemetrySession()
    manifest = generate_to_directory(
        source, args.out, args.ranks, scheme=args.scheme,
        storage=args.storage, chunk_size=args.chunk_size,
        pipeline=args.pipeline, wire=args.wire, backend=args.backend,
        telemetry=session, rendezvous=args.rendezvous,
        local_ranks=_parse_rank_set(args.local_ranks, args.ranks),
    )
    shards = sum(d is not None for d in manifest.shard_digests)
    print(
        f"generated {manifest.edges_total} directed edges "
        f"({manifest.n} vertices) into {shards} shards "
        f"under {args.out}"
    )
    if args.model == "skg":
        from repro.skg import expected_edge_rows

        spec = source
        print(
            f"REPRO_SKG name={spec.name} k={spec.k} "
            f"skg_seed={spec.skg_seed} noise_b={spec.noise_b} "
            f"vertices={spec.n} edges={manifest.edges_total} "
            f"expected_edges={expected_edge_rows(spec):.1f} "
            f"shards={shards} "
            f"digest={spec.digest():016x}",
            flush=True,
        )
    if session is None:
        return 0
    return _write_trace(args, session, source, manifest)


def _write_trace(args: argparse.Namespace, session, source, manifest) -> int:
    """Write ``--trace``'s Chrome trace and metrics summary; 0 iff the
    cross-rank edge counters reconcile.

    A whole exact-model world is held to ``|E_A||E_B|``; an SKG run or a
    partial world (``--local-ranks``) to its manifest's ``edges_total``.
    Each rank is one lane of the trace, its phases (``generate``,
    ``route``, ``exchange``, ``checkpoint``) spans in it.
    """
    import json

    session.write_chrome_trace(args.trace)
    whole = args.local_ranks is None
    if whole and args.model == "exact":
        expected = source.a.m_directed * source.b.m_directed
    else:
        expected = manifest.edges_total
    summary = session.metrics_summary()
    counters = summary["aggregate"]["counters"]
    generated = int(counters.get("edges.generated", 0))
    restored = int(counters.get("edges.restored", 0))
    stored = int(counters.get("edges.stored", 0))
    # Checkpoint-resumed shards are restored, not regenerated; either way
    # every edge must be accounted for exactly once.  A partial world's
    # ranks generate edges that ranks on other hosts store, so only what
    # it stored is held to its manifest.
    exact = stored == expected == manifest.edges_total and (
        not whole or generated + restored == expected
    )
    workload = {
        k: getattr(args, k) for k in (
            "factor_a", "factor_b", "ranks", "scheme", "storage",
            "pipeline", "wire", "backend",
        )
    }
    if args.model == "exact":
        workload["factor_a"] = args.factor_a or "builtin:K4"
        workload["factor_b"] = args.factor_b or "builtin:C5"
    summary = {
        "workload": workload,
        "expected_edges": expected,
        "edge_counts_exact": exact,
        "span_totals": session.span_totals(),
        **summary,
    }
    trace = Path(args.trace)
    metrics_out = trace.with_name(trace.stem + "-metrics.json")
    with open(metrics_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)

    nevents = sum(len(snap.events) for snap in session.ranks)
    print(f"trace: {args.trace} ({nevents} events, one lane per rank "
          f"x {len(session.ranks)} ranks; load in chrome://tracing "
          f"or https://ui.perfetto.dev)")
    print(f"metrics: {metrics_out}")
    status = "exact" if exact else "MISMATCH"
    print(f"edges: generated {generated}, restored {restored}, "
          f"stored {stored}, expected |E(A(x)B)| {expected} -- {status}")
    alltoall = int(counters.get("comm.alltoall.bytes_out", 0))
    print(f"bytes shuffled (alltoall, all ranks): {alltoall}")
    wire_bytes = int(counters.get("exchange.bytes_wire", 0))
    if wire_bytes:
        raw_bytes = int(counters.get("exchange.bytes_raw", 0))
        ratio = raw_bytes / wire_bytes
        print(f"wire format {args.wire}: {raw_bytes} raw -> "
              f"{wire_bytes} encoded bytes ({ratio:.2f}x)")
    overlap = counters.get("exchange.overlap_s", 0.0)
    if args.pipeline == "async":
        print(f"exchange overlap (generation hiding in-flight exchange, "
              f"all ranks): {overlap:.4f}s")
    return 0 if exact else 1


def cmd_groundtruth(args: argparse.Namespace) -> int:
    """Print the ground-truth stats of the product from factor data."""
    from repro.analytics import degrees
    from repro.groundtruth import (
        edge_count_full_loops,
        edge_count_no_loops,
        factor_triangle_stats,
        global_triangles_full_loops,
        global_triangles_no_loops,
        vertex_count,
    )

    a = _prepare(load_factor(args.factor_a), args).without_self_loops()
    b = _prepare(load_factor(args.factor_b), args).without_self_loops()
    sa, sb = factor_triangle_stats(a), factor_triangle_stats(b)
    print(f"factors: A({a.n} vertices, {a.num_undirected_edges} edges)  "
          f"B({b.n} vertices, {b.num_undirected_edges} edges)")
    print(f"{'quantity':<28}{'A (x) B':>16}{'(A+I) (x) (B+I)':>18}")
    print(f"{'vertices':<28}{vertex_count(a.n, b.n):>16}{vertex_count(a.n, b.n):>18}")
    m_plain = edge_count_no_loops(a.num_undirected_edges, b.num_undirected_edges)
    m_loops = edge_count_full_loops(
        a.num_undirected_edges, a.n, b.num_undirected_edges, b.n
    )
    print(f"{'undirected edges':<28}{m_plain:>16}{m_loops:>18}")
    tau_plain = global_triangles_no_loops(sa.global_tri, sb.global_tri)
    tau_loops = global_triangles_full_loops(sa, sb)
    print(f"{'global triangles':<28}{tau_plain:>16}{tau_loops:>18}")
    d_a, d_b = degrees(a), degrees(b)
    if len(d_a) and len(d_b):
        print(f"{'max degree':<28}{int(d_a.max() * d_b.max()):>16}"
              f"{int((d_a.max() + 1) * (d_b.max() + 1) - 1):>18}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Run the formula-vs-direct harness; exit 1 on any failed row."""
    from repro.validation import validate_product

    a = _prepare(load_factor(args.factor_a), args).without_self_loops()
    b = _prepare(load_factor(args.factor_b), args).without_self_loops()
    rows = args.checks.split(",") if args.checks else None
    report = validate_product(a, b, rows=rows)
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run the full paper-experiment suite and print the report."""
    from repro.experiments import render_report, run_all

    print(render_report(run_all(fast=not args.full)))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the SPMD correctness static analysis (see :mod:`repro.lint`)."""
    from repro.lint.cli import run_lint

    return run_lint(args)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the seeded fault-injection matrix; exit 0 iff every cell recovers.

    With no factor files, a small built-in pair (K4 (x) C5) keeps the run
    fast enough for CI while still routing edges across every rank pair.
    ``--plan-set socket`` swaps in the TCP fault plans (disconnects,
    partitions, slow peers); pair it with ``--backends socket``.
    """
    from repro.distributed.faults import (
        default_fault_matrix,
        socket_fault_matrix,
    )
    from repro.distributed.supervisor import run_chaos_matrix

    source = _source(args)
    plans = []
    if args.plan_set in ("default", "both"):
        plans += default_fault_matrix(seed=args.seed, nranks=args.ranks)
    if args.plan_set in ("socket", "both"):
        plans += socket_fault_matrix(seed=args.seed, nranks=args.ranks)
    report = run_chaos_matrix(
        source,
        args.ranks,
        plans=plans,
        backends=args.backends,
        scheme=args.scheme,
        pipeline=args.pipeline,
        wire=args.wire,
        recv_timeout_s=args.timeout,
        max_attempts=args.max_attempts,
        checkpoint_root=args.checkpoint_root,
        rendezvous=args.rendezvous,
    )
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    return 0 if report.all_recovered else 1


def cmd_serve_rendezvous(args: argparse.Namespace) -> int:
    """Run the roster server socket worlds bootstrap through.

    One long-lived server handles every round (and every supervised
    retry) of any number of sequential runs; point each participant at it
    with ``--backend socket --rendezvous <host>:<port>``.  Runs until
    interrupted (Ctrl-C).
    """
    import time

    from repro.distributed.sockcomm import RendezvousServer

    server = RendezvousServer(host=args.host, port=args.port).start()
    host, port = server.address
    print(f"rendezvous serving on {host}:{port} (Ctrl-C to stop)",
          flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the Kronecker ground-truth query server (:mod:`repro.service`).

    Prints one machine-parseable line ``REPRO_SERVE host=<h> port=<p>``
    once the listener is bound (``--port 0`` picks a free port, and this
    line is how ``loadgen --target auto`` finds it).  Runs until Ctrl-C
    or an authorized ``POST /v1/admin/shutdown``; with ``--trace-out``
    the request trace is exported on the way down.
    """
    import asyncio

    from repro.service import KronService, ServiceConfig

    async def run() -> None:
        service = KronService(
            ServiceConfig(
                host=args.host,
                port=args.port,
                cache_size=args.cache_size,
                allow_shutdown=not args.no_remote_shutdown,
            )
        )
        await service.start()
        print(
            f"REPRO_SERVE host={args.host} port={service.bound_port}",
            flush=True,
        )
        try:
            await service.serve_until_shutdown()
        finally:
            if args.trace_out:
                service.trace_session().write_chrome_trace(args.trace_out)
                print(f"trace: {args.trace_out}", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _loadgen_target(args: argparse.Namespace) -> tuple[str, int]:
    """Resolve ``--target``: ``host:port``, or ``auto`` via the serve line.

    ``auto`` reads the ``REPRO_SERVE host=... port=...`` line either from
    the file ``--serve-output`` points at (polled until it appears -- the
    CI pattern, with serve's stdout redirected) or from this process's
    stdin (the pipe pattern: ``repro-kron serve | repro-kron loadgen
    --target auto``).
    """
    import time

    from repro.service.loadgen import parse_serve_line

    if args.target != "auto":
        host, _sep, port = args.target.rpartition(":")
        try:
            number = int(port)
        except ValueError:
            number = 0
        if not (host and 0 < number <= 65535):
            raise ReproError(
                f"--target must be host:port with a port in 1..65535, or "
                f"'auto', got {args.target!r}"
            )
        return host, number
    if args.serve_output:
        deadline = time.monotonic() + args.wait_s
        while True:
            try:
                text = Path(args.serve_output).read_text(encoding="utf-8")
                return parse_serve_line(text)
            except (OSError, ReproError):
                if time.monotonic() >= deadline:
                    raise ReproError(
                        f"no REPRO_SERVE line in {args.serve_output} "
                        f"after {args.wait_s:.0f}s"
                    ) from None
                time.sleep(0.1)
    for line in sys.stdin:
        if line.startswith("REPRO_SERVE "):
            return parse_serve_line(line)
    raise ReproError("--target auto: no REPRO_SERVE line on stdin")


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a seeded workload against a running serve; print the report.

    Exit code 0 iff every request succeeded.  ``--shutdown`` stops the
    server afterwards (the CI service job uses serve + loadgen
    ``--target auto --shutdown`` as a self-contained saturation check).
    """
    import asyncio
    import json

    from repro.service.loadgen import LoadGenConfig, run_loadgen

    host, port = _loadgen_target(args)

    def factor_payload(path: str | None) -> dict | None:
        if path is None:
            return None
        el = _prepare(load_factor(path), args)
        return {
            "edges": [[int(u), int(v)] for u, v in zip(el.src, el.dst)],
            "n": el.n,
        }

    config = LoadGenConfig(
        host=host,
        port=port,
        seed=args.seed,
        concurrency=args.concurrency,
        requests=args.requests,
        batch=args.batch,
        analytics_fraction=args.analytics_fraction,
        tenant=args.tenant,
        factor_a=factor_payload(args.factor_a),
        factor_b=factor_payload(args.factor_b),
        shutdown=args.shutdown,
    )
    report = asyncio.run(run_loadgen(config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"loadgen: {report['requests']} requests, {report['errors']} errors, "
        f"{report['qps']:.0f} req/s, "
        f"{report['edge_queries_per_s']:.0f} edge-queries/s, "
        f"p99 {report['latency_s']['p99'] * 1e3:.2f} ms",
        file=sys.stderr,
    )
    return 1 if report["errors"] else 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #
def _at_least_one(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _backends(text: str) -> tuple[str, ...]:
    """argparse type: comma-separated launcher backends."""
    backends = tuple(text.split(","))
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown backend {unknown[0]!r}; use {', '.join(BACKENDS)}"
        )
    return backends


def _port(text: str) -> int:
    """argparse type: a TCP port number, 0..65535 (0 picks a free port)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port number in 0..65535, got {text!r}"
        )
    return value


def _add_factor_args(
    p: argparse.ArgumentParser,
    optional: str | None = None,
    loops_note: str = " (the paper's A + I)",
) -> None:
    """The two factor positionals plus ``--symmetrize``/``--self-loops``.

    ``optional`` makes the positionals ``nargs="?"``; it is their help
    text, formatted with ``{f}`` (A or B) and ``{builtin}`` (the factor a
    subcommand falls back to).
    """
    for f, builtin in (("A", "K4"), ("B", "C5")):
        if optional is None:
            p.add_argument(f"factor_{f.lower()}",
                           help=f"factor {f} file (.txt/.npz/.mtx)")
        else:
            p.add_argument(f"factor_{f.lower()}", nargs="?", default=None,
                           help=optional.format(f=f, builtin=builtin))
    p.add_argument(
        "--symmetrize", action="store_true",
        help="symmetrize factors after reading (directed inputs)",
    )
    p.add_argument(
        "--self-loops", action="store_true",
        help="add a self loop on every factor vertex" + loops_note,
    )


def _add_skg_args(p: argparse.ArgumentParser, default_k: int | None) -> None:
    """``--model`` and the five SKG flags."""
    p.add_argument("--model", choices=("exact", "skg"), default="exact",
                   help="'exact' emits every product edge; 'skg' samples a "
                        "stochastic Kronecker graph from a fitted seed "
                        "matrix with a deterministic, hash-seeded sampler")
    p.add_argument("--seed-matrix", default="facebook",
                   help="SKG seed-matrix name (see generate "
                        "--list-seed-matrices)")
    p.add_argument("--skg-seed", type=int, default=0,
                   help="sampler hash seed (same seed -> same graph)")
    fitted = "the seed matrix's fitted k"
    p.add_argument("--skg-k", type=int, default=default_k,
                   help=f"Kronecker exponent (default: {default_k or fitted})")
    p.add_argument("--noise-b", type=float, default=0.0,
                   help="noisy-SKG amplitude (0 disables the correction)")
    p.add_argument("--noise-seed", type=int, default=0,
                   help="per-level noise seed for noisy SKG")


#: The generation-plan and launcher flags, declared once.
_PLAN_FLAGS: dict[str, dict] = {
    "--scheme": dict(choices=SCHEMES, default="1d"),
    "--storage": dict(
        choices=[s for s in STORAGES if s is not None], default=None,
        help="where each edge is stored (default: on the rank that "
             "generates it)",
    ),
    "--pipeline": dict(
        choices=PIPELINES, default="sync",
        help="exchange pipeline (async needs --scheme 1d-pipelined)",
    ),
    "--wire": dict(
        choices=WIRE_FORMATS, default="raw",
        help="edge wire format for every exchange",
    ),
    "--backend": dict(choices=BACKENDS, default="thread"),
    "--rendezvous": dict(
        default=None,
        help="host:port of a running serve-rendezvous (socket backend; "
             "default: a private in-process server)",
    ),
    "--chunk-size": dict(type=int, default=DEFAULT_CHUNK),
}


def _add_plan_args(
    p: argparse.ArgumentParser, *flags: str, **override
) -> None:
    """Add the named :data:`_PLAN_FLAGS` in the order given; ``override``
    replaces entries of the one flag a subcommand spells differently."""
    for flag in flags:
        p.add_argument(flag, **{**_PLAN_FLAGS[flag], **override})


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-kron",
        description="Distributed Kronecker graph generation with ground truth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser(
        "generate",
        help="generate A (x) B (or a stochastic Kronecker graph) to "
             "shard files",
    )
    _add_factor_args(
        g, optional="factor {f} file (.txt/.npz/.mtx; default: built-in "
                    "{builtin}); omit with --model skg",
    )
    g.add_argument("--out", default=None, help="output shard directory")
    g.add_argument("--ranks", type=int, default=4, help="world size")
    _add_plan_args(g, "--scheme", default="2d")
    _add_plan_args(g, "--storage", "--pipeline", "--wire")
    _add_skg_args(g, default_k=None)
    g.add_argument("--list-seed-matrices", action="store_true",
                   help="print the fitted seed-matrix library and exit")
    _add_plan_args(g, "--backend", "--chunk-size", "--rendezvous")
    g.add_argument("--local-ranks", default=None,
                   help="ranks this host launches, e.g. '0-3' or '0,2,5' "
                        "(socket backend multi-host worlds; default: all)")
    g.add_argument("--trace", default=None, metavar="PATH",
                   help="attach a telemetry session: write the "
                        "Chrome/Perfetto trace JSON here and the metrics "
                        "summary to <PATH stem>-metrics.json; exit 1 "
                        "unless the edge counters reconcile")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("groundtruth", help="print product ground truth")
    _add_factor_args(t)
    t.set_defaults(func=cmd_groundtruth)

    v = sub.add_parser("validate", help="formula-vs-direct validation")
    _add_factor_args(v)
    v.add_argument("--checks", default=None,
                   help="comma-separated rows of repro.validation.ROWS "
                        "(default: all)")
    v.set_defaults(func=cmd_validate)

    e = sub.add_parser("experiments", help="run E1-E8 + ablations")
    e.add_argument("--full", action="store_true",
                   help="paper-scale factors (slow)")
    e.set_defaults(func=cmd_experiments)

    from repro.lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint", help="SPMD correctness static analysis (repro.lint)"
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    c = sub.add_parser(
        "chaos",
        help="seeded fault-injection matrix over the supervised launcher",
    )
    _add_factor_args(
        c, optional="factor {f} file (default: built-in {builtin})",
        loops_note="",
    )
    c.add_argument("--ranks", type=int, default=4, help="world size")
    c.add_argument("--seed", type=int, default=0, help="fault-matrix seed")
    c.add_argument("--backends", type=_backends, default="thread,process",
                   help="comma-separated launcher backends to exercise")
    _add_plan_args(c, "--scheme", help="generation scheme under test")
    _add_plan_args(c, "--pipeline", "--wire")
    _add_skg_args(c, default_k=5)
    c.add_argument("--timeout", type=float, default=2.0,
                   help="recv timeout (s) pinned for the run; bounds how "
                        "long a dropped message stalls before retry")
    c.add_argument("--max-attempts", type=int, default=4,
                   help="supervised retry budget per cell")
    c.add_argument("--checkpoint-root", default=None,
                   help="directory for per-cell shard checkpoints "
                        "(default: no checkpointing)")
    c.add_argument("--plan-set", choices=("default", "socket", "both"),
                   default="default",
                   help="fault-plan family: the generic matrix, the TCP "
                        "disconnect/partition/slow-peer plans, or both")
    _add_plan_args(
        c, "--rendezvous",
        help="host:port of a running serve-rendezvous for socket cells "
             "(default: private per-run server)",
    )
    c.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (per-cell "
                        "outcome, attempts, recovery time, and socket "
                        "reconnect/replay counts) instead of the text "
                        "table")
    c.set_defaults(func=cmd_chaos)

    rz = sub.add_parser(
        "serve-rendezvous",
        help="run the roster server multi-host socket worlds bootstrap "
             "through",
    )
    rz.add_argument("--host", default="0.0.0.0",
                    help="interface to bind (default: all)")
    rz.add_argument("--port", type=_port, default=9310,
                    help="port to listen on (0 picks a free port)")
    rz.set_defaults(func=cmd_serve_rendezvous)

    sv = sub.add_parser(
        "serve",
        help="run the multi-tenant Kronecker ground-truth query server",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="interface to bind (default: loopback)")
    sv.add_argument("--port", type=_port, default=0,
                    help="port to listen on (0 picks a free port; the "
                         "bound port is printed as a REPRO_SERVE line)")
    sv.add_argument("--cache-size", type=_at_least_one, default=512,
                    help="analytics cache entries (LRU beyond this)")
    sv.add_argument("--trace-out", default=None,
                    help="write the request trace (Chrome/Perfetto JSON) "
                         "here on shutdown")
    sv.add_argument("--no-remote-shutdown", action="store_true",
                    help="disable POST /v1/admin/shutdown")
    sv.set_defaults(func=cmd_serve)

    lg = sub.add_parser(
        "loadgen",
        help="seeded load generator against a running serve",
    )
    _add_factor_args(
        lg,
        optional="factor {f} file to register (default: built-in {builtin})",
        loops_note="",
    )
    lg.add_argument("--target", default="auto",
                    help="host:port of the server, or 'auto' to read the "
                         "REPRO_SERVE line from --serve-output or stdin")
    lg.add_argument("--serve-output", default=None,
                    help="file capturing serve's stdout (for --target auto "
                         "when not piped)")
    lg.add_argument("--wait-s", type=float, default=30.0,
                    help="how long --target auto polls --serve-output")
    lg.add_argument("--seed", type=int, default=7,
                    help="workload seed (same seed -> same requests)")
    lg.add_argument("--concurrency", type=int, default=8,
                    help="concurrent workers, one connection each")
    lg.add_argument("--requests", type=int, default=2000,
                    help="total requests across all workers")
    lg.add_argument("--batch", type=int, default=256,
                    help="pairs per edge-query batch")
    lg.add_argument("--analytics-fraction", type=float, default=0.25,
                    help="fraction of requests that hit the analytics cache")
    lg.add_argument("--tenant", default="loadgen",
                    help="tenant name to register and query under")
    lg.add_argument("--out", default=None,
                    help="also write the JSON report to this file")
    lg.add_argument("--shutdown", action="store_true",
                    help="POST /v1/admin/shutdown when the run completes")
    lg.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A library error or an operating-system one (a missing factor file, a
    busy or refused port) is one ``error:`` line on stderr and exit 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
