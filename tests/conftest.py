"""Shared fixtures: small factor graphs spanning the structural regimes."""

from __future__ import annotations

import glob
import multiprocessing
import os
import tempfile
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.distributed.checked import CHECK_ENV
from repro.distributed.comm import poll_interval
from repro.distributed.mpcomm import Arena
from repro.graph import (
    clique,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    path,
    star,
    stochastic_block_model,
)


# The suite runs every thread world under the collective-order sentinel:
# a divergent collective sequence fails in seconds, naming both call
# sites, instead of hanging until a recv timeout (EXPERIMENTS.md L17).
# Set the variable to 0 to run without it.
os.environ.setdefault(CHECK_ENV, "1")


def arenas() -> set[str]:
    """The world arenas (``repro-world-*`` directories) that exist now."""
    root = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
    return set(glob.glob(os.path.join(root, "repro-world-*")))


#: Every world arena this pytest process has created.  The module guard
#: counts only these: another run on the same host makes arenas under the
#: same prefix, and a CLI subprocess's arenas are checked from the shell.
_OUR_ARENAS: set[str] = set()


@pytest.fixture(scope="session", autouse=True)
def record_arenas():
    """Record the path of every :class:`Arena` made in this process."""
    init = Arena.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _OUR_ARENAS.add(self.path)

    with mock.patch.object(Arena, "__init__", recording):
        yield


def _leftovers(threads, children, worlds) -> list:
    """The rank, socket or rendezvous threads, child processes and arenas
    alive now that were not alive at the snapshot ``(threads, children,
    worlds)``."""
    return [
        *(t.name for t in threading.enumerate()
          if t.name.startswith(("rank-", "sock-", "rendezvous-"))
          and t not in threads),
        *(f"pid {p.pid}" for p in multiprocessing.active_children()
          if p not in children),
        *sorted(p for p in _OUR_ARENAS - worlds if os.path.exists(p)),
    ]


@pytest.fixture(scope="module", autouse=True)
def nothing_outlives_the_module(record_arenas):
    """Fail a module that leaves a thread, a process or an arena it started
    alive 2 x ``poll_interval()`` after its last test."""
    before = (
        set(threading.enumerate()), set(multiprocessing.active_children()),
        set(_OUR_ARENAS),
    )
    yield
    deadline = time.monotonic() + 2 * poll_interval()
    while (left := _leftovers(*before)) and time.monotonic() < deadline:
        time.sleep(poll_interval() / 10)
    assert not left, f"still alive after the module: {left}"


@pytest.fixture
def k4():
    """Complete graph on 4 vertices (triangle-rich, vertex-transitive)."""
    return clique(4)


@pytest.fixture
def c5():
    """5-cycle (triangle-free, diameter 2)."""
    return cycle(5)


@pytest.fixture
def p4():
    """Path on 4 vertices (tree, leaves of degree 1)."""
    return path(4)


@pytest.fixture
def star6():
    """Star with 5 leaves (hub-and-spoke, degree-1 leaves)."""
    return star(6)


@pytest.fixture
def er_a():
    """Seeded dense-ish ER factor (connected at this density/seed)."""
    return erdos_renyi(10, 0.5, seed=101)


@pytest.fixture
def er_b():
    """Second independent ER factor."""
    return erdos_renyi(8, 0.55, seed=202)


@pytest.fixture
def sbm_two_blocks():
    """Two dense blocks, sparse between: community-structured factor."""
    return stochastic_block_model([6, 6], 0.9, 0.15, seed=303)


@pytest.fixture
def two_triangles():
    """Two disjoint triangles (disconnected; triangle-bearing)."""
    return disjoint_cliques(2, 3)


def random_connected_factor(n: int, seed: int):
    """Connected loop-free ER factor, retrying density until connected."""
    from repro.analytics.components import is_connected

    p = 0.3
    for bump in range(6):
        g = erdos_renyi(n, min(1.0, p + 0.12 * bump), seed=seed + bump)
        if g.n and is_connected(g):
            return g
    return clique(n)


def drop_one_edge(build):
    """A product builder that drops the first non-loop undirected edge of
    ``build``'s output: a wrong product for the validation harness."""
    from repro.graph import EdgeList

    def wrong(el_a, el_b):
        c = build(el_a, el_b)
        u, v = next((u, v) for u, v in c.edges if u != v)
        hit = ((c.src == u) & (c.dst == v)) | ((c.src == v) & (c.dst == u))
        return EdgeList(c.edges[~hit], c.n)

    return wrong
