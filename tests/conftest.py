"""Shared fixtures: small factor graphs spanning the structural regimes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    clique,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    path,
    star,
    stochastic_block_model,
)


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
