"""Checks that take minutes or race-hunting repeats: each runs in its own CI
job (``pytest -m ci_only <id>``), and tier-1 deselects them."""

import json
import re
import time

import numpy as np
import pytest

from repro.cli import main
from repro.distributed import CheckpointStore
from repro.skg import SKGSpec, expected_edge_rows

pytestmark = pytest.mark.ci_only


def test_skg_at_k16_is_linear_in_its_edges(tmp_path, capsys):
    """The SKG sampler's work is proportional to the edges it emits: k=16
    (4.3e9 candidate pairs, ~3.4e6 rows) finishes well inside a minute on
    2 process ranks, lands within 5 sigma of the closed-form expected row
    count and reads back through the verified store.  The same spec on 3
    ranks stores the same edge set: the rank partition of the sampler's
    chunks moves no sample."""
    stdout = {}
    for ranks in (2, 3):
        start = time.monotonic()
        assert main([
            "generate", "--model", "skg", "--seed-matrix", "polblogs",
            "--skg-k", "16", "--ranks", str(ranks), "--backend", "process",
            "--out", str(tmp_path / f"r{ranks}"),
        ]) == 0
        assert time.monotonic() - start < 60
        stdout[ranks] = capsys.readouterr().out
    printed = int(
        re.search(r"^REPRO_SKG .* edges=(\d+) ", stdout[2], re.M).group(1)
    )
    # Rows are mirrored Bernoulli(p) hits over u < v:
    # Var = 2 * sum over u != v of p (1 - p), in closed form.
    spec = SKGSpec.from_library("polblogs", k=16)
    t = spec.matrix()
    off = expected_edge_rows(spec)
    off_sq = float(np.sum(t * t)) ** 16 - float(t[0, 0]**2 + t[1, 1]**2) ** 16
    sigma = (2.0 * (off - off_sq)) ** 0.5
    assert abs(printed - off) <= 5 * sigma, (printed, off, sigma)
    store = CheckpointStore(tmp_path / "r2")
    (manifest,) = store.manifests()
    assert store.load_run(manifest).m_directed == printed
    (three,) = CheckpointStore(tmp_path / "r3").manifests()
    assert (three.nranks, manifest.nranks) == (3, 2)
    assert (three.union_digest, three.edges_total) == (
        manifest.union_digest, manifest.edges_total
    ), "k=16 edge set moved with the world size"


@pytest.mark.parametrize("round_", range(5))
def test_socket_chaos_heals_every_disconnect(round_, capsys):
    """Seeded disconnects, a partition and a slow peer over sockets: every
    cell stays bit-identical AND exercises the healing path -- a
    disconnect cell with zero reconnects means the fault landed after the
    traffic it was meant to break.  Five rounds, so that a count that
    depends on a race (harvest vs heal thread: one run in four to eight
    lost it) fails here."""
    assert main([
        "chaos", "--ranks", "4", "--seed", "0", "--timeout", "5",
        "--backends", "socket", "--json",
    ]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert cells, "socket chaos produced no cells"
    for cell in cells:
        assert cell["identical"], f"non-identical: {cell['plan']}"
        if "disc" in cell["plan"]:
            assert cell["reconnects"] >= 1, (
                f"{cell['plan']}: disconnect never healed "
                f"(reconnects={cell['reconnects']})"
            )
