"""Streaming validation: check ground truth while the product is generated.

Section V-B notes closeness "can compute ... as we build C"; more broadly,
any additively-decomposable statistic can be validated from the generation
stream without ever holding the product.  :class:`StreamingValidator`
consumes edge chunks (from :func:`repro.kronecker.product.iter_kron_product`
or a rank's pipeline) and accumulates:

* directed edge count,
* self-loop count,
* out-degree vector,
* an edge-hash fingerprint
  (:func:`repro.util.hashing.edge_fingerprint`: order-independent, so any
  permutation of the same multiset matches, and additive, so a duplicated
  edge does not cancel out).

``finish()`` compares the accumulated statistics against the Kronecker
counting laws and returns a standard
:class:`~repro.validation.checks.CheckResult` list.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AssumptionError
from repro.graph.edgelist import EdgeList
from repro.util.hashing import edge_fingerprint, merge_fingerprints
from repro.validation.checks import CheckResult

__all__ = ["StreamingValidator"]


class StreamingValidator:
    """Accumulate product-edge chunks and validate against factor laws.

    Parameters
    ----------
    el_a, el_b:
        The factors (any self-loop regime); the expected statistics are
        derived from them up front.
    """

    def __init__(self, el_a: EdgeList, el_b: EdgeList) -> None:
        self._n = el_a.n * el_b.n
        self._expect_edges = el_a.m_directed * el_b.m_directed
        loops_a = el_a.deduplicate().num_self_loops
        loops_b = el_b.deduplicate().num_self_loops
        # duplicates in inputs multiply into the product; use deduped factors
        self._dedup_expect = (
            el_a.deduplicate().m_directed * el_b.deduplicate().m_directed
        )
        self._expect_loops = loops_a * loops_b
        da = np.bincount(el_a.deduplicate().src, minlength=el_a.n)
        db = np.bincount(el_b.deduplicate().src, minlength=el_b.n)
        self._expect_outdeg = np.kron(da, db)
        self._seen_edges = 0
        self._seen_loops = 0
        self._outdeg = np.zeros(self._n, dtype=np.int64)
        self._fingerprint = 0
        self._finished = False

    # ------------------------------------------------------------------ #
    def consume(self, chunk: np.ndarray) -> None:
        """Fold one ``(c, 2)`` edge chunk into the running statistics."""
        if self._finished:
            raise AssumptionError("validator already finished")
        chunk = np.asarray(chunk, dtype=np.int64).reshape(-1, 2)
        if chunk.size and int(chunk.max()) >= self._n:
            raise AssumptionError("edge endpoint outside the product range")
        self._seen_edges += len(chunk)
        self._seen_loops += int(np.count_nonzero(chunk[:, 0] == chunk[:, 1]))
        self._outdeg += np.bincount(chunk[:, 0], minlength=self._n)
        self._fingerprint = merge_fingerprints(
            (self._fingerprint, edge_fingerprint(chunk))
        )

    def fingerprint(self) -> int:
        """Order-independent hash of everything consumed so far."""
        return self._fingerprint

    # ------------------------------------------------------------------ #
    def finish(self) -> list[CheckResult]:
        """Compare accumulated statistics against the counting laws."""
        self._finished = True
        results = [
            CheckResult(
                "stream_edge_count",
                self._seen_edges == self._dedup_expect,
                f"saw {self._seen_edges}, law {self._dedup_expect}",
            ),
            CheckResult(
                "stream_self_loops",
                self._seen_loops == self._expect_loops,
                f"saw {self._seen_loops}, law {self._expect_loops}",
            ),
            CheckResult(
                "stream_out_degrees",
                bool(np.array_equal(self._outdeg, self._expect_outdeg)),
                f"max |diff| = "
                f"{int(np.abs(self._outdeg - self._expect_outdeg).max()) if self._n else 0}",
            ),
        ]
        return results

    @property
    def passed(self) -> bool:
        """``True`` iff a subsequent :meth:`finish` would report all-pass.

        Peeks without finalizing (useful for mid-stream progress checks the
        final statistics will not pass until the stream completes).
        """
        return (
            self._seen_edges == self._dedup_expect
            and self._seen_loops == self._expect_loops
            and bool(np.array_equal(self._outdeg, self._expect_outdeg))
        )
