"""BAD: a rank-guarded call reaches a collective one frame down.

The collective-symmetry rule stays quiet here because ``checkpoint``
itself is symmetric -- only the *call* diverges.
Expected: protocol-divergence at the ``checkpoint(...)`` call.
"""


def checkpoint(comm, edges):
    gathered = comm.gather(edges, root=0)
    return gathered


def run(comm, edges):
    if comm.rank == 0:
        checkpoint(comm, edges)
    return edges
