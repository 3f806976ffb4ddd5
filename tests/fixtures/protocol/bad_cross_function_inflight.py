"""BAD: mutating a buffer that a *helper* put in flight.

``begin_exchange`` starts an alltoall on its parameter and returns the
request, so the caller's ``outgoing`` is owned by the runtime until the
finish -- but the caller appends to it first.  The start is in another
function (and another module), so this is not inflight-buffer but its
cross-function name.  Expected: protocol-inflight at the ``append``.
"""

from proto_helpers import begin_exchange, end_exchange


def run(comm, outgoing):
    pending = begin_exchange(comm, outgoing)
    outgoing.append([9, 9])
    return end_exchange(comm, pending)
