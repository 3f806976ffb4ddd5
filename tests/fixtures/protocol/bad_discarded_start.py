"""BAD: fire-and-forget split-phase exchanges.

The alltoall_start request is dropped on the floor, so the exchange can
never be completed; the helper variant leaks the request a frame up,
through a discarded return value.  Expected: protocol-leak at both call sites.
"""


def fire_and_forget(comm, payload):
    comm.alltoall_start(payload)


def begin(comm, payload):
    return comm.alltoall_start(payload)


def discard_helper_request(comm, payload):
    begin(comm, payload)
