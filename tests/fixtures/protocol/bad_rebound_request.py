"""BAD: the request variable is rebound while still in flight.

The first round's request is overwritten by the second start without
ever being waited on.  Expected: protocol-leak at the rebinding start.
"""


def double_start(comm, first, second):
    req = comm.alltoall_start(first)
    req = comm.alltoall_start(second)
    req.wait()
