"""BAD: the request is completed on only one branch.

When ``flag`` is false the function returns with the exchange still in
flight.  Expected: protocol-leak (in flight at function exit).
"""


def lost_on_branch(comm, payload, flag):
    req = comm.alltoall_start(payload)
    if flag:
        req.wait()
    return payload
