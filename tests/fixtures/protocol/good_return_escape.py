"""GOOD: a request returned through two frames, completed at the top.

Each layer returning the request transfers the completion obligation to
its caller; the outermost caller waits.  Expected: no findings.
"""


def begin(comm, payload):
    return comm.alltoall_start(payload)


def begin_logged(comm, payload):
    req = begin(comm, payload)
    return req


def run(comm, payload):
    req = begin_logged(comm, payload)
    req.wait()
