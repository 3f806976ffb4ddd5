"""GOOD: a conditionally-started request, drained under a None test.

The join after the first ``if`` leaves ``req`` possibly-None and
possibly-in-flight; the refined drain covers exactly the in-flight
half.  Expected: no findings.
"""


def run(comm, payload, eager):
    req = None
    if eager:
        req = comm.alltoall_start(payload)
    if req is not None:
        req.wait()
    return payload
