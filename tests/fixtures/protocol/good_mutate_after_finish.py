"""GOOD: the buffer is mutated only after its request completes.

The append happens after ``end_exchange``.  Expected: no findings.
"""

from proto_helpers import begin_exchange, end_exchange


def run(comm, outgoing):
    pending = begin_exchange(comm, outgoing)
    incoming = end_exchange(comm, pending)
    outgoing.append([9, 9])
    return incoming
