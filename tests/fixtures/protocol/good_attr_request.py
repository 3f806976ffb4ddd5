"""GOOD: an attribute-stored request that another method completes.

``drain`` waits on ``_pending``, so the attribute start in ``post``
carries no leak.  Expected: no findings.
"""


class Sender:
    def __init__(self, comm):
        self.comm = comm
        self._pending = None

    def post(self, payload):
        self._pending = self.comm.alltoall_start(payload)

    def drain(self):
        if self._pending is not None:
            self._pending.wait()
