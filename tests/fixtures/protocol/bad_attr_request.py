"""BAD: a request stored on an attribute that nothing ever completes.

No method in the whole program waits on ``_orphan``, so the exchange can
never finish.  Expected: protocol-leak at the start.
"""


class Sender:
    def __init__(self, comm):
        self.comm = comm
        self._orphan = None

    def post(self, payload):
        self._orphan = self.comm.alltoall_start(payload)

    def status(self):
        return self._orphan is not None
