"""Shared helpers imported by the cross-module protocol fixtures."""


def begin_exchange(comm, outgoing):
    """Split-phase start: the caller owns the returned request."""
    return comm.alltoall_start(outgoing)


def end_exchange(comm, request):
    """Split-phase finish: completes a request started elsewhere."""
    return comm.alltoall_finish(request)
