"""The worker kit: the one way the repo starts, feeds, fails and reaps
worker processes - the :class:`~repro.parallel.ProcessEngine` ranks and
the :class:`~repro.parsplice.SegmentScheduler` segment workers alike.

A :class:`Worker` is a process with a duplex pipe, running a *server*
built in the child as ``server_cls(*args)``: its ``hello`` is the first
reply, each request is answered with ``server(request)``, ``None`` stops
it, and ``server.close()`` runs on the way out.  An exception travels
back in one remote-error envelope and the worker goes on serving.  The
child closes its copy of the parent's pipe end, so a dead parent reads
as end-of-file and the worker exits.  The parent blocks in :func:`wait`
on pipes and process sentinels together - no timed poll - and stops a
pool with :func:`reap`, from :func:`finalizer` at the latest.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from multiprocessing import connection
from multiprocessing import util as mp_util

__all__ = ["Worker", "finalizer", "reap", "wait", "worker_context"]

#: seconds a terminated worker gets before it is killed
_TERMINATE_GRACE_S = 2.0


def worker_context():
    """The ``multiprocessing`` context every worker starts from: ``fork``
    where the platform has it (cheap, copy-on-write potential tables and
    templates, nothing has to pickle), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# ======================================================================
# worker side
# ======================================================================
def _send_error(conn, err: Exception) -> None:
    """Report ``err`` and the current traceback to the parent."""
    trace = traceback.format_exc()
    try:
        conn.send(("error", (err, trace)))
    except (pickle.PicklingError, TypeError, AttributeError):
        # an exception that does not pickle still gets reported
        conn.send(("error", (RuntimeError(f"{type(err).__name__}: {err}"),
                             trace)))


def _serve(conn, parent_end, server_cls, args) -> None:
    """Process entry point: build the server, then answer requests."""
    # the inherited copy of the parent's end would hide the parent's
    # death from recv() below
    parent_end.close()
    try:
        server = server_cls(*args)
    except Exception as err:
        _send_error(conn, err)
        return
    try:
        conn.send(("ok", server.hello))
        for request in iter(conn.recv, None):
            try:
                reply = server(request)
            except Exception as err:
                _send_error(conn, err)
            else:
                conn.send(("ok", reply))
    except (EOFError, OSError):
        pass  # the parent is gone: nobody is left to answer
    finally:
        server.close()


# ======================================================================
# parent side
# ======================================================================
class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as the ``__cause__``."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


class Worker:
    """Parent-side handle of one worker process: its pipe and sentinel.
    ``daemon`` is the one per-pool choice."""

    def __init__(self, name: str, server_cls, *args, daemon: bool) -> None:
        ctx = worker_context()
        self.name = name
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, name=name, daemon=daemon,
                                args=(child_end, self.conn, server_cls, args))
        self.proc.start()
        child_end.close()

    def send(self, request) -> None:
        """Hand the worker one request.  A dead worker drops it: its
        sentinel is ready, so the next :func:`wait` reports the death."""
        try:
            self.conn.send(request)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def reply(self):
        """The worker's next reply; call it once :func:`wait` has named
        this worker.  The worker's own exception is re-raised with its
        traceback as the cause; a dead worker raises :class:`EOFError`."""
        try:
            message = self.conn.recv() if self.conn.poll() else None
        except EOFError:
            message = None
        if message is None:
            self.proc.join(timeout=1.0)  # it is exiting: get its code
            raise EOFError(f"worker {self.name} died "
                           f"(exit code {self.proc.exitcode})")
        kind, payload = message
        if kind == "error":
            err, trace = payload
            raise err from _RemoteTraceback(trace)
        return payload


def wait(workers, timeout: float | None = None) -> list[Worker]:
    """Block until one of ``workers`` has a reply or has died; returns
    them, one entry per ready pipe or sentinel (so a worker that died
    may show up twice), or ``[]`` after ``timeout`` seconds."""
    owner = {}
    for worker in workers:
        owner[worker.conn] = owner[worker.proc.sentinel] = worker
    return [owner[ready] for ready in connection.wait(list(owner), timeout)]


def _join(workers, timeout: float) -> None:
    """Wait on the sentinels of the live ``workers`` until all have
    exited or ``timeout`` seconds have passed."""
    deadline = time.monotonic() + timeout
    live = {w.proc.sentinel: w for w in workers if w.proc.exitcode is None}
    while live:
        left = deadline - time.monotonic()
        if left <= 0:
            return
        for sentinel in connection.wait(list(live), left):
            del live[sentinel]


def reap(workers, grace: float) -> None:
    """Stop ``workers`` (``None`` entries skipped; idempotent): send
    stop, give all ``grace`` seconds on one deadline to exit, then
    terminate what is left, and kill what survives that."""
    workers = [w for w in workers if w is not None]
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:
            pass  # dead already, or reaped before
    _join(workers, grace)
    for worker in workers:
        if worker.proc.exitcode is None:
            worker.proc.terminate()
    _join(workers, _TERMINATE_GRACE_S)
    for worker in workers:
        if worker.proc.exitcode is None:
            worker.proc.kill()
        worker.proc.join()
        worker.conn.close()


def finalizer(owner, callback, *args):
    """The one finalizer kind both pools use: ``callback(*args)`` runs
    once - when the returned object is called (``close()``), when
    ``owner`` is collected, or at exit before ``multiprocessing`` reaps
    children its own way - and never in a forked worker."""
    return mp_util.Finalize(owner, callback, args=args, exitpriority=10)
