"""The worker kit (``repro.parallel.workers``) under a dead parent.

Both process pools - ``ProcessEngine`` ranks and ``SegmentScheduler``
segment workers, plain or with process sessions of their own - start
their workers through the kit.  A pool whose owner is SIGKILLed must
leave nothing behind: every worker reads end-of-file on its pipe and
exits, and the resource tracker unlinks the owner's shared blocks once
the last worker is gone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src")]
    + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

_PREAMBLE = """
import time
from repro.potentials import LennardJones
from repro.structures import lattice_system

pot = LennardJones(epsilon=0.2, sigma=2.2, cutoff=3.0)
"""

_ENGINE = """
from repro.md import build_engine

engine = build_engine(lattice_system("fcc", a=2.5, reps=(3, 3, 3)), pot,
                      backend="process", nprocs=2)
engine.evaluate()
"""

_SERVICE = """
from repro.parsplice import SegmentScheduler

states = [lattice_system("fcc", a=2.5, reps=(3, 2, 2))]
sched = SegmentScheduler(states, pot, nworkers=2, nsteps=4, seed=7,
                         **{kwargs})
sched.gather(sched.request_batch([2]))
"""

POOLS = [
    pytest.param(_ENGINE, id="engine"),
    pytest.param(_SERVICE.format(kwargs="{}"), id="service-serial"),
    pytest.param(_SERVICE.format(kwargs='{"backend": "process", '
                                        '"nprocs": 2}'),
                 id="service-process"),
]


def _descendants(root: int) -> set[int]:
    """Pids of every live process below ``root`` (Linux ``/proc``)."""
    children: dict[int, list[int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we looked
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, todo = set(), [root]
    while todo:
        for pid in children.get(todo.pop(), ()):
            found.add(pid)
            todo.append(pid)
    return found


def _running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _blocks(pids) -> list[str]:
    return [p.name for pid in pids
            for p in Path("/dev/shm").glob(f"repro-pe-{pid}-*")]


@pytest.mark.skipif(not Path("/proc/self/stat").exists()
                    or not Path("/dev/shm").is_dir(),
                    reason="needs Linux /proc and /dev/shm")
@pytest.mark.parametrize("pool", POOLS)
def test_dead_parent_leaves_no_worker_and_no_block(pool, tmp_path):
    """SIGKILL the process that owns a pool: within 10 s no worker it
    started is running and no ``repro-pe-*`` block of the owner, or of a
    segment worker that owned an engine, is left in /dev/shm."""
    script = textwrap.dedent(_PREAMBLE) + textwrap.dedent(pool) + \
        'print("ready", flush=True)\ntime.sleep(600)\n'
    stderr = tmp_path / "stderr"
    with open(stderr, "w") as err:
        owner = subprocess.Popen([sys.executable, "-c", script],
                                 env=SRC_ENV, stdout=subprocess.PIPE,
                                 stderr=err, text=True)
    tree: set[int] = set()
    try:
        assert owner.stdout.readline().strip() == "ready", \
            stderr.read_text()
        tree = _descendants(owner.pid)
        assert len(tree) >= 2, "the pool started no workers"
        os.kill(owner.pid, signal.SIGKILL)
        owner.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while True:
            running = sorted(pid for pid in tree if _running(pid))
            leaked = _blocks(tree | {owner.pid})
            if not running and not leaked:
                break
            assert time.monotonic() < deadline, (
                f"10 s after the owner died: running {running}, "
                f"blocks {leaked}")
            time.sleep(0.05)
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
        for pid in tree:  # what a failed run left behind
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        for name in _blocks(tree | {owner.pid}):
            (Path("/dev/shm") / name).unlink(missing_ok=True)
