"""The seeded-bug ledger: hand-made source mutants and what each attacks.

One row per mutant: a file (relative to the repository root), the exact
text it replaces (which must occur exactly once in that file), the new
text, the bug's shape and the contract it attacks.

Contracts:

``bitwise``
    every backend equals the serial engine to the bit
    (``ProcessEngine`` is the one other backend) and the force assembly
    keeps the ``np.add.at`` order its references pin;
``restart`` / ``rebind`` / ``segment-purity``
    resumed run = uninterrupted run; rebound engine = fresh engine;
    a ParSplice segment = a pure function of (template, state, seed);
``physics``
    forces = -grad E, descriptors equal the reference implementation;
``engine-protocol`` / ``phase-registry``
    an engine implements the ``ForceEngine`` surface; every timed phase
    name is registered;
``shm-lifecycle`` / ``observability``
    no leaked ``/dev/shm`` segment on any exit path; timers and ledgers
    (the halo census's too) report what happened;
``fault-recovery``
    a dead segment worker is replaced once and its segment retried
    within its budget; a failed trajectory write reaches the caller and
    counts no frame;
``validation``
    input that describes no system (a non-finite coordinate or box
    length) raises ``ValueError`` instead of giving a result;
``aliasing``
    no array an engine returns is a view of a buffer a later step
    reuses (the neighbour list's scratch, a shared block);
``import-cost``
    ``import repro`` loads no module that only one rarely used
    function needs;
``step-cost``
    a step of the 64-atom ParSplice replica makes no more interpreter
    calls than the floor ``tests/test_step_floor.py`` pins; the first
    step after a process engine's ``bind()`` builds each rank's list
    once;
``none``
    the row changes no observable behaviour (``why`` says why); it can
    give no net a unique kill.

This module is data only: pytest does not collect it (no ``test_``
prefix), ``tests/mutants/drive.py`` applies the rows to a scratch copy
of the tree, and ``tests/test_mutant_ledger.py`` checks that every row
still applies.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Mutant", "ROWS", "CONTRACTS"]

CONTRACTS = ("bitwise", "restart", "rebind", "segment-purity", "physics",
             "engine-protocol", "phase-registry", "shm-lifecycle",
             "observability", "fault-recovery", "validation", "aliasing",
             "import-cost", "step-cost", "none")


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str
    old: str
    new: str
    shape: str
    contract: str
    #: for ``contract == "none"``: why no behaviour changes
    why: str = ""


SNAP = "src/repro/core/snap.py"
NEIGH = "src/repro/md/neighbor.py"
BOX = "src/repro/md/box.py"
ENGINE = "src/repro/md/engine.py"
PROC = "src/repro/parallel/process_engine.py"
HALO = "src/repro/parallel/halo.py"
SEGS = "src/repro/parsplice/segments.py"
SERVICE = "src/repro/parsplice/service.py"
SHM = "src/repro/parallel/shm.py"
KIT = "src/repro/parallel/workers.py"
TRAIN = "src/repro/train/dataset.py"
TRAJ = "src/repro/md/trajectory.py"
INTEG = "src/repro/md/integrators.py"
TIMERS = "src/repro/md/timers.py"
LJ = "src/repro/potentials/lj.py"

#: the process worker's rebuild-step incidence build, verbatim
_INCIDENCE = (
    "        if rebuilt:\n"
    "            # neighbor incidence of the owned window, grouped by owned\n"
    "            # atom, ascending global pair index within each atom: the\n"
    "            # gather order that equals the serial j-sorted slab\n"
    "            jall = self.jref.array[:need]\n"
    "            inc = np.nonzero((jall >= self.alo) & (jall < self.ahi))[0]\n"
    "            order = np.argsort(jall[inc], kind=\"stable\")\n"
    "            self.inc = inc[order]\n"
    "            self.incj = jall[self.inc]\n"
    "            self.cross = ((self.inc < self.ref_off)\n"
    "                          | (self.inc >= self.ref_off + ref.npairs))\n")

ROWS: tuple[Mutant, ...] = (
    # ------------------------------------------------------------------
    # reductions and the one force assembly
    # ------------------------------------------------------------------
    Mutant(
        "scatter-add-reversed", SNAP,
        old="    return np.bincount(index, weights=weights, minlength=size)\n",
        new=("    out = np.zeros(size)\n"
             "    np.add.at(out, index[::-1], weights[::-1])\n"
             "    return out\n"),
        shape="reduction reordered: bincount -> add.at in reverse order",
        contract="bitwise"),
    Mutant(
        "scatter-sides-swapped", SNAP,
        old=("    np.concatenate((j_idx, i_idx), out=index)\n"
             "    weights = work_array(scratch, \"scatter.weights\", nall)\n"
             "    forces = np.empty((size, 3))\n"
             "    for c in range(3):\n"
             "        np.negative(dedr_j[:, c], out=weights[:nj])\n"
             "        weights[nj:] = dedr_i[:, c]\n"),
        new=("    np.concatenate((i_idx, j_idx), out=index)\n"
             "    weights = work_array(scratch, \"scatter.weights\", nall)\n"
             "    ni = i_idx.size\n"
             "    forces = np.empty((size, 3))\n"
             "    for c in range(3):\n"
             "        weights[:ni] = dedr_i[:, c]\n"
             "        np.negative(dedr_j[:, c], out=weights[ni:])\n"),
        shape="the two sides of scatter_pair_forces swapped (own rows "
              "first)",
        contract="bitwise"),
    Mutant(
        "scatter-shuffled-unseeded", SNAP,
        old="        forces[:, c] = scatter_add(index, weights, size)\n",
        new=("        perm = np.random.default_rng().permutation(index.size)\n"
             "        forces[:, c] = scatter_add(index[perm], weights[perm],"
             " size)\n"),
        shape="unseeded rng reaches the fixed-order accumulator",
        contract="bitwise"),
    Mutant(
        "scatter-empty-uninitialised", SNAP,
        old=("    if index.size == 0:  # bincount of nothing is int64, not "
             "float64\n"
             "        return np.zeros(size)\n"),
        new=("    if index.size == 0:  # bincount of nothing is int64, not "
             "float64\n"
             "        out = np.empty(size)\n"
             "        return out\n"),
        shape="np.empty buffer escapes unfilled (an empty pair list)",
        contract="physics"),
    Mutant(
        "density-zero-padded-segment", SNAP,
        old=("                starts = np.flatnonzero(np.r_[True, "
             "np.diff(idx) != 0])\n"
             "                rows = idx[starts] - a0\n"),
        new=("                rows = np.arange(idx[0], idx[-1] + 1) - a0\n"
             "                starts = np.searchsorted(idx, rows + a0)\n"),
        shape="zero-padded reduceat segment: an atom with no pairs in the "
              "chunk reads its successor's first term",
        contract="physics"),
    Mutant(
        "density-rows-assumed-sorted", SNAP,
        old="        if bool(np.all(np.diff(nbr.i_idx) >= 0)):\n",
        new="        if True:\n",
        shape="an unsorted list skips the sort on entry: atom ranges are "
              "cut from a searchsorted over unsorted ids",
        contract="physics"),
    Mutant(
        "stage2-one-column", SNAP,
        old="            w = max(m, 2)  # one atom runs as two copies of its column\n",
        new="            w = m\n",
        shape="a one-atom stage-2 block runs unpadded and rounds its "
              "products differently from the atom inside a wider block",
        contract="bitwise"),
    Mutant(
        "half-energy-one-end", SNAP,
        old=("    np.multiply(bond_j, 0.5, out=weights[:nj])\n"
             "    np.multiply(bond_i, 0.5, out=weights[nj:])\n"),
        new=("    weights[:nj] = 0.0\n"
             "    weights[nj:] = bond_i\n"),
        shape="a half-list bond's energy credited to its first atom only "
              "(totals hold, per-atom energies do not)",
        contract="physics"),
    Mutant(
        "virial-in-scratch", SNAP,
        old=("    return EnergyForces(energy=float(peratom.sum()), "
             "peratom=peratom,\n"
             "                        forces=forces, "
             "virial=-(nbr.rij.T @ dedr))\n"),
        new=("    virial = work_array(nbr.scratch, \"virial\", 3, 3)\n"
             "    np.negative(nbr.rij.T @ dedr, out=virial)\n"
             "    return EnergyForces(energy=float(peratom.sum()), "
             "peratom=peratom,\n"
             "                        forces=forces, virial=virial)\n"),
        shape="the assembly returns a virial that lives in the list's "
              "scratch: a held result's virial changes under the next step",
        contract="aliasing"),
    Mutant(
        "y-factor-dropped", SNAP,
        old="        y_op = (fold_op @ sps.diags(row_factor * self.beta[1 + "
            "row_b])\n",
        new="        y_op = (fold_op @ sps.diags(self.beta[1 + row_b])\n",
        shape="beta-folded Y row uses the unfolded weight (role "
              "multiplicity lost)",
        contract="physics"),
    Mutant(
        "take-clip-dropped", SNAP,
        old=('                np.take(ut, plan["pi1"][k0:k1], axis=0, out=a, '
             'mode="clip")\n'),
        new='                np.take(ut, plan["pi1"][k0:k1], axis=0, out=a)\n',
        shape='mode="clip" dropped from a np.take(out=)',
        contract="none",
        why="indices are checked once at plan build; mode='raise' only "
            "buffers the output (time and memory, no value changes)"),
    # ------------------------------------------------------------------
    # neighbour lists
    # ------------------------------------------------------------------
    Mutant(
        "mirror-sign", NEIGH,
        old=("        d, d2 = np.concatenate([d, -d]), np.concatenate([d2, "
             "d2])\n"),
        new=("        d, d2 = np.concatenate([d, d]), np.concatenate([d2, "
             "d2])\n"),
        shape="the mirrored half list keeps +d", contract="physics"),
    Mutant(
        "rows-window-off-by-one", NEIGH,
        old=("    inwin = np.flatnonzero((i_idx >= rows[0]) & (i_idx < "
             "rows[1]))\n"),
        new=("    inwin = np.flatnonzero((i_idx >= rows[0]) & (i_idx <= "
             "rows[1]))\n"),
        shape="rows window off by one (the next rank's first row)",
        contract="bitwise"),
    Mutant(
        "sweep-order-drops-image", NEIGH,
        old="        key = key * 5 + np.take(shift, sel)\n",
        new="        key = key * 5\n",
        shape="the image sweep sorts on (i, j) without its image key",
        contract="bitwise"),
    Mutant(
        "half-self-image-dropped", NEIGH,
        old=("        keep = np.flatnonzero((i_idx < j_idx)\n"
             "                              | ((i_idx == j_idx) & "
             "(key > 125 * i_idx)))\n"),
        new="        keep = np.flatnonzero(i_idx < j_idx)\n",
        shape="the sweep's half filter loses the bonds of an atom to its "
              "own images",
        contract="physics"),
    Mutant(
        "sweep-nonfinite-silent", NEIGH,
        old=("    if not np.isfinite(positions).all():\n"
             "        raise ValueError(\"positions must be finite (NaN or inf "
             "found)\")\n"),
        new="",
        shape="no finite check: the image sweep drops every pair of a NaN "
              "atom without a word (the tree path still raises, in SciPy)",
        contract="validation"),
    Mutant(
        "refresh-skin-test-nan-blind", NEIGH,
        old="        if not (disp * disp).sum(axis=1).max() <= reach ** 2:\n",
        new="        if (disp * disp).sum(axis=1).max() > reach ** 2:\n",
        shape="the skin test reads NaN as 'not moved': a NaN atom is "
              "refreshed, fails r < cutoff and loses its pairs silently",
        contract="validation"),
    Mutant(
        "rdf-from-a-full-list", NEIGH,
        old="        if (ref is None or not self.half or self.rows is not None\n",
        new="        if (ref is None or self.rows is not None\n",
        shape="a full list (every bond twice) serves the RDF observer's "
              "half-list bond lengths: its counts double",
        contract="physics"),
    Mutant(
        "outer-set-full-margin", NEIGH,
        old="                0.5 * margin * (1.0 - _OUTER_SLACK)) is None:\n",
        new="                margin * (1.0 - _OUTER_SLACK)) is None:\n",
        shape="the outer candidate set serves until an atom moved the whole "
              "margin, not half of it: two atoms closing on each other by "
              "up to twice the margin drop a pair from the pruned list",
        contract="physics"),
    Mutant(
        "box-equal-ignores-periodic", BOX,
        old=("        return (self.periodic == other.periodic\n"
             "                and self.lengths.tolist() == "
             "other.lengths.tolist())\n"),
        new="        return self.lengths.tolist() == other.lengths.tolist()\n",
        shape="a box equals another of the same lengths and other "
              "periodic axes (a list built for one serves the other)",
        contract="physics"),
    Mutant(
        "box-nonfinite-length", BOX,
        old="        if np.any(lengths <= 0) or not np.isfinite(lengths).all():\n",
        new="        if np.any(lengths <= 0):\n",
        shape="Box accepts a NaN or inf length (a checkpoint's or a frame's)",
        contract="validation"),
    # ------------------------------------------------------------------
    # the process backend
    # ------------------------------------------------------------------
    Mutant(
        "gather-ignores-kept-mask", PROC,
        old="        kmask = self.kept.array[self.inc]\n",
        new="        kmask = np.ones(self.inc.size, dtype=bool)\n",
        shape="skin filter applied after the reduce: stale dropped-pair "
              "slots are gathered",
        contract="bitwise"),
    Mutant(
        "gather-order-unstable", PROC,
        old='            order = np.argsort(jall[inc], kind="stable")\n',
        new="            order = np.argsort(jall[inc])\n",
        shape="neighbour-side gather sorted without kind='stable'",
        contract="bitwise"),
    Mutant(
        "incidence-before-barrier", PROC,
        old=("        self.barrier.wait()\n"
             "        t4 = time.perf_counter()\n"
             + _INCIDENCE
             + "        t5 = time.perf_counter()\n"),
        new=("        t4 = time.perf_counter()\n"
             + _INCIDENCE
             + "        self.barrier.wait()\n"
             "        t5 = time.perf_counter()\n"),
        shape="the incidence is built from the other ranks' neighbor ids "
              "before the values barrier (a late rank's ids are stale); "
              "the barrier moves behind it",
        contract="bitwise"),
    Mutant(
        "generation-keeps-list", PROC,
        old=("            if box is None:\n"
             "                box = self.neighbors.box\n"),
        new="",
        shape="new pair blocks without a new cell keep the rank's list: "
              "the re-run step does not rebuild, so it publishes no "
              "topology into the regrown blocks",
        contract="bitwise"),
    Mutant(
        "virial-ranks-via-set", PROC,
        old="        for rank in range(self.nprocs):  # fixed rank order\n",
        new="        for rank in set(range(self.nprocs)):  # fixed rank order\n",
        shape="a set of ranks iterated into virial +=",
        contract="none",
        why="a set of small non-negative ints iterates in ascending order "
            "(CPython hashes ints to themselves, unsalted)"),
    Mutant(
        "ghost-count-set-sum", PROC,
        old="        ghosts = sum(reply.ghosts for reply in replies)\n",
        new="        ghosts = sum({reply.ghosts for reply in replies})\n",
        shape="a reduction over a set (equal per-rank counts collapse)",
        contract="observability"),
    Mutant(
        "pair-blocks-local-create", PROC,
        old=('        self._blocks["val"] = SharedBlock.create(names["val"],\n'
             "                                                 "
             "(cap, self._width),\n"
             "                                                 np.float64)\n"
             '        self._blocks["kept"] = SharedBlock.create(names["kept"],'
             " (cap,),\n"
             "                                                  np.bool_)\n"
             '        self._blocks["jref"] = SharedBlock.create(names["jref"],'
             " (cap,),\n"
             "                                                  np.int64)\n"),
        new=('        val = SharedBlock.create(names["val"], (cap, self._width), '
             "np.float64)\n"
             '        kept = SharedBlock.create(names["kept"], (cap,), '
             "np.bool_)\n"
             '        jref = SharedBlock.create(names["jref"], (cap,), '
             "np.int64)\n"
             "        self._blocks.update(val=val, kept=kept, jref=jref)\n"),
        shape="blocks created into locals with no cleanup path: a failed "
              "second create strands the first in /dev/shm",
        contract="shm-lifecycle"),
    Mutant(
        "shm-not-unlinked", SHM,
        old=("        if self.owner:\n"
             "            try:\n"
             "                self.shm.unlink()\n"
             "            except FileNotFoundError:\n"
             "                pass\n"),
        new="",
        shape="the owner closes its block without unlinking it",
        contract="shm-lifecycle"),
    Mutant(
        "attach-unregisters-tracker", SHM,
        old=("        return cls(shared_memory.SharedMemory(name=name), shape, "
             "dtype,\n"
             "                   owner=False)\n"
             "\n"
             "    def close(self) -> None:\n"
             '        """Idempotent, and tolerates a block another exit '
             "path already\n"
             '        unlinked (e.g. after a worker died mid-step)."""\n'
             "        if self._closed:\n"
             "            return\n"
             "        self._closed = True\n"),
        new=("        shm = shared_memory.SharedMemory(name=name)\n"
             "        from multiprocessing import resource_tracker\n"
             "\n"
             '        resource_tracker.unregister(shm._name, "shared_memory")\n'
             "        return cls(shm, shape, dtype, owner=False)\n"
             "\n"
             "    def close(self) -> None:\n"
             "        if self._closed:\n"
             "            return\n"
             "        self._closed = True\n"
             "        if self.owner:\n"
             "            from multiprocessing import resource_tracker\n"
             "\n"
             "            resource_tracker.register(self.shm._name, "
             '"shared_memory")\n'),
        shape="an attaching worker makes the shared resource tracker forget "
              "the block (the owner re-arms it before its unlink): a "
              "SIGKILLed owner's blocks outlive all its workers",
        contract="shm-lifecycle"),
    Mutant(
        "child-keeps-parent-end", KIT,
        old=("    # the inherited copy of the parent's end would hide the "
             "parent's\n"
             "    # death from recv() below\n"
             "    parent_end.close()\n"),
        new="",
        shape="a worker keeps its inherited copy of the parent's pipe end: "
              "it never reads end-of-file and outlives a dead parent",
        contract="shm-lifecycle"),
    Mutant(
        "process-bind-keeps-epoch", PROC,
        old=("        super().bind(system)\n"
             "        self._box = None\n"),
        new=("        super().bind(system)\n"
             "        if self._box is not system.box:\n"
             "            self._box = None\n"),
        shape="rebind hands the ranks the cell only when the box changed",
        contract="rebind"),
    Mutant(
        "bind-skips-regrow", PROC,
        old=("        cap = self._estimate_capacity()\n"
             "        if cap > self._cap:\n"
             "            self._grow_pair_blocks(cap)\n"),
        new="",
        shape="bind keeps the pair blocks sized for the old state: the "
              "first step on a denser state overflows and builds every "
              "rank's list twice (the forces stay bitwise)",
        contract="step-cost"),
    # ------------------------------------------------------------------
    # the engine surface, on the process backend
    # ------------------------------------------------------------------
    Mutant(
        "engine-evaluate-renamed", PROC,
        old=("    def evaluate(self, positions: np.ndarray | None = None) -> "
             "EnergyForces:\n"
             "        if self._closed:\n"),
        new=("    def evaluate_ranks(self, positions: np.ndarray | None = "
             "None) -> EnergyForces:\n"
             "        if self._closed:\n"),
        shape="an engine does not implement the abstract evaluate()",
        contract="engine-protocol"),
    Mutant(
        "extras-stray-key", PROC,
        old=('        return {\n'
             '            "nprocs": self.nprocs,\n'),
        new=('        return {\n'
             '            "nprocs_used": self.nprocs,\n'),
        shape="summary_extras() key that is not a RunSummary field",
        contract="engine-protocol"),
    Mutant(
        "stage-prefix-typo", PROC,
        old='            readings[f"force.{key}"] = seconds\n',
        new='            readings[f"kernel.{key}"] = seconds\n',
        shape="dynamic phase prefix outside DYNAMIC_SUB_PARENTS",
        contract="phase-registry"),
    # ------------------------------------------------------------------
    # the halo census
    # ------------------------------------------------------------------
    Mutant(
        "census-reverse-for-empty-rank", HALO,
        old=("        reverse_bytes=int(ghosts[owned > 0].sum()) * "
             "BYTES_PER_POSITION,\n"),
        new=("        reverse_bytes=int(ghosts.sum()) * "
             "BYTES_PER_POSITION,\n"),
        shape="reverse traffic booked for a rank that owns no atom (it "
              "evaluates nothing, so it returns no ghost force)",
        contract="observability"),
    Mutant(
        "halo-second-cell-expression", HALO,
        old="    lo = grid.cell_of(pos)\n",
        new="    lo = np.minimum((pos / sub).astype(int), dims - 1)\n",
        shape="the halo build computes an atom's cell its own way: a "
              "face-exact atom is a ghost of its owner, and its upper "
              "neighbour never gets it",
        contract="observability"),
    # ------------------------------------------------------------------
    # the serial engine and the MD loop
    # ------------------------------------------------------------------
    Mutant(
        "phase-name-typo", ENGINE,
        old='        timers.add("neigh", t_neigh)\n',
        new='        timers.add("neighbor", t_neigh)\n',
        shape="unregistered phase name", contract="phase-registry"),
    Mutant(
        "evaluate-param-renamed", ENGINE,
        old=("    def evaluate(self, positions: np.ndarray | None = None) -> "
             "EnergyForces:\n"
             "        system, neighbors, timers = self.system, "
             "self.neighbors, self.timers\n"
             "        if positions is None:\n"
             "            positions = system.positions\n"),
        new=("    def evaluate(self, pos: np.ndarray | None = None) -> "
             "EnergyForces:\n"
             "        system, neighbors, timers = self.system, "
             "self.neighbors, self.timers\n"
             "        positions = system.positions if pos is None "
             "else pos\n"),
        shape="override signature drifts from ForceEngine.evaluate",
        contract="none",
        why="nothing calls evaluate(positions=...) by keyword"),
    Mutant(
        "serial-bind-keeps-list", ENGINE,
        old=("        super().bind(system)\n"
             "        self.neighbors.reset(system.box)\n"),
        new=("        super().bind(system)\n"
             "        if self.neighbors.box is not system.box:\n"
             "            self.neighbors.reset(system.box)\n"),
        shape="rebind resets the list only when the box changed",
        contract="rebind"),
    Mutant(
        "checkpoint-rng-omitted", ENGINE,
        old=('        rng_state = getattr(self.thermostat, "rng_state", None)\n'
             "        if callable(rng_state):\n"
             '            extra["thermostat_rng"] = rng_state()\n'),
        new="",
        shape="a checkpoint field omitted (thermostat stream position)",
        contract="restart"),
    Mutant(
        "restore-skips-priming", ENGINE,
        old=('        ref = extras.get("topology_ref")\n'
             "        if ref is not None:\n"
             "            self.engine.evaluate(np.asarray(ref, "
             "dtype=float))\n"),
        new="",
        shape="restore does not rebuild the topology at its reference",
        contract="restart"),
    Mutant(
        "restore-keeps-late-frames", ENGINE,
        old=('                with self.timers.phase("io"):\n'
             "                    self.trajectory.truncate_to(int(off[0]), "
             "int(off[1]))\n"),
        new="                pass\n",
        shape="restore does not roll the trajectory back",
        contract="restart"),
    Mutant(
        "checkpoint-raw-write", ENGINE,
        old=("        return write_checkpoint(path, self.system, self.step,\n"
             "                                "
             "extra=self.checkpoint_extras())\n"),
        new=("        from .dump import checkpoint_path\n"
             "\n"
             "        system = self.system\n"
             '        with open(checkpoint_path(path), "wb") as fh:\n'
             "            np.savez_compressed(\n"
             "                fh, positions=system.positions,\n"
             "                velocities=system.velocities, "
             "masses=system.masses,\n"
             "                types=system.types, "
             "box_lengths=system.box.lengths,\n"
             "                periodic=np.array(system.box.periodic, "
             "dtype=bool),\n"
             "                step=np.array(self.step), "
             "**self.checkpoint_extras())\n"
             "        return checkpoint_path(path)\n"),
        shape="checkpoint written in place outside repro.md.dump (a crash "
              "mid-write leaves a torn restart file)",
        contract="restart"),
    # ------------------------------------------------------------------
    # the step's hoisted invariants
    # ------------------------------------------------------------------
    Mutant(
        "half-kick-regrouped", INTEG,
        old=("        kick = np.multiply(forces, key[2])\n"
             "        kick *= key[3]\n"),
        new=("        kick = np.multiply(forces, key[3])\n"
             "        kick *= key[2]\n"),
        shape="the half kick regrouped as 0.5 dt (F / (m MVV2E)): the "
              "same physics, other bits, in every engine alike",
        contract="bitwise"),
    Mutant(
        "kick-factor-kept-forever", INTEG,
        old=("        if key is None or key[0] is not masses or key[1] != "
             "self.dt:\n"),
        new="        if key is None:\n",
        shape="the integrator keeps its first 1 / (m MVV2E) and dt: a "
              "new masses array or dt never reaches the kick",
        contract="physics"),
    Mutant(
        "phase-generator-restored", TIMERS,
        old=("    def phase(self, name: str) -> \"_Phase\":\n"
             "        \"\"\"Context manager booking its wall time to "
             "``name``, also when\n"
             "        the body raises (the exception propagates).\"\"\"\n"
             "        return _Phase(self, name)\n"),
        new=("    @__import__(\"contextlib\").contextmanager\n"
             "    def phase(self, name: str):\n"
             "        t0 = perf_counter()\n"
             "        try:\n"
             "            yield\n"
             "        finally:\n"
             "            self.add(name, perf_counter() - t0)\n"),
        shape="PhaseTimers.phase a generator context manager again: the "
              "same spans booked, four more calls per span",
        contract="step-cost"),
    Mutant(
        "lj-trusts-any-filter", LJ,
        old=("        clip = nbr.kept_below is None or nbr.kept_below > "
             "self.cutoff\n"),
        new="        clip = nbr.kept_below is None\n",
        shape="LJ skips its outside mask on any filtered list, also one "
              "kept beyond its own cutoff",
        contract="physics"),
    # ------------------------------------------------------------------
    # ParSplice segments and the service
    # ------------------------------------------------------------------
    Mutant(
        "segment-seed-ignored", SEGS,
        old='    child = stream.child("segment", int(state), int(seed))\n',
        new='    child = stream.child("segment", int(state))\n',
        shape="a segment seed reused (every seed replays one segment)",
        contract="segment-purity"),
    Mutant(
        "segment-thermostat-unseeded", SEGS,
        old=('        temp=temperature, damp=damp, '
             'seed=child.child("thermostat").integer())\n'),
        new="        temp=temperature, damp=damp, seed=None)\n",
        shape="unseeded Langevin stream inside a segment",
        contract="segment-purity"),
    Mutant(
        "stale-sentinel-blames-slot", SERVICE,
        old=("            if self._workers[slot] is not worker:\n"
             "                # a killed worker readies its pipe and its "
             "sentinel at\n"
             "                # once: the first one replaced it already\n"
             "                continue\n"),
        new="",
        shape="a dead worker's second ready object (its sentinel) is "
              "attributed to the slot's healthy replacement",
        contract="fault-recovery"),
    Mutant(
        "traj-count-before-write", TRAJ,
        old="        self._fh.write(buf)\n"
            "        self._fh.flush()\n"
            "        self.ledger.write_s += time.perf_counter() - t0\n"
            "        self.ledger.frames += 1\n"
            "        self.ledger.nbytes += len(buf)\n"
            "        self.nframes += 1\n",
        new="        self.ledger.frames += 1\n"
            "        self.ledger.nbytes += len(buf)\n"
            "        self.nframes += 1\n"
            "        self._fh.write(buf)\n"
            "        self._fh.flush()\n"
            "        self.ledger.write_s += time.perf_counter() - t0\n",
        shape="the trajectory writer counts a frame before writing it: a "
              "failed write (a full disk) still counts its frame",
        contract="fault-recovery"),
    Mutant(
        "parsplice-quantum-count", "src/repro/parsplice/scheduler.py",
        old="            n_generated += 1\n",
        new="            n_generated = len(segments)\n",
        shape="the campaign loop's segment count restarts every quantum: "
              "a run reports its last quantum's segments",
        contract="observability"),
    Mutant(
        "scipy-optimize-at-import", "src/repro/md/minimize.py",
        old="import numpy as np\n\nfrom ..constants import MVV2E\n",
        new=("import numpy as np\nfrom scipy.optimize import minimize_scalar"
             "  # noqa: F401\n\nfrom ..constants import MVV2E\n"),
        shape="scipy.optimize imported at module level again: every "
              "import repro pays for relax_volume's one call",
        contract="import-cost"),
    # ------------------------------------------------------------------
    # the potential's inputs
    # ------------------------------------------------------------------
    Mutant(
        "carbon-bc8-scale", TRAIN,
        old='        ["diamond", "bc8"], a0={"diamond": 3.57, "bc8": 4.44},\n',
        new='        ["diamond", "bc8"], a0={"diamond": 3.57, "bc8": 2.52},\n',
        shape="the default carbon SNAP trains on BC8 at 2.52 A (a 0.88 A "
              "bond): every bitwise contract holds, hot diamond does not",
        contract="physics"),
)
