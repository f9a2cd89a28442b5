"""Tests for the whole-program analyses (:mod:`repro.lint.flow`):
R8-lockset, R9-engine-contract and R10-determinism-taint over the
shared call graph, including the seeded violations from the issue
acceptance list, the replay of the deleted lexical lock rule's fixture
shapes through R8, and the blind-spot regression (a guarded-by write
reached through a nested function handed to a pool, which a lexical
rule trusts and the interprocedural lockset walk convicts).
"""

import textwrap

import pytest

from repro.lint.flow import PROJECT_RULE_IDS, run_project_rules
from repro.lint.graph import Project


def _run(sources: dict, active: set) -> list:
    project = Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()})
    return run_project_rules(project, active)


def _r8(sources: dict) -> list:
    return _run(sources, {"R8-lockset"})


def _r9(sources: dict) -> list:
    return _run(sources, {"R9-engine-contract"})


def _r10(sources: dict) -> list:
    return _run(sources, {"R10-determinism-taint"})


# ======================================================================
# R8 - interprocedural lockset
# ======================================================================
R8_CROSS_FUNCTION = {
    "repro/parallel/store.py": """\
        import threading


        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self.cache = {}  #: guarded-by: _lock

            def _set(self, key, val):
                self.cache[key] = val

            def put(self, key, val):
                with self._lock:
                    self._set(key, val)

            def fast_put(self, key, val):
                self._set(key, val)
        """,
}


class TestLockset:
    def test_unguarded_cross_function_write(self):
        # seeded violation: `fast_put` reaches the `self.cache[...]`
        # write in `_set` lock-free while `put` holds the lock - only
        # the lock-free path is reported, at the write site
        findings = _r8(R8_CROSS_FUNCTION)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "R8-lockset"
        assert f.line == 10
        assert "self.cache" in f.message
        assert any("fast_put" in hop for hop in f.trace)

    def test_all_paths_locked_is_clean(self):
        clean = {
            "repro/parallel/store.py": """\
                import threading


                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.cache = {}  #: guarded-by: _lock

                    def _set(self, key, val):
                        self.cache[key] = val

                    def put(self, key, val):
                        with self._lock:
                            self._set(key, val)
                """,
        }
        assert _r8(clean) == []

    def test_def_contract_seeds_but_does_not_grant(self):
        # `_ensure` promises "# guarded-by: _lock" on its def line; a
        # locked caller satisfies it, an unlocked caller is convicted -
        # the contract must not be granted along propagated calls
        base = """\
            import threading


            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pool = None  #: guarded-by: _lock

                def _ensure(self):  # guarded-by: _lock
                    self._pool = object()

                def compute(self):
                    with self._lock:
                        self._ensure()
            """
        assert _r8({"repro/parallel/pool.py": base}) == []
        leaky = base + """\

                def poke(self):
                    self._ensure()
            """
        findings = _r8({"repro/parallel/pool.py": leaky})
        assert len(findings) == 1
        assert "self._pool" in findings[0].message
        assert any("poke" in hop for hop in findings[0].trace)

    def test_init_is_exempt(self):
        # construction happens-before sharing: the __init__ writes in
        # the clean fixture above must not fire (implicitly covered),
        # and an __init__-only project stays silent
        only_init = {
            "repro/parallel/store.py": """\
                import threading


                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.cache = {}  #: guarded-by: _lock
                        self.cache = {"warm": True}
                """,
        }
        assert _r8(only_init) == []

    def test_subclass_holding_base_lock(self):
        # the lock identity spans the MRO chain: a subclass method
        # locking self._lock satisfies the guard declared on the base
        src = {
            "repro/parallel/base.py": """\
                import threading


                class Base:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.state = {}  #: guarded-by: _lock
                """,
            "repro/parallel/kid.py": """\
                from .base import Base


                class Kid(Base):
                    def update(self):
                        with self._lock:
                            self.state = {"ok": True}
                """,
        }
        assert _r8(src) == []


# The fixture shapes of the deleted lexical lock rule (R3), replayed
# through R8 at a path outside R3's old scope table (R8 is unscoped).
# The parent-commit R8 convicted only the last firing shape: it tracked
# no attribute that lacked the guarded-by comment.
_EVALUATOR = """\
    import threading
    class Evaluator:
        def __init__(self):
            self._lock = threading.Lock()
            self.hits = 0{decl}
        def work(self):
            {body}
        def run(self, pool):
            pool.submit(self.work)
    """
_CACHE = """\
    import threading
    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self.data = {{}}{decl}
        def put(self, k, v):
            {body}
    """
_LOCKED_PUT = "with self._lock:\n                self.data[k] = v"
_DECL = "  # guarded-by: _lock"
R3_SHAPES = {
    # ---- firing ----
    "unannotated-pool-reachable-write": ("""\
        class Evaluator:
            def __init__(self):
                self.hits = 0
            def work(self):
                self.hits += 1
            def run(self, pool):
                pool.submit(self.work)
        """, 5, "pool/thread target"),
    "unannotated-lock-owner-write": (_CACHE.format(
        decl="", body="self.data[k] = v"), 7, "lock-owning class"),
    "locked-but-undeclared": (_CACHE.format(
        decl="", body=_LOCKED_PUT), 8, "lock-owning class"),
    "declared-but-unlocked": (_CACHE.format(
        decl=_DECL, body="self.data[k] = v"), 7, "without the lock held"),
    # ---- silent ----
    "locked-pool-reachable-write": (_EVALUATOR.format(
        decl=_DECL,
        body="with self._lock:\n                self.hits += 1"), None, ""),
    "annotated-and-locked": (_CACHE.format(
        decl=_DECL, body=_LOCKED_PUT), None, ""),
}


class TestLocksetReplaysLexicalRule:
    @pytest.mark.parametrize("shape", sorted(R3_SHAPES))
    def test_r3_shape(self, shape):
        src, line, fragment = R3_SHAPES[shape]
        findings = _r8({"repro/analysis/thermo.py": src})
        if line is None:
            assert findings == []
        else:
            assert [(f.rule, f.line) for f in findings] == \
                [("R8-lockset", line)]
            assert fragment in findings[0].message


class TestLocksetBlindSpotRegression:
    """The false negative R8 was built to close: a write annotated
    ``# guarded-by:`` (which a lexical rule trusts) inside a method only
    reachable from a nested function handed to ``pool.submit``."""

    SRC = textwrap.dedent("""\
        import threading


        class Shardlike:
            def __init__(self):
                self._lock = threading.Lock()
                self.last_timings = {}  #: guarded-by: _lock

            def _record(self, dt):
                self.last_timings = {"dt": dt}  # guarded-by: _lock

            def kick(self, pool):
                def work(dt):
                    self._record(dt)
                pool.submit(work, 0.1)
        """)
    PATH = "repro/parallel/shardlike.py"

    def test_r8_catches_it_with_the_call_path(self):
        findings = _r8({self.PATH: self.SRC})
        assert len(findings) == 1
        f = findings[0]
        assert f.line == 10
        assert "last_timings" in f.message
        # the trace names the pool entry and the hop into _record
        joined = " -> ".join(f.trace)
        assert "work [pool target]" in joined
        assert "_record" in joined


# ======================================================================
# R9 - engine contract conformance
# ======================================================================
R9_ENGINE = {
    "repro/md/engine.py": """\
        import abc


        class ForceEngine(abc.ABC):
            @abc.abstractmethod
            def evaluate(self, positions=None):
                ...


        class RunSummary:
            steps: int
            energy: float


        class GoodEngine(ForceEngine):
            def evaluate(self, positions=None):
                return 0.0

            def summary_extras(self):
                return {"steps": 1}


        class NoEvalEngine(ForceEngine):
            def step(self):
                pass


        class DriftEngine(ForceEngine):
            def evaluate(self, pos=None):
                return 0.0


        class LeakyEngine(ForceEngine):
            def evaluate(self, positions=None):
                return 0.0

            def summary_extras(self):
                return {"warp_factor": 9}
        """,
}

R9_TIMERS = {
    "repro/md/timers.py": """\
        TOP_PHASES = ("neigh", "force")
        SUB_PHASES = ("neigh.rebuild",)
        DYNAMIC_SUB_PARENTS = ("force",)
        """,
    "repro/md/loop.py": """\
        class Loop:
            def __init__(self, timers):
                self.timers = timers

            def step(self, kind):
                self.timers.phase("neigh")
                self.timers.add("neigh.rebuild", 0.1)
                self.timers.phase(f"force.{kind}")
                self.timers.phase("warp")
                self.timers.phase(f"warp.{kind}")
        """,
}


class TestEngineContract:
    def test_protocol_violations(self):
        findings = _r9(R9_ENGINE)
        msgs = [f.message for f in findings]
        assert any("NoEvalEngine does not implement" in m for m in msgs)
        assert any("DriftEngine.evaluate" in m and "drifts" in m
                   for m in msgs)
        assert any("'warp_factor'" in m and "RunSummary" in m
                   for m in msgs)
        # the conforming impl contributes nothing
        assert not any("GoodEngine" in m for m in msgs)
        assert len(findings) == 3

    def test_phase_registry(self):
        findings = _r9(R9_TIMERS)
        msgs = [f.message for f in findings]
        # registered top/sub names and a dynamic "force.*" prefix pass;
        # "warp" and the "warp.*" prefix are convicted
        assert any("'warp' is not registered" in m for m in msgs)
        assert any("'warp.'" in m for m in msgs)
        assert len(findings) == 2

    def test_non_timers_receiver_exempt(self):
        src = {
            "repro/md/timers.py": R9_TIMERS["repro/md/timers.py"],
            "repro/md/probe.py": """\
                def autotune(t):
                    t.phase("probe")
                """,
        }
        assert _r9(src) == []

    def test_registry_falls_back_to_the_importable_module(self):
        # no fixture timers module: the registry is imported from the
        # real repro.md.timers, which also rejects "warp"
        src = {
            "repro/md/loop.py": R9_TIMERS["repro/md/loop.py"],
        }
        findings = _r9(src)
        assert len(findings) == 2
        assert all("warp" in f.message for f in findings)


# ======================================================================
# R10 - determinism taint
# ======================================================================
R10_KERNEL = {
    "repro/parallel/kernel.py": """\
        import os
        import time

        import numpy as np


        def pick(n):
            return set(range(n))


        def accumulate(forces, contrib):
            for i in pick(len(contrib)):
                forces[i] += contrib[i]


        def accumulate_sorted(forces, contrib):
            for i in sorted(pick(len(contrib))):
                forces[i] += contrib[i]


        def load(forces, root):
            for p in os.listdir(root):
                forces[0] += hash(p)


        def jitter(forces, draw):
            r = np.random.default_rng()
            forces[0] += draw(r)


        def self_timed(forces):
            t0 = time.perf_counter()
            forces[0] += time.perf_counter() - t0


        def stamp():
            return time.perf_counter()


        def ledger(forces):
            forces[0] += stamp()


        def spread(forces, order):
            for i in order:
                forces[i] += 1.0


        def driver(forces):
            spread(forces, set((1, 2)))
        """,
}


class TestDeterminismTaint:
    def setup_method(self):
        self.findings = _r10(R10_KERNEL)
        self.by_line = {f.line: f for f in self.findings}

    def test_set_order_through_one_call_hop(self):
        # seeded violation: pick() returns a set; its order taints the
        # loop index and reaches the force accumulation one hop away
        f = self.by_line[13]
        assert "set-order" in f.message
        assert "accumulate" in f.trace[0]

    def test_sorted_sanitizes(self):
        # same shape wrapped in sorted(): no finding on lines 17-18
        assert not any(17 <= ln <= 18 for ln in self.by_line)

    def test_listdir_order(self):
        assert "listdir-order" in self.by_line[23].message

    def test_unseeded_rng(self):
        assert "unseeded-rng" in self.by_line[28].message

    def test_intra_function_wallclock(self):
        assert "wallclock" in self.by_line[33].message

    def test_wallclock_not_propagated_through_returns(self):
        # stamp() returning perf_counter() is ledger data by design;
        # ledger() must stay clean (line 41)
        assert 41 not in self.by_line

    def test_param_sink_reported_at_the_call_site(self):
        # spread() accumulates by its `order` parameter; handing it a
        # set is convicted at the driver call site, naming the callee
        f = self.by_line[50]
        assert "set-order" in f.message
        assert "spread" in f.message
        assert any("spread" in hop for hop in f.trace)

    def test_exact_finding_count(self):
        assert len(self.findings) == 5

    def test_cold_scope_is_silent(self):
        # identical code outside the hot-path scope is not in budget
        cold = {"repro/analysis/thermo.py":
                R10_KERNEL["repro/parallel/kernel.py"]}
        assert _r10(cold) == []


# ======================================================================
# orchestration
# ======================================================================
class TestRunProjectRules:
    def test_rule_selection(self):
        sources = dict(R8_CROSS_FUNCTION)
        sources.update(R10_KERNEL)
        project = Project.from_sources(
            {p: textwrap.dedent(s) for p, s in sources.items()})
        every = run_project_rules(project)
        rules = {f.rule for f in every}
        assert rules == {"R8-lockset", "R10-determinism-taint"}
        only_r8 = run_project_rules(project, {"R8-lockset"})
        assert {f.rule for f in only_r8} == {"R8-lockset"}

    def test_findings_sorted_and_ids_exported(self):
        assert PROJECT_RULE_IDS == (
            "R8-lockset", "R9-engine-contract", "R10-determinism-taint")
        findings = _r10(R10_KERNEL)
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)
