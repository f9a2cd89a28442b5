"""Tests for the whole-program lock rule (:mod:`repro.lint.flow`):
R8-lockset over the shared call graph, including seeded violations, the
replay of the deleted lexical lock rule's fixture shapes through R8, and
the blind-spot regression (a guarded-by write reached through a nested
function handed to a pool, which a lexical rule trusts and the
interprocedural lockset walk convicts).
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
# orchestration
# ======================================================================
class TestRunProjectRules:
    def test_rule_selection(self):
        project = Project.from_sources(
            {p: textwrap.dedent(s) for p, s in R8_CROSS_FUNCTION.items()})
        assert {f.rule for f in run_project_rules(project)} == {"R8-lockset"}
        assert run_project_rules(project, {"R1-set-iter"}) == []

    def test_findings_sorted_and_ids_exported(self):
        assert PROJECT_RULE_IDS == ("R8-lockset",)
        leaky = _CACHE.format(decl="", body="self.data[k] = v")
        findings = _r8({"repro/parallel/store.py": R8_CROSS_FUNCTION[
            "repro/parallel/store.py"], "repro/analysis/cache.py": leaky})
        assert len(findings) == 2
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)
