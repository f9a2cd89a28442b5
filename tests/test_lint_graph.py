"""Tests for the whole-program symbol table / call graph
(:mod:`repro.lint.graph`).

Fixture projects are built in memory with :meth:`Project.from_sources`
using repo-shaped posix paths, exercising aliased imports, relative
imports, re-exports through ``__init__``, method calls through
``self``, local instance typing, a call cycle, pool-target discovery
and the conservative UNKNOWN degradation for dynamic calls.
"""

import textwrap

from repro.lint.graph import UNKNOWN, Project, module_name_for


def _proj(sources: dict) -> Project:
    return Project.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()})


def _callees(project: Project, qualname: str) -> set:
    fn = project.functions[qualname]
    out = set()
    for site in fn.calls:
        out.update(site.callees)
    return out


# ======================================================================
# module naming
# ======================================================================
class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/md/engine.py") == \
            "repro.md.engine"

    def test_absolute_path_with_src(self):
        assert module_name_for("/home/u/repo/src/repro/core/snap.py") == \
            "repro.core.snap"

    def test_relative_fixture_path(self):
        assert module_name_for("repro/parallel/distributed.py") == \
            "repro.parallel.distributed"

    def test_package_init(self):
        assert module_name_for("src/repro/lint/__init__.py") == \
            "repro.lint"


# ======================================================================
# resolution: imports, aliases, re-exports, self, types
# ======================================================================
FIXTURE = {
    "pkg/__init__.py": """\
        from .a import helper as exported
        """,
    "pkg/a.py": """\
        from . import b as bee
        from .b import deep as d_alias

        def helper():
            bee.middle()
            d_alias()
        """,
    "pkg/b.py": """\
        def middle():
            deep()

        def deep():
            pass
        """,
    "pkg/c.py": """\
        import pkg.a as alias

        class C:
            def m(self):
                self.other()

            def other(self):
                alias.helper()
        """,
    "pkg/use.py": """\
        from .c import C
        from pkg import exported

        def run():
            obj = C()
            obj.m()
            exported()
        """,
    "pkg/cycle.py": """\
        def f():
            g()

        def g():
            f()
        """,
    "pkg/dyn.py": """\
        def h(callbacks):
            callbacks[0]()
            unknown_name_from_nowhere()
        """,
}


class TestCallGraph:
    def setup_method(self):
        self.p = _proj(FIXTURE)

    def test_aliased_module_import(self):
        # "from . import b as bee" + bee.middle()
        assert "pkg.b.middle" in _callees(self.p, "pkg.a.helper")

    def test_aliased_name_import(self):
        # "from .b import deep as d_alias" + d_alias()
        assert "pkg.b.deep" in _callees(self.p, "pkg.a.helper")

    def test_same_module_call(self):
        assert _callees(self.p, "pkg.b.middle") == {"pkg.b.deep"}

    def test_self_method_call(self):
        assert _callees(self.p, "pkg.c.C.m") == {"pkg.c.C.other"}

    def test_dotted_import_alias(self):
        # "import pkg.a as alias" + alias.helper()
        assert "pkg.a.helper" in _callees(self.p, "pkg.c.C.other")

    def test_reexport_through_init(self):
        # pkg/__init__ re-exports helper as "exported"
        assert "pkg.a.helper" in _callees(self.p, "pkg.use.run")

    def test_local_instance_type(self):
        # obj = C(); obj.m() resolves through the local type
        assert "pkg.c.C.m" in _callees(self.p, "pkg.use.run")

    def test_cycle_resolves_both_edges(self):
        assert _callees(self.p, "pkg.cycle.f") == {"pkg.cycle.g"}
        assert _callees(self.p, "pkg.cycle.g") == {"pkg.cycle.f"}

    def test_dynamic_calls_degrade_to_unknown(self):
        # callbacks[0]() and an unresolvable bare name: no crash, an
        # UNKNOWN node in the edge view, counted as unresolved
        edges = self.p.edges()
        assert UNKNOWN in edges["pkg.dyn.h"]
        assert self.p.unresolved_calls >= 2

    def test_resolve_symbol_follows_reexport_chain(self):
        assert self.p.resolve_symbol("pkg.exported") == \
            ("func", "pkg.a.helper")


# ======================================================================
# classes: bases, attribute types, method lookup through bases
# ======================================================================
class TestClasses:
    def test_base_resolution_and_method_lookup(self):
        p = _proj({
            "pkg/base.py": """\
                class Base:
                    def shared(self):
                        pass
                """,
            "pkg/derived.py": """\
                from .base import Base

                class Kid(Base):
                    def use(self):
                        self.shared()
                """,
        })
        assert p.classes["pkg.derived.Kid"].bases == ["pkg.base.Base"]
        assert p.method_lookup("pkg.derived.Kid", "shared") == \
            "pkg.base.Base.shared"
        assert _callees(p, "pkg.derived.Kid.use") == \
            {"pkg.base.Base.shared"}

    def test_self_attr_instance_type(self):
        p = _proj({
            "pkg/mod.py": """\
                class Worker:
                    def go(self):
                        pass

                class Owner:
                    def __init__(self):
                        self.w = Worker()

                    def run(self):
                        self.w.go()
                """,
        })
        assert _callees(p, "pkg.mod.Owner.run") == {"pkg.mod.Worker.go"}

    def test_foreign_base_kept_as_dotted_name(self):
        p = _proj({
            "pkg/mod.py": """\
                import abc

                class A(abc.ABC):
                    pass
                """,
        })
        assert p.classes["pkg.mod.A"].bases == ["abc.ABC"]


# ======================================================================
# pool-target discovery
# ======================================================================
class TestPoolTargets:
    def test_submit_and_thread_target(self):
        p = _proj({
            "pkg/spawn.py": """\
                import threading
                from concurrent.futures import ThreadPoolExecutor

                def job_a():
                    pass

                def job_b():
                    pass

                def init_w():
                    pass

                def launch(ctx):
                    pool = ThreadPoolExecutor(2)
                    pool.submit(job_a)
                    threading.Thread(target=job_b).start()
                    ctx.Pool(2, initializer=init_w)
                """,
        })
        assert set(p.pool_entries) == {"pkg.spawn.job_a",
                                       "pkg.spawn.job_b",
                                       "pkg.spawn.init_w"}

    def test_nested_function_submitted(self):
        p = _proj({
            "pkg/spawn.py": """\
                def launch(pool):
                    def work(lo, hi):
                        pass
                    pool.submit(work, 0, 4)
                """,
        })
        assert p.pool_entries == ["pkg.spawn.launch.<locals>.work"]
        assert p.functions["pkg.spawn.launch.<locals>.work"].pool_target

    def test_lambda_pool_map(self):
        p = _proj({
            "pkg/spawn.py": """\
                def launch(pool, items):
                    pool.map(lambda it: it + 1, items)
                """,
        })
        assert len(p.pool_entries) == 1
        assert "<lambda" in p.pool_entries[0]

    def test_non_pool_apply_not_spawned(self):
        # Barostat.apply(system) must not register `system` as a pool
        # entry: .apply/.map only count on pool-ish receivers
        p = _proj({
            "pkg/mod.py": """\
                def run(self, barostat, system):
                    barostat.apply(system)
                """,
        })
        assert p.pool_entries == []


# ======================================================================
# robustness
# ======================================================================
class TestRobustness:
    def test_syntax_error_module_skipped(self):
        p = _proj({
            "pkg/bad.py": "def broken(:\n",
            "pkg/good.py": "def fine():\n    pass\n",
        })
        assert "pkg.bad" not in p.modules
        assert "pkg.good.fine" in p.functions
