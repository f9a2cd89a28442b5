"""Interprocedural analyses on the :mod:`repro.lint.graph` call graph.

Three whole-program rules:

R8-lockset (the only lock rule)
    Propagates *held-lock sets* along resolved call chains.  Seeds are
    the points concurrency actually enters: pool/thread targets (held =
    nothing) and public or caller-less functions (held = their def-line
    ``# guarded-by:`` contract, if any).  Every ``self.<attr>`` write
    outside construction/teardown carries two obligations.  *Declared*:
    in a class that owns a ``Lock``/``RLock``, or on a chain entered
    from a pool/thread target, the attribute must carry a
    ``# guarded-by: <lock>`` declaration - otherwise nothing below can
    see it.  *Held*: a declared attribute reachable on any chain where
    its lock is not in the held set is a finding, reported with the
    witnessing call path.  Lock identity is class-scoped
    (``Store._lock``), so holding *your* ``_lock`` does not vouch for
    writes to another class's guarded state.

R9-engine-contract
    Checks every class deriving from ``ForceEngine`` against the
    protocol: abstract methods actually overridden, override signatures
    matching the base, ``summary_extras()`` dict keys a subset of the
    ``RunSummary`` dataclass fields, and every literal phase string
    handed to a ``timers``-named receiver validated against the
    canonical registry in :mod:`repro.md.timers` (``TOP_PHASES`` /
    ``SUB_PHASES`` / ``DYNAMIC_SUB_PARENTS``), both extracted
    statically from the linted sources.

R10-determinism-taint (flow-based; the lexical R1 stays beside it -
R10 only convicts order that *reaches* a force/energy accumulation)
    Taints hash-ordered values (``set``/``frozenset``), directory
    listings (``listdir``/``iterdir``/``glob``), unseeded
    ``default_rng()`` and wall-clock reads, propagates them through
    assignments, containers and calls (with per-function summaries, so
    taint survives >= 1 call hop), clears them at order-restoring
    sanitizers (``sorted``/``.sort``/``min``/``max``/``len``/``sum``),
    and reports when a tainted value or index reaches a force/energy
    accumulation in the hot-path scope.

All three report :class:`repro.lint.rules.Finding` objects whose
``trace`` carries the call path for cross-function findings.
"""

from __future__ import annotations

import ast
import re
from collections import deque

from .graph import Project, FunctionInfo, _dotted
from .rules import Finding, HOT_PATH_SCOPE

__all__ = ["run_project_rules", "PROJECT_RULE_IDS"]

PROJECT_RULE_IDS = ("R8-lockset", "R9-engine-contract",
                    "R10-determinism-taint")

#: methods allowed to touch guarded state unlocked: construction and
#: teardown of the *owning* reference happen-before/after any sharing
_EXEMPT_METHODS = {"__init__", "__del__", "__enter__", "__exit__"}


def run_project_rules(project: Project,
                      active: set[str] | None = None) -> list[Finding]:
    """Run every (selected) whole-program rule over one project."""
    findings: list[Finding] = []
    if active is None or "R8-lockset" in active:
        findings.extend(check_lockset(project))
    if active is None or "R9-engine-contract" in active:
        findings.extend(check_engine_contract(project))
    if active is None or "R10-determinism-taint" in active:
        findings.extend(check_taint(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ======================================================================
# R8 - lockset analysis
# ======================================================================
_GUARDED_BY_RE = re.compile(r"#:?\s*guarded-by:\s*([A-Za-z_][\w.()\- ]*)")
_LOCK_CTORS = {"Lock", "RLock"}


def _normalize_lock(raw: str) -> str:
    """``"_lock (held by compute)"`` -> ``"_lock"``."""
    return raw.strip().split()[0].split("(")[0].rstrip(".")


def _self_attr(target: ast.expr) -> str | None:
    """``attr`` when ``target`` is ``self.attr`` (or a subscript of it)."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _assign_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _collect_class_facts(project: Project
                         ) -> tuple[dict[tuple[str, str], str], set[str]]:
    """``(class_qualname, attr) -> lock name`` from ``# guarded-by:``
    comments on ``self.attr = ...`` lines, and the qualnames of classes
    that create a ``Lock()``/``RLock()`` on ``self``."""
    declared: dict[tuple[str, str], str] = {}
    lock_owners: set[str] = set()
    for fn in project.functions.values():
        if fn.cls is None or isinstance(fn.node, ast.Lambda):
            continue
        comments = project.modules[fn.module].comments
        for node in ast.walk(fn.node):
            for tgt in _assign_targets(node):
                # declarations are plain ``self.attr = ...`` statements
                if isinstance(tgt, ast.Subscript) \
                        or _self_attr(tgt) is None:
                    continue
                value = getattr(node, "value", None)
                if isinstance(value, ast.Call):
                    ctor = (_dotted(value.func) or "").rsplit(".", 1)[-1]
                    if ctor in _LOCK_CTORS:
                        lock_owners.add(fn.cls)
                m = _GUARDED_BY_RE.search(comments.get(node.lineno, ""))
                if m:
                    declared.setdefault((fn.cls, tgt.attr),
                                        _normalize_lock(m.group(1)))
    return declared, lock_owners


def _def_contract(project: Project, fn: FunctionInfo) -> frozenset[str]:
    """Locks a ``# guarded-by:`` comment on the def line promises held."""
    if isinstance(fn.node, ast.Lambda):
        return frozenset()
    comment = project.modules[fn.module].comments.get(fn.node.lineno, "")
    m = _GUARDED_BY_RE.search(comment)
    if not m:
        return frozenset()
    return frozenset(_lock_keys_for_name(project, fn,
                                         _normalize_lock(m.group(1))))


def _lock_keys_for_name(project: Project, fn: FunctionInfo,
                        name: str) -> set[str]:
    """Scoped identities of a bare lock name seen inside ``fn``.

    An instance lock is identified with every class along the MRO chain
    so a subclass holding ``self._lock`` satisfies a guard declared on
    the base; a module-level lock is module-scoped.
    """
    if fn.cls is not None:
        chain = [fn.cls] + [b for b in project.bases_of(fn.cls)
                            if b in project.classes]
        return {f"{c}.{name}" for c in chain}
    return {f"{fn.module}.{name}"}


def _acquired_locks(project: Project, fn: FunctionInfo,
                    item: ast.withitem) -> set[str]:
    """Lock keys a ``with`` item acquires (empty when not lock-like)."""
    expr = item.context_expr
    dotted = _dotted(expr)
    if dotted is None:
        return set()
    parts = dotted.split(".")
    tail = parts[-1]
    if "lock" not in tail.lower():
        return set()
    if parts[0] == "self" and len(parts) == 2 and fn.cls is not None:
        return _lock_keys_for_name(project, fn, tail)
    if len(parts) == 1:
        return {f"{fn.module}.{tail}"}
    return {tail}  # unknown owner: bare tail (best effort)


def check_lockset(project: Project) -> list[Finding]:
    """Two obligations on every ``self.<attr>`` write outside
    construction/teardown, checked on each call path that reaches it:

    *declared* - in a class that owns a lock (itself or through a project
    base), or on a path entered from a pool/thread target of the same
    class (the ``self`` that target provably shares), the attribute must
    carry a ``# guarded-by: <lock>`` declaration;
    *held* - a declared attribute's lock must be in the held set.
    """
    declared, lock_owners = _collect_class_facts(project)

    # callee qualname -> has at least one resolved incoming edge
    has_caller: set[str] = set()
    sites_of: dict[str, dict[int, tuple[str, ...]]] = {}
    for fn in project.functions.values():
        sites_of[fn.qualname] = {id(s.node): s.callees for s in fn.calls}
        for s in fn.calls:
            has_caller.update(s.callees)

    #: (qualname, held locks, call path, class of the pool target the
    #: path was entered from - None off the pool paths)
    work: deque[tuple[str, frozenset[str], tuple[str, ...], str | None]] \
        = deque()
    #: qualname -> pool class -> held sets already walked
    processed: dict[str, dict[str | None, list[frozenset[str]]]] = {}
    findings: dict[tuple[str, int, str], Finding] = {}

    def family(cls: str) -> list[str]:
        return [cls] + project.bases_of(cls)

    def check_write(fn: FunctionInfo, node: ast.AST, attr: str,
                    held: frozenset[str], trace: tuple[str, ...],
                    pool_cls: str | None) -> None:
        fam = family(fn.cls)
        owner = next((c for c in fam if (c, attr) in declared), None)
        if owner is not None:
            lock = declared[(owner, attr)]
            # class-scoped identity of the declaring class's lock
            if f"{owner}.{lock}" in held:
                return
            message = (f"write to self.{attr} (guarded-by: {lock}) is "
                       f"reachable without the lock held")
        elif pool_cls is not None and (pool_cls in fam
                                       or fn.cls in family(pool_cls)):
            message = (f"self.{attr} is written on a path entered from a "
                       f"pool/thread target but carries no "
                       f"'# guarded-by: <lock>' declaration")
        elif lock_owners.intersection(fam):
            message = (f"self.{attr} of a lock-owning class is written "
                       f"outside __init__ but carries no "
                       f"'# guarded-by: <lock>' declaration")
        else:
            return
        findings.setdefault((fn.path, node.lineno, attr), Finding(
            "R8-lockset", fn.path, node.lineno,
            getattr(node, "col_offset", 0), message, trace=trace))

    def visit(fn: FunctionInfo, node: ast.AST, held: frozenset[str],
              trace: tuple[str, ...], pool_cls: str | None,
              exempt: bool) -> None:
        """Walk one node (dispatching on the node itself, so a with-lock
        at any statement depth extends the held set of its body)."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return  # separate FunctionInfo, reached via edges
        if isinstance(node, (ast.With, ast.AsyncWith)):
            added: set[str] = set()
            for item in node.items:
                visit(fn, item.context_expr, held, trace, pool_cls, exempt)
                if item.optional_vars is not None:
                    visit(fn, item.optional_vars, held, trace, pool_cls,
                          exempt)
                added |= _acquired_locks(project, fn, item)
            inner = held | frozenset(added)
            for stmt in node.body:
                visit(fn, stmt, inner, trace, pool_cls, exempt)
            return
        if not exempt and fn.cls is not None:
            for tgt in _assign_targets(node):
                attr = _self_attr(tgt)
                if attr is not None:
                    check_write(fn, node, attr, held, trace, pool_cls)
        if isinstance(node, ast.Call):
            for callee in sites_of[fn.qualname].get(id(node), ()):
                work.append((callee, held, trace + (callee,), pool_cls))
        for child in ast.iter_child_nodes(node):
            visit(fn, child, held, trace, pool_cls, exempt)

    def drain() -> None:
        # NOTE: a def-line guarded-by contract only seeds entry points -
        # it is a promise callers must keep, not a grant, so propagated
        # calls keep the caller's *actual* held set
        while work:
            qual, held, trace, pool_cls = work.popleft()
            fn = project.functions.get(qual)
            if fn is None:
                continue
            walked = processed.setdefault(qual, {}).setdefault(pool_cls, [])
            if any(h <= held for h in walked):
                continue
            walked.append(held)
            exempt = fn.cls is not None and fn.name in _EXEMPT_METHODS
            body = [fn.node.body] if isinstance(fn.node, ast.Lambda) \
                else fn.node.body
            for stmt in body:
                visit(fn, stmt, held, trace, pool_cls, exempt)

    def seed(fn: FunctionInfo, why: str) -> None:
        work.append((fn.qualname, _def_contract(project, fn),
                     (f"{fn.qualname} [{why}]",), None))

    for fn in project.functions.values():
        if fn.pool_target:
            work.append((fn.qualname, frozenset(),
                         (f"{fn.qualname} [pool target]",), fn.cls))
        elif fn.qualname not in has_caller:
            seed(fn, "entry")
        elif not fn.name.startswith("_") and fn.cls is not None \
                and fn.name not in _EXEMPT_METHODS:
            # public methods are callable from outside the project even
            # when they also have internal callers
            seed(fn, "public")
    drain()
    # every function not otherwise reached still gets a pass under its
    # own contract (cycles with no external entry)
    for fn in project.functions.values():
        if fn.qualname not in processed:
            seed(fn, "unreached")
            drain()

    return list(findings.values())


# ======================================================================
# R9 - engine contract conformance
# ======================================================================
def _find_class(project: Project, name: str):
    for cls in project.classes.values():
        if cls.name == name:
            return cls
    return None


def _arg_names(node: ast.FunctionDef) -> tuple[str, ...]:
    a = node.args
    return tuple(x.arg for x in list(a.posonlyargs) + list(a.args))


def _phase_registry(project: Project):
    """``(top, sub, dynamic_parents)`` from the linted ``md/timers.py``
    sources, falling back to the importable module; None disables the
    phase-name check (fixture projects without a registry)."""
    mod = project.modules.get("repro.md.timers")
    if mod is not None:
        got: dict[str, tuple[str, ...]] = {}
        for node in mod.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for tgt in node.targets:
                if isinstance(tgt, ast.Name) and tgt.id in (
                        "TOP_PHASES", "SUB_PHASES", "DYNAMIC_SUB_PARENTS"):
                    if isinstance(node.value, (ast.Tuple, ast.List)):
                        vals = tuple(
                            e.value for e in node.value.elts
                            if isinstance(e, ast.Constant)
                            and isinstance(e.value, str))
                        got[tgt.id] = vals
        if "TOP_PHASES" in got:
            return (got.get("TOP_PHASES", ()), got.get("SUB_PHASES", ()),
                    got.get("DYNAMIC_SUB_PARENTS", ()))
    try:
        from ..md import timers as _t
        return (tuple(_t.TOP_PHASES), tuple(_t.SUB_PHASES),
                tuple(_t.DYNAMIC_SUB_PARENTS))
    except (ImportError, AttributeError):
        return None


def _phase_candidates(expr: ast.expr):
    """Literal phase strings in an argument: constants, both branches
    of a conditional, and f-string literal prefixes (``(prefix, True)``
    marks a dynamic f-string prefix)."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        yield expr.value, False
    elif isinstance(expr, ast.IfExp):
        yield from _phase_candidates(expr.body)
        yield from _phase_candidates(expr.orelse)
    elif isinstance(expr, ast.JoinedStr) and expr.values:
        first = expr.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield first.value, True


def check_engine_contract(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    base = _find_class(project, "ForceEngine")

    if base is not None:
        abstract: dict[str, ast.FunctionDef] = {}
        for node in base.node.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dn = _dotted(dec) or ""
                    if dn.rsplit(".", 1)[-1] == "abstractmethod":
                        abstract[node.name] = node
        impls = [c for c in project.classes.values()
                 if base.qualname in project.bases_of(c.qualname)]
        for impl in impls:
            for name, base_def in abstract.items():
                found = project.method_lookup(impl.qualname, name)
                base_qn = base.methods.get(name)
                if found is None or found == base_qn:
                    findings.append(Finding(
                        "R9-engine-contract", impl.path,
                        impl.node.lineno, impl.node.col_offset,
                        f"{impl.name} does not implement the abstract "
                        f"ForceEngine method {name}()",
                        trace=(impl.qualname,)))
                    continue
                impl_fn = project.functions[found]
                if isinstance(impl_fn.node, ast.Lambda):
                    continue
                want, got = _arg_names(base_def), _arg_names(impl_fn.node)
                if want != got:
                    findings.append(Finding(
                        "R9-engine-contract", impl_fn.path,
                        impl_fn.lineno, 0,
                        f"{impl.name}.{name}{got!r} drifts from the "
                        f"ForceEngine signature {want!r}",
                        trace=(impl_fn.qualname,)))

        rs = _find_class(project, "RunSummary")
        rs_fields: set[str] = set()
        if rs is not None:
            for node in rs.node.body:
                if isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    rs_fields.add(node.target.id)
        if rs_fields:
            for impl in impls:
                qn = impl.methods.get("summary_extras")
                if qn is None:
                    continue
                fn = project.functions[qn]
                for node in ast.walk(fn.node):
                    if not (isinstance(node, ast.Return)
                            and isinstance(node.value, ast.Dict)):
                        continue
                    for key in node.value.keys:
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)
                                and key.value not in rs_fields):
                            findings.append(Finding(
                                "R9-engine-contract", fn.path,
                                key.lineno, key.col_offset,
                                f"summary_extras key {key.value!r} is "
                                f"not a RunSummary field",
                                trace=(fn.qualname,)))

    registry = _phase_registry(project)
    if registry is not None:
        top, sub, dynamic = registry

        def known(name: str) -> bool:
            if "." not in name:
                return name in top
            if name in sub:
                return True
            return name.split(".", 1)[0] in dynamic

        for fn in project.functions.values():
            for site in fn.calls:
                func = site.node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in ("phase", "add")
                        and site.node.args):
                    continue
                recv = _dotted(func.value) or ""
                if recv.rsplit(".", 1)[-1] != "timers":
                    continue
                for value, is_prefix in _phase_candidates(
                        site.node.args[0]):
                    if is_prefix:
                        parent = value.split(".", 1)[0]
                        bad = "." not in value or parent not in dynamic
                        if bad:
                            findings.append(Finding(
                                "R9-engine-contract", fn.path,
                                site.lineno, site.node.col_offset,
                                f"dynamic phase prefix {value!r} is not "
                                f"under a DYNAMIC_SUB_PARENTS parent "
                                f"(registry: repro.md.timers)",
                                trace=(fn.qualname,)))
                    elif not known(value):
                        findings.append(Finding(
                            "R9-engine-contract", fn.path,
                            site.lineno, site.node.col_offset,
                            f"phase {value!r} is not registered in "
                            f"repro.md.timers "
                            f"(TOP_PHASES/SUB_PHASES)",
                            trace=(fn.qualname,)))
    return findings


# ======================================================================
# R10 - determinism taint
# ======================================================================
_SOURCE_SET = "set-order"
_SOURCE_LISTDIR = "listdir-order"
_SOURCE_RNG = "unseeded-rng"
_SOURCE_WALLCLOCK = "wallclock"
_REAL_KINDS = (_SOURCE_SET, _SOURCE_LISTDIR, _SOURCE_RNG,
               _SOURCE_WALLCLOCK)

_SANITIZERS = {"sorted", "sort", "min", "max", "len", "sum", "argsort",
               "searchsorted", "unique"}
_LISTDIR_TAILS = {"listdir", "iterdir", "glob", "rglob", "scandir"}
_SINK_NAME_RE = re.compile(
    r"force|dedr|energy|virial|peratom|dudr", re.IGNORECASE)
_SINK_EXCLUDE_RE = re.compile(r"^t_|time|wall|seconds", re.IGNORECASE)
_ACCUM_CALL_TAILS = {"reduceat"}


def _in_hot_scope(path: str) -> bool:
    return any(s in path for s in HOT_PATH_SCOPE)


class _TaintPass:
    """One intraprocedural pass; params may carry ``<param:i>`` tokens
    so the same walker computes both summaries and final findings."""

    def __init__(self, project: Project, fn: FunctionInfo,
                 summaries: dict[str, dict], param_taint: dict[str, set],
                 collect: list | None) -> None:
        self.project = project
        self.fn = fn
        self.summaries = summaries
        self.env: dict[str, set[str]] = {k: set(v)
                                         for k, v in param_taint.items()}
        self.returns: set[str] = set()
        self.param_sinks: set[str] = set()
        self.collect = collect  # list of Finding or None (summary mode)
        self.sites = {id(s.node): s.callees for s in fn.calls}
        self._reported: set[int] = set()

    # -- expression taint ---------------------------------------------
    def taint(self, node: ast.expr | None) -> set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, (ast.Set, ast.SetComp)):
            t = {_SOURCE_SET}
            for child in ast.iter_child_nodes(node):
                t |= self.taint_children(child)
            return t
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return set()  # order-insensitive boolean results
        if isinstance(node, ast.Call):
            return self.call_taint(node)
        if isinstance(node, ast.Attribute):
            return self.taint(node.value)
        if isinstance(node, ast.Lambda):
            return set()
        return self.taint_children(node)

    def taint_children(self, node: ast.AST) -> set[str]:
        t: set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                t |= self.taint(child)
            elif isinstance(child, ast.comprehension):
                it = self.taint(child.iter)
                if isinstance(child.target, ast.Name):
                    self.env[child.target.id] = \
                        self.env.get(child.target.id, set()) | it
                t |= it
        return t

    def call_taint(self, node: ast.Call) -> set[str]:
        dotted = _dotted(node.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        arg_taint: set[str] = set()
        for a in node.args:
            arg_taint |= self.taint(a)
        for kw in node.keywords:
            arg_taint |= self.taint(kw.value)
        # sinks first: an accumulator call consumes taint
        self.check_call_sink(node, dotted, tail, arg_taint)
        if tail in _SANITIZERS:
            return set()
        if tail in ("set", "frozenset"):
            return {_SOURCE_SET} | arg_taint
        if tail in _LISTDIR_TAILS:
            return {_SOURCE_LISTDIR}
        if tail == "default_rng" and not node.args and not node.keywords:
            return {_SOURCE_RNG}
        if dotted.startswith("time.") and tail in (
                "time", "perf_counter", "monotonic", "process_time"):
            return {_SOURCE_WALLCLOCK}
        callees = self.sites.get(id(node), ())
        if callees:
            out: set[str] = set()
            for callee in callees:
                summ = self.summaries.get(callee)
                if summ is None:
                    out |= arg_taint
                    continue
                out |= set(summ["returns"]) - set(summ["param_tokens"])
                # map parameter tokens through this site's arguments
                fn2 = self.project.functions.get(callee)
                pos = _positional_params(fn2) if fn2 else []
                for i, name in enumerate(pos):
                    tok = f"<param:{name}>"
                    if tok in summ["returns"] and i < len(node.args):
                        out |= self.taint(node.args[i])
                    if name in summ["param_sinks"] and i < len(node.args):
                        at = self.taint(node.args[i])
                        real = at & set(_REAL_KINDS)
                        if real and self.collect is not None:
                            self.report(node, real,
                                        f"tainted argument flows into an "
                                        f"accumulation inside "
                                        f"{callee}()",
                                        extra=(callee,))
                        for tok2 in at - set(_REAL_KINDS):
                            # param-of-caller reaches a sink in callee
                            self.param_sinks.add(tok2)
            return out
        return set(arg_taint)

    # -- sinks ---------------------------------------------------------
    def _target_name(self, node: ast.expr) -> str | None:
        base = node
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return None

    def report(self, node: ast.AST, kinds: set[str], what: str,
               extra: tuple[str, ...] = ()) -> None:
        if self.collect is None or id(node) in self._reported:
            return
        self._reported.add(id(node))
        kind = sorted(kinds)[0]
        self.collect.append(Finding(
            "R10-determinism-taint", self.fn.path, node.lineno,
            getattr(node, "col_offset", 0),
            f"{kind} taint: {what}",
            trace=(self.fn.qualname,) + extra))

    def check_call_sink(self, node: ast.Call, dotted: str, tail: str,
                        arg_taint: set[str]) -> None:
        if not _in_hot_scope(self.fn.path):
            return
        is_accum = (dotted.endswith("add.at") or tail in _ACCUM_CALL_TAILS
                    or "scatter" in tail)
        if not is_accum:
            return
        real = arg_taint & set(_REAL_KINDS)
        if real:
            self.report(node, real,
                        f"unordered/nondeterministic value reaches the "
                        f"fixed-order accumulator {dotted or tail}()")
        for tok in arg_taint - set(_REAL_KINDS):
            self.param_sinks.add(tok)

    def check_aug_sink(self, node: ast.AugAssign) -> None:
        if not _in_hot_scope(self.fn.path):
            return
        name = self._target_name(node.target)
        if name is None or not _SINK_NAME_RE.search(name) \
                or _SINK_EXCLUDE_RE.search(name):
            return
        t = self.taint(node.value)
        if isinstance(node.target, ast.Subscript):
            t |= self.taint(node.target.slice)
        real = t & set(_REAL_KINDS)
        if real:
            self.report(node, real,
                        f"unordered/nondeterministic value accumulated "
                        f"into {name!r}")
        for tok in t - set(_REAL_KINDS):
            self.param_sinks.add(tok)

    # -- statements ----------------------------------------------------
    def assign(self, targets: list[ast.expr], taint: set[str]) -> None:
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                self.env[tgt.id] = set(taint)
            elif isinstance(tgt, (ast.Tuple, ast.List)):
                self.assign(list(tgt.elts), taint)

    def run(self) -> None:
        body = [ast.Return(value=self.fn.node.body)] \
            if isinstance(self.fn.node, ast.Lambda) else self.fn.node.body
        for _ in range(2):  # second pass settles loop-carried taint
            for stmt in body:
                self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(node, ast.Assign):
            self.assign(node.targets, self.taint(node.value))
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.assign([node.target], self.taint(node.value))
            return
        if isinstance(node, ast.AugAssign):
            self.check_aug_sink(node)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = \
                    self.env.get(node.target.id, set()) \
                    | self.taint(node.value)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            it = self.taint(node.iter)
            self.assign([node.target], it)
            for s in node.body + node.orelse:
                self.stmt(s)
            return
        if isinstance(node, ast.Return):
            self.returns |= self.taint(node.value)
            return
        if isinstance(node, ast.Expr):
            self.taint(node.value)
            return
        # generic: evaluate guard expressions, recurse into bodies
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.taint(child)
            elif isinstance(child, ast.stmt):
                self.stmt(child)
            elif isinstance(child, (ast.withitem, ast.excepthandler)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self.taint(sub)
                    elif isinstance(sub, ast.stmt):
                        self.stmt(sub)


def _positional_params(fn: FunctionInfo) -> list[str]:
    if isinstance(fn.node, ast.Lambda):
        a = fn.node.args
    else:
        a = fn.node.args
    names = [x.arg for x in list(a.posonlyargs) + list(a.args)]
    if fn.cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def check_taint(project: Project) -> list[Finding]:
    # ---- fixpoint over per-function summaries ------------------------
    summaries: dict[str, dict] = {}
    for _ in range(6):
        changed = False
        for fn in project.functions.values():
            params = _positional_params(fn)
            tokens = {f"<param:{p}>" for p in params}
            tp = _TaintPass(project, fn, summaries,
                            {p: {f"<param:{p}>"} for p in params},
                            collect=None)
            tp.run()
            # wall-clock readings returned from helpers are ledger data
            # by design (every evaluate() returns timings next to the
            # forces); only *intra-function* wall-clock flow can convict,
            # so the kind does not survive a return
            summ = {
                "returns": frozenset(tp.returns - {_SOURCE_WALLCLOCK}),
                "param_sinks": frozenset(
                    t[len("<param:"):-1] for t in tp.param_sinks
                    if t.startswith("<param:")),
                "param_tokens": frozenset(tokens),
            }
            if summaries.get(fn.qualname) != summ:
                summaries[fn.qualname] = summ
                changed = True
        if not changed:
            break

    # ---- reporting pass ---------------------------------------------
    findings: list[Finding] = []
    for fn in project.functions.values():
        out: list[Finding] = []
        tp = _TaintPass(project, fn, summaries, {}, collect=out)
        tp.run()
        findings.extend(out)
    # dedup (a function can be re-walked through both passes)
    seen: set[tuple] = set()
    kept: list[Finding] = []
    for f in findings:
        key = (f.path, f.line, f.col, f.message)
        if key not in seen:
            seen.add(key)
            kept.append(f)
    return kept
