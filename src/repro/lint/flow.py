"""The whole-program lock rule on the :mod:`repro.lint.graph` call graph.

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

A race is what no test convicts: in the seeded-bug ledger
(``tests/mutants/ledger.py``, EXPERIMENTS E26) R8 is the only net that
catches a lock-free write on the segment service's pool threads or the
trajectory writer's drain thread.  The two other whole-program rules
this module held are deleted on that ledger's evidence: the engine
contract is enforced at run time (abstract methods and ``RunSummary``
fields raise ``TypeError``, ``PhaseTimers`` rejects an unregistered
phase), and the determinism-taint analysis convicted no bug that tier-1
or R1 does not.

Findings are :class:`repro.lint.rules.Finding` objects whose ``trace``
carries the call path.
"""

from __future__ import annotations

import ast
import re
from collections import deque

from .graph import Project, FunctionInfo, _dotted
from .rules import Finding

__all__ = ["run_project_rules", "PROJECT_RULE_IDS"]

PROJECT_RULE_IDS = ("R8-lockset",)

#: methods allowed to touch guarded state unlocked: construction and
#: teardown of the *owning* reference happen-before/after any sharing
_EXEMPT_METHODS = {"__init__", "__del__", "__enter__", "__exit__"}


def run_project_rules(project: Project,
                      active: set[str] | None = None) -> list[Finding]:
    """Run the whole-program rule (unless deselected) over one project."""
    if active is not None and "R8-lockset" not in active:
        return []
    return sorted(check_lockset(project),
                  key=lambda f: (f.path, f.line, f.col, f.rule))


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
