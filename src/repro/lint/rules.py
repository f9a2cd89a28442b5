"""Repo-aware per-file static-analysis rules for the SNAP/MD codebase.

One analysis per bug class; each mirrors a convention the concurrent
hot path relies on (see the module docstrings of
:mod:`repro.parallel.distributed` and :mod:`repro.parallel.process_engine`):

R1 *determinism*
    Bitwise reproducibility rests on fixed iteration and accumulation
    order.  Iterating a ``set`` (or reducing over one with ``sum``)
    injects hash order into the result, so it is banned in the
    parallel layer and the SNAP kernel.

R2 *uninitialised scratch*
    ``np.empty`` scratch must be filled before it escapes.  (Implicit
    complex->real narrowing is not a lint rule: the project pytest
    config turns NumPy's own ``ComplexWarning`` into an error, which
    convicts it at run time on every tested path.)

R5 *shared-memory lifecycle*
    ``multiprocessing.shared_memory`` segments are named kernel objects
    that outlive a crashed process: every created block must have a
    guaranteed close+unlink path.

R5-helper / R6 *ownership*
    "Only module X may call Y on a path named Z", one row each of
    :data:`OWNERS`: raw ``SharedMemory`` belongs to
    :mod:`repro.parallel.shm` (resource-tracker workaround, idempotent
    teardown); raw writes of checkpoint/trajectory paths to
    :mod:`repro.md.dump` / :mod:`repro.md.trajectory` (atomic replace,
    CRC frames, torn-tail recovery).

The whole-program rules (R8 lockset - the only lock rule -, R9 engine
contract, R10 determinism taint) live in :mod:`repro.lint.flow` and are
only registered here.  Every rule reports :class:`Finding` objects;
suppression happens in the engine via
``# repro-lint: disable=<id> -- <why>`` pragmas.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable

from .graph import ModuleInfo, _dotted

__all__ = ["Finding", "Rule", "RULES", "OWNERS", "HOT_PATH_SCOPE",
           "SHM_SCOPE", "IO_SCOPE"]

@dataclass(frozen=True)
class Finding:
    """One static-analysis diagnostic.

    ``trace`` is populated by the whole-program analyses
    (:mod:`repro.lint.flow`): for a cross-file finding it names the
    call path (entry point -> ... -> write/sink site) that witnesses
    the violation, so the report shows both the convicted line and how
    execution reaches it.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.trace:
            head += "\n    via " + " -> ".join(self.trace)
        return head


@dataclass(frozen=True)
class Rule:
    id: str
    summary: str
    #: path substrings the rule applies to (None = every file)
    scope: tuple[str, ...] | None
    #: per-file check on the parsed module; None for the whole-program
    #: rules (R8/R9/R10), which run once per *project* on the shared
    #: call graph (repro.lint.flow)
    check: Callable[[ModuleInfo], list[Finding]] | None
    project: bool = False

    def applies_to(self, path: str) -> bool:
        if self.scope is None:
            return True
        return any(s in path for s in self.scope)


#: where the determinism rules bite: the concurrent layer + SNAP kernel
HOT_PATH_SCOPE = ("repro/parallel/", "repro/core/snap.py",
                  "repro/md/engine.py")
#: where the shared-memory helper/lifecycle rules bite
SHM_SCOPE = ("repro/parallel/",)
#: where the io ownership rule bites (the whole package)
IO_SCOPE = ("repro/",)


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _call_name(node: ast.Call) -> str | None:
    return _dotted(node.func)


def _tail(name: str | None) -> str | None:
    """Last component of a dotted name ('np.empty' -> 'empty')."""
    return None if name is None else name.rsplit(".", 1)[-1]


def _base_name(node: ast.expr) -> str | None:
    """Underlying variable of a view chain (``v[sl].reshape(...).T`` -> v).

    Descends through subscripts, attribute access and no-copy array
    methods so alias assignments like ``o = out[:, sl].reshape(n, -1)``
    resolve to the buffer they view.
    """
    view_methods = {"reshape", "view", "transpose", "ravel", "swapaxes",
                    "astype", "squeeze"}
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in view_methods:
                node = fn.value
            else:
                return None
        else:
            return None


def _functions(tree: ast.Module):
    """Yield ``(func_node, enclosing_class_or_None)`` for every def/lambda."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, cls))
                visit(child, cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, child)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


# ======================================================================
# R1 - determinism
# ======================================================================
_SET_CTORS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference",
                "copy"}
_ORDER_SINKS = {"list", "tuple"}
_UNORDERED_REDUCERS = {"sum", "functools.reduce", "reduce"}


class _SetTracker(ast.NodeVisitor):
    """Track which local names are (syntactically) set-valued."""

    def __init__(self) -> None:
        self.env: set[str] = set()

    def is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.env
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return self.is_setish(node.left) and self.is_setish(node.right)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _SET_CTORS:
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SET_METHODS
                    and self.is_setish(node.func.value)):
                return True
        return False

    def note_assign(self, node: ast.Assign) -> None:
        setish = self.is_setish(node.value)
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                if setish:
                    self.env.add(tgt.id)
                else:
                    self.env.discard(tgt.id)


def _check_r1(ctx: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    tracker = _SetTracker()

    def flag(rule: str, node: ast.AST, msg: str) -> None:
        findings.append(Finding(rule, ctx.path, node.lineno, node.col_offset,
                                msg))

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            tracker.note_assign(node)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and tracker.is_setish(node.iter):
            flag("R1-set-iter", node.iter,
                 "iteration over a set is hash-ordered; sort it "
                 "(`for x in sorted(...)`) to keep results deterministic")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if tracker.is_setish(gen.iter):
                    flag("R1-set-iter", gen.iter,
                         "comprehension over a set is hash-ordered; "
                         "wrap the iterable in sorted(...)")
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if (name in _ORDER_SINKS and node.args
                    and tracker.is_setish(node.args[0])):
                flag("R1-set-iter", node,
                     f"{name}() over a set materializes hash order; "
                     "use sorted(...) instead")
            elif (name in _UNORDERED_REDUCERS and node.args
                    and tracker.is_setish(node.args[0])):
                flag("R1-unordered-reduce", node,
                     "floating-point reduction over a set depends on hash "
                     "order; reduce over sorted(...) for a fixed "
                     "accumulation order")
    return findings


# ======================================================================
# R2 - uninitialised scratch
# ======================================================================
_ALLOC_FNS = {"zeros", "empty", "ones", "full"}


def _iter_stmts(body):
    """Textual-order statement walk that stays inside the current scope."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _iter_stmts(getattr(stmt, field, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_stmts(handler.body)


def _check_r2_empty(ctx: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for func, _cls in _functions(ctx.tree):
        empties: dict[str, ast.AST] = {}    # name -> allocation node
        aliases: dict[str, str] = {}        # view name -> buffer name
        stored: set[str] = set()
        escapes: dict[str, ast.AST] = {}

        def root(name: str | None) -> str | None:
            seen = set()
            while name in aliases and name not in seen:
                seen.add(name)
                name = aliases[name]
            return name if name in empties else None

        body_stmts = list(_iter_stmts(func.body))
        for stmt in body_stmts:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                tname = stmt.targets[0].id
                val = stmt.value
                if isinstance(val, ast.Call) \
                        and _tail(_call_name(val)) == "empty" \
                        and _call_name(val) not in ("empty",):
                    empties[tname] = stmt
                    aliases.pop(tname, None)
                    continue
                base = _base_name(val)
                if base is not None and root(base):
                    aliases[tname] = base
                    continue
                aliases.pop(tname, None)
                empties.pop(tname, None)
        # stores: subscript assignment, aug-assignment, out= keyword.
        # Walk the whole subtree (nested closures included): a shard
        # worker filling `dedr[lo:hi]` inside a submitted closure is a
        # store on the outer buffer.
        for stmt in ast.walk(func):
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    r = root(_base_name(tgt.value))
                    if r:
                        stored.add(r)
                elif isinstance(tgt, ast.Name) and isinstance(stmt,
                                                              ast.AugAssign):
                    r = root(tgt.id)
                    if r:
                        stored.add(r)
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out":
                        r = root(_base_name(kw.value))
                        if r:
                            stored.add(r)
                tail = _tail(_call_name(node))
                if tail in ("fill", "copyto"):
                    target = (node.func.value if isinstance(node.func,
                                                            ast.Attribute)
                              else (node.args[0] if node.args else None))
                    if target is not None:
                        r = root(_base_name(target))
                        if r:
                            stored.add(r)
        # escapes: the raw buffer leaves the function or is consumed
        for node in ast.walk(func):
            args: list[ast.expr] = []
            if isinstance(node, ast.Return) and node.value is not None:
                args = [node.value]
            elif isinstance(node, ast.Call):
                tail = _tail(_call_name(node))
                if tail in _ALLOC_FNS or tail in ("fill", "copyto"):
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords
                                          if kw.arg != "out"]
            elif isinstance(node, ast.Assign) and isinstance(
                    node.targets[0], ast.Attribute):
                args = [node.value]
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                    and node.value is not None:
                args = [node.value]
            for arg in args:
                leaves = [arg]
                if isinstance(arg, (ast.Tuple, ast.List)):
                    leaves = list(arg.elts)
                for leaf in leaves:
                    if isinstance(leaf, ast.Name):
                        r = root(leaf.id)
                        if r and r not in escapes:
                            escapes[r] = node
        for name, site in escapes.items():
            if name not in stored:
                findings.append(Finding(
                    "R2-empty-escape", ctx.path, site.lineno,
                    getattr(site, "col_offset", 0),
                    f"np.empty buffer '{name}' escapes without any element "
                    "assignment; uninitialized memory would leak into "
                    "results - fill it or allocate with np.zeros"))
    return findings


# ======================================================================
# R5-helper / R6 - ownership: only module X may call Y on path Z
# ======================================================================
#: the one module allowed to touch multiprocessing.shared_memory raw
_SHM_HELPER_PATH = "parallel/shm.py"
#: callables that put bytes on disk
_WRITE_TAILS = ("savez", "savez_compressed", "save",
                "write_bytes", "write_text")


def _expr_words(node: ast.expr) -> str:
    """Identifiers and string literals inside an expression, joined."""
    parts: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            parts.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            parts.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts.append(sub.value)
        elif isinstance(sub, ast.JoinedStr):
            for v in sub.values:
                if isinstance(v, ast.Constant) and isinstance(v.value, str):
                    parts.append(v.value)
    return " ".join(parts)


def _raw_write_target(node: ast.Call) -> str | None:
    """Words describing the path of a raw file write, or ``None``.

    Recognizes ``open(..., "w"/"a"/"x"/"+")``, ``np.savez*``/``np.save``
    and ``Path.write_bytes``/``write_text``; the returned string joins
    the callable name with the identifiers/literals in the path
    expression so ownership rules can hint-match against it.
    """
    name = _call_name(node) or ""
    tail = _tail(name)
    target = name
    if tail == "open":
        mode = node.args[1] if len(node.args) >= 2 else None
        for kwa in node.keywords:
            if kwa.arg == "mode":
                mode = kwa.value
        if not (isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and any(c in mode.value for c in "wax+")):
            return None
    elif tail not in _WRITE_TAILS:
        return None
    if node.args:
        target += " " + _expr_words(node.args[0])
    return target


def _raw_shm_target(node: ast.Call) -> str | None:
    name = _call_name(node)
    return name if _tail(name) == "SharedMemory" else None


@dataclass(frozen=True)
class Owner:
    """One ownership row: outside ``owners`` (path suffixes), a call for
    which ``target`` returns words containing one of ``hints`` (any
    words when ``hints`` is empty) is a ``rule`` finding."""

    rule: str
    owners: tuple[str, ...]
    target: Callable[[ast.Call], str | None]
    hints: tuple[str, ...]
    message: str


OWNERS = (
    Owner("R5-shm-helper", (_SHM_HELPER_PATH,), _raw_shm_target, (),
          "raw SharedMemory construction outside repro.parallel.shm; "
          "use create_shm/attach_shm/SharedBlock so the resource-"
          "tracker workaround and idempotent teardown apply"),
    Owner("R6-io-owner", ("md/dump.py", "md/trajectory.py"),
          _raw_write_target, ("traj", "ckpt", "checkpoint", "restart"),
          "raw write of a checkpoint/trajectory path outside "
          "repro.md.dump / repro.md.trajectory; route it through "
          "write_checkpoint or TrajectoryFile so atomic replace "
          "and torn-frame recovery apply"),
)


def _check_owners(ctx: ModuleInfo) -> list[Finding]:
    rows = [o for o in OWNERS
            if not any(ctx.path.endswith(p) for p in o.owners)]
    findings: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        for row in rows:
            words = row.target(node)
            if words is not None and (not row.hints or any(
                    h in words.lower() for h in row.hints)):
                findings.append(Finding(row.rule, ctx.path, node.lineno,
                                        node.col_offset, row.message))
    return findings


# ======================================================================
# R5 - shared-memory lifecycle
# ======================================================================
#: a cleanup call counts if its name suggests close/unlink/finalize
_CLOSE_HINTS = ("close", "unlink", "finaliz")


def _closes_somehow(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            tail = (_tail(_call_name(sub)) or "").lower()
            if any(hint in tail for hint in _CLOSE_HINTS):
                return True
    return False


def _check_r5_lifecycle(ctx: ModuleInfo) -> list[Finding]:
    """Every block creation inside ``repro.parallel``
    (``create_shm`` / ``SharedBlock.create``) must have a guaranteed
    cleanup path.  Heuristic, by construction site:

    * assigned to ``self.<attr>`` (or a container on self): the class
      must have a ``close``/``_cleanup``/``__exit__`` method that calls
      something close/unlink/finalize-ish;
    * assigned to a local: the enclosing function needs a
      ``try/finally`` whose finalbody closes, or a ``with`` block.

    A leak-prone pattern this rule exists for: creating a segment and
    unlinking it only on the happy path, so an exception mid-step
    strands the named block in /dev/shm.
    """
    findings: list[Finding] = []
    if ctx.path.endswith(_SHM_HELPER_PATH):
        return findings
    funcs = _functions(ctx.tree)
    for func, cls in funcs:
        has_finally_close = any(
            isinstance(st, ast.Try) and st.finalbody
            and any(_closes_somehow(fin) for fin in st.finalbody)
            for st in ast.walk(func))
        has_with = any(isinstance(st, ast.With) for st in ast.walk(func))
        cls_closes = cls is not None and any(
            c is cls and f.name in ("close", "_cleanup", "__exit__")
            and _closes_somehow(f) for f, c in funcs)
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign) \
                    or not isinstance(stmt.value, ast.Call):
                continue
            name = _call_name(stmt.value) or ""
            tail = _tail(name)
            if not (tail == "create_shm"
                    or (tail == "create" and "SharedBlock" in name)):
                continue
            base = stmt.targets[0]
            while isinstance(base, ast.Subscript):
                base = base.value
            on_self = (isinstance(base, ast.Attribute)
                       and isinstance(base.value, ast.Name)
                       and base.value.id == "self")
            ok = (on_self and cls_closes) \
                or has_finally_close or (not on_self and has_with)
            if not ok:
                findings.append(Finding(
                    "R5-shm-lifecycle", ctx.path, stmt.lineno,
                    stmt.col_offset,
                    "shared-memory block is created without a guaranteed "
                    "close+unlink path (no try/finally, no with, and no "
                    "owning close()/_cleanup() method); an exception here "
                    "strands the named segment in /dev/shm"))
    return findings


# ======================================================================
# registry
# ======================================================================
RULES: dict[str, Rule] = {r.id: r for r in [
    Rule("R1-set-iter",
         "iteration/materialization of a hash-ordered set in the hot path",
         HOT_PATH_SCOPE, _check_r1),
    Rule("R1-unordered-reduce",
         "floating-point reduction over a hash-ordered iterable",
         HOT_PATH_SCOPE, _check_r1),
    Rule("R2-empty-escape",
         "np.empty buffer escapes before any assignment",
         None, _check_r2_empty),
    Rule("R5-shm-helper",
         "raw SharedMemory construction outside the shm helper module",
         SHM_SCOPE, _check_owners),
    Rule("R5-shm-lifecycle",
         "shared-memory block created without a guaranteed cleanup path",
         SHM_SCOPE, _check_r5_lifecycle),
    Rule("R6-io-owner",
         "raw write of a restart-critical file outside its owner module",
         IO_SCOPE, _check_owners),
    # whole-program analyses (repro.lint.flow)
    Rule("R8-lockset",
         "shared attribute undeclared, or written on a lock-free call path",
         None, None, project=True),
    Rule("R9-engine-contract",
         "ForceEngine implementation drifts from the engine protocol",
         None, None, project=True),
    Rule("R10-determinism-taint",
         "unordered/wall-clock taint flows into a hot-path accumulation",
         None, None, project=True),
]}
