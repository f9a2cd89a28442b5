"""Repo-aware static-analysis rules for the SNAP/MD codebase.

Seven rule families, mirroring the conventions the concurrent hot path
relies on (see the module docstrings of :mod:`repro.parallel.distributed`
and :mod:`repro.parallel.process_engine`):

R1 *determinism*
    Bitwise reproducibility rests on fixed iteration and accumulation
    order.  Iterating a ``set`` (or reducing over one with ``sum``)
    injects hash order into the result, so it is banned in the
    parallel layer and the SNAP kernel.

R2 *dtype discipline*
    The Wigner/adjoint pipeline is complex-valued up to the final
    contraction; every complex→real transition must be an explicit
    ``.real`` (or ``abs``), accumulators must not be narrower than
    their addends, and ``np.empty`` scratch must be filled before it
    escapes.

R3 *thread safety*
    Shared mutable attributes of classes that serialize with a lock, or
    that are written from code reachable from a thread-pool target,
    carry a ``# guarded-by: <lock>`` annotation and are written under
    ``with <lock>`` (or at a site annotated as holding it).

R4 *hygiene*
    Bare/broad ``except``, mutable default arguments, and bindings that
    shadow NumPy-adjacent builtins (``sum``, ``abs``, ``all``, ...).

R5 *shared-memory lifecycle*
    ``multiprocessing.shared_memory`` segments are named kernel objects
    that outlive a crashed process.  Inside ``repro.parallel`` every
    raw ``SharedMemory`` touch must go through :mod:`repro.parallel.shm`
    and every created block must have a guaranteed close+unlink path.

R6 *io ownership*
    Checkpoint and trajectory files have exactly two owners -
    :mod:`repro.md.dump` (atomic ``.npz`` checkpoints) and
    :mod:`repro.md.trajectory` (chunked binary frames with torn-tail
    recovery).  A raw ``open(..., "w")``/``np.savez`` against a
    restart-critical path anywhere else bypasses the atomic-replace
    and CRC conventions those modules exist to centralize.

R7 *tuning-DB ownership*
    The kernel-policy tuning DB has one owner -
    :mod:`repro.tuning.db` (versioned schema, host fingerprint, atomic
    tmp+``os.replace`` write, corrupt-tolerant read).  A raw write
    against a tuning-DB-named path anywhere else can tear the file a
    concurrent tuner is replacing or skip the schema envelope.

Every rule reports :class:`Finding` objects; suppression happens in the
engine via ``# repro-lint: disable=<id> -- <why>`` pragmas.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable

__all__ = ["Finding", "Rule", "RULES", "FileContext", "HOT_PATH_SCOPE",
           "THREAD_SCOPE", "TIMER_SCOPE", "SHM_SCOPE", "IO_SCOPE"]


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


@dataclass
class FileContext:
    """Parsed file handed to every rule check."""

    path: str           #: posix-style path used for scope matching
    source: str
    lines: list[str]
    tree: ast.Module
    comments: dict[int, str]  #: line -> comment text (incl. leading '#')


@dataclass(frozen=True)
class Rule:
    id: str
    summary: str
    #: path substrings the rule applies to (None = every file)
    scope: tuple[str, ...] | None
    check: Callable[[FileContext], list[Finding]] | None
    #: whole-program rules (R8/R9/R10) run once per *project* on the
    #: shared call graph (repro.lint.flow), not per file; their
    #: ``check`` is None and ``scope`` only gates reporting paths
    project: bool = False

    def applies_to(self, path: str) -> bool:
        if self.scope is None:
            return True
        return any(s in path for s in self.scope)


#: where the determinism rules bite: the concurrent layer + SNAP kernel
HOT_PATH_SCOPE = ("repro/parallel/", "repro/core/snap.py",
                  "repro/md/engine.py")
#: where the guarded-by convention is enforced
THREAD_SCOPE = ("repro/parallel/distributed.py",
                "repro/parallel/process_engine.py", "repro/md/engine.py",
                "repro/md/trajectory.py", "repro/tuning/",
                "repro/parsplice/service.py")
#: where raw perf_counter() loop accounting is banned outside the
#: sanctioned owners (PhaseTimers and the shared MDLoop): the drivers
#: and the engine layer, which must route timing through PhaseTimers
TIMER_SCOPE = ("repro/md/engine.py", "repro/parallel/distributed.py",
               "repro/parallel/process_engine.py", "repro/tuning/")
#: where the shared-memory helper/lifecycle rules bite
SHM_SCOPE = ("repro/parallel/",)
#: where the R6 io-ownership rule bites (the whole package)
IO_SCOPE = ("repro/",)
#: the only modules allowed to write restart-critical files raw
_IO_OWNER_PATHS = ("md/dump.py", "md/trajectory.py")
#: path-expression fragments that mark a file as restart-critical
_IO_NAME_HINTS = ("traj", "ckpt", "checkpoint", "restart")
#: the one module allowed to write the kernel-policy tuning DB raw
_TUNING_OWNER_PATH = "tuning/db.py"
#: path-expression fragments that mark a file as a tuning DB
_TUNING_NAME_HINTS = ("tuning",)
#: the one module allowed to touch multiprocessing.shared_memory raw
_SHM_HELPER_PATH = "parallel/shm.py"
#: classes allowed to call time.perf_counter() directly inside TIMER_SCOPE
_TIMER_OWNERS = ("PhaseTimers", "MDLoop")

_GUARDED_BY_RE = re.compile(r"#:?\s*guarded-by:\s*([A-Za-z_][\w.()\- ]*)")


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.expr) -> str | None:
    """Dotted name of an expression (``np.add.at`` -> 'np.add.at')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


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


def _parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


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


def _check_r1(ctx: FileContext) -> list[Finding]:
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
# R2 - dtype discipline
# ======================================================================
REAL32 = "real32"
REAL64 = "real64"
COMPLEX = "complex"

_COMPLEX_DT = {"complex", "complex64", "complex128", "cdouble", "csingle",
               "cfloat"}
_REAL32_DT = {"float32", "float16", "half", "single"}
_REAL64_DT = {"float", "float64", "double", "longdouble"}
_ALLOC_FNS = {"zeros", "empty", "ones", "full"}
_ALLOC_LIKE = {"zeros_like", "empty_like", "ones_like", "full_like"}
_REAL_FNS = {"real", "absolute", "abs", "angle", "hypot", "norm"}
_INHERIT_FNS = {"conj", "conjugate", "ascontiguousarray", "asarray", "array",
                "copy", "exp", "sqrt", "negative"}
_COMBINE_FNS = {"einsum", "matmul", "dot", "tensordot", "add", "multiply",
                "subtract", "outer"}
#: repo-specific functions known to return complex arrays (the Wigner
#: pipeline); keeps the checker useful across module boundaries.
_COMPLEX_PRODUCERS = {"cayley_klein", "compute_u_layers_half_lm"}


def _dtype_class(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    leaf: str | None = None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        leaf = node.value
    else:
        leaf = _tail(_dotted(node))
    if leaf in _COMPLEX_DT:
        return COMPLEX
    if leaf in _REAL32_DT:
        return REAL32
    if leaf in _REAL64_DT:
        return REAL64
    return None


class _DtypeEnv:
    """Best-effort per-scope array dtype-class inference."""

    def __init__(self) -> None:
        self.env: dict[str, str] = {}

    # ------------------------------------------------------------------
    def classify(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Constant):
            return COMPLEX if isinstance(node.value, complex) else None
        if isinstance(node, ast.Attribute):
            if node.attr in ("real", "imag"):
                inner = self.classify(node.value)
                return REAL32 if inner == REAL32 else REAL64
            if node.attr == "T":
                return self.classify(node.value)
            return None
        if isinstance(node, ast.Subscript):
            return self.classify(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.classify(node.operand)
        if isinstance(node, ast.BinOp):
            return self._combine(self.classify(node.left),
                                 self.classify(node.right))
        if isinstance(node, ast.IfExp):
            return self._combine(self.classify(node.body),
                                 self.classify(node.orelse))
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        return None

    @staticmethod
    def _combine(a: str | None, b: str | None) -> str | None:
        if COMPLEX in (a, b):
            return COMPLEX
        if REAL64 in (a, b):
            return REAL64
        if REAL32 in (a, b):
            return REAL32
        return None

    def _dtype_kw(self, node: ast.Call) -> ast.expr | None:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return kw.value
        return None

    def _classify_call(self, node: ast.Call) -> str | None:
        name = _call_name(node)
        tail = _tail(name)
        if tail == "astype":
            return _dtype_class(node.args[0] if node.args
                                else self._dtype_kw(node))
        if tail in _ALLOC_FNS:
            return _dtype_class(self._dtype_kw(node)) or REAL64
        if tail in _ALLOC_LIKE:
            dt = _dtype_class(self._dtype_kw(node))
            if dt:
                return dt
            return self.classify(node.args[0]) if node.args else None
        if tail in _REAL_FNS:
            return REAL64
        if tail in _INHERIT_FNS:
            dt = _dtype_class(self._dtype_kw(node))
            if dt:
                return dt
            return self.classify(node.args[0]) if node.args else None
        if tail in _COMBINE_FNS:
            cls: str | None = None
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    continue  # einsum subscripts
                cls = self._combine(cls, self.classify(arg))
            return cls
        if tail in _COMPLEX_PRODUCERS:
            return COMPLEX
        return None

    # ------------------------------------------------------------------
    def note_assign(self, node: ast.Assign) -> None:
        cls = self.classify(node.value)
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                if cls is None:
                    self.env.pop(tgt.id, None)
                else:
                    self.env[tgt.id] = cls


def _scopes(tree: ast.Module):
    """Yield statement bodies that form dtype-inference scopes."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


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


def _check_r2_casts(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []

    def flag(rule: str, node: ast.AST, msg: str) -> None:
        findings.append(Finding(rule, ctx.path, node.lineno, node.col_offset,
                                msg))

    for body in _scopes(ctx.tree):
        env = _DtypeEnv()
        for stmt in _iter_stmts(body):
            if isinstance(stmt, ast.Assign):
                env.note_assign(stmt)
                vcls = env.classify(stmt.value)
                if vcls == COMPLEX:
                    for tgt in stmt.targets:
                        if not isinstance(tgt, ast.Subscript):
                            continue
                        tcls = env.classify(tgt.value)
                        if tcls in (REAL32, REAL64):
                            flag("R2-complex-narrowing", stmt,
                                 "storing a complex expression into a real "
                                 "buffer discards the imaginary part "
                                 "implicitly; take .real (or abs) explicitly")
            elif isinstance(stmt, ast.AugAssign):
                tcls = env.classify(stmt.target)
                vcls = env.classify(stmt.value)
                if tcls in (REAL32, REAL64) and vcls == COMPLEX:
                    flag("R2-complex-narrowing", stmt,
                         "accumulating a complex value into a real buffer; "
                         "take .real explicitly")
                elif tcls == REAL32 and vcls == REAL64:
                    flag("R2-mixed-accumulator", stmt,
                         "float32 accumulator receives float64 addends; the "
                         "accumulation silently rounds each step - widen the "
                         "accumulator (or cast the addend deliberately)")
        # explicit .astype down-casts from complex sources
        for node in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"):
                dst = _dtype_class(node.args[0] if node.args else None)
                src = env.classify(node.func.value)
                if src == COMPLEX and dst in (REAL32, REAL64):
                    flag("R2-complex-narrowing", node,
                         "astype() from complex to real discards the "
                         "imaginary part under a warning only; take .real "
                         "first")
    return findings


def _check_r2_empty(ctx: FileContext) -> list[Finding]:
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
# R3 - guarded-by thread-safety convention
# ======================================================================
_POOL_METHODS = {"submit", "map", "apply_async", "apply", "imap",
                 "imap_unordered", "starmap"}
_POOL_KWARGS = {"target", "initializer"}
_LOCK_CTORS = {"Lock", "RLock"}
_EXEMPT_METHODS = {"__init__", "__enter__", "__exit__", "__del__", "close"}


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _tail(_call_name(node.value)) in _LOCK_CTORS:
                for tgt in node.targets:
                    if (isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"):
                        locks.add(tgt.attr)
    return locks


def _self_attr_writes(func: ast.AST):
    """Yield ``(node, attr_name)`` for writes to ``self.<attr>`` in func."""
    for node in ast.walk(func):
        targets = []
        if isinstance(node, (ast.Assign,)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for tgt in targets:
            base = tgt
            while isinstance(base, ast.Subscript):
                base = base.value
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"):
                yield node, base.attr


def _has_guard_comment(ctx: FileContext, *lines: int) -> bool:
    return any(_GUARDED_BY_RE.search(ctx.comments.get(ln, ""))
               for ln in lines)


def _under_lock(node: ast.AST, func: ast.AST, parents: dict,
                locks: set[str]) -> bool:
    """Is ``node`` lexically inside ``with self.<lock>`` within ``func``?"""
    cur = node
    while cur is not func and cur in parents:
        cur = parents[cur]
        if isinstance(cur, ast.With):
            for item in cur.items:
                expr = item.context_expr
                name = _dotted(expr) or ""
                attr = name.split(".")[-1]
                if attr in locks or "lock" in attr.lower():
                    return True
    return False


def _check_r3(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    parents = _parent_map(ctx.tree)
    funcs = _functions(ctx.tree)
    cls_of = {id(f): c for f, c in funcs}
    by_name: dict[str, list[ast.AST]] = {}
    for f, _c in funcs:
        by_name.setdefault(f.name, []).append(f)

    def flag(rule: str, node: ast.AST, msg: str) -> None:
        findings.append(Finding(rule, ctx.path, node.lineno,
                                getattr(node, "col_offset", 0), msg))

    # --- pool-target discovery -----------------------------------------
    targets: list[ast.AST] = []

    def enclosing_class(site: ast.AST) -> ast.ClassDef | None:
        cur: ast.AST | None = site
        while cur is not None and not isinstance(cur, ast.ClassDef):
            cur = parents.get(cur)
        return cur

    def resolve_callable(expr: ast.expr, site: ast.AST) -> None:
        if isinstance(expr, ast.Lambda):
            # a lambda handed to the pool calls back into its enclosing
            # class; give it that class so self.<m>() edges resolve
            cls_of[id(expr)] = enclosing_class(site)
            targets.append(expr)
        elif isinstance(expr, ast.Name):
            targets.extend(by_name.get(expr.id, []))
        elif (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            cur = enclosing_class(site)
            if cur is not None:
                for f, c in funcs:
                    if c is cur and f.name == expr.attr:
                        targets.append(f)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_METHODS and node.args):
            resolve_callable(node.args[0], node)
        for kw in node.keywords:
            if kw.arg in _POOL_KWARGS:
                resolve_callable(kw.value, node)

    # --- reachability over same-module calls ---------------------------
    reachable: list[ast.AST] = []
    seen: set[int] = set()
    work = list(targets)
    while work:
        f = work.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        reachable.append(f)
        cls = cls_of.get(id(f))
        for node in ast.walk(f):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                work.extend(by_name.get(node.func.id, []))
            elif (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self" and cls is not None):
                for g, c in funcs:
                    if c is cls and g.name == node.func.attr:
                        work.append(g)

    # --- check 1: writes reachable from pool targets -------------------
    for f in reachable:
        cls = cls_of.get(id(f))
        locks = _lock_attrs(cls) if cls is not None else set()
        fname = getattr(f, "name", "<lambda>")
        for node, attr in _self_attr_writes(f):
            if _under_lock(node, f, parents, locks):
                continue
            if _has_guard_comment(ctx, node.lineno, f.lineno):
                continue
            flag("R3-pool-write", node,
                 f"'self.{attr}' is written in '{fname}', which is "
                 "reachable from a thread-pool target, outside any "
                 "'with <lock>' block; guard it or annotate the site with "
                 "'# guarded-by: <lock>'")
        # writes to names declared global inside a pool-reachable function
        global_names = {n for g in ast.walk(f) if isinstance(g, ast.Global)
                        for n in g.names}
        if global_names:
            for node in ast.walk(f):
                if isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name) \
                                and tgt.id in global_names \
                                and not _has_guard_comment(
                                    ctx, node.lineno, f.lineno):
                            flag("R3-pool-write", node,
                                 f"global '{tgt.id}' is written in pool-"
                                 f"reachable '{fname}' without a lock or a "
                                 "'# guarded-by:' annotation")

    # --- check 2: lock-owning classes follow the guarded-by convention --
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        locks = _lock_attrs(node)
        if not locks:
            continue
        shared: dict[str, ast.AST] = {}
        for f, c in funcs:
            if c is not node or f.name in _EXEMPT_METHODS:
                continue
            for w, attr in _self_attr_writes(f):
                guarded = _under_lock(w, f, parents, locks)
                annotated = _has_guard_comment(ctx, w.lineno, f.lineno)
                if guarded or annotated:
                    shared.setdefault(attr, w)
                else:
                    flag("R3-guarded-by", w,
                         f"'self.{attr}' of lock-owning class '{node.name}' "
                         "is written outside 'with <lock>' and without a "
                         "'# guarded-by:' annotation")
        # shared attributes must be declared guarded in __init__
        init = next((f for f, c in funcs
                     if c is node and f.name == "__init__"), None)
        if init is None:
            continue
        for attr, wsite in shared.items():
            decl = None
            for w, a in _self_attr_writes(init):
                if a == attr:
                    decl = w
                    break
            if decl is None:
                continue
            if not _has_guard_comment(ctx, decl.lineno):
                flag("R3-guarded-by", decl,
                     f"'self.{attr}' is lock-guarded at its write sites "
                     f"(e.g. line {wsite.lineno}) but its declaration lacks "
                     "a '# guarded-by: <lock>' annotation")
    return findings


# ======================================================================
# R4 - hygiene
# ======================================================================
_SHADOW_NAMES = {
    "np", "sum", "min", "max", "abs", "all", "any", "round", "pow",
    "sorted", "len", "zip", "map", "filter", "iter", "next", "range",
    "type", "id", "vars", "slice", "list", "dict", "set", "tuple",
}
_MUTABLE_CTORS = {"list", "dict", "set", "bytearray"}


def _check_r4(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []

    def flag(rule: str, node: ast.AST, msg: str) -> None:
        findings.append(Finding(rule, ctx.path, node.lineno,
                                getattr(node, "col_offset", 0), msg))

    def shadow(node: ast.AST, name: str | None, kind: str) -> None:
        if name in _SHADOW_NAMES:
            flag("R4-shadow-numpy", node,
                 f"{kind} '{name}' shadows a NumPy/builtin callable; "
                 "rename it to keep numeric code unambiguous")

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler):
            broad = node.type is None or (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException"))
            reraises = any(isinstance(n, ast.Raise)
                           for n in ast.walk(ast.Module(body=node.body,
                                                        type_ignores=[])))
            if broad and not reraises:
                flag("R4-bare-except", node,
                     "bare/broad except swallows every failure mode; catch "
                     "the specific exceptions and record why they are safe "
                     "to ignore")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for default in list(args.defaults) + [d for d in args.kw_defaults
                                                  if d is not None]:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if isinstance(default, ast.Call) \
                        and _call_name(default) in _MUTABLE_CTORS:
                    mutable = True
                if mutable:
                    flag("R4-mutable-default", default,
                         "mutable default argument is shared across calls; "
                         "default to None and allocate inside the function")
            for a in (args.args + args.posonlyargs + args.kwonlyargs):
                shadow(a, a.arg, "parameter")
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                leaves = tgt.elts if isinstance(tgt, (ast.Tuple, ast.List)) \
                    else [tgt]
                for leaf in leaves:
                    if isinstance(leaf, ast.Name):
                        shadow(leaf, leaf.id, "assignment to")
        elif isinstance(node, ast.For):
            leaves = node.target.elts if isinstance(
                node.target, (ast.Tuple, ast.List)) else [node.target]
            for leaf in leaves:
                if isinstance(leaf, ast.Name):
                    shadow(leaf, leaf.id, "loop variable")
        elif isinstance(node, ast.comprehension):
            leaves = node.target.elts if isinstance(
                node.target, (ast.Tuple, ast.List)) else [node.target]
            for leaf in leaves:
                if isinstance(leaf, ast.Name):
                    shadow(leaf, leaf.id, "comprehension variable")
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            if isinstance(node.optional_vars, ast.Name):
                shadow(node.optional_vars, node.optional_vars.id,
                       "context variable")
    return findings


def _check_r4_timer(ctx: FileContext) -> list[Finding]:
    """Flag raw ``time.perf_counter()`` loop accounting in the drivers.

    The drivers grew private timing paths twice before the engine
    refactor; all phase accounting must go through the shared
    :class:`PhaseTimers` (or the :class:`MDLoop` wall clock).  Calls
    inside classes named in :data:`_TIMER_OWNERS` are the sanctioned
    owners; anything else in :data:`TIMER_SCOPE` is a finding (a
    justified ``# repro-lint: disable=R4-raw-timer`` pragma marks the
    rare legitimate case, e.g. per-rank stopwatches on pool threads).
    """
    findings: list[Finding] = []
    parents = _parent_map(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if _tail(_call_name(node)) != "perf_counter":
            continue
        owner = None
        cur: ast.AST | None = node
        while cur in parents:
            cur = parents[cur]
            if isinstance(cur, ast.ClassDef):
                owner = cur.name
                break
        if owner in _TIMER_OWNERS:
            continue
        findings.append(Finding(
            "R4-raw-timer", ctx.path, node.lineno, node.col_offset,
            "raw time.perf_counter() loop accounting outside "
            "PhaseTimers/MDLoop; route timing through the shared "
            "PhaseTimers so phase breakdowns stay comparable across "
            "backends"))
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


def _check_r5(ctx: FileContext) -> list[Finding]:
    """Shared-memory discipline inside ``repro.parallel``.

    *helper*: raw ``SharedMemory(...)`` construction is allowed only in
    :mod:`repro.parallel.shm` - everything else must go through
    ``create_shm``/``attach_shm``/``SharedBlock`` so the resource-tracker
    workaround and idempotent teardown live in one place.

    *lifecycle*: every block creation (``create_shm`` /
    ``SharedBlock.create``) must have a guaranteed cleanup path.
    Heuristic, by construction site:

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

    def flag(rule: str, node: ast.AST, msg: str) -> None:
        findings.append(Finding(rule, ctx.path, node.lineno,
                                getattr(node, "col_offset", 0), msg))

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) \
                and _tail(_call_name(node)) == "SharedMemory":
            flag("R5-shm-helper", node,
                 "raw SharedMemory construction outside repro.parallel.shm; "
                 "use create_shm/attach_shm/SharedBlock so the resource-"
                 "tracker workaround and idempotent teardown apply")

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
                flag("R5-shm-lifecycle", stmt,
                     "shared-memory block is created without a guaranteed "
                     "close+unlink path (no try/finally, no with, and no "
                     "owning close()/_cleanup() method); an exception here "
                     "strands the named segment in /dev/shm")
    return findings


# ======================================================================
# R6 - io ownership
# ======================================================================
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


def _restart_critical(text: str) -> bool:
    text = text.lower()
    return any(hint in text for hint in _IO_NAME_HINTS)


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


def _check_r6(ctx: FileContext) -> list[Finding]:
    """Confine raw writes of checkpoint/trajectory files to their owners.

    ``repro.md.dump`` owns checkpoints (temp file + ``os.replace`` so a
    crash mid-write never corrupts the last good restart point) and
    ``repro.md.trajectory`` owns trajectory streams (chunked frames
    with CRCs and torn-tail recovery).  Any other module calling
    ``open(..., "w")``, ``np.savez*`` or ``Path.write_*`` on a path
    whose expression mentions traj/ckpt/checkpoint/restart is writing a
    restart-critical file without those guarantees.
    """
    findings: list[Finding] = []
    if any(ctx.path.endswith(p) for p in _IO_OWNER_PATHS):
        return findings
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _raw_write_target(node)
        if target is not None and _restart_critical(target):
            findings.append(Finding(
                "R6-io-owner", ctx.path, node.lineno, node.col_offset,
                "raw write of a checkpoint/trajectory path outside "
                "repro.md.dump / repro.md.trajectory; route it through "
                "write_checkpoint or TrajectoryFile so atomic replace "
                "and torn-frame recovery apply"))
    return findings


# ======================================================================
# R7 - tuning-DB ownership
# ======================================================================
def _check_r7(ctx: FileContext) -> list[Finding]:
    """Confine raw writes of tuning-DB files to :mod:`repro.tuning.db`.

    ``TuningDB._write`` is the single place that knows the versioned
    schema envelope, stamps the host fingerprint and replaces the file
    atomically; a raw ``open(..., "w")``/``write_text`` against a path
    whose expression mentions ``tuning`` anywhere else would bypass all
    three (and can tear the file under a concurrent tuner).
    """
    findings: list[Finding] = []
    if ctx.path.endswith(_TUNING_OWNER_PATH):
        return findings
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _raw_write_target(node)
        if target is not None and \
                any(h in target.lower() for h in _TUNING_NAME_HINTS):
            findings.append(Finding(
                "R7-tuning-db-owner", ctx.path, node.lineno, node.col_offset,
                "raw write of a tuning-DB path outside repro.tuning.db; "
                "route it through TuningDB.record so the schema "
                "envelope, host fingerprint and atomic replace apply"))
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
    Rule("R2-complex-narrowing",
         "implicit complex-to-real cast",
         None, _check_r2_casts),
    Rule("R2-mixed-accumulator",
         "accumulator narrower than its addends",
         None, _check_r2_casts),
    Rule("R2-empty-escape",
         "np.empty buffer escapes before any assignment",
         None, _check_r2_empty),
    Rule("R3-pool-write",
         "unguarded shared-state write reachable from a thread-pool target",
         THREAD_SCOPE, _check_r3),
    Rule("R3-guarded-by",
         "guarded-by annotation convention on shared mutable state",
         THREAD_SCOPE, _check_r3),
    Rule("R4-bare-except",
         "bare or broad exception handler",
         None, _check_r4),
    Rule("R4-mutable-default",
         "mutable default argument",
         None, _check_r4),
    Rule("R4-shadow-numpy",
         "binding shadows a NumPy/builtin callable",
         None, _check_r4),
    Rule("R4-raw-timer",
         "raw perf_counter() loop accounting outside PhaseTimers/MDLoop",
         TIMER_SCOPE, _check_r4_timer),
    Rule("R5-shm-helper",
         "raw SharedMemory construction outside the shm helper module",
         SHM_SCOPE, _check_r5),
    Rule("R5-shm-lifecycle",
         "shared-memory block created without a guaranteed cleanup path",
         SHM_SCOPE, _check_r5),
    Rule("R6-io-owner",
         "raw write of a restart-critical file outside its owner module",
         IO_SCOPE, _check_r6),
    Rule("R7-tuning-db-owner",
         "raw write of a tuning-DB file outside repro.tuning.db",
         IO_SCOPE, _check_r7),
    # whole-program analyses (repro.lint.flow) - run once per project
    # over the shared call graph, not per file
    Rule("R8-lockset",
         "guarded-by attribute write reachable on a lock-free call path",
         None, None, project=True),
    Rule("R9-engine-contract",
         "ForceEngine implementation drifts from the engine protocol",
         None, None, project=True),
    Rule("R10-determinism-taint",
         "unordered/wall-clock taint flows into a hot-path accumulation",
         None, None, project=True),
]}
