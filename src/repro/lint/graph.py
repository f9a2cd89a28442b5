"""Project-wide symbol table and call graph for the whole-program lint.

The per-file rules in :mod:`repro.lint.rules` stop at the module
boundary: R1 cannot see hash order entering a force array through a
helper call, and no lexical rule can tell whether a lock is held along
the call chain that reaches a write.  This module provides the shared
substrate the interprocedural analyses in :mod:`repro.lint.flow` run
on.  Each file is parsed once (:meth:`Project.add_parsed`); the same
:class:`ModuleInfo` is what the per-file rules receive:

:class:`Project`
    Parsed modules, a per-module name-binding table (aliased imports,
    relative imports, re-exports), every function/lambda with its
    enclosing class, and every class with its resolved bases.
:class:`CallSite`
    One ``ast.Call`` with its *resolved* callee qualnames.  Resolution
    covers direct names (module scope + enclosing-function locals),
    ``self.method()`` (walking project base classes), attribute chains
    through imported modules and re-exporting ``__init__`` packages,
    classmethod-style ``Class.method`` calls, and light instance-type
    tracking (``v = ClassName(...)`` locals and ``self.attr = Class()``
    attributes).  Anything dynamic degrades to the conservative
    :data:`UNKNOWN` callee instead of guessing (or crashing).
:attr:`Project.pool_entries`
    Functions handed to thread/process pools (``submit``/``map``/
    ``apply_async``/... first arguments, ``Thread``/``Process``
    ``target=`` and pool ``initializer=`` keywords) - the roots the
    lockset analysis propagates held-lock sets from.

Qualified names are plain dotted strings: ``repro.md.trajectory``
(module), ``repro.md.trajectory.AsyncTrajectoryWriter`` (class),
``repro.md.trajectory.AsyncTrajectoryWriter.flush`` (method),
``...compute.<locals>.work`` (nested function),
``...<lambda:123>`` (lambda by line).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePosixPath

__all__ = ["Project", "ModuleInfo", "ClassInfo", "FunctionInfo",
           "CallSite", "UNKNOWN", "module_name_for"]

#: the conservative callee for calls the resolver cannot follow
UNKNOWN = "<unknown>"

#: methods whose name alone implies a task pool
_POOL_METHODS = {"submit", "apply_async", "imap", "imap_unordered",
                 "starmap"}
#: methods that also exist on ordinary objects (Barostat.apply,
#: builtin-style map wrappers) - only treated as spawns when the
#: receiver is named like a pool/executor
_AMBIGUOUS_POOL_METHODS = {"map", "apply"}
_POOLISH_RECEIVERS = ("pool", "executor", "exec")
_SPAWN_KWARGS = {"target", "initializer"}


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    Components up to (and including) the last ``src`` directory are
    stripped, as are absolute-path roots, so both repo paths
    (``/repo/src/repro/md/engine.py``) and fixture-relative paths
    (``repro/md/engine.py``) land on ``repro.md.engine``; a trailing
    ``__init__`` names the package itself.
    """
    parts = list(PurePosixPath(path).with_suffix("").parts)
    parts = [p for p in parts if p not in ("/", "\\")]
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src + 1:]
    else:
        # drop non-identifier roots of absolute paths (e.g. "home")
        while len(parts) > 1 and not parts[0].isidentifier():
            parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _comment_map(source: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass
    return comments


# ======================================================================
# data model
# ======================================================================
@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    node: ast.Call
    lineno: int
    #: resolved project-function qualnames; empty = unknown callee
    callees: tuple[str, ...]

    @property
    def resolved(self) -> bool:
        return bool(self.callees)


@dataclass
class FunctionInfo:
    """One function / method / lambda of the project."""

    qualname: str
    module: str
    name: str
    node: ast.AST                 #: FunctionDef | AsyncFunctionDef | Lambda
    path: str
    lineno: int
    cls: str | None = None        #: qualname of the enclosing class
    parent: str | None = None     #: qualname of the enclosing function
    calls: list[CallSite] = field(default_factory=list)
    #: True when this function is handed to a pool / thread / process
    pool_target: bool = False
    #: names of nested defs declared directly in this function's body
    local_defs: dict[str, str] = field(default_factory=dict)
    #: local instance types: var name -> class qualname
    local_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    #: resolved base symbols (project class qualnames or foreign dotted
    #: names like "abc.ABC", resolution-order preserved)
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: instance-attribute types: attr -> class qualname
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: str
    source: str
    tree: ast.Module
    comments: dict[int, str]
    #: module-scope name bindings: local name -> dotted symbol
    scope: dict[str, str] = field(default_factory=dict)


# ======================================================================
# the project
# ======================================================================
class Project:
    """Symbol table + call graph over a set of Python sources."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: function qualnames spawned on worker threads/processes
        self.pool_entries: list[str] = []
        #: count of call expressions that degraded to UNKNOWN
        self.unresolved_calls: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build a project from ``{path: source}`` (fixture-friendly)."""
        proj = cls()
        for path in sorted(sources):
            try:
                tree = ast.parse(sources[path])
            except SyntaxError:
                continue  # run_lint reports E0-syntax
            proj.add_parsed(path, sources[path], tree)
        proj.link()
        return proj

    def add_parsed(self, path: str, source: str,
                   tree: ast.Module) -> ModuleInfo:
        """Register one already-parsed file; call :meth:`link` after the
        last one."""
        posix = PurePosixPath(path).as_posix()
        mod = ModuleInfo(name=module_name_for(posix), path=posix,
                         source=source, tree=tree,
                         comments=_comment_map(source))
        self.modules[mod.name] = mod
        self._bind_module_scope(mod)
        self._register_defs(mod)
        return mod

    # ------------------------------------------------------------------
    def _bind_module_scope(self, mod: ModuleInfo) -> None:
        pkg = mod.name.split(".")
        for node in mod.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.scope[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # relative import: climb from the *package* of this
                    # module (a package __init__ is its own package)
                    is_pkg = mod.path.endswith("__init__.py")
                    base = pkg if is_pkg else pkg[:-1]
                    climb = node.level - 1
                    base = base[:len(base) - climb] if climb else base
                    prefix = ".".join(base)
                    target = f"{prefix}.{node.module}" if node.module \
                        else prefix
                else:
                    target = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mod.scope[alias.asname or alias.name] = \
                        f"{target}.{alias.name}" if target else alias.name

    def _register_defs(self, mod: ModuleInfo) -> None:
        project = self

        def visit(node: ast.AST, prefix: str, cls: str | None,
                  parent_fn: FunctionInfo | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qn = f"{prefix}.{child.name}"
                    info = FunctionInfo(
                        qualname=qn, module=mod.name, name=child.name,
                        node=child, path=mod.path, lineno=child.lineno,
                        cls=cls,
                        parent=parent_fn.qualname if parent_fn else None)
                    project.functions[qn] = info
                    if parent_fn is not None:
                        parent_fn.local_defs[child.name] = qn
                    elif cls is not None:
                        project.classes[cls].methods[child.name] = qn
                    else:
                        mod.scope.setdefault(child.name, qn)
                    visit(child, f"{qn}.<locals>", cls, info)
                elif isinstance(child, ast.Lambda):
                    qn = f"{prefix}.<lambda:{child.lineno}>"
                    info = FunctionInfo(
                        qualname=qn, module=mod.name, name="<lambda>",
                        node=child, path=mod.path, lineno=child.lineno,
                        cls=cls,
                        parent=parent_fn.qualname if parent_fn else None)
                    project.functions[qn] = info
                    visit(child, f"{qn}.<locals>", cls, info)
                elif isinstance(child, ast.ClassDef):
                    cqn = f"{prefix}.{child.name}"
                    project.classes[cqn] = ClassInfo(
                        qualname=cqn, module=mod.name, name=child.name,
                        node=child, path=mod.path)
                    if cls is None and parent_fn is None:
                        mod.scope.setdefault(child.name, cqn)
                    visit(child, cqn, cqn, None)
                else:
                    visit(child, prefix, cls, parent_fn)

        visit(mod.tree, mod.name, None, None)

    # ------------------------------------------------------------------
    # symbol resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, symbol: str,
                       _seen: frozenset = frozenset()
                       ) -> tuple[str, str] | None:
        """Resolve a dotted symbol to ``(kind, qualname)``.

        ``kind`` is ``"func"``, ``"class"`` or ``"module"``.  Re-export
        chains (``repro.md.MDLoop`` -> ``repro.md.engine.MDLoop``) are
        followed; unknown symbols return ``None``.
        """
        if not symbol or symbol in _seen:
            return None
        _seen = _seen | {symbol}
        if symbol in self.functions:
            return ("func", symbol)
        if symbol in self.classes:
            return ("class", symbol)
        if symbol in self.modules:
            return ("module", symbol)
        parts = symbol.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            rest = parts[cut:]
            if prefix in self.modules:
                head = self.modules[prefix].scope.get(rest[0])
                if head is None:
                    return None
                return self.resolve_symbol(
                    ".".join([head] + rest[1:]), _seen)
            if prefix in self.classes:
                mqn = self.method_lookup(prefix, rest[0])
                if mqn is not None and len(rest) == 1:
                    return ("func", mqn)
                return None
        return None

    def method_lookup(self, class_qualname: str, name: str,
                      _seen: frozenset = frozenset()) -> str | None:
        """Find ``name`` on a class or (project-resolved) base classes."""
        if class_qualname in _seen:
            return None
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            got = self.method_lookup(base, name,
                                     _seen | {class_qualname})
            if got is not None:
                return got
        return None

    def bases_of(self, class_qualname: str) -> list[str]:
        """Transitive project-resolved base-class qualnames (no dups)."""
        out: list[str] = []
        cls = self.classes.get(class_qualname)
        work = list(cls.bases) if cls is not None else []
        while work:
            b = work.pop(0)
            if b in out:
                continue
            out.append(b)
            if b in self.classes:
                work.extend(self.classes[b].bases)
        return out

    # ------------------------------------------------------------------
    # linking: resolve bases, instance types, calls, pool targets
    # ------------------------------------------------------------------
    def link(self) -> None:
        for cls in self.classes.values():
            mod = self.modules[cls.module]
            for base in cls.node.bases:
                sym = self._symbol_for_expr(base, mod, None)
                res = self.resolve_symbol(sym) if sym else None
                if res and res[0] == "class":
                    cls.bases.append(res[1])
                elif sym:
                    cls.bases.append(sym)
        for cls in self.classes.values():
            self._infer_attr_types(cls)
        for fn in list(self.functions.values()):
            self._resolve_calls(fn)

    def _symbol_for_expr(self, expr: ast.expr, mod: ModuleInfo,
                         fn: FunctionInfo | None) -> str | None:
        """Dotted symbol of an expression, mapped through local scopes."""
        dotted = _dotted(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = None
        if fn is not None:
            target = self._local_symbol(fn, head)
        if target is None:
            target = mod.scope.get(head)
        if target is None:
            # a module-level def/class in this module, or truly unknown
            if f"{mod.name}.{head}" in self.functions \
                    or f"{mod.name}.{head}" in self.classes:
                target = f"{mod.name}.{head}"
            else:
                return dotted
        return f"{target}.{rest}" if rest else target

    def _local_symbol(self, fn: FunctionInfo, name: str) -> str | None:
        """Look ``name`` up the enclosing-function chain (nested defs,
        typed locals)."""
        cur: FunctionInfo | None = fn
        while cur is not None:
            if name in cur.local_defs:
                return cur.local_defs[name]
            if name in cur.local_types:
                return cur.local_types[name]
            cur = self.functions.get(cur.parent) if cur.parent else None
        return None

    def _class_of_call(self, call: ast.Call, mod: ModuleInfo,
                       fn: FunctionInfo | None) -> str | None:
        sym = self._symbol_for_expr(call.func, mod, fn)
        res = self.resolve_symbol(sym) if sym else None
        return res[1] if res and res[0] == "class" else None

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        mod = self.modules[cls.module]
        for node in ast.walk(cls.node):
            if not isinstance(node, ast.Assign) \
                    or not isinstance(node.value, ast.Call):
                continue
            cqn = self._class_of_call(node.value, mod, None)
            if cqn is None:
                continue
            for tgt in node.targets:
                if (isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"):
                    cls.attr_types.setdefault(tgt.attr, cqn)

    # ------------------------------------------------------------------
    def _resolve_callable_expr(self, expr: ast.expr, mod: ModuleInfo,
                               fn: FunctionInfo) -> tuple[str, ...]:
        """Function qualnames an expression may call to (empty=unknown)."""
        if isinstance(expr, ast.Lambda):
            prefix = f"{fn.qualname}.<locals>" if fn else mod.name
            qn = f"{prefix}.<lambda:{expr.lineno}>"
            return (qn,) if qn in self.functions else ()
        dotted = _dotted(expr)
        if dotted is None:
            return ()
        parts = dotted.split(".")
        # self.method() / self.attr.method() inside a class
        if parts[0] == "self" and fn is not None and fn.cls is not None:
            if len(parts) == 2:
                mqn = self.method_lookup(fn.cls, parts[1])
                return (mqn,) if mqn else ()
            if len(parts) == 3:
                cls = self.classes.get(fn.cls)
                atype = cls.attr_types.get(parts[1]) if cls else None
                if atype:
                    mqn = self.method_lookup(atype, parts[2])
                    return (mqn,) if mqn else ()
            return ()
        sym = self._symbol_for_expr(expr, mod, fn)
        res = self.resolve_symbol(sym) if sym else None
        if res is None:
            return ()
        kind, qn = res
        if kind == "func":
            return (qn,)
        if kind == "class":
            init = self.method_lookup(qn, "__init__")
            return (init,) if init else ()
        return ()

    def _resolve_calls(self, fn: FunctionInfo) -> None:
        mod = self.modules[fn.module]
        body = fn.node.body if not isinstance(fn.node, ast.Lambda) \
            else [fn.node.body]

        # pass 1: typed locals (v = ClassName(...)), statement order.
        # Dispatch on the node itself (not just its children) so a
        # function-body-top-level statement is inspected too.
        def scan_types(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                return
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call):
                cqn = self._class_of_call(node.value, mod, fn)
                if cqn is not None:
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            fn.local_types[tgt.id] = cqn
            for child in ast.iter_child_nodes(node):
                scan_types(child)

        # pass 2: resolve every call in this function (not nested defs)
        def scan_calls(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                return
            if isinstance(node, ast.Call):
                callees = self._resolve_callable_expr(node.func, mod, fn)
                if not callees:
                    self.unresolved_calls += 1
                fn.calls.append(CallSite(node=node, lineno=node.lineno,
                                         callees=callees))
                self._scan_pool_spawn(node, mod, fn)
            for child in ast.iter_child_nodes(node):
                scan_calls(child)

        for stmt in body:
            scan_types(stmt)
        for stmt in body:
            scan_calls(stmt)

    def _scan_pool_spawn(self, call: ast.Call, mod: ModuleInfo,
                         fn: FunctionInfo) -> None:
        """Mark callables handed to pools/threads as pool entry points."""
        spawned: list[ast.expr] = []
        if isinstance(call.func, ast.Attribute) and call.args:
            attr = call.func.attr
            recv = (_dotted(call.func.value) or "").rsplit(".", 1)[-1]
            if attr in _POOL_METHODS or (
                    attr in _AMBIGUOUS_POOL_METHODS
                    and any(h in recv.lower()
                            for h in _POOLISH_RECEIVERS)):
                spawned.append(call.args[0])
        # Thread(target=...), Process(target=...), Pool(initializer=...):
        # match on the keyword, not the constructor name, so aliased or
        # context-object spawns (ctx.Pool, mp.get_context().Process) work
        for kw in call.keywords:
            if kw.arg in _SPAWN_KWARGS:
                spawned.append(kw.value)
        for expr in spawned:
            for qn in self._resolve_callable_expr(expr, mod, fn):
                info = self.functions.get(qn)
                if info is not None and not info.pool_target:
                    info.pool_target = True
                    self.pool_entries.append(qn)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def edges(self) -> dict[str, set[str]]:
        """Caller qualname -> callee qualnames (:data:`UNKNOWN` for
        unresolved dynamic calls)."""
        out: dict[str, set[str]] = {}
        for fn in self.functions.values():
            tgt = out.setdefault(fn.qualname, set())
            for site in fn.calls:
                if site.callees:
                    tgt.update(site.callees)
                else:
                    tgt.add(UNKNOWN)
        return out
