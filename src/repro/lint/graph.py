"""The linter's one front end: parsed modules, imports, call graph.

Every lint pass runs over a :class:`ProjectGraph`.  :func:`build_graph`
reads and parses each ``.py`` file once, and the per-file rules of
:mod:`repro.lint.rules` and the flow-aware passes of
:mod:`repro.lint.deep` all visit what it built:

* a **module table** — every ``.py`` file under a root directory (or
  one file, as the graph of its directory restricted to that file),
  with its package-relative dotted name, parsed tree, top-level
  symbol table and inline-pragma lines;
* an **import table** per module — local names resolved to the
  project module and symbol they refer to (absolute and relative
  ``from``-imports, a package ``__init__``'s own relative imports),
  plus the one alias table for external imports (``import random``
  and friends) the per-file rules resolve calls through;
* a **call graph** — every call site in every function resolved to the
  project functions it can dispatch to.  Plain names (local, imported,
  or imported through a package's re-export), constructor calls
  (dispatching ``__init__``), ``module.func(...)`` on an imported
  project module and ``self.method(...)`` resolve exactly; other
  attribute calls fall back to class-hierarchy-analysis style name
  matching (every project function or method with that name is a
  candidate), which over-approximates: the seed-origin pass then asks
  more callers for a seed-derived argument, never fewer.

Everything is derived from the ASTs alone: the analyzed tree is never
imported, so the same machinery runs over ``src/repro`` and over the
miniature bad-project corpora in ``tests/lint/fixtures``.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

__all__ = ["LintError", "CallSite", "FunctionInfo", "ClassInfo",
           "ModuleInfo", "ProjectGraph", "build_graph"]

#: ``repro-lint: allow(rule-a, rule-b)`` after a ``#`` — waives the
#: named rules (or every rule, with ``*``) on the pragma's line and the
#: line below it.
_PRAGMA = re.compile(r"#\s*repro-lint:\s*allow\(([^)]*)\)")


class LintError(RuntimeError):
    """Raised for a missing, unreadable, non-UTF-8 or unparsable input."""


def pragma_lines(source: str) -> Dict[int, Set[str]]:
    """Map line numbers to the set of rule ids waived on that line."""
    waived: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is not None:
            waived[lineno] = {part.strip()
                              for part in match.group(1).split(",")
                              if part.strip()}
    return waived


def suppressed(rule: str, line: int, waived: Dict[int, Set[str]]) -> bool:
    """True when an inline pragma waives ``rule`` at ``line``."""
    for lineno in (line, line - 1):
        rules = waived.get(lineno)
        if rules and (rule in rules or "*" in rules):
            return True
    return False


def terminal_name(node: ast.expr) -> str:
    """``b`` of ``a.b`` or of ``b``; the callee's for a decorator call."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@dataclasses.dataclass
class CallSite:
    """One call expression inside a function body."""

    __slots__ = ("node", "raw", "targets")

    #: The ``ast.Call`` node itself.
    node: ast.Call
    #: The callee as written (``"TcpConfig"``, ``"mode.client_config"``).
    raw: str
    #: Qualified names of project functions this call can reach
    #: (empty for calls into the standard library / externals).
    targets: Tuple[str, ...]


@dataclasses.dataclass
class FunctionInfo:
    """One function or method, with its resolved call sites."""

    __slots__ = ("qualname", "module", "name", "node", "params", "calls")

    #: ``module:func`` or ``module:Class.method``.
    qualname: str
    module: str
    name: str
    node: ast.AST
    #: Positional-or-keyword and keyword-only parameter names, in order.
    params: Tuple[str, ...]
    calls: List[CallSite]


@dataclasses.dataclass
class ClassInfo:
    """One class: its methods, annotated fields, and base names."""

    __slots__ = ("qualname", "name", "methods", "fields", "bases")

    qualname: str
    name: str
    #: method name -> function qualname
    methods: Dict[str, str]
    #: Annotated class-body assignments in order (dataclass fields).
    fields: Tuple[str, ...]
    #: Base-class names as written (unresolved).
    bases: Tuple[str, ...]


@dataclasses.dataclass
class ModuleInfo:
    """One parsed module of the analyzed tree."""

    __slots__ = ("name", "path", "posix_path", "tree", "imports",
                 "module_aliases", "pragmas")

    #: Package-relative dotted name (``"matrix.spec"``).
    name: str
    path: str
    posix_path: str
    tree: ast.Module
    #: local name -> (project module, symbol) for from-imports of
    #: project modules; symbol is "" for whole-module imports.
    imports: Dict[str, Tuple[str, str]]
    #: local alias -> external dotted origin (``import time as clock``
    #: -> ``{"clock": "time"}``; ``from time import time`` ->
    #: ``{"time": "time.time"}``).
    module_aliases: Dict[str, str]
    #: line -> set of rule ids waived by an inline pragma.
    pragmas: Dict[int, Set[str]]


def _module_name(path: pathlib.Path, root: pathlib.Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(package: str, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Resolve a ``from ...X import Y`` module reference.

    ``package`` is the package the importing module lives in (for a
    package ``__init__``, the package itself); the project root is
    package level zero, so ``level`` dots strip ``level - 1`` trailing
    components from it.
    """
    base = package.split(".") if package else []
    strip = level - 1
    if strip > len(base):
        return None
    base = base[:len(base) - strip]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every call under ``node``, in source order (pre-order).

    Nested defs and lambdas fold into the enclosing function: a closure
    or callback defined there runs with that function's arguments, so
    its calls count against the enclosing scope.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child
        yield from _calls_in(child)


class ProjectGraph:
    """The analyzed project: modules, functions, classes, call edges."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: function name -> qualnames (for CHA-style attr resolution).
        self._by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def functions_named(self, name: str) -> List[FunctionInfo]:
        """Every project function/method with this unqualified name."""
        return [self.functions[q] for q in self._by_name.get(name, ())]

    def find_class(self, name: str) -> Optional[ClassInfo]:
        """The unique project class with this name, if unambiguous."""
        matches = [c for c in self.classes.values() if c.name == name]
        return matches[0] if len(matches) == 1 else None

    def resolve_symbol(self, module: str, symbol: str) -> Optional[str]:
        """The function or class qualname ``module.symbol`` names.

        A module that does not define ``symbol`` but imports it (a
        package ``__init__`` re-exporting a submodule's name) is
        followed to where the symbol is defined.
        """
        seen: Set[Tuple[str, str]] = set()
        while (module, symbol) not in seen:
            seen.add((module, symbol))
            qualname = f"{module}:{symbol}"
            if qualname in self.functions or qualname in self.classes:
                return qualname
            info = self.modules.get(module)
            ref = info.imports.get(symbol) if info is not None else None
            if ref is None or not ref[1]:
                return None
            module, symbol = ref
        return None

    def waived(self, module: str, rule: str, line: int) -> bool:
        """True when an inline pragma in ``module`` waives ``rule``."""
        info = self.modules.get(module)
        return info is not None and suppressed(rule, line, info.pragmas)

    # ------------------------------------------------------------------
    # Call edges
    # ------------------------------------------------------------------
    def callers_of(self, qualname: str
                   ) -> List[Tuple[FunctionInfo, CallSite]]:
        """Every (function, call site) that can dispatch to ``qualname``."""
        found = []
        for fn in self.functions.values():
            for call in fn.calls:
                if qualname in call.targets:
                    found.append((fn, call))
        return found


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _parse(path: pathlib.Path) -> Tuple[str, ast.Module]:
    """Read and parse one file: the front end's only error path."""
    try:
        source = path.read_text(encoding="utf-8")
        return source, ast.parse(source, filename=str(path))
    except (OSError, ValueError, SyntaxError) as exc:
        # ValueError covers UnicodeDecodeError and NUL bytes.
        raise LintError(f"{path}: {exc}") from exc


def _scan_imports(tree: ast.Module, package: str, known: Set[str]
                  ) -> Tuple[Dict[str, Tuple[str, str]], Dict[str, str]]:
    """Split a module's imports into project refs and external aliases."""
    imports: Dict[str, Tuple[str, str]] = {}
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                if name.name in known:
                    imports[local] = (name.name, "")
                else:
                    aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom):
            origin = (_resolve_relative(package, node.level, node.module)
                      if node.level else node.module)
            if origin is None:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                dotted = f"{origin}.{name.name}" if origin else name.name
                if dotted in known:
                    # ``from ..content import artifacts``: a module.
                    imports[local] = (dotted, "")
                elif origin in known:
                    imports[local] = (origin, name.name)
                elif not node.level:
                    # A relative import outside the analyzed tree is
                    # still project code, never an external origin.
                    aliases[local] = dotted
    return imports, aliases


def _function_params(node: Union[ast.FunctionDef,
                                 ast.AsyncFunctionDef]
                     ) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args
             + args.kwonlyargs]
    return tuple(names)


def _raw_callee(node: ast.expr) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append("()")
    else:
        parts.append("?")
    return ".".join(reversed(parts))


def build_graph(path: Union[str, pathlib.Path]) -> ProjectGraph:
    """Parse a package directory (every ``.py`` under it) or one
    ``.py`` file (the graph of its directory, restricted to that file)
    and build the project graph.  Raises :class:`LintError` for a
    missing path and for any file that cannot be read or parsed."""
    path = pathlib.Path(path)
    if path.is_dir():
        root, files = path, sorted(path.rglob("*.py"))
    elif path.is_file():
        root, files = path.parent, [path]
    else:
        raise LintError(f"no such file or directory: {path}")
    graph = ProjectGraph(root)
    parsed = sorted(((_module_name(file, root), file) + _parse(file)
                     for file in files), key=lambda entry: entry[0])

    known: Set[str] = set()
    # Package names are importable prefixes too (``from ..content
    # import artifacts`` names the package first).
    for name, *_ in parsed:
        parts = name.split(".")
        known.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))

    # First pass: modules, classes, functions (no call resolution yet).
    pending: List[Tuple[FunctionInfo, ModuleInfo,
                        Optional[ClassInfo], List[ast.Call]]] = []
    for name, file, source, tree in parsed:
        package = name if file.name == "__init__.py" \
            else name.rpartition(".")[0]
        imports, aliases = _scan_imports(tree, package, known)
        info = ModuleInfo(name=name, path=str(file),
                          posix_path=str(file).replace("\\", "/"),
                          tree=tree, imports=imports,
                          module_aliases=aliases,
                          pragmas=pragma_lines(source))
        graph.modules[name] = info

        def register_function(node, class_info: Optional[ClassInfo]):
            if class_info is not None:
                qualname = f"{name}:{class_info.name}.{node.name}"
            else:
                qualname = f"{name}:{node.name}"
            params = _function_params(node)
            calls = [call for stmt in node.body for call in _calls_in(stmt)]
            fn = FunctionInfo(qualname=qualname, module=name,
                              name=node.name, node=node, params=params,
                              calls=[])
            graph.functions[qualname] = fn
            graph._by_name.setdefault(node.name, []).append(qualname)
            if class_info is not None:
                class_info.methods[node.name] = qualname
            pending.append((fn, info, class_info, calls))

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                register_function(stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                fields = tuple(
                    s.target.id for s in stmt.body
                    if isinstance(s, ast.AnnAssign)
                    and isinstance(s.target, ast.Name)
                    and s.target.id != "__slots__")
                bases = tuple(terminal_name(b) for b in stmt.bases)
                class_info = ClassInfo(
                    qualname=f"{name}:{stmt.name}", name=stmt.name,
                    methods={}, fields=fields, bases=bases)
                graph.classes[class_info.qualname] = class_info
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        register_function(sub, class_info)

    # Second pass: resolve call sites now every symbol is known.
    for fn, module, class_info, calls in pending:
        for call in calls:
            raw = _raw_callee(call.func)
            targets = _resolve_call(graph, module, class_info,
                                    call.func)
            fn.calls.append(CallSite(node=call, raw=raw,
                                     targets=tuple(targets)))
    return graph


def _dispatch(graph: ProjectGraph, qualname: Optional[str]) -> List[str]:
    """The functions calling ``qualname`` runs: itself, or a class's
    ``__init__`` (nothing for a class without one)."""
    if qualname in graph.functions:
        return [qualname]
    if qualname in graph.classes:
        init = graph.classes[qualname].methods.get("__init__")
        return [init] if init else []
    return []


def _resolve_call(graph: ProjectGraph, module: ModuleInfo,
                  class_info: Optional[ClassInfo],
                  func: ast.expr) -> List[str]:
    """Resolve a callee expression to project function qualnames."""
    # Plain name: local symbol, or from-import of a project symbol.
    if isinstance(func, ast.Name):
        local = f"{module.name}:{func.id}"
        if local in graph.functions or local in graph.classes:
            return _dispatch(graph, local)
        ref = module.imports.get(func.id)
        if ref is None or not ref[1]:
            return []
        return _dispatch(graph, graph.resolve_symbol(*ref))
    if not isinstance(func, ast.Attribute):
        return []
    attr = func.attr
    base = func.value
    # self.method(...) -> the enclosing class (plus project bases).
    if isinstance(base, ast.Name) and base.id == "self" \
            and class_info is not None:
        targets: List[str] = []
        stack = [class_info]
        seen: Set[str] = set()
        while stack:
            cls = stack.pop()
            if cls.qualname in seen:
                continue
            seen.add(cls.qualname)
            if attr in cls.methods:
                targets.append(cls.methods[attr])
            for base_name in cls.bases:
                parent = graph.find_class(base_name)
                if parent is not None:
                    stack.append(parent)
        if targets:
            return targets
        # Fall through to CHA if the hierarchy has no such method
        # (mixins resolved at runtime).
    # module_alias.func(...) for project module imports.
    if isinstance(base, ast.Name):
        ref = module.imports.get(base.id)
        if ref is not None and not ref[1]:
            return _dispatch(graph, graph.resolve_symbol(ref[0], attr))
    # Anything else: class-hierarchy-analysis style name matching.
    return list(graph._by_name.get(attr, ()))
