"""AST rules for the determinism linter.

Each rule targets a construct that can silently break the simulator's
bit-identical-reproducibility guarantee and that the runtime identity
tests (serial ≡ parallel, cached ≡ fresh, memo-cold, same seed → same
result) do not reliably catch:

``wall-clock``
    ``time.time()`` and friends leak the host's clock into simulated
    behaviour.  Simulation code must use ``sim.now`` or an injected
    clock.
``set-iteration``
    Iterating a set (hash order is salted per process for strings)
    feeds nondeterministic order into schedulers or trace output, and
    so does handing one straight to an order-keeping consumer
    (``list(set(x))``, ``tuple``, ``enumerate``, ``iter``,
    ``str.join``).  Forked pool workers inherit the parent's hash
    secret, so serial ≡ parallel cannot see it: this rule is the
    guard.  ``dict.keys()`` is insertion-ordered but still signals
    order-sensitive code better written as ``sorted(...)`` or direct
    dict iteration.
``float-clock-compare``
    ``==`` / ``!=`` on simulated-clock floats (``sim.now``, timer
    deadlines) is exact-representation roulette; compare with
    inequalities or an epsilon.
``mutable-default``
    The classic shared-state bug: one list/dict/set born at def time,
    mutated across every call.
``slots-hot-path``
    Classes in designated per-packet / per-event modules must declare
    ``__slots__`` — both a memory/speed guarantee (PR 2) and a typo
    firewall: a misspelled attribute write raises instead of silently
    creating fresh state.
``pool-outside-matrix``
    A ``Pool`` or ``Process`` of ``multiprocessing`` (or of one of its
    ``get_context(...)`` objects) started anywhere but
    ``repro.matrix.runner``.  MatrixRunner's workers are persistent,
    warmed (site prebuilt), chunk-fed and supervised; an ad-hoc worker
    silently loses all four and re-pays site synthesis.
``unknown-pragma-rule``
    An inline pragma naming an id that no rule has would waive nothing
    without a word; it is reported at the pragma's line instead.

The rules are one pass over a :class:`~repro.lint.graph.ModuleInfo`:
the tree the front end parsed and its one import-alias table.

Rules are heuristic where full type inference would be needed; each one
is precise enough that the repository itself lints clean without blanket
suppressions (see ``tests/lint/test_static.py::test_src_lints_clean``).
"""

from __future__ import annotations

import ast
from typing import List, Mapping, Optional

from .config import ALL_RULES, DEEP_RULES, LintConfig
from .findings import Finding
from .graph import ModuleInfo, terminal_name

__all__ = ["scan_module"]

#: Dotted call targets that read the host's wall clock.
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: What starts worker processes, as ``multiprocessing`` attributes or
#: on a ``multiprocessing.get_context(...)`` object: anything but
#: MatrixRunner's managed workers.
_WORKER_CALLS = {"Pool", "pool.Pool", "Process", "process.Process"}
_CONTEXT_WORKER_CALLS = {"Pool", "Process"}

#: The hint every ``pool-outside-matrix`` finding carries.
_WORKER_HINT = ("use repro.matrix.MatrixRunner(jobs=N) — its workers "
                "are persistent, site-warmed, chunk-fed and supervised")

#: Builtins that keep the order of the iterable they are handed.
_ORDER_CONSUMERS = {"list", "tuple", "enumerate", "iter"}

#: Attribute / name spellings treated as simulated-clock values.
_CLOCK_ATTRS = {"now", "deadline", "delivered_at"}
_CLOCK_NAMES = {"now", "deadline"}

#: Base classes that exempt a class from the ``__slots__`` rule.
_SLOTS_EXEMPT_BASES = {
    "Protocol", "NamedTuple", "TypedDict", "Enum", "IntEnum", "IntFlag",
    "ABC",
}

#: Every id an inline pragma may name.
_PRAGMA_IDS = frozenset(ALL_RULES) | frozenset(DEEP_RULES) | {"*"}


def dotted_name(node: ast.expr,
                aliases: Mapping[str, str]) -> Optional[str]:
    """Resolve an expression to its imported dotted name, if any."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _is_exception_base(base: ast.expr) -> bool:
    name = terminal_name(base)
    return (name.endswith("Error") or name.endswith("Exception")
            or name in ("BaseException", "Warning"))


def _has_slots(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) \
                        and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.target.id == "__slots__":
            return True
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    """One pass over a module AST, emitting raw findings."""

    def __init__(self, module: ModuleInfo, config: LintConfig) -> None:
        self.path = module.path
        self.hot_path = config.is_hot_path(module.posix_path)
        self.aliases = module.module_aliases
        self.findings: List[Finding] = []

    # -- plumbing ------------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str,
              hint: str) -> None:
        self.findings.append(Finding(
            path=self.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0), rule=rule,
            message=message, hint=hint))

    # -- calls: host clock, worker processes, order-keeping consumers --
    def visit_Call(self, node: ast.Call) -> None:
        self._check_consumer(node)
        name = dotted_name(node.func, self.aliases)
        if name is not None:
            package, _, attr = name.partition(".")
            if name in _WALL_CLOCK_CALLS:
                self._emit(node, "wall-clock",
                           f"call to {name}() reads the host clock",
                           "use sim.now, or accept an injectable clock "
                           "callable")
            elif package == "multiprocessing" and attr in _WORKER_CALLS:
                self._emit(node, "pool-outside-matrix",
                           f"{name}() started outside repro.matrix",
                           _WORKER_HINT)
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr in _CONTEXT_WORKER_CALLS \
                and isinstance(node.func.value, ast.Call) \
                and dotted_name(node.func.value.func, self.aliases) \
                == "multiprocessing.get_context":
            self._emit(node, "pool-outside-matrix",
                       f"multiprocessing.get_context(...)."
                       f"{node.func.attr}() started outside repro.matrix",
                       _WORKER_HINT)
        self.generic_visit(node)

    # -- iteration order -----------------------------------------------
    @staticmethod
    def _set_kind(node: ast.expr) -> Optional[str]:
        """``"a set literal"`` / ``"set(...)"`` for a set expression."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        return None

    def _check_consumer(self, node: ast.Call) -> None:
        """A set handed straight to an order-keeping consumer
        (``list(set(x))``, ``", ".join({...})``) freezes its hash order
        as surely as a ``for`` over it."""
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_CONSUMERS:
            consumer = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            consumer = "str.join"
        else:
            return
        kind = self._set_kind(node.args[0]) if node.args else None
        if kind is not None:
            self._emit(node, "set-iteration",
                       f"{consumer}() over {kind} keeps its salted hash "
                       "order",
                       "wrap the set in sorted(...) first")

    def _check_iter(self, iter_node: ast.expr) -> None:
        kind = self._set_kind(iter_node)
        if kind is not None:
            self._emit(iter_node, "set-iteration",
                       f"iteration over {kind} has salted hash order",
                       "wrap in sorted(...) before iterating, or iterate "
                       "a tuple/list")
        elif isinstance(iter_node, ast.Call) \
                and isinstance(iter_node.func, ast.Attribute) \
                and iter_node.func.attr == "keys" and not iter_node.args:
            self._emit(iter_node, "set-iteration",
                       "iteration over .keys() — order-sensitive "
                       "code should say so",
                       "iterate the dict directly, or wrap in "
                       "sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # -- float clock comparisons ---------------------------------------
    @staticmethod
    def _is_clock_operand(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in _CLOCK_ATTRS
        if isinstance(node, ast.Name):
            return node.id in _CLOCK_NAMES
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) \
                    and (self._is_clock_operand(left)
                         or self._is_clock_operand(right)):
                self._emit(node, "float-clock-compare",
                           "== / != on a simulated-clock float",
                           "compare with <= / >= or an explicit epsilon")
                break
        self.generic_visit(node)

    # -- mutable defaults ----------------------------------------------
    def _check_defaults(self, node: ast.arguments) -> None:
        for default in list(node.defaults) + [d for d in node.kw_defaults
                                              if d is not None]:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                       ast.ListComp, ast.DictComp,
                                       ast.SetComp))
            if not bad and isinstance(default, ast.Call) \
                    and isinstance(default.func, ast.Name) \
                    and default.func.id in ("list", "dict", "set",
                                            "bytearray"):
                bad = True
            if bad:
                self._emit(default, "mutable-default",
                           "mutable default argument is shared across "
                           "calls",
                           "default to None and create the object in "
                           "the body")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    # -- __slots__ in hot-path modules ---------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_path and not _has_slots(node.body) \
                and not any(terminal_name(d) == "dataclass"
                            for d in node.decorator_list) \
                and not any(_is_exception_base(b)
                            or terminal_name(b) in _SLOTS_EXEMPT_BASES
                            for b in node.bases):
            self._emit(node, "slots-hot-path",
                       f"class {node.name} in a hot-path module has no "
                       "__slots__",
                       "declare __slots__ (instances are allocated per "
                       "packet/event)")
        self.generic_visit(node)


def scan_module(module: ModuleInfo, config: LintConfig) -> List[Finding]:
    """Run every per-file rule over one parsed module (unfiltered)."""
    visitor = _DeterminismVisitor(module, config)
    visitor.visit(module.tree)
    for line, ids in sorted(module.pragmas.items()):
        for rule in sorted(ids - _PRAGMA_IDS):
            visitor.findings.append(Finding(
                path=module.path, line=line, col=0,
                rule="unknown-pragma-rule",
                message=f"pragma names '{rule}', which is no lint rule, "
                        "so it waives nothing",
                hint="name a rule id `python -m repro lint --help` "
                     "lists, or make it a plain comment"))
    return visitor.findings
