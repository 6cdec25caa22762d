"""AST rules for the determinism linter.

Each rule targets a construct that can silently break the simulator's
bit-identical-reproducibility guarantee (the property the golden-trace
tests and PR 2's speedup validation rest on):

``wall-clock``
    ``time.time()`` and friends leak the host's clock into simulated
    behaviour.  Simulation code must use ``sim.now`` or an injected
    clock.
``unseeded-random``
    Module-level ``random.*`` draws from interpreter-global state that
    any import can perturb; ``random.Random()`` without a seed draws
    from the OS.  Experiments must thread a seeded ``random.Random``.
``entropy-source``
    ``os.urandom`` / ``uuid.uuid4`` / ``secrets`` are nondeterministic
    by definition.
``set-iteration``
    Iterating a set (hash order is salted per process for strings)
    feeds nondeterministic order into schedulers or trace output;
    ``dict.keys()`` is insertion-ordered but still signals
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
    ``multiprocessing.Pool`` constructed anywhere but
    ``repro.matrix.runner``.  MatrixRunner's pool is persistent, warmed
    (site prebuilt) and chunked; an ad-hoc pool silently loses all
    three and re-pays site synthesis in every worker.
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

#: Dotted call targets that draw OS entropy.
_ENTROPY_CALLS = {
    "os.urandom", "uuid.uuid4", "random.SystemRandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
}

#: Worker-pool constructors that bypass MatrixRunner's managed pool.
_POOL_CALLS = {"multiprocessing.Pool", "multiprocessing.pool.Pool"}

#: Module-level ``random`` functions (global, import-order-fragile RNG).
_MODULE_RANDOM_CALLS = {
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.sample", "random.shuffle",
    "random.uniform", "random.gauss", "random.normalvariate",
    "random.expovariate", "random.betavariate", "random.seed",
    "random.getrandbits", "random.triangular", "random.vonmisesvariate",
}

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

    # -- calls: clocks, entropy, global random -------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func, self.aliases)
        if name is not None:
            if name in _WALL_CLOCK_CALLS:
                self._emit(node, "wall-clock",
                           f"call to {name}() reads the host clock",
                           "use sim.now, or accept an injectable clock "
                           "callable")
            elif name in _ENTROPY_CALLS:
                self._emit(node, "entropy-source",
                           f"call to {name}() draws OS entropy",
                           "derive values from the experiment seed via "
                           "random.Random(seed)")
            elif name in _MODULE_RANDOM_CALLS:
                self._emit(node, "unseeded-random",
                           f"module-level {name}() uses the global RNG",
                           "thread a seeded random.Random instance "
                           "through instead")
            elif name == "random.Random" and not node.args \
                    and not node.keywords:
                self._emit(node, "unseeded-random",
                           "random.Random() without a seed draws from "
                           "the OS",
                           "pass an explicit seed: random.Random(seed)")
            elif name in _POOL_CALLS:
                self._emit(node, "pool-outside-matrix",
                           f"{name}() constructed outside repro.matrix",
                           "use repro.matrix.MatrixRunner(jobs=N) — its "
                           "pool is persistent, site-warmed and "
                           "artifact-store-aware")
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "Pool" \
                and isinstance(node.func.value, ast.Call) \
                and dotted_name(node.func.value.func, self.aliases) \
                == "multiprocessing.get_context":
            self._emit(node, "pool-outside-matrix",
                       "multiprocessing.get_context(...).Pool() "
                       "constructed outside repro.matrix",
                       "use repro.matrix.MatrixRunner(jobs=N) — its "
                       "pool is persistent, site-warmed and "
                       "artifact-store-aware")
        self.generic_visit(node)

    # -- iteration order -----------------------------------------------
    def _check_iter(self, iter_node: ast.expr) -> None:
        if isinstance(iter_node, ast.Set):
            self._emit(iter_node, "set-iteration",
                       "iteration over a set literal has salted hash "
                       "order",
                       "iterate a tuple/list, or wrap in sorted(...)")
        elif isinstance(iter_node, ast.Call):
            func = iter_node.func
            if isinstance(func, ast.Name) \
                    and func.id in ("set", "frozenset"):
                self._emit(iter_node, "set-iteration",
                           f"iteration over {func.id}(...) has salted "
                           "hash order",
                           "wrap in sorted(...) before iterating")
            elif isinstance(func, ast.Attribute) and func.attr == "keys" \
                    and not iter_node.args:
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
