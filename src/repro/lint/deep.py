"""Flow-aware whole-program passes over the project graph.

Two invariants keep the reproduction's numbers trustworthy, and
neither is visible one file at a time:

* **Cache-key completeness** — every run-affecting parameter must be
  represented in :class:`ExperimentSpec`'s canonical cache key, or a
  stale cached result will silently stand in for a different
  experiment.  The spec's identity is derived from its dataclass
  fields (:func:`repro.matrix.spec.canonical_fields`), so a field
  cannot go missing; what still needs a whole-program view is a
  ``run_experiment`` parameter that never passes through a spec field
  at all.  The pass taint-traces ``run_experiment``'s parameters to
  the configuration sinks (the ``Testbed`` assembly, ``fetch_page``,
  fault plans) and checks each one arrives via ``execute_unit`` from a
  spec field or the unit seed.
* **RNG-stream discipline** — every ``random.Random(...)`` must be
  seeded from the experiment seed (possibly offset, like the fault
  injector's ``seed + 7919`` private stream; an argless
  ``random.Random()`` seeds from the OS and is reported as
  untraceable; a seed parameter some caller fills with a constant is
  that constant), and no single RNG object
  may be shared between components whose draw sequences must stay
  independent (a component is a call that receives the RNG *object*;
  drawing from it inside another call's arguments is not sharing).

Writes to module-global state on the worker path have no pass: the
serial ≡ parallel, fast-forward ≡ per-segment and memo-cold tests
compare a unit's output across processes and runs, and catch them.

The passes are functions of one :class:`~repro.lint.graph.ProjectGraph`
— the same parsed modules the per-file rules visit — and emit raw
:class:`~repro.lint.findings.Finding` records; the configuration's
allowlist and inline pragmas filter them exactly as they filter the
per-file rules (:func:`repro.lint.cli.lint_paths`).  The anchors below
describe this repository, and the bad-project corpora under
``tests/lint/fixtures/deep`` reuse the same names.  The repository's
own tree must come out clean: a finding is fixed, or waived where it
is — an allowlisted path or an inline pragma with its reason beside
it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Set, Tuple

from .findings import Finding
from .graph import FunctionInfo, ProjectGraph
from .rules import dotted_name

__all__ = ["deep_findings"]

#: The spec class whose dataclass fields define an experiment.
_SPEC_CLASS = "ExperimentSpec"
#: The function whose keyword surface is the experiment's identity.
_RUN_FUNCTION = "run_experiment"
#: The spec method forwarding its own fields into :data:`_RUN_FUNCTION`
#: (the matrix engine's per-unit hook).
_FORWARD_FUNCTION = "execute_unit"
#: Parameters of :data:`_FORWARD_FUNCTION` that key the cache at the
#: work-unit level rather than through a spec field.
_UNIT_KEY_PARAMS = frozenset(("seed",))
#: Constructors that consume run configuration (plain-name calls).
_SINK_NAMES = frozenset(("TcpConfig", "Testbed", "FaultInjector",
                         "resolve_fault_plan"))
#: Method names that consume run configuration (attribute calls).
_SINK_METHODS = frozenset(("client_config", "fetch_page"))
#: The identifier fragment that marks a value as seed-derived.
_SEED_FRAGMENT = "seed"


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _names_in(node: ast.AST) -> Set[str]:
    """Every plain identifier referenced in an expression.

    Attribute chains contribute their *base* name (``spec.seed`` →
    ``spec``) so taint on a variable covers uses of its attributes.
    """
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
    return names


def _identifier_components(node: ast.AST) -> Set[str]:
    """Every identifier component (names and attribute parts)."""
    parts: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            parts.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            parts.add(sub.attr)
        elif isinstance(sub, ast.arg):
            parts.add(sub.arg)
    return parts


def _is_seedish(node: ast.AST) -> bool:
    return any(_SEED_FRAGMENT in part.lower()
               for part in _identifier_components(node))


def _finding(graph: ProjectGraph, module: str, node: ast.AST,
             rule: str, message: str, hint: str,
             out: List[Finding]) -> None:
    out.append(Finding(path=graph.modules[module].path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=rule, message=message, hint=hint))


# ----------------------------------------------------------------------
# Pass 1: cache-key completeness
# ----------------------------------------------------------------------

def _forwarding_map(fwd: FunctionInfo,
                    run: FunctionInfo) -> Dict[str, str]:
    """How ``run``'s parameters are fed inside ``fwd``'s call to it.

    Maps each forwarded parameter name to:

    * ``"field:X"`` — a plain ``spec.X`` attribute read;
    * ``"spec-derived"`` — any other expression involving the spec
      parameter (e.g. ``spec.client_config()``);
    * ``"unit-key"`` — one of :data:`_UNIT_KEY_PARAMS`;
    * ``"opaque"`` — anything else.
    """
    spec_params = set(fwd.params[:1])  # the spec (``self`` for a method)
    mapping: Dict[str, str] = {}
    for call in fwd.calls:
        if run.qualname not in call.targets \
                and call.raw.split(".")[-1] != run.name:
            continue
        node = call.node

        def classify(value: ast.expr) -> str:
            if isinstance(value, ast.Attribute) \
                    and isinstance(value.value, ast.Name) \
                    and value.value.id in spec_params:
                return f"field:{value.attr}"
            names = _names_in(value)
            if names & spec_params:
                return "spec-derived"
            if names & _UNIT_KEY_PARAMS:
                return "unit-key"
            return "opaque"

        for position, arg in enumerate(node.args):
            if position < len(run.params):
                mapping[run.params[position]] = classify(arg)
        for keyword in node.keywords:
            if keyword.arg is not None:
                mapping[keyword.arg] = classify(keyword.value)
    return mapping


def _run_affecting_params(run: FunctionInfo
                          ) -> Dict[str, Tuple[str, ast.AST]]:
    """Parameters of ``run`` that flow into a configuration sink.

    A two-round taint propagation over the body's assignments (enough
    for the reassignment chains the runner actually uses), then every
    call whose callee matches the sink lists marks the tainted origins
    found anywhere in the call expression.
    """
    taint: Dict[str, Set[str]] = {p: {p} for p in run.params
                                  if p != "self"}
    assigns = [n for n in ast.walk(run.node)
               if isinstance(n, (ast.Assign, ast.AnnAssign,
                                 ast.AugAssign))]
    assigns.sort(key=lambda n: n.lineno)
    for _ in range(2):
        for node in assigns:
            value = getattr(node, "value", None)
            if value is None:
                continue
            origins: Set[str] = set()
            for name in _names_in(value):
                origins |= taint.get(name, set())
            if not origins:
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    taint.setdefault(target.id, set()).update(origins)

    affecting: Dict[str, Tuple[str, ast.AST]] = {}
    for call in run.calls:
        last = call.raw.split(".")[-1]
        plain = "." not in call.raw
        is_sink = (last in _SINK_NAMES if plain
                   else last in _SINK_NAMES or last in _SINK_METHODS)
        if not is_sink:
            continue
        for name in _names_in(call.node):
            for origin in taint.get(name, ()):
                affecting.setdefault(origin, (call.raw, call.node))
    return affecting


def _cache_key_pass(graph: ProjectGraph) -> List[Finding]:
    """Run-affecting run_experiment parameters must arrive through a
    spec dataclass field (the cache identity) or the unit seed."""
    findings: List[Finding] = []
    spec_cls = graph.find_class(_SPEC_CLASS)
    if spec_cls is None:
        return findings
    run_candidates = [f for f in graph.functions_named(_RUN_FUNCTION)
                      if "." not in f.qualname.split(":")[1]]
    fwd_candidates = graph.functions_named(_FORWARD_FUNCTION)
    if not run_candidates or not fwd_candidates:
        return findings
    run = run_candidates[0]
    forwarded: Dict[str, str] = {}
    for fwd in fwd_candidates:
        forwarded.update(_forwarding_map(fwd, run))
    for param, (sink_raw, _node) in sorted(
            _run_affecting_params(run).items()):
        origin = forwarded.get(param)
        if origin in ("spec-derived", "unit-key"):
            continue
        if origin is not None and origin.startswith("field:"):
            field = origin.split(":", 1)[1]
            if field in spec_cls.fields:
                continue
            message = (f"parameter '{param}' of {run.name}() is "
                       f"forwarded from '{field}', which is not a "
                       f"dataclass field of {_SPEC_CLASS}")
        elif origin is None:
            message = (f"run-affecting parameter '{param}' of "
                       f"{run.name}() (flows into {sink_raw}) is never "
                       f"forwarded by {_FORWARD_FUNCTION}()")
        else:
            message = (f"parameter '{param}' of {run.name}() is "
                       f"forwarded from an expression the analyzer "
                       f"cannot tie to the spec or the unit seed")
        _finding(graph, run.module, run.node, "cache-key-unkeyed-param",
                 message,
                 "forward it from a spec dataclass field",
                 findings)
    return findings


# ----------------------------------------------------------------------
# Pass 2: RNG-stream discipline
# ----------------------------------------------------------------------

def _rng_constructions(fn: FunctionInfo,
                       aliases: Mapping[str, str]) -> List[ast.Call]:
    return [call.node for call in fn.calls
            if dotted_name(call.node.func, aliases) == "random.Random"]


def _caller_seed_exprs(graph: ProjectGraph, fn: FunctionInfo, param: str
                       ) -> List[Tuple[FunctionInfo, ast.expr]]:
    """``(caller, expression)`` for what each caller passes for
    ``param`` of ``fn``."""
    position = fn.params.index(param)
    is_method = "." in fn.qualname.split(":", 1)[1]
    exprs: List[Tuple[FunctionInfo, ast.expr]] = []
    for caller, call in graph.callers_of(fn.qualname):
        node = call.node
        matched = False
        for keyword in node.keywords:
            if keyword.arg == param:
                exprs.append((caller, keyword.value))
                matched = True
        if matched:
            continue
        # Positional: when the callee is a method reached through an
        # attribute (or a constructor), `self` is not in the call's
        # argument list.
        candidates = {position}
        if is_method and position > 0:
            candidates.add(position - 1)
        for index in sorted(candidates):
            if index < len(node.args):
                exprs.append((caller, node.args[index]))
    return exprs


def _rng_pass(graph: ProjectGraph) -> List[Finding]:
    findings: List[Finding] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        module = graph.modules[fn.module]
        aliases = module.module_aliases
        constructions = _rng_constructions(fn, aliases)

        # -- seed origin ------------------------------------------------
        for node in constructions:
            # An argless Random() seeds from the OS: untraceable.
            seed_arg = node.args[0] if node.args else node
            if _is_seedish(seed_arg):
                # A seed-named parameter is only as good as what its
                # callers pass: a constant there is a fixed stream.
                for param in sorted(_names_in(seed_arg) & set(fn.params)):
                    if _SEED_FRAGMENT not in param.lower():
                        continue
                    for caller, expr in _caller_seed_exprs(graph, fn,
                                                           param):
                        if isinstance(expr, ast.Constant):
                            _finding(
                                graph, caller.module, expr,
                                "rng-seed-origin",
                                f"{caller.name}() seeds the random.Random "
                                f"in {fn.qualname.split(':', 1)[1]}() "
                                "with a constant — every experiment "
                                "draws the same stream regardless of "
                                "its seed",
                                "pass a value derived from the "
                                "experiment seed", findings)
                continue
            if isinstance(seed_arg, ast.Constant):
                _finding(graph, fn.module, node, "rng-seed-origin",
                         f"random.Random in {fn.name}() is seeded with "
                         "a constant — every experiment draws the same "
                         "stream regardless of its seed",
                         "derive the seed from the experiment seed "
                         "(possibly offset, like the fault injector's "
                         "seed + 7919)", findings)
                continue
            # Interprocedural: a parameter may carry the seed under
            # another name; accept it if every caller passes a
            # seed-derived expression.
            param_names = _names_in(seed_arg) & set(fn.params)
            resolved = False
            if param_names:
                exprs: List[ast.expr] = []
                for param in sorted(param_names):
                    exprs.extend(expr for _, expr in
                                 _caller_seed_exprs(graph, fn, param))
                if exprs and all(_is_seedish(e) for e in exprs):
                    resolved = True
            if not resolved:
                _finding(graph, fn.module, node, "rng-seed-origin",
                         f"random.Random in {fn.name}() has a seed the "
                         "analyzer cannot trace to an experiment seed",
                         "thread the experiment seed through (name it "
                         "*seed*, or make every caller pass a "
                         "seed-derived value)", findings)

        # -- shared streams ---------------------------------------------
        rng_vars: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) \
                    and node.value in constructions:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rng_vars.add(target.id)
                    elif isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        rng_vars.add(f"self.{target.attr}")
        if not rng_vars:
            continue

        def rng_args_of(call: ast.Call) -> Set[str]:
            """RNGs the call receives as objects (``f(rng)``,
            ``f(x=self.rng)``).  An argument that merely draws from
            one (``range(rng.randint(5, 9))``) hands the callee a
            number, not the stream."""
            used: Set[str] = set()
            for value in list(call.args) + [k.value
                                            for k in call.keywords]:
                if isinstance(value, ast.Name) and value.id in rng_vars:
                    used.add(value.id)
                elif isinstance(value, ast.Attribute) \
                        and isinstance(value.value, ast.Name) \
                        and value.value.id == "self" \
                        and f"self.{value.attr}" in rng_vars:
                    used.add(f"self.{value.attr}")
            return used

        consumers: Dict[str, List[ast.Call]] = {}
        for call in fn.calls:
            for var in rng_args_of(call.node):
                consumers.setdefault(var, []).append(call.node)
        for var in sorted(consumers):
            calls = consumers[var]
            if len(calls) < 2:
                continue
            _finding(graph, fn.module, calls[1], "rng-shared-stream",
                     f"RNG '{var}' in {fn.name}() is handed to "
                     f"{len(calls)} components — their draw sequences "
                     "interleave instead of staying independent",
                     "give each component a private stream "
                     "(random.Random(seed + offset) per consumer)",
                     findings)
    return findings


def deep_findings(graph: ProjectGraph) -> List[Finding]:
    """Every whole-program pass over ``graph``, unfiltered."""
    return _cache_key_pass(graph) + _rng_pass(graph)
