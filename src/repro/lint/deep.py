"""Flow-aware whole-program passes over the project graph.

Three invariants keep the reproduction's numbers trustworthy, and none
of them is visible one file at a time:

* **Cache-key completeness** — every run-affecting parameter must be
  represented in :class:`ExperimentSpec`'s canonical cache key, or a
  stale cached result will silently stand in for a different
  experiment.  The pass reads the spec module's declared
  ``CACHE_KEY_FIELDS``, checks every spec dataclass field against it,
  and taint-traces ``run_experiment``'s parameters to the configuration
  sinks (the ``Testbed`` assembly, ``fetch_page``, fault plans) to
  catch run-affecting parameters that never pass through a keyed spec
  field at all.
* **RNG-stream discipline** — every ``random.Random(...)`` must be
  seeded from the experiment seed (possibly offset, like the fault
  injector's ``seed + 7919`` private stream), and no single RNG object
  may be shared between components whose draw sequences must stay
  independent.
* **Pool purity** — code reachable from ``MatrixRunner``'s chunk
  dispatch runs inside worker processes; writes to module-global state
  there diverge between the serial and parallel paths unless the state
  is covered by ``ArtifactStore.store_state`` / ``_pool_initializer``.

Findings reuse the :class:`~repro.lint.findings.Finding` model and the
inline-pragma mechanism.  A JSON **baseline** file makes the passes
adoptable incrementally: baselined findings are suppressed, and a
baseline entry that no longer fires becomes a ``stale-baseline``
finding so the file cannot rot.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pathlib
from typing import (Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from .findings import Finding
from .graph import FunctionInfo, ProjectGraph, build_graph

__all__ = ["DEEP_RULES", "DeepConfig", "DEFAULT_DEEP_CONFIG",
           "DeepError", "run_deep", "load_baseline", "apply_baseline",
           "write_baseline"]

#: Every deep rule, with a one-line description (the static per-file
#: rules live in :data:`repro.lint.config.ALL_RULES`).
DEEP_RULES: Dict[str, str] = {
    "cache-key-missing": "ExperimentSpec field absent from the "
                         "canonical cache key (CACHE_KEY_FIELDS)",
    "cache-key-stale": "CACHE_KEY_FIELDS entry that matches no spec "
                       "field",
    "cache-key-unkeyed-param": "run-affecting run_experiment parameter "
                               "not forwarded from a cache-keyed spec "
                               "field",
    "rng-seed-origin": "random.Random(...) whose seed is not derived "
                       "from an experiment seed",
    "rng-shared-stream": "one RNG object passed to several components "
                         "that need independent streams",
    "pool-global-write": "module-global write in code reachable from "
                         "the worker-pool dispatch",
    "stale-baseline": "baseline entry that no longer fires",
}


class DeepError(RuntimeError):
    """Raised for unusable inputs (bad root, malformed baseline)."""


@dataclasses.dataclass(frozen=True)
class DeepConfig:
    """Anchors and waivers for the whole-program passes.

    The defaults describe this repository; the corpus tests point the
    same passes at miniature projects with the same shapes.  Waivers
    are *explicit*: every intentionally key-free knob or sanctioned
    piece of worker-global state is named here with a reason, so the
    exemption list is itself reviewable.
    """

    #: The spec class whose dataclass fields define an experiment.
    spec_class: str = "ExperimentSpec"
    #: Module-level constant in the spec's module naming the cache-key
    #: fields (exported by ``repro.matrix.spec`` for exactly this use).
    cache_key_const: str = "CACHE_KEY_FIELDS"
    #: Additional (spec class, key constant) pairs whose field-level
    #: completeness/staleness is checked the same way.  Subsystems with
    #: their own cacheable unit specs register here; the
    #: parameter-level pass stays tied to :attr:`run_function`.
    extra_spec_classes: Tuple[Tuple[str, str], ...] = (
        ("FleetSpec", "FLEET_CACHE_KEY_FIELDS"),)
    #: The function whose keyword surface is the experiment's identity.
    run_function: str = "run_experiment"
    #: The spec method forwarding its own fields into
    #: :attr:`run_function` (the matrix engine's per-unit hook).
    forward_function: str = "execute_unit"
    #: Parameters of :attr:`forward_function` that key the cache at the
    #: work-unit level rather than through a spec field.
    unit_key_params: Tuple[str, ...] = ("seed",)
    #: Entry points of the worker-pool dispatch (purity roots).
    dispatch_entries: Tuple[str, ...] = ("_run_chunk_supervised",
                                        "_pool_initializer",
                                        "run_unit")
    #: Constructors that consume run configuration (plain-name calls).
    sink_names: Tuple[str, ...] = ("TcpConfig", "Testbed",
                                  "FaultInjector", "resolve_fault_plan")
    #: Method names that consume run configuration (attribute calls).
    sink_methods: Tuple[str, ...] = ("client_config", "fetch_page")
    #: Spec fields that are intentionally not part of the cell key,
    #: mapped to the reason (shown in no finding — documentation).
    spec_field_waivers: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: {
            "seeds": "seeds select work units; the cache keys each "
                     "(cell, seed) unit separately",
        })
    #: Run-function parameters that may stay outside the cache key,
    #: with the reason each is safe.
    param_waivers: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: {
            "site": "custom sites bypass the matrix cache; the default "
                    "site is content-addressed by construction",
            "store": "derived from site; same waiver",
        })
    #: Identifier fragments that mark a value as seed-derived.
    seed_fragments: Tuple[str, ...] = ("seed",)
    #: Path fragments whose module-global state is sanctioned (the
    #: artifact store propagates it via store_state/_pool_initializer).
    purity_path_waivers: Tuple[str, ...] = ("content/artifacts.py",)
    #: Individual sanctioned globals, with the reason each is safe to
    #: differ between workers, the parent and the serial path.
    purity_global_waivers: Mapping[str, str] = dataclasses.field(
        default_factory=lambda: {
            "_DEFAULT_SITE_AND_STORE": "covered by the pool warm-up",
            "_CLASSIFY_CACHE": "pure memo: the key is the raw tag text "
                               "and the value its frozen Token, so a "
                               "cold or cleared cache recomputes the "
                               "same value",
            "_COMPRESSED_MEMO": "pure memo: the key digests max_string "
                                "and every framed payload the LZW size "
                                "depends on, so a miss re-encodes to "
                                "the same value",
        })


DEFAULT_DEEP_CONFIG = DeepConfig()


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


def _is_seedish(node: ast.AST, config: DeepConfig) -> bool:
    lowered = {part.lower() for part in _identifier_components(node)}
    return any(fragment in part
               for part in lowered
               for fragment in config.seed_fragments)


def _dotted(node: ast.expr, aliases: Mapping[str, str]) -> Optional[str]:
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


def _finding(graph: ProjectGraph, module: str, node: ast.AST,
             rule: str, message: str, hint: str,
             out: List[Finding]) -> None:
    info = graph.modules[module]
    line = getattr(node, "lineno", 1)
    if graph.waived(module, rule, line):
        return
    out.append(Finding(path=info.path, line=line,
                       col=getattr(node, "col_offset", 0),
                       rule=rule, message=message, hint=hint))


# ----------------------------------------------------------------------
# Pass 1: cache-key completeness
# ----------------------------------------------------------------------

def _literal_string_tuple(tree: ast.Module,
                          const: str) -> Optional[Tuple[Tuple[str, ast.AST],
                                                        ...]]:
    """Read ``CONST = ("a", "b", ...)`` from a module body."""
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == const:
                if isinstance(value, (ast.Tuple, ast.List)):
                    entries = []
                    for element in value.elts:
                        if isinstance(element, ast.Constant) \
                                and isinstance(element.value, str):
                            entries.append((element.value, element))
                    return tuple(entries)
                return ()
    return None


def _forwarding_map(fwd: FunctionInfo, run: FunctionInfo,
                    config: DeepConfig) -> Dict[str, str]:
    """How ``run``'s parameters are fed inside ``fwd``'s call to it.

    Maps each forwarded parameter name to:

    * ``"field:X"`` — a plain ``spec.X`` attribute read;
    * ``"spec-derived"`` — any other expression involving the spec
      parameter (e.g. ``spec.client_config()``);
    * ``"unit-key"`` — one of :attr:`DeepConfig.unit_key_params`;
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
            if names & set(config.unit_key_params):
                return "unit-key"
            return "opaque"

        for position, arg in enumerate(node.args):
            if position < len(run.params):
                mapping[run.params[position]] = classify(arg)
        for keyword in node.keywords:
            if keyword.arg is not None:
                mapping[keyword.arg] = classify(keyword.value)
    return mapping


def _run_affecting_params(run: FunctionInfo,
                          config: DeepConfig
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
    sink_names = set(config.sink_names)
    sink_methods = set(config.sink_methods)
    for call in run.calls:
        last = call.raw.split(".")[-1]
        plain = "." not in call.raw
        is_sink = (last in sink_names if plain
                   else last in sink_names or last in sink_methods)
        if not is_sink:
            continue
        for name in _names_in(call.node):
            for origin in taint.get(name, ()):
                affecting.setdefault(origin, (call.raw, call.node))
    return affecting


def _spec_fields_pass(graph: ProjectGraph, spec_class: str,
                      cache_key_const: str,
                      waivers: Mapping[str, str],
                      findings: List[Finding]) -> Optional[Set[str]]:
    """Field completeness + staleness for one spec/key-const pair.

    Returns the declared key-field names (for callers that run further
    passes against them), or None when the class or constant is absent.
    """
    spec_cls = graph.find_class(spec_class)
    if spec_cls is None:
        return None
    spec_module = graph.modules[spec_cls.module]
    declared = _literal_string_tuple(spec_module.tree, cache_key_const)
    if declared is None:
        _finding(graph, spec_cls.module, spec_cls.node,
                 "cache-key-missing",
                 f"spec module defines no {cache_key_const}; "
                 "the analyzer cannot verify cache-key completeness",
                 f"export {cache_key_const} as a literal tuple "
                 "of the canonical cache-key field names", findings)
        return None
    key_fields = {name for name, _ in declared}

    # Field-level completeness: every spec field keyed or waived.
    for stmt in spec_cls.node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        field = stmt.target.id
        if field == "__slots__" or field in key_fields \
                or field in waivers:
            continue
        _finding(graph, spec_cls.module, stmt, "cache-key-missing",
                 f"spec field '{field}' is not in "
                 f"{cache_key_const}: two specs differing only "
                 f"in '{field}' would collide in the result cache",
                 f"add '{field}' to {cache_key_const} (and "
                 "canonical_dict), or waive it in the deep config with "
                 "a reason", findings)

    # Staleness: every key entry a real field.
    spec_fields = set(spec_cls.fields)
    for name, node in declared:
        if name not in spec_fields:
            _finding(graph, spec_cls.module, node, "cache-key-stale",
                     f"{cache_key_const} names '{name}', which "
                     f"is not a field of {spec_class}",
                     "remove the stale entry (renamed or deleted "
                     "field?)", findings)
    return key_fields


def _cache_key_pass(graph: ProjectGraph,
                    config: DeepConfig) -> List[Finding]:
    findings: List[Finding] = []
    # Secondary spec classes (fleet populations, future subsystems) get
    # the field-level checks; the parameter-level pass below is tied to
    # run_experiment's surface and stays primary-only.
    for spec_class, cache_key_const in config.extra_spec_classes:
        _spec_fields_pass(graph, spec_class, cache_key_const, {},
                          findings)
    key_fields = _spec_fields_pass(graph, config.spec_class,
                                   config.cache_key_const,
                                   config.spec_field_waivers, findings)
    if key_fields is None:
        return findings

    # Parameter-level completeness: run-affecting run_experiment
    # parameters must arrive through a keyed spec field.
    run_candidates = [f for f in graph.functions_named(
        config.run_function) if "." not in f.qualname.split(":")[1]]
    fwd_candidates = graph.functions_named(config.forward_function)
    if not run_candidates or not fwd_candidates:
        return findings
    run = run_candidates[0]
    forwarded: Dict[str, str] = {}
    for fwd in fwd_candidates:
        forwarded.update(_forwarding_map(fwd, run, config))
    for param, (sink_raw, _node) in sorted(
            _run_affecting_params(run, config).items()):
        if param in config.param_waivers:
            continue
        origin = forwarded.get(param)
        if origin in ("spec-derived", "unit-key"):
            continue
        if origin is not None and origin.startswith("field:"):
            field = origin.split(":", 1)[1]
            if field in key_fields \
                    or field in config.spec_field_waivers:
                continue
            message = (f"parameter '{param}' of {run.name}() is "
                       f"forwarded from spec field '{field}', which is "
                       f"not in {config.cache_key_const}")
        elif origin is None:
            message = (f"run-affecting parameter '{param}' of "
                       f"{run.name}() (flows into {sink_raw}) is never "
                       f"forwarded by {config.forward_function}() and "
                       "is not waived")
        else:
            message = (f"parameter '{param}' of {run.name}() is "
                       f"forwarded from an expression the analyzer "
                       f"cannot tie to the spec or the unit seed")
        _finding(graph, run.module, run.node, "cache-key-unkeyed-param",
                 message,
                 "forward it from a cache-keyed spec field, or add a "
                 "waiver with a reason to the deep config", findings)
    return findings


# ----------------------------------------------------------------------
# Pass 2: RNG-stream discipline
# ----------------------------------------------------------------------

def _rng_constructions(fn: FunctionInfo,
                       aliases: Mapping[str, str]) -> List[ast.Call]:
    return [call.node for call in fn.calls
            if _dotted(call.node.func, aliases) == "random.Random"]


def _caller_seed_exprs(graph: ProjectGraph, fn: FunctionInfo,
                       param: str) -> List[ast.expr]:
    """Expressions callers pass for ``param`` of ``fn``."""
    position = fn.params.index(param)
    is_method = "." in fn.qualname.split(":", 1)[1]
    exprs: List[ast.expr] = []
    for _caller, call in graph.callers_of(fn.qualname):
        node = call.node
        matched = False
        for keyword in node.keywords:
            if keyword.arg == param:
                exprs.append(keyword.value)
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
                exprs.append(node.args[index])
    return exprs


def _rng_pass(graph: ProjectGraph, config: DeepConfig) -> List[Finding]:
    findings: List[Finding] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        module = graph.modules[fn.module]
        aliases = module.module_aliases
        constructions = _rng_constructions(fn, aliases)

        # -- seed origin ------------------------------------------------
        for node in constructions:
            if not node.args:
                continue    # the per-file unseeded-random rule owns this
            seed_arg = node.args[0]
            if _is_seedish(seed_arg, config):
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
                    exprs.extend(_caller_seed_exprs(graph, fn, param))
                if exprs and all(_is_seedish(e, config)
                                 for e in exprs):
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
                    and isinstance(node.value, ast.Call) \
                    and _dotted(node.value.func,
                                aliases) == "random.Random":
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
            used: Set[str] = set()
            for value in list(call.args) + [k.value
                                            for k in call.keywords]:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id in rng_vars:
                        used.add(sub.id)
                    elif isinstance(sub, ast.Attribute) \
                            and isinstance(sub.value, ast.Name) \
                            and sub.value.id == "self" \
                            and f"self.{sub.attr}" in rng_vars:
                        used.add(f"self.{sub.attr}")
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


# ----------------------------------------------------------------------
# Pass 3: pool purity
# ----------------------------------------------------------------------

def _purity_pass(graph: ProjectGraph,
                 config: DeepConfig) -> List[Finding]:
    findings: List[Finding] = []
    roots: List[str] = []
    for name in config.dispatch_entries:
        roots.extend(fn.qualname for fn in graph.functions_named(name))
    if not roots:
        return findings
    waived_globals = config.purity_global_waivers
    for qualname in sorted(graph.reachable(roots)):
        fn = graph.functions[qualname]
        module = graph.modules[fn.module]
        if any(fragment in module.posix_path
               for fragment in config.purity_path_waivers):
            continue
        for name, node in fn.global_writes:
            if name in waived_globals:
                continue
            _finding(graph, fn.module, node, "pool-global-write",
                     f"{fn.name}() is reachable from the pool dispatch "
                     f"and assigns module-global '{name}' — worker "
                     "state will diverge from the serial path",
                     "move the state into ArtifactStore.store_state / "
                     "_pool_initializer, or pass it explicitly",
                     findings)
        for name, node in fn.module_subscript_writes:
            if name in waived_globals:
                continue
            _finding(graph, fn.module, node, "pool-global-write",
                     f"{fn.name}() is reachable from the pool dispatch "
                     f"and mutates module-level '{name}[...]' — a "
                     "worker-local memo invisible to the parent and "
                     "the serial path",
                     "key the memo through the artifact store, or "
                     "waive it if the memo is pure (same key, same "
                     "value)", findings)
    return findings


# ----------------------------------------------------------------------
# Entry point and baseline plumbing
# ----------------------------------------------------------------------

def run_deep(root: Union[str, pathlib.Path],
             config: DeepConfig = DEFAULT_DEEP_CONFIG) -> List[Finding]:
    """Run all whole-program passes over the tree rooted at ``root``."""
    root = pathlib.Path(root)
    if not root.is_dir():
        raise DeepError(f"deep analysis needs a package directory, "
                        f"got: {root}")
    graph = build_graph(root)
    findings: List[Finding] = []
    findings.extend(_cache_key_pass(graph, config))
    findings.extend(_rng_pass(graph, config))
    findings.extend(_purity_pass(graph, config))
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.col, f.rule))


def load_baseline(path: Union[str, pathlib.Path]
                  ) -> Dict[str, Dict[str, str]]:
    """Read a baseline file: finding_id -> recorded entry."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DeepError(f"cannot read baseline {path}: {exc}") from exc
    except ValueError as exc:
        raise DeepError(f"baseline {path} is not valid JSON: "
                        f"{exc}") from exc
    entries = payload.get("findings") if isinstance(payload, dict) \
        else None
    if not isinstance(entries, list):
        raise DeepError(f"baseline {path} must be an object with a "
                        "'findings' list")
    baseline: Dict[str, Dict[str, str]] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise DeepError(f"baseline {path}: every finding needs an "
                            "'id'")
        baseline[str(entry["id"])] = entry
    return baseline


def apply_baseline(findings: Sequence[Finding],
                   baseline: Mapping[str, Mapping[str, str]],
                   baseline_path: Union[str, pathlib.Path]
                   ) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (kept, stale-baseline findings).

    Findings whose :attr:`~repro.lint.findings.Finding.finding_id`
    appears in the baseline are suppressed.  Baseline ids that match
    nothing are reported as ``stale-baseline`` findings — a rotted
    baseline would otherwise quietly grow blind spots.
    """
    fired = {f.finding_id for f in findings}
    kept = [f for f in findings if f.finding_id not in baseline]
    stale: List[Finding] = []
    for finding_id in sorted(set(baseline) - fired):
        entry = baseline[finding_id]
        where = entry.get("path", "?")
        rule = entry.get("rule", "?")
        stale.append(Finding(
            path=str(baseline_path), line=1, col=0,
            rule="stale-baseline",
            message=f"baseline entry {finding_id} ({rule} at {where}) "
                    "no longer fires",
            hint="refresh the baseline: python -m repro lint --deep "
                 f"--write-baseline {baseline_path}"))
    return kept, stale


def write_baseline(findings: Sequence[Finding],
                   path: Union[str, pathlib.Path]) -> None:
    """Write the current deep findings as a baseline file."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col,
                                              f.rule))
    payload = {
        "version": 1,
        "comment": "Accepted whole-program lint findings.  Entries "
                   "are matched by id (hash of path|rule|message, "
                   "line-independent); remove entries as the findings "
                   "are fixed — stale entries fail the lint.",
        "findings": [
            {"id": f.finding_id, "rule": f.rule, "path": f.path,
             "line": f.line, "message": f.message}
            for f in ordered
        ],
    }
    pathlib.Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
