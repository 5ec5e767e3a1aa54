"""RC1xx — determinism rules over the simulation/conversion packages.

The differential contract (``tests/test_vector_engine_differential.py``)
and the content-addressed caches both assume that simulating or
converting the same inputs yields bit-identical outputs in any process
on any machine.  These rules ban the constructs that silently break
that assumption.  They apply only to modules under the determinism
scope — path components ``sim``, ``core``, ``cvp``, ``cvpsim`` — where
results are produced; CLIs, benchmarks and the observability layer may
legitimately read clocks.

Explicitly allowed (and therefore never flagged):

- ``random.Random(seed)`` instances — seeded RNG is how the SRRIP/TAGE
  models express architected pseudo-randomness reproducibly; only the
  process-global functions (``random.random()``...) are banned.
- ``time.perf_counter`` / ``time.monotonic`` / ``time.process_time`` —
  profiling clocks feed observability metrics, never simulated state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.project import (
    CheckProject,
    SourceModule,
    call_name,
    dotted_name,
)
from repro.checks.rules import ModuleCheckRule, register

#: Path components that place a module in determinism scope.
DETERMINISM_SCOPE = frozenset({"sim", "core", "cvp", "cvpsim"})

#: Process-global ``random`` functions (share the unseeded global RNG).
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "seed",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "getrandbits",
        "triangular",
        "normalvariate",
    }
)

#: Wall-clock reads (value depends on when the code runs).
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Filesystem enumeration with OS-dependent ordering.
_FS_ENUM_NAMES = frozenset(
    {"listdir", "scandir", "iterdir", "glob", "iglob", "rglob"}
)

#: Callables through which set iteration order becomes observable.
_ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"sum", "list", "tuple", "enumerate", "zip", "iter", "next", "join"}
)


def in_determinism_scope(module: SourceModule) -> bool:
    """True when any path component of ``module`` is a scoped package."""
    return any(part in DETERMINISM_SCOPE for part in module.parts)


class _ScopedRule(ModuleCheckRule):
    """Base: skip modules outside the determinism scope."""

    def check(
        self, module: SourceModule, project: CheckProject
    ) -> Iterator[Finding]:
        if not in_determinism_scope(module):
            return
        yield from self.check_scoped(module)

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError


def _is_set_expression(node: ast.AST) -> bool:
    """True for set displays, set comprehensions, and ``set(...)`` calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class GlobalRandomRule(_ScopedRule):
    rule_id = "RC101"
    title = "No process-global random in simulation/conversion code"
    rationale = (
        "The module-level random functions share one unseeded global RNG; "
        "results then depend on import order and call history.  Use a "
        "random.Random(seed) instance owned by the component."
    )

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            module,
                            node,
                            f"'from random import {alias.name}' uses the "
                            "process-global RNG; import random.Random and "
                            "seed an instance instead",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name.startswith("random.")
                    and name.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"call to {name}() draws from the unseeded global "
                        "RNG; use a seeded random.Random instance",
                    )


@register
class WallClockRule(_ScopedRule):
    rule_id = "RC102"
    title = "No wall-clock reads in simulation/conversion code"
    rationale = (
        "time.time()/datetime.now() values leak non-reproducible state "
        "into results and cache payloads.  Use time.perf_counter for "
        "durations (allowed): it measures, it never becomes data."
    )

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"call to {name}() reads the wall clock; use "
                        "time.perf_counter for durations or pass "
                        "timestamps in explicitly",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        yield self.finding(
                            module,
                            node,
                            f"'from time import {alias.name}' imports a "
                            "wall-clock read; use perf_counter",
                        )


@register
class IdKeyedMapRule(_ScopedRule):
    rule_id = "RC103"
    title = "No id()-keyed maps or id()-based membership"
    rationale = (
        "id() values are allocation addresses: unstable across runs, "
        "recycled within one.  Keying caches or memos on them makes "
        "results depend on the allocator."
    )

    _KEYED_METHODS = frozenset(
        {"get", "setdefault", "pop", "add", "discard", "remove"}
    )

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        parents = module.parent_map()
        for node in module.walk():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                continue
            # ``memo[(name, id(obj))]`` keys on id() just as ``memo[id(obj)]``
            # does: look through enclosing tuples to the keyed use.
            key: ast.AST = node
            parent = parents.get(key)
            while isinstance(parent, ast.Tuple):
                key, parent = parent, parents.get(parent)
            keyed = False
            if isinstance(parent, ast.Subscript) and parent.slice is key:
                keyed = True
            elif isinstance(parent, ast.Dict) and key in parent.keys:
                keyed = True
            elif (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr in self._KEYED_METHODS
                and parent.args
                and parent.args[0] is key
            ):
                keyed = True
            elif isinstance(parent, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
            ):
                keyed = True
            if keyed:
                yield self.finding(
                    module,
                    node,
                    "id() used as a map key / membership probe; key on "
                    "stable content (a field tuple or digest) instead",
                )


@register
class BuiltinHashRule(_ScopedRule):
    rule_id = "RC104"
    title = "No builtin hash() in simulation/conversion code"
    rationale = (
        "hash() of str/bytes is salted by PYTHONHASHSEED, so values "
        "differ across worker processes.  Use hashlib for digests or "
        "key on the value itself."
    )

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module,
                    node,
                    "builtin hash() is PYTHONHASHSEED-dependent for "
                    "str/bytes; use hashlib.sha256 or a stable key",
                )


@register
class SetIterationRule(_ScopedRule):
    rule_id = "RC105"
    title = "No order-sensitive iteration over set expressions"
    rationale = (
        "Set iteration order depends on hash salts and insertion "
        "history; iterating one into results (or float accumulation via "
        "sum()) is run-dependent.  sorted()/min()/max()/len() remain "
        "fine: they are order-insensitive."
    )

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.walk():
            sites = []
            if isinstance(node, ast.For) and _is_set_expression(node.iter):
                sites.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                sites.extend(
                    gen.iter
                    for gen in node.generators
                    if _is_set_expression(gen.iter)
                )
            elif isinstance(node, ast.Call):
                consumer = call_name(node)
                if consumer in _ORDER_SENSITIVE_CONSUMERS:
                    sites.extend(
                        arg for arg in node.args if _is_set_expression(arg)
                    )
            for site in sites:
                yield self.finding(
                    module,
                    site,
                    "iteration over a set expression is order-unstable "
                    "(and float accumulation over one is value-unstable); "
                    "sort it first",
                )


@register
class UnsortedFsEnumRule(_ScopedRule):
    rule_id = "RC106"
    title = "Filesystem enumeration must be wrapped in sorted()"
    rationale = (
        "os.listdir/Path.glob order is filesystem-dependent; suites, "
        "fixtures and sweeps must process files in a deterministic "
        "order or results and cache keys drift across machines."
    )

    def check_scoped(self, module: SourceModule) -> Iterator[Finding]:
        parents = module.parent_map()
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in _FS_ENUM_NAMES:
                continue
            parent = parents.get(node)
            wrapped = (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"
            )
            if not wrapped:
                yield self.finding(
                    module,
                    node,
                    f"{name}() enumerates the filesystem in OS order; "
                    "wrap the call in sorted(...)",
                )
