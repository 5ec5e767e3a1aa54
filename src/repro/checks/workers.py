"""RC3xx — worker-pool and pickle-safety rules.

:func:`repro.experiments.parallel.run_tasks` ships callables and task
payloads across a :class:`~concurrent.futures.ProcessPoolExecutor`
boundary.  Everything crossing it is pickled, and worker processes do
not share parent memory — two facts that fail at runtime, on specific
platforms, long after the code that broke them merged.  These rules
fail them at check time instead:

- **RC301** requires the *callable* handed to ``submit()``/``map()`` to
  be a module-level function: lambdas and nested functions (closures)
  do not pickle under the default protocol.
- **RC302** flags module-level mutable containers in any module that
  drives a process pool — state mutated in a worker never reaches the
  parent (and under ``spawn`` never reaches the worker either), so
  such globals are silent divergence unless deliberately per-process
  (baseline with a justification when they are).
- **RC303** flags obviously unpicklable *arguments* in submit calls:
  lambdas, generator expressions, and open file handles.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.checks.findings import Finding
from repro.checks.project import CheckProject, SourceModule, dotted_name
from repro.checks.rules import ModuleCheckRule, register
from repro.findings import Severity

#: Names whose presence marks a module as pool-driving for RC302.
_POOL_MARKERS = ("ProcessPoolExecutor", "multiprocessing")

#: Constructors producing module-level mutable containers.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _submit_calls(module: SourceModule) -> Iterator[ast.Call]:
    """Every ``<pool>.submit(...)`` / ``<pool>.map(...)`` call.

    ``submit`` is specific enough to match on the attribute alone;
    ``map`` only counts when the receiver looks like a pool/executor,
    so ``Improvement.map(...)``-style helpers stay out of scope.
    """
    for node in module.walk():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ):
            continue
        attr = node.func.attr
        if attr == "submit":
            yield node
        elif attr == "map":
            receiver = dotted_name(node.func.value).lower()
            if "pool" in receiver or "executor" in receiver:
                yield node


def _nested_function_names(module: SourceModule) -> Set[str]:
    """Names of functions defined inside other functions (closures)."""
    nested: Set[str] = set()
    for node in module.walk():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is node:
                    continue
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(sub.name)
    return nested


def _module_uses_pool(module: SourceModule) -> bool:
    return any(marker in module.source for marker in _POOL_MARKERS)


@register
class PoolCallableRule(ModuleCheckRule):
    rule_id = "RC301"
    title = "Pool-submitted callables must be module-level functions"
    rationale = (
        "submit() pickles the callable by qualified name; lambdas and "
        "closures fail to pickle, aborting the whole batch at runtime "
        "on the first task."
    )

    def check(
        self, module: SourceModule, project: CheckProject
    ) -> Iterator[Finding]:
        nested = _nested_function_names(module)
        for call in _submit_calls(module):
            if not call.args:
                continue
            callee = call.args[0]
            if isinstance(callee, ast.Lambda):
                yield self.finding(
                    module,
                    callee,
                    "lambda submitted to a process pool cannot be "
                    "pickled; hoist it to a module-level function",
                )
            elif isinstance(callee, ast.Name) and callee.id in nested:
                yield self.finding(
                    module,
                    callee,
                    f"nested function '{callee.id}' submitted to a "
                    "process pool cannot be pickled; hoist it to module "
                    "level",
                )


@register
class WorkerGlobalStateRule(ModuleCheckRule):
    rule_id = "RC302"
    severity = Severity.WARNING
    title = "No module-level mutable state in pool-driving modules"
    rationale = (
        "Worker processes do not share parent memory: a module-level "
        "dict/list mutated across the pool boundary silently diverges. "
        "Deliberate per-process memoisation must be baselined with a "
        "justification."
    )

    def _mutable_value(self, value: Optional[ast.AST]) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in _MUTABLE_FACTORIES
        return False

    def check(
        self, module: SourceModule, project: CheckProject
    ) -> Iterator[Finding]:
        if not _module_uses_pool(module):
            return
        for node in module.tree.body:
            targets: List[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if not self._mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    yield self.finding(
                        module,
                        node,
                        f"module-level mutable '{target.id}' in a "
                        "pool-driving module; worker mutations never "
                        "reach the parent — make it per-process state "
                        "explicitly or baseline with a justification",
                    )


@register
class PoolArgumentRule(ModuleCheckRule):
    rule_id = "RC303"
    title = "Pool-submitted arguments must be picklable"
    rationale = (
        "Task payloads cross the process boundary pickled; lambdas, "
        "generator expressions and open file handles raise at submit "
        "time or, worse, inside the worker."
    )

    def _open_handles(self, module: SourceModule) -> Dict[str, ast.AST]:
        """Local names bound to ``open(...)`` results."""
        handles: Dict[str, ast.AST] = {}
        for node in module.walk():
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                value = node.value
                targets = node.targets
            elif isinstance(node, ast.withitem):
                value = node.context_expr
                targets = (
                    [node.optional_vars] if node.optional_vars else []
                )
            else:
                continue
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "open"
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        handles[target.id] = node
        return handles

    def check(
        self, module: SourceModule, project: CheckProject
    ) -> Iterator[Finding]:
        handles = self._open_handles(module)
        for call in _submit_calls(module):
            for arg in call.args[1:]:
                if isinstance(arg, ast.Lambda):
                    yield self.finding(
                        module,
                        arg,
                        "lambda passed as a pool task argument cannot "
                        "be pickled",
                    )
                elif isinstance(arg, ast.GeneratorExp):
                    yield self.finding(
                        module,
                        arg,
                        "generator expression passed as a pool task "
                        "argument cannot be pickled; materialise a list",
                    )
                elif (
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Name)
                    and arg.func.id == "open"
                ):
                    yield self.finding(
                        module,
                        arg,
                        "open file handle passed as a pool task "
                        "argument cannot be pickled; pass the path",
                    )
                elif isinstance(arg, ast.Name) and arg.id in handles:
                    yield self.finding(
                        module,
                        arg,
                        f"'{arg.id}' is an open file handle; it cannot "
                        "cross the pool boundary — pass the path",
                    )
