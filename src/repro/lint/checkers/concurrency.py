"""RPR011/RPR012/RPR013: async- and thread-safety across file boundaries.

The serve, dist, and realio subsystems turned the repo into a
concurrent system: an asyncio front door, an event-loop coordinator
with threaded pull workers, and one reader thread per simulated disk.
These rules run against the pass-1 :class:`ProjectModel` so a hazard
hidden behind a helper call two modules away is still caught.

**RPR011 blocking-in-async** — inside the configured async packages,
an ``async def`` body must not reach blocking I/O on the event loop:
``time.sleep``, ``open()``/``os.fdopen``/``tempfile``, ``socket.*``,
``subprocess.*``, ``Path.read_text``-style helpers, or the
``executor.submit(...).result()`` join.  The call index is followed
transitively through *sync* callees (an ``await`` of another coroutine
is not blocking, so resolution stops at async boundaries); the finding
lands on the call line inside the coroutine with the full chain to the
sink in the message.

**RPR012 lock discipline** — in the configured threaded packages, an
attribute mutated by thread-entry code (a ``threading.Thread`` target,
an executor submission, a done-callback — or anything they reach
through the call index) is shared state.  Every mutation of a shared
attribute must sit under a ``with self._lock:``-style context (any
attribute holding a ``threading.Lock``/``RLock``/``Condition``, or
whose name contains ``lock``) or carry an explicit
``# repro-lint: shared-state=<why>`` annotation on the mutation line
or on the attribute's ``__init__`` assignment.

**RPR013 unawaited coroutine** — a bare-statement call to a known
``async def`` creates a coroutine that never runs; a bare
``create_task(...)`` whose handle is dropped cannot be joined,
cancelled, or error-checked.  Results must be awaited or bound.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.lint.findings import Finding, Severity
from repro.lint.project import dotted_name
from repro.lint.registry import get_rule, make_finding, path_matches, register

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.config import LintConfig
    from repro.lint.project import (
        ClassInfo,
        FunctionInfo,
        ModuleModel,
        ProjectModel,
    )

BLOCKING_RULE = "RPR011"
LOCK_RULE = "RPR012"
UNAWAITED_RULE = "RPR013"

#: Canonical dotted calls that block the calling thread.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "open",
    "os.fdopen",
    "os.replace",
    "tempfile.mkstemp",
    "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryDirectory",
    "socket.create_connection",
    "socket.socket",
})

#: Any call into these modules blocks (process and socket I/O).
_BLOCKING_MODULES = frozenset({"subprocess", "socket"})

#: Method names that are sync file I/O on pathlib-style objects.
_BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popleft", "appendleft",
    "add", "discard", "clear", "update", "setdefault",
})

_SHARED_STATE_MARK = "# repro-lint: shared-state="


def _canonical(callee: str, module: "ModuleModel") -> str:
    """Rewrite a call target through the module's import table.

    ``sleep`` (after ``from time import sleep``) becomes ``time.sleep``;
    ``t.sleep`` (after ``import time as t``) becomes ``time.sleep``.
    """
    head, dot, rest = callee.partition(".")
    target = module.name_table.get(head)
    if target is None:
        return callee
    return target + dot + rest if rest else target


def _own_statements(node: ast.AST):
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _direct_sinks(
    fn: "FunctionInfo", module: "ModuleModel"
) -> list[tuple[str, int]]:
    """Blocking calls made directly inside ``fn``: (description, line)."""
    sinks: list[tuple[str, int]] = []
    for call in fn.calls:
        canonical = _canonical(call.callee, module)
        parts = canonical.split(".")
        if canonical in _BLOCKING_CALLS:
            sinks.append((f"{canonical}()", call.line))
        elif parts[0] in _BLOCKING_MODULES and len(parts) > 1:
            sinks.append((f"{canonical}()", call.line))
        elif len(parts) > 1 and parts[-1] in _BLOCKING_METHODS:
            sinks.append((f".{parts[-1]}()", call.line))
    # ``executor.submit(...).result()`` — a synchronous join on a
    # future, invisible to the dotted-call index (the receiver is a
    # call, not a name chain).
    for node in _own_statements(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "result"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "submit"
        ):
            sinks.append((".submit(...).result()", node.lineno))
    sinks.sort(key=lambda item: item[1])
    return sinks


def _resolve_callable(
    model: "ProjectModel", context: "FunctionInfo", dotted: str
) -> Optional["FunctionInfo"]:
    """Like ``resolve_function`` but aware of nested definitions."""
    if "." not in dotted:
        module = model.modules.get(context.module)
        if module is not None:
            nested = module.functions.get(f"{context.qualname}.{dotted}")
            if nested is not None:
                return nested
    return model.resolve_function(context, dotted)


# -- RPR011 --------------------------------------------------------------------


@register(
    BLOCKING_RULE,
    name="blocking-in-async",
    severity=Severity.ERROR,
    rationale=(
        "One blocking call on the event loop stalls every in-flight "
        "request: admission control, heartbeats, and coalescing all "
        "assume the loop never waits on a syscall."
    ),
    scope="model",
)
def check_blocking_in_async(
    model: "ProjectModel", config: "LintConfig"
) -> Iterator[Finding]:
    rule = get_rule(BLOCKING_RULE)
    for fn in sorted(
        model.functions(), key=lambda f: (f.module, f.qualname)
    ):
        if not fn.is_async:
            continue
        module = model.modules[fn.module]
        if not path_matches(
            module.info.package_path, config.async_blocking_modules
        ):
            continue

        # Direct sinks in the coroutine body itself.
        reported: set[tuple[str, str]] = set()
        for sink, line in _direct_sinks(fn, module):
            key = (fn.qualname, sink)
            if key in reported:
                continue
            reported.add(key)
            yield make_finding(
                rule, module.info.relpath, line,
                f"blocking call {sink} inside async def {fn.qualname}; "
                "move it off the event loop (await "
                "loop.run_in_executor(...))",
            )

        # Transitive sinks through sync callees (BFS = shortest chain).
        visited: set[tuple[str, str]] = {(fn.module, fn.qualname)}
        frontier: list[tuple["FunctionInfo", list[str], int]] = []
        for call in fn.calls:
            callee = _resolve_callable(model, fn, call.callee)
            if callee is None or callee.is_async:
                continue
            key = (callee.module, callee.qualname)
            if key in visited:
                continue
            visited.add(key)
            frontier.append((callee, [fn.qualname, callee.qualname],
                             call.line))
        while frontier:
            next_frontier: list[tuple["FunctionInfo", list[str], int]] = []
            for callee, chain, entry_line in frontier:
                callee_module = model.modules[callee.module]
                sinks = _direct_sinks(callee, callee_module)
                if sinks:
                    # One finding per (coroutine, sink function): the
                    # fix is moving the whole chain off the loop, not
                    # patching individual syscalls.
                    sink, _ = sinks[0]
                    key = (f"{callee.module}.{callee.qualname}", "*")
                    if key not in reported:
                        reported.add(key)
                        yield make_finding(
                            rule, module.info.relpath, entry_line,
                            f"async def {fn.qualname} reaches blocking "
                            f"{sink} via {' -> '.join(chain)} "
                            f"({callee.module}); move the "
                            "sync chain off the event loop "
                            "(await loop.run_in_executor(...))",
                        )
                if len(chain) >= 8:  # bound pathological call depths
                    continue
                for call in callee.calls:
                    nxt = _resolve_callable(model, callee, call.callee)
                    if nxt is None or nxt.is_async:
                        continue
                    key = (nxt.module, nxt.qualname)
                    if key in visited:
                        continue
                    visited.add(key)
                    next_frontier.append(
                        (nxt, chain + [nxt.qualname], entry_line)
                    )
            frontier = next_frontier


# -- RPR012 --------------------------------------------------------------------


def _callable_args(call: ast.Call, canonical: str) -> list[ast.expr]:
    """Expressions passed as thread-entry callables in ``call``."""
    parts = canonical.split(".")
    tail = parts[-1]
    out: list[ast.expr] = []
    if tail == "Thread" and parts[0] == "threading":
        for keyword in call.keywords:
            if keyword.arg == "target":
                out.append(keyword.value)
    elif tail == "submit" and call.args:
        out.append(call.args[0])
    elif tail == "run_in_executor" and len(call.args) >= 2:
        out.append(call.args[1])
    elif tail == "add_done_callback" and call.args:
        out.append(call.args[0])
    return out


def _thread_entries(
    model: "ProjectModel", config: "LintConfig"
) -> dict[tuple[str, str], str]:
    """(module, qualname) -> how it becomes a thread entry."""
    entries: dict[tuple[str, str], str] = {}
    for fn in model.functions():
        module = model.modules[fn.module]
        for call in fn.calls:
            canonical = _canonical(call.callee, module)
            for expr in _callable_args(call.node, canonical):
                dotted = dotted_name(expr)
                if dotted is None:
                    continue
                target = _resolve_callable(model, fn, dotted)
                if target is None:
                    continue
                entries.setdefault(
                    (target.module, target.qualname),
                    f"{canonical.rpartition('.')[2]} in "
                    f"{fn.module}.{fn.qualname}",
                )
    return entries


def _reachable(
    model: "ProjectModel", entries: dict[tuple[str, str], str]
) -> dict[tuple[str, str], str]:
    """Everything the thread entries reach through resolvable calls."""
    reached = dict(entries)
    frontier = list(entries)
    while frontier:
        module_name, qualname = frontier.pop()
        module = model.modules.get(module_name)
        if module is None:
            continue
        fn = module.functions.get(qualname)
        if fn is None:
            continue
        origin = reached[(module_name, qualname)]
        for call in fn.calls:
            callee = _resolve_callable(model, fn, call.callee)
            if callee is None:
                continue
            key = (callee.module, callee.qualname)
            if key not in reached:
                reached[key] = origin
                frontier.append(key)
    return reached


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` for ``self.attr`` or ``self.attr[...]`` targets."""
    if isinstance(node, ast.Subscript):
        return _self_attr(node.value)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_attr(attr: str, cls: "ClassInfo") -> bool:
    return attr in cls.lock_attrs or "lock" in attr.lower()


def _mutations(
    fn: "FunctionInfo", cls: "ClassInfo"
) -> list[tuple[str, int, bool]]:
    """(attr, line, lock_held) for every self-attribute mutation in fn."""
    out: list[tuple[str, int, bool]] = []

    def walk(node: ast.AST, lock_depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            depth = lock_depth
            if isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    attr = _self_attr(expr)
                    if attr is not None and _is_lock_attr(attr, cls):
                        depth += 1
                        break
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        out.append((attr, child.lineno, depth > 0))
            elif isinstance(child, ast.AugAssign):
                attr = _self_attr(child.target)
                if attr is not None:
                    out.append((attr, child.lineno, depth > 0))
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATOR_METHODS
            ):
                attr = _self_attr(child.func.value)
                if attr is not None:
                    out.append((attr, child.lineno, depth > 0))
            walk(child, depth)

    walk(fn.node, 0)
    return out


def _annotated(source_lines: list[str], line: int) -> bool:
    if 1 <= line <= len(source_lines):
        return _SHARED_STATE_MARK in source_lines[line - 1]
    return False


@register(
    LOCK_RULE,
    name="lock-discipline",
    severity=Severity.ERROR,
    rationale=(
        "The realio reader threads, dist workers, and serve executor "
        "all mutate state owned by another thread; an unlocked write "
        "is a data race the deterministic test suite cannot surface."
    ),
    scope="model",
)
def check_lock_discipline(
    model: "ProjectModel", config: "LintConfig"
) -> Iterator[Finding]:
    rule = get_rule(LOCK_RULE)
    entries = _thread_entries(model, config)
    if not entries:
        return
    reached = _reachable(model, entries)

    # Shared attributes: (module, class) -> attr -> origin description.
    shared: dict[tuple[str, str], dict[str, str]] = {}
    for (module_name, qualname), origin in reached.items():
        module = model.modules[module_name]
        if not path_matches(
            module.info.package_path, config.lock_discipline_modules
        ):
            continue
        fn = module.functions[qualname]
        if fn.class_name is None or fn.name in ("__init__", "__post_init__"):
            continue
        cls = module.classes.get(fn.class_name)
        if cls is None:
            continue
        for attr, _line, _held in _mutations(fn, cls):
            if _is_lock_attr(attr, cls):
                continue
            shared.setdefault((module_name, cls.name), {}).setdefault(
                attr, origin
            )

    # Every mutation of a shared attribute, from any thread, must be
    # locked or annotated.
    seen: set[tuple[str, int, str]] = set()
    for (module_name, class_name), attrs in sorted(shared.items()):
        module = model.modules[module_name]
        cls = module.classes[class_name]
        source_lines = module.info.source.splitlines()
        for fn in sorted(
            module.functions.values(), key=lambda f: f.qualname
        ):
            if fn.class_name != class_name:
                continue
            if fn.name in ("__init__", "__post_init__"):
                continue
            for attr, line, held in _mutations(fn, cls):
                if attr not in attrs or held:
                    continue
                if _annotated(source_lines, line):
                    continue
                init_line = cls.attr_lines.get(attr)
                if init_line is not None and _annotated(
                    source_lines, init_line
                ):
                    continue
                key = (module_name, line, attr)
                if key in seen:
                    continue
                seen.add(key)
                yield make_finding(
                    rule, module.info.relpath, line,
                    f"unlocked write to shared attribute self.{attr} in "
                    f"{class_name}.{fn.name} (thread-entry via "
                    f"{attrs[attr]}); guard it with the owning lock or "
                    f"annotate '{_SHARED_STATE_MARK}<why>'",
                )


# -- RPR013 --------------------------------------------------------------------


@register(
    UNAWAITED_RULE,
    name="unawaited-coroutine",
    severity=Severity.ERROR,
    rationale=(
        "A dropped coroutine silently never runs and a dropped task "
        "handle cannot be joined, cancelled, or error-checked — both "
        "turn request handling into fire-and-forget."
    ),
    scope="model",
)
def check_unawaited(
    model: "ProjectModel", config: "LintConfig"
) -> Iterator[Finding]:
    rule = get_rule(UNAWAITED_RULE)
    for fn in sorted(
        model.functions(), key=lambda f: (f.module, f.qualname)
    ):
        module = model.modules[fn.module]
        if not path_matches(
            module.info.package_path, config.async_blocking_modules
        ):
            continue
        for node in _own_statements(fn.node):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            dotted = dotted_name(call.func)
            if dotted is None:
                continue
            if dotted.rpartition(".")[2] == "create_task":
                yield make_finding(
                    rule, module.info.relpath, node.lineno,
                    f"fire-and-forget task in {fn.qualname}: bind the "
                    "handle from create_task(...) so it can be awaited, "
                    "cancelled, and error-checked",
                )
                continue
            target = _resolve_callable(model, fn, dotted)
            if target is not None and target.is_async:
                yield make_finding(
                    rule, module.info.relpath, node.lineno,
                    f"coroutine {target.qualname}() is neither awaited "
                    f"nor bound in {fn.qualname}; the call never runs",
                )
