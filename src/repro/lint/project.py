"""Pass 1 of the project-wide analyzer: the whole-repo model.

The per-file rules (RPR001-RPR008) see one module at a time.  The
cross-file rules added for the concurrent subsystems (layering,
blocking-in-async, lock discipline, unawaited coroutines) need to know
how modules relate: who imports whom, which functions call which, what
type ``self.cache`` is inside a coroutine.  :func:`build_project_model`
walks every parsed module once and produces a :class:`ProjectModel`
answering exactly those questions:

* a **module import graph** — top-level imports only, with
  ``if TYPE_CHECKING:`` blocks excluded (they are erased at runtime and
  are the sanctioned way to break a type-only cycle) and
  function-scoped imports excluded (a deliberate runtime cycle break);
* a **function/method index** — every ``def`` and ``async def``
  (including nested ones) with the dotted calls made in its body;
* **per-class attribute typing** — inferred from ``__init__``
  assignments like ``self.store = ResultStore(...)``, from annotated
  parameters assigned to attributes, and from attribute annotations —
  enough to resolve ``self.cache.lookup_trials`` three modules away;
* **lock inventory** — which attributes hold ``threading.Lock`` /
  ``RLock`` / ``Condition`` objects, for the lock-discipline rule.

The model is intentionally a *static under-approximation*: resolution
helpers return ``None`` rather than guess, so cross-file rules err on
the side of silence, never on the side of a wrong chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.lint.registry import ModuleInfo

#: Attribute names that create lock-like objects when constructed.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for(package_path: str) -> str:
    """Dotted module name for a package path (``repro/serve/server.py``)."""
    path = package_path
    if path.endswith(".py"):
        path = path[: -len(".py")]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


@dataclass
class ImportEdge:
    """One imported binding: ``importer`` depends on ``imported``.

    For ``from a import b`` the edge initially points at ``a`` with
    ``symbol="b"``; once every module is registered,
    :func:`build_project_model` retargets the edge to ``a.b`` when
    ``b`` turns out to be a module — the binding is the submodule, and
    modelling it as a dependency on the package ``__init__`` would make
    every re-exporting package cyclic by construction.
    """

    importer: str  #: dotted module name of the importing module
    imported: str  #: dotted module name of the imported module
    line: int
    top_level: bool  #: at module scope, outside ``if TYPE_CHECKING:``
    symbol: Optional[str] = None  #: the name bound by ``from x import name``


@dataclass
class CallSite:
    """One dotted call made inside a function body."""

    callee: str  #: the call target as written (``self.cache.lookup_trials``)
    line: int
    node: ast.Call


@dataclass
class FunctionInfo:
    """One ``def`` / ``async def``, including nested definitions."""

    module: str  #: dotted module name
    qualname: str  #: ``Class.method`` / ``fn`` / ``Class.method.inner``
    name: str
    class_name: Optional[str]  #: enclosing class (also for nested defs)
    is_async: bool
    node: ast.AST
    calls: list[CallSite] = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassInfo:
    """One class: its methods, inferred attribute types, and locks."""

    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  #: base names as written
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute -> type name as written at the assignment site.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute -> line of its first ``__init__`` assignment.
    attr_lines: dict[str, int] = field(default_factory=dict)
    #: attributes holding threading.Lock/RLock/Condition/Semaphore.
    lock_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleModel:
    """Per-module slice of the project model."""

    name: str  #: dotted module name
    info: ModuleInfo
    imports: list[ImportEdge] = field(default_factory=list)
    #: local name -> dotted target.  ``import a.b as c`` gives
    #: ``c -> a.b``; ``from a import b`` gives ``b -> a.b`` (which may
    #: name a module or a symbol — resolution decides later).
    name_table: dict[str, str] = field(default_factory=dict)
    #: module-level ``alias = target`` assignments (name-for-name only).
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


class ProjectModel:
    """The whole-repo model cross-file rules run against."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleModel] = {}
        self.by_relpath: dict[str, ModuleModel] = {}

    # -- lookups ---------------------------------------------------------------

    def module(self, name: str) -> Optional[ModuleModel]:
        return self.modules.get(name)

    def functions(self) -> Iterable[FunctionInfo]:
        for module in self.modules.values():
            yield from module.functions.values()

    def import_graph(self) -> dict[str, set[str]]:
        """Top-level import edges restricted to modules in the model."""
        graph: dict[str, set[str]] = {name: set() for name in self.modules}
        for module in self.modules.values():
            for edge in module.imports:
                if edge.top_level and edge.imported in self.modules:
                    if edge.imported != module.name:
                        graph[module.name].add(edge.imported)
        return graph

    # -- resolution ------------------------------------------------------------

    def resolve_class(
        self, module: ModuleModel, name: str
    ) -> Optional[ClassInfo]:
        """A class named ``name`` (possibly dotted) seen from ``module``."""
        if name in module.classes:
            return module.classes[name]
        head, _, rest = name.partition(".")
        target = module.name_table.get(head)
        if target is None:
            return None
        if not rest:
            # ``from x import Cls`` -> target is ``x.Cls``.
            owner, _, symbol = target.rpartition(".")
            owner_module = self.modules.get(owner)
            if owner_module is not None and symbol in owner_module.classes:
                return owner_module.classes[symbol]
            return None
        # ``import x.y as m`` then ``m.Cls``.
        owner_module = self.modules.get(target)
        if owner_module is not None and rest in owner_module.classes:
            return owner_module.classes[rest]
        return None

    def resolve_function(
        self, context: FunctionInfo, callee: str
    ) -> Optional[FunctionInfo]:
        """The FunctionInfo a dotted call in ``context`` lands on, if known.

        Handles, in order: ``self.method()``, ``self.attr.method()``
        (through inferred attribute types), local module functions,
        ``from x import fn`` names, module-level aliases, and
        ``mod.fn()`` through the import table.  Returns ``None`` for
        anything it cannot prove — rules must treat that as opaque.
        """
        module = self.modules.get(context.module)
        if module is None:
            return None
        parts = callee.split(".")

        if parts[0] == "self" and context.class_name:
            cls = module.classes.get(context.class_name)
            if cls is None:
                return None
            if len(parts) == 2:
                return self._method(cls, parts[1])
            if len(parts) == 3:
                attr_type = cls.attr_types.get(parts[1])
                if attr_type is None:
                    return None
                target_cls = self.resolve_class(module, attr_type)
                if target_cls is None:
                    return None
                return self._method(target_cls, parts[2])
            return None

        if len(parts) == 1:
            name = module.aliases.get(parts[0], parts[0])
            if name in module.functions:
                return module.functions[name]
            target = module.name_table.get(name)
            if target is not None:
                owner, _, symbol = target.rpartition(".")
                owner_module = self.modules.get(owner)
                if owner_module is not None:
                    symbol = owner_module.aliases.get(symbol, symbol)
                    return owner_module.functions.get(symbol)
            return None

        if len(parts) == 2:
            target = module.name_table.get(parts[0])
            if target is not None:
                owner_module = self.modules.get(target)
                if owner_module is not None:
                    name = owner_module.aliases.get(parts[1], parts[1])
                    return owner_module.functions.get(name)
            # ``Cls.method`` on a locally known or imported class.
            cls = self.resolve_class(module, parts[0])
            if cls is not None:
                return self._method(cls, parts[1])
        return None

    def _method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Method lookup on ``cls``, following project-local base classes."""
        seen: set[tuple[str, str]] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            key = (current.module, current.name)
            if key in seen:
                continue
            seen.add(key)
            if name in current.methods:
                return current.methods[name]
            owner = self.modules.get(current.module)
            if owner is None:
                continue
            for base in current.bases:
                base_cls = self.resolve_class(owner, base)
                if base_cls is not None:
                    stack.append(base_cls)
        return None


# -- model construction --------------------------------------------------------


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


class _ModuleVisitor(ast.NodeVisitor):
    """Builds one :class:`ModuleModel` from a parsed module."""

    def __init__(self, model: ModuleModel) -> None:
        self.model = model
        self._class: list[str] = []
        self._function: list[FunctionInfo] = []
        self._qual: list[str] = []
        self._type_checking = False

    # -- imports ---------------------------------------------------------------

    def _add_edge(
        self, imported: str, line: int, symbol: Optional[str] = None
    ) -> None:
        self.model.imports.append(ImportEdge(
            importer=self.model.name,
            imported=imported,
            line=line,
            top_level=(
                not self._function
                and not self._type_checking
            ),
            symbol=symbol,
        ))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add_edge(alias.name, node.lineno)
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.model.name_table.setdefault(local, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Relative import: resolve against this module's package.
            package_parts = self.model.name.split(".")
            if self.model.info.package_path.endswith("__init__.py"):
                package_parts = package_parts  # package imports from itself
            else:
                package_parts = package_parts[:-1]
            if node.level > 1:
                package_parts = package_parts[: -(node.level - 1)]
            base = ".".join(package_parts + ([base] if base else []))
        if not base:
            return
        for alias in node.names:
            if alias.name == "*":
                self._add_edge(base, node.lineno)
                continue
            self._add_edge(base, node.lineno, symbol=alias.name)
            local = alias.asname or alias.name
            self.model.name_table.setdefault(local, f"{base}.{alias.name}")

    # -- scoping ---------------------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test) and not self._function:
            was = self._type_checking
            self._type_checking = True
            for child in node.body:
                self.visit(child)
            self._type_checking = was
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._function:
            return  # classes defined inside functions are out of scope
        cls = ClassInfo(
            module=self.model.name,
            name=node.name,
            node=node,
            bases=[
                name for name in
                (dotted_name(base) for base in node.bases)
                if name is not None
            ],
        )
        self.model.classes[node.name] = cls
        self._class.append(node.name)
        self._qual.append(node.name)
        for child in node.body:
            self.visit(child)
        self._qual.pop()
        self._class.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, is_async: bool
    ) -> None:
        qualname = ".".join(self._qual + [node.name])
        info = FunctionInfo(
            module=self.model.name,
            qualname=qualname,
            name=node.name,
            class_name=self._class[-1] if self._class else None,
            is_async=is_async,
            node=node,
        )
        self.model.functions[qualname] = info
        if self._class and len(self._qual) == 1:
            self.model.classes[self._class[-1]].methods[node.name] = info
        if (
            not self._function and self._class
            and node.name == "__init__"
        ):
            self._collect_init(self.model.classes[self._class[-1]], node)
        self._function.append(info)
        self._qual.append(node.name)
        for child in node.body:
            self.visit(child)
        self._qual.pop()
        self._function.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    # -- calls and aliases -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self._function:
            callee = dotted_name(node.func)
            if callee is not None:
                self._function[-1].calls.append(
                    CallSite(callee=callee, line=node.lineno, node=node)
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level ``alias = name`` (e.g. ``write = atomic_write_json``).
        if (
            not self._function and not self._class
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Name)
        ):
            self.model.aliases[node.targets[0].id] = node.value.id
        self.generic_visit(node)

    # -- __init__ attribute typing ---------------------------------------------

    def _collect_init(
        self, cls: ClassInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        #: parameter name -> annotation name (``store: ResultStore``).
        param_types: dict[str, str] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                annotation = _annotation_name(arg.annotation)
                if annotation is not None:
                    param_types[arg.arg] = annotation
        for statement in ast.walk(node):
            target, value = None, None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            cls.attr_lines.setdefault(attr, statement.lineno)
            inferred = None
            if isinstance(statement, ast.AnnAssign):
                inferred = _annotation_name(statement.annotation)
            if inferred is None and value is not None:
                inferred = _infer_value_type(value, param_types)
            if inferred is not None:
                cls.attr_types.setdefault(attr, inferred)
                if inferred.rpartition(".")[2] in _LOCK_FACTORIES:
                    cls.lock_attrs.add(attr)


def _annotation_name(node: ast.expr) -> Optional[str]:
    """The class name an annotation denotes, unwrapping Optional[...]"""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        outer = dotted_name(node.value)
        if outer in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``ResultStore | None`` — take the non-None side.
        for side in (node.left, node.right):
            name = _annotation_name(side)
            if name is not None and name != "None":
                return name
        return None
    name = dotted_name(node)
    if name in ("None", "Any", "typing.Any"):
        return None
    return name


def _infer_value_type(
    value: ast.expr, param_types: dict[str, str]
) -> Optional[str]:
    """Type name of an ``__init__`` assignment's right-hand side."""
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None and name.rpartition(".")[2][:1].isupper():
            return name
        return None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
        # ``store or ResultStore(...)`` — any resolvable operand wins.
        for operand in value.values:
            inferred = _infer_value_type(operand, param_types)
            if inferred is not None:
                return inferred
        return None
    if isinstance(value, ast.IfExp):
        # ``store if store is not None else ResultStore(...)``.
        for operand in (value.body, value.orelse):
            inferred = _infer_value_type(operand, param_types)
            if inferred is not None:
                return inferred
    return None


def build_project_model(modules: Iterable[ModuleInfo]) -> ProjectModel:
    """Pass 1: one walk over every parsed module."""
    project = ProjectModel()
    for info in modules:
        name = module_name_for(info.package_path)
        model = ModuleModel(name=name, info=info)
        project.modules[name] = model
        project.by_relpath[info.relpath] = model
    for model in project.modules.values():
        visitor = _ModuleVisitor(model)
        visitor.visit(model.info.tree)
    # Retarget ``from a import b`` edges at the submodule when ``b``
    # names one (see ImportEdge): the dependency is on ``a.b``, not on
    # the package ``__init__`` that happens to re-export it.
    for model in project.modules.values():
        for edge in model.imports:
            if edge.symbol is not None:
                candidate = f"{edge.imported}.{edge.symbol}"
                if candidate in project.modules:
                    edge.imported = candidate
    return project
