"""Cross-module dataflow analysis backing lint rules PRV011–PRV013.

The single-file AST rules in :mod:`repro.analysis.lint` are blind to
*types*: whether ``idx`` is a :class:`~repro.core.usage_index.
UsageClassIndex` (whose mutation must route through the epoch-keyed
maintenance path) or a throwaway dict is invisible to one module's
syntax.  This module builds a light cross-module symbol table — classes,
constructor-assigned attribute types, annotated signatures, property
returns — over *all* linted files first, then evaluates three dataflow
rules per file against it:

PRV011
    mutation of an indexed structure (``UsageClassIndex`` /
    ``SoAClassTable`` of :mod:`repro.core.usage_index`, ``FleetColumns``
    of :mod:`repro.core.soa.columns`, and subclasses) outside its
    sanctioned maintenance path.  Sanctioned means: the structure's
    defining module, a module that constructs the structure (its
    owner), or a function that also calls ``refresh`` / ``rebuild`` /
    ``_refresh`` so the epoch seam observes the change.
PRV012
    RNG stream escape: the generator returned by
    ``RngFactory.generator(*labels)`` is keyed to one consumer; storing
    it on an attribute, binding it at module scope, capturing it in a
    closure, or passing it to a parameter whose name does not signal
    RNG custody leaks draws across stream boundaries and breaks the
    per-label determinism contract.
PRV013
    accumulation-order hazard: a float reduction (``sum`` /
    ``np.sum`` / ``+=`` in a loop) over an *unordered* iteration source
    (sets, ``as_completed``, ``imap_unordered``, ``listdir`` /
    ``iterdir`` / ``glob``) feeding a reported metric — the fold order,
    and with it the last few ULPs of the result, then depends on hash
    seeds or the filesystem.  ``math.fsum`` is exempt (order
    insensitive).

The inference is deliberately shallow — assignments from constructor
calls, annotated parameters and returns, ``self`` binding, property
types, attribute chains — because the rules only need to recognise a
handful of structure types, not run a type checker.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ClassInfo",
    "DataflowFinding",
    "EPOCH_SAFE_CALLS",
    "FuncInfo",
    "INDEXED_STRUCTURES",
    "INDEX_MUTATORS",
    "ModuleInfo",
    "RNG_FACTORY_TYPES",
    "RNG_PARAM_NAME",
    "SymbolTable",
    "UNORDERED_PRODUCERS",
    "build_symbol_table",
    "dataflow_findings",
]

#: Structure types whose mutation outside the maintenance path is a
#: PRV011 hazard (subclasses recognised through recorded bases).
INDEXED_STRUCTURES: Tuple[str, ...] = (
    "UsageClassIndex",
    "SoAClassTable",
    "FleetColumns",
)

#: Calls inside a function that sanction its mutations for PRV011: the
#: epoch / canonical state is re-derived after the change.
EPOCH_SAFE_CALLS: Set[str] = {"refresh", "rebuild", "_refresh", "_reset"}

#: Method calls that mutate the receiver (superset of plain container
#: mutators: ``update`` covers :meth:`SoAClassTable.update`, and the
#: private ``_intern`` / ``build_csr`` reach directly into columns).
INDEX_MUTATORS: Set[str] = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "_intern", "build_csr",
}

#: Types whose ``.generator(...)`` result is a keyed RNG stream.
RNG_FACTORY_TYPES: Set[str] = {"RngFactory"}

#: Receiver / parameter names that signal deliberate RNG custody.
RNG_PARAM_NAME = re.compile(r"(rng|random|gen)", re.IGNORECASE)

#: Call names producing completion-order / filesystem-order streams.
UNORDERED_PRODUCERS: Set[str] = {
    "as_completed", "imap_unordered", "listdir", "scandir",
    "iterdir", "glob", "rglob", "iglob",
}

#: Identifier fragments marking a float-valued reported quantity
#: (mirrors the PRV002 heuristic in :mod:`repro.analysis.lint`).
_FLOATY = re.compile(
    r"(util|utilization|fraction|rate|ratio|energy|joule|kwh|score|"
    r"weight|damping|epsilon|threshold|seconds|cost|watts|load_factor|"
    r"total|mean|avg)",
    re.IGNORECASE,
)

#: The one module allowed to hand RNG streams around freely.
_RNG_MODULE_SUFFIX = "repro/util/rng.py"


@dataclass(frozen=True)
class DataflowFinding:
    """One dataflow-rule violation, pre-:class:`~repro.analysis.lint.
    Finding` (the linter owns the Finding type; this avoids a cycle)."""

    line: int
    col: int
    code: str
    message: str


@dataclass
class FuncInfo:
    """Signature facts for one function or method."""

    name: str
    params: Tuple[str, ...] = ()
    param_types: Dict[str, str] = field(default_factory=dict)
    returns: Optional[str] = None


@dataclass
class ClassInfo:
    """One class: where it lives, what it extends, what its attributes
    and methods look like."""

    name: str
    module: str
    bases: Tuple[str, ...] = ()
    attrs: Dict[str, str] = field(default_factory=dict)
    properties: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, FuncInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module slice of the symbol table."""

    path: str
    classes: Tuple[str, ...] = ()
    functions: Tuple[str, ...] = ()


class SymbolTable:
    """Cross-module name → type facts with base-class resolution.

    Names are bare (unqualified): the codebase has no class-name
    collisions, and suffix-keying keeps the table independent of how a
    module was imported.
    """

    __slots__ = ("classes", "functions", "modules", "constructed_in")

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FuncInfo] = {}
        self.modules: Dict[str, ModuleInfo] = {}
        #: class name -> module keys that call its constructor.
        self.constructed_in: Dict[str, Set[str]] = {}

    # -- resolution ----------------------------------------------------
    def _mro(self, type_name: str) -> Iterator[ClassInfo]:
        """The class and its transitive recorded bases, nearest first."""
        seen: Set[str] = set()
        stack = [type_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            yield info
            stack.extend(info.bases)

    def is_indexed(self, type_name: Optional[str]) -> bool:
        """Is this type (or any base) one of the indexed structures?"""
        if type_name is None:
            return False
        if type_name in INDEXED_STRUCTURES:
            return True
        return any(
            info.name in INDEXED_STRUCTURES or any(
                base in INDEXED_STRUCTURES for base in info.bases
            )
            for info in self._mro(type_name)
        )

    def attr_type(self, type_name: str, attr: str) -> Optional[str]:
        """Recorded type of ``<type_name instance>.<attr>``."""
        for info in self._mro(type_name):
            if attr in info.attrs:
                return info.attrs[attr]
            if attr in info.properties:
                return info.properties[attr]
        return None

    def method(self, type_name: str, name: str) -> Optional[FuncInfo]:
        """Resolve a method through the recorded bases."""
        for info in self._mro(type_name):
            if name in info.methods:
                return info.methods[name]
        return None

    def is_owner(self, module_key: str, type_name: str) -> bool:
        """May this module mutate ``type_name`` freely?  True for the
        defining module and for modules that construct instances."""
        for info in self._mro(type_name):
            if info.module == module_key:
                return True
        return module_key in self.constructed_in.get(type_name, set())


def _ann_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort bare type name from an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        head = _ann_name(node.value)
        if head in ("Optional", "Final", "ClassVar", "Annotated"):
            inner = node.slice
            if head == "Annotated" and isinstance(inner, ast.Tuple):
                inner = inner.elts[0]
            return _ann_name(inner)
        return head
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _ann_name(node.left)
        if left not in (None, "None"):
            return left
        return _ann_name(node.right)
    return None


def _ctor_name(value: ast.AST) -> Optional[str]:
    """Class-ish name when ``value`` is a bare constructor call."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id
    return None


def _module_key(path: str) -> str:
    return str(path).replace("\\", "/")


def _collect_function(node: ast.AST, is_method: bool) -> FuncInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    param_types: Dict[str, str] = {}
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = _ann_name(arg.annotation)
        if ann is not None:
            param_types[arg.arg] = ann
    return FuncInfo(
        name=node.name,
        params=tuple(names),
        param_types=param_types,
        returns=_ann_name(node.returns),
    )


def _collect_class(node: ast.ClassDef, module_key: str) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        module=module_key,
        bases=tuple(
            name for name in (_ann_name(base) for base in node.bases)
            if name is not None
        ),
    )
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        func = _collect_function(stmt, is_method=True)
        is_property = any(
            (isinstance(dec, ast.Name) and dec.id == "property")
            or (isinstance(dec, ast.Attribute) and dec.attr in
                ("getter", "cached_property"))
            for dec in stmt.decorator_list
        )
        if is_property and func.returns is not None:
            info.properties[stmt.name] = func.returns
        else:
            info.methods[stmt.name] = func
        # attribute types from `self.X = Ctor(...)` / `self.X: T = ...`
        for inner in ast.walk(stmt):
            if isinstance(inner, ast.AnnAssign) and isinstance(
                inner.target, ast.Attribute
            ) and isinstance(inner.target.value, ast.Name) and (
                inner.target.value.id == "self"
            ):
                ann = _ann_name(inner.annotation)
                if ann is not None:
                    info.attrs.setdefault(inner.target.attr, ann)
            elif isinstance(inner, ast.Assign):
                ctor = _ctor_name(inner.value)
                if ctor is None:
                    continue
                for target in inner.targets:
                    if isinstance(target, ast.Attribute) and isinstance(
                        target.value, ast.Name
                    ) and target.value.id == "self":
                        info.attrs.setdefault(target.attr, ctor)
    return info


def build_symbol_table(
    modules: Sequence[Tuple[str, str]]
) -> SymbolTable:
    """Pass 1: collect classes/signatures from ``(path, source)`` pairs.

    Unparseable sources are skipped — the per-file lint pass reports
    the syntax error in context.
    """
    symtab = SymbolTable()
    for path, source in modules:
        key = _module_key(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        class_names: List[str] = []
        func_names: List[str] = []
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = _collect_class(stmt, key)
                symtab.classes[stmt.name] = info
                class_names.append(stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symtab.functions[stmt.name] = _collect_function(
                    stmt, is_method=False
                )
                func_names.append(stmt.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                symtab.constructed_in.setdefault(
                    node.func.id, set()
                ).add(key)
        symtab.modules[key] = ModuleInfo(
            path=key,
            classes=tuple(class_names),
            functions=tuple(func_names),
        )
    return symtab


class _Scope:
    """One lexical scope: local types, RNG taints, function marker."""

    __slots__ = ("types", "tainted", "is_function")

    def __init__(self, is_function: bool) -> None:
        self.types: Dict[str, str] = {}
        self.tainted: Set[str] = set()
        self.is_function = is_function


class _DataflowVisitor(ast.NodeVisitor):
    """Pass 2: evaluate PRV011/012/013 over one module with the table."""

    def __init__(self, path: str, table: SymbolTable) -> None:
        self.path = path
        self.module_key = _module_key(path)
        self.table = table
        self.findings: List[DataflowFinding] = []
        self._scopes: List[_Scope] = [_Scope(is_function=False)]
        self._class_stack: List[str] = []
        self._epoch_safe_stack: List[bool] = []
        self._unordered_loops = 0
        self._is_rng_module = self.module_key.endswith(_RNG_MODULE_SUFFIX)

    # -- plumbing ------------------------------------------------------
    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(DataflowFinding(
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    def _bind(self, name: str, type_name: Optional[str]) -> None:
        if type_name is not None:
            self._scopes[-1].types[name] = type_name

    def _lookup(self, name: str) -> Optional[str]:
        for scope in reversed(self._scopes):
            if name in scope.types:
                return scope.types[name]
        return None

    def _taint(self, name: str) -> None:
        self._scopes[-1].tainted.add(name)

    def _is_tainted_name(self, name: str) -> bool:
        return any(name in scope.tainted for scope in self._scopes)

    # -- shallow type inference ----------------------------------------
    def _infer(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Attribute):
            base = self._infer(node.value)
            if base is not None:
                return self.table.attr_type(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in self.table.classes:
                    return func.id
                info = self.table.functions.get(func.id)
                if info is not None:
                    return info.returns
                return None
            if isinstance(func, ast.Attribute):
                base = self._infer(func.value)
                if base is not None:
                    method = self.table.method(base, func.attr)
                    if method is not None:
                        return method.returns
            return None
        return None

    # -- scope / function structure ------------------------------------
    def _enter_function(
        self, node: ast.AST
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._check_closure_capture(node)
        scope = _Scope(is_function=True)
        self._scopes.append(scope)
        if self._class_stack:
            args = node.args.posonlyargs + node.args.args
            if args and args[0].arg in ("self", "cls"):
                scope.types[args[0].arg] = self._class_stack[-1]
        for arg in (
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
        ):
            ann = _ann_name(arg.annotation)
            if ann is not None:
                scope.types[arg.arg] = ann
        self._epoch_safe_stack.append(self._calls_epoch_safe(node))

    def _exit_function(self) -> None:
        self._scopes.pop()
        self._epoch_safe_stack.pop()

    @staticmethod
    def _calls_epoch_safe(node: ast.AST) -> bool:
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name in EPOCH_SAFE_CALLS:
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._exit_function()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._exit_function()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    # -- PRV011: indexed-structure mutation ----------------------------
    def _indexed_chain_type(self, node: ast.AST) -> Optional[str]:
        """Deepest type in an attribute/subscript chain that is an
        indexed structure (``idx.class_ids[pos]`` → UsageClassIndex)."""
        current = node
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            current = current.value
            inferred = self._infer(current)
            if self.table.is_indexed(inferred):
                return inferred
        return None

    def _prv011_sanctioned(self, type_name: str) -> bool:
        if self.table.is_owner(self.module_key, type_name):
            return True
        if self._class_stack and self.table.is_indexed(
            self._class_stack[-1]
        ):
            return True
        return bool(self._epoch_safe_stack) and self._epoch_safe_stack[-1]

    def _check_indexed_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_indexed_store(element)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        type_name = self._indexed_chain_type(target)
        if type_name is None or self._prv011_sanctioned(type_name):
            return
        self._report(
            target, "PRV011",
            f"store into {type_name} state outside its maintenance "
            "path; the rebuild epoch never advances",
        )

    def _check_indexed_call(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in INDEX_MUTATORS
        ):
            return
        type_name = self._indexed_chain_type(func)
        if type_name is None or self._prv011_sanctioned(type_name):
            return
        self._report(
            node, "PRV011",
            f".{func.attr}() mutates {type_name} state outside its "
            "maintenance path; the rebuild epoch never advances",
        )

    # -- PRV012: RNG stream escape -------------------------------------
    def _is_generator_call(self, node: ast.AST) -> bool:
        """Is this expression ``<factory>.generator(...)``?"""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "generator"
        ):
            return False
        receiver = node.func.value
        inferred = self._infer(receiver)
        if inferred in RNG_FACTORY_TYPES:
            return True
        name = (
            receiver.id if isinstance(receiver, ast.Name)
            else receiver.attr if isinstance(receiver, ast.Attribute)
            else ""
        )
        return bool(RNG_PARAM_NAME.search(name))

    def _is_tainted_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return self._is_tainted_name(node.id)
        return self._is_generator_call(node)

    def _check_rng_escape_assign(self, node: ast.Assign) -> None:
        if self._is_rng_module or not self._is_tainted_expr(node.value):
            return
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._report(
                    target, "PRV012",
                    "keyed RNG generator stored on an attribute escapes "
                    "its draw site",
                )
            elif isinstance(target, ast.Name):
                if self._scopes[-1].is_function:
                    self._taint(target.id)
                else:
                    self._report(
                        target, "PRV012",
                        f"keyed RNG generator bound at module scope as "
                        f"{target.id}; every importer shares the stream",
                    )

    def _callee_param(
        self, node: ast.Call, arg_index: int
    ) -> Optional[str]:
        """Name of the parameter an argument lands on, if resolvable."""
        func = node.func
        info: Optional[FuncInfo] = None
        if isinstance(func, ast.Name):
            if func.id in self.table.classes:
                info = self.table.method(func.id, "__init__")
            else:
                info = self.table.functions.get(func.id)
        elif isinstance(func, ast.Attribute):
            base = self._infer(func.value)
            if base is not None:
                info = self.table.method(base, func.attr)
        if info is None or arg_index >= len(info.params):
            return None
        return info.params[arg_index]

    def _check_rng_escape_call(self, node: ast.Call) -> None:
        if self._is_rng_module:
            return
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            if not self._is_tainted_expr(arg):
                continue
            param = self._callee_param(node, index)
            if param is not None and not RNG_PARAM_NAME.search(param):
                self._report(
                    arg, "PRV012",
                    f"keyed RNG generator passed to parameter "
                    f"{param!r}, which does not signal RNG custody",
                )
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            if not self._is_tainted_expr(keyword.value):
                continue
            if not RNG_PARAM_NAME.search(keyword.arg):
                self._report(
                    keyword.value, "PRV012",
                    f"keyed RNG generator passed to parameter "
                    f"{keyword.arg!r}, which does not signal RNG custody",
                )

    def _check_closure_capture(self, node: ast.AST) -> None:
        """A nested function/lambda reading an enclosing-scope tainted
        name captures a keyed stream beyond its draw site."""
        if self._is_rng_module or not self._scopes[-1].is_function:
            return
        tainted = {
            name
            for scope in self._scopes if scope.is_function
            for name in scope.tainted
        }
        if not tainted:
            return
        flagged: Set[str] = set()
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Name)
                and isinstance(inner.ctx, ast.Load)
                and inner.id in tainted
                and inner.id not in flagged
            ):
                flagged.add(inner.id)
                self._report(
                    inner, "PRV012",
                    f"closure captures keyed RNG generator {inner.id}; "
                    "the stream outlives its draw site",
                )

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_closure_capture(node)
        # Lambda bodies get no new tracked scope: they cannot contain
        # assignments, so nothing below needs binding.
        self.generic_visit(node)

    # -- PRV013: accumulation-order hazard -----------------------------
    @staticmethod
    def _floaty_name(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(_FLOATY.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(_FLOATY.search(node.attr))
        return False

    @classmethod
    def _floaty_expr(cls, node: ast.AST) -> bool:
        if cls._floaty_name(node):
            return True
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return cls._floaty_expr(node.left) or cls._floaty_expr(
                node.right
            )
        if isinstance(node, ast.UnaryOp):
            return cls._floaty_expr(node.operand)
        if isinstance(node, ast.Call):
            return cls._floaty_name(node.func)
        return False

    @classmethod
    def _is_unordered_source(cls, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            if name in ("set", "frozenset"):
                return True
            if name in UNORDERED_PRODUCERS:
                return True
            if name in (
                "union", "intersection", "difference",
                "symmetric_difference",
            ) and isinstance(func, ast.Attribute):
                return cls._is_unordered_source(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return cls._is_unordered_source(node.left) or (
                cls._is_unordered_source(node.right)
            )
        return False

    def visit_For(self, node: ast.For) -> None:
        unordered = self._is_unordered_source(node.iter)
        if unordered:
            self._unordered_loops += 1
        self.generic_visit(node)
        if unordered:
            self._unordered_loops -= 1

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            self._unordered_loops > 0
            and isinstance(node.op, ast.Add)
            and (
                self._floaty_name(node.target)
                or self._floaty_expr(node.value)
            )
        ):
            self._report(
                node, "PRV013",
                "float accumulation inside an unordered loop; the fold "
                "order (and the last ULPs) depends on hash/completion "
                "order",
            )
        self._check_indexed_store(node.target)
        self.generic_visit(node)

    def _check_unordered_sum(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else ""
        )
        if name != "sum" or not node.args:
            return
        source = node.args[0]
        floaty = False
        unordered = False
        if isinstance(source, (ast.GeneratorExp, ast.ListComp)):
            unordered = any(
                self._is_unordered_source(comp.iter)
                for comp in source.generators
            )
            floaty = self._floaty_expr(source.elt)
        elif self._is_unordered_source(source):
            unordered = True
            floaty = True  # cannot see elements; assume reported metric
        if unordered and floaty:
            self._report(
                node, "PRV013",
                "sum() over an unordered source folds floats in "
                "hash/completion order; sort the stream or use "
                "math.fsum",
            )

    # -- statement dispatch --------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_rng_escape_assign(node)
        for target in node.targets:
            self._check_indexed_store(target)
        inferred = self._infer(node.value)
        if inferred is not None and not self._is_tainted_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._bind(target.id, inferred)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            ann = _ann_name(node.annotation)
            if ann is not None:
                self._bind(node.target.id, ann)
        if node.value is not None:
            self._check_indexed_store(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_indexed_call(node)
        self._check_rng_escape_call(node)
        self._check_unordered_sum(node)
        self.generic_visit(node)


def dataflow_findings(
    source: str, path: str, table: Optional[SymbolTable] = None
) -> List[DataflowFinding]:
    """Evaluate PRV011–PRV013 on one module.

    Args:
        source: the module text.
        path: its (display) path; used for owner-module exemptions.
        table: cross-module symbol table from :func:`build_symbol_table`
            — defaults to a single-file table over ``source`` alone.
    """
    if table is None:
        table = build_symbol_table([(path, source)])
    tree = ast.parse(source, filename=path)
    visitor = _DataflowVisitor(path, table)
    visitor.visit(tree)
    return visitor.findings
