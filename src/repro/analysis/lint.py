"""Domain-aware static linter for the reproduction (``repro lint``).

A single AST pass over ``src/repro`` enforcing the invariants the
paper's claims depend on.  Generic style is left to generic tools; every
rule here encodes a *domain* hazard:

========  =============================================================
code      rule
========  =============================================================
PRV001    unseeded global RNG use (``random.*`` / ``np.random.*``
          outside :mod:`repro.util.rng`) — breaks run-to-run
          reproducibility and the parallel runner's bit-identity
PRV002    float ``==`` / ``!=`` on capacity/utilization expressions —
          the codebase is fixed-point for exactly this reason
PRV003    iteration over an unordered ``set`` — ordering feeds the
          parallel runner and score-table keys, so it must be sorted
PRV004    mutable default argument — shared state across calls
PRV005    mutation of :class:`~repro.core.graph.ProfileGraph` /
          :class:`~repro.core.score_table.ScoreTable` outside their
          defining modules — the PR 1 memoization depends on them
          being effectively immutable
PRV006    bare ``except:`` — swallows ``KeyboardInterrupt`` and masks
          invariant violations
PRV007    public module without ``__all__`` — the public-API contract
          tests need an explicit export surface
PRV008    hot-path class without ``__slots__`` — instance dicts cost
          memory and attribute-typo safety on the allocation fast path
PRV009    wall-clock read (``time.time``/``monotonic``/``datetime.now``
          ...) or ``time.sleep`` inside simulation, fault-injection or
          testbed code — simulated time must come from the
          :class:`~repro.cluster.events.EventLoop` clock or an injected
          ``time_s``; wall time breaks bit-identical replay and
          checkpoint resume
PRV010    full-inventory read (``datacenter.machines``) inside a
          ``repro/cluster`` monitor-tick / serving-path function — the
          usage-class index maintains ``pms_used`` / ``used_machines``
          / ``healthy_machines`` precisely so the tick path never
          rediscovers fleet state with an O(n_machines) scan
PRV011    mutation of an indexed structure (``UsageClassIndex`` /
          ``SoAClassTable`` / ``FleetColumns``) outside its epoch-keyed
          maintenance path — memoized consumers keep serving stale
          class ids and score vectors (dataflow rule, see
          :mod:`repro.analysis.dataflow`)
PRV012    RNG stream escape — a generator from
          ``RngFactory.generator(*labels)`` stored on an attribute,
          bound at module scope, captured by a closure or passed to a
          non-RNG parameter leaks draws across keyed streams (dataflow
          rule)
PRV013    accumulation-order hazard — a float reduction over an
          unordered or completion-ordered iteration feeding a reported
          metric makes the last ULPs depend on hash seeds (dataflow
          rule)
PRV000    unused suppression — a ``# prv: disable=`` comment whose
          rule never fires on that line (reported so suppressions
          cannot rot; ``--strict-suppressions`` makes it fatal in CI)
========  =============================================================

PRV011–PRV013 are *dataflow* rules: they consult a cross-module symbol
table (:func:`repro.analysis.dataflow.build_symbol_table`) built over
every linted file, so ``lint_paths`` sees types defined in one module
and mutated in another.

Suppression: append ``# prv: disable=PRV002`` (comma-separate several
codes; anything after ``--`` is a free-form justification) to the
flagged line.  Module-level findings (PRV007) anchor at line 1, class
findings (PRV008) at the ``class`` statement.  A suppression whose rule
does not fire on its line is itself reported (PRV000, which cannot be
suppressed).
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.dataflow import (
    SymbolTable,
    build_symbol_table,
    dataflow_findings,
)

__all__ = [
    "Rule",
    "Finding",
    "RULES",
    "UNUSED_SUPPRESSION",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]

#: Code of the unused-suppression pseudo-rule.  Never suppressible.
UNUSED_SUPPRESSION = "PRV000"


@dataclass(frozen=True)
class Rule:
    """One lint rule: code, short name, what it catches, how to fix it."""

    code: str
    name: str
    summary: str
    hint: str


RULES: Tuple[Rule, ...] = (
    Rule(
        code="PRV001",
        name="unseeded-global-rng",
        summary="global RNG call outside repro.util.rng",
        hint="draw from RngFactory / np.random.default_rng(seed) instead",
    ),
    Rule(
        code="PRV002",
        name="float-equality",
        summary="== / != on a float-valued capacity or utilization "
                "expression",
        hint="compare quantized ints, use <=/>= guards, or math.isclose",
    ),
    Rule(
        code="PRV003",
        name="unordered-iteration",
        summary="iteration over an unordered set (determinism hazard)",
        hint="wrap in sorted(...) so downstream order is reproducible",
    ),
    Rule(
        code="PRV004",
        name="mutable-default-argument",
        summary="mutable default argument",
        hint="default to None and create the object inside the function",
    ),
    Rule(
        code="PRV005",
        name="immutable-mutation",
        summary="mutation of a ProfileGraph/ScoreTable outside its "
                "defining module",
        hint="treat graphs and score tables as immutable; build new ones",
    ),
    Rule(
        code="PRV006",
        name="bare-except",
        summary="bare except:",
        hint="catch a concrete exception type (or Exception at worst)",
    ),
    Rule(
        code="PRV007",
        name="missing-all",
        summary="public module without __all__",
        hint="declare the export surface with __all__ = [...]",
    ),
    Rule(
        code="PRV008",
        name="missing-slots",
        summary="hot-path class without __slots__",
        hint="add __slots__ = (...) listing the instance attributes",
    ),
    Rule(
        code="PRV009",
        name="wall-clock-in-simulation",
        summary="wall-clock read or sleep inside simulation/fault code",
        hint="use the EventLoop clock or the injected time_s; wall time "
             "breaks determinism and checkpoint resume",
    ),
    Rule(
        code="PRV010",
        name="machine-scan-in-tick-path",
        summary="O(n_machines) inventory scan inside a cluster tick-path "
                "function",
        hint="serve from the maintained usage-class index instead "
             "(indexed_machines() / used_machines() / healthy_machines())",
    ),
    Rule(
        code="PRV011",
        name="unindexed-mutation",
        summary="mutation of an indexed structure outside its "
                "epoch-keyed maintenance path",
        hint="mutate through the owning datacenter/index, or call "
             "refresh()/rebuild() so the epoch advances and memoized "
             "consumers invalidate",
    ),
    Rule(
        code="PRV012",
        name="rng-stream-escape",
        summary="keyed RNG generator escapes its draw site",
        hint="draw the generator where it is consumed (rng-named "
             "parameter or local); derive child streams with "
             "RngFactory.spawn()/child_seed() instead of sharing one",
    ),
    Rule(
        code="PRV013",
        name="accumulation-order-hazard",
        summary="float reduction over an unordered iteration feeding "
                "a reported metric",
        hint="sort the stream before folding, or use math.fsum for an "
             "order-insensitive sum",
    ),
    Rule(
        code=UNUSED_SUPPRESSION,
        name="unused-suppression",
        summary="# prv: disable= comment whose rule never fires on "
                "that line",
        hint="delete the stale suppression (or fix the code it was "
             "hiding)",
    ),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def rule(self) -> Rule:
        """The rule that produced this finding."""
        return RULES_BY_CODE[self.code]

    def render(self) -> str:
        """The canonical one-line report format."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message} (hint: {self.rule.hint})"
        )


# ----------------------------------------------------------------------
# Configuration: which modules get which extra scrutiny
# ----------------------------------------------------------------------
#: Modules whose classes sit on the allocation fast path and must use
#: ``__slots__``.  Keys are path suffixes relative to any source root.
HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro/core/profile.py",
    "repro/core/graph.py",
    "repro/core/score_table.py",
    "repro/core/permutations.py",
    "repro/cluster/machine.py",
    "repro/util/rng.py",
)

#: The modules allowed to mutate graph/table internals (their own).
IMMUTABLE_DEFINING_MODULES: Tuple[str, ...] = (
    "repro/core/graph.py",
    "repro/core/score_table.py",
)

#: The one module allowed to touch global RNG machinery.
RNG_MODULE = "repro/util/rng.py"

#: Path fragments marking *simulated-time* code, where any wall-clock
#: read is a determinism bug (PRV009).  Matched as substrings, so whole
#: packages are covered; the experiment runner (``repro/experiments/``)
#: is deliberately outside the scope — its retry backoff legitimately
#: sleeps on the wall clock.
DETERMINISM_SCOPES: Tuple[str, ...] = (
    "repro/cluster/",
    "repro/faults/",
    "repro/testbed/",
)

#: ``time.<func>`` calls that read (or wait on) the wall clock.
WALL_CLOCK_TIME_FUNCS: Set[str] = {
    "sleep", "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
    "localtime", "gmtime", "ctime",
}

#: ``datetime.<method>`` constructors that capture the wall clock.
WALL_CLOCK_DATETIME_METHODS: Set[str] = {"now", "utcnow", "today"}

#: ``np.random.<attr>`` accesses that are fine anywhere: they construct
#: explicitly seeded generators or are types, not draws from the global
#: state.
SEEDED_RNG_ATTRS: Set[str] = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "RandomState",
}

#: Identifier fragments marking a float-valued domain quantity.
FLOATY_NAME = re.compile(
    r"(util|utilization|fraction|rate|ratio|energy|kwh|score|weight|"
    r"damping|epsilon|threshold|seconds|cost|watts|load_factor)",
    re.IGNORECASE,
)

#: Methods whose call on an attribute of a graph/table mutates it.
MUTATING_METHODS: Set[str] = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
}

#: Names that syntactically denote a profile graph or score table.
IMMUTABLE_VALUE_NAME = re.compile(r"(^|_)(graph|table|tables)$")

#: Functions on the ``repro/cluster`` monitor-tick / online-serving path
#: where a full-inventory read (PRV010) would reintroduce the per-tick
#: O(n_machines) cost the usage-class index removed.
TICK_PATH_FUNCS: Set[str] = {
    "_on_tick", "_tick_columnar", "_tick_scan", "_relieve",
    "_consolidate_underloaded", "_destination_candidates", "_healthy",
    "_replace_pending", "snapshot", "overloaded",
}

#: Identifiers that syntactically denote the datacenter object whose
#: ``machines`` property materializes the full inventory.
DATACENTER_NAMES: Set[str] = {"dc", "_dc", "datacenter", "_datacenter"}

#: Modules exempt from PRV007 (no public surface by design).
ALL_EXEMPT_MODULES: Tuple[str, ...] = ("__main__.py",)

_SUPPRESS = re.compile(r"#\s*prv:\s*disable=([A-Za-z0-9, ]+)")


def _module_key(path: str) -> str:
    """Normalize a path for suffix matching against the module lists."""
    return str(path).replace("\\", "/")


def _matches(path: str, suffixes: Iterable[str]) -> bool:
    key = _module_key(path)
    return any(key.endswith(suffix) for suffix in suffixes)


def _in_scope(path: str, fragments: Iterable[str]) -> bool:
    """Substring matching for package-wide scopes (cf. suffix matching
    in :func:`_matches`, which pins down individual modules)."""
    key = _module_key(path)
    return any(fragment in key for fragment in fragments)


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line -> set of codes disabled on that line via ``# prv: disable=``.

    Parsed from the token stream so string literals containing the
    marker do not suppress anything.
    """
    disabled: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS.search(token.string)
            if not match:
                continue
            codes = {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
            disabled.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenizeError:
        pass
    return disabled


class _Visitor(ast.NodeVisitor):
    """Single-pass rule evaluation over one module's AST."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        # import-name bookkeeping for PRV001
        self._random_aliases: Set[str] = set()      # `import random as r`
        self._numpy_aliases: Set[str] = set()       # `import numpy as np`
        self._np_random_aliases: Set[str] = set()   # `from numpy import random`
        self._from_random_names: Set[str] = set()   # `from random import x`
        # import-name bookkeeping for PRV009
        self._time_aliases: Set[str] = set()        # `import time as t`
        self._from_time_names: Dict[str, str] = {}  # local -> time.<orig>
        self._datetime_mod_aliases: Set[str] = set()   # `import datetime`
        self._datetime_cls_aliases: Set[str] = set()   # `from datetime import datetime`
        self._is_rng_module = _matches(path, (RNG_MODULE,))
        self._is_hot_path = _matches(path, HOT_PATH_MODULES)
        self._may_mutate = _matches(path, IMMUTABLE_DEFINING_MODULES)
        self._is_sim_scope = _in_scope(path, DETERMINISM_SCOPES)
        self._is_cluster_scope = _in_scope(path, ("repro/cluster/",))
        # enclosing-function stack for PRV010
        self._func_stack: List[str] = []

    # -- helpers -------------------------------------------------------
    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    # -- imports (PRV001 bookkeeping) ----------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if alias.name == "random":
                self._random_aliases.add(name)
                if not self._is_rng_module:
                    self._report(
                        node, "PRV001",
                        "stdlib `random` imported; all randomness must "
                        "flow through repro.util.rng",
                    )
            elif alias.name in ("numpy", "numpy.random"):
                if alias.name == "numpy.random":
                    self._np_random_aliases.add(name)
                else:
                    self._numpy_aliases.add(name)
            elif alias.name == "time":
                self._time_aliases.add(name)
            elif alias.name == "datetime":
                self._datetime_mod_aliases.add(name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and not self._is_rng_module:
            names = ", ".join(alias.name for alias in node.names)
            self._from_random_names.update(
                alias.asname or alias.name for alias in node.names
            )
            self._report(
                node, "PRV001",
                f"`from random import {names}`; all randomness must flow "
                "through repro.util.rng",
            )
        elif node.module in ("numpy", "numpy.random"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "random":
                    self._np_random_aliases.add(alias.asname or alias.name)
                elif (
                    node.module == "numpy.random"
                    and alias.name not in SEEDED_RNG_ATTRS
                    and not self._is_rng_module
                ):
                    self._report(
                        node, "PRV001",
                        f"`from numpy.random import {alias.name}` draws "
                        "from the unseeded global state",
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_FUNCS:
                    self._from_time_names[alias.asname or alias.name] = (
                        alias.name
                    )
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_cls_aliases.add(
                        alias.asname or alias.name
                    )
        self.generic_visit(node)

    # -- calls: PRV001 + PRV005 + PRV009 -------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng_call(node)
        self._check_mutating_call(node)
        self._check_wall_clock_call(node)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call) -> None:
        if self._is_rng_module:
            return
        func = node.func
        # random.X(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_aliases
        ):
            self._report(
                node, "PRV001",
                f"call to stdlib random.{func.attr}() uses the unseeded "
                "global RNG",
            )
            return
        # <np>.random.X(...) or <nprandom_alias>.X(...)
        if isinstance(func, ast.Attribute) and func.attr not in SEEDED_RNG_ATTRS:
            target = func.value
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "random"
                and isinstance(target.value, ast.Name)
                and target.value.id in self._numpy_aliases
            ) or (
                isinstance(target, ast.Name)
                and target.id in self._np_random_aliases
            ):
                self._report(
                    node, "PRV001",
                    f"call to np.random.{func.attr}() uses the unseeded "
                    "global NumPy RNG",
                )
        # bare name imported from random
        if (
            isinstance(func, ast.Name)
            and func.id in self._from_random_names
        ):
            self._report(
                node, "PRV001",
                f"call to {func.id}() (stdlib random) uses the unseeded "
                "global RNG",
            )

    def _check_mutating_call(self, node: ast.Call) -> None:
        if self._may_mutate:
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            return
        base = self._immutable_base(func.value)
        if base is not None:
            self._report(
                node, "PRV005",
                f"{base}.{func.attr}() mutates a memoized-immutable "
                "object",
            )

    def _check_wall_clock_call(self, node: ast.Call) -> None:
        if not self._is_sim_scope:
            return
        func = node.func
        # time.sleep(...) / time.monotonic() / ...
        if (
            isinstance(func, ast.Attribute)
            and func.attr in WALL_CLOCK_TIME_FUNCS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ):
            self._report(
                node, "PRV009",
                f"time.{func.attr}() reads the wall clock inside "
                "simulated-time code",
            )
            return
        # sleep(...) imported via `from time import sleep`
        if (
            isinstance(func, ast.Name)
            and func.id in self._from_time_names
        ):
            self._report(
                node, "PRV009",
                f"{func.id}() (time.{self._from_time_names[func.id]}) "
                "reads the wall clock inside simulated-time code",
            )
            return
        # datetime.now() / datetime.datetime.utcnow() / date.today()
        if (
            isinstance(func, ast.Attribute)
            and func.attr in WALL_CLOCK_DATETIME_METHODS
        ):
            target = func.value
            from_class = (
                isinstance(target, ast.Name)
                and target.id in self._datetime_cls_aliases
            )
            from_module = (
                isinstance(target, ast.Attribute)
                and target.attr in ("datetime", "date")
                and isinstance(target.value, ast.Name)
                and target.value.id in self._datetime_mod_aliases
            )
            if from_class or from_module:
                self._report(
                    node, "PRV009",
                    f"{ast.unparse(func)}() captures the wall clock "
                    "inside simulated-time code",
                )

    @staticmethod
    def _immutable_base(node: ast.AST) -> Optional[str]:
        """Dotted name when ``node`` reads into a graph/table, else None.

        Matches ``graph.profiles``-style attribute reads whose *root
        identifier* names a graph or table (``graph``, ``score_table``,
        ``tables`` ...), including ``self._graph.x`` chains.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
        else:
            return None
        dotted = ".".join(reversed(parts))
        for part in parts:
            if IMMUTABLE_VALUE_NAME.search(part):
                return dotted
        return None

    # -- assignments: PRV005 -------------------------------------------
    def _check_store_target(self, target: ast.AST) -> None:
        if self._may_mutate:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element)
            return
        if isinstance(target, ast.Subscript):
            # A bare name like `tables[shape] = table` is the idiom for
            # *building* a dict of tables; only an attribute chain
            # (`table._scores[u] = s`) reaches into the object itself.
            if not isinstance(target.value, ast.Attribute):
                return
            base = self._immutable_base(target.value)
            if base is not None:
                self._report(
                    target, "PRV005",
                    f"item assignment into {base}[...] mutates a "
                    "memoized-immutable object",
                )
            return
        if isinstance(target, ast.Attribute):
            base = self._immutable_base(target.value)
            if base is not None:
                self._report(
                    target, "PRV005",
                    f"attribute assignment {base}.{target.attr} mutates "
                    "a memoized-immutable object",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    # -- comparisons: PRV002 -------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            floaty = next(
                (o for o in operands if self._is_floaty(o)), None
            )
            if floaty is not None:
                self._report(
                    node, "PRV002",
                    "float equality on a capacity/utilization expression "
                    f"({ast.dump(floaty)[:40]}...)"
                    if not isinstance(floaty, ast.Constant)
                    else f"float equality against literal {floaty.value!r}",
                )
        self.generic_visit(node)

    @classmethod
    def _is_floaty(cls, node: ast.AST) -> bool:
        """Heuristic: does this expression produce a float-valued domain
        quantity (utilization, rate, energy ...)?"""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if isinstance(node, ast.BinOp):
            return cls._is_floaty(node.left) or cls._is_floaty(node.right)
        if isinstance(node, ast.UnaryOp):
            return cls._is_floaty(node.operand)
        if isinstance(node, ast.Name):
            return bool(FLOATY_NAME.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(FLOATY_NAME.search(node.attr))
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else ""
            )
            return bool(FLOATY_NAME.search(name))
        return False

    # -- iteration: PRV003 ---------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_comprehension_generators(
        self, generators: Sequence[ast.comprehension]
    ) -> None:
        for comp in generators:
            self._check_iterable(comp.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    def _check_iterable(self, node: ast.AST) -> None:
        if self._is_unordered(node):
            self._report(
                node, "PRV003",
                "iterating an unordered set; order leaks into results",
            )

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # set algebra producing sets: a.union(b), a.intersection(b) ...
            if node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference",
            ):
                return _Visitor._is_unordered(node.func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return _Visitor._is_unordered(node.left) or _Visitor._is_unordered(
                node.right
            )
        return False

    # -- defaults: PRV004 ----------------------------------------------
    def _check_defaults(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if not mutable and isinstance(default, ast.Call):
                func = default.func
                mutable = (
                    isinstance(func, ast.Name)
                    and func.id in ("list", "dict", "set", "bytearray")
                )
            if mutable:
                self._report(
                    default, "PRV004",
                    f"mutable default argument in {node.name}()",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    # -- inventory scans: PRV010 ---------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._is_cluster_scope
            and isinstance(node.ctx, ast.Load)
            and node.attr in ("machines", "_machines")
            and any(name in TICK_PATH_FUNCS for name in self._func_stack)
            and self._names_datacenter(node.value)
        ):
            self._report(
                node, "PRV010",
                f"tick-path read of .{node.attr} materializes the full "
                "PM inventory every tick",
            )
        self.generic_visit(node)

    @staticmethod
    def _names_datacenter(node: ast.AST) -> bool:
        """Does this expression syntactically denote the datacenter?"""
        if isinstance(node, ast.Name):
            return node.id in DATACENTER_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in DATACENTER_NAMES
        return False

    # -- exception handling: PRV006 ------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "PRV006",
                "bare except: catches SystemExit/KeyboardInterrupt too",
            )
        self.generic_visit(node)

    # -- classes: PRV008 -----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_hot_path and not self._exempt_class(node):
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
                for stmt in node.body
            )
            if not has_slots:
                self._report(
                    node, "PRV008",
                    f"hot-path class {node.name} has no __slots__",
                )
        self.generic_visit(node)

    @staticmethod
    def _exempt_class(node: ast.ClassDef) -> bool:
        """Dataclasses, enums, exceptions and protocols are exempt:
        ``@dataclass`` manages its own layout (slots need py>=3.10) and
        the rest are not allocation-rate classes."""
        for decorator in node.decorator_list:
            name = decorator
            if isinstance(name, ast.Call):
                name = name.func
            if isinstance(name, ast.Attribute) and name.attr == "dataclass":
                return True
            if isinstance(name, ast.Name) and name.id == "dataclass":
                return True
        for base in node.bases:
            text = ast.unparse(base)
            if re.search(
                r"(Enum|Exception|Error|Protocol|NamedTuple|TypedDict)",
                text,
            ):
                return True
        return False


def _module_findings(tree: ast.Module, path: str) -> List[Finding]:
    """Module-level rules (PRV007)."""
    if _matches(path, ALL_EXEMPT_MODULES):
        return []
    name = Path(path).name
    if name.startswith("_") and name not in ("__init__.py",):
        return []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in stmt.targets
        ):
            return []
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ) and stmt.target.id == "__all__":
            return []
    # Modules with no definitions at all (pure scripts) are still public.
    return [Finding(
        path=path, line=1, col=0, code="PRV007",
        message=f"public module {name} does not declare __all__",
    )]


def _stale_suppressions(
    disabled: Dict[int, Set[str]], raw: Sequence[Finding], path: str
) -> List[Finding]:
    """PRV000 findings for ``# prv: disable=`` comments that hide
    nothing: the named rule never fires on that line (or the code is
    unknown)."""
    fired = {(f.line, f.code) for f in raw}
    stale: List[Finding] = []
    for line in sorted(disabled):
        for code in sorted(disabled[line]):
            if code == UNUSED_SUPPRESSION:
                message = (
                    f"{UNUSED_SUPPRESSION} (unused-suppression) cannot "
                    "be suppressed"
                )
            elif code not in RULES_BY_CODE:
                message = f"suppression names unknown rule {code}"
            elif (line, code) in fired:
                continue
            else:
                message = (
                    f"suppressed rule {code} "
                    f"({RULES_BY_CODE[code].name}) never fires on this "
                    "line"
                )
            stale.append(Finding(
                path=path, line=line, col=0,
                code=UNUSED_SUPPRESSION, message=message,
            ))
    return stale


def lint_source(
    source: str,
    path: str = "<string>",
    table: Optional[SymbolTable] = None,
) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings.

    ``table`` supplies cross-module type facts for the dataflow rules
    (PRV011–PRV013); without one, a single-file table is built from
    ``source`` alone, so only locally-visible types participate.
    """
    tree = ast.parse(source, filename=path)
    visitor = _Visitor(path)
    visitor.visit(tree)
    flow = [
        Finding(path=path, line=f.line, col=f.col,
                code=f.code, message=f.message)
        for f in dataflow_findings(source, path, table)
    ]
    raw = visitor.findings + flow + _module_findings(tree, path)
    disabled = _suppressions(source)
    kept = [
        f for f in raw
        if f.code not in disabled.get(f.line, set())
    ]
    kept.extend(_stale_suppressions(disabled, raw, path))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return sorted(set(files))


def lint_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    Builds one cross-module symbol table over the whole file set first,
    so the dataflow rules see types defined in one module and used in
    another.
    """
    sources = [
        (str(file), file.read_text()) for file in iter_python_files(paths)
    ]
    table = build_symbol_table(sources)
    findings: List[Finding] = []
    for path, source in sources:
        findings.extend(lint_source(source, path, table))
    return findings
