"""The REP rule pack: the repo's determinism & concurrency contracts.

Each rule mechanises an invariant a previous PR established by hand:

========  =========================================================
REP001    fixed-order reductions in row-deterministic modules (PR 5)
REP002    no unseeded RNG / wall-clock in deterministic modules
REP003    every created SharedMemory segment must reach unlink (PR 5)
REP004    float64 sum channels in the boosting engine (PR 1)
REP005    memo writes only under the owning lock (PR 4)
REP006    no unpicklable callables handed to the pools (PR 4/5)
REP007    no unsorted set/filesystem iteration feeding artefacts
========  =========================================================

Rules are syntactic: they fire on positive evidence in the AST and are
silenced case-by-case with a justified ``# repro: allow[...]`` pragma
(see :mod:`repro.analysis.pragmas`).  False negatives are possible
(aliased callables, cross-function dataflow); the rules are a gate on
the repo's real failure modes, not a type system.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import (
    DETERMINISTIC,
    FLOAT64_SUMS,
    ROW_DETERMINISTIC,
)
from repro.analysis.rules import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    register,
)

__all__ = ["POOL_ENTRY_POINTS"]

#: numpy-level reductions whose evaluation order depends on operand
#: shape (BLAS dispatch picks different blockings for different batch
#: sizes — the PR 5 row-determinism hazard).
_MATMUL_FUNCS = frozenset(
    {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}
)
_SUM_ATTRS = frozenset({"sum", "nansum"})


def _has_fixed_axis(call: ast.Call, axis_position: int) -> bool:
    """True when a reduction call pins its axis (kwarg or positional)."""
    for kw in call.keywords:
        if kw.arg == "axis":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
    return len(call.args) > axis_position


@register
class BatchShapeReductionRule(Rule):
    """REP001: reductions must not depend on the batch shape."""

    id = "REP001"
    title = "batch-shape-dependent reduction in a row-deterministic module"
    tags = frozenset({ROW_DETERMINISTIC})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        np_roots = ctx.roots("numpy")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self.finding(
                    ctx,
                    node,
                    "`@` matmul evaluates in a batch-shape-dependent order; "
                    "use an elementwise product + fixed-axis sum "
                    "(row-deterministic module)",
                )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                yield from self._check_call(ctx, node, np_roots)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, np_roots: set[str]
    ) -> Iterator[Finding]:
        func = node.func
        base = dotted_name(func.value)
        if func.attr in _MATMUL_FUNCS and base in np_roots:
            yield self.finding(
                ctx,
                node,
                f"np.{func.attr} evaluates in a batch-shape-dependent order; "
                "replace with a fixed-order reduction "
                "(row-deterministic module)",
            )
        elif func.attr == "dot":
            yield self.finding(
                ctx,
                node,
                ".dot() evaluates in a batch-shape-dependent order; "
                "replace with a fixed-order reduction "
                "(row-deterministic module)",
            )
        elif func.attr in _SUM_ATTRS:
            axis_position = 1 if base in np_roots else 0
            if not _has_fixed_axis(node, axis_position):
                yield self.finding(
                    ctx,
                    node,
                    f".{func.attr}() without a fixed axis is a full "
                    "reduction over the batch; pin axis= "
                    "(row-deterministic module)",
                )


#: np.random constructors that are fine *when given a seed*.
_NP_RANDOM_SEEDED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "RandomState",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)
_NP_RANDOM_SEED_REQUIRED = frozenset(
    {"default_rng", "RandomState", "SeedSequence"}
)


@register
class UnseededRandomnessRule(Rule):
    """REP002: no module-level RNG or wall-clock values in engine code."""

    id = "REP002"
    title = "unseeded RNG or wall-clock call in a deterministic module"
    tags = frozenset({DETERMINISTIC})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        np_roots = ctx.roots("numpy")
        random_roots = ctx.roots("random")
        time_roots = ctx.roots("time")
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            message = self._diagnose(
                node, parts, np_roots, random_roots, time_roots
            )
            if message is not None:
                yield self.finding(ctx, node, message)

    def _diagnose(
        self,
        node: ast.Call,
        parts: list[str],
        np_roots: set[str],
        random_roots: set[str],
        time_roots: set[str],
    ) -> str | None:
        no_args = not node.args and not node.keywords
        if len(parts) >= 3 and parts[0] in np_roots and parts[1] == "random":
            fn = parts[2]
            if fn not in _NP_RANDOM_SEEDED:
                return (
                    f"np.random.{fn} draws from the module-level global "
                    "RNG; thread an explicit np.random.default_rng(seed)"
                )
            if fn in _NP_RANDOM_SEED_REQUIRED and no_args:
                return (
                    f"np.random.{fn}() without a seed pulls OS entropy; "
                    "pass an explicit seed"
                )
        elif len(parts) == 2 and parts[0] in random_roots:
            fn = parts[1]
            if fn == "Random":
                if no_args:
                    return "random.Random() without a seed is nondeterministic"
            elif fn != "getstate":
                return (
                    f"random.{fn} uses the module-level global RNG; "
                    "use a seeded random.Random(seed) instance"
                )
        elif len(parts) == 2 and parts[0] in time_roots:
            fn = parts[1]
            if fn in ("time", "time_ns"):
                return (
                    "time.time() is wall-clock state; deterministic code "
                    "must not fold the current time into its outputs"
                )
            if fn in ("gmtime", "localtime") and no_args:
                return (
                    f"time.{fn}() without an argument reads the wall "
                    "clock; pass an explicit timestamp"
                )
        elif parts[-1] in ("now", "utcnow") and "datetime" in parts:
            return (
                f"datetime.{parts[-1]}() reads the wall clock; "
                "deterministic code must not fold the current time "
                "into its outputs"
            )
        elif parts[-1] == "today" and (
            "date" in parts or "datetime" in parts
        ):
            return "date.today() reads the wall clock"
        return None


@register
class SharedMemoryLifecycleRule(Rule):
    """REP003: every created segment must reach unlink on every path."""

    id = "REP003"
    title = "SharedMemory(create=True) without a guaranteed unlink path"
    tags = None  # structural hazard: applies everywhere

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] != "SharedMemory":
                continue
            if not any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                continue
            if not self._unlink_guaranteed(ctx, node):
                yield self.finding(
                    ctx,
                    node,
                    "SharedMemory(create=True) must reach unlink() on an "
                    "always-executed path (finally block or context "
                    "manager), or the segment leaks when the owner dies",
                )

    def _unlink_guaranteed(self, ctx: FileContext, node: ast.Call) -> bool:
        scope: ast.AST = ctx.tree
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.withitem):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = ancestor
                break
        # The idiomatic shape creates the segment *before* entering the
        # try (nothing to clean up if creation itself fails), so accept
        # any finally-unlink in the enclosing function, nested or not.
        return any(
            isinstance(sub, ast.Try) and self._finally_unlinks(sub)
            for sub in ast.walk(scope)
        )

    @staticmethod
    def _finally_unlinks(try_node: ast.Try) -> bool:
        for stmt in try_node.finalbody:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "unlink"
                ):
                    return True
                name = dotted_name(sub.func)
                if name is not None and name.split(".")[-1] in (
                    "release_shared",
                    "close",
                ):
                    return True
        return False


_SUM_CALL_ATTRS = frozenset({"sum", "cumsum", "nansum"})


def _dtype_kind(node: ast.AST) -> str:
    """Classify a dtype expression: 'float64', 'float32', or 'variable'."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "float64" if "float64" in node.value else node.value
    name = dotted_name(node)
    if name is not None:
        leaf = name.split(".")[-1]
        if leaf in ("float64", "double"):
            return "float64"
        if leaf == "float":  # builtin float is IEEE double
            return "float64"
        if leaf in ("float32", "single", "float16", "half"):
            return "float32"
    return "variable"


@register
class FloatAccumulationRule(Rule):
    """REP004: sum channels must provably accumulate in float64."""

    id = "REP004"
    title = "sum over a buffer not provably float64 in a sum-channel module"
    tags = frozenset({FLOAT64_SUMS})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        np_roots = ctx.roots("numpy")
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node, np_roots)

    def _check_function(
        self, ctx: FileContext, func: ast.AST, np_roots: set[str]
    ) -> Iterator[Finding]:
        suspects = self._suspect_buffers(func)
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            operand = self._sum_operand(node, np_roots)
            if operand is None:
                continue
            accumulator = self._accumulator_kind(node)
            if accumulator in ("float32", "variable"):
                # The call's own dtype argument sets the accumulator,
                # whatever the operand holds.
                yield self.finding(
                    ctx,
                    node,
                    f"accumulating in a {accumulator} dtype; sum channels "
                    "in this module must be float64",
                )
            elif (
                isinstance(operand, ast.Name)
                and operand.id in suspects
                and accumulator != "float64"
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"accumulating {operand.id!r} ({suspects[operand.id]}); "
                    "sum channels in this module must be float64 "
                    "(pass dtype=np.float64 or allocate the buffer as "
                    "float64)",
                )

    @staticmethod
    def _suspect_buffers(func: ast.AST) -> dict[str, str]:
        """Local names holding buffers with non-float64 dtype evidence."""
        suspects: dict[str, str] = {}
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            evidence = FloatAccumulationRule._dtype_evidence(node.value)
            if evidence is not None:
                suspects[target.id] = evidence
        return suspects

    @staticmethod
    def _dtype_evidence(value: ast.AST) -> str | None:
        for sub in ast.walk(value):
            if not isinstance(sub, ast.Call):
                continue
            if (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "astype"
                and sub.args
                and _dtype_kind(sub.args[0]) == "float32"
            ):
                return "cast to float32"
            for kw in sub.keywords:
                if kw.arg != "dtype":
                    continue
                kind = _dtype_kind(kw.value)
                if kind == "float32":
                    return "allocated as float32"
                if kind == "variable":
                    return "dtype is a runtime value, not provably float64"
        return None

    @staticmethod
    def _sum_operand(node: ast.Call, np_roots: set[str]) -> ast.AST | None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        name = dotted_name(func)
        parts = name.split(".") if name else []
        if len(parts) >= 2 and parts[0] in np_roots:
            if parts[-1] in _SUM_CALL_ATTRS or parts[-2:] in (
                ["add", "reduce"],
                ["add", "reduceat"],
            ):
                return node.args[0] if node.args else None
            return None
        if func.attr in _SUM_CALL_ATTRS:
            return func.value
        return None

    @staticmethod
    def _accumulator_kind(node: ast.Call) -> str | None:
        """The kind of the call's ``dtype=`` argument, if it has one."""
        for kw in node.keywords:
            if kw.arg == "dtype":
                return _dtype_kind(kw.value)
        return None


#: Method calls that mutate a container in place.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


@register
class LockDisciplineRule(Rule):
    """REP005: private memo attributes are written only under the lock."""

    id = "REP005"
    title = "memo attribute written outside the owning lock"
    tags = None  # structural hazard: applies everywhere

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        lock_attrs = self._lock_attributes(cls)
        if not lock_attrs:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction is single-threaded by contract
            for node in ast.walk(method):
                attr = self._mutated_private_attr(node)
                if attr is None or attr in lock_attrs:
                    continue
                if not self._under_lock(ctx, node, lock_attrs):
                    yield self.finding(
                        ctx,
                        node,
                        f"write to self.{attr} outside "
                        f"'with self.{sorted(lock_attrs)[0]}:' — this class "
                        "guards its memos with a lock, so every mutation "
                        "must hold it",
                    )

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef) -> frozenset[str]:
        locks: set[str] = set()
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(node.value, ast.Call):
                name = dotted_name(node.value.func)
                if name is not None and name.split(".")[-1] in (
                    "Lock",
                    "RLock",
                ):
                    locks.add(target.attr)
        return frozenset(locks)

    @staticmethod
    def _mutated_private_attr(node: ast.AST) -> str | None:
        """The private self-attribute ``node`` mutates, if any."""
        target: ast.AST | None = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    tgt = tgt.value
                if isinstance(tgt, ast.Attribute):
                    target = tgt
                    break
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Attribute)
        ):
            target = node.func.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr.startswith("_")
        ):
            return target.attr
        return None

    @staticmethod
    def _under_lock(
        ctx: FileContext, node: ast.AST, lock_attrs: frozenset[str]
    ) -> bool:
        guards = {f"self.{attr}" for attr in lock_attrs}
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    if dotted_name(item.context_expr) in guards:
                        return True
        return False


#: Entry points whose callable arguments must be picklable to reach the
#: process backend (first positional argument, plus the ``state`` kwarg).
POOL_ENTRY_POINTS = frozenset({"parallel_map", "scatter", "ShardedPool"})


@register
class UnpicklablePoolUnitRule(Rule):
    """REP006: pools silently fall back to serial on unpicklable units."""

    id = "REP006"
    title = "lambda/closure handed to a parallel pool entry point"
    tags = None  # structural hazard: applies everywhere

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        local_names: dict[ast.AST, frozenset[str]] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            entry = self._entry_point(node)
            if entry is None:
                continue
            scope = self._enclosing_scope(ctx, node)
            if scope not in local_names:
                local_names[scope] = self._locally_defined(scope)
            local_callables = local_names[scope]
            for arg in self._callable_args(node, entry):
                if isinstance(arg, ast.Lambda):
                    yield self.finding(
                        ctx,
                        node,
                        f"lambda passed to {entry} cannot be pickled: the "
                        "pool silently degrades to serial execution; use "
                        "a module-level function (or pragma the "
                        "documented serial fallback)",
                    )
                elif (
                    isinstance(arg, ast.Name) and arg.id in local_callables
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{arg.id!r} is defined inside the enclosing "
                        f"function, so {entry} cannot pickle it and "
                        "silently degrades to serial execution; move it "
                        "to module level (or pragma the documented "
                        "serial fallback)",
                    )

    @staticmethod
    def _enclosing_scope(ctx: FileContext, node: ast.AST) -> ast.AST:
        for ancestor in ctx.ancestors(node):
            if isinstance(
                ancestor, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return ancestor
        return ctx.tree

    @staticmethod
    def _locally_defined(scope: ast.AST) -> frozenset[str]:
        """Nested function defs and lambda bindings of a function scope."""
        if isinstance(scope, ast.Module):
            # Module-level defs *are* picklable; only lambda bindings.
            return frozenset(
                stmt.targets[0].id
                for stmt in scope.body
                if isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Lambda)
            )
        names: set[str] = set()
        for stmt in ast.walk(scope):
            if stmt is scope:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Lambda)
            ):
                names.add(stmt.targets[0].id)
        return frozenset(names)

    @staticmethod
    def _entry_point(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in POOL_ENTRY_POINTS:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in POOL_ENTRY_POINTS:
            return func.attr
        return None

    @staticmethod
    def _callable_args(node: ast.Call, entry: str) -> list[ast.AST]:
        args: list[ast.AST] = []
        if entry in ("parallel_map", "scatter") and node.args:
            args.append(node.args[0])
        for kw in node.keywords:
            if kw.arg == "state":
                args.append(kw.value)
        return args


_LISTING_FUNCS = frozenset({"os.listdir", "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that syntactically produce a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class NondeterministicIterationRule(Rule):
    """REP007: unordered iteration must be sorted before it feeds output."""

    id = "REP007"
    title = "nondeterministic iteration order in a deterministic module"
    tags = frozenset({DETERMINISTIC})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self.finding(
                    ctx,
                    node.iter,
                    "iterating a set: string hashes (and therefore set "
                    "order) vary across processes; wrap in sorted(...)",
                )
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            "comprehension over a set: iteration order "
                            "varies across processes; wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_listing(ctx, node)

    def _check_listing(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        is_listing = False
        what = None
        if name is not None:
            leaf_roots = {
                "os": ctx.roots("os"),
                "glob": ctx.roots("glob"),
            }
            parts = name.split(".")
            if len(parts) == 2 and (
                (parts[0] in leaf_roots["os"] and parts[1] == "listdir")
                or (
                    parts[0] in leaf_roots["glob"]
                    and parts[1] in ("glob", "iglob")
                )
            ):
                is_listing, what = True, name
        if (
            not is_listing
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
        ):
            is_listing, what = True, f".{node.func.attr}()"
        if not is_listing:
            return
        for ancestor in ctx.ancestors(node):
            if (
                isinstance(ancestor, ast.Call)
                and isinstance(ancestor.func, ast.Name)
                and ancestor.func.id == "sorted"
            ):
                return
        yield self.finding(
            ctx,
            node,
            f"{what} returns entries in filesystem order, which is not "
            "deterministic across hosts; wrap in sorted(...)",
        )
