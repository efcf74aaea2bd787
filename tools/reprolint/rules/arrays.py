"""RL9xx — ndarray shape/dtype abstract interpretation.

These rules consume the :mod:`tools.reprolint.shapes` domain (via the
lazily built ``ctx.shapes()`` analysis): symbolic/literal dimension
tracking with broadcasting and matmul transfer functions, a float64-
centred dtype lattice, and ``# shape:`` annotation summaries applied
interprocedurally over the ProjectIndex call graph.

The error rules (RL900–RL902) only fire on *provable* facts — a
literal-vs-literal dimension conflict, a rank change both sides of
which demonstrably contribute extent, a concrete narrow dtype reached
through inferred flow — so they are safe to gate CI on.  RL903/RL904
are warnings: hot-loop allocation pressure and annotation drift are
worth a look but admit legitimate exceptions.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from tools.reprolint.asthelpers import NumpyAliases, keyword_map, walk_with_parents
from tools.reprolint.findings import Finding, Severity
from tools.reprolint.registry import FileContext, Rule, register
from tools.reprolint.shapes import (
    DTYPE_TOP,
    SUB_FLOAT64,
    ShapeVal,
    broadcast_shapes,
    dims_equal_provable,
    format_shape,
    matmul_shapes,
    promote_dtypes,
)

#: Elementwise binary operators with broadcast semantics.
_ELEMENTWISE_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)

#: Call names (terminal attribute) treated as matmul contractions.
_MATMUL_CALLS = ("matmul", "dot")

#: np.<name> binary ufuncs whose operands must broadcast.
_BINARY_UFUNC_CALLS = (
    "add", "subtract", "multiply", "divide", "true_divide", "maximum",
    "minimum", "power", "hypot", "arctan2",
)

#: Reductions/contractions that accumulate over elements: a silent
#: rank-changing broadcast feeding one of these corrupts sums instead
#: of crashing.
_ACCUMULATORS = (
    "sum", "mean", "prod", "std", "var", "norm", "dot", "matmul",
    "average", "einsum", "trace",
)

#: ``np.<name>`` calls that materialize a fresh array (RL903).  Views
#: (``reshape``/``transpose``/``ravel``) and the no-copy ``asarray``
#: fast path are deliberately absent.
_NP_ALLOCATORS = (
    "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
    "empty_like", "full_like", "array", "arange", "linspace",
    "concatenate", "stack", "vstack", "hstack", "column_stack", "tile",
    "repeat", "pad", "copy", "ascontiguousarray",
)

#: Method calls that copy regardless of receiver module.
_METHOD_ALLOCATORS = ("copy", "astype", "flatten")


def _terminal_call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _stamp_parents(tree: ast.AST) -> None:
    for _ in walk_with_parents(tree):
        pass


def _known(val: Optional[ShapeVal]) -> bool:
    return val is not None and val.shape is not None


@register
class ShapeMismatchRule(Rule):
    """RL900: provably incompatible shapes meet at a matmul or
    elementwise site.

    Fires only when both operands have inferred shapes and a literal
    dimension pair (or the matmul contraction pair) can never match —
    symbolic or unknown dims never trigger it.
    """

    rule_id = "RL900"
    family = "arrays"
    severity = Severity.ERROR
    description = (
        "Provable shape mismatch: inferred operand shapes can never "
        "broadcast/contract at this site."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        shapes = ctx.shapes()
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                scope = shapes.scope_containing(node)
                if scope is None:
                    continue
                a = scope.array_of(node.left)
                b = scope.array_of(node.right)
                if not (_known(a) and _known(b)):
                    continue
                if isinstance(node.op, ast.MatMult):
                    out = matmul_shapes(a.shape, b.shape)
                    if out.mismatch:
                        yield self.make_finding(
                            ctx,
                            node,
                            f"matmul of {format_shape(a.shape)} @ "
                            f"{format_shape(b.shape)}: {out.reason}",
                        )
                elif isinstance(node.op, _ELEMENTWISE_OPS):
                    out = broadcast_shapes(a.shape, b.shape)
                    if out.mismatch:
                        yield self.make_finding(
                            ctx,
                            node,
                            "elementwise op on shapes "
                            f"{format_shape(a.shape)} and "
                            f"{format_shape(b.shape)}: axis "
                            f"{out.mismatch_axis} extents can never "
                            "broadcast",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(node, ctx, shapes)

    def _check_call(self, call: ast.Call, ctx, shapes) -> Iterator[Finding]:
        name = _terminal_call_name(call)
        scope = shapes.scope_containing(call)
        if scope is None:
            return
        operands: Optional[Tuple[ast.AST, ast.AST]] = None
        if name in _MATMUL_CALLS:
            if isinstance(call.func, ast.Attribute):
                recv = scope.array_of(call.func.value)
                if _known(recv) and len(call.args) >= 1:
                    a, b = recv, scope.array_of(call.args[0])
                    if _known(b):
                        out = matmul_shapes(a.shape, b.shape)
                        if out.mismatch:
                            yield self.make_finding(
                                ctx,
                                call,
                                f"{name} of {format_shape(a.shape)} and "
                                f"{format_shape(b.shape)}: {out.reason}",
                            )
                    return
            if len(call.args) >= 2:
                a = scope.array_of(call.args[0])
                b = scope.array_of(call.args[1])
                if _known(a) and _known(b):
                    out = matmul_shapes(a.shape, b.shape)
                    if out.mismatch:
                        yield self.make_finding(
                            ctx,
                            call,
                            f"{name} of {format_shape(a.shape)} and "
                            f"{format_shape(b.shape)}: {out.reason}",
                        )
            return
        if name in _BINARY_UFUNC_CALLS and len(call.args) >= 2:
            operands = (call.args[0], call.args[1])
        if operands is None:
            return
        a = scope.array_of(operands[0])
        b = scope.array_of(operands[1])
        if _known(a) and _known(b):
            out = broadcast_shapes(a.shape, b.shape)
            if out.mismatch:
                yield self.make_finding(
                    ctx,
                    call,
                    f"{name} on shapes {format_shape(a.shape)} and "
                    f"{format_shape(b.shape)}: axis {out.mismatch_axis} "
                    "extents can never broadcast",
                )


@register
class SilentBroadcastRule(Rule):
    """RL901: a rank-changing mutual broadcast feeds an accumulation.

    ``(K, 1)`` meeting ``(K,)`` silently manufactures a ``(K, K)``
    outer product; when that lands in a ``sum``/``mean``/``@``/``+=``
    the result is numerically wrong without any exception.  Fires only
    when the ranks differ *and* both operands provably contribute
    extent on a broadcast axis.
    """

    rule_id = "RL901"
    family = "arrays"
    severity = Severity.ERROR
    description = (
        "Rank-changing silent broadcast ((K,1) meets (K,)) reaching an "
        "accumulation — the blown-up outer product sums without error."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        shapes = ctx.shapes()
        _stamp_parents(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp) or not isinstance(
                node.op, _ELEMENTWISE_OPS
            ):
                continue
            scope = shapes.scope_containing(node)
            if scope is None:
                continue
            a = scope.array_of(node.left)
            b = scope.array_of(node.right)
            if not (_known(a) and _known(b)):
                continue
            out = broadcast_shapes(a.shape, b.shape)
            if not out.mutual or out.mismatch:
                continue
            if self._reaches_accumulation(node):
                yield self.make_finding(
                    ctx,
                    node,
                    f"shapes {format_shape(a.shape)} and "
                    f"{format_shape(b.shape)} broadcast to "
                    f"{format_shape(out.shape)} — a rank-changing blowup "
                    "feeding an accumulation; reshape or ravel one "
                    "operand so the ranks agree",
                )

    @staticmethod
    def _reaches_accumulation(node: ast.AST) -> bool:
        current = node
        for _ in range(32):
            parent = getattr(current, "_reprolint_parent", None)
            if parent is None or isinstance(parent, ast.stmt):
                return isinstance(parent, ast.AugAssign)
            if isinstance(parent, ast.Call):
                name = _terminal_call_name(parent)
                if name in _ACCUMULATORS:
                    return True
            if isinstance(parent, ast.BinOp) and isinstance(
                parent.op, ast.MatMult
            ):
                return True
            current = parent
        return False


@register
class DtypeDriftRule(Rule):
    """RL902: float64 data reaches a sub-float64 or object dtype through
    *inferred* flow.

    A literal narrow dtype at the call site is RL3xx territory; this
    rule catches the cases literals cannot — an ``astype`` whose target
    dtype arrives through a variable, an ``out=`` buffer inferred
    narrower than the float64 inputs it receives, and arithmetic whose
    inferred operand dtypes produce an object array.
    """

    rule_id = "RL902"
    family = "arrays"
    severity = Severity.ERROR
    description = (
        "Dtype drift: float64 computation reaches sub-float64/object "
        "dtype through inferred (non-literal) flow."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        shapes = ctx.shapes()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_astype(node, ctx, shapes)
                yield from self._check_out_buffer(node, ctx, shapes)
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, _ELEMENTWISE_OPS + (ast.MatMult,)
            ):
                scope = shapes.scope_containing(node)
                if scope is None:
                    continue
                a = scope.array_of(node.left)
                b = scope.array_of(node.right)
                if a is None or b is None:
                    continue
                pair = {a.dtype, b.dtype}
                if "object" in pair and "float64" in pair:
                    yield self.make_finding(
                        ctx,
                        node,
                        "float64 operand meets an object-dtype array: the "
                        "result degrades to object (boxed scalars, no "
                        "BLAS); coerce the object operand first",
                    )

    def _check_astype(self, call: ast.Call, ctx, shapes) -> Iterator[Finding]:
        if not (
            isinstance(call.func, ast.Attribute) and call.func.attr == "astype"
        ):
            return
        scope = shapes.scope_containing(call)
        if scope is None:
            return
        recv = scope.array_of(call.func.value)
        if recv is None or recv.dtype != "float64":
            return
        dt_node = call.args[0] if call.args else keyword_map(call).get("dtype")
        # Only *variable* targets: a literal np.float32 here is RL3xx.
        if not isinstance(dt_node, ast.Name):
            return
        dts = {
            v.dtype for v in scope.value_of(dt_node) if v.kind == "dtype"
        }
        if dts and dts <= (SUB_FLOAT64 | {"object"}):
            yield self.make_finding(
                ctx,
                call,
                f"float64 array cast to {'/'.join(sorted(dts))} through "
                f"variable {dt_node.id!r}: inferred dtype drift below "
                "float64",
            )

    def _check_out_buffer(self, call: ast.Call, ctx, shapes) -> Iterator[Finding]:
        out_node = keyword_map(call).get("out")
        if out_node is None:
            return
        scope = shapes.scope_containing(call)
        if scope is None:
            return
        ov = scope.array_of(out_node)
        if ov is None or ov.dtype not in SUB_FLOAT64:
            return
        promoted = None
        for arg in call.args:
            a = scope.array_of(arg)
            if a is None or a.dtype == DTYPE_TOP:
                return  # unknown input: not provable
            promoted = (
                a.dtype if promoted is None else promote_dtypes(promoted, a.dtype)
            )
        if promoted == "float64":
            yield self.make_finding(
                ctx,
                call,
                f"float64 inputs written into a {ov.dtype} out= buffer: "
                "the store truncates every element",
            )


@register
class HotLoopAllocationRule(Rule):
    """RL903: a fresh array allocation inside a hot loop.

    "Hot" means the enclosing function is in the call-graph closure of
    the configured ``hot-path-roots`` (``solve_cohort``, local-solver
    inner loops, ``im2col``, …).  Allocations that immediately escape —
    into ``list.append``/``extend`` or a ``return``/``yield`` — are the
    collect-results idiom and stay clean; everything else repeated per
    iteration belongs hoisted, or written through an ``out=`` buffer.
    """

    rule_id = "RL903"
    family = "arrays"
    severity = Severity.WARNING
    description = (
        "Array allocation inside a hot loop; hoist it or write through an "
        "out= buffer."
    )

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        roots = list(ctx.config.hot_path_roots)
        if not roots:
            return
        if ctx.index is not None:
            hot = ctx.index.hot_functions(roots)
        else:
            hot = set(roots)
        aliases = NumpyAliases(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qual = (
                f"{ctx.module_name}.{fn.name}" if ctx.module_name else fn.name
            )
            if qual not in hot and fn.name not in hot:
                continue
            for alloc, kind in self._loop_allocations(fn, aliases):
                yield self.make_finding(
                    ctx,
                    alloc,
                    f"{kind} allocates a fresh array on every iteration of "
                    f"a hot loop (in {fn.name}, reachable from a hot-path "
                    "root); hoist it out of the loop or use a preallocated "
                    "scratch/out= buffer",
                    function=fn.name,
                )

    def _loop_allocations(
        self, fn: ast.AST, aliases: NumpyAliases
    ) -> List[Tuple[ast.Call, str]]:
        out: List[Tuple[ast.Call, str]] = []

        def scan(node: ast.AST, depth: int, stack: Tuple[ast.AST, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                     ast.ClassDef),
                ):
                    continue  # separate scope
                child_depth = depth + (
                    1
                    if isinstance(child, (ast.For, ast.AsyncFor, ast.While))
                    else 0
                )
                if (
                    depth >= 1
                    and isinstance(child, ast.Call)
                    and not self._escapes(stack)
                ):
                    kind = self._allocator_kind(child, aliases)
                    if kind is not None:
                        out.append((child, kind))
                scan(child, child_depth, stack + (child,))

        scan(fn, 0, ())
        return out

    def _escapes(self, stack: Tuple[ast.AST, ...]) -> bool:
        """The allocation is the collect-results idiom, not loop churn.

        Either it sits lexically inside an ``append``/``extend`` call or
        a ``return``/``yield``, or it is bound to a name that the
        enclosing loop body later hands to one of those.
        """
        for anc in stack:
            if isinstance(anc, (ast.Return, ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(anc, ast.Call)
                and isinstance(anc.func, ast.Attribute)
                and anc.func.attr in ("append", "extend", "insert",
                                      "setdefault", "put")
            ):
                return True
        if len(stack) >= 2 and isinstance(stack[-1], ast.Assign):
            assign = stack[-1]
            if len(assign.targets) == 1 and isinstance(
                assign.targets[0], ast.Name
            ):
                loop = next(
                    (
                        anc
                        for anc in reversed(stack)
                        if isinstance(anc, (ast.For, ast.AsyncFor, ast.While))
                    ),
                    None,
                )
                if loop is not None and self._name_escapes(
                    loop, assign.targets[0].id
                ):
                    return True
        return False

    @staticmethod
    def _name_escapes(loop: ast.AST, name: str) -> bool:
        def mentions(node: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(node)
            )

        for sub in ast.walk(loop):
            if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
                if mentions(sub):
                    return True
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("append", "extend", "insert")
                and any(mentions(arg) for arg in sub.args)
            ):
                return True
        return False

    @staticmethod
    def _allocator_kind(call: ast.Call, aliases: NumpyAliases) -> Optional[str]:
        if aliases.is_numpy_attr(call.func, *_NP_ALLOCATORS):
            return f"np.{call.func.attr}"  # type: ignore[union-attr]
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _METHOD_ALLOCATORS
            and not aliases.is_numpy_attr(call.func)
        ):
            return f".{call.func.attr}()"
        return None


@register
class ShapeAnnotationContractRule(Rule):
    """RL904: inferred return shape/dtype contradicts the function's
    ``# shape:`` annotation.

    For every annotated function, parameters are seeded from the
    annotation and each ``return`` expression is evaluated in the
    domain; the rule reports only provable contradictions — a known
    rank that differs from the annotated rank, a literal-vs-literal
    dimension conflict, or concrete disagreeing dtypes.  Symbolic and
    unknown dims never fire.
    """

    rule_id = "RL904"
    family = "arrays"
    severity = Severity.WARNING
    description = (
        "# shape: annotation contradicted by the inferred return "
        "shape/dtype."
    )

    _WEAK = {"weak_int", "weak_float", "weak_bool", DTYPE_TOP}

    def check(self, tree: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        shapes = ctx.shapes()
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scope = shapes.scope_for_def(fn)
            if scope is None or scope.summary is None:
                continue
            spec = scope.summary.ret
            if spec is None:
                continue
            for block in scope.cfg.blocks.values():
                for unit in block.units:
                    if not isinstance(unit, ast.Return) or unit.value is None:
                        continue
                    inferred = scope.array_of(unit.value)
                    problem = self._contradiction(spec, inferred)
                    if problem is not None:
                        yield self.make_finding(
                            ctx,
                            unit,
                            f"return of {fn.name} contradicts its shape "
                            f"annotation: {problem}",
                            function=fn.name,
                        )

    def _contradiction(self, spec, inferred: Optional[ShapeVal]) -> Optional[str]:
        if inferred is None:
            return None
        if spec.dims is not None and inferred.shape is not None:
            if len(spec.dims) != len(inferred.shape):
                return (
                    f"annotated rank {len(spec.dims)} "
                    f"({format_shape(spec.dims)}) vs inferred "
                    f"{format_shape(inferred.shape)}"
                )
            for i, (want, got) in enumerate(zip(spec.dims, inferred.shape)):
                if dims_equal_provable(want, got) is False:
                    return (
                        f"axis {i}: annotated {want} vs inferred {got} "
                        f"(annotation {format_shape(spec.dims)}, inferred "
                        f"{format_shape(inferred.shape)})"
                    )
        if (
            spec.dtype != DTYPE_TOP
            and inferred.dtype not in self._WEAK
            and inferred.dtype != spec.dtype
        ):
            return (
                f"annotated dtype {spec.dtype} vs inferred {inferred.dtype}"
            )
        return None
