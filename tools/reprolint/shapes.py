"""Abstract interpretation of ndarray shapes and dtypes (the RL9xx domain).

The domain tracks, per variable, a small set of :class:`ShapeVal` facts:

* ``array``       — an ndarray with a (possibly partial) shape: a tuple
  of :class:`Dim` (literal extents, symbolic extents like ``K``/``D``
  bound from annotations or ``x.shape`` unpacking, or ⊤) — or unknown
  rank (``shape=None``) — plus a dtype drawn from a flat lattice
  (float64/float32/int64/bool/object/…/⊤, with "weak" python-scalar
  dtypes that never win a promotion, mirroring NEP 50);
* ``dim``         — an integer that *is* an array extent (``n =
  X.shape[0]``, ``K = len(clients)``), so buffers allocated as
  ``np.empty((n, d))`` unify with the arrays they mirror;
* ``shape_tuple`` — the value of ``x.shape`` itself, so tuple-unpacking
  binds each target to the matching ``dim``;
* ``dtype``       — a dtype object flowing through a variable
  (``dt = np.float32``), which is what separates RL902 (inferred dtype
  drift) from RL3xx (literal narrow dtype at the call site);
* ``top``         — everything else.

Evaluation is a may-analysis run to fixpoint over the reprolint CFG
(:mod:`tools.reprolint.cfg`), with **widening at loop heads**: facts
joining at a back-edge target collapse dimension-wise (unequal extents
become ⊤) instead of accumulating, so loops that reshape or rebind
buffers terminate in one or two passes.

Interprocedural reasoning is annotation-seeded and therefore honest: a
``# shape:`` comment (or a ``shape:`` docstring line) on a function both
*seeds* its parameters for intraprocedural analysis and *summarises* it
for callers — call sites unify the annotated parameter dims against the
actual argument shapes and substitute the bindings into the annotated
return spec.  Nothing is inferred across calls without an annotation.

Annotation syntax (one or more lines)::

    # shape: W (K, D) float64, X_batch (K, B, f), y_batch (K, B) int64 -> (K, D)
    # shape: cols (B, ?) -> (B,) float64

``?`` is an explicitly-unknown extent; integers are literal extents;
anything else is a symbolic dim unified by name.  The return spec after
``->`` is optional, as is the dtype token after any dim tuple.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from tools.reprolint.asthelpers import NumpyAliases, attribute_chain, keyword_map
from tools.reprolint.cfg import CFG, build_cfg

_MAX_ITERATIONS = 32

#: Per-variable fact-set cap before array facts are force-joined.
_ARRAY_CAP = 4


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dim:
    """One array extent: a literal, a named symbol, or ⊤."""

    kind: str  # "lit" | "sym" | "top"
    value: Optional[int] = None
    name: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "lit":
            return str(self.value)
        if self.kind == "sym":
            return str(self.name)
        return "?"


DIM_TOP = Dim("top")


def lit(value: int) -> Dim:
    return Dim("lit", value=int(value))


def sym(name: str) -> Dim:
    return Dim("sym", name=name)


def dim_join(a: Dim, b: Dim) -> Dim:
    return a if a == b else DIM_TOP


def dims_equal_provable(a: Dim, b: Dim) -> Optional[bool]:
    """True/False when equality is provable, None when unknown."""
    if a.kind == "lit" and b.kind == "lit":
        return a.value == b.value
    if a == b and a.kind == "sym":
        return True
    return None


def is_one(d: Dim) -> bool:
    return d.kind == "lit" and d.value == 1


def format_shape(shape: Optional[Tuple[Dim, ...]]) -> str:
    if shape is None:
        return "(?rank)"
    if len(shape) == 1:
        return f"({shape[0]},)"
    return "(" + ", ".join(str(d) for d in shape) + ")"


# ---------------------------------------------------------------------------
# Dtypes
# ---------------------------------------------------------------------------

DTYPE_TOP = "top"

#: Spellings accepted in annotations, ``dtype=`` literals, and ``np.<x>``.
_DTYPE_ALIASES = {
    "float64": "float64", "double": "float64", "float_": "float64",
    "float32": "float32", "single": "float32",
    "float16": "float16", "half": "float16",
    "int64": "int64", "long": "int64", "intp": "int64",
    "int32": "int32", "int16": "int16", "int8": "int8",
    "uint8": "uint8", "uint16": "uint16", "uint32": "uint32",
    "uint64": "uint64",
    "bool": "bool", "bool_": "bool",
    "object": "object", "object_": "object",
    # Builtins used as dtype arguments (int is platform int64 on the
    # linux/macos targets this repo supports).
    "float": "float64", "int": "int64",
}

_FLOATS = ("float16", "float32", "float64")
_INTS = ("int8", "int16", "int32", "int64",
         "uint8", "uint16", "uint32", "uint64")

#: dtypes strictly below float64 in the float lattice — the RL902 sinks.
SUB_FLOAT64 = {"float16", "float32"}


def is_float_dtype(d: str) -> bool:
    return d in _FLOATS or d == "weak_float"


def is_int_dtype(d: str) -> bool:
    return d in _INTS or d == "weak_int"


def _float_width(d: str) -> int:
    return _FLOATS.index(d) if d in _FLOATS else -1


def promote_dtypes(a: str, b: str) -> str:
    """NumPy-ish promotion on the flat lattice; weak scalars never win."""
    if a == b:
        return a
    if DTYPE_TOP in (a, b):
        return DTYPE_TOP
    if "object" in (a, b):
        return "object"
    # Weak (python scalar) operands defer to the array operand.
    weak = {"weak_int", "weak_float", "weak_bool"}
    if a in weak and b in weak:
        order = ["weak_bool", "weak_int", "weak_float"]
        return max(a, b, key=order.index)
    if a in weak:
        a, b = b, a
    if b in weak:
        if b == "weak_float" and not is_float_dtype(a):
            return "float64"
        return a
    if is_float_dtype(a) and is_float_dtype(b):
        return _FLOATS[max(_float_width(a), _float_width(b))]
    if is_float_dtype(a) or is_float_dtype(b):
        f, i = (a, b) if is_float_dtype(a) else (b, a)
        # int32/int64 pull any float up to float64; small ints keep it.
        if i in ("int32", "int64", "uint32", "uint64"):
            return "float64"
        return f
    if "bool" in (a, b):
        return a if b == "bool" else b
    # int/int: wider wins (signedness subtleties out of scope).
    return _INTS[max(_INTS.index(a) if a in _INTS else 0,
                     _INTS.index(b) if b in _INTS else 0)]


def true_divide_dtype(a: str, b: str) -> str:
    out = promote_dtypes(a, b)
    if is_int_dtype(out) or out == "bool" or out == "weak_bool":
        return "float64"
    if out == "weak_float":
        return "float64"
    return out


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeVal:
    """One shape/dtype fact about a value."""

    kind: str  # "array" | "dim" | "shape_tuple" | "dtype" | "top"
    shape: Optional[Tuple[Dim, ...]] = None  # array: None = unknown rank
    dtype: str = DTYPE_TOP  # array dtype, or the dtype a "dtype" value names
    dim: Optional[Dim] = None  # the extent a "dim" value holds
    origin_line: int = 0

    def is_array(self) -> bool:
        return self.kind == "array"


TOP_VAL = ShapeVal("top")

SEnv = Dict[str, FrozenSet[ShapeVal]]
SValueSet = FrozenSet[ShapeVal]

_TOP_SET: SValueSet = frozenset({TOP_VAL})


def array_val(
    shape: Optional[Tuple[Dim, ...]], dtype: str = DTYPE_TOP, line: int = 0
) -> ShapeVal:
    return ShapeVal("array", shape=shape, dtype=dtype, origin_line=line)


def _join_two_arrays(a: ShapeVal, b: ShapeVal) -> ShapeVal:
    dtype = a.dtype if a.dtype == b.dtype else DTYPE_TOP
    if a.shape is None or b.shape is None or len(a.shape) != len(b.shape):
        return array_val(None, dtype, a.origin_line)
    dims = tuple(dim_join(x, y) for x, y in zip(a.shape, b.shape))
    return array_val(dims, dtype, a.origin_line)


def join_arrays(values: Iterable[ShapeVal]) -> Optional[ShapeVal]:
    """Dimension-wise join of every array fact (None when there are none)."""
    out: Optional[ShapeVal] = None
    for v in values:
        if not v.is_array():
            continue
        out = v if out is None else _join_two_arrays(out, v)
    return out


def _cap_set(values: Iterable[ShapeVal], *, widen: bool = False) -> SValueSet:
    vals = set(values)
    arrays = [v for v in vals if v.is_array()]
    if arrays and (widen or len(arrays) > _ARRAY_CAP):
        joined = join_arrays(arrays)
        vals -= set(arrays)
        if joined is not None:
            vals.add(joined)
    if len(vals) > 2 * _ARRAY_CAP:
        return _TOP_SET
    return frozenset(vals) if vals else _TOP_SET


def join_shape_envs(envs: Sequence[SEnv], *, widen: bool = False) -> SEnv:
    out: Dict[str, Set[ShapeVal]] = {}
    for env in envs:
        for name, vals in env.items():
            out.setdefault(name, set()).update(vals)
    return {name: _cap_set(vals, widen=widen) for name, vals in out.items()}


# ---------------------------------------------------------------------------
# Broadcasting and matmul
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of abstractly broadcasting two shapes."""

    shape: Optional[Tuple[Dim, ...]]
    #: a pair of literal extents that can never broadcast (RL900).
    mismatch: bool = False
    #: the ranks differ and *each* side contributes a non-1 extent on an
    #: axis where the other is 1/padded — the ``(K,1)`` meets ``(K,)``
    #: blowup that silently manufactures a (K,K) outer product (RL901).
    mutual: bool = False
    mismatch_axis: int = -1


def broadcast_shapes(
    sa: Optional[Tuple[Dim, ...]], sb: Optional[Tuple[Dim, ...]]
) -> BroadcastOutcome:
    if sa is None or sb is None:
        return BroadcastOutcome(None)
    rank = max(len(sa), len(sb))
    pa = (lit(1),) * (rank - len(sa)) + tuple(sa)
    pb = (lit(1),) * (rank - len(sb)) + tuple(sb)
    out: List[Dim] = []
    a_contributes = b_contributes = False
    mismatch = False
    mismatch_axis = -1
    for i, (da, db) in enumerate(zip(pa, pb)):
        padded_a = i < rank - len(sa)
        padded_b = i < rank - len(sb)
        expands = lambda d: d.kind == "sym" or (d.kind == "lit" and d.value != 1)
        if is_one(db) or padded_b:
            if expands(da):
                a_contributes = True
            out.append(da)
        elif is_one(da) or padded_a:
            if expands(db):
                b_contributes = True
            out.append(db)
        else:
            provable = dims_equal_provable(da, db)
            if provable is False:
                mismatch = True
                mismatch_axis = i
                out.append(DIM_TOP)
            elif provable is True:
                out.append(da)
            else:
                out.append(dim_join(da, db))
    mutual = len(sa) != len(sb) and a_contributes and b_contributes
    return BroadcastOutcome(tuple(out), mismatch, mutual, mismatch_axis)


@dataclass(frozen=True)
class MatmulOutcome:
    shape: Optional[Tuple[Dim, ...]]
    mismatch: bool = False
    reason: str = ""


def matmul_shapes(
    sa: Optional[Tuple[Dim, ...]], sb: Optional[Tuple[Dim, ...]]
) -> MatmulOutcome:
    """Abstract ``a @ b`` following numpy.matmul's rank rules."""
    if sa is None or sb is None:
        return MatmulOutcome(None)
    if len(sa) == 0 or len(sb) == 0:
        return MatmulOutcome(None, True, "matmul operand is 0-d (scalar)")
    inner_a = sa[-1]
    inner_b = sb[0] if len(sb) == 1 else sb[-2]
    if dims_equal_provable(inner_a, inner_b) is False:
        return MatmulOutcome(
            None,
            True,
            f"inner dims {inner_a} and {inner_b} cannot contract",
        )
    if len(sa) == 1 and len(sb) == 1:
        return MatmulOutcome(())
    if len(sa) == 1:
        batch = broadcast_shapes((), sb[:-2])
        return MatmulOutcome((batch.shape or ()) + (sb[-1],))
    if len(sb) == 1:
        batch = broadcast_shapes(sa[:-2], ())
        return MatmulOutcome((batch.shape or ()) + (sa[-2],))
    batch = broadcast_shapes(sa[:-2], sb[:-2])
    if batch.mismatch:
        return MatmulOutcome(
            None, True,
            f"batch dims of {format_shape(sa)} and {format_shape(sb)} "
            "cannot broadcast",
        )
    return MatmulOutcome((batch.shape or ()) + (sa[-2], sb[-1]))


# ---------------------------------------------------------------------------
# ``# shape:`` annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArraySpec:
    """Annotated shape (+ optional dtype) of one parameter or return."""

    dims: Optional[Tuple[Dim, ...]]
    dtype: str = DTYPE_TOP


@dataclass
class FunctionSummary:
    """Annotation-derived interprocedural summary of one function."""

    qualname: str
    params: Dict[str, ArraySpec] = field(default_factory=dict)
    ret: Optional[ArraySpec] = None
    param_order: Tuple[str, ...] = ()
    is_method: bool = False
    lineno: int = 0


_ANNOT_LINE_RE = re.compile(r"^#?\s*shape:\s*(?P<body>.+)$")
_PARAM_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"\(\s*(?P<dims>[^)]*)\)\s*(?P<dtype>[A-Za-z_][A-Za-z0-9_]*)?\s*$"
)
_RET_RE = re.compile(
    r"^\s*\(\s*(?P<dims>[^)]*)\)\s*(?P<dtype>[A-Za-z_][A-Za-z0-9_]*)?\s*$"
)


def _parse_dims(text: str) -> Tuple[Dim, ...]:
    dims: List[Dim] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "?":
            dims.append(DIM_TOP)
        elif re.fullmatch(r"-?\d+", tok):
            dims.append(lit(int(tok)))
        else:
            dims.append(sym(tok))
    return tuple(dims)


def _parse_dtype_token(tok: Optional[str]) -> str:
    if not tok:
        return DTYPE_TOP
    return _DTYPE_ALIASES.get(tok, DTYPE_TOP)


def _split_outside_parens(text: str, sep: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_annotation_line(
    text: str,
) -> Optional[Tuple[Dict[str, ArraySpec], Optional[ArraySpec]]]:
    """Parse one annotation line; None when it isn't one."""
    m = _ANNOT_LINE_RE.match(text.strip())
    if not m:
        return None
    body = m.group("body").strip()
    ret: Optional[ArraySpec] = None
    if "->" in body:
        body, _, ret_text = body.rpartition("->")
        rm = _RET_RE.match(ret_text)
        if rm:
            ret = ArraySpec(
                _parse_dims(rm.group("dims")),
                _parse_dtype_token(rm.group("dtype")),
            )
    params: Dict[str, ArraySpec] = {}
    body = body.strip()
    if body:
        for segment in _split_outside_parens(body, ","):
            pm = _PARAM_RE.match(segment)
            if pm:
                params[pm.group("name")] = ArraySpec(
                    _parse_dims(pm.group("dims")),
                    _parse_dtype_token(pm.group("dtype")),
                )
    if not params and ret is None:
        return None
    return params, ret


def annotation_for(
    node: ast.AST, lines: Sequence[str], qualname: str
) -> Optional[FunctionSummary]:
    """Collect the ``shape:`` annotation of one function def, if any.

    Looks at the comment line directly above the ``def``, comment lines
    between the signature and the first body statement, and every line
    of the docstring.
    """
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    candidates: List[str] = []
    first_stmt = node.body[0] if node.body else None
    lo = max(node.lineno - 2, 0)
    hi = first_stmt.lineno - 1 if first_stmt is not None else node.lineno
    for i in range(lo, min(hi, len(lines))):
        stripped = lines[i].strip()
        if stripped.startswith("#"):
            candidates.append(stripped)
    doc = ast.get_docstring(node, clean=True)
    if doc:
        candidates.extend(line.strip() for line in doc.splitlines())

    params: Dict[str, ArraySpec] = {}
    ret: Optional[ArraySpec] = None
    found = False
    for text in candidates:
        parsed = parse_annotation_line(text)
        if parsed is None:
            continue
        found = True
        params.update(parsed[0])
        if parsed[1] is not None:
            ret = parsed[1]
    if not found:
        return None
    args = node.args
    order = tuple(
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
    )
    return FunctionSummary(
        qualname=qualname,
        params=params,
        ret=ret,
        param_order=order,
        is_method=bool(order) and order[0] in ("self", "cls"),
        lineno=node.lineno,
    )


def _bind_summary_syms(
    summary: FunctionSummary,
    arg_shapes: Dict[str, Optional[Tuple[Dim, ...]]],
) -> Dict[str, Dim]:
    """Unify annotated param dims against actual argument shapes."""
    bindings: Dict[str, Dim] = {}
    for pname, spec in summary.params.items():
        actual = arg_shapes.get(pname)
        if spec.dims is None or actual is None or len(spec.dims) != len(actual):
            continue
        for annotated, real in zip(spec.dims, actual):
            if annotated.kind == "sym" and annotated.name not in bindings:
                bindings[annotated.name] = real
    return bindings


def _substitute_dims(
    dims: Tuple[Dim, ...], bindings: Dict[str, Dim]
) -> Tuple[Dim, ...]:
    return tuple(
        bindings.get(d.name, d) if d.kind == "sym" else d for d in dims
    )


# ---------------------------------------------------------------------------
# NumPy surface classification
# ---------------------------------------------------------------------------

#: np.<name>(shape, ...) allocators whose first argument is a shape.
_SHAPE_ALLOCATORS = {"zeros": "float64", "ones": "float64",
                     "empty": "float64", "full": DTYPE_TOP}

#: np.<name>(x, ...) allocators mirroring an existing array.
_LIKE_ALLOCATORS = ("zeros_like", "ones_like", "empty_like", "full_like",
                    "copy", "ascontiguousarray")

#: Binary ufuncs with broadcast semantics (and an ``out=`` form).
_BINARY_UFUNCS = ("add", "subtract", "multiply", "divide", "true_divide",
                  "power", "maximum", "minimum", "mod", "remainder",
                  "floor_divide", "hypot", "arctan2", "logaddexp")

#: Unary elementwise ufuncs that keep the shape.
_UNARY_UFUNCS = ("exp", "log", "log2", "log10", "log1p", "expm1", "sqrt",
                 "abs", "absolute", "negative", "positive", "sign", "square",
                 "tanh", "sin", "cos", "clip", "nan_to_num", "reciprocal")

#: Unary float-producing ufuncs (int input promotes to float64).
_FLOAT_UFUNCS = {"exp", "log", "log2", "log10", "log1p", "expm1", "sqrt",
                 "tanh", "sin", "cos", "reciprocal"}

#: Reductions usable as np.<name>(x, axis=...) or x.<name>(axis=...).
_REDUCTIONS = ("sum", "mean", "prod", "max", "min", "amax", "amin", "std",
               "var", "median", "argmax", "argmin", "all", "any", "count_nonzero")

#: Attribute names treated as matmul regardless of receiver — the
#: ``repro.backend`` seam (be.matmul / be.batched_matmul) and numpy.
_MATMUL_NAMES = ("matmul", "batched_matmul", "dot")

#: Fresh-array calls RL903 flags inside hot loops.  ``asarray`` is
#: excluded (no-copy fast path); views (``ravel``, ``reshape``,
#: ``transpose``) are not allocations.
ALLOCATOR_CALLS = frozenset(
    set(_SHAPE_ALLOCATORS)
    | set(_LIKE_ALLOCATORS)
    | {"array", "arange", "linspace", "concatenate", "stack", "vstack",
       "hstack", "column_stack", "tile", "repeat", "pad", "flatten",
       "astype"}
)


# ---------------------------------------------------------------------------
# Per-scope analysis
# ---------------------------------------------------------------------------


class ScopeShapeAnalysis:
    """Fixed-point shape/dtype analysis of one scope."""

    def __init__(
        self,
        body: List[ast.stmt],
        aliases: NumpyAliases,
        *,
        scope_node: Optional[ast.AST] = None,
        summary: Optional[FunctionSummary] = None,
        summaries: Optional[Dict[str, FunctionSummary]] = None,
        method_summaries: Optional[Dict[str, FunctionSummary]] = None,
        call_resolver: Optional[Callable[[ast.Call], Optional[str]]] = None,
    ) -> None:
        self.scope_node = scope_node
        self.body = body
        self.summary = summary
        self._summaries = summaries or {}
        self._method_summaries = method_summaries or {}
        self._resolver = call_resolver
        self.cfg: CFG = build_cfg(body)
        self._aliases = aliases
        self._env_before_unit: Dict[int, SEnv] = {}
        self._unit_of_node: Dict[int, ast.stmt] = {}
        self._solve(self._initial_env())
        self._index_units()

    # -- public query API --------------------------------------------------

    def env_before(self, unit: ast.stmt) -> SEnv:
        return self._env_before_unit.get(id(unit), {})

    def enclosing_unit(self, node: ast.AST) -> Optional[ast.stmt]:
        return self._unit_of_node.get(id(node))

    def value_of(self, expr: ast.AST) -> SValueSet:
        """Abstract shape value of ``expr`` at its program point."""
        unit = self.enclosing_unit(expr)
        if unit is None:
            return _TOP_SET
        return self.eval(expr, self.env_before(unit))

    def arrays_of(self, expr: ast.AST) -> List[ShapeVal]:
        return [v for v in self.value_of(expr) if v.is_array()]

    def array_of(self, expr: ast.AST) -> Optional[ShapeVal]:
        """The single joined array fact for ``expr`` (None when not an array)."""
        return join_arrays(self.value_of(expr))

    # -- construction ------------------------------------------------------

    def _initial_env(self) -> SEnv:
        env: SEnv = {}
        if isinstance(
            self.scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            lineno = self.scope_node.lineno
            if self.summary is not None:
                for pname, spec in self.summary.params.items():
                    env[pname] = frozenset(
                        {array_val(spec.dims, spec.dtype, lineno)}
                    )
        return env

    _header_nodes = staticmethod(
        lambda unit: ScopeShapeAnalysis._headers(unit)
    )

    @staticmethod
    def _headers(unit: ast.stmt) -> List[ast.AST]:
        if isinstance(unit, (ast.If, ast.While)):
            return [unit.test]
        if isinstance(unit, (ast.For, ast.AsyncFor)):
            return [unit.iter, unit.target]
        if isinstance(unit, (ast.With, ast.AsyncWith)):
            return list(unit.items)
        if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes: List[ast.AST] = list(unit.decorator_list)
            if hasattr(unit, "args"):
                nodes += list(unit.args.defaults)
                nodes += [d for d in unit.args.kw_defaults if d is not None]
            return nodes
        if isinstance(unit, ast.ExceptHandler):
            return [unit.type] if unit.type else []
        return [unit]

    def _index_units(self) -> None:
        for block in self.cfg.blocks.values():
            for unit in block.units:
                for node in self._headers(unit):
                    for sub in ast.walk(node):
                        self._unit_of_node.setdefault(id(sub), unit)

    def _solve(self, initial: SEnv) -> None:
        in_env: Dict[int, SEnv] = {self.cfg.entry: initial}
        out_env: Dict[int, SEnv] = {}
        order = self.cfg.rpo()
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for bid in order:
                block = self.cfg.blocks[bid]
                preds = [out_env[p] for p in block.pred if p in out_env]
                if bid == self.cfg.entry:
                    preds = preds + [initial]
                env = (
                    join_shape_envs(preds, widen=block.is_loop_head)
                    if preds
                    else {}
                )
                in_env[bid] = env
                env = dict(env)
                for unit in block.units:
                    self._env_before_unit[id(unit)] = dict(env)
                    env = self._transfer(unit, env)
                if out_env.get(bid) != env:
                    out_env[bid] = env
                    changed = True
            if not changed:
                break
        for block in self.cfg.blocks.values():
            for unit in block.units:
                self._env_before_unit.setdefault(id(unit), {})

    # -- transfer ----------------------------------------------------------

    def _transfer(self, unit: ast.stmt, env: SEnv) -> SEnv:
        env = dict(env)
        if isinstance(unit, ast.Assign):
            values = self.eval(unit.value, env)
            for target in unit.targets:
                self._bind_target(target, unit.value, values, env)
        elif isinstance(unit, ast.AnnAssign) and unit.value is not None:
            values = self.eval(unit.value, env)
            self._bind_target(unit.target, unit.value, values, env)
        elif isinstance(unit, ast.AugAssign):
            result = self._eval_binop(
                self.eval(unit.target, env),
                self.eval(unit.value, env),
                unit.op,
                getattr(unit, "lineno", 0),
            )
            if isinstance(unit.target, ast.Name):
                env[unit.target.id] = result
        elif isinstance(unit, (ast.For, ast.AsyncFor)):
            self._bind_target(
                unit.target,
                unit.iter,
                self._eval_iteration(unit.iter, env),
                env,
            )
        elif isinstance(unit, (ast.With, ast.AsyncWith)):
            for item in unit.items:
                if item.optional_vars is not None:
                    self._bind_target(
                        item.optional_vars,
                        item.context_expr,
                        self.eval(item.context_expr, env),
                        env,
                    )
        elif isinstance(unit, ast.ExceptHandler):
            if unit.name:
                env[unit.name] = _TOP_SET
        elif isinstance(unit, (ast.Import, ast.ImportFrom)):
            for alias in unit.names:
                env[(alias.asname or alias.name).split(".")[0]] = _TOP_SET
        elif isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            env[unit.name] = _TOP_SET
        elif isinstance(unit, ast.Delete):
            for target in unit.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return env

    def _bind_target(
        self, target: ast.AST, value_expr: ast.AST, values: SValueSet, env: SEnv
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = values
        elif isinstance(target, (ast.Tuple, ast.List)):
            # ``K, B, f = X_batch.shape`` binds each target to a dim.
            tuples = [v for v in values if v.kind == "shape_tuple"]
            if tuples and all(
                v.shape is not None and len(v.shape) == len(target.elts)
                for v in tuples
            ):
                for i, t in enumerate(target.elts):
                    if isinstance(t, ast.Name):
                        env[t.id] = frozenset(
                            ShapeVal("dim", dim=v.shape[i],
                                     origin_line=v.origin_line)
                            for v in tuples
                        )
                return
            if isinstance(value_expr, (ast.Tuple, ast.List)) and len(
                value_expr.elts
            ) == len(target.elts):
                for t, v in zip(target.elts, value_expr.elts):
                    self._bind_target(t, v, self.eval(v, env), env)
            else:
                element = self._project_elements(values)
                for t in target.elts:
                    self._bind_target(t, value_expr, element, env)
        # Attribute/Subscript stores: no tracked heap.

    # -- expression evaluation ---------------------------------------------

    def eval(self, expr: ast.AST, env: SEnv) -> SValueSet:
        if isinstance(expr, ast.Constant):
            v = expr.value
            if isinstance(v, bool):
                return frozenset({array_val((), "weak_bool", expr.lineno)})
            if isinstance(v, int):
                return frozenset({array_val((), "weak_int", expr.lineno)})
            if isinstance(v, float):
                return frozenset({array_val((), "weak_float", expr.lineno)})
            return _TOP_SET
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _TOP_SET)
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, (ast.USub, ast.UAdd)):
                return self.eval(expr.operand, env)
            if isinstance(expr.op, ast.Not):
                return frozenset({array_val((), "weak_bool", 0)})
            return _TOP_SET
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(
                self.eval(expr.left, env),
                self.eval(expr.right, env),
                expr.op,
                getattr(expr, "lineno", 0),
            )
        if isinstance(expr, ast.Compare):
            vals = [self.eval(expr.left, env)]
            vals += [self.eval(c, env) for c in expr.comparators]
            arrays = [join_arrays(v) for v in vals]
            arrays = [a for a in arrays if a is not None]
            shape: Optional[Tuple[Dim, ...]] = ()
            for a in arrays:
                outcome = broadcast_shapes(shape, a.shape)
                shape = outcome.shape
            return frozenset(
                {array_val(shape, "bool", getattr(expr, "lineno", 0))}
            )
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, ast.IfExp):
            return _cap_set(
                set(self.eval(expr.body, env))
                | set(self.eval(expr.orelse, env))
            )
        if isinstance(expr, ast.BoolOp):
            merged: Set[ShapeVal] = set()
            for v in expr.values:
                merged |= set(self.eval(v, env))
            return _cap_set(merged)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        return _TOP_SET

    def _eval_attribute(self, expr: ast.Attribute, env: SEnv) -> SValueSet:
        attr = expr.attr
        # np.float32 / np.int64 … as a value: a dtype object.
        chain = attribute_chain(expr)
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in self._aliases.numpy_names
            and chain[1] in _DTYPE_ALIASES
        ):
            return frozenset(
                {ShapeVal("dtype", dtype=_DTYPE_ALIASES[chain[1]],
                          origin_line=expr.lineno)}
            )
        if attr in ("T", "shape", "dtype", "size", "ndim", "real", "imag"):
            base = join_arrays(self.eval(expr.value, env))
            if base is None:
                return _TOP_SET
            if attr == "T":
                if base.shape is None:
                    return frozenset({array_val(None, base.dtype, expr.lineno)})
                return frozenset(
                    {array_val(tuple(reversed(base.shape)), base.dtype,
                               expr.lineno)}
                )
            if attr == "shape":
                return frozenset(
                    {ShapeVal("shape_tuple", shape=base.shape,
                              origin_line=expr.lineno)}
                )
            if attr == "dtype":
                return frozenset(
                    {ShapeVal("dtype", dtype=base.dtype,
                              origin_line=expr.lineno)}
                )
            if attr in ("real", "imag"):
                return frozenset({base})
        return _TOP_SET

    def _eval_subscript(self, expr: ast.Subscript, env: SEnv) -> SValueSet:
        base_vals = self.eval(expr.value, env)
        sl = expr.slice
        # Legacy ast.Index on py3.8 trees does not occur (py>=3.9 floor).
        tuples = [v for v in base_vals if v.kind == "shape_tuple"]
        if tuples:
            idx = None
            if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
                idx = sl.value
            if idx is not None:
                out: Set[ShapeVal] = set()
                for v in tuples:
                    if v.shape is not None and -len(v.shape) <= idx < len(v.shape):
                        out.add(
                            ShapeVal("dim", dim=v.shape[idx],
                                     origin_line=v.origin_line)
                        )
                if out:
                    return frozenset(out)
            return _TOP_SET
        base = join_arrays(base_vals)
        if base is None or base.shape is None:
            return _TOP_SET
        items = list(sl.elts) if isinstance(sl, ast.Tuple) else [sl]
        dims: List[Dim] = []
        remaining = list(base.shape)
        for item in items:
            if isinstance(item, ast.Constant) and item.value is None:
                dims.append(lit(1))  # np.newaxis
                continue
            if isinstance(item, ast.Slice):
                if not remaining:
                    return _TOP_SET
                d = remaining.pop(0)
                full = item.lower is None and item.upper is None and (
                    item.step is None
                )
                dims.append(d if full else DIM_TOP)
                continue
            if isinstance(item, (ast.Constant,)) and item.value is Ellipsis:
                return _TOP_SET
            # Integer (or unknown scalar) index: drops one axis; an
            # array index (fancy/boolean) would change rank — detect
            # known array indices and give up on rank instead of lying.
            idx_arr = join_arrays(self.eval(item, env))
            if idx_arr is not None and idx_arr.shape is not None and len(
                idx_arr.shape
            ) > 0:
                return frozenset({array_val(None, base.dtype, expr.lineno)})
            if not remaining:
                return _TOP_SET
            remaining.pop(0)
        dims.extend(remaining)
        return frozenset({array_val(tuple(dims), base.dtype, expr.lineno)})

    # -- call evaluation ---------------------------------------------------

    def _dim_from_node(self, node: ast.AST, env: SEnv) -> Dim:
        if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
            return lit(node.value)
        if isinstance(node, ast.Name):
            vals = env.get(node.id)
            if vals:
                dims = {v.dim for v in vals if v.kind == "dim" and v.dim}
                if len(dims) == 1:
                    return next(iter(dims))
                if dims:
                    return DIM_TOP
            return sym(node.id)
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if chain is not None:
                return sym(".".join(chain))
            return DIM_TOP
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return DIM_TOP  # reshape(-1) and friends
        return DIM_TOP

    def _dims_from_shape_arg(
        self, node: ast.AST, env: SEnv
    ) -> Optional[Tuple[Dim, ...]]:
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._dim_from_node(e, env) for e in node.elts)
        # A bare int/name: rank-1 allocation np.zeros(n).
        if isinstance(node, (ast.Constant, ast.Name, ast.Attribute)):
            vals = self.eval(node, env)
            tuples = [v for v in vals if v.kind == "shape_tuple"]
            if tuples and len(tuples) == 1:
                return tuples[0].shape  # np.zeros(x.shape)
            return (self._dim_from_node(node, env),)
        return None

    def _dtype_from_node(self, node: ast.AST, env: SEnv) -> Tuple[str, bool]:
        """``(dtype, literal_at_site)`` for a ``dtype=`` argument."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_ALIASES.get(node.value, DTYPE_TOP), True
        if isinstance(node, ast.Attribute):
            chain = attribute_chain(node)
            if (
                chain is not None
                and len(chain) == 2
                and chain[0] in self._aliases.numpy_names
            ):
                return _DTYPE_ALIASES.get(chain[1], DTYPE_TOP), True
        if isinstance(node, ast.Name):
            if node.id in ("float", "int", "bool"):
                return _DTYPE_ALIASES[node.id], True
            vals = env.get(node.id, frozenset())
            dtypes = {v.dtype for v in vals if v.kind == "dtype"}
            if len(dtypes) == 1:
                return next(iter(dtypes)), False
        return DTYPE_TOP, False

    def _np_member(self, func: ast.AST) -> Optional[str]:
        """``name`` when ``func`` is ``np.<name>``."""
        chain = attribute_chain(func)
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] in self._aliases.numpy_names
        ):
            return chain[1]
        return None

    def _eval_call(self, call: ast.Call, env: SEnv) -> SValueSet:
        kwargs = keyword_map(call)
        line = call.lineno
        np_name = self._np_member(call.func)
        method = (
            call.func.attr if isinstance(call.func, ast.Attribute) else None
        )
        fname = call.func.id if isinstance(call.func, ast.Name) else None

        # len(x): the leading extent as a dim.
        if fname == "len" and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            if base is not None and base.shape:
                return frozenset(
                    {ShapeVal("dim", dim=base.shape[0], origin_line=line)}
                )
            return _TOP_SET
        if fname in ("int", "float") and call.args:
            inner = self.eval(call.args[0], env)
            dims = [v for v in inner if v.kind == "dim"]
            if dims:
                return frozenset(dims)  # int(x.shape[0]) stays a dim
            return _TOP_SET
        if fname == "range" and call.args:
            # range(n): iterating yields scalars; length n matters only
            # through len(), which is out of scope here.
            return _TOP_SET

        if np_name == "dtype" and call.args:
            dt, _ = self._dtype_from_node(call.args[0], env)
            return frozenset({ShapeVal("dtype", dtype=dt, origin_line=line)})

        # Allocation from an explicit shape: np.zeros((K, D), dtype=...).
        if np_name in _SHAPE_ALLOCATORS and call.args:
            dims = self._dims_from_shape_arg(call.args[0], env)
            dtype = _SHAPE_ALLOCATORS[np_name]
            if np_name == "full" and len(call.args) >= 2:
                fill = join_arrays(self.eval(call.args[1], env))
                if fill is not None:
                    dtype = {
                        "weak_int": "int64",
                        "weak_float": "float64",
                        "weak_bool": "bool",
                    }.get(fill.dtype, fill.dtype)
            if "dtype" in kwargs:
                dt, _ = self._dtype_from_node(kwargs["dtype"], env)
                dtype = dt
            elif len(call.args) >= 3 and np_name == "full":
                pass
            return frozenset({array_val(dims, dtype, line)})

        if np_name in _LIKE_ALLOCATORS and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            shape = base.shape if base is not None else None
            dtype = base.dtype if base is not None else DTYPE_TOP
            if "dtype" in kwargs:
                dtype, _ = self._dtype_from_node(kwargs["dtype"], env)
            return frozenset({array_val(shape, dtype, line)})

        if np_name in ("array", "asarray") and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            if base is None:
                shape, dtype = self._literal_list_shape(call.args[0], env)
            else:
                shape, dtype = base.shape, base.dtype
            if "dtype" in kwargs:
                dtype, _ = self._dtype_from_node(kwargs["dtype"], env)
            return frozenset({array_val(shape, dtype, line)})

        if np_name == "arange":
            dtype = "int64"
            for arg in call.args:
                a = join_arrays(self.eval(arg, env))
                if a is None or a.dtype not in ("weak_int", "int64", "int32"):
                    dtype = DTYPE_TOP if a is None else "float64"
            if "dtype" in kwargs:
                dtype, _ = self._dtype_from_node(kwargs["dtype"], env)
            if len(call.args) == 1:
                return frozenset(
                    {array_val((self._dim_from_node(call.args[0], env),),
                               dtype, line)}
                )
            return frozenset({array_val((DIM_TOP,), dtype, line)})

        if np_name == "linspace":
            n = (
                self._dim_from_node(call.args[2], env)
                if len(call.args) >= 3
                else DIM_TOP
            )
            return frozenset({array_val((n,), "float64", line)})

        if np_name in ("reshape",) and len(call.args) >= 2:
            return self._eval_reshape(call.args[0], call.args[1:], env, line)
        if method == "reshape" and isinstance(call.func, ast.Attribute):
            return self._eval_reshape(
                call.func.value, call.args, env, line
            )

        if np_name == "transpose" or (
            method == "transpose" and isinstance(call.func, ast.Attribute)
        ):
            target = (
                call.args[0] if np_name == "transpose" else call.func.value
            )
            base = join_arrays(self.eval(target, env))
            if base is None or base.shape is None:
                return _TOP_SET
            perm_args = call.args if np_name != "transpose" else call.args[1:]
            if len(perm_args) == 1 and isinstance(perm_args[0], (ast.Tuple, ast.List)):
                perm_args = list(perm_args[0].elts)
            if not perm_args:
                return frozenset(
                    {array_val(tuple(reversed(base.shape)), base.dtype, line)}
                )
            perm: List[int] = []
            for a in perm_args:
                if isinstance(a, ast.Constant) and isinstance(a.value, int):
                    perm.append(a.value)
            if len(perm) == len(base.shape) and sorted(
                p % len(base.shape) for p in perm
            ) == list(range(len(base.shape))):
                dims = tuple(base.shape[p] for p in perm)
                return frozenset({array_val(dims, base.dtype, line)})
            return frozenset(
                {array_val((DIM_TOP,) * len(base.shape), base.dtype, line)}
            )

        if np_name == "swapaxes" or method == "swapaxes":
            target = call.args[0] if np_name else call.func.value  # type: ignore[union-attr]
            axes = call.args[1:] if np_name else call.args
            base = join_arrays(self.eval(target, env))
            if base is None or base.shape is None or len(axes) != 2:
                return _TOP_SET
            ints = [
                a.value
                for a in axes
                if isinstance(a, ast.Constant) and isinstance(a.value, int)
            ]
            if len(ints) == 2:
                rank = len(base.shape)
                i, j = ints[0] % rank, ints[1] % rank
                dims = list(base.shape)
                dims[i], dims[j] = dims[j], dims[i]
                return frozenset({array_val(tuple(dims), base.dtype, line)})
            return _TOP_SET

        if method == "astype" and isinstance(call.func, ast.Attribute):
            base = join_arrays(self.eval(call.func.value, env))
            if call.args:
                dtype, _ = self._dtype_from_node(call.args[0], env)
            elif "dtype" in kwargs:
                dtype, _ = self._dtype_from_node(kwargs["dtype"], env)
            else:
                dtype = DTYPE_TOP
            shape = base.shape if base is not None else None
            return frozenset({array_val(shape, dtype, line)})

        if method in ("copy", "view") and isinstance(call.func, ast.Attribute) and not call.args:
            base = join_arrays(self.eval(call.func.value, env))
            if base is not None:
                return frozenset({array_val(base.shape, base.dtype, line)})
            return _TOP_SET
        if np_name == "copy" and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            if base is not None:
                return frozenset({array_val(base.shape, base.dtype, line)})
            return _TOP_SET

        if method in ("ravel", "flatten") and isinstance(call.func, ast.Attribute):
            base = join_arrays(self.eval(call.func.value, env))
            dtype = base.dtype if base is not None else DTYPE_TOP
            if base is not None and base.shape is not None and len(base.shape) == 1:
                return frozenset({array_val(base.shape, dtype, line)})
            return frozenset({array_val((DIM_TOP,), dtype, line)})
        if np_name == "ravel" and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            dtype = base.dtype if base is not None else DTYPE_TOP
            return frozenset({array_val((DIM_TOP,), dtype, line)})

        # Reductions: x.sum(axis=..) / np.sum(x, axis=..).
        if method in _REDUCTIONS or np_name in _REDUCTIONS:
            if np_name in _REDUCTIONS:
                if not call.args:
                    return _TOP_SET
                base = join_arrays(self.eval(call.args[0], env))
                axis_arg = call.args[1] if len(call.args) >= 2 else kwargs.get("axis")
            else:
                base = join_arrays(self.eval(call.func.value, env))  # type: ignore[union-attr]
                axis_arg = call.args[0] if call.args else kwargs.get("axis")
            if base is None:
                return _TOP_SET
            return frozenset(
                {self._reduce(base, method or np_name, axis_arg,
                              kwargs.get("keepdims"), line)}
            )

        # matmul family (np.matmul / a.dot(b) / be.batched_matmul(a, b)).
        if (np_name in _MATMUL_NAMES or method in _MATMUL_NAMES) and call.args:
            if np_name in _MATMUL_NAMES and len(call.args) >= 2:
                a_node, b_node = call.args[0], call.args[1]
            elif method in _MATMUL_NAMES and isinstance(call.func, ast.Attribute):
                recv = join_arrays(self.eval(call.func.value, env))
                if recv is not None and len(call.args) >= 1:
                    # x.dot(y): receiver is the left operand.
                    a = recv
                    b = join_arrays(self.eval(call.args[0], env))
                    return self._matmul_result(a, b, kwargs, env, line)
                if len(call.args) >= 2:
                    a_node, b_node = call.args[0], call.args[1]
                else:
                    return _TOP_SET
            else:
                return _TOP_SET
            a = join_arrays(self.eval(a_node, env))
            b = join_arrays(self.eval(b_node, env))
            return self._matmul_result(a, b, kwargs, env, line)

        if method == "gather_rows" and len(call.args) >= 2:
            src = join_arrays(self.eval(call.args[0], env))
            idx = join_arrays(self.eval(call.args[1], env))
            out = kwargs.get("out") or (
                call.args[2] if len(call.args) >= 3 else None
            )
            if out is not None:
                ov = join_arrays(self.eval(out, env))
                if ov is not None:
                    return frozenset({ov})
            if (
                src is not None
                and idx is not None
                and src.shape is not None
                and idx.shape is not None
                and len(src.shape) >= 1
            ):
                dims = tuple(idx.shape) + tuple(src.shape[1:])
                return frozenset({array_val(dims, src.dtype, line)})
            return _TOP_SET

        if np_name in ("stack", "vstack", "hstack", "column_stack",
                       "concatenate") and call.args:
            return self._eval_stack(np_name, call, kwargs, env, line)

        if np_name == "repeat" and len(call.args) >= 2:
            base = join_arrays(self.eval(call.args[0], env))
            axis = kwargs.get("axis") or (
                call.args[2] if len(call.args) >= 3 else None
            )
            if base is None or base.shape is None:
                return _TOP_SET
            if axis is None:
                return frozenset({array_val((DIM_TOP,), base.dtype, line)})
            if isinstance(axis, ast.Constant) and isinstance(axis.value, int):
                k = axis.value % len(base.shape) if base.shape else 0
                reps = self._dim_from_node(call.args[1], env)
                dims = list(base.shape)
                dims[k] = reps if is_one(dims[k]) else DIM_TOP
                return frozenset({array_val(tuple(dims), base.dtype, line)})
            return _TOP_SET
        if np_name == "tile" and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            dtype = base.dtype if base is not None else DTYPE_TOP
            return frozenset({array_val(None, dtype, line)})

        if np_name == "where" and len(call.args) == 3:
            a = join_arrays(self.eval(call.args[1], env))
            b = join_arrays(self.eval(call.args[2], env))
            if a is None or b is None:
                return _TOP_SET
            outcome = broadcast_shapes(a.shape, b.shape)
            return frozenset(
                {array_val(outcome.shape,
                           promote_dtypes(a.dtype, b.dtype), line)}
            )

        if np_name in _BINARY_UFUNCS and len(call.args) >= 2:
            a = join_arrays(self.eval(call.args[0], env))
            b = join_arrays(self.eval(call.args[1], env))
            if a is None or b is None:
                return _TOP_SET
            outcome = broadcast_shapes(a.shape, b.shape)
            dtype = promote_dtypes(a.dtype, b.dtype)
            if np_name in ("divide", "true_divide"):
                dtype = true_divide_dtype(a.dtype, b.dtype)
            out = kwargs.get("out")
            if out is not None:
                ov = join_arrays(self.eval(out, env))
                if ov is not None:
                    return frozenset({ov})
            return frozenset({array_val(outcome.shape, dtype, line)})

        if np_name in _UNARY_UFUNCS and call.args:
            base = join_arrays(self.eval(call.args[0], env))
            if base is None:
                return _TOP_SET
            dtype = base.dtype
            if np_name in _FLOAT_UFUNCS and not is_float_dtype(dtype):
                dtype = "float64" if dtype != DTYPE_TOP else DTYPE_TOP
            out = kwargs.get("out")
            if out is not None:
                ov = join_arrays(self.eval(out, env))
                if ov is not None:
                    return frozenset({ov})
            return frozenset({array_val(base.shape, dtype, line)})

        if np_name in ("linalg",):  # np.linalg.* handled via chain below
            return _TOP_SET
        chain = attribute_chain(call.func)
        if (
            chain is not None
            and len(chain) == 3
            and chain[0] in self._aliases.numpy_names
            and chain[1] == "linalg"
            and chain[2] == "norm"
        ):
            axis = kwargs.get("axis")
            base = join_arrays(self.eval(call.args[0], env)) if call.args else None
            if base is not None and axis is not None:
                return frozenset(
                    {self._reduce(base, "norm", axis,
                                  kwargs.get("keepdims"), line)}
                )
            return frozenset({array_val((), "float64", line)})

        # Annotated project functions: apply the interprocedural summary.
        summary = self._summary_for_call(call)
        if summary is not None and summary.ret is not None:
            arg_shapes = self._actual_arg_shapes(call, summary, env)
            bindings = _bind_summary_syms(summary, arg_shapes)
            dims = summary.ret.dims
            if dims is not None:
                dims = _substitute_dims(dims, bindings)
            return frozenset({array_val(dims, summary.ret.dtype, line)})

        return _TOP_SET

    def _matmul_result(
        self,
        a: Optional[ShapeVal],
        b: Optional[ShapeVal],
        kwargs: Dict[str, ast.expr],
        env: SEnv,
        line: int,
    ) -> SValueSet:
        out = kwargs.get("out")
        if out is not None:
            ov = join_arrays(self.eval(out, env))
            if ov is not None:
                return frozenset({ov})
        if a is None or b is None:
            return _TOP_SET
        outcome = matmul_shapes(a.shape, b.shape)
        return frozenset(
            {array_val(outcome.shape, promote_dtypes(a.dtype, b.dtype), line)}
        )

    def _eval_reshape(
        self,
        target: ast.AST,
        shape_args: Sequence[ast.AST],
        env: SEnv,
        line: int,
    ) -> SValueSet:
        base = join_arrays(self.eval(target, env))
        dtype = base.dtype if base is not None else DTYPE_TOP
        if len(shape_args) == 1 and isinstance(
            shape_args[0], (ast.Tuple, ast.List)
        ):
            shape_args = list(shape_args[0].elts)
        dims = tuple(self._dim_from_node(a, env) for a in shape_args)
        if not dims:
            return _TOP_SET
        return frozenset({array_val(dims, dtype, line)})

    def _eval_stack(
        self,
        np_name: str,
        call: ast.Call,
        kwargs: Dict[str, ast.expr],
        env: SEnv,
        line: int,
    ) -> SValueSet:
        seq = call.args[0]
        if not isinstance(seq, (ast.Tuple, ast.List)):
            base = join_arrays(self.eval(seq, env))
            dtype = base.dtype if base is not None else DTYPE_TOP
            return frozenset({array_val(None, dtype, line)})
        elems = [join_arrays(self.eval(e, env)) for e in seq.elts]
        elems = [e for e in elems if e is not None]
        if not elems:
            return _TOP_SET
        joined = elems[0]
        for e in elems[1:]:
            joined = _join_two_arrays(joined, e)
        dtype = joined.dtype
        n = lit(len(seq.elts))
        axis = kwargs.get("axis")
        axis_i = (
            axis.value
            if isinstance(axis, ast.Constant) and isinstance(axis.value, int)
            else 0
        )
        if np_name == "stack":
            if joined.shape is None:
                return frozenset({array_val(None, dtype, line)})
            rank = len(joined.shape) + 1
            axis_i %= rank
            dims = list(joined.shape)
            dims.insert(axis_i, n)
            return frozenset({array_val(tuple(dims), dtype, line)})
        if joined.shape is None:
            return frozenset({array_val(None, dtype, line)})
        dims = list(joined.shape)
        if np_name == "vstack":
            axis_i = 0
        if np_name in ("hstack", "column_stack"):
            axis_i = min(1, len(dims) - 1) if dims else 0
        if 0 <= axis_i < len(dims):
            dims[axis_i] = DIM_TOP  # concatenation sums extents
        return frozenset({array_val(tuple(dims), dtype, line)})

    def _literal_list_shape(
        self, node: ast.AST, env: SEnv
    ) -> Tuple[Optional[Tuple[Dim, ...]], str]:
        """Shape of ``np.array([...])`` over a literal list display."""
        if not isinstance(node, (ast.List, ast.Tuple)):
            return None, DTYPE_TOP
        elems = [join_arrays(self.eval(e, env)) for e in node.elts]
        if not elems or any(e is None for e in elems):
            return (lit(len(node.elts)),), DTYPE_TOP
        inner = elems[0]
        for e in elems[1:]:
            inner = _join_two_arrays(inner, e)  # type: ignore[arg-type]
        dtype = inner.dtype  # type: ignore[union-attr]
        dtype = {"weak_int": "int64", "weak_float": "float64",
                 "weak_bool": "bool"}.get(dtype, dtype)
        if inner.shape == ():  # type: ignore[union-attr]
            return (lit(len(node.elts)),), dtype
        if inner.shape is None:  # type: ignore[union-attr]
            return None, dtype
        return (lit(len(node.elts)),) + tuple(inner.shape), dtype  # type: ignore[union-attr]

    def _reduce(
        self,
        base: ShapeVal,
        op: Optional[str],
        axis_arg: Optional[ast.AST],
        keepdims_arg: Optional[ast.AST],
        line: int,
    ) -> ShapeVal:
        dtype = base.dtype
        if op in ("mean", "std", "var", "norm") and not is_float_dtype(dtype):
            dtype = "float64" if dtype != DTYPE_TOP else DTYPE_TOP
        if op in ("sum", "prod") and dtype in ("bool", "weak_bool"):
            dtype = "int64"
        if op in ("argmax", "argmin", "count_nonzero"):
            dtype = "int64"
        if op in ("all", "any"):
            dtype = "bool"
        keepdims = (
            isinstance(keepdims_arg, ast.Constant)
            and keepdims_arg.value is True
        )
        if base.shape is None:
            return array_val(None, dtype, line)
        if axis_arg is None:
            return array_val(
                tuple(lit(1) for _ in base.shape) if keepdims else (),
                dtype,
                line,
            )
        if isinstance(axis_arg, ast.Constant) and isinstance(
            axis_arg.value, int
        ):
            rank = len(base.shape)
            if rank == 0:
                return array_val((), dtype, line)
            k = axis_arg.value % rank
            dims = list(base.shape)
            if keepdims:
                dims[k] = lit(1)
            else:
                dims.pop(k)
            return array_val(tuple(dims), dtype, line)
        return array_val(None, dtype, line)

    def _eval_binop(
        self, left: SValueSet, right: SValueSet, op: ast.operator, line: int
    ) -> SValueSet:
        a = join_arrays(left)
        b = join_arrays(right)
        # dim arithmetic: n - 1, n * 2 … stays a dim-ish scalar (top dim).
        ldims = [v for v in left if v.kind == "dim"]
        rdims = [v for v in right if v.kind == "dim"]
        if (ldims or rdims) and a is None and b is None:
            return _TOP_SET
        if a is None or b is None:
            return _TOP_SET
        if isinstance(op, ast.MatMult):
            outcome = matmul_shapes(a.shape, b.shape)
            return frozenset(
                {array_val(outcome.shape,
                           promote_dtypes(a.dtype, b.dtype), line)}
            )
        outcome = broadcast_shapes(a.shape, b.shape)
        dtype = promote_dtypes(a.dtype, b.dtype)
        if isinstance(op, ast.Div):
            dtype = true_divide_dtype(a.dtype, b.dtype)
        return frozenset({array_val(outcome.shape, dtype, line)})

    def _eval_iteration(self, iterable: ast.AST, env: SEnv) -> SValueSet:
        vals = self.eval(iterable, env)
        base = join_arrays(vals)
        if base is not None and base.shape is not None and len(base.shape) >= 1:
            return frozenset(
                {array_val(tuple(base.shape[1:]), base.dtype,
                           base.origin_line)}
            )
        tuples = [v for v in vals if v.kind == "shape_tuple"]
        if tuples:
            dims: Set[ShapeVal] = set()
            for v in tuples:
                for d in v.shape or ():
                    dims.add(ShapeVal("dim", dim=d, origin_line=v.origin_line))
            if dims:
                return frozenset(dims)
        return _TOP_SET

    @staticmethod
    def _project_elements(values: SValueSet) -> SValueSet:
        out: Set[ShapeVal] = set()
        for v in values:
            if v.is_array() and v.shape is not None and len(v.shape) >= 1:
                out.add(array_val(tuple(v.shape[1:]), v.dtype, v.origin_line))
        return frozenset(out) if out else _TOP_SET

    # -- interprocedural helpers -------------------------------------------

    def _summary_for_call(self, call: ast.Call) -> Optional[FunctionSummary]:
        if self._resolver is not None:
            qual = self._resolver(call)
            if qual is not None and qual in self._summaries:
                return self._summaries[qual]
        if isinstance(call.func, ast.Name):
            return self._summaries.get(call.func.id)
        if isinstance(call.func, ast.Attribute):
            return self._method_summaries.get(call.func.attr)
        return None

    def _actual_arg_shapes(
        self, call: ast.Call, summary: FunctionSummary, env: SEnv
    ) -> Dict[str, Optional[Tuple[Dim, ...]]]:
        order = list(summary.param_order)
        if summary.is_method and isinstance(call.func, ast.Attribute):
            order = order[1:]
        shapes: Dict[str, Optional[Tuple[Dim, ...]]] = {}
        for pname, arg in zip(order, call.args):
            a = join_arrays(self.eval(arg, env))
            shapes[pname] = a.shape if a is not None else None
        for kw in call.keywords:
            if kw.arg is not None:
                a = join_arrays(self.eval(kw.value, env))
                shapes[kw.arg] = a.shape if a is not None else None
        return shapes


# ---------------------------------------------------------------------------
# Module-level driver
# ---------------------------------------------------------------------------


def collect_module_summaries(
    tree: ast.AST, lines: Sequence[str], module_name: Optional[str]
) -> Dict[str, FunctionSummary]:
    """Every annotated function in one module, keyed by qualified name
    (``module.func``, class dropped — matching the call-graph keying)
    and, for convenience, by bare name."""
    out: Dict[str, FunctionSummary] = {}
    prefix = f"{module_name}." if module_name else ""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = annotation_for(node, lines, f"{prefix}{node.name}")
            if summary is not None:
                out[summary.qualname] = summary
                out.setdefault(node.name, summary)
    return out


class ModuleShapes:
    """Shape/dtype analyses for every scope of one module.

    Built lazily by :meth:`FileContext.shapes`; rules query
    :meth:`value_of` with any expression node from the module tree.
    """

    def __init__(
        self,
        tree: ast.AST,
        lines: Sequence[str],
        *,
        module_name: Optional[str] = None,
        summaries: Optional[Dict[str, FunctionSummary]] = None,
        method_summaries: Optional[Dict[str, FunctionSummary]] = None,
        call_resolver: Optional[Callable[[ast.Call], Optional[str]]] = None,
    ) -> None:
        aliases = NumpyAliases(tree)
        local = collect_module_summaries(tree, lines, module_name)
        merged = dict(summaries or {})
        merged.update(local)
        methods = dict(method_summaries or {})
        for s in local.values():
            if s.is_method:
                methods.setdefault(s.qualname.rsplit(".", 1)[-1], s)
        self.summaries = merged
        self.scopes: List[ScopeShapeAnalysis] = []
        self._scope_of_def: Dict[int, ScopeShapeAnalysis] = {}
        bodies: List[Tuple[Optional[ast.AST], List[ast.stmt]]] = [
            (None, tree.body)
        ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bodies.append((node, node.body))
        for scope_node, body in bodies:
            summary = None
            if scope_node is not None:
                name = getattr(scope_node, "name", "")
                summary = merged.get(f"{module_name}.{name}" if module_name else name)
                if summary is None:
                    summary = local.get(name)
                # Only seed when the annotation belongs to *this* def.
                if summary is not None and summary.lineno != scope_node.lineno:
                    summary = None
            scope = ScopeShapeAnalysis(
                body,
                aliases,
                scope_node=scope_node,
                summary=summary,
                summaries=merged,
                method_summaries=methods,
                call_resolver=call_resolver,
            )
            self.scopes.append(scope)
            if scope_node is not None:
                self._scope_of_def[id(scope_node)] = scope

    def scope_for_def(
        self, node: ast.AST
    ) -> Optional[ScopeShapeAnalysis]:
        return self._scope_of_def.get(id(node))

    def scope_containing(self, expr: ast.AST) -> Optional[ScopeShapeAnalysis]:
        for scope in reversed(self.scopes):
            if scope.enclosing_unit(expr) is not None:
                return scope
        return None

    def value_of(self, expr: ast.AST) -> SValueSet:
        scope = self.scope_containing(expr)
        if scope is None:
            return _TOP_SET
        return scope.value_of(expr)

    def array_of(self, expr: ast.AST) -> Optional[ShapeVal]:
        scope = self.scope_containing(expr)
        if scope is None:
            return None
        return scope.array_of(expr)
