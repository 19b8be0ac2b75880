"""Typed loop-nest IR for the dependence-driven codegen pipeline.

The hand-written C kernels of PR 3/5 (`repro.wrf.cstencil`,
`repro.fsbm.ckernels`) encode exactly the loop structures the paper's
workflow *derives*: perfectly nested rectangular loops over array
parameters with known layouts, per-iteration scalar temporaries,
guards, stack-local accumulators, and an OpenMP annotation set
(``parallel for collapse(n)`` + inner ``simd``) justified by dependence
analysis. This module gives those structures a first-class
representation so the static machinery of `repro.codee` can analyze,
transform, verify, and finally *emit* them instead of trusting opaque
C strings:

* expressions — :class:`Const`/:class:`Sym`/:class:`Load`/:class:`Bin`/
  :class:`Un`/:class:`Select`/:class:`Call`, frozen dataclasses with structural
  equality (the dependence tests compare subscript expressions
  directly) and Python operator overloading so kernel definitions read
  like the math they encode;
* statements — :class:`Let` (single-assignment temporary),
  :class:`Decl`/:class:`Assign` (mutable scalar), :class:`Store`
  (array write, plain or ``+=``/``-=`` accumulation),
  :class:`LocalArray` (the C analog of a Fortran automatic array),
  :class:`If`, and :class:`Loop` — whose ``parallel``/``collapse``/
  ``simd`` annotations start empty and are filled in by
  `repro.codee.transform` passes, never by hand (the one exception is
  the seeded-race fixture below, which exists to be refused);
* parameters — :class:`ArrayParam` with per-dimension element-stride
  expressions (symbolic strides like the runtime ``(si, sk, sj)`` of
  the sedimentation superblock views are ordinary :class:`Sym` nodes)
  and pointer-table layouts (``double **``), plus :class:`ScalarParam`;
* a process-wide registry of :class:`KernelSpec` entries so the CLI
  (``codee transform`` / ``codee verify --ir``), the optimization
  pipeline's verify gate, and the ``verify_sources`` lint gate all see
  the same kernels the production modules compile.

The IR is deliberately small: rectangular counted loops, C scalar
types, and affine-or-indirect subscripts cover every kernel this repo
compiles, and anything the transformation engine cannot prove about
them is refused rather than guessed (`repro.codee.irverify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Union

# --- expressions ------------------------------------------------------------


class _ExprOps:
    """Operator sugar building :class:`Bin`/:class:`Un` trees.

    Arithmetic uses the native Python operators; comparisons use named
    methods (``a.lt(b)``) because dataclass ``__eq__`` is reserved for
    the structural equality the analyses depend on.
    """

    def __add__(self, other: "ExprLike") -> "Bin":
        return Bin("+", self, as_expr(other))

    def __radd__(self, other: "ExprLike") -> "Bin":
        return Bin("+", as_expr(other), self)

    def __sub__(self, other: "ExprLike") -> "Bin":
        return Bin("-", self, as_expr(other))

    def __rsub__(self, other: "ExprLike") -> "Bin":
        return Bin("-", as_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "Bin":
        return Bin("*", self, as_expr(other))

    def __rmul__(self, other: "ExprLike") -> "Bin":
        return Bin("*", as_expr(other), self)

    def __truediv__(self, other: "ExprLike") -> "Bin":
        return Bin("/", self, as_expr(other))

    def __rtruediv__(self, other: "ExprLike") -> "Bin":
        return Bin("/", as_expr(other), self)

    def __neg__(self) -> "Un":
        return Un("-", self)

    def lt(self, other: "ExprLike") -> "Bin":
        return Bin("<", self, as_expr(other))

    def gt(self, other: "ExprLike") -> "Bin":
        return Bin(">", self, as_expr(other))

    def le(self, other: "ExprLike") -> "Bin":
        return Bin("<=", self, as_expr(other))

    def ge(self, other: "ExprLike") -> "Bin":
        return Bin(">=", self, as_expr(other))

    def eq(self, other: "ExprLike") -> "Bin":
        return Bin("==", self, as_expr(other))

    def ne(self, other: "ExprLike") -> "Bin":
        return Bin("!=", self, as_expr(other))

    def logical_and(self, other: "ExprLike") -> "Bin":
        return Bin("&&", self, as_expr(other))

    def logical_or(self, other: "ExprLike") -> "Bin":
        return Bin("||", self, as_expr(other))


@dataclass(frozen=True)
class Const(_ExprOps):
    """Integer or floating literal.

    ``ctype="float"`` emits a single-precision literal (``0.5f``), so a
    kernel built for ``float`` arithmetic is not promoted to double by
    its constants; the default emits the plain C literal.
    """

    value: int | float
    ctype: str = ""


@dataclass(frozen=True)
class Sym(_ExprOps):
    """Reference to a scalar: loop variable, parameter, or temporary."""

    name: str


@dataclass(frozen=True)
class Load(_ExprOps):
    """Array element read; ``index`` has one entry per dimension.

    For pointer-table arrays (``double **``) the first index selects
    the table entry and the remaining indices address into that row.
    """

    array: str
    index: tuple["Expr", ...]


@dataclass(frozen=True)
class Bin(_ExprOps):
    """Binary operation (C operator spelling)."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Un(_ExprOps):
    """Unary operation (``-`` or ``!``)."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Select(_ExprOps):
    """Ternary ``cond ? if_true : if_false`` (the clamped-edge idiom)."""

    cond: "Expr"
    if_true: "Expr"
    if_false: "Expr"


#: C intrinsics a :class:`Call` may name. Each is pure (no side
#: effects, no global state), so the analyses treat a call like an
#: operator. ``ilogb``, ``fabs`` and ``sqrt`` are exact (correctly
#: rounded by IEEE 754, whatever the libm); ``exp`` is not, so a kernel
#: calling it agrees with numpy's ``exp`` to rounding, not bitwise.
PURE_INTRINSICS = frozenset({"ilogb", "fabs", "sqrt", "exp"})


@dataclass(frozen=True)
class Call(_ExprOps):
    """Pure intrinsic call ``fn(args...)``, e.g. ``ilogb(x)``.

    Only names in :data:`PURE_INTRINSICS` are accepted, so the
    analyses may treat a call exactly like an operator: its reads are
    its arguments' reads and it writes nothing.
    """

    fn: str
    args: tuple["Expr", ...]

    def __post_init__(self):
        if self.fn not in PURE_INTRINSICS:
            raise ValueError(f"{self.fn!r} is not a pure IR intrinsic")


Expr = Union[Const, Sym, Load, Bin, Un, Select, Call]
ExprLike = Union[Expr, int, float, str]


def as_expr(value: ExprLike) -> Expr:
    """Coerce Python scalars/names into IR expressions."""
    if isinstance(value, (Const, Sym, Load, Bin, Un, Select, Call)):
        return value
    if isinstance(value, bool):  # bool is an int subclass; refuse it
        raise TypeError("bool is not an IR value; use Const(0)/Const(1)")
    if isinstance(value, (int, float)):
        return Const(value)
    if isinstance(value, str):
        return Sym(value)
    raise TypeError(f"cannot coerce {value!r} to an IR expression")


def walk_ir(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal of one expression tree."""
    yield expr
    if isinstance(expr, Load):
        for sub in expr.index:
            yield from walk_ir(sub)
    elif isinstance(expr, Bin):
        yield from walk_ir(expr.left)
        yield from walk_ir(expr.right)
    elif isinstance(expr, Un):
        yield from walk_ir(expr.operand)
    elif isinstance(expr, Select):
        yield from walk_ir(expr.cond)
        yield from walk_ir(expr.if_true)
        yield from walk_ir(expr.if_false)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_ir(arg)


def expr_syms(expr: Expr) -> set[str]:
    """Every scalar name referenced in the expression."""
    return {n.name for n in walk_ir(expr) if isinstance(n, Sym)}


def expr_loads(expr: Expr) -> list[Load]:
    """Every array read in the expression, in traversal order."""
    return [n for n in walk_ir(expr) if isinstance(n, Load)]


def subst(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Expression with :class:`Sym` nodes replaced per ``mapping``."""
    if isinstance(expr, Sym):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Load):
        return Load(expr.array, tuple(subst(s, mapping) for s in expr.index))
    if isinstance(expr, Bin):
        return Bin(expr.op, subst(expr.left, mapping), subst(expr.right, mapping))
    if isinstance(expr, Un):
        return Un(expr.op, subst(expr.operand, mapping))
    if isinstance(expr, Select):
        return Select(
            subst(expr.cond, mapping),
            subst(expr.if_true, mapping),
            subst(expr.if_false, mapping),
        )
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(subst(a, mapping) for a in expr.args))
    raise TypeError(f"not an IR expression: {expr!r}")


# --- statements -------------------------------------------------------------


@dataclass
class Let:
    """Single-assignment temporary: ``const <ctype> name = value;``."""

    name: str
    value: Expr
    ctype: str = "double"


@dataclass
class Decl:
    """Mutable scalar declaration, optionally initialized."""

    name: str
    ctype: str = "double"
    init: Expr | None = None


@dataclass
class Assign:
    """Mutable-scalar assignment ``name = value;``."""

    name: str
    value: Expr


@dataclass
class Store:
    """Array element write; ``op`` is ``"="``, ``"+="``, or ``"-="``."""

    array: str
    index: tuple[Expr, ...]
    value: Expr
    op: str = "="


@dataclass
class LocalArray:
    """Fixed-size stack-local array (the automatic-array analog)."""

    name: str
    size: int
    ctype: str = "double"


@dataclass
class If:
    """Guarded block with optional else branch."""

    cond: Expr
    body: list["Stmt"]
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass
class Loop:
    """Counted loop ``for (long var = start; var < stop; var++)``.

    The ``parallel``/``collapse``/``simd`` annotations are the
    transformation engine's output, not input: kernels are defined
    bare and `repro.codee.transform` fills these in only when its
    dependence analysis proves the annotation legal.
    """

    var: str
    start: Expr
    stop: Expr
    body: list["Stmt"]
    parallel: bool = False
    collapse: int = 1
    simd: bool = False
    schedule: str = "static"
    #: Approved ``(op, name)`` reduction clauses for this nest; an
    #: accumulation not covered here is a VFY009 finding.
    reductions: tuple[tuple[str, str], ...] = ()

    def nest_chain(self) -> list["Loop"]:
        """The perfect-nest chain: this loop and each only-child loop."""
        chain = [self]
        while len(chain[-1].body) == 1 and isinstance(chain[-1].body[0], Loop):
            chain.append(chain[-1].body[0])
        return chain

    def nest_vars(self) -> list[str]:
        return [lp.var for lp in self.nest_chain()]

    def nest_depth(self) -> int:
        return len(self.nest_chain())


Stmt = Union[Let, Decl, Assign, Store, LocalArray, If, Loop]


def walk_ir_stmts(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Preorder traversal of a statement list (into ifs and loops)."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from walk_ir_stmts(s.body)
            yield from walk_ir_stmts(s.orelse)
        elif isinstance(s, Loop):
            yield from walk_ir_stmts(s.body)


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """The expressions owned directly by one statement."""
    if isinstance(stmt, Let):
        return [stmt.value]
    if isinstance(stmt, Decl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [stmt.value]
    if isinstance(stmt, Store):
        return [*stmt.index, stmt.value]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, Loop):
        return [stmt.start, stmt.stop]
    return []


# --- parameters and kernels -------------------------------------------------


@dataclass(frozen=True)
class ScalarParam:
    """Pass-by-value scalar argument."""

    name: str
    ctype: str = "double"


@dataclass(frozen=True)
class ArrayParam:
    """Pointer argument with an explicit element-stride layout.

    ``strides`` gives the element stride of each subscript position;
    entries are expressions, so runtime strides (``Sym("si")``) and
    derived ones (``Sym("nj") * Sym("ns")``) are both representable.
    With ``ptr_table=True`` the parameter is a ``<ctype> **`` whose
    first subscript selects a table row and ``strides`` covers the
    remaining positions (the ``dists[sp]`` layout of ``sed_sweep``).
    ``alias_group`` marks parameters that may refer to overlapping
    storage; a nonempty group suppresses the aliasing assumptions the
    verifier otherwise enforces for ``restrict`` pointers.
    """

    name: str
    strides: tuple[Expr, ...]
    ctype: str = "double"
    intent: str = "in"  # in | out | inout | scratch
    ptr_table: bool = False
    restrict: bool = True
    alias_group: str = ""

    @property
    def rank(self) -> int:
        return len(self.strides) + (1 if self.ptr_table else 0)


Param = Union[ScalarParam, ArrayParam]


@dataclass
class Kernel:
    """One C function: parameters plus a statement body."""

    name: str
    params: tuple[Param, ...]
    body: list[Stmt]
    doc: str = ""

    def arrays(self) -> dict[str, ArrayParam]:
        return {p.name: p for p in self.params if isinstance(p, ArrayParam)}

    def scalars(self) -> dict[str, ScalarParam]:
        return {p.name: p for p in self.params if isinstance(p, ScalarParam)}

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name} has no parameter {name!r}")

    def loops(self) -> list[Loop]:
        """Top-level loop nests, in order."""
        return [s for s in self.body if isinstance(s, Loop)]

    def local_arrays(self) -> list[LocalArray]:
        return [s for s in walk_ir_stmts(self.body) if isinstance(s, LocalArray)]

    def statement_lines(self) -> dict[int, int]:
        """``id(stmt) -> 1-based preorder index`` (pseudo line numbers).

        The IR has no source lines; the verifier and its SARIF output
        need deterministic locations, so statements are numbered in
        preorder — stable across runs for a structurally identical
        kernel.
        """
        return {
            id(stmt): i
            for i, stmt in enumerate(walk_ir_stmts(self.body), start=1)
        }


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """One registered IR kernel: how to build, transform, and gate it.

    ``build`` returns a fresh, unannotated :class:`Kernel`;
    ``transform`` (when set) maps that kernel to a
    ``repro.codee.transform.TransformPlan`` whose annotated kernel is
    what actually gets verified and emitted. ``gate=False`` keeps a
    kernel out of the clean-verification lint gate (the seeded-race
    fixture) while leaving it addressable by name for ``codee verify
    --ir``.
    """

    name: str
    build: Callable[[], Kernel]
    transform: Callable[[Kernel], Any] | None = None
    gate: bool = True

    def plan(self) -> Any | None:
        """A fresh transformation plan, or ``None`` for fixed kernels."""
        if self.transform is None:
            return None
        return self.transform(self.build())

    def final_kernel(self) -> Kernel:
        """The kernel as compiled: transformed when a policy is set."""
        plan = self.plan()
        if plan is None:
            return self.build()
        return plan.kernel


_REGISTRY: dict[str, KernelSpec] = {}

#: Modules whose import registers production IR kernels.
_KERNEL_MODULES = ("repro.wrf.cstencil", "repro.fsbm.ckernels")


def register_kernel(spec: KernelSpec) -> KernelSpec:
    """Register (or re-register, idempotently) one kernel spec."""
    _REGISTRY[spec.name] = spec
    return spec


def registered_kernels(load: bool = True) -> dict[str, KernelSpec]:
    """All registered specs by name.

    With ``load=True`` (the default) the production kernel modules are
    imported first so their registrations are present regardless of
    import order — the CLI and the lint gate rely on this.
    """
    if load:
        import importlib

        for mod in _KERNEL_MODULES:
            importlib.import_module(mod)
    return dict(_REGISTRY)


def gate_kernels() -> dict[str, KernelSpec]:
    """The specs the clean-verification lint gate covers."""
    return {
        name: spec
        for name, spec in registered_kernels().items()
        if spec.gate
    }


# --- the seeded-race fixture ------------------------------------------------


def broken_offload_kernel() -> Kernel:
    """An intentionally illegal kernel: a hand-annotated parallel nest.

    ``out[i][0]`` ignores the collapsed ``j`` loop, so every ``j``
    iteration of one ``i`` races on the same element — the exact
    pattern ``VFY006`` exists to refuse. The annotation is seeded by
    hand (bypassing `repro.codee.transform`, which would never derive
    it); the lint gate asserts the verifier flags it and that
    `repro.codee.cgen` refuses to compile it.
    """
    i, j = Sym("i"), Sym("j")
    nest = Loop(
        "i",
        Const(0),
        Sym("n"),
        [
            Loop(
                "j",
                Const(0),
                Sym("n"),
                [Store("out", (i, Const(0)), Load("src", (i, j)))],
            )
        ],
        parallel=True,
        collapse=2,
    )
    return Kernel(
        name="broken_offload_ir",
        params=(
            ArrayParam("src", strides=(Sym("n"), Const(1))),
            ArrayParam("out", strides=(Sym("n"), Const(1)), intent="out"),
            ScalarParam("n", "long"),
        ),
        body=[nest],
        doc="seeded-race fixture: out[i][0] written by every j iteration",
    )


register_kernel(
    KernelSpec(name="broken_offload_ir", build=broken_offload_kernel, gate=False)
)
