"""The typed loop-nest IR: expressions, statements, registry."""

import pytest

from repro.codee import loopir
from repro.codee.loopir import (
    ArrayParam,
    Bin,
    Call,
    Const,
    Kernel,
    Load,
    Loop,
    ScalarParam,
    Store,
    Sym,
    as_expr,
    expr_loads,
    expr_syms,
    subst,
    walk_ir,
)


#: The compiled row-local FSBM point kernels (condensation growth, the
#: collision limiter/update passes in both precisions, nucleation,
#: freezing/melting and the driver's row census).
FSBM_POINT_KERNELS = (
    "cond_grow",
    "coal_limit_f64",
    "coal_update_f64",
    "coal_limit_f32",
    "coal_update_f32",
    "nucleate_rows",
    "freeze_melt_rows",
    "census_rows",
)

#: libm calls a compiled kernel may make; each has a ``<name>f`` float
#: twin that a float kernel would have to call instead.
LIBM_DOUBLE_CALLS = ("exp", "sqrt", "fabs")


class TestExpressions:
    def test_operator_sugar_builds_trees(self):
        a, b = Sym("a"), Sym("b")
        assert a + b == Bin("+", a, b)
        assert a * 2 == Bin("*", a, Const(2))
        assert 1 - a == Bin("-", Const(1), a)
        assert (-a).op == "-"
        assert a.lt(b) == Bin("<", a, b)
        assert a.logical_and(b) == Bin("&&", a, b)

    def test_structural_equality(self):
        assert Sym("x") + 1 == Sym("x") + 1
        assert Sym("x") + 1 != Sym("x") + 2

    def test_as_expr_coercion(self):
        assert as_expr(3) == Const(3)
        assert as_expr(2.5) == Const(2.5)
        assert as_expr("n") == Sym("n")
        with pytest.raises(TypeError, match="bool"):
            as_expr(True)

    def test_walk_and_queries(self):
        e = Load("a", (Sym("i"),)) + Sym("k") * Const(2)
        assert expr_syms(e) == {"i", "k"}
        assert [ld.array for ld in expr_loads(e)] == ["a"]
        assert sum(1 for _ in walk_ir(e)) == 6

    def test_subst_reaches_subscripts(self):
        e = Load("a", (Sym("i") + 1,))
        out = subst(e, {"i": Sym("j")})
        assert out == Load("a", (Sym("j") + 1,))

    def test_intrinsic_calls_are_pure_expressions(self):
        e = Call("ilogb", (Load("m", (Sym("i"),)) / Sym("x0"),))
        assert expr_syms(e) == {"i", "x0"}
        assert [ld.array for ld in expr_loads(e)] == ["m"]
        assert subst(e, {"i": Sym("j")}) == Call(
            "ilogb", (Load("m", (Sym("j"),)) / Sym("x0"),)
        )
        with pytest.raises(ValueError, match="not a pure IR intrinsic"):
            Call("printf", (Sym("x"),))

    def test_float_literals(self):
        from repro.codee.cgen import emit_kernel

        k = Kernel(
            name="halve",
            params=(
                ArrayParam("x", strides=(Const(1),), ctype="float", intent="inout"),
                ScalarParam("n", "long"),
            ),
            body=[
                Loop(
                    "i",
                    Const(0),
                    Sym("n"),
                    [Store("x", (Sym("i"),), Load("x", (Sym("i"),)) * Const(0.5, "float"))],
                )
            ],
        )
        assert "(x[i] * 0.5f)" in emit_kernel(k)

    def test_math_header_only_with_intrinsics(self):
        from repro.codee.cgen import emit_module

        def kernel(value):
            return Kernel(
                name="k",
                params=(
                    ArrayParam("x", strides=(Const(1),), intent="inout"),
                    ScalarParam("n", "long"),
                ),
                body=[Loop("i", Const(0), Sym("n"), [Store("x", (Sym("i"),), value)])],
            )

        plain = emit_module([kernel(Load("x", (Sym("i"),)))])
        assert "#include <math.h>" not in plain
        called = emit_module([kernel(Call("fabs", (Load("x", (Sym("i"),)),)))])
        assert "#include <math.h>" in called
        assert "fabs(x[i])" in called

    @pytest.mark.parametrize("fn", ["exp", "sqrt"])
    def test_libm_intrinsics_emit_with_math_header(self, fn):
        from repro.codee.cgen import emit_module

        x = Load("x", (Sym("i"),))
        kernel = Kernel(
            name="k",
            params=(
                ArrayParam("x", strides=(Const(1),), intent="inout"),
                ScalarParam("n", "long"),
            ),
            body=[
                Loop(
                    "i", Const(0), Sym("n"), [Store("x", (Sym("i"),), Call(fn, (x,)))]
                )
            ],
        )
        src = emit_module([kernel])
        assert "#include <math.h>" in src
        assert f"{fn}(x[i])" in src
        assert fn in loopir.PURE_INTRINSICS


class TestLoops:
    def _nest(self):
        inner = Loop("j", Const(0), Sym("n"), [])
        return Loop("i", Const(0), Sym("n"), [inner]), inner

    def test_perfect_nest_chain(self):
        outer, inner = self._nest()
        assert outer.nest_chain() == [outer, inner]
        assert outer.nest_vars() == ["i", "j"]
        assert outer.nest_depth() == 2

    def test_imperfect_nest_stops_the_chain(self):
        inner = Loop("j", Const(0), Sym("n"), [])
        outer = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Store("a", (Sym("i"),), Const(0)), inner],
        )
        assert outer.nest_depth() == 1


class TestKernel:
    def _kernel(self):
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Store("out", (Sym("i"),), Load("src", (Sym("i"),)))],
        )
        return Kernel(
            name="copy1d",
            params=(
                ArrayParam("src", strides=(Const(1),)),
                ArrayParam("out", strides=(Const(1),), intent="out"),
                ScalarParam("n", "long"),
            ),
            body=[nest],
        )

    def test_param_lookup(self):
        k = self._kernel()
        assert set(k.arrays()) == {"src", "out"}
        assert set(k.scalars()) == {"n"}
        assert k.param("n").ctype == "long"
        with pytest.raises(KeyError):
            k.param("missing")

    def test_statement_lines_are_preorder_and_stable(self):
        k = self._kernel()
        lines = k.statement_lines()
        nest = k.body[0]
        assert lines[id(nest)] == 1
        assert lines[id(nest.body[0])] == 2
        assert k.statement_lines() == lines


class TestRegistry:
    def test_production_kernels_registered(self):
        names = set(loopir.registered_kernels())
        assert {"advect_stage", "sed_sweep", "remap_scatter"} <= names
        assert set(FSBM_POINT_KERNELS) <= names
        assert "broken_offload_ir" in names

    def test_fixture_excluded_from_gate(self):
        gated = loopir.gate_kernels()
        assert "broken_offload_ir" not in gated
        assert "advect_stage" in gated

    def test_final_kernel_applies_the_transform(self):
        spec = loopir.registered_kernels()["advect_stage"]
        kernel = spec.final_kernel()
        assert any(lp.parallel for lp in kernel.loops())

    def test_fixture_spec_is_fixed(self):
        spec = loopir.registered_kernels()["broken_offload_ir"]
        assert spec.plan() is None
        assert spec.final_kernel().loops()[0].parallel


class TestFsbmPointKernels:
    """The compiled FSBM point kernels pass the IR gate and stay serial."""

    @pytest.mark.parametrize("name", FSBM_POINT_KERNELS)
    def test_verified_clean_and_serial(self, name):
        from repro.codee import irverify

        spec = loopir.gate_kernels()[name]
        kernel = spec.final_kernel()
        assert not [
            v for v in irverify.verify_kernel(kernel) if v.severity == "error"
        ]
        assert not any(
            lp.parallel or lp.simd
            for lp in loopir.walk_ir_stmts(kernel.body)
            if isinstance(lp, Loop)
        )

    def test_float_variants_call_no_double_libm(self):
        """The float collision passes keep their arithmetic float: no
        double libm call (``exp``, ``sqrt``, ``fabs``) appears in them,
        while the double kernels that need one do call it."""
        import re

        from repro.fsbm import ckernels

        src = ckernels.C_SOURCE
        assert "#include <math.h>" in src

        def body(name):
            text = src[src.index(f"void {name}(") :]
            return text[: text.index("\n}\n")]

        for name in ("coal_limit_f32", "coal_update_f32"):
            for fn in LIBM_DOUBLE_CALLS:
                assert not re.search(rf"\b{fn}\(", body(name)), (name, fn)
        assert re.search(r"\bexp\(", body("nucleate_rows"))
        assert re.search(r"\bsqrt\(", body("nucleate_rows"))
        assert re.search(r"\bexp\(", body("freeze_melt_rows"))

    def test_codee_transform_emits_them_serial(self, capsys):
        from repro.codee.cli import main

        assert main(["transform", "--emit", *FSBM_POINT_KERNELS]) == 0
        out = capsys.readouterr().out
        for name in FSBM_POINT_KERNELS:
            assert f"void {name}(" in out
        assert "#pragma omp" not in out
