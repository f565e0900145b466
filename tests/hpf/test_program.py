"""End-to-end compiler tests: directives + statements -> executable code
whose results match the sequential reference."""

import numpy as np
import pytest

from repro.apps.workloads import random_field
from repro.hpf.directives import Distribute, DistFormat, Processors, Template
from repro.hpf.program import (
    HpfProgram,
    PointwiseStmt,
    StencilStmt,
    SweepStmt,
    compile_program,
)
from repro.sweep.ops import PointwiseOp, SweepOp, star_laplacian
from repro.sweep.sequential import run_sequential


def program(shape=(12, 12, 12), p=6, formats=None) -> HpfProgram:
    formats = formats or (DistFormat.MULTI,) * len(shape)
    return HpfProgram(
        distribute=Distribute(
            Template("t", shape), formats, Processors("procs", p)
        ),
        statements=(
            SweepStmt(axis=0, mult=0.5),
            PointwiseStmt(fn=lambda b: b + 1.0, name="inc"),
            SweepStmt(axis=1, mult=0.25, reverse=True),
            SweepStmt(axis=2, mult=0.75),
        ),
    )


class TestCompile:
    def test_schedule_lowering(self):
        compiled = compile_program(program())
        kinds = [type(op).__name__ for op in compiled.schedule]
        assert kinds == ["SweepOp", "PointwiseOp", "SweepOp", "SweepOp"]

    def test_comm_plans_per_sweep(self):
        compiled = compile_program(program())
        assert len(compiled.comm_plans) == 3
        assert compiled.planned_messages > 0
        assert compiled.planned_elements > 0

    def test_sweep_on_star_axis_rejected(self):
        formats = (DistFormat.MULTI, DistFormat.MULTI, DistFormat.STAR)
        with pytest.raises(ValueError):
            compile_program(program(formats=formats))

    def test_unknown_statement_rejected(self):
        prog = HpfProgram(
            distribute=program().distribute, statements=("bogus",)
        )
        with pytest.raises(TypeError):
            compile_program(prog)


class TestRun:
    def test_multi_matches_sequential(self, machine):
        prog = program()
        compiled = compile_program(prog)
        field = random_field((12, 12, 12))
        ref = run_sequential(field, list(compiled.schedule))
        out, res = compiled.run(field, machine)
        assert np.allclose(out, ref, atol=1e-12)
        assert res.message_count == compiled.planned_messages

    def test_block_wavefront_path(self, machine):
        shape = (12, 12, 12)
        formats = (DistFormat.BLOCK, DistFormat.STAR, DistFormat.STAR)
        prog = HpfProgram(
            distribute=Distribute(
                Template("t", shape), formats, Processors("procs", 4)
            ),
            statements=(
                SweepStmt(axis=0, mult=0.5),
                SweepStmt(axis=1, mult=0.5),
            ),
        )
        compiled = compile_program(prog)
        field = random_field(shape)
        ref = run_sequential(field, list(compiled.schedule))
        out, _ = compiled.run(field, machine)
        assert np.allclose(out, ref, atol=1e-12)

    def test_block_grid_path(self, machine):
        """Two BLOCK axes run on the resolved 2 x 2 processor grid."""
        shape = (12, 10, 8)
        formats = (DistFormat.BLOCK, DistFormat.BLOCK, DistFormat.STAR)
        laplacian = star_laplacian(3)
        prog = HpfProgram(
            distribute=Distribute(
                Template("t", shape), formats, Processors("procs", 4)
            ),
            statements=(
                SweepStmt(axis=0, mult=0.5),
                StencilStmt(fn=laplacian.fn, reach=laplacian.reach),
                SweepStmt(axis=1, mult=0.25, reverse=True),
                SweepStmt(axis=2, mult=0.75),
            ),
        )
        compiled = compile_program(prog)
        assert compiled.resolution.proc_grid == (2, 2, 1)
        field = random_field(shape)
        ref = run_sequential(field, list(compiled.schedule))
        out, res = compiled.run(field, machine)
        assert np.allclose(out, ref, rtol=0, atol=1e-12)
        assert res.message_count > 0

    def test_star_axis_embedding_runs(self, machine):
        shape = (12, 12, 6)
        formats = (DistFormat.MULTI, DistFormat.MULTI, DistFormat.STAR)
        prog = HpfProgram(
            distribute=Distribute(
                Template("t", shape), formats, Processors("procs", 4)
            ),
            statements=(
                SweepStmt(axis=0, mult=0.5),
                SweepStmt(axis=1, mult=0.5, reverse=True),
            ),
        )
        compiled = compile_program(prog)
        field = random_field(shape)
        ref = run_sequential(field, list(compiled.schedule))
        out, _ = compiled.run(field, machine)
        assert np.allclose(out, ref, atol=1e-12)
