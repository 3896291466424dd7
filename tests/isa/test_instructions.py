"""Unit tests for instruction and operand definitions."""

import pytest

from repro.isa.instructions import (
    BINARY_OPS,
    COMPARE_OPS,
    Imm,
    Instr,
    Label,
    Mem,
    Opcode,
    Reg,
    UNARY_OPS,
)
from repro.vm.microops import instr_effects


class TestOperands:
    def test_reg_valid(self):
        assert Reg("r0").name == "r0"
        assert Reg("sp").name == "sp"
        assert Reg("fp").name == "fp"

    def test_reg_invalid(self):
        with pytest.raises(ValueError):
            Reg("r9")
        with pytest.raises(ValueError):
            Reg("eax")

    def test_imm_str(self):
        assert str(Imm(5)) == "5"
        assert str(Imm(-3)) == "-3"
        assert str(Imm(1.5)) == "1.5"

    def test_mem_str(self):
        assert str(Mem(Reg("fp"), 2)) == "[fp+2]"
        assert str(Mem(Reg("fp"), -1)) == "[fp-1]"
        assert str(Mem(Reg("sp"))) == "[sp]"

    def test_label_str(self):
        assert str(Label("loop")) == "loop"


class TestInstrValidation:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instr("frobnicate")

    def test_binop_requires_valid_subop(self):
        with pytest.raises(ValueError):
            Instr(Opcode.BINOP, (Reg("r0"), Reg("r0"), Imm(1)), subop="pow")
        instr = Instr(Opcode.BINOP, (Reg("r0"), Reg("r0"), Imm(1)),
                      subop="add")
        assert instr.subop == "add"

    def test_unop_requires_valid_subop(self):
        with pytest.raises(ValueError):
            Instr(Opcode.UNOP, (Reg("r0"), Reg("r0")), subop="sqrt")

    def test_sys_requires_name(self):
        with pytest.raises(ValueError):
            Instr(Opcode.SYS)
        assert Instr(Opcode.SYS, subop="print").subop == "print"

    def test_all_binary_ops_accepted(self):
        for subop in BINARY_OPS:
            Instr(Opcode.BINOP, (Reg("r0"), Reg("r1"), Imm(2)), subop=subop)

    def test_all_unary_ops_accepted(self):
        for subop in UNARY_OPS:
            Instr(Opcode.UNOP, (Reg("r0"), Reg("r1")), subop=subop)

    def test_compare_ops_subset_of_binary(self):
        assert set(COMPARE_OPS) <= set(BINARY_OPS)


def _defs(instr):
    return instr_effects(instr).writes


def _uses(instr):
    return instr_effects(instr).reads


class TestRegDefsUses:
    """Static register defs/uses, read from the instruction's shape."""

    def test_mov_reg(self):
        instr = Instr(Opcode.MOV, (Reg("r1"), Reg("r2")))
        assert _defs(instr) == ("r1",)
        assert _uses(instr) == ("r2",)

    def test_mov_imm_has_no_uses(self):
        instr = Instr(Opcode.MOV, (Reg("r1"), Imm(5)))
        assert _uses(instr) == ()

    def test_ld_uses_base(self):
        instr = Instr(Opcode.LD, (Reg("r0"), Mem(Reg("fp"), -1)))
        assert _defs(instr) == ("r0",)
        assert _uses(instr) == ("fp",)

    def test_st_uses_base_and_source(self):
        instr = Instr(Opcode.ST, (Mem(Reg("fp"), -1), Reg("r3")))
        assert _defs(instr) == ()
        assert set(_uses(instr)) == {"fp", "r3"}

    def test_binop_defs_and_uses(self):
        instr = Instr(Opcode.BINOP, (Reg("r0"), Reg("r1"), Reg("r2")),
                      subop="add")
        assert _defs(instr) == ("r0",)
        assert set(_uses(instr)) == {"r1", "r2"}

    def test_binop_dedupes_uses(self):
        instr = Instr(Opcode.BINOP, (Reg("r0"), Reg("r1"), Reg("r1")),
                      subop="add")
        assert _uses(instr) == ("r1",)

    def test_push_defs_sp(self):
        instr = Instr(Opcode.PUSH, (Reg("r4"),))
        assert _defs(instr) == ("sp",)
        assert set(_uses(instr)) == {"r4", "sp"}

    def test_pop_defs_target_and_sp(self):
        instr = Instr(Opcode.POP, (Reg("r4"),))
        assert set(_defs(instr)) == {"r4", "sp"}
        assert _uses(instr) == ("sp",)

    def test_branch_uses_condition(self):
        instr = Instr(Opcode.BR, (Reg("r2"), Imm(7)))
        assert _uses(instr) == ("r2",)
        assert _defs(instr) == ()

    def test_call_touches_sp(self):
        instr = Instr(Opcode.CALL, (Imm(3),))
        assert _defs(instr) == ("sp",)
        assert _uses(instr) == ("sp",)


class TestClassification:
    def test_branches(self):
        assert Instr(Opcode.BR, (Reg("r0"), Imm(1))).is_branch()
        assert Instr(Opcode.BRZ, (Reg("r0"), Imm(1))).is_branch()
        assert not Instr(Opcode.JMP, (Imm(1),)).is_branch()

    def test_indirect_jump(self):
        assert Instr(Opcode.IJMP, (Reg("r0"),)).is_indirect_jump()

    def test_control_transfers(self):
        for op, operands in [
            (Opcode.JMP, (Imm(1),)),
            (Opcode.BR, (Reg("r0"), Imm(1))),
            (Opcode.IJMP, (Reg("r0"),)),
            (Opcode.CALL, (Imm(1),)),
            (Opcode.RET, ()),
            (Opcode.HALT, ()),
        ]:
            assert Instr(op, operands).is_control_transfer()
        assert not Instr(Opcode.MOV, (Reg("r0"), Imm(1))).is_control_transfer()

    def test_branch_target_label(self):
        instr = Instr(Opcode.BR, (Reg("r0"), Label("loop")))
        assert instr.branch_target() == "loop"
        instr = Instr(Opcode.JMP, (Label("end"),))
        assert instr.branch_target() == "end"
        assert Instr(Opcode.RET).branch_target() is None

    def test_str_forms(self):
        assert str(Instr(Opcode.MOV, (Reg("r0"), Imm(5)))) == "mov r0, 5"
        assert str(Instr(Opcode.BINOP, (Reg("r0"), Reg("r1"), Imm(2)),
                         subop="add")) == "add r0, r1, 2"
        assert str(Instr(Opcode.SYS, subop="print")) == "sys print"
