//! Property tests for the VM's binary instruction encoding: every
//! instruction round-trips through encode/decode, instruction streams
//! decode at exactly the boundaries the encoder produced, and the
//! disassembler never panics.
//!
//! Uses the registry-free `m3gc-testkit` generator instead of `proptest`
//! so the workspace builds offline.

use m3gc_testkit::{run_cases, Rng};
use m3gc_vm::decode::{decode_instr, DecodedCode};
use m3gc_vm::disasm::format_instr;
use m3gc_vm::encode::{encode_instr, instr_size, unvlq64, vlq64};
use m3gc_vm::isa::{AluOp, Instr, UnAluOp, NUM_REGS};

fn arb_reg(rng: &mut Rng) -> u8 {
    rng.index(NUM_REGS) as u8
}

fn arb_breg(rng: &mut Rng) -> m3gc_core::layout::BaseReg {
    *rng.pick(&[
        m3gc_core::layout::BaseReg::Fp,
        m3gc_core::layout::BaseReg::Sp,
        m3gc_core::layout::BaseReg::Ap,
    ])
}

fn arb_alu(rng: &mut Rng) -> AluOp {
    *rng.pick(&AluOp::ALL)
}

fn arb_goff(rng: &mut Rng) -> u32 {
    rng.range_u32(0, u32::MAX / 2)
}

fn arb_instr(rng: &mut Rng) -> Instr {
    match rng.index(26) {
        0 => Instr::MovI { dst: arb_reg(rng), imm: rng.next_i64() },
        1 => Instr::Mov { dst: arb_reg(rng), src: arb_reg(rng) },
        2 => Instr::Alu { op: arb_alu(rng), dst: arb_reg(rng), a: arb_reg(rng), b: arb_reg(rng) },
        3 => Instr::AluI {
            op: arb_alu(rng),
            dst: arb_reg(rng),
            a: arb_reg(rng),
            imm: rng.next_i64(),
        },
        4 => Instr::UnAlu { op: UnAluOp::Neg, dst: arb_reg(rng), a: arb_reg(rng) },
        5 => Instr::UnAlu { op: UnAluOp::Not, dst: arb_reg(rng), a: arb_reg(rng) },
        6 => Instr::Ld { dst: arb_reg(rng), base: arb_reg(rng), off: rng.next_i32() },
        7 => Instr::St { base: arb_reg(rng), off: rng.next_i32(), src: arb_reg(rng) },
        8 => Instr::LdF { dst: arb_reg(rng), breg: arb_breg(rng), off: rng.next_i32() },
        9 => Instr::StF { breg: arb_breg(rng), off: rng.next_i32(), src: arb_reg(rng) },
        10 => Instr::Lea { dst: arb_reg(rng), breg: arb_breg(rng), off: rng.next_i32() },
        11 => Instr::LdG { dst: arb_reg(rng), goff: arb_goff(rng) },
        12 => Instr::StG { goff: arb_goff(rng), src: arb_reg(rng) },
        13 => Instr::LeaG { dst: arb_reg(rng), goff: arb_goff(rng) },
        14 => Instr::Push { src: arb_reg(rng) },
        15 => Instr::Call { proc: rng.next_u32() as u16, nargs: rng.next_u32() as u8 },
        16 => Instr::Ret,
        17 => Instr::Jmp { target: rng.next_u32() },
        18 => Instr::Brt { cond: arb_reg(rng), target: rng.next_u32() },
        19 => Instr::Brf { cond: arb_reg(rng), target: rng.next_u32() },
        20 => Instr::Alloc { dst: arb_reg(rng), ty: rng.next_u32() as u16 },
        21 => Instr::AllocA { dst: arb_reg(rng), ty: rng.next_u32() as u16, len: arb_reg(rng) },
        22 => Instr::GcPoint,
        23 => Instr::Sys { code: rng.index(6) as u8, arg: arb_reg(rng) },
        24 => Instr::StB { base: arb_reg(rng), off: rng.next_i32(), src: arb_reg(rng) },
        _ => Instr::Halt,
    }
}

#[test]
fn vlq64_roundtrip() {
    run_cases("vlq64_roundtrip", 256, |rng| {
        let v = rng.next_i64();
        let mut buf = Vec::new();
        let n = vlq64(v, &mut buf);
        let (back, m) = unvlq64(&buf, 0).unwrap();
        assert_eq!(back, v);
        assert_eq!(m, n);
    });
}

#[test]
fn instruction_roundtrip() {
    run_cases("instruction_roundtrip", 512, |rng| {
        let ins = arb_instr(rng);
        let mut buf = Vec::new();
        let n = encode_instr(&ins, &mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(n, instr_size(&ins));
        let (back, m) = decode_instr(&buf, 0).expect("decodes");
        assert_eq!(back, ins);
        assert_eq!(m, n);
    });
}

#[test]
fn stream_roundtrip() {
    run_cases("stream_roundtrip", 128, |rng| {
        let instrs: Vec<Instr> = (0..rng.index(40)).map(|_| arb_instr(rng)).collect();
        let mut buf = Vec::new();
        let mut boundaries = Vec::new();
        for i in &instrs {
            boundaries.push(buf.len() as u32);
            encode_instr(i, &mut buf);
        }
        let decoded = DecodedCode::new(&buf);
        assert_eq!(decoded.ops().len(), instrs.len());
        for (k, (ins, _)) in decoded.instrs().enumerate() {
            assert_eq!(ins, &instrs[k]);
            assert_eq!(decoded.at(boundaries[k]).0, &instrs[k]);
        }
    });
}

#[test]
fn disassembly_never_panics_and_is_nonempty() {
    run_cases("disassembly_never_panics_and_is_nonempty", 512, |rng| {
        let s = format_instr(&arb_instr(rng));
        assert!(!s.is_empty());
    });
}
