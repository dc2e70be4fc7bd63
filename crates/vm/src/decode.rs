//! Instruction decoding.

use m3gc_core::decode::DecoderIndex;

use crate::encode::{alu_from_byte, breg_from_byte, op_from_byte, unvlq64, Op};
use crate::isa::{Instr, UnAluOp};
use crate::module::{ProcMeta, VmModule};

/// Decodes the instruction at byte offset `pos`, returning it and its
/// encoded length. `None` on malformed input.
#[must_use]
pub fn decode_instr(code: &[u8], pos: usize) -> Option<(Instr, usize)> {
    let op = op_from_byte(*code.get(pos)?)?;
    let mut p = pos + 1;
    let byte = |p: &mut usize| -> Option<u8> {
        let b = *code.get(*p)?;
        *p += 1;
        Some(b)
    };
    let vlq = |p: &mut usize| -> Option<i64> {
        let (v, n) = unvlq64(code, *p)?;
        *p += n;
        Some(v)
    };
    let u16le = |p: &mut usize| -> Option<u16> {
        let v = u16::from_le_bytes([*code.get(*p)?, *code.get(*p + 1)?]);
        *p += 2;
        Some(v)
    };
    let u32le = |p: &mut usize| -> Option<u32> {
        let v = u32::from_le_bytes([
            *code.get(*p)?,
            *code.get(*p + 1)?,
            *code.get(*p + 2)?,
            *code.get(*p + 3)?,
        ]);
        *p += 4;
        Some(v)
    };
    let ins = match op {
        Op::MovI => {
            let dst = byte(&mut p)?;
            let imm = vlq(&mut p)?;
            Instr::MovI { dst, imm }
        }
        Op::Mov => Instr::Mov { dst: byte(&mut p)?, src: byte(&mut p)? },
        Op::Alu => {
            let op = alu_from_byte(byte(&mut p)?)?;
            Instr::Alu { op, dst: byte(&mut p)?, a: byte(&mut p)?, b: byte(&mut p)? }
        }
        Op::AluI => {
            let op = alu_from_byte(byte(&mut p)?)?;
            let dst = byte(&mut p)?;
            let a = byte(&mut p)?;
            let imm = vlq(&mut p)?;
            Instr::AluI { op, dst, a, imm }
        }
        Op::UnAlu => {
            let op = match byte(&mut p)? {
                0 => UnAluOp::Neg,
                1 => UnAluOp::Not,
                _ => return None,
            };
            Instr::UnAlu { op, dst: byte(&mut p)?, a: byte(&mut p)? }
        }
        Op::Ld => {
            let dst = byte(&mut p)?;
            let base = byte(&mut p)?;
            let off = vlq(&mut p)? as i32;
            Instr::Ld { dst, base, off }
        }
        Op::St => {
            let base = byte(&mut p)?;
            let src = byte(&mut p)?;
            let off = vlq(&mut p)? as i32;
            Instr::St { base, off, src }
        }
        Op::StB => {
            let base = byte(&mut p)?;
            let src = byte(&mut p)?;
            let off = vlq(&mut p)? as i32;
            Instr::StB { base, off, src }
        }
        Op::LdF => {
            let dst = byte(&mut p)?;
            let breg = breg_from_byte(byte(&mut p)?)?;
            let off = vlq(&mut p)? as i32;
            Instr::LdF { dst, breg, off }
        }
        Op::StF => {
            let breg = breg_from_byte(byte(&mut p)?)?;
            let src = byte(&mut p)?;
            let off = vlq(&mut p)? as i32;
            Instr::StF { breg, off, src }
        }
        Op::Lea => {
            let dst = byte(&mut p)?;
            let breg = breg_from_byte(byte(&mut p)?)?;
            let off = vlq(&mut p)? as i32;
            Instr::Lea { dst, breg, off }
        }
        Op::LdG => {
            let dst = byte(&mut p)?;
            let goff = vlq(&mut p)? as u32;
            Instr::LdG { dst, goff }
        }
        Op::StG => {
            let src = byte(&mut p)?;
            let goff = vlq(&mut p)? as u32;
            Instr::StG { goff, src }
        }
        Op::LeaG => {
            let dst = byte(&mut p)?;
            let goff = vlq(&mut p)? as u32;
            Instr::LeaG { dst, goff }
        }
        Op::Push => Instr::Push { src: byte(&mut p)? },
        Op::Call => {
            let proc = u16le(&mut p)?;
            let nargs = byte(&mut p)?;
            Instr::Call { proc, nargs }
        }
        Op::Ret => Instr::Ret,
        Op::Jmp => Instr::Jmp { target: u32le(&mut p)? },
        Op::Brt => {
            let cond = byte(&mut p)?;
            Instr::Brt { cond, target: u32le(&mut p)? }
        }
        Op::Brf => {
            let cond = byte(&mut p)?;
            Instr::Brf { cond, target: u32le(&mut p)? }
        }
        Op::Alloc => {
            let dst = byte(&mut p)?;
            let ty = u16le(&mut p)?;
            Instr::Alloc { dst, ty }
        }
        Op::AllocA => {
            let dst = byte(&mut p)?;
            let ty = u16le(&mut p)?;
            let len = byte(&mut p)?;
            Instr::AllocA { dst, ty, len }
        }
        Op::GcPoint => Instr::GcPoint,
        Op::Sys => Instr::Sys { code: byte(&mut p)?, arg: byte(&mut p)? },
        Op::Halt => Instr::Halt,
    };
    Some((ins, p - pos))
}

/// One instruction of a predecoded program, with everything the
/// interpreter loop would otherwise look up per execution resolved once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedOp {
    /// The instruction as encoded: branch targets are still byte pcs, so
    /// the disassembler, the JIT and the tools read what the compiler
    /// emitted. The interpreter follows [`DecodedOp::target`] instead.
    pub ins: Instr,
    /// `Jmp`/`Brt`/`Brf`: the target's instruction index. `Call`: the
    /// callee's entry index. Unused elsewhere and on invalid ops.
    target: u32,
    /// `Call`: the callee's frame size in words.
    frame_words: u32,
    flags: u8,
}

impl DecodedOp {
    const GC_POINT: u8 = 1;
    const POLL: u8 = 2;
    const INVALID: u8 = 4;

    /// True if none of the questions below applies — the common case,
    /// answered with one test in the interpreter loop.
    #[inline]
    #[must_use]
    pub fn is_plain(&self) -> bool {
        self.flags == 0
    }

    /// True if this is a park site: an `Alloc`, `AllocA` or `GcPoint`
    /// whose pc the module's gc tables describe. With a collection
    /// pending a thread stops *before* such an instruction, and nowhere
    /// else (§5.3). A call's table is keyed by its return address but
    /// describes the caller's frame while the callee runs, so a return
    /// address is never a park site.
    #[inline]
    #[must_use]
    pub fn is_gc_point(&self) -> bool {
        self.flags & DecodedOp::GC_POINT != 0
    }

    /// True if this park site is a `GcPoint`: a poll, which codegen
    /// places at loop headers and recursive entries.
    #[inline]
    #[must_use]
    pub fn is_poll(&self) -> bool {
        self.flags & DecodedOp::POLL != 0
    }

    /// False for a branch whose target is not an instruction boundary
    /// and for a `Call` of a procedure that does not exist (or whose
    /// entry is no boundary): executing it traps.
    #[inline]
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.flags & DecodedOp::INVALID == 0
    }

    /// The pre-resolved instruction index of a valid branch target or
    /// callee entry.
    #[inline]
    #[must_use]
    pub fn target(&self) -> usize {
        self.target as usize
    }

    /// A valid `Call`'s callee frame size in words.
    #[inline]
    #[must_use]
    pub fn frame_words(&self) -> i64 {
        i64::from(self.frame_words)
    }
}

/// `pc_index` entry of a byte that starts no instruction.
const NO_INDEX: u32 = u32::MAX;

/// A module's code as an index-addressed program: the interpreter loop
/// threads through [`DecodedCode::ops`] by instruction index and never
/// sees a byte pc. Frames, gc tables and everything outside the loop
/// keep byte pcs; the two maps here translate at the loop's edges
/// (entry, `Ret`, exit).
#[derive(Debug, Clone)]
pub struct DecodedCode {
    ops: Vec<DecodedOp>,
    /// Byte pc of each op, plus the code length at `pcs[ops.len()]` —
    /// so `pcs[i + 1]` is op `i`'s successor pc.
    pcs: Vec<u32>,
    /// `pc_index[pc]` = index into `ops`, or [`NO_INDEX`].
    pc_index: Vec<u32>,
}

impl DecodedCode {
    /// Predecodes bare code: no procedures to call and no gc tables, so
    /// no op is flagged and every `Call` is invalid. For tools that read
    /// instructions; a machine uses [`DecodedCode::of`].
    ///
    /// # Panics
    ///
    /// Panics on malformed code (the assembler produced it, so this is a
    /// bug).
    #[must_use]
    pub fn new(code: &[u8]) -> DecodedCode {
        DecodedCode::build(code, &[], std::iter::empty())
    }

    /// Predecodes a module: branch targets and callees resolved and
    /// validated, park sites flagged where the module's gc tables
    /// describe an allocation or a poll.
    ///
    /// # Panics
    ///
    /// Panics if the module's code or gc maps are malformed (they come
    /// from the compiler, so this is a bug).
    #[must_use]
    pub fn of(module: &VmModule) -> DecodedCode {
        let index = DecoderIndex::build(&module.gc_maps).expect("valid gc maps");
        DecodedCode::build(&module.code, &module.procs, index.gc_point_pcs())
    }

    fn build(
        code: &[u8],
        procs: &[ProcMeta],
        gc_point_pcs: impl Iterator<Item = u32>,
    ) -> DecodedCode {
        let mut ops = Vec::new();
        let mut pcs = Vec::new();
        let mut pc_index = vec![NO_INDEX; code.len() + 1];
        let mut pos = 0;
        while pos < code.len() {
            let (ins, n) = decode_instr(code, pos).unwrap_or_else(|| {
                panic!("malformed instruction at pc {pos}");
            });
            pc_index[pos] = ops.len() as u32;
            pcs.push(pos as u32);
            ops.push(DecodedOp { ins, target: 0, frame_words: 0, flags: 0 });
            pos += n;
        }
        pcs.push(code.len() as u32);
        let mut decoded = DecodedCode { ops, pcs, pc_index };

        for i in 0..decoded.ops.len() {
            let resolved = match decoded.ops[i].ins {
                Instr::Jmp { target } | Instr::Brt { target, .. } | Instr::Brf { target, .. } => {
                    decoded.index_of(target).map(|t| (t, 0))
                }
                Instr::Call { proc, .. } => procs.get(proc as usize).and_then(|meta| {
                    decoded.index_of(meta.entry_pc).map(|t| (t, meta.frame_words))
                }),
                _ => continue,
            };
            let op = &mut decoded.ops[i];
            match resolved {
                Some((target, frame_words)) => {
                    (op.target, op.frame_words) = (target as u32, frame_words);
                }
                None => op.flags |= DecodedOp::INVALID,
            }
        }
        // The park decision lives in the opcode: a table pc is a park
        // site only before an allocation or a poll. A return address's
        // table serves only the walk of a frame whose callee parked, and
        // a table pc that starts no instruction is never reached.
        for pc in gc_point_pcs {
            let Some(i) = decoded.index_of(pc) else { continue };
            let op = &mut decoded.ops[i];
            op.flags |= match op.ins {
                Instr::Alloc { .. } | Instr::AllocA { .. } => DecodedOp::GC_POINT,
                Instr::GcPoint => DecodedOp::GC_POINT | DecodedOp::POLL,
                _ => 0,
            };
        }
        decoded
    }

    /// The program, in code order.
    #[inline]
    #[must_use]
    pub fn ops(&self) -> &[DecodedOp] {
        &self.ops
    }

    /// The instruction index of byte pc `pc`; `None` if `pc` starts no
    /// instruction (mid-instruction, or at or past the end of the code).
    #[inline]
    #[must_use]
    pub fn index_of(&self, pc: u32) -> Option<usize> {
        match self.pc_index.get(pc as usize) {
            Some(&idx) if idx != NO_INDEX => Some(idx as usize),
            _ => None,
        }
    }

    /// The byte pc of op `idx`; the code length for `idx == ops().len()`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is greater than the number of ops.
    #[inline]
    #[must_use]
    pub fn pc_of(&self, idx: usize) -> u32 {
        self.pcs[idx]
    }

    /// Every instruction with its successor pc, in code order.
    pub fn instrs(&self) -> impl Iterator<Item = (&Instr, u32)> {
        self.ops.iter().zip(&self.pcs[1..]).map(|(op, &next)| (&op.ins, next))
    }

    /// The instruction at byte pc, with its successor pc.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not an instruction boundary.
    #[must_use]
    pub fn at(&self, pc: u32) -> (&Instr, u32) {
        let idx = self.index_of(pc).unwrap_or_else(|| panic!("pc {pc} is mid-instruction"));
        (&self.ops[idx].ins, self.pcs[idx + 1])
    }

    /// True if `pc` is a park site (see [`DecodedOp::is_gc_point`]).
    #[must_use]
    pub fn is_gc_point_pc(&self, pc: u32) -> bool {
        self.index_of(pc).is_some_and(|i| self.ops[i].is_gc_point())
    }

    /// True if `pc` is a poll park site (a `GcPoint` instruction, as
    /// opposed to an allocation).
    #[must_use]
    pub fn is_poll_pc(&self, pc: u32) -> bool {
        self.index_of(pc).is_some_and(|i| self.ops[i].is_poll())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_instr;

    #[test]
    fn decoded_code_indexes_boundaries() {
        let mut code = Vec::new();
        encode_instr(&Instr::MovI { dst: 0, imm: 7 }, &mut code);
        let second_pc = code.len() as u32;
        encode_instr(&Instr::Halt, &mut code);
        let d = DecodedCode::new(&code);
        assert_eq!(d.ops().len(), 2);
        assert_eq!(d.at(0), (&Instr::MovI { dst: 0, imm: 7 }, second_pc));
        assert_eq!(d.at(second_pc), (&Instr::Halt, code.len() as u32));
        assert_eq!((d.index_of(second_pc), d.pc_of(1)), (Some(1), second_pc));
        assert_eq!((d.index_of(1), d.index_of(code.len() as u32)), (None, None));
        assert_eq!(d.index_of(u32::MAX), None);
    }

    #[test]
    #[should_panic(expected = "mid-instruction")]
    fn mid_instruction_pc_panics() {
        let mut code = Vec::new();
        encode_instr(&Instr::MovI { dst: 0, imm: 7 }, &mut code);
        let d = DecodedCode::new(&code);
        let _ = d.at(1);
    }

    #[test]
    fn targets_resolve_to_indices_or_invalidate_the_op() {
        let mut code = Vec::new();
        encode_instr(&Instr::MovI { dst: 0, imm: 7 }, &mut code); // pcs 0..3
        let jmp_pc = code.len() as u32;
        for ins in [
            Instr::Jmp { target: jmp_pc },
            Instr::Brt { cond: 0, target: 1 },
            Instr::Brf { cond: 0, target: 9999 },
            Instr::Call { proc: 0, nargs: 0 },
        ] {
            encode_instr(&ins, &mut code);
        }
        let d = DecodedCode::new(&code);
        let ops = d.ops();
        assert!(ops[0].is_plain());
        assert!(ops[1].is_valid() && ops[1].target() == 1, "a jump to itself resolves");
        assert!(!ops[2].is_valid(), "mid-instruction target");
        assert!(!ops[3].is_valid(), "target past the end");
        assert!(!ops[4].is_valid(), "bare code has no procedure to call");
        assert!(ops.iter().all(|op| !op.is_gc_point() && !op.is_poll()));
    }

    #[test]
    fn an_op_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<DecodedOp>(), 32);
    }

    #[test]
    fn garbage_decodes_to_none() {
        assert!(decode_instr(&[0xff], 0).is_none());
        assert!(decode_instr(&[], 0).is_none());
    }
}
