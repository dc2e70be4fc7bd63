//! A small assembler: emit instructions with forward-referenced labels,
//! then resolve.

use crate::encode::encode_instr;
use crate::isa::Instr;

/// A branch target handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(u32);

/// The assembler.
#[derive(Debug, Default)]
pub struct Assembler {
    code: Vec<u8>,
    labels: Vec<Option<u32>>,
    /// (byte offset of a 4-byte LE target field, label).
    fixups: Vec<(usize, Label)>,
}

impl Assembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Current pc (byte offset of the next instruction).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Allocates an unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Binds `label` to the current pc.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let pc = self.here();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(pc);
    }

    /// Emits an instruction, returning its pc.
    pub fn emit(&mut self, ins: &Instr) -> u32 {
        let pc = self.here();
        encode_instr(ins, &mut self.code);
        pc
    }

    /// Emits `Jmp` to a label.
    pub fn jmp(&mut self, label: Label) -> u32 {
        let pc = self.emit(&Instr::Jmp { target: 0 });
        self.fixups.push((self.code.len() - 4, label));
        pc
    }

    /// Emits `Brt cond, label`.
    pub fn brt(&mut self, cond: u8, label: Label) -> u32 {
        let pc = self.emit(&Instr::Brt { cond, target: 0 });
        self.fixups.push((self.code.len() - 4, label));
        pc
    }

    /// Emits `Brf cond, label`.
    pub fn brf(&mut self, cond: u8, label: Label) -> u32 {
        let pc = self.emit(&Instr::Brf { cond, target: 0 });
        self.fixups.push((self.code.len() - 4, label));
        pc
    }

    /// Resolves all fixups and returns the code.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        for (off, label) in self.fixups {
            let target =
                self.labels[label.0 as usize].unwrap_or_else(|| panic!("unbound label {label:?}"));
            self.code[off..off + 4].copy_from_slice(&target.to_le_bytes());
        }
        self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodedCode;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new();
        let top = a.new_label();
        let end = a.new_label();
        a.bind(top);
        a.emit(&Instr::MovI { dst: 0, imm: 1 });
        a.brt(0, end); // forward
        a.jmp(top); // backward
        a.bind(end);
        a.emit(&Instr::Halt);
        let code = a.finish();
        let d = DecodedCode::new(&code);
        // Find the Brt and Jmp and check their targets.
        let brt = d.instrs().find_map(|(i, _)| match i {
            Instr::Brt { target, .. } => Some(*target),
            _ => None,
        });
        let jmp = d.instrs().find_map(|(i, _)| match i {
            Instr::Jmp { target } => Some(*target),
            _ => None,
        });
        let halt_pc = d.instrs().last().map(|_| code.len() as u32 - 1);
        assert_eq!(brt, halt_pc);
        assert_eq!(jmp, Some(0));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.jmp(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
    }
}
