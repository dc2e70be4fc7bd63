//! Compiled modules: code, procedure metadata, heap types and gc maps.

use m3gc_core::encode::EncodedTables;
use m3gc_core::heap::TypeTable;
use m3gc_core::tables::ModuleTables;

/// Per-procedure metadata the machine and the collector need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcMeta {
    /// Source name.
    pub name: String,
    /// Entry pc (byte offset in the module code).
    pub entry_pc: u32,
    /// One past the procedure's last instruction byte.
    pub end_pc: u32,
    /// Frame size in words (locals, spills, save area).
    pub frame_words: u32,
    /// Callee-save registers this procedure saves, with the FP-relative
    /// word offset of each save slot. The collector uses this to
    /// reconstruct register contents as of the time of a call (§3).
    pub save_regs: Vec<(u8, i32)>,
    /// Number of argument words.
    pub n_args: u32,
}

impl ProcMeta {
    /// True if `pc` lies within this procedure's code.
    #[must_use]
    pub fn contains(&self, pc: u32) -> bool {
        (self.entry_pc..self.end_pc).contains(&pc)
    }
}

/// A complete compiled module.
#[derive(Debug, Clone)]
pub struct VmModule {
    /// Encoded instruction stream.
    pub code: Vec<u8>,
    /// Procedure metadata; `Call` operands index this.
    pub procs: Vec<ProcMeta>,
    /// Heap type descriptors.
    pub types: TypeTable,
    /// Size of the global area in words.
    pub globals_words: u32,
    /// Word offsets of tidy-pointer roots within the global area.
    pub global_ptr_roots: Vec<u32>,
    /// The entry procedure.
    pub main: u16,
    /// Encoded gc-map tables.
    pub gc_maps: EncodedTables,
    /// The logical tables (for statistics and debugging; the collector
    /// uses only `gc_maps`).
    pub logical_maps: ModuleTables,
}

impl VmModule {
    /// The procedure containing `pc`, if any.
    #[must_use]
    pub fn proc_at(&self, pc: u32) -> Option<(u16, &ProcMeta)> {
        self.procs.iter().enumerate().find(|(_, p)| p.contains(pc)).map(|(i, p)| (i as u16, p))
    }

    /// Code size in bytes (Table 1's `Size` column).
    #[must_use]
    pub fn code_size(&self) -> usize {
        self.code.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3gc_core::encode::{encode_module, Scheme};

    fn dummy_module() -> VmModule {
        VmModule {
            code: vec![0; 100],
            procs: vec![
                ProcMeta {
                    name: "a".into(),
                    entry_pc: 0,
                    end_pc: 40,
                    frame_words: 2,
                    save_regs: vec![],
                    n_args: 0,
                },
                ProcMeta {
                    name: "b".into(),
                    entry_pc: 40,
                    end_pc: 100,
                    frame_words: 0,
                    save_regs: vec![(6, 0)],
                    n_args: 1,
                },
            ],
            types: TypeTable::default(),
            globals_words: 0,
            global_ptr_roots: vec![],
            main: 0,
            gc_maps: encode_module(&ModuleTables::default(), Scheme::DELTA_MAIN_PP),
            logical_maps: ModuleTables::default(),
        }
    }

    #[test]
    fn proc_lookup_by_pc() {
        let m = dummy_module();
        assert_eq!(m.proc_at(0).unwrap().0, 0);
        assert_eq!(m.proc_at(39).unwrap().0, 0);
        assert_eq!(m.proc_at(40).unwrap().0, 1);
        assert!(m.proc_at(100).is_none());
        assert_eq!(m.code_size(), 100);
    }
}
