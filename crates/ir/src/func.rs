//! Functions, blocks and whole programs.

use m3gc_core::heap::TypeTable;

use crate::ids::{BlockId, FuncId, GlobalId, SlotId, Temp};
use crate::instr::{Instr, Terminator};

/// The statically declared kind of a temp or memory word.
///
/// In a statically typed language the compiler knows which locations
/// contain pointers (§1); `Ptr` marks *tidy* pointers (pointing at an
/// object header or NIL). Values created by pointer arithmetic are *not*
/// declared `Ptr` — they are discovered as derived values by
/// [`crate::deriv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TempKind {
    /// A non-pointer word (integers, booleans, stack addresses, path
    /// variables, derived values).
    Int,
    /// A tidy heap pointer (or NIL).
    Ptr,
}

/// A frame memory slot: a local that must live in memory rather than a
/// register, because its address is taken (VAR argument, WITH alias) or it
/// is a local fixed array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// Source name, for diagnostics.
    pub name: String,
    /// Slot size in words (1 for scalars, n for local arrays).
    pub words: u32,
    /// Offsets within the slot that hold tidy pointers. Each pointer in a
    /// local array is treated as a separate variable in the ground table,
    /// exactly as the paper's implementation does (§5.2).
    pub ptr_words: Vec<u32>,
    /// True if the slot's address is taken somewhere in the function.
    pub addressable: bool,
}

impl SlotInfo {
    /// A one-word scalar slot.
    #[must_use]
    pub fn scalar(name: impl Into<String>, kind: TempKind, addressable: bool) -> SlotInfo {
        let ptr_words = if kind == TempKind::Ptr { vec![0] } else { vec![] };
        SlotInfo { name: name.into(), words: 1, ptr_words, addressable }
    }
}

/// A module-level variable: `words` contiguous words in the global area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalInfo {
    /// Source name.
    pub name: String,
    /// Size in words (1 for scalars, n for global fixed arrays).
    pub words: u32,
    /// Offsets within the global that hold tidy pointers (gc roots).
    pub ptr_words: Vec<u32>,
}

impl GlobalInfo {
    /// A one-word scalar global.
    #[must_use]
    pub fn scalar(name: impl Into<String>, kind: TempKind) -> GlobalInfo {
        let ptr_words = if kind == TempKind::Ptr { vec![0] } else { vec![] };
        GlobalInfo { name: name.into(), words: 1, ptr_words }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block's instructions, in order.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `term`.
    #[must_use]
    pub fn new(term: Terminator) -> Block {
        Block { instrs: Vec::new(), term }
    }
}

/// One function in three-address form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Source name.
    pub name: String,
    /// This function's id within its program.
    pub id: FuncId,
    /// Number of parameters; parameters are temps `0..n_params` at entry.
    pub n_params: usize,
    /// Basic blocks; `BlockId` indexes this vector.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Declared kind of each temp; `Temp` indexes this vector.
    pub temp_kinds: Vec<TempKind>,
    /// Frame memory slots.
    pub slots: Vec<SlotInfo>,
    /// Kind of the returned value, if the function returns one.
    pub ret_kind: Option<TempKind>,
    /// For each parameter, true if it is a by-reference (VAR) parameter —
    /// i.e. it holds the *address* of the actual, possibly an interior
    /// pointer. By-ref parameters are pinned to their incoming argument
    /// slot so the collector's update of that slot is always seen.
    pub byref_params: Vec<bool>,
}

impl Function {
    /// Creates an empty function with the given parameter kinds.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        id: FuncId,
        params: &[TempKind],
        ret_kind: Option<TempKind>,
    ) -> Function {
        Function {
            name: name.into(),
            id,
            n_params: params.len(),
            blocks: vec![Block::new(Terminator::Ret(None))],
            entry: BlockId(0),
            temp_kinds: params.to_vec(),
            slots: Vec::new(),
            ret_kind,
            byref_params: vec![false; params.len()],
        }
    }

    /// Marks parameter `i` as a by-reference (VAR) parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_byref_param(&mut self, i: usize) {
        assert!(i < self.n_params, "parameter index out of range");
        self.byref_params[i] = true;
    }

    /// Is parameter temp `t` a by-reference parameter?
    #[must_use]
    pub fn is_byref_param(&self, t: Temp) -> bool {
        self.byref_params.get(t.index()).copied().unwrap_or(false)
    }

    /// Allocates a fresh temp of the given kind.
    pub fn new_temp(&mut self, kind: TempKind) -> Temp {
        let t = Temp(self.temp_kinds.len() as u32);
        self.temp_kinds.push(kind);
        t
    }

    /// Allocates a fresh block, returning its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(Terminator::Ret(None)));
        id
    }

    /// Allocates a frame slot.
    pub fn new_slot(&mut self, info: SlotInfo) -> SlotId {
        let id = SlotId(self.slots.len() as u32);
        self.slots.push(info);
        id
    }

    /// Number of temps.
    #[must_use]
    pub fn temp_count(&self) -> usize {
        self.temp_kinds.len()
    }

    /// How many instructions define each temp, across the whole function.
    #[must_use]
    pub fn def_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.temp_count()];
        for block in &self.blocks {
            for d in block.instrs.iter().filter_map(Instr::def) {
                counts[d.index()] += 1;
            }
        }
        counts
    }

    /// The declared kind of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn kind(&self, t: Temp) -> TempKind {
        self.temp_kinds[t.index()]
    }

    /// Shorthand: is `t` a declared tidy pointer?
    #[must_use]
    pub fn is_ptr(&self, t: Temp) -> bool {
        self.kind(t) == TempKind::Ptr
    }

    /// Immutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Iterates over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total instruction count (excluding terminators).
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// A whole program: functions, globals, heap types, entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// All functions; `FuncId` indexes this vector.
    pub funcs: Vec<Function>,
    /// All globals; `GlobalId` indexes this vector.
    pub globals: Vec<GlobalInfo>,
    /// Heap type descriptors.
    pub types: TypeTable,
    /// The module body (entry point).
    pub main: FuncId,
}

impl Program {
    /// Creates an empty program whose `main` is function 0 (which must be
    /// added before use).
    #[must_use]
    pub fn new() -> Program {
        Program {
            funcs: Vec::new(),
            globals: Vec::new(),
            types: TypeTable::default(),
            main: FuncId(0),
        }
    }

    /// Adds a function, returning its id. The function's `id` field is
    /// fixed up to match.
    pub fn add_func(&mut self, mut f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        f.id = id;
        self.funcs.push(f);
        id
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, g: GlobalInfo) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Immutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Word offsets of all tidy-pointer roots in the global area, given the
    /// globals' packed layout (each global occupies `words` consecutive
    /// words, in id order).
    #[must_use]
    pub fn global_ptr_roots(&self) -> Vec<u32> {
        let mut roots = Vec::new();
        let mut base = 0u32;
        for g in &self.globals {
            for &p in &g.ptr_words {
                roots.push(base + p);
            }
            base += g.words;
        }
        roots
    }

    /// Word offset of a global's first word in the global area.
    #[must_use]
    pub fn global_offset(&self, id: GlobalId) -> u32 {
        self.globals[..id.index()].iter().map(|g| g.words).sum()
    }

    /// Total size of the global area in words.
    #[must_use]
    pub fn globals_words(&self) -> u32 {
        self.globals.iter().map(|g| g.words).sum()
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;

    #[test]
    fn function_construction() {
        let mut f =
            Function::new("f", FuncId(0), &[TempKind::Ptr, TempKind::Int], Some(TempKind::Int));
        assert_eq!(f.n_params, 2);
        assert!(f.is_ptr(Temp(0)));
        assert!(!f.is_ptr(Temp(1)));
        let t = f.new_temp(TempKind::Int);
        assert_eq!(t, Temp(2));
        let b = f.new_block();
        assert_eq!(b, BlockId(1));
        f.block_mut(b).instrs.push(Instr::Bin { dst: t, op: BinOp::Add, a: Temp(0), b: Temp(1) });
        assert_eq!(f.instr_count(), 1);
    }

    #[test]
    fn slot_helpers() {
        let s = SlotInfo::scalar("x", TempKind::Ptr, true);
        assert_eq!(s.words, 1);
        assert_eq!(s.ptr_words, vec![0]);
        let s = SlotInfo::scalar("i", TempKind::Int, false);
        assert!(s.ptr_words.is_empty());
    }

    #[test]
    fn global_layout() {
        let mut p = Program::new();
        p.add_global(GlobalInfo::scalar("a", TempKind::Int));
        p.add_global(GlobalInfo { name: "arr".into(), words: 3, ptr_words: vec![0, 2] });
        p.add_global(GlobalInfo::scalar("p", TempKind::Ptr));
        assert_eq!(p.global_offset(GlobalId(0)), 0);
        assert_eq!(p.global_offset(GlobalId(1)), 1);
        assert_eq!(p.global_offset(GlobalId(2)), 4);
        assert_eq!(p.globals_words(), 5);
        assert_eq!(p.global_ptr_roots(), vec![1, 3, 4]);
    }
}
