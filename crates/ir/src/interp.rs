//! A reference interpreter for IR programs.
//!
//! Executes a [`Program`] directly, with an ever-growing heap and **no
//! garbage collection** — objects never move, so derived values need no
//! maintenance. This gives an independent semantics against which the
//! optimizer and the VM+collector pipeline are differentially tested: any
//! program must produce the same output here, at every optimization level,
//! and on the VM with collections forced at every gc-point.
//!
//! Blocks are translated into flat [`Op`]s in one arena as they are first
//! reached: block targets become op indices, slots and globals become
//! word offsets, and a jump to a block not yet reached lays it out next
//! and is elided. Two fusions cut dispatch without hiding a trap: a
//! `Const` read as the right operand of the next `Bin` ([`Op::BinK`]) and
//! a `Bin` whose result is the block's branch condition ([`Op::BinBr`]);
//! neither part of either can trap, and both still write every temp the
//! IR writes.
//!
//! Fuel is charged per *segment*: the ops from a block entry or a call
//! return up to the next call (inclusive) or kept transfer. The segment's
//! whole step count is charged when it is entered; when the budget cannot
//! cover it, [`Code::halt_within`] ends the run at exactly the step the
//! budget allows, so a trap inside the affordable prefix still wins.
//! Calls push a saved frame on an explicit stack, so call depth is bounded
//! by [`MAX_DEPTH`] and never by the native stack. `steps` still counts IR
//! instructions and terminators, one each.

use m3gc_core::heap::{HeapType, TypeTable};

use crate::func::Program;
use crate::ids::BlockId;
use crate::instr::{BinOp, Instr, RuntimeFn, Terminator, UnOp};

/// Base address of the global area.
const GLOBAL_BASE: i64 = 1 << 20;
/// Base address of the slot (stack) area.
const STACK_BASE: i64 = 1 << 24;
/// Base address of the heap.
const HEAP_BASE: i64 = 1 << 32;

/// Abnormal termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Subscript out of range.
    RangeError,
    /// NIL dereference.
    NilError,
    /// Assertion failure.
    AssertError,
    /// The step budget was exhausted.
    OutOfFuel,
    /// Call depth limit exceeded.
    StackOverflow,
    /// A memory access fell outside every region (a compiler bug).
    WildAddress,
    /// An array length too large for an object's length header.
    OutOfMemory,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Trap::RangeError => "subscript out of range",
            Trap::NilError => "attempt to dereference NIL",
            Trap::AssertError => "assertion failed",
            Trap::OutOfFuel => "step budget exhausted",
            Trap::StackOverflow => "call depth exceeded",
            Trap::WildAddress => "wild memory address",
            Trap::OutOfMemory => "heap exhausted",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for Trap {}

/// Result of a successful run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Value returned by `main`, if any.
    pub result: Option<i64>,
    /// Everything printed through the runtime services.
    pub output: String,
    /// Instructions executed.
    pub steps: u64,
    /// Objects allocated.
    pub allocations: u64,
}

/// The interpreter.
pub struct Interp<'a> {
    program: &'a Program,
    mem: Memory,
    code: Code,
    fuel: u64,
    steps: u64,
}

/// Default step budget.
pub const DEFAULT_FUEL: u64 = 200_000_000;
/// Maximum call depth.
const MAX_DEPTH: usize = 40_000;

/// "No temp" in an [`Op`] field that is optional in the IR.
const NONE: u32 = u32::MAX;

/// One translated operation. Temps index the running frame's temps,
/// `word`s are offsets into its slots or into the global area, and
/// targets index [`Code::ops`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `dst := value`; also `GlobalAddr`, whose value is known.
    Const { dst: u32, value: i64 },
    /// `dst := src`.
    Copy { dst: u32, src: u32 },
    /// `dst := a op b`.
    Bin { op: BinOp, dst: u32, a: u32, b: u32 },
    /// `k_dst := k; dst := a op k_dst`: a `Const` and the `Bin` after it.
    BinK { op: BinOp, dst: u32, a: u32, k_dst: u32, k: i64 },
    /// `dst := op a`.
    Un { op: UnOp, dst: u32, a: u32 },
    /// `dst := mem[addr + offset]`.
    Load { dst: u32, addr: u32, offset: i32 },
    /// `mem[addr + offset] := src`.
    Store { addr: u32, offset: i32, src: u32 },
    /// `dst := frame word`.
    LoadSlot { dst: u32, word: u32 },
    /// `frame word := src`.
    StoreSlot { word: u32, src: u32 },
    /// `dst := &frame word`.
    SlotAddr { dst: u32, word: u32 },
    /// `dst := global word`.
    LoadGlobal { dst: u32, word: u32 },
    /// `global word := src`.
    StoreGlobal { word: u32, src: u32 },
    /// A call; the arguments are `Code::call_args[args..args + n_args]`.
    Call { func: u32, dst: u32, args: u32, n_args: u32 },
    /// A runtime service; `arg` is its one argument, if it takes one.
    Runtime { func: RuntimeFn, dst: u32, arg: u32 },
    /// `dst := new ty[len]`.
    New { dst: u32, ty: u32, len: u32 },
    /// A gc-point: one step, no effect here.
    GcPoint,
    /// A jump that was not elided.
    Jump { to: u32 },
    /// `br cond`.
    Br { cond: u32, then_to: u32, else_to: u32 },
    /// `dst := a op b; br dst`: a `Bin` and the branch on its result.
    BinBr { op: BinOp, dst: u32, a: u32, b: u32, then_to: u32, else_to: u32 },
    /// Return, with `src`'s value unless it is [`NONE`].
    Ret { src: u32 },
    /// Written over the op after a run's last affordable step.
    Halt,
}

impl Op {
    /// True if the op ends a segment: a call or a kept transfer.
    fn ends_segment(self) -> bool {
        matches!(
            self,
            Op::Call { .. } | Op::Jump { .. } | Op::Br { .. } | Op::BinBr { .. } | Op::Ret { .. }
        )
    }
}

/// Where a translated function starts and what its frame needs.
#[derive(Debug, Clone, Copy)]
struct FuncCode {
    /// Index of its entry op, or [`NONE`] before its first call.
    entry: u32,
    temps: u32,
    slot_words: u32,
    /// Where its blocks start in [`Code::block_pc`] and its slots in
    /// [`Code::slot_word`].
    blocks: u32,
    slots: u32,
}

/// Every block translated so far, in one arena.
struct Code {
    ops: Vec<Op>,
    /// For each op, the steps from it to the end of its segment.
    cost: Vec<u32>,
    call_args: Vec<u32>,
    funcs: Vec<FuncCode>,
    /// Each called function's blocks' first ops, [`NONE`] until reached.
    block_pc: Vec<u32>,
    /// Each called function's slots' first words in its frame.
    slot_word: Vec<u32>,
    /// Each global's first word in the global area.
    global_word: Vec<u32>,
}

/// Set in a branch target that is still a block id: the block had not
/// been reached when the branch was translated.
const UNRESOLVED: u32 = 1 << 31;

/// A suspended caller.
struct Frame {
    temps: Vec<i64>,
    func: u32,
    /// The op after the call.
    ret: u32,
    slot_base: u32,
    dst: u32,
}

/// Globals, frame slots, heap and output.
struct Memory {
    globals: Vec<i64>,
    stack: Vec<i64>,
    heap: Vec<i64>,
    output: String,
    allocations: u64,
}

impl Code {
    fn new(program: &Program) -> Code {
        let mut global_word = Vec::with_capacity(program.globals.len());
        let mut words = 0;
        for g in &program.globals {
            global_word.push(words);
            words += g.words;
        }
        let uncalled = FuncCode { entry: NONE, temps: 0, slot_words: 0, blocks: 0, slots: 0 };
        Code {
            ops: Vec::new(),
            cost: Vec::new(),
            call_args: Vec::new(),
            funcs: vec![uncalled; program.funcs.len()],
            block_pc: Vec::new(),
            slot_word: Vec::new(),
            global_word,
        }
    }

    /// Function `f`'s code, translating its entry on its first call.
    #[inline]
    fn func(&mut self, program: &Program, f: usize) -> FuncCode {
        let code = self.funcs[f];
        if code.entry == NONE {
            self.first_call(program, f)
        } else {
            code
        }
    }

    /// Sets out function `f`'s blocks, slots and frame size, then
    /// translates its entry block.
    #[inline(never)]
    fn first_call(&mut self, program: &Program, f: usize) -> FuncCode {
        let func = &program.funcs[f];
        let blocks = self.block_pc.len() as u32;
        self.block_pc.resize(self.block_pc.len() + func.blocks.len(), NONE);
        let slots = self.slot_word.len() as u32;
        let mut slot_words = 0;
        for s in &func.slots {
            self.slot_word.push(slot_words);
            slot_words += s.words;
        }
        let temps = func.temp_count() as u32;
        // Room for all of it: growing the arena chain by chain cost a
        // fifth of the translation time over the compile corpus.
        let most: usize = func.blocks.iter().map(|b| b.instrs.len() + 1).sum();
        self.ops.reserve(most);
        self.cost.reserve(most);
        self.funcs[f] = FuncCode { entry: NONE, temps, slot_words, blocks, slots };
        self.funcs[f].entry = self.translate(program, f, func.entry.index());
        self.funcs[f]
    }

    /// The first op of the block an unresolved target of the branch at
    /// `at` (in function `f`) names, translating the block if it has not
    /// been reached yet. Patches the branch to jump there directly.
    #[cold]
    #[inline(never)]
    fn resolve(&mut self, program: &Program, f: u32, at: usize, target: u32) -> u32 {
        let block = (target & !UNRESOLVED) as usize;
        let mut pc = self.block_pc[self.funcs[f as usize].blocks as usize + block];
        if pc == NONE {
            pc = self.translate(program, f as usize, block);
        }
        match &mut self.ops[at] {
            Op::Br { then_to, else_to, .. } | Op::BinBr { then_to, else_to, .. } => {
                for to in [then_to, else_to] {
                    if *to == target {
                        *to = pc;
                    }
                }
            }
            op => unreachable!("{op:?} has no unresolved target"),
        }
        pc
    }

    /// Appends the ops of `block` of function `f` to the arena and returns
    /// the first. A jump to a block not yet reached lays that block out
    /// next, so the jump is elided when the step it costs can join the
    /// previous op, and the chain ends at a branch, a return or a jump
    /// back to a block already translated. One forward pass emits ops
    /// with each op's own step count in `cost`; one reverse pass turns
    /// the step counts into segment costs.
    #[inline(never)]
    fn translate(&mut self, program: &Program, f: usize, block: usize) -> u32 {
        let func = &program.funcs[f];
        let FuncCode { blocks, slots, .. } = self.funcs[f];
        let (blocks, slots) = (blocks as usize, slots as usize);
        let start = self.ops.len();
        let mut b = block;
        loop {
            let block = &func.blocks[b];
            let block_start = self.ops.len();
            self.block_pc[blocks + b] = block_start as u32;
            for ins in &block.instrs {
                let op = match *ins {
                    Instr::Const { dst, value } => Op::Const { dst: dst.0, value },
                    Instr::Bin { dst, op, a, b } => match self.ops[block_start..].last_mut() {
                        // `k := value; dst := a op k`.
                        Some(last @ &mut Op::Const { dst: k_dst, value: k }) if k_dst == b.0 => {
                            *last = Op::BinK { op, dst: dst.0, a: a.0, k_dst, k };
                            *self.cost.last_mut().expect("a cost per op") = 2;
                            continue;
                        }
                        _ => Op::Bin { op, dst: dst.0, a: a.0, b: b.0 },
                    },
                    Instr::Copy { dst, src } => Op::Copy { dst: dst.0, src: src.0 },
                    Instr::Un { dst, op, a } => Op::Un { op, dst: dst.0, a: a.0 },
                    Instr::Load { dst, addr, offset } => {
                        Op::Load { dst: dst.0, addr: addr.0, offset }
                    }
                    Instr::Store { addr, offset, src } => {
                        Op::Store { addr: addr.0, offset, src: src.0 }
                    }
                    Instr::LoadSlot { dst, slot, offset } => Op::LoadSlot {
                        dst: dst.0,
                        word: self.slot_word[slots + slot.index()] + offset,
                    },
                    Instr::StoreSlot { slot, offset, src } => Op::StoreSlot {
                        word: self.slot_word[slots + slot.index()] + offset,
                        src: src.0,
                    },
                    Instr::SlotAddr { dst, slot } => {
                        Op::SlotAddr { dst: dst.0, word: self.slot_word[slots + slot.index()] }
                    }
                    Instr::LoadGlobal { dst, global } => {
                        Op::LoadGlobal { dst: dst.0, word: self.global_word[global.index()] }
                    }
                    Instr::StoreGlobal { global, src } => {
                        Op::StoreGlobal { word: self.global_word[global.index()], src: src.0 }
                    }
                    Instr::GlobalAddr { dst, global } => {
                        let value = GLOBAL_BASE + i64::from(self.global_word[global.index()]);
                        Op::Const { dst: dst.0, value }
                    }
                    Instr::Call { dst, func, ref args } => {
                        let first = self.call_args.len() as u32;
                        self.call_args.extend(args.iter().map(|a| a.0));
                        let dst = dst.map_or(NONE, |d| d.0);
                        Op::Call { func: func.0, dst, args: first, n_args: args.len() as u32 }
                    }
                    Instr::CallRuntime { dst, func, ref args } => {
                        let dst = dst.map_or(NONE, |d| d.0);
                        Op::Runtime { func, dst, arg: args.first().map_or(NONE, |a| a.0) }
                    }
                    Instr::New { dst, ty, len } => {
                        Op::New { dst: dst.0, ty: ty.0, len: len.map_or(NONE, |l| l.0) }
                    }
                    Instr::GcPoint => Op::GcPoint,
                };
                self.ops.push(op);
                self.cost.push(1);
            }
            let target = |to: BlockId| match self.block_pc[blocks + to.index()] {
                NONE => UNRESOLVED | to.0,
                pc => pc,
            };
            let op = match block.term {
                Terminator::Jump(to) if self.block_pc[blocks + to.index()] == NONE => {
                    // Lay the target out next. The jump's step joins the
                    // block's last op, unless there is none or it is a
                    // call, whose return starts a segment of its own.
                    match self.ops[block_start..].last() {
                        Some(op) if !matches!(op, Op::Call { .. }) => {
                            *self.cost.last_mut().expect("a cost per op") += 1;
                        }
                        _ => {
                            self.ops.push(Op::Jump { to: self.ops.len() as u32 + 1 });
                            self.cost.push(1);
                        }
                    }
                    b = to.index();
                    continue;
                }
                Terminator::Jump(to) => Op::Jump { to: target(to) },
                Terminator::Br { cond, then_bb, else_bb } => {
                    let (then_to, else_to) = (target(then_bb), target(else_bb));
                    match self.ops[block_start..].last_mut() {
                        // `dst := a op b; br dst`.
                        Some(last @ &mut Op::Bin { op, dst, a, b }) if dst == cond.0 => {
                            *last = Op::BinBr { op, dst, a, b, then_to, else_to };
                            *self.cost.last_mut().expect("a cost per op") = 2;
                            break;
                        }
                        _ => Op::Br { cond: cond.0, then_to, else_to },
                    }
                }
                Terminator::Ret(v) => Op::Ret { src: v.map_or(NONE, |t| t.0) },
            };
            self.ops.push(op);
            self.cost.push(1);
            break;
        }
        let mut rest = 0;
        for pc in (start..self.ops.len()).rev() {
            if self.ops[pc].ends_segment() {
                rest = 0;
            }
            rest += self.cost[pc];
            self.cost[pc] = rest;
        }
        start as u32
    }

    /// The segment entered at `pc` costs more than the `budget` steps
    /// left. Writes [`Op::Halt`] over the first op whose first step the
    /// budget does not reach, so the run executes exactly the affordable
    /// prefix and then stops. A segment's last op is never reached: its
    /// last step is a call or a transfer. Only an op's first step can
    /// trap: the tail of a fused op, and a jump that fell through, cannot.
    #[cold]
    #[inline(never)]
    fn halt_within(&mut self, pc: usize, budget: u64) {
        let mut left = budget;
        let mut at = pc;
        while left > 0 && !self.ops[at].ends_segment() {
            let steps = u64::from(self.cost[at] - self.cost[at + 1]);
            left -= steps.min(left);
            at += 1;
        }
        self.ops[at] = Op::Halt;
    }
}

impl Memory {
    fn read(&self, addr: i64) -> Result<i64, Trap> {
        if addr >= HEAP_BASE {
            let i = (addr - HEAP_BASE) as usize;
            self.heap.get(i).copied().ok_or(Trap::WildAddress)
        } else if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            self.stack.get(i).copied().ok_or(Trap::WildAddress)
        } else if addr >= GLOBAL_BASE {
            let i = (addr - GLOBAL_BASE) as usize;
            self.globals.get(i).copied().ok_or(Trap::WildAddress)
        } else if addr >= 0 {
            // NIL plus a field or element offset: a nil dereference,
            // matching the VM's classification of the sub-global window.
            Err(Trap::NilError)
        } else {
            Err(Trap::WildAddress)
        }
    }

    fn write(&mut self, addr: i64, value: i64) -> Result<(), Trap> {
        if addr >= HEAP_BASE {
            let i = (addr - HEAP_BASE) as usize;
            *self.heap.get_mut(i).ok_or(Trap::WildAddress)? = value;
        } else if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            *self.stack.get_mut(i).ok_or(Trap::WildAddress)? = value;
        } else if addr >= GLOBAL_BASE {
            let i = (addr - GLOBAL_BASE) as usize;
            *self.globals.get_mut(i).ok_or(Trap::WildAddress)? = value;
        } else if addr >= 0 {
            return Err(Trap::NilError);
        } else {
            return Err(Trap::WildAddress);
        }
        Ok(())
    }

    fn allocate(&mut self, types: &TypeTable, ty_id: u32, len: Option<i64>) -> Result<i64, Trap> {
        let ty = &types.types[ty_id as usize];
        let len = match len {
            Some(l) if l < 0 => return Err(Trap::RangeError),
            Some(l) => l,
            None => 0,
        };
        let words = ty.checked_object_words(len).ok_or(Trap::OutOfMemory)? as usize;
        let base = self.heap.len();
        self.heap.resize(base + words, 0);
        self.heap[base] = i64::from(ty_id);
        if matches!(ty, HeapType::Array { .. }) {
            self.heap[base + 1] = len;
        }
        self.allocations += 1;
        Ok(HEAP_BASE + base as i64)
    }

    fn runtime(&mut self, f: RuntimeFn, arg: i64) -> Result<(), Trap> {
        match f {
            RuntimeFn::PrintInt => {
                self.output.push_str(&arg.to_string());
                Ok(())
            }
            RuntimeFn::PrintChar => {
                let c = u32::try_from(arg).ok().and_then(char::from_u32).unwrap_or('?');
                self.output.push(c);
                Ok(())
            }
            RuntimeFn::PrintLn => {
                self.output.push('\n');
                Ok(())
            }
            RuntimeFn::RangeError => Err(Trap::RangeError),
            RuntimeFn::NilError => Err(Trap::NilError),
            RuntimeFn::AssertError => Err(Trap::AssertError),
        }
    }
}

impl<'a> Interp<'a> {
    /// Creates an interpreter for `program`.
    #[must_use]
    pub fn new(program: &'a Program) -> Interp<'a> {
        Interp {
            program,
            mem: Memory {
                globals: vec![0; program.globals_words() as usize],
                stack: Vec::new(),
                heap: Vec::new(),
                output: String::new(),
                allocations: 0,
            },
            code: Code::new(program),
            fuel: DEFAULT_FUEL,
            steps: 0,
        }
    }

    /// Sets the step budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Runs `main` with no arguments.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on abnormal termination.
    pub fn run(mut self) -> Result<Outcome, Trap> {
        let result = self.exec()?;
        Ok(Outcome {
            result,
            output: self.mem.output,
            steps: self.steps,
            allocations: self.mem.allocations,
        })
    }

    /// The dispatch loop: one `match` per op, an explicit stack of
    /// suspended callers, and fuel charged on entering each segment.
    fn exec(&mut self) -> Result<Option<i64>, Trap> {
        let program = self.program;
        let fuel = self.fuel;
        let mut steps = 0u64;
        let mut frames: Vec<Frame> = Vec::new();
        let mut spare: Vec<Vec<i64>> = Vec::new();

        let mut func = program.main.0;
        let main = self.code.func(program, func as usize);
        let mut temps = vec![0i64; main.temps as usize];
        let mut slot_base = 0;
        self.mem.stack.resize(main.slot_words as usize, 0);
        let mut pc: usize;

        // Branch to `to` from the op before `pc`, resolving it first if
        // its block had not been reached when the branch was translated.
        macro_rules! branch {
            ($to:expr) => {{
                let mut to = $to;
                if to & UNRESOLVED != 0 {
                    to = self.code.resolve(program, func, pc - 1, to);
                }
                enter!(to);
            }};
        }
        // Continue at `to`, which starts a segment: charge all of it.
        macro_rules! enter {
            ($to:expr) => {{
                pc = $to as usize;
                let cost = u64::from(self.code.cost[pc]);
                if steps + cost > fuel {
                    self.code.halt_within(pc, fuel.saturating_sub(steps));
                }
                steps += cost;
            }};
        }
        enter!(main.entry);

        loop {
            let op = self.code.ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, value } => temps[dst as usize] = value,
                Op::Copy { dst, src } => temps[dst as usize] = temps[src as usize],
                Op::Bin { op, dst, a, b } => {
                    temps[dst as usize] = op.eval(temps[a as usize], temps[b as usize]);
                }
                Op::BinK { op, dst, a, k_dst, k } => {
                    temps[k_dst as usize] = k;
                    temps[dst as usize] = op.eval(temps[a as usize], k);
                }
                Op::Un { op, dst, a } => temps[dst as usize] = op.eval(temps[a as usize]),
                Op::Load { dst, addr, offset } => {
                    temps[dst as usize] =
                        self.mem.read(temps[addr as usize] + i64::from(offset))?;
                }
                Op::Store { addr, offset, src } => {
                    self.mem
                        .write(temps[addr as usize] + i64::from(offset), temps[src as usize])?;
                }
                Op::LoadSlot { dst, word } => {
                    temps[dst as usize] = self.mem.stack[slot_base + word as usize];
                }
                Op::StoreSlot { word, src } => {
                    self.mem.stack[slot_base + word as usize] = temps[src as usize];
                }
                Op::SlotAddr { dst, word } => {
                    temps[dst as usize] = STACK_BASE + (slot_base + word as usize) as i64;
                }
                Op::LoadGlobal { dst, word } => {
                    temps[dst as usize] = self.mem.globals[word as usize];
                }
                Op::StoreGlobal { word, src } => {
                    self.mem.globals[word as usize] = temps[src as usize];
                }
                Op::Call { func: f, dst, args, n_args } => {
                    // The callee's depth: the suspended callers, this
                    // frame and the callee.
                    if frames.len() + 2 > MAX_DEPTH {
                        return Err(Trap::StackOverflow);
                    }
                    let callee = self.code.func(program, f as usize);
                    let mut callee_temps = spare.pop().unwrap_or_default();
                    callee_temps.resize(callee.temps as usize, 0);
                    let args = &self.code.call_args[args as usize..(args + n_args) as usize];
                    for (t, &a) in callee_temps.iter_mut().zip(args) {
                        *t = temps[a as usize];
                    }
                    frames.push(Frame {
                        temps: std::mem::replace(&mut temps, callee_temps),
                        func,
                        ret: pc as u32,
                        slot_base: slot_base as u32,
                        dst,
                    });
                    func = f;
                    slot_base = self.mem.stack.len();
                    self.mem.stack.resize(slot_base + callee.slot_words as usize, 0);
                    enter!(callee.entry);
                }
                Op::Runtime { func, dst, arg } => {
                    let arg = if arg == NONE { 0 } else { temps[arg as usize] };
                    self.mem.runtime(func, arg)?;
                    if dst != NONE {
                        temps[dst as usize] = 0;
                    }
                }
                Op::New { dst, ty, len } => {
                    let len = (len != NONE).then(|| temps[len as usize]);
                    temps[dst as usize] = self.mem.allocate(&program.types, ty, len)?;
                }
                Op::GcPoint => {}
                Op::Jump { to } => enter!(to),
                Op::Br { cond, then_to, else_to } => {
                    branch!(if temps[cond as usize] != 0 { then_to } else { else_to });
                }
                Op::BinBr { op, dst, a, b, then_to, else_to } => {
                    let v = op.eval(temps[a as usize], temps[b as usize]);
                    temps[dst as usize] = v;
                    branch!(if v != 0 { then_to } else { else_to });
                }
                Op::Ret { src } => {
                    let value = (src != NONE).then(|| temps[src as usize]);
                    let Some(caller) = frames.pop() else {
                        self.steps = steps;
                        return Ok(value);
                    };
                    self.mem.stack.truncate(slot_base);
                    let mut done = std::mem::replace(&mut temps, caller.temps);
                    done.clear();
                    spare.push(done);
                    func = caller.func;
                    slot_base = caller.slot_base as usize;
                    if caller.dst != NONE {
                        temps[caller.dst as usize] = value.unwrap_or(0);
                    }
                    enter!(caller.ret);
                }
                Op::Halt => return Err(Trap::OutOfFuel),
            }
        }
    }
}

/// Convenience: runs `program`'s main and returns the outcome.
///
/// # Errors
///
/// Returns a [`Trap`] on abnormal termination.
pub fn run_program(program: &Program) -> Result<Outcome, Trap> {
    Interp::new(program).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::{GlobalInfo, Program, TempKind};
    use crate::ids::FuncId;
    use crate::instr::BinOp;
    use m3gc_core::heap::HeapType;

    fn one_func_program(b: FuncBuilder) -> Program {
        let mut p = Program::new();
        let id = p.add_func(b.finish());
        p.main = id;
        p
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let x = b.constant(6);
        let y = b.constant(7);
        let r = b.bin(BinOp::Mul, x, y);
        b.ret(Some(r));
        let out = run_program(&one_func_program(b)).unwrap();
        assert_eq!(out.result, Some(42));
    }

    #[test]
    fn heap_allocation_and_fields() {
        let mut p = Program::new();
        let ty =
            p.types.add(HeapType::Record { name: "Pair".into(), words: 2, ptr_offsets: vec![] });
        let mut b = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let obj = b.new_object(ty, None);
        let v = b.constant(99);
        b.store(obj, 1, v); // first field (offset 1 past header)
        let r = b.load(obj, 1, TempKind::Int);
        b.ret(Some(r));
        let f = b.finish();
        let id = p.add_func(f);
        p.main = id;
        let out = run_program(&p).unwrap();
        assert_eq!(out.result, Some(99));
        assert_eq!(out.allocations, 1);
    }

    #[test]
    fn nil_dereference_traps() {
        let mut b = FuncBuilder::new("main", &[]);
        let nil = b.nil();
        let _ = b.load(nil, 0, TempKind::Int);
        b.ret(None);
        assert_eq!(run_program(&one_func_program(b)), Err(Trap::NilError));
    }

    #[test]
    fn printing() {
        let mut b = FuncBuilder::new("main", &[]);
        let x = b.constant(12);
        b.call_runtime(RuntimeFn::PrintInt, vec![x]);
        b.call_runtime(RuntimeFn::PrintLn, vec![]);
        b.ret(None);
        let out = run_program(&one_func_program(b)).unwrap();
        assert_eq!(out.output, "12\n");
    }

    #[test]
    fn calls_and_recursion() {
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let mut p = Program::new();
        let mut fb = FuncBuilder::with_ret("fib", &[TempKind::Int], Some(TempKind::Int));
        let n = fb.param(0);
        let two = fb.constant(2);
        let c = fb.bin(BinOp::Lt, n, two);
        let base = fb.block();
        let rec = fb.block();
        fb.br(c, base, rec);
        fb.switch_to(base);
        fb.ret(Some(n));
        fb.switch_to(rec);
        let one = fb.constant(1);
        let n1 = fb.bin(BinOp::Sub, n, one);
        let a = fb.call(FuncId(0), vec![n1], Some(TempKind::Int)).unwrap();
        let n2 = fb.bin(BinOp::Sub, n, two);
        let bv = fb.call(FuncId(0), vec![n2], Some(TempKind::Int)).unwrap();
        let s = fb.bin(BinOp::Add, a, bv);
        fb.ret(Some(s));
        p.add_func(fb.finish());
        let mut mb = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let ten = mb.constant(10);
        let r = mb.call(FuncId(0), vec![ten], Some(TempKind::Int)).unwrap();
        mb.ret(Some(r));
        let id = p.add_func(mb.finish());
        p.main = id;
        assert_eq!(run_program(&p).unwrap().result, Some(55));
    }

    #[test]
    fn slots_and_addresses() {
        use crate::func::SlotInfo;
        let mut b = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let s = b.slot(SlotInfo::scalar("x", TempKind::Int, true));
        let v = b.constant(31);
        b.store_slot(s, 0, v);
        let addr = b.slot_addr(s);
        let r = b.load(addr, 0, TempKind::Int); // read back through the address
        b.ret(Some(r));
        assert_eq!(run_program(&one_func_program(b)).unwrap().result, Some(31));
    }

    #[test]
    fn globals() {
        let mut p = Program::new();
        let g = p.add_global(GlobalInfo::scalar("g", TempKind::Int));
        let mut b = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let v = b.constant(5);
        b.store_global(g, v);
        let r = b.load_global(g, TempKind::Int);
        b.ret(Some(r));
        let id = p.add_func(b.finish());
        p.main = id;
        assert_eq!(run_program(&p).unwrap().result, Some(5));
    }

    #[test]
    fn fuel_limit() {
        let mut b = FuncBuilder::new("main", &[]);
        let header = b.block();
        b.jump(header);
        b.switch_to(header);
        b.jump(header);
        let p = one_func_program(b);
        let mut i = Interp::new(&p);
        i.set_fuel(1000);
        assert_eq!(i.run(), Err(Trap::OutOfFuel));
    }

    #[test]
    fn derived_values_work_without_gc() {
        // p + 2 used as an address: interior pointer arithmetic.
        let mut p = Program::new();
        let ty = p.types.add(HeapType::Record { name: "R".into(), words: 3, ptr_offsets: vec![] });
        let mut b = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let obj = b.new_object(ty, None);
        let v = b.constant(77);
        b.store(obj, 2, v);
        let two = b.constant(2);
        let interior = b.bin(BinOp::Add, obj, two); // derived value
        let r = b.load(interior, 0, TempKind::Int);
        b.ret(Some(r));
        let id = p.add_func(b.finish());
        p.main = id;
        assert_eq!(run_program(&p).unwrap().result, Some(77));
    }

    fn run_with(p: &Program, fuel: u64) -> Result<Outcome, Trap> {
        let mut i = Interp::new(p);
        i.set_fuel(fuel);
        i.run()
    }

    /// `rec(n) = n = 0 ? 0 : rec(n - 1) + 1`, called from `main` with `n`.
    fn recursion(n: i64) -> Program {
        let mut p = Program::new();
        let mut fb = FuncBuilder::with_ret("rec", &[TempKind::Int], Some(TempKind::Int));
        let x = fb.param(0);
        let zero = fb.constant(0);
        let done = fb.bin(BinOp::Eq, x, zero);
        let (base, step) = (fb.block(), fb.block());
        fb.br(done, base, step);
        fb.switch_to(base);
        fb.ret(Some(zero));
        fb.switch_to(step);
        let one = fb.constant(1);
        let less = fb.bin(BinOp::Sub, x, one);
        let r = fb.call(FuncId(0), vec![less], Some(TempKind::Int)).unwrap();
        let s = fb.bin(BinOp::Add, r, one);
        fb.ret(Some(s));
        p.add_func(fb.finish());
        let mut mb = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let n = mb.constant(n);
        let r = mb.call(FuncId(0), vec![n], Some(TempKind::Int)).unwrap();
        mb.ret(Some(r));
        p.main = p.add_func(mb.finish());
        p
    }

    #[test]
    fn call_depth_is_bounded_by_max_depth_not_the_native_stack() {
        // A 256 KiB thread would overflow at a few hundred native frames.
        let deep = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let fits = run_program(&recursion(MAX_DEPTH as i64 - 2)).map(|o| o.result);
                (fits, run_program(&recursion(MAX_DEPTH as i64)))
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(deep, (Ok(Some(MAX_DEPTH as i64 - 2)), Err(Trap::StackOverflow)));
    }

    #[test]
    fn fused_ops_write_every_temp_and_count_every_step() {
        // k := 5; s := x + k; c := s < k; br c: a `BinK`, then a `BinBr`;
        // the result reads both fused temps.
        let mut b = FuncBuilder::with_ret("main", &[], Some(TempKind::Int));
        let x = b.constant(-3);
        let k = b.constant(5);
        let s = b.bin(BinOp::Add, x, k);
        let c = b.bin(BinOp::Lt, s, k);
        let (yes, no) = (b.block(), b.block());
        b.br(c, yes, no);
        b.switch_to(yes);
        let r = b.bin(BinOp::Mul, s, k);
        let r2 = b.bin(BinOp::Add, r, c);
        b.ret(Some(r2));
        b.switch_to(no);
        b.ret(Some(x));
        let out = run_program(&one_func_program(b)).unwrap();
        assert_eq!((out.result, out.steps), (Some(11), 8));
    }

    #[test]
    fn fuel_is_exact_across_fusions_fallthrough_and_calls() {
        // main: a fall-through chain, a call, then a NIL load whose trap
        // must win at exactly its step and not one step earlier.
        let mut p = Program::new();
        let mut fb = FuncBuilder::with_ret("inc", &[TempKind::Int], Some(TempKind::Int));
        let one = fb.constant(1);
        let r = fb.bin(BinOp::Add, fb.param(0), one);
        fb.ret(Some(r));
        p.add_func(fb.finish());
        let mut b = FuncBuilder::new("main", &[]);
        let two = b.constant(2);
        let next = b.block();
        b.jump(next);
        b.switch_to(next);
        let three = b.call(FuncId(0), vec![two], Some(TempKind::Int)).unwrap();
        let after = b.block();
        b.jump(after);
        b.switch_to(after);
        b.call_runtime(RuntimeFn::PrintInt, vec![three]);
        let nil = b.nil();
        let _ = b.load(nil, 1, TempKind::Int);
        b.ret(None);
        p.main = p.add_func(b.finish());
        // const, jump, call, (const+add, ret), jump, print, nil, load.
        let trap_step = 10;
        for fuel in 0..trap_step + 3 {
            let want = if fuel < trap_step { Trap::OutOfFuel } else { Trap::NilError };
            assert_eq!(run_with(&p, fuel), Err(want), "fuel {fuel}");
        }
    }
}
