//! A reference interpreter for IR programs.
//!
//! Executes a [`Program`] directly, with an ever-growing heap and **no
//! garbage collection** — objects never move, so derived values need no
//! maintenance. This gives an independent semantics against which the
//! optimizer and the VM+collector pipeline are differentially tested: any
//! program must produce the same output here, at every optimization level,
//! and on the VM with collections forced at every gc-point.

use std::collections::HashMap;

use m3gc_core::heap::HeapType;

use crate::func::{Function, Program};
use crate::ids::{FuncId, Temp};
use crate::instr::{Instr, RuntimeFn, Terminator};

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
    globals: Vec<i64>,
    stack: Vec<i64>,
    heap: Vec<i64>,
    output: String,
    fuel: u64,
    steps: u64,
    allocations: u64,
    depth: usize,
    global_offsets: HashMap<u32, i64>,
}

/// Default step budget.
pub const DEFAULT_FUEL: u64 = 200_000_000;
/// Maximum call depth.
const MAX_DEPTH: usize = 40_000;

impl<'a> Interp<'a> {
    /// Creates an interpreter for `program`.
    #[must_use]
    pub fn new(program: &'a Program) -> Interp<'a> {
        let mut global_offsets = HashMap::new();
        let mut off = 0i64;
        for (i, g) in program.globals.iter().enumerate() {
            global_offsets.insert(i as u32, off);
            off += i64::from(g.words);
        }
        Interp {
            program,
            globals: vec![0; program.globals_words() as usize],
            stack: Vec::new(),
            heap: Vec::new(),
            output: String::new(),
            fuel: DEFAULT_FUEL,
            steps: 0,
            allocations: 0,
            depth: 0,
            global_offsets,
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
        let result = self.exec(self.program.main, &[])?;
        Ok(Outcome {
            result,
            output: self.output,
            steps: self.steps,
            allocations: self.allocations,
        })
    }

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

    fn allocate(&mut self, ty_id: u32, len: Option<i64>) -> Result<i64, Trap> {
        let ty = &self.program.types.types[ty_id as usize];
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

    fn runtime(&mut self, f: RuntimeFn, args: &[i64]) -> Result<(), Trap> {
        match f {
            RuntimeFn::PrintInt => {
                self.output.push_str(&args[0].to_string());
                Ok(())
            }
            RuntimeFn::PrintChar => {
                let c = u32::try_from(args[0]).ok().and_then(char::from_u32).unwrap_or('?');
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

    fn exec(&mut self, func: FuncId, args: &[i64]) -> Result<Option<i64>, Trap> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Trap::StackOverflow);
        }
        let f: &Function = &self.program.funcs[func.index()];
        debug_assert_eq!(args.len(), f.n_params);
        let mut temps = vec![0i64; f.temp_count()];
        temps[..args.len()].copy_from_slice(args);
        // Allocate this frame's slots on the interpreter stack.
        let slot_words: u32 = f.slots.iter().map(|s| s.words).sum();
        let frame_base = self.stack.len();
        self.stack.resize(frame_base + slot_words as usize, 0);
        let mut slot_offsets = Vec::with_capacity(f.slots.len());
        {
            let mut off = frame_base;
            for s in &f.slots {
                slot_offsets.push(off);
                off += s.words as usize;
            }
        }

        let mut bb = f.entry;
        let result = 'run: loop {
            let block = f.block(bb);
            for ins in &block.instrs {
                self.steps += 1;
                if self.steps > self.fuel {
                    return Err(Trap::OutOfFuel);
                }
                match ins {
                    Instr::Const { dst, value } => temps[dst.index()] = *value,
                    Instr::Copy { dst, src } => temps[dst.index()] = temps[src.index()],
                    Instr::Bin { dst, op, a, b } => {
                        temps[dst.index()] = op.eval(temps[a.index()], temps[b.index()]);
                    }
                    Instr::Un { dst, op, a } => temps[dst.index()] = op.eval(temps[a.index()]),
                    Instr::Load { dst, addr, offset } => {
                        temps[dst.index()] = self.read(temps[addr.index()] + i64::from(*offset))?;
                    }
                    Instr::Store { addr, offset, src } => {
                        self.write(temps[addr.index()] + i64::from(*offset), temps[src.index()])?;
                    }
                    Instr::LoadSlot { dst, slot, offset } => {
                        temps[dst.index()] =
                            self.stack[slot_offsets[slot.index()] + *offset as usize];
                    }
                    Instr::StoreSlot { slot, offset, src } => {
                        self.stack[slot_offsets[slot.index()] + *offset as usize] =
                            temps[src.index()];
                    }
                    Instr::SlotAddr { dst, slot } => {
                        temps[dst.index()] = STACK_BASE + slot_offsets[slot.index()] as i64;
                    }
                    Instr::LoadGlobal { dst, global } => {
                        temps[dst.index()] = self.globals[self.global_offsets[&global.0] as usize];
                    }
                    Instr::StoreGlobal { global, src } => {
                        self.globals[self.global_offsets[&global.0] as usize] = temps[src.index()];
                    }
                    Instr::GlobalAddr { dst, global } => {
                        temps[dst.index()] = GLOBAL_BASE + self.global_offsets[&global.0];
                    }
                    Instr::Call { dst, func, args } => {
                        let arg_vals: Vec<i64> = args.iter().map(|a| temps[a.index()]).collect();
                        let r = self.exec(*func, &arg_vals)?;
                        if let Some(d) = dst {
                            temps[d.index()] = r.unwrap_or(0);
                        }
                    }
                    Instr::CallRuntime { dst, func, args } => {
                        let arg_vals: Vec<i64> = args.iter().map(|a| temps[a.index()]).collect();
                        self.runtime(*func, &arg_vals)?;
                        if let Some(d) = dst {
                            temps[d.index()] = 0;
                        }
                    }
                    Instr::New { dst, ty, len } => {
                        let l = len.map(|t| temps[t.index()]);
                        temps[dst.index()] = self.allocate(ty.0, l)?;
                    }
                    Instr::GcPoint => {}
                }
            }
            self.steps += 1;
            if self.steps > self.fuel {
                return Err(Trap::OutOfFuel);
            }
            match &block.term {
                Terminator::Jump(b) => bb = *b,
                Terminator::Br { cond, then_bb, else_bb } => {
                    bb = if temps[cond.index()] != 0 { *then_bb } else { *else_bb };
                }
                Terminator::Ret(v) => break 'run v.map(|t: Temp| temps[t.index()]),
            }
        };
        self.stack.truncate(frame_base);
        self.depth -= 1;
        Ok(result)
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
}
