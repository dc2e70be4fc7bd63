//! Shadow root tracking — the dynamic ground truth the gc-map precision
//! oracle confronts the static tables with.
//!
//! When enabled ([`crate::machine::Machine::enable_shadow`]), the machine
//! maintains, alongside every memory word (here) and every register of
//! every thread (in its [`crate::exec::Cpu`]), a [`Tag`] describing what
//! the instrumented execution *knows* the value to be:
//!
//! * [`Tag::Ptr`] — the word was produced by an allocation (or copied
//!   from one), i.e. it is the address of an object's header;
//! * [`Tag::Derived`] — the word was produced by pointer arithmetic
//!   involving at least one `Ptr`/`Derived` operand (interior pointers
//!   from `WITH`, strength-reduced induction pointers, virtual array
//!   origins);
//! * [`Tag::NonPtr`] — everything else.
//!
//! Propagation is purely local: moves and loads copy tags, stores write
//! them through, additive ALU operations involving exactly one
//! pointerish operand yield `Derived` (a pointer difference or a
//! comparison yields `NonPtr`), and allocation tags its result `Ptr`
//! while clearing the object's field tags. The collector relocates an
//! object's tags together with its words ([`Shadow::copy_words`]) so the
//! shadow stays truthful across space flips.
//!
//! Two properties make this an oracle for the compiler-emitted tables:
//!
//! 1. **Missed pointers trap.** Under a copying collector every live
//!    object moves at every collection, so a pointer the tables failed to
//!    describe keeps its stale from-space value. The machine checks every
//!    register-based memory access against the dead half(s) of the heap
//!    and raises [`crate::machine::VmTrap::StalePointer`] — turning the
//!    silent unsoundness into a deterministic trap at first use. A stale
//!    pointer that is *never* used again is exactly the liveness slack the
//!    paper permits, and passes.
//! 2. **Stale extras are visible.** At each collection the runtime's
//!    oracle compares every decoded table entry against these tags: a
//!    "tidy pointer" slot whose tag is `NonPtr`, or a derivation whose
//!    base is not a `Ptr`, is a table lying about the frame contents.

use crate::pages::Zeroed;

/// What the instrumented execution knows a word to be. One byte, and
/// the zero byte is `NonPtr`, so a shadow starts as zeroed memory
/// ([`crate::pages::Zeroed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Tag {
    /// Not known to involve a pointer.
    #[default]
    NonPtr = 0,
    /// The address of an object header, as returned by an allocation.
    Ptr = 1,
    /// A value computed by pointer arithmetic (interior pointer, virtual
    /// array origin, …).
    Derived = 2,
}

impl Tag {
    /// True for `Ptr` and `Derived` — values that participate in pointer
    /// arithmetic.
    #[must_use]
    pub fn pointerish(self) -> bool {
        self != Tag::NonPtr
    }

    /// Byte encoding, for atomic shadow storage (`crate::par`).
    #[must_use]
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Tag::to_byte`]; unknown bytes decode as `NonPtr`.
    #[must_use]
    pub fn from_byte(b: u8) -> Tag {
        match b {
            1 => Tag::Ptr,
            2 => Tag::Derived,
            _ => Tag::NonPtr,
        }
    }

    /// The tag combination rule for additive ALU operations: exactly one
    /// pointerish operand derives; anything else (including a pointer
    /// difference) is an ordinary integer.
    #[must_use]
    pub fn combine_additive(a: Tag, b: Tag) -> Tag {
        if a.pointerish() != b.pointerish() {
            Tag::Derived
        } else {
            Tag::NonPtr
        }
    }
}

/// The sequential machine's memory shadow: one tag per memory word.
#[derive(Debug)]
pub struct Shadow {
    /// Per-word tags, parallel to `Machine::mem`.
    pub mem: Zeroed<Tag>,
}

impl Shadow {
    /// Creates a shadow for a machine with `mem_words` words of memory.
    #[must_use]
    pub fn new(mem_words: usize) -> Shadow {
        Shadow { mem: Zeroed::new(mem_words) }
    }

    /// Reads a memory word's tag.
    #[must_use]
    pub fn mem_tag(&self, addr: i64) -> Tag {
        self.mem.get(addr as usize).copied().unwrap_or(Tag::NonPtr)
    }

    /// Writes a memory word's tag (out-of-range addresses are ignored —
    /// the real access traps first).
    pub fn set_mem(&mut self, addr: i64, tag: Tag) {
        if let Some(t) = self.mem.get_mut(addr as usize) {
            *t = tag;
        }
    }

    /// Clears `words` tags starting at `addr` (fresh allocation, zeroed
    /// frame).
    pub fn clear_range(&mut self, addr: i64, words: i64) {
        let lo = addr as usize;
        let hi = (addr + words) as usize;
        if hi <= self.mem.len() {
            self.mem[lo..hi].fill(Tag::NonPtr);
        }
    }

    /// Moves an object's tags along with its words (called by the
    /// collectors' forwarding routines).
    pub fn copy_words(&mut self, from: i64, to: i64, words: i64) {
        self.mem.copy_within(from as usize..(from + words) as usize, to as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_combination() {
        assert_eq!(Tag::combine_additive(Tag::Ptr, Tag::NonPtr), Tag::Derived);
        assert_eq!(Tag::combine_additive(Tag::NonPtr, Tag::Derived), Tag::Derived);
        assert_eq!(Tag::combine_additive(Tag::Ptr, Tag::Ptr), Tag::NonPtr);
        assert_eq!(Tag::combine_additive(Tag::NonPtr, Tag::NonPtr), Tag::NonPtr);
    }

    #[test]
    fn copy_moves_tags() {
        let mut s = Shadow::new(16);
        s.set_mem(2, Tag::Ptr);
        s.set_mem(3, Tag::Derived);
        s.copy_words(2, 10, 2);
        assert_eq!(s.mem_tag(10), Tag::Ptr);
        assert_eq!(s.mem_tag(11), Tag::Derived);
        s.clear_range(10, 2);
        assert_eq!(s.mem_tag(10), Tag::NonPtr);
    }
}
