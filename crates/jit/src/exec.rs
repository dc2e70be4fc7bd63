//! Executable memory for JIT-compiled code.
//!
//! One mapping per engine, written read-write and then flipped to
//! read-execute (W^X). It is an [`m3gc_vm::pages::Mapping`], the
//! workspace's one seam to `mmap`; everything is gated to
//! `x86_64`/unix, and other targets get the structural fallback path in
//! [`crate::engine`].

#![cfg(all(target_arch = "x86_64", unix))]

use m3gc_vm::pages::Mapping;

/// A mapped read-execute code region. Unmapped on drop.
pub struct ExecMem {
    map: Mapping,
}

impl ExecMem {
    /// Maps `code` into fresh executable memory. `None` when the kernel
    /// refuses anonymous executable mappings (hardened configurations) —
    /// the engine then falls back to the interpreter.
    #[must_use]
    pub fn new(code: &[u8]) -> Option<ExecMem> {
        assert!(!code.is_empty(), "mapping an empty code region");
        let page = 4096usize;
        let mut map = Mapping::new(code.len().div_ceil(page) * page)?;
        // SAFETY: the mapping is fresh, read-write and at least
        // `code.len()` bytes long.
        unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), map.base(), code.len()) };
        map.make_executable().then_some(ExecMem { map })
    }

    /// Base address of the mapped code.
    #[must_use]
    pub fn base(&self) -> *const u8 {
        self.map.base()
    }

    /// Mapped length in bytes (page-rounded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Always false — empty regions are never mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_executes_a_return_constant() {
        // mov eax, 42; ret
        let code = [0xb8, 42, 0, 0, 0, 0xc3];
        let Some(mem) = ExecMem::new(&code) else {
            eprintln!("executable mappings unavailable; skipping");
            return;
        };
        let f: extern "sysv64" fn() -> i32 = unsafe { std::mem::transmute(mem.base()) };
        assert_eq!(f(), 42);
    }
}
