//! Zeroed memory that costs address space until it is touched.
//!
//! A machine's words, its shadow tags and the cms mark bitmap are
//! [`Zeroed`] slices. On unix each is an anonymous private mapping of
//! its own ([`Mapping`]), unmapped on drop: the kernel zeroes a page the
//! first time it is touched, so a machine is resident only where its
//! program goes, and the half of the heap a copying collector keeps in
//! reserve costs nothing until a collection copies into it. Going
//! through the allocator instead (`calloc`, `alloc_zeroed`) is only lazy
//! for a process's first large block: glibc raises its mmap threshold to
//! the size of a freed mapped block, so every later machine of that size
//! came from recycled heap that calloc `memset` whole. Other targets
//! keep `alloc_zeroed`.
//!
//! This module also holds the workspace's one declaration of `mmap`,
//! `munmap` and `mprotect`: the JIT's executable memory maps through
//! [`Mapping`] too (`m3gc_jit::exec::ExecMem`).

use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Element types whose all-zero bytes are a valid value: `0`, `false`
/// and [`Tag::NonPtr`](crate::shadow::Tag::NonPtr). Sealed, so a
/// [`Zeroed`] can hold nothing else.
pub trait ZeroIsValid: sealed::Sealed {}

mod sealed {
    use crate::shadow::Tag;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8};

    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for AtomicI64 {}
    impl Sealed for AtomicU64 {}
    impl Sealed for AtomicU8 {}
    impl Sealed for AtomicBool {}
    impl Sealed for Tag {}
}

impl<T: sealed::Sealed> ZeroIsValid for T {}

/// `len` zero-valued `T`s in memory of their own, reached as a `[T]`.
pub struct Zeroed<T: ZeroIsValid> {
    ptr: NonNull<T>,
    len: usize,
    /// Owns the pages `ptr` points into; `None` when `len` is zero.
    #[cfg(unix)]
    _map: Option<Mapping>,
}

// SAFETY: a `Zeroed<T>` owns its `T`s as a `Vec<T>` does; the raw
// pointer only stands in for the allocation.
unsafe impl<T: ZeroIsValid + Send> Send for Zeroed<T> {}
// SAFETY: as above — `&Zeroed<T>` hands out only `&[T]`.
unsafe impl<T: ZeroIsValid + Sync> Sync for Zeroed<T> {}

impl<T: ZeroIsValid> Zeroed<T> {
    /// `len` zeros. Nothing is written: on unix the pages are fresh from
    /// the kernel, elsewhere from `alloc_zeroed`.
    ///
    /// # Panics
    ///
    /// Panics if `len` `T`s overflow the address space; aborts (as a
    /// `Vec` does) if the memory cannot be had.
    #[must_use]
    pub fn new(len: usize) -> Zeroed<T> {
        let layout = std::alloc::Layout::array::<T>(len).expect("zeroed memory size overflows");
        if layout.size() == 0 {
            return Zeroed {
                ptr: NonNull::dangling(),
                len,
                #[cfg(unix)]
                _map: None,
            };
        }
        #[cfg(unix)]
        {
            let map = Mapping::new(layout.size())
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            // Page-aligned, so aligned for every `ZeroIsValid` type.
            Zeroed { ptr: map.base.cast(), len, _map: Some(map) }
        }
        #[cfg(not(unix))]
        {
            // SAFETY: `layout` has a nonzero size, as `alloc_zeroed`
            // requires.
            let p = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<T>();
            let ptr = NonNull::new(p).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            Zeroed { ptr, len }
        }
    }
}

impl<T: ZeroIsValid> Deref for Zeroed<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is aligned and valid for `len` `T`s for as long as
        // `self` lives, and every one is initialised: all-zero bytes are
        // a valid `T` for every `ZeroIsValid` type.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: ZeroIsValid> DerefMut for Zeroed<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

#[cfg(not(unix))]
impl<T: ZeroIsValid> Drop for Zeroed<T> {
    fn drop(&mut self) {
        let layout = std::alloc::Layout::array::<T>(self.len).expect("allocated with this layout");
        if layout.size() != 0 {
            // SAFETY: `ptr` came from `alloc_zeroed` with this layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr().cast(), layout) };
        }
    }
}

impl<T: ZeroIsValid + std::fmt::Debug> std::fmt::Debug for Zeroed<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(unix)]
pub use mapping::Mapping;

#[cfg(unix)]
mod mapping {
    use std::ffi::c_void;
    use std::ptr::{self, NonNull};

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    }

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    #[cfg(target_os = "linux")]
    const MAP_ANONYMOUS: i32 = 0x20;
    #[cfg(not(target_os = "linux"))]
    const MAP_ANONYMOUS: i32 = 0x1000;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    /// An anonymous private read-write mapping, unmapped on drop. Its
    /// pages read as zero until written.
    #[derive(Debug)]
    pub struct Mapping {
        pub(super) base: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is plain memory owned by this value; nothing
    // about it is tied to the thread that mapped it.
    unsafe impl Send for Mapping {}
    // SAFETY: `&Mapping` only hands out the base address.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes (`len > 0`). `None` when the kernel refuses.
        #[must_use]
        pub fn new(len: usize) -> Option<Mapping> {
            assert!(len > 0, "mapping zero bytes");
            // SAFETY: an anonymous private mapping at an address the
            // kernel picks aliases no Rust allocation.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base == MAP_FAILED {
                return None;
            }
            Some(Mapping { base: NonNull::new(base.cast())?, len })
        }

        /// The first byte; page-aligned.
        #[must_use]
        pub fn base(&self) -> *mut u8 {
            self.base.as_ptr()
        }

        /// Mapped length in bytes, as asked of [`Mapping::new`].
        #[must_use]
        pub fn len(&self) -> usize {
            self.len
        }

        /// Always false: empty mappings are never made.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            false
        }

        /// Makes the mapping read-execute (and no longer writable).
        /// `false` when the kernel refuses, which leaves it read-write.
        #[must_use]
        pub fn make_executable(&mut self) -> bool {
            // SAFETY: `base..base + len` is exactly this mapping, and
            // nothing borrows its bytes: only raw pointers reach them.
            unsafe { mprotect(self.base.as_ptr().cast(), self.len, PROT_READ | PROT_EXEC) == 0 }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `base`/`len` are exactly the mapping `new` made.
            unsafe {
                munmap(self.base.as_ptr().cast(), self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::Tag;
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

    #[test]
    fn starts_zero_and_keeps_what_is_written() {
        let mut words = Zeroed::<i64>::new(1 << 16);
        assert_eq!(words.len(), 1 << 16);
        assert!(words.iter().all(|&w| w == 0));
        words[12345] = -7;
        words.copy_within(12345..12346, 0);
        assert_eq!((words[0], words[12345]), (-7, -7));
        assert!(Zeroed::<Tag>::new(4097).iter().all(|&t| t == Tag::NonPtr));
        let flags = Zeroed::<AtomicBool>::new(3);
        flags[2].store(true, Relaxed);
        assert_eq!(flags.iter().filter(|f| f.load(Relaxed)).count(), 1);
    }

    #[test]
    fn empty_needs_no_memory() {
        let none = Zeroed::<AtomicI64>::new(0);
        assert!(none.is_empty());
        assert_eq!(format!("{:?}", Zeroed::<i64>::new(0)), "[]");
    }
}
