//! Heap object type descriptors.
//!
//! Modula-3 requires type descriptors in heap objects, "which makes it
//! straightforward to determine the size of heap allocated objects and to
//! find pointers within them" (§2, requirements i–ii). Every heap object
//! starts with a header word holding its [`TypeId`]; open arrays carry an
//! additional length word. The collector consults the [`TypeTable`] to size
//! and trace objects; because descriptors are type-specific, tracing does
//! not need per-object pointer tags.

/// Index of a type descriptor in the module's [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u32);

impl std::fmt::Display for TypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// Number of header words preceding a record's fields.
pub const RECORD_HEADER_WORDS: u32 = 1;
/// Number of header words preceding an array's elements (type + length).
pub const ARRAY_HEADER_WORDS: u32 = 2;

/// Bit position of the object age field within a (non-negative) header word.
///
/// The low 32 bits of a live header hold the [`TypeId`]; the generational
/// collector packs a small survival count above them. Forwarded objects
/// store `-(new_addr + 1)` instead, so the age bits only ever matter while
/// the object is live — they are dropped when the copy's header is written.
pub const HEADER_AGE_SHIFT: u32 = 32;
/// Maximum representable object age (saturating).
pub const HEADER_AGE_MAX: u32 = 0xff;

/// Extracts the type id from a live (non-negative) header word.
#[must_use]
pub fn header_type_id(header: i64) -> TypeId {
    debug_assert!(header >= 0, "forwarded header has no type id");
    TypeId(header as u32)
}

/// Extracts the survival count from a live (non-negative) header word.
#[must_use]
pub fn header_age(header: i64) -> u32 {
    debug_assert!(header >= 0, "forwarded header has no age");
    ((header >> HEADER_AGE_SHIFT) as u32) & HEADER_AGE_MAX
}

/// Returns `header` with its age field replaced by `age` (saturated).
#[must_use]
pub fn header_with_age(header: i64, age: u32) -> i64 {
    debug_assert!(header >= 0, "forwarded header has no age");
    let age = i64::from(age.min(HEADER_AGE_MAX));
    (header & !((i64::from(HEADER_AGE_MAX)) << HEADER_AGE_SHIFT)) | (age << HEADER_AGE_SHIFT)
}

/// The shape of one heap-allocated type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapType {
    /// A record: fixed size, pointers at fixed offsets (in words, relative
    /// to the first field, i.e. excluding the header).
    Record {
        /// Source-level type name, for diagnostics.
        name: String,
        /// Number of field words (excluding the header).
        words: u32,
        /// Offsets of pointer fields within the field area.
        ptr_offsets: Vec<u32>,
    },
    /// An array: per-element size and pointer pattern; the length is stored
    /// in the object (second header word).
    Array {
        /// Source-level type name, for diagnostics.
        name: String,
        /// Words per element.
        elem_words: u32,
        /// Offsets of pointers within one element.
        elem_ptr_offsets: Vec<u32>,
    },
}

impl HeapType {
    /// The type's source-level name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            HeapType::Record { name, .. } | HeapType::Array { name, .. } => name,
        }
    }

    /// Total object size in words (header included) for an instance with
    /// `len` elements (`len` ignored for records).
    #[must_use]
    pub fn object_words(&self, len: u32) -> u32 {
        match self {
            HeapType::Record { words, .. } => RECORD_HEADER_WORDS + words,
            HeapType::Array { elem_words, .. } => ARRAY_HEADER_WORDS + elem_words * len,
        }
    }

    /// [`HeapType::object_words`] for a length a program computed: `None`
    /// when `len` does not fit an array's length header (`u32`) or the
    /// object's size overflows `u32`. On every allocation's path.
    #[inline]
    #[must_use]
    pub fn checked_object_words(&self, len: i64) -> Option<u32> {
        let len = u32::try_from(len).ok()?;
        match self {
            HeapType::Record { words, .. } => RECORD_HEADER_WORDS.checked_add(*words),
            HeapType::Array { elem_words, .. } => {
                elem_words.checked_mul(len)?.checked_add(ARRAY_HEADER_WORDS)
            }
        }
    }

    /// Offsets (in words, relative to the object header) of every pointer
    /// field of an instance with `len` elements.
    ///
    /// Thin wrapper over [`HeapType::pointer_offset_iter`] kept for tests
    /// and callers that want a materialised list; the collectors use the
    /// iterator directly so the evacuation scan loop never allocates.
    pub fn pointer_offsets(&self, len: u32) -> Vec<u32> {
        self.pointer_offset_iter(len).collect()
    }

    /// Allocation-free iterator over the offsets (in words, relative to the
    /// object header) of every pointer field of an instance with `len`
    /// elements (`len` ignored for records).
    pub fn pointer_offset_iter(&self, len: u32) -> PointerOffsets<'_> {
        match self {
            HeapType::Record { ptr_offsets, .. } => PointerOffsets {
                offsets: ptr_offsets,
                next: 0,
                elem: 0,
                elems: 1,
                base: RECORD_HEADER_WORDS,
                stride: 0,
            },
            HeapType::Array { elem_words, elem_ptr_offsets, .. } => PointerOffsets {
                offsets: elem_ptr_offsets,
                next: 0,
                elem: 0,
                elems: len,
                base: ARRAY_HEADER_WORDS,
                stride: *elem_words,
            },
        }
    }

    /// True if instances can contain pointers.
    #[must_use]
    pub fn has_pointers(&self) -> bool {
        match self {
            HeapType::Record { ptr_offsets, .. } => !ptr_offsets.is_empty(),
            HeapType::Array { elem_ptr_offsets, .. } => !elem_ptr_offsets.is_empty(),
        }
    }
}

/// Allocation-free iterator over an object's pointer-field offsets.
///
/// Borrowed from a [`HeapType`]; produced by
/// [`HeapType::pointer_offset_iter`]. For records it walks the descriptor's
/// offset list once; for arrays it replays the per-element pattern `elems`
/// times, adding the element stride each pass.
#[derive(Debug, Clone)]
pub struct PointerOffsets<'a> {
    offsets: &'a [u32],
    next: usize,
    elem: u32,
    elems: u32,
    base: u32,
    stride: u32,
}

impl Iterator for PointerOffsets<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.offsets.is_empty() {
            return None;
        }
        while self.elem < self.elems {
            if let Some(&o) = self.offsets.get(self.next) {
                self.next += 1;
                return Some(self.base + self.elem * self.stride + o);
            }
            self.elem += 1;
            self.next = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.elem >= self.elems || self.offsets.is_empty() {
            return (0, Some(0));
        }
        let remaining_elems = (self.elems - self.elem - 1) as usize;
        let n = remaining_elems * self.offsets.len() + (self.offsets.len() - self.next);
        (n, Some(n))
    }
}

impl ExactSizeIterator for PointerOffsets<'_> {}

/// The module's table of heap type descriptors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypeTable {
    /// Descriptors, indexed by [`TypeId`].
    pub types: Vec<HeapType>,
}

impl TypeTable {
    /// Adds a descriptor, returning its id.
    pub fn add(&mut self, ty: HeapType) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(ty);
        id
    }

    /// Looks up a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn get(&self, id: TypeId) -> &HeapType {
        &self.types[id.0 as usize]
    }

    /// Number of descriptors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True if the table has no descriptors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_layout() {
        let t = HeapType::Record { name: "List".into(), words: 2, ptr_offsets: vec![1] };
        assert_eq!(t.object_words(0), 3);
        assert_eq!(t.pointer_offsets(0), vec![2]);
        assert!(t.has_pointers());
        assert_eq!(t.name(), "List");
    }

    #[test]
    fn array_layout() {
        let t = HeapType::Array { name: "Refs".into(), elem_words: 2, elem_ptr_offsets: vec![0] };
        assert_eq!(t.object_words(3), 2 + 6);
        assert_eq!(t.pointer_offsets(3), vec![2, 4, 6]);
    }

    #[test]
    fn checked_sizes_refuse_what_a_header_cannot_hold() {
        let words =
            HeapType::Array { name: "Ints".into(), elem_words: 1, elem_ptr_offsets: vec![] };
        let pairs =
            HeapType::Array { name: "Pairs".into(), elem_words: 2, elem_ptr_offsets: vec![] };
        assert_eq!(words.checked_object_words(3), Some(5));
        assert_eq!(words.checked_object_words(1 << 32), None);
        assert_eq!(words.checked_object_words(-1), None);
        assert_eq!(words.checked_object_words(i64::from(u32::MAX)), None);
        assert_eq!(pairs.checked_object_words(1 << 31), None);
        assert_eq!(pairs.checked_object_words((1 << 31) - 2), Some(u32::MAX - 1));
    }

    #[test]
    fn pointer_free_types() {
        let t = HeapType::Array { name: "Ints".into(), elem_words: 1, elem_ptr_offsets: vec![] };
        assert!(!t.has_pointers());
        assert_eq!(t.pointer_offsets(10), Vec::<u32>::new());
    }

    #[test]
    fn offset_iterator_matches_vec_api() {
        let rec = HeapType::Record { name: "R".into(), words: 5, ptr_offsets: vec![0, 2, 4] };
        let arr = HeapType::Array { name: "A".into(), elem_words: 3, elem_ptr_offsets: vec![1, 2] };
        for len in [0u32, 1, 2, 7] {
            assert_eq!(rec.pointer_offset_iter(len).collect::<Vec<_>>(), rec.pointer_offsets(len));
            assert_eq!(arr.pointer_offset_iter(len).collect::<Vec<_>>(), arr.pointer_offsets(len));
            assert_eq!(arr.pointer_offset_iter(len).len(), arr.pointer_offsets(len).len());
        }
        assert_eq!(arr.pointer_offset_iter(2).collect::<Vec<_>>(), vec![3, 4, 6, 7]);
    }

    #[test]
    fn header_age_packing() {
        let header = i64::from(TypeId(7).0);
        assert_eq!(header_type_id(header), TypeId(7));
        assert_eq!(header_age(header), 0);
        let aged = header_with_age(header, 3);
        assert_eq!(header_type_id(aged), TypeId(7));
        assert_eq!(header_age(aged), 3);
        assert!(aged >= 0, "aged headers must stay non-negative (forwarding uses sign)");
        let sat = header_with_age(aged, HEADER_AGE_MAX + 10);
        assert_eq!(header_age(sat), HEADER_AGE_MAX);
        assert_eq!(header_with_age(sat, 0), header);
    }

    #[test]
    fn type_table() {
        let mut table = TypeTable::default();
        assert!(table.is_empty());
        let id = table.add(HeapType::Record { name: "T".into(), words: 1, ptr_offsets: vec![] });
        assert_eq!(id, TypeId(0));
        assert_eq!(table.get(id).name(), "T");
        assert_eq!(table.len(), 1);
    }
}
