//! The gc-map precision oracle.
//!
//! Confronts the compiler-emitted tables with the dynamic ground truth
//! maintained by the VM's shadow mode (`m3gc_vm::shadow`). Invoked by the
//! scheduler at every collection — *before* any object moves — with every
//! non-finished thread stopped at a gc-point, exactly the state the
//! tables claim to describe.
//!
//! The check catches the "stale extras" half of precision: every decoded
//! entry must be truthful about the frame it describes.
//!
//! * A **tidy root** must be NIL or the address of a live, plausible
//!   object (inside the allocated from-space prefix, non-forwarded
//!   header, known type id) whose shadow tag is `Ptr` — a slot the table
//!   calls a pointer but execution filled with an integer is a lie that
//!   would send the collector chasing a wild address.
//! * A **derivation**'s bases must each be NIL or live `Ptr`-tagged
//!   objects, and its target must carry a pointerish tag — a "derived
//!   value" the instrumented execution never saw pointer arithmetic
//!   produce cannot be un-derived meaningfully — unless every base reads
//!   NIL, when the update is the identity whatever the target holds.
//!
//! The *other* half — missed pointers (unsoundness) — is detected by the
//! VM itself: under gc-torture every live object moves at every
//! collection, so a pointer the tables omitted keeps its stale from-space
//! value and the next access through it raises
//! [`m3gc_vm::machine::VmTrap::StalePointer`]. A stale value that is
//! never used again is the liveness slack the paper explicitly permits,
//! and passes both checks.

use m3gc_core::decode::DecodeCache;
use m3gc_core::heap::header_type_id;
use m3gc_vm::exec::World;
use m3gc_vm::machine::Machine;
use m3gc_vm::shadow::Tag;

use crate::trace::{
    gather_global_roots, gather_stack_roots, read_root_in, RootRef, RootSource, StackRoots,
};

/// The live (allocated) heap ranges: the from-space prefix for a
/// semispace heap; the nursery prefix plus the tenured prefix for a
/// generational one.
fn live_ranges(m: &Machine) -> [(i64, i64); 2] {
    if m.is_generational() {
        crate::gengc::live_ranges(m)
    } else {
        [(m.from_space().0, m.alloc_ptr), (0, 0)]
    }
}

/// The shadow tag a table entry's location currently carries.
fn root_tag(m: &Machine, r: RootRef) -> Tag {
    match r {
        RootRef::Mem(a) => m.mem_tag(a),
        RootRef::Reg { thread, reg } => m.threads[thread as usize].reg_tags[reg as usize],
    }
}

/// Checks that `v` is the address of a live, plausible object.
/// `forwarded_ok` whitelists values whose forwarded header is a legal
/// transient (a cset original mid-evacuation, healed lazily).
fn check_object(
    src: &impl RootSource,
    ranges: &[(i64, i64)],
    forwarded_ok: &impl Fn(i64) -> bool,
    v: i64,
) -> Result<(), String> {
    if !ranges.iter().any(|&(s, e)| (s..e).contains(&v)) {
        return Err(format!("value {v} is outside the live heap"));
    }
    let header = src.mem_word(v);
    if header < 0 {
        if forwarded_ok(v) {
            return Ok(());
        }
        return Err(format!("value {v} points at a forwarded header"));
    }
    let tid = header_type_id(header);
    if tid.0 as usize >= src.module().types.len() {
        return Err(format!("value {v} has implausible type id {tid}"));
    }
    Ok(())
}

/// The validation core, shared by the single-threaded [`check`] and the
/// parallel runtime's pre-collection check: confronts already-gathered
/// roots with the shadow tags `tag_of` reports.
pub(crate) fn check_entries(
    src: &impl RootSource,
    tag_of: impl Fn(RootRef) -> Tag,
    ranges: &[(i64, i64)],
    forwarded_ok: impl Fn(i64) -> bool,
    stack: &StackRoots,
    globals: &[RootRef],
) -> Result<(), String> {
    for &r in globals.iter().chain(&stack.tidy) {
        let v = read_root_in(src, r);
        if v == 0 {
            continue; // NIL
        }
        check_object(src, ranges, &forwarded_ok, v).map_err(|e| format!("tidy root {r:?}: {e}"))?;
        let tag = tag_of(r);
        if tag != Tag::Ptr {
            return Err(format!("tidy root {r:?} = {v} carries shadow tag {tag:?}, expected Ptr"));
        }
    }

    for d in &stack.derivations {
        let mut bases_all_nil = true;
        for &(b, _sign) in &d.bases {
            let v = read_root_in(src, b);
            if v == 0 {
                continue;
            }
            bases_all_nil = false;
            check_object(src, ranges, &forwarded_ok, v)
                .map_err(|e| format!("derivation base {b:?} (target {:?}): {e}", d.target))?;
            let tag = tag_of(b);
            if tag != Tag::Ptr {
                return Err(format!(
                    "derivation base {b:?} = {v} carries shadow tag {tag:?}, expected Ptr"
                ));
            }
        }
        // `NIL + offset` (the address of a field of a NIL record, pushed
        // as a VAR argument) is an integer to the shadow tracker, and the
        // update leaves it alone: every base contributes 0 both ways.
        let tag = tag_of(d.target);
        if !tag.pointerish() && !bases_all_nil {
            return Err(format!(
                "derivation target {:?} carries shadow tag {tag:?}, expected Ptr/Derived",
                d.target
            ));
        }
    }
    Ok(())
}

/// Validates every decoded table entry against the shadow ground truth.
/// Must run with all threads at gc-points and no collection in progress.
///
/// # Errors
///
/// Returns a description of the first table entry that contradicts the
/// instrumented execution.
///
/// # Panics
///
/// Panics if shadow mode is not enabled on the machine.
pub fn check(m: &Machine, cache: &mut DecodeCache) -> Result<(), String> {
    assert!(m.shadow_on(), "oracle requires shadow mode");
    let stack = gather_stack_roots(m, cache);
    let globals = gather_global_roots(m);
    let ranges = live_ranges(m);
    check_entries(m, |r| root_tag(m, r), &ranges, |_| false, &stack, &globals)
}
