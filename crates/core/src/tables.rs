//! The logical (pre-encoding) gc-map model.
//!
//! The compiler back end produces one [`ProcTables`] per procedure: the
//! procedure's *ground* table (every frame slot that holds a pointer at some
//! gc-point) and, for every gc-point, which ground entries are live, which
//! registers hold pointers, and the derivations of live derived values.
//! [`crate::encode`] turns this model into bytes under a chosen scheme and
//! [`crate::decode`] reads it back at collection time.

use crate::derive::DerivationRecord;
use crate::layout::{GroundEntry, RegSet};

/// Tables for a single gc-point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcPointTables {
    /// Code address (byte offset within the module) of the gc-point. For a
    /// call this is the **return address** — the value actually found in
    /// frames during a stack walk.
    pub pc: u32,
    /// Indices into the owning procedure's ground table of the slots that
    /// contain live tidy pointers here. Sorted ascending.
    pub live_stack: Vec<u32>,
    /// Registers containing live tidy pointers here.
    pub regs: RegSet,
    /// Derivations of the derived values live here, ordered so a derived
    /// value precedes any of its bases.
    pub derivations: Vec<DerivationRecord>,
}

impl GcPointTables {
    /// True if all three tables are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_stack.is_empty() && self.regs.is_empty() && self.derivations.is_empty()
    }
}

/// Tables for one procedure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcTables {
    /// Procedure name (diagnostics only; not encoded).
    pub name: String,
    /// Code address of the procedure's first instruction.
    pub entry_pc: u32,
    /// The ground (main) table: every frame slot of this procedure that
    /// contains a pointer at some gc-point.
    pub ground: Vec<GroundEntry>,
    /// Per-gc-point tables, sorted by `pc` ascending.
    pub points: Vec<GcPointTables>,
}

impl ProcTables {
    /// The live tidy-pointer slots at gc-point `index`, resolved through the
    /// ground table.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or a liveness index is not a valid
    /// ground-table index.
    #[must_use]
    pub fn live_slots(&self, index: usize) -> Vec<GroundEntry> {
        self.points[index].live_stack.iter().map(|&i| self.ground[i as usize]).collect()
    }

    /// Checks internal consistency: points sorted by pc, liveness indices in
    /// range and sorted.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_pc = None;
        for (i, p) in self.points.iter().enumerate() {
            if let Some(prev) = last_pc {
                if p.pc <= prev {
                    return Err(format!(
                        "{}: gc-point {i} pc {} not after {prev}",
                        self.name, p.pc
                    ));
                }
            }
            last_pc = Some(p.pc);
            let mut last_idx = None;
            for &idx in &p.live_stack {
                if idx as usize >= self.ground.len() {
                    return Err(format!(
                        "{}: gc-point {i} liveness index {idx} out of range ({} ground entries)",
                        self.name,
                        self.ground.len()
                    ));
                }
                if let Some(prev) = last_idx {
                    if idx <= prev {
                        return Err(format!(
                            "{}: gc-point {i} liveness indices not sorted",
                            self.name
                        ));
                    }
                }
                last_idx = Some(idx);
            }
        }
        Ok(())
    }
}

/// All gc-map tables for one compiled module, in logical form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleTables {
    /// Per-procedure tables, sorted by `entry_pc`.
    pub procs: Vec<ProcTables>,
}

impl ModuleTables {
    /// Finds the gc-point tables for exactly `pc`, if any.
    #[must_use]
    pub fn point_at(&self, pc: u32) -> Option<(&ProcTables, &GcPointTables)> {
        for proc in &self.procs {
            if let Ok(i) = proc.points.binary_search_by_key(&pc, |p| p.pc) {
                return Some((proc, &proc.points[i]));
            }
        }
        None
    }

    /// Validates every procedure.
    pub fn validate(&self) -> Result<(), String> {
        for p in &self.procs {
            p.validate()?;
        }
        Ok(())
    }

    /// Total number of gc-points across all procedures.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.procs.iter().map(|p| p.points.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BaseReg;

    fn sample() -> ProcTables {
        ProcTables {
            name: "p".into(),
            entry_pc: 100,
            ground: vec![
                GroundEntry::new(BaseReg::Fp, 0),
                GroundEntry::new(BaseReg::Fp, 1),
                GroundEntry::new(BaseReg::Ap, 0),
            ],
            points: vec![
                GcPointTables { pc: 110, live_stack: vec![0, 2], ..Default::default() },
                GcPointTables { pc: 120, live_stack: vec![1], ..Default::default() },
            ],
        }
    }

    #[test]
    fn live_slot_resolution() {
        let p = sample();
        assert_eq!(
            p.live_slots(0),
            vec![GroundEntry::new(BaseReg::Fp, 0), GroundEntry::new(BaseReg::Ap, 0)]
        );
        assert_eq!(p.live_slots(1), vec![GroundEntry::new(BaseReg::Fp, 1)]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unsorted_points() {
        let mut p = sample();
        p.points[1].pc = 105;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_index() {
        let mut p = sample();
        p.points[0].live_stack = vec![7];
        assert!(p.validate().is_err());
    }

    #[test]
    fn module_point_lookup() {
        let m = ModuleTables { procs: vec![sample()] };
        assert!(m.point_at(110).is_some());
        assert!(m.point_at(111).is_none());
        assert_eq!(m.num_points(), 2);
    }

    #[test]
    fn empty_point_detection() {
        let p = GcPointTables { pc: 5, ..Default::default() };
        assert!(p.is_empty());
        let s = GcPointTables { pc: 5, live_stack: vec![1], ..Default::default() };
        assert!(!s.is_empty());
    }
}
