//! Run-time system: fully compacting garbage collection driven by the
//! compiler-emitted tables.
//!
//! * [`trace`] — the stack walk: return addresses extracted from frames
//!   locate each frame's gc-point tables; register contents are
//!   reconstructed from callee save areas; derivation tables are resolved
//!   to concrete addresses (reading path variables to disambiguate).
//! * [`collector`] — semispace Cheney copying collection with the paper's
//!   two-phase derived-value update: un-derive (recover `E`) before
//!   objects move, visiting callee frames before callers and derived
//!   values before their bases; re-derive afterwards in exactly the
//!   reverse order.
//! * [`scheduler`] — the sequential executor: one thread on the
//!   sequential machine, collected where its allocation finds the heap
//!   full (that allocation is a gc-point and nothing else runs), under
//!   the forced / no-progress / minor-to-major collection policy. It is
//!   the deterministic reference the parallel runtime is compared with.
//! * `safepoint` — §5.3's protocol over real OS threads: when a
//!   collection is requested, threads that are not at gc-points run on
//!   until they all reach one (loop gc-points bound the wait), then the
//!   collector runs. It is written once for every multi-threaded
//!   executor: mutators poll the request
//!   flag at gc-points and park in a stop-the-world handshake; the
//!   collection-cause policy, the first-error latch, the panic/poison
//!   policy and the run scaffold live there too.
//! * [`parallel`] — OS-thread mutators over that protocol, and the
//!   stop-the-world copy: `gc_workers` workers — the leader plus a
//!   persistent pool of parked helpers, woken only when there is work
//!   for them — evacuate concurrently with a work-stealing Cheney copy
//!   (CAS-claimed forwarding pointers, private gray stacks, surplus
//!   shared in chunks).
//! * [`cms`] — concurrent SATB marking on the parallel runtime: a short
//!   snapshot pause seeds marking from root *values*, the run's
//!   coordinator thread traces while mutators run (the `StB` deletion
//!   barrier preserves the snapshot), and a final pause drains residual SATB
//!   buffers and evacuates the marked set — copy is the only remaining
//!   stop-the-world work.

pub mod cms;
pub mod collector;
mod evac;
pub mod gengc;
pub mod options;
pub mod oracle;
pub mod parallel;
mod pool;
pub mod report;
mod safepoint;
pub mod scheduler;
pub mod serve;
pub mod trace;

pub use collector::{collect, GcStats};
pub use options::{GcStrategy, OptionsError, RuntimeOptions};
pub use parallel::{ParExecutor, ParGcStats, ParOutcome};
pub use report::StatsReport;
pub use scheduler::{ExecOutcome, Executor, GcMode};
pub use serve::{ServeConfigView, ServeExecutor, ServeLoad, ServeOutcome, ServeStats};

#[cfg(test)]
mod tests;
