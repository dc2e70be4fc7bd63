//! One schema for run statistics: the `--stats` text lines and the
//! machine-readable JSON object ([`StatsReport::to_json`]) are rendered
//! from the same [`StatsReport`], so a counter cannot appear in one and
//! drift from the other.
//!
//! A report is an ordered list of `(json_key, value)` entries plus the
//! `--- …` display lines. The canonical `add_*` methods append both at
//! once, reproducing the historical `--stats` line formats exactly
//! (tools parse those lines positionally); ad-hoc keys can be added
//! with [`StatsReport::put`] and ad-hoc lines with
//! [`StatsReport::line`].

use std::fmt::Write as _;
use std::time::Duration;

use crate::collector::GcStats;
use crate::parallel::ParGcStats;
use crate::serve::{ServeConfigView, ServeStats};

/// A JSON-renderable statistic value.
#[derive(Debug, Clone, PartialEq)]
pub enum StatValue {
    /// Unsigned counter.
    U64(u64),
    /// Signed value.
    I64(i64),
    /// Rate or ratio. Non-finite values render as `0`.
    F64(f64),
    /// Flag.
    Bool(bool),
    /// Text (JSON-escaped on render).
    Str(String),
    /// Array of counters (per-worker breakdowns).
    Arr(Vec<u64>),
    /// Pre-rendered JSON fragment (nested arrays or objects), emitted
    /// verbatim — the caller is responsible for its validity.
    Raw(String),
}

impl From<u64> for StatValue {
    fn from(v: u64) -> StatValue {
        StatValue::U64(v)
    }
}
impl From<usize> for StatValue {
    fn from(v: usize) -> StatValue {
        StatValue::U64(v as u64)
    }
}
impl From<u32> for StatValue {
    fn from(v: u32) -> StatValue {
        StatValue::U64(u64::from(v))
    }
}
impl From<i64> for StatValue {
    fn from(v: i64) -> StatValue {
        StatValue::I64(v)
    }
}
impl From<f64> for StatValue {
    fn from(v: f64) -> StatValue {
        StatValue::F64(v)
    }
}
impl From<bool> for StatValue {
    fn from(v: bool) -> StatValue {
        StatValue::Bool(v)
    }
}
impl From<&str> for StatValue {
    fn from(v: &str) -> StatValue {
        StatValue::Str(v.to_string())
    }
}
impl From<String> for StatValue {
    fn from(v: String) -> StatValue {
        StatValue::Str(v)
    }
}
impl From<Vec<u64>> for StatValue {
    fn from(v: Vec<u64>) -> StatValue {
        StatValue::Arr(v)
    }
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl StatValue {
    fn render_json(&self, out: &mut String) {
        match self {
            StatValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            StatValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            StatValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push('0');
                }
            }
            StatValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            StatValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
            StatValue::Arr(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            StatValue::Raw(json) => out.push_str(json),
        }
    }
}

/// An ordered, named collection of statistics with synchronized text
/// and JSON renderings.
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    name: String,
    entries: Vec<(String, StatValue)>,
    lines: Vec<String>,
}

impl StatsReport {
    /// An empty report named `name` (rendered as the `"bench"` key).
    #[must_use]
    pub fn new(name: impl Into<String>) -> StatsReport {
        StatsReport { name: name.into(), entries: Vec::new(), lines: Vec::new() }
    }

    /// Appends (or overwrites) a JSON entry without a display line.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<StatValue>) -> &mut Self {
        let key = key.into();
        let value = value.into();
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            self.entries.push((key, value));
        }
        self
    }

    /// Appends a pre-rendered JSON fragment (a nested array or object)
    /// under `key`.
    pub fn put_raw(&mut self, key: impl Into<String>, json: impl Into<String>) -> &mut Self {
        self.put(key, StatValue::Raw(json.into()))
    }

    /// Reads back an entry (tests and assertions).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&StatValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Appends a display line (rendered as `--- {text}`).
    pub fn line(&mut self, text: impl Into<String>) -> &mut Self {
        self.lines.push(text.into());
        self
    }

    /// The `--stats` text: one `--- …` line each, newline-terminated;
    /// empty when no lines were added.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for l in &self.lines {
            let _ = writeln!(s, "--- {l}");
        }
        s
    }

    /// One stable JSON object: `bench` first, then every entry in
    /// insertion order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"bench\":\"");
        escape_json(&self.name, &mut s);
        s.push('"');
        for (k, v) in &self.entries {
            s.push(',');
            s.push('"');
            escape_json(k, &mut s);
            s.push_str("\":");
            v.render_json(&mut s);
        }
        s.push('}');
        s
    }

    // --- Canonical sections. Line formats are load-bearing: driver
    // tests (and any scripts scraping `--stats`) parse them by token
    // position. Change a format only with its consumers. ---

    /// `--- N collection(s), N object(s) moved, …` (semispace runs).
    pub fn add_collector_summary(
        &mut self,
        collections: u64,
        total: &GcStats,
        steps: u64,
    ) -> &mut Self {
        self.put("collections", collections);
        self.put("objects_moved", total.objects_copied);
        self.put("frames_traced", total.frames_traced);
        self.put("steps", steps);
        self.line(format!(
            "{} collection(s), {} object(s) moved, {} frame(s) traced, {} step(s)",
            collections, total.objects_copied, total.frames_traced, steps
        ))
    }

    /// `--- load: machine N µs` — building the machine (memory, predecoded
    /// code, shadow and cms state) before its first instruction.
    pub fn add_load(&mut self, machine: Duration) -> &mut Self {
        let us = machine.as_micros() as u64;
        self.put("load_machine_us", us);
        self.line(format!("load: machine {us} µs"))
    }

    /// `--- decode cache: …`; `total_points` adds the ` of N` suffix.
    pub fn add_decode_cache(
        &mut self,
        hits: u64,
        misses: u64,
        ops: u64,
        total_points: Option<usize>,
    ) -> &mut Self {
        self.put("decode_hits", hits);
        self.put("decode_misses", misses);
        self.put("decode_ops", ops);
        let mut l =
            format!("decode cache: {hits} hit(s), {misses} miss(es), {ops} point(s) decoded");
        if let Some(t) = total_points {
            self.put("gc_points", t);
            let _ = write!(l, " of {t}");
        }
        self.line(l)
    }

    /// `--- generational: …` and `--- barriers: …`.
    pub fn add_generational(
        &mut self,
        minors: u64,
        majors: u64,
        promoted: u64,
        remembered: usize,
        barriers: (u64, u64, u64, u64),
    ) -> &mut Self {
        self.put("minor_collections", minors);
        self.put("major_collections", majors);
        self.put("promoted_objects", promoted);
        self.put("remembered_slots", remembered);
        self.line(format!(
            "generational: {minors} minor, {majors} major, {promoted} object(s) promoted, \
             {remembered} remembered slot(s) live"
        ));
        let (executed, recorded, deduped, filtered) = barriers;
        self.put("barriers_executed", executed);
        self.put("barriers_recorded", recorded);
        self.put("barriers_deduped", deduped);
        self.put("barriers_filtered", filtered);
        self.line(format!(
            "barriers: {executed} executed, {recorded} recorded, {deduped} deduped, \
             {filtered} filtered"
        ))
    }

    /// The parallel-runtime section: summary, handshake timing, worker
    /// breakdown, park sites and decode counters from `gc_each`.
    pub fn add_parallel(
        &mut self,
        mutators: usize,
        gc_workers: usize,
        collections: u64,
        steps: u64,
        gc_each: &[ParGcStats],
    ) -> &mut Self {
        let objects: u64 = gc_each.iter().map(|g| g.objects_copied).sum();
        self.put("mutators", mutators);
        self.put("gc_workers", gc_workers);
        self.put("collections", collections);
        self.put("objects_moved", objects);
        self.put("steps", steps);
        self.line(format!(
            "parallel: {mutators} mutator(s), {gc_workers} gc worker(s), {collections} \
             collection(s), {objects} object(s) moved, {steps} step(s)"
        ));

        let n = gc_each.len().max(1) as u32;
        let mean_us = |total: Duration| (total / n).as_micros();
        let handshake_total: Duration = gc_each.iter().map(|g| g.handshake_time).sum();
        let handshake_max = gc_each.iter().map(|g| g.handshake_time).max().unwrap_or_default();
        let copy_total: Duration = gc_each.iter().map(|g| g.copy_time).sum();
        self.put("handshake_mean_us", mean_us(handshake_total) as u64);
        self.put("handshake_max_us", handshake_max.as_micros() as u64);
        self.put("copy_mean_us", mean_us(copy_total) as u64);
        self.line(format!(
            "handshake: mean {} µs, max {} µs; copy phase mean {} µs",
            mean_us(handshake_total),
            handshake_max.as_micros(),
            mean_us(copy_total)
        ));

        let mut per_words = vec![0u64; gc_workers];
        let mut per_steals = vec![0u64; gc_workers];
        for g in gc_each {
            for (w, v) in g.per_worker_words.iter().enumerate() {
                per_words[w] += v;
            }
            for (w, v) in g.steals.iter().enumerate() {
                per_steals[w] += v;
            }
        }
        let published: u64 = gc_each.iter().map(|g| g.chunks_published).sum();
        let woken: u64 = gc_each.iter().map(|g| g.helpers_woken).sum();
        let idle_parks: u64 = gc_each.iter().map(|g| g.idle_parks).sum();
        let solo_words: u64 = gc_each.iter().map(|g| g.solo_words).sum();
        self.line(format!(
            "workers: copied words {per_words:?}, steals {per_steals:?} of {published} chunk(s) \
             published, {woken} helper wake(s), {idle_parks} idle park(s), {solo_words} \
             word(s) copied solo"
        ));
        self.put("per_worker_words", per_words);
        self.put("per_worker_steals", per_steals);
        self.put("chunks_published", published);
        self.put("helpers_woken", woken);
        self.put("idle_parks", idle_parks);
        self.put("solo_words", solo_words);

        let polls: u64 = gc_each.iter().map(|g| g.parked_at_polls).sum();
        let allocs: u64 = gc_each.iter().map(|g| g.parked_at_allocs).sum();
        self.put("parked_at_polls", polls);
        self.put("parked_at_allocs", allocs);
        self.line(format!("parks: {polls} at loop poll(s), {allocs} at allocation(s)"));

        self.add_decode_cache(
            gc_each.iter().map(|g| g.decode_hits).sum(),
            gc_each.iter().map(|g| g.decode_misses).sum(),
            gc_each.iter().map(|g| g.decode_ops).sum(),
            None,
        )
    }

    /// `--- tlab: …` (parallel runs).
    pub fn add_tlab(&mut self, words: usize, refills: u64, fast: u64, waste: u64) -> &mut Self {
        self.put("tlab_words", words);
        self.put("tlab_refills", refills);
        self.put("tlab_fast_allocs", fast);
        self.put("tlab_waste_words", waste);
        self.line(format!(
            "tlab: {words} word(s) per buffer, {refills} refill(s), {fast} fast alloc(s), \
             {waste} waste word(s)"
        ))
    }

    /// The concurrent-marking section (`--gc cms` runs): per-cycle pause
    /// split, concurrent mark time and the SATB barrier ledger. Entries
    /// in `gc_each` that are not cms cycles (there should be none) are
    /// skipped.
    pub fn add_cms(
        &mut self,
        satb_enqueued: u64,
        satb_drained: u64,
        gc_each: &[ParGcStats],
    ) -> &mut Self {
        let cycles: Vec<&ParGcStats> = gc_each.iter().filter(|g| g.cms_cycle).collect();
        let n = cycles.len().max(1) as u32;
        let mean_us = |total: Duration| (total / n).as_micros() as u64;
        let max_us =
            |f: fn(&ParGcStats) -> Duration| cycles.iter().map(|g| f(g)).max().unwrap_or_default();
        let snap_total: Duration = cycles.iter().map(|g| g.snapshot_pause).sum();
        let final_total: Duration = cycles.iter().map(|g| g.total_time).sum();
        let mark_total: Duration = cycles.iter().map(|g| g.mark_concurrent).sum();
        let snap_max = max_us(|g| g.snapshot_pause);
        let final_max = max_us(|g| g.total_time);
        self.put("cms_cycles", cycles.len());
        self.put("cms_snapshot_pause_mean_us", mean_us(snap_total));
        self.put("cms_snapshot_pause_max_us", snap_max.as_micros() as u64);
        self.put("cms_final_pause_mean_us", mean_us(final_total));
        self.put("cms_final_pause_max_us", final_max.as_micros() as u64);
        self.put("cms_mark_concurrent_mean_us", mean_us(mark_total));
        self.put("satb_enqueued", satb_enqueued);
        self.put("satb_drained", satb_drained);
        self.line(format!(
            "cms: {} cycle(s), snapshot pause mean {} µs / max {} µs, final pause mean {} µs \
             / max {} µs",
            cycles.len(),
            mean_us(snap_total),
            snap_max.as_micros(),
            mean_us(final_total),
            final_max.as_micros()
        ));
        self.line(format!(
            "cms: mark ran {} µs concurrent (mean), satb: {satb_enqueued} enqueue(s), \
             {satb_drained} drained",
            mean_us(mark_total)
        ))
    }

    /// The allocation-service section: throughput, pauses, latency and
    /// the region ledger.
    pub fn add_serve(&mut self, view: ServeConfigView, s: &ServeStats) -> &mut Self {
        self.put("threads", view.threads);
        self.put("green_slots", view.green_slots);
        self.put("region_words", view.region_words);
        self.put("quantum", crate::serve::QUANTUM);
        self.put("requests", s.requests);
        self.put("elapsed_s", s.elapsed.as_secs_f64());
        self.put("requests_per_sec", s.requests_per_sec);
        self.put("allocations", s.allocations);
        self.put("words_allocated", s.words_allocated);
        self.put("alloc_words_per_sec", s.alloc_words_per_sec);
        self.put("steps", s.steps);
        self.line(format!(
            "serve: {} request(s) on {} thread(s) x {} green slot(s), {:.0} req/s, \
             {:.0} alloc word(s)/s, {} step(s)",
            s.requests,
            view.threads,
            view.green_slots,
            s.requests_per_sec,
            s.alloc_words_per_sec,
            s.steps
        ));

        self.put("collections", s.collections);
        self.put("forced_collections", s.forced_collections);
        self.put("pause_p50_us", s.pause_p50_us);
        self.put("pause_p99_us", s.pause_p99_us);
        self.put("pause_max_us", s.pause_max_us);
        self.line(format!(
            "pauses: {} collection(s) ({} forced for zombie reclaim), p50 {} µs, p99 {} µs, \
             max {} µs",
            s.collections, s.forced_collections, s.pause_p50_us, s.pause_p99_us, s.pause_max_us
        ));

        self.put("latency_p50_us", s.latency_p50_us);
        self.put("latency_p99_us", s.latency_p99_us);
        self.put("latency_max_us", s.latency_max_us);
        self.line(format!(
            "latency: p50 {} µs, p99 {} µs, max {} µs",
            s.latency_p50_us, s.latency_p99_us, s.latency_max_us
        ));

        self.put("regions_created", s.regions_created);
        self.put("regions_reclaimed_fast", s.regions_reclaimed_fast);
        self.put("region_words_reclaimed_fast", s.region_words_reclaimed_fast);
        self.put("regions_zombied", s.regions_zombied);
        self.put("region_allocs", s.region_allocs);
        self.put("region_alloc_words", s.region_alloc_words);
        self.put("region_escapes", s.region_escapes);
        self.put("region_words_promoted", s.region_words_promoted);
        self.put("region_words_reset", s.region_words_reset);
        self.put("region_reclaim_ratio", s.region_reclaim_ratio());
        self.line(format!(
            "regions: {} created, {} reclaimed O(1) ({} word(s)), {} zombie(s), \
             {} word(s) promoted, reclaim ratio {:.3}",
            s.regions_created,
            s.regions_reclaimed_fast,
            s.region_words_reclaimed_fast,
            s.regions_zombied,
            s.region_words_promoted,
            s.region_reclaim_ratio()
        ));

        self.put("parked_at_safepoints", s.parked_at_safepoints);
        self.line(format!(
            "safepoints: {} request snapshot(s) traced across collections",
            s.parked_at_safepoints
        ))
    }

    /// The `--jit` section: compilation summary, per-reason fallback
    /// counts, native safepoint polls, and how often native code left
    /// for the engine at a call or return (`engine transfer(s)`; the
    /// link step's `direct call site(s)` are the ones that never do).
    pub fn add_jit(&mut self, s: &m3gc_jit::JitSummary) -> &mut Self {
        self.put("jit_enabled", s.enabled);
        self.put("jit_procs_total", s.procs_total as u64);
        self.put("jit_procs_compiled", s.procs_compiled as u64);
        self.put("jit_code_bytes", s.code_bytes as u64);
        self.put("jit_compile_ms", s.compile_micros as f64 / 1000.0);
        self.put("jit_native_polls", s.native_polls);
        self.put("jit_engine_transfers", s.engine_transfers);
        self.put("jit_relocs_patched", s.relocs_patched as u64);
        self.put("jit_relocs_total", s.relocs_total as u64);
        let mut fb = String::from("{");
        for (i, (reason, n)) in s.fallbacks.iter().enumerate() {
            if i > 0 {
                fb.push(',');
            }
            let _ = write!(fb, "\"{reason}\":{n}");
        }
        fb.push('}');
        self.put_raw("jit_fallbacks", fb);
        self.line(format!(
            "jit: {} of {} proc(s) compiled, {} code byte(s), {:.1} ms compile, \
             {} of {} direct call site(s), {} native poll(s), {} engine transfer(s)",
            s.procs_compiled,
            s.procs_total,
            s.code_bytes,
            s.compile_micros as f64 / 1000.0,
            s.relocs_patched,
            s.relocs_total,
            s.native_polls,
            s.engine_transfers
        ));
        if !s.fallbacks.is_empty() {
            let parts: Vec<String> =
                s.fallbacks.iter().map(|(reason, n)| format!("{reason} {n}")).collect();
            self.line(format!("jit fallbacks: {}", parts.join(", ")));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = StatsReport::new("t");
        r.put("a", 1u64).put("b", true).put("c", "x\"y").put("d", vec![1u64, 2]);
        r.put("a", 2u64); // overwrite keeps position
        assert_eq!(
            r.to_json(),
            "{\"bench\":\"t\",\"a\":2,\"b\":true,\"c\":\"x\\\"y\",\"d\":[1,2]}"
        );
    }

    #[test]
    fn text_lines_render_with_dashes() {
        let mut r = StatsReport::new("t");
        r.line("one").line("two");
        assert_eq!(r.to_text(), "--- one\n--- two\n");
    }

    #[test]
    fn collector_summary_matches_legacy_token_positions() {
        let mut r = StatsReport::new("t");
        let gc = GcStats { objects_copied: 7, frames_traced: 9, ..GcStats::default() };
        r.add_collector_summary(3, &gc, 100);
        r.add_decode_cache(5, 2, 7, Some(11));
        let text = r.to_text();
        let first = text.lines().next().unwrap();
        // "--- 3 collection(s), 7 object(s) moved, ..."
        assert_eq!(first.split_whitespace().nth(1), Some("3"));
        assert_eq!(first.split_whitespace().nth(3), Some("7"));
        let cache = text.lines().nth(1).unwrap();
        // "--- decode cache: 5 hit(s), ..." — hits at token 3.
        assert_eq!(cache.split_whitespace().nth(3), Some("5"));
        assert!(cache.ends_with("of 11"));
    }

    #[test]
    fn load_line_and_key_agree() {
        let mut r = StatsReport::new("t");
        r.add_load(Duration::from_micros(1234));
        assert_eq!(r.get("load_machine_us"), Some(&StatValue::U64(1234)));
        assert_eq!(r.to_text(), "--- load: machine 1234 µs\n");
    }
}
