//! Engine-wide observability: the metrics registry, query journal, trace
//! spans, and misestimate ledger.
//!
//! The paper's thesis is a DBMS that *initiates* the conversation — but a
//! system can only talk about what it remembers. Until now every
//! [`OpMetrics`](crate::exec::OpMetrics) tree died with its statement;
//! this module is the engine's memory across statements:
//!
//! * [`ObsRegistry`] — a thread-safe registry of monotonic counters
//!   (incremented from the executor, planner, and index layers), sampled
//!   gauges, and log2-bucketed latency histograms per statement phase.
//!   Every hot-path increment is gated on one relaxed atomic load, so a
//!   disabled registry costs a branch and nothing else.
//! * [`Journal`] — a bounded ring buffer of executed statements: SQL text,
//!   plan-shape hash, phase timings, and the executed [`PlanProfile`] as it
//!   came: the plan's shape (shared, an `Arc`, with every other execution
//!   of a plan-cache template) and this execution's counters. Nothing is
//!   rendered when a statement is recorded; [`JournalEntry::span`] writes
//!   the phase + operator [`Span`] tree when `SHOW PROFILE` asks for it.
//! * one **record** per executed statement ([`ObsRegistry::record`]): what
//!   one walk of the plan's shape over its counters found ([`Tally`]) feeds
//!   cardinality feedback, the misestimate ledger, the workload ledger, the
//!   latency histograms and the journal, the last three under one lock
//!   order (the journal's lock, the ledger's inside it). No profile node is
//!   walked for it, and a full journal writes into its oldest slot.
//! * the **misestimate ledger** — worst-offender cardinality errors keyed
//!   by `(table, operator + shape)`. A filter the planner named (a pushed
//!   conjunct, [`crate::fingerprint::ShapeKey`]) is filed under that name —
//!   the same table and shape the cardinality-feedback store learns under
//!   and the planner looks up, so marking a shape corrected is one exact-key
//!   update; every other operator is filed for display only, under its
//!   leftmost table and its literal-normalized detail.
//!
//! The [`doctor`] submodule builds on all three: a cumulative workload
//! ledger keyed by literal-normalized statement shape, the pattern miner
//! behind `ADVISE`, and the regression sentinel behind `CHECKUP`.
//!
//! The SQL surface (`SHOW METRICS`, `SHOW QUERY LOG`, `SHOW PROFILE`,
//! `SHOW MISESTIMATES`, `SHOW WORKLOAD`, `ADVISE`, `CHECKUP`) lives in the
//! `talkback` crate; this module only collects and snapshots.

mod decision;
pub mod doctor;
mod fold;

pub use decision::{
    AccessPathKind, Alternative, DecisionKind, GroupedLookup, JoinEnumeration, PlanDecision,
    SqlText, SubqueryStrategy, CONSTRUCT_CHARS,
};
pub use fold::Tally;

use crate::adaptive::Uncacheable;
use crate::exec::{PlanProfile, ProfileNode};
use crate::fingerprint::{fnv_hash, normalize_predicate, plan_shape_hash, profile_table};
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Duration formatting
// ---------------------------------------------------------------------------

/// Render a duration with the µs/ms/s thresholds every narration and plan
/// rendering in the workspace shares: sub-millisecond times in whole
/// microseconds, sub-second times in milliseconds with one decimal, and
/// everything else in seconds with two.
pub fn format_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros} µs")
    } else if micros < 1_000_000 {
        format!("{:.1} ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2} s", d.as_secs_f64())
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Monotonic engine counters, one atomic slot each. Incremented per batch
/// (or per build / per probe) from the executor, planner, and index layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Counter {
    QueriesExecuted,
    RowsScanned,
    RowsEmitted,
    IndexProbes,
    EmptyIndexProbes,
    HashBuildRows,
    ApplyEvaluations,
    ApplyCacheHits,
    ApplyCacheEvictions,
    /// Counts nothing: the executor runs every operator on the thread that
    /// pulls from it. Kept only because the `e2e` benchmark names it;
    /// ROADMAP item 16(g), a change to the benchmark alone, deletes it.
    MorselsClaimed,
    /// Counts nothing, like [`Counter::MorselsClaimed`], and goes with it.
    WorkersSpawned,
    PlanCacheHits,
    PlanCacheMisses,
    PlanCacheEvictions,
    FeedbackOverridesApplied,
    /// Of the statements [`Counter::PlanCacheMisses`] counts, those a
    /// negative cache entry sent straight to the planner.
    PlanCacheUncacheable,
    /// Statistics snapshots taken of a table's live column summaries (the
    /// first read of a table's statistics after a write to it).
    StatsSnapshots,
    /// Of the columns in those snapshots, the ones that walked their
    /// distinct values: to merge staged integers, or to re-derive a shape.
    StatsColumnsRederived,
    /// SELECTs `explain_query` answered by filling a sentence template.
    TranslationHits,
    /// SELECTs `explain_query` translated from the parse up.
    TranslationMisses,
    /// Of those, the ones a negative entry or an unslottable string sent.
    TranslationUncacheable,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 21] = [
        Counter::QueriesExecuted,
        Counter::RowsScanned,
        Counter::RowsEmitted,
        Counter::IndexProbes,
        Counter::EmptyIndexProbes,
        Counter::HashBuildRows,
        Counter::ApplyEvaluations,
        Counter::ApplyCacheHits,
        Counter::ApplyCacheEvictions,
        Counter::MorselsClaimed,
        Counter::WorkersSpawned,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::FeedbackOverridesApplied,
        Counter::PlanCacheUncacheable,
        Counter::StatsSnapshots,
        Counter::StatsColumnsRederived,
        Counter::TranslationHits,
        Counter::TranslationMisses,
        Counter::TranslationUncacheable,
    ];

    /// Stable snake_case name, used as the metric key in `SHOW METRICS`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::QueriesExecuted => "queries_executed",
            Counter::RowsScanned => "rows_scanned",
            Counter::RowsEmitted => "rows_emitted",
            Counter::IndexProbes => "index_probes",
            Counter::EmptyIndexProbes => "index_probes_empty",
            Counter::HashBuildRows => "hash_build_rows",
            Counter::ApplyEvaluations => "apply_evaluations",
            Counter::ApplyCacheHits => "apply_cache_hits",
            Counter::ApplyCacheEvictions => "apply_cache_evictions",
            Counter::MorselsClaimed => "morsels_claimed",
            Counter::WorkersSpawned => "workers_spawned",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
            Counter::FeedbackOverridesApplied => "feedback_overrides_applied",
            Counter::PlanCacheUncacheable => "plan_cache_uncacheable",
            Counter::StatsSnapshots => "stats_snapshots",
            Counter::StatsColumnsRederived => "stats_columns_rederived",
            Counter::TranslationHits => "translation_hits",
            Counter::TranslationMisses => "translation_misses",
            Counter::TranslationUncacheable => "translation_uncacheable",
        }
    }
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Statement phases a latency histogram is kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Phase {
    Parse,
    Plan,
    Execute,
    Total,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 4] = [Phase::Parse, Phase::Plan, Phase::Execute, Phase::Total];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Execute => "execute",
            Phase::Total => "total",
        }
    }
}

/// Number of log2 buckets: bucket `i` holds samples in `[2^(i-1), 2^i)`
/// microseconds (bucket 0 holds sub-microsecond samples), so 40 buckets
/// cover everything up to ~6 days per statement.
pub const HIST_BUCKETS: usize = 40;

/// The bucket a sample falls in — the bits needed to write its microseconds:
/// 0 µs → bucket 0, 1 µs → 1, 2–3 µs → 2, 4–7 µs → 3, …
fn latency_bucket(d: Duration) -> usize {
    let micros = d.as_micros() as u64;
    (64 - micros.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// A log2-bucketed latency histogram over microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    fn record(&self, d: Duration) {
        self.buckets[latency_bucket(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Current bucket counts.
    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// A read-only view of one phase's histogram with its common summaries.
/// Percentiles are interpolated linearly within their log2 bucket (see
/// [`bucket_quantile`]), so they approximate the sample rather than quoting
/// a power-of-two ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Interpolated median.
    pub p50: Duration,
    /// Interpolated 95th percentile.
    pub p95: Duration,
    /// Interpolated 99th percentile.
    pub p99: Duration,
    /// Upper bound of the largest occupied bucket.
    pub max: Duration,
}

/// Upper bound (exclusive) of histogram bucket `i`, as a duration.
fn bucket_upper(i: usize) -> Duration {
    Duration::from_micros(1u64 << i.min(62))
}

/// Lower bound (inclusive) of histogram bucket `i`, as a duration.
fn bucket_lower(i: usize) -> Duration {
    if i == 0 {
        Duration::ZERO
    } else {
        Duration::from_micros(1u64 << (i - 1).min(62))
    }
}

/// The `q`-quantile of a log2-bucketed histogram, interpolated linearly
/// within the bucket the target rank lands in: with `r` ranks of the bucket
/// consumed out of its `n` samples, the result is `lower + (r/n) × (upper −
/// lower)`. Exact bucket boundaries (every rank of the bucket consumed)
/// therefore quote the bucket's upper bound, matching the pre-interpolation
/// summaries.
pub fn bucket_quantile(buckets: &[u64; HIST_BUCKETS], q: f64) -> Duration {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return Duration::ZERO;
    }
    let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if seen + b >= target {
            let frac = (target - seen) as f64 / b as f64;
            let lower = bucket_lower(i).as_secs_f64();
            let upper = bucket_upper(i).as_secs_f64();
            return Duration::from_secs_f64(lower + frac * (upper - lower));
        }
        seen += b;
    }
    Duration::ZERO
}

fn summarize(buckets: &[u64; HIST_BUCKETS]) -> HistogramSummary {
    let count: u64 = buckets.iter().sum();
    let max = buckets
        .iter()
        .rposition(|&b| b > 0)
        .map(bucket_upper)
        .unwrap_or(Duration::ZERO);
    HistogramSummary {
        count,
        p50: bucket_quantile(buckets, 0.5),
        p95: bucket_quantile(buckets, 0.95),
        p99: bucket_quantile(buckets, 0.99),
        max,
    }
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// One timed node of a statement's trace: a phase (parse, plan, execute) or
/// an executed operator, with nested children — what
/// [`JournalEntry::span`] renders for a reader.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase or operator name ("execute", "hash join", …).
    pub name: Cow<'static, str>,
    /// Operator detail, empty for phases.
    pub detail: String,
    /// Wall-clock time, inclusive of children.
    pub elapsed: Duration,
    /// Rows produced, when the span is an operator.
    pub rows: Option<u64>,
    /// Nested child spans.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf phase span.
    pub fn phase(name: &'static str, elapsed: Duration) -> Span {
        Span {
            name: name.into(),
            detail: String::new(),
            elapsed,
            rows: None,
            children: Vec::new(),
        }
    }

    /// Depth-first flatten into `(depth, span)` pairs, for tabular output.
    pub fn flatten(&self) -> Vec<(usize, &Span)> {
        let mut out = Vec::new();
        self.flatten_into(0, &mut out);
        out
    }

    fn flatten_into<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a Span)>) {
        out.push((depth, self));
        for c in &self.children {
            c.flatten_into(depth + 1, out);
        }
    }
}

impl From<ProfileNode<'_>> for Span {
    /// An executed operator's span subtree, its details written out.
    fn from(node: ProfileNode<'_>) -> Span {
        Span {
            name: node.operator().into(),
            detail: node.detail().into_owned(),
            elapsed: node.metrics().elapsed,
            rows: Some(node.metrics().rows_out),
            children: node.children().map(Span::from).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Query journal
// ---------------------------------------------------------------------------

/// Default journal capacity (statements retained).
pub const JOURNAL_CAP: usize = 256;

/// Bytes a journal slot's SQL buffer holds before it grows: a slot is
/// reused for statements of other lengths than its first.
const JOURNAL_SQL_BYTES: usize = 128;

/// How the plan cache treated one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStatus {
    /// A cached template was re-bound and executed.
    Hit,
    /// No template existed; the statement was planned from scratch.
    Miss,
    /// A template existed but its epoch was stale; re-planned.
    Stale,
    /// The cache already knew this shape cannot be templated, and why; the
    /// statement was planned from scratch without being examined again.
    Uncacheable(Uncacheable),
    /// The plan cache was not consulted (caching off, or not a query).
    #[default]
    Off,
}

impl CacheStatus {
    /// Stable lowercase label for tables and narration.
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Stale => "stale",
            CacheStatus::Uncacheable(_) => "uncacheable",
            CacheStatus::Off => "-",
        }
    }
}

/// Caller-supplied context for one recorded statement: facts the profile
/// itself cannot carry (how the plan cache treated it, which adaptive epoch
/// it ran in).
#[derive(Debug, Clone, Copy, Default)]
pub struct StatementMeta {
    /// How the plan cache treated the statement.
    pub cache: CacheStatus,
    /// The adaptive epoch the statement executed in.
    pub epoch: u64,
}

/// One remembered statement.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Monotonic statement number (never reused, survives eviction).
    pub seq: u64,
    /// The SQL text as the user wrote it.
    pub sql: String,
    /// Stable hash of the executed plan's shape.
    pub plan_hash: u64,
    /// Rows the statement returned.
    pub result_rows: u64,
    /// End-to-end wall-clock time.
    pub total: Duration,
    /// Time in each phase.
    pub phases: StatementPhases,
    /// The executed plan's profile: its shape and this execution's counters.
    pub profile: PlanProfile,
    /// The single worst est-vs-actual error in the plan, as
    /// `(operator detail, factor)`, when one crossed the flagging threshold.
    pub worst_misestimate: Option<(String, f64)>,
    /// How the plan cache treated the statement.
    pub cache: CacheStatus,
}

impl JournalEntry {
    /// Phase + operator trace of the statement: parse, plan, and execute
    /// with the executed operators under it, written out now.
    pub fn span(&self) -> Span {
        let mut execute = Span::phase("execute", self.phases.execute);
        execute.children.push(self.profile.root().into());
        Span {
            name: "statement".into(),
            detail: String::new(),
            elapsed: self.total,
            rows: Some(self.result_rows),
            children: vec![
                Span::phase("parse", self.phases.parse),
                Span::phase("plan", self.phases.plan),
                execute,
            ],
        }
    }
}

struct JournalInner {
    entries: VecDeque<JournalEntry>,
    next_seq: u64,
}

/// Bounded FIFO ring buffer of [`JournalEntry`]s. Pushing beyond the
/// capacity evicts the oldest entry; sequence numbers are assigned under the
/// same lock, so concurrent writers never lose, duplicate, or reorder a
/// sequence number. The capacity is adjustable at runtime (`SET JOURNAL
/// CAPACITY n`); shrinking trims the oldest entries immediately.
pub struct Journal {
    cap: AtomicUsize,
    inner: Mutex<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("cap", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl Journal {
    /// Empty journal retaining at most `cap` statements.
    pub fn new(cap: usize) -> Journal {
        Journal {
            cap: AtomicUsize::new(cap.max(1)),
            inner: Mutex::new(JournalInner {
                entries: VecDeque::new(),
                next_seq: 1,
            }),
        }
    }

    /// Maximum entries retained.
    pub fn capacity(&self) -> usize {
        self.cap.load(Ordering::Acquire)
    }

    /// Change the capacity (clamped to at least 1). Shrinking evicts the
    /// oldest entries on the spot, under the same lock pushes take, so a
    /// concurrent push never resurrects a trimmed entry.
    pub fn set_capacity(&self, cap: usize) {
        let cap = cap.max(1);
        let mut inner = self.inner.lock().expect("journal lock");
        self.cap.store(cap, Ordering::Release);
        while inner.entries.len() > cap {
            inner.entries.pop_front();
        }
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").entries.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statements recorded over the journal's lifetime, including evicted
    /// ones.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("journal lock").next_seq - 1
    }

    /// The most recent `limit` entries (all retained entries if `None`),
    /// newest last.
    pub fn tail(&self, limit: Option<usize>) -> Vec<JournalEntry> {
        let inner = self.inner.lock().expect("journal lock");
        let n = limit
            .unwrap_or(inner.entries.len())
            .min(inner.entries.len());
        inner
            .entries
            .iter()
            .skip(inner.entries.len() - n)
            .cloned()
            .collect()
    }

    /// The most recent entry.
    pub fn last(&self) -> Option<JournalEntry> {
        self.inner
            .lock()
            .expect("journal lock")
            .entries
            .back()
            .cloned()
    }

    /// The slowest retained entry.
    pub fn slowest(&self) -> Option<JournalEntry> {
        self.inner
            .lock()
            .expect("journal lock")
            .entries
            .iter()
            .max_by_key(|e| e.total)
            .cloned()
    }
}

impl JournalInner {
    /// Append `entry` with `sql` as its text (its `seq` is assigned here).
    /// A full journal evicts its oldest entry, whose SQL buffer takes the
    /// text.
    fn push(&mut self, cap: usize, mut entry: JournalEntry, sql: &str) {
        let mut text = match self.entries.len() >= cap {
            true => self.entries.pop_front().expect("a full journal").sql,
            false => String::with_capacity(sql.len().max(JOURNAL_SQL_BYTES)),
        };
        text.clear();
        text.push_str(sql);
        (entry.sql, entry.seq) = (text, self.next_seq);
        self.next_seq += 1;
        self.entries.push_back(entry);
    }
}

// ---------------------------------------------------------------------------
// Misestimate ledger
// ---------------------------------------------------------------------------

/// Accumulated est-vs-actual error for one `(table, predicate shape)` key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MisestimateStat {
    /// Flagged occurrences.
    pub count: u64,
    /// Sum of error factors, for the average.
    pub sum_factor: f64,
    /// Worst error factor seen.
    pub max_factor: f64,
    /// Most recent estimated rows.
    pub last_estimated: u64,
    /// Most recent actual rows.
    pub last_actual: u64,
    /// True once the planner has applied a cardinality-feedback override for
    /// this shape — the ledger entry has been acted on, not just recorded.
    pub corrected: bool,
}

impl MisestimateStat {
    /// Mean error factor across flagged occurrences.
    pub fn avg_factor(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_factor / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Phase durations of one executed statement, as measured by the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatementPhases {
    /// Time in the SQL parser.
    pub parse: Duration,
    /// Time in the planner (flatten, bind, join order, lowering).
    pub plan: Duration,
    /// Time pulling the operator tree to completion.
    pub execute: Duration,
}

impl StatementPhases {
    /// Sum of the phases — the statement's end-to-end time.
    pub fn total(&self) -> Duration {
        self.parse + self.plan + self.execute
    }
}

/// A statement [`ObsRegistry::record_statement`] records: its text, and what
/// the caller already knows of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Statement<'a> {
    /// The SQL as the user wrote it.
    pub sql: &'a str,
    /// The plan cache's key for it, which the workload ledger files it under
    /// (else its literals normalized).
    pub shape: Option<&'a str>,
    /// Its plan's shape hash, when the caller kept it
    /// ([`crate::adaptive::PlanTemplate::shape_hash`]).
    pub plan_hash: Option<u64>,
}

impl<'a, S: AsRef<str> + ?Sized> From<&'a S> for Statement<'a> {
    fn from(sql: &'a S) -> Statement<'a> {
        let (shape, plan_hash) = (None, None);
        Statement {
            sql: sql.as_ref(),
            shape,
            plan_hash,
        }
    }
}

/// The engine-wide observability registry: one per [`Database`]
/// (shared — not reset — by clones, like the table snapshots themselves).
///
/// The field order is declared (`repr(C)`), not left to the compiler: what
/// every statement writes comes first and the per-kind tallies, which grow
/// with the planner, come last. Measured on `e2e`'s `lookup`: with the order
/// left to the compiler, an eleventh [`DecisionKind`] slot alone — eight
/// bytes, read by no statement there — moved the fields behind it and cost
/// 4 % of `stmt_per_s` (seven of eight alternating pairs).
///
/// [`Database`]: crate::database::Database
#[derive(Debug)]
#[repr(C)]
pub struct ObsRegistry {
    enabled: AtomicBool,
    counters: [AtomicU64; Counter::ALL.len()],
    latency: [LatencyHistogram; Phase::ALL.len()],
    journal: Journal,
    misestimates: Mutex<BTreeMap<(String, String), MisestimateStat>>,
    workload: doctor::WorkloadLedger,
    /// [`Counter::PlanCacheUncacheable`] by reason, in [`Uncacheable::ALL`]
    /// order.
    uncacheable: [AtomicU64; Uncacheable::ALL.len()],
    decisions: [AtomicU64; DecisionKind::ALL.len()],
}

impl Default for ObsRegistry {
    fn default() -> ObsRegistry {
        ObsRegistry::new(JOURNAL_CAP)
    }
}

impl ObsRegistry {
    /// Enabled registry with a journal retaining `journal_cap` statements.
    pub fn new(journal_cap: usize) -> ObsRegistry {
        ObsRegistry {
            enabled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| LatencyHistogram::default()),
            decisions: std::array::from_fn(|_| AtomicU64::new(0)),
            uncacheable: std::array::from_fn(|_| AtomicU64::new(0)),
            journal: Journal::new(journal_cap),
            misestimates: Mutex::new(BTreeMap::new()),
            workload: doctor::WorkloadLedger::default(),
        }
    }

    /// Whether instrumentation is collected. Off, every hot-path hook is a
    /// single relaxed load and a branch.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if !self.enabled() || n == 0 {
            return;
        }
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Record one planner decision by kind.
    pub fn record_decision(&self, kind: DecisionKind) {
        if !self.enabled() {
            return;
        }
        self.decisions[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Planner decision counts by kind name (kinds never recorded are left
    /// out).
    pub fn decisions(&self) -> BTreeMap<String, u64> {
        DecisionKind::ALL
            .into_iter()
            .filter_map(|kind| {
                let n = self.decisions[kind as usize].load(Ordering::Relaxed);
                (n > 0).then(|| (kind.name().to_string(), n))
            })
            .collect()
    }

    /// Count one statement a negative plan-cache entry sent straight to the
    /// planner: [`Counter::PlanCacheUncacheable`], and the tally of its
    /// reason.
    pub fn note_uncacheable(&self, why: Uncacheable) {
        if !self.enabled() {
            return;
        }
        self.incr(Counter::PlanCacheUncacheable);
        self.uncacheable[why as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// [`Counter::PlanCacheUncacheable`] by reason (reasons never seen are
    /// left out).
    pub fn uncacheable_by_reason(&self) -> Vec<(Uncacheable, u64)> {
        Uncacheable::ALL
            .into_iter()
            .map(|why| (why, self.uncacheable[why as usize].load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Current gauge values, read from their sources: `journal_entries` is
    /// how many statements the journal holds (absent until it holds one).
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        let mut gauges = BTreeMap::new();
        let held = self.journal.len() as u64;
        if held > 0 {
            gauges.insert("journal_entries".to_string(), held);
        }
        gauges
    }

    /// Record a phase latency sample.
    pub fn record_latency(&self, phase: Phase, d: Duration) {
        if !self.enabled() {
            return;
        }
        self.latency[phase as usize].record(d);
    }

    /// Summary of one phase's latency histogram.
    pub fn latency_summary(&self, phase: Phase) -> HistogramSummary {
        summarize(&self.latency[phase as usize].snapshot())
    }

    /// The query journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The cumulative workload ledger (the doctor's memory). Unlike the
    /// journal ring buffer, its aggregates survive eviction.
    pub fn workload(&self) -> &doctor::WorkloadLedger {
        &self.workload
    }

    /// Snapshot of the misestimate ledger.
    pub fn misestimates(&self) -> BTreeMap<(String, String), MisestimateStat> {
        self.misestimates.lock().expect("misestimates lock").clone()
    }

    /// Record one executed statement: phase latencies into the histograms, a
    /// journal entry with its profile, every flagged est-vs-actual error into
    /// the misestimate ledger, and the statement's workload facts into the
    /// doctor's ledger. `flag_factor` is the caller's misestimate threshold
    /// (`PlannerOptions::misestimate_factor`); `meta` carries the plan-cache
    /// outcome and adaptive epoch. A profile handed over by value is
    /// journaled as it is; a borrowed one is copied (its shape is shared).
    /// Its [`Tally`] is made here for [`ObsRegistry::record`]. No-op when
    /// the registry is disabled.
    pub fn record_statement<'s>(
        &self,
        statement: impl Into<Statement<'s>>,
        profile: impl Borrow<PlanProfile> + Into<PlanProfile>,
        phases: StatementPhases,
        result_rows: u64,
        flag_factor: f64,
        meta: StatementMeta,
    ) {
        if !self.enabled() {
            return;
        }
        let profile: PlanProfile = profile.into();
        let tally = Tally::new(profile.shape(), profile.counters(), flag_factor);
        self.record(statement.into(), profile, &tally, phases, result_rows, meta);
    }

    /// Record one executed statement from what one pass over its counters
    /// found (`tally`): every flagged error into the misestimate ledger, then,
    /// under the journal's lock (the workload ledger's inside it), the
    /// workload facts, the phase latencies and the journal entry, which
    /// keeps `profile` as it is. Only a flagged misestimate, and the shape hash when the caller has
    /// none, are written out as text. No-op when the registry is disabled.
    pub fn record(
        &self,
        statement: Statement<'_>,
        profile: PlanProfile,
        tally: &Tally,
        phases: StatementPhases,
        result_rows: u64,
        meta: StatementMeta,
    ) {
        if !self.enabled() {
            return;
        }
        let worst = match tally.flagged {
            true => self.absorb_misestimates(&profile, tally.flag_factor),
            false => None,
        };
        let plan_hash = (statement.plan_hash).unwrap_or_else(|| plan_shape_hash(&profile));
        let (sql, total) = (statement.sql.trim(), phases.total());
        let normalized_sql = match statement.shape {
            Some(shape) => Cow::Borrowed(shape),
            None => Cow::Owned(normalize_predicate(sql)),
        };
        let mut journal = self.journal.inner.lock().expect("journal lock");
        self.workload.observe(&doctor::WorkloadSample {
            statement_key: fnv_hash(normalized_sql.as_bytes()),
            normalized_sql,
            sql,
            plan_hash,
            total,
            execute: phases.execute,
            rows_scanned: tally.rows_scanned,
            rows_emitted: result_rows,
            profile: &profile,
            apply_rows: tally.apply_rows,
            sorts: tally.sorts,
            misestimate: worst.as_ref().map(|(_, f)| *f),
            cache: meta.cache,
            epoch: meta.epoch,
        });
        self.record_latency(Phase::Parse, phases.parse);
        self.record_latency(Phase::Plan, phases.plan);
        self.record_latency(Phase::Execute, phases.execute);
        self.record_latency(Phase::Total, total);
        let entry = JournalEntry {
            seq: 0, // assigned by the journal
            sql: String::new(),
            plan_hash,
            result_rows,
            total,
            phases,
            profile,
            worst_misestimate: worst,
            cache: meta.cache,
        };
        journal.push(self.journal.capacity(), entry, sql);
    }

    /// Walk an executed profile, fold every flagged misestimate into the
    /// ledger, and return the worst one as `(detail, factor)`.
    fn absorb_misestimates(
        &self,
        profile: &PlanProfile,
        flag_factor: f64,
    ) -> Option<(String, f64)> {
        // Nothing flagged (the common statement): nothing to file, no lock.
        let (worst, worst_factor) = profile.worst_misestimate(flag_factor)?;
        let mut ledger = self.misestimates.lock().expect("misestimates lock");
        profile.walk(&mut |node| {
            let Some(factor) = node.misestimate_with(flag_factor) else {
                return;
            };
            let key = match node.shape_key() {
                Some(key) => ledger_key(&key.table, &key.shape),
                None => (
                    profile_table(node).unwrap_or("(none)").to_string(),
                    if node.has_detail() {
                        format!(
                            "{} {}",
                            node.operator(),
                            normalize_predicate(&node.detail())
                        )
                    } else {
                        node.operator().to_string()
                    },
                ),
            };
            let stat = ledger.entry(key).or_default();
            stat.count += 1;
            stat.sum_factor += factor;
            stat.max_factor = stat.max_factor.max(factor);
            stat.last_estimated = node.estimated_rows().unwrap_or(0.0).round().max(0.0) as u64;
            stat.last_actual = node.metrics().rows_out;
        });
        let detail = if worst.has_detail() {
            format!("{}: {}", worst.operator(), worst.detail())
        } else {
            worst.operator().to_string()
        };
        Some((detail, worst_factor))
    }

    /// Mark the ledger entry of a filter the planner named (the two halves of
    /// its [`crate::fingerprint::ShapeKey`]) as corrected: the planner has
    /// applied a cardinality-feedback override learned from it.
    pub fn mark_corrected(&self, table: &str, shape: &str) {
        if !self.enabled() {
            return;
        }
        let mut ledger = self.misestimates.lock().expect("misestimates lock");
        if let Some(stat) = ledger.get_mut(&ledger_key(table, shape)) {
            stat.corrected = true;
        }
    }
}

/// Where the ledger files a filter the planner named.
fn ledger_key(table: &str, shape: &str) -> (String, String) {
    (table.to_string(), format!("filter {shape}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::profile::Description;
    use crate::exec::{Columns, OpKind, OpMetrics};
    use crate::value::Value;
    use std::sync::Arc;

    /// Journal a one-row `VALUES` statement of `sql`.
    fn push(journal: &Journal, sql: &str) {
        let values = Description::new(OpKind::Values, "1 literal rows".to_string());
        let shape = Arc::new(values.shape(&Columns::default(), None, []));
        let entry = JournalEntry {
            seq: 0,
            sql: String::new(),
            plan_hash: 7,
            result_rows: 1,
            total: Duration::from_micros(10),
            phases: StatementPhases::default(),
            profile: PlanProfile::new(shape, vec![OpMetrics::default()], Vec::new()),
            worst_misestimate: None,
            cache: CacheStatus::Off,
        };
        let cap = journal.capacity();
        journal.inner.lock().unwrap().push(cap, entry, sql);
    }

    #[test]
    fn a_reused_journal_slot_holds_only_the_statement_written_into_it() {
        // One shape shared by every statement, as a template's is: a reused
        // slot must take each statement's text, counters and literals whole.
        let scan = Description::new(OpKind::Scan, "MOVIES as m".to_string());
        let shape = Arc::new(scan.shape(&Columns::default(), Some(5.0), []));
        let reg = ObsRegistry::new(2);
        for i in 0..6u64 {
            let ran = OpMetrics {
                rows_in: i,
                rows_out: i,
                batches: 1,
                ..OpMetrics::default()
            };
            let literals = (0..i % 3).map(|k| Value::int(k as i64)).collect();
            let profile = PlanProfile::new(Arc::clone(&shape), vec![ran], literals);
            let sql = format!("select m.title from MOVIES m where m.id = {}", 10 - i);
            let phases = StatementPhases::default();
            // Half of them borrowed, half handed over by value.
            let meta = StatementMeta::default();
            let tally = Tally::new(&shape, profile.counters(), 10.0);
            let owned = profile.clone();
            match i % 2 {
                0 => reg.record_statement(sql.as_str(), &profile, phases, i, 10.0, meta),
                _ => reg.record(sql.as_str().into(), owned, &tally, phases, i, meta),
            }
            let entry = reg.journal().last().unwrap();
            assert_eq!((entry.seq, entry.sql.as_str()), (i + 1, sql.as_str()));
            assert_eq!(entry.profile, profile);
            assert_eq!(entry.result_rows, i);
        }
        assert_eq!(reg.journal().len(), 2);
    }

    #[test]
    fn format_duration_thresholds() {
        assert_eq!(format_duration(Duration::from_micros(17)), "17 µs");
        assert_eq!(format_duration(Duration::from_micros(999)), "999 µs");
        assert_eq!(format_duration(Duration::from_micros(1_000)), "1.0 ms");
        assert_eq!(format_duration(Duration::from_micros(38_400)), "38.4 ms");
        assert_eq!(format_duration(Duration::from_millis(3_190)), "3.19 s");
    }

    #[test]
    fn counters_gate_on_enabled() {
        let reg = ObsRegistry::default();
        reg.add(Counter::RowsScanned, 5);
        assert_eq!(reg.counter(Counter::RowsScanned), 5);
        reg.set_enabled(false);
        reg.add(Counter::RowsScanned, 5);
        reg.record_decision(DecisionKind::Join);
        reg.record_latency(Phase::Total, Duration::from_micros(10));
        assert_eq!(reg.counter(Counter::RowsScanned), 5);
        assert!(reg.decisions().is_empty());
        assert_eq!(reg.latency_summary(Phase::Total).count, 0);
    }

    #[test]
    fn histogram_buckets_and_summary() {
        let reg = ObsRegistry::default();
        for micros in [1u64, 3, 3, 100, 900] {
            reg.record_latency(Phase::Execute, Duration::from_micros(micros));
        }
        let summary = reg.latency_summary(Phase::Execute);
        assert_eq!(summary.count, 5);
        // Median sample (3 µs) lands in bucket [2, 4): upper bound 4 µs.
        assert_eq!(summary.p50, Duration::from_micros(4));
        // Largest sample (900 µs) lands in bucket [512, 1024).
        assert_eq!(summary.max, Duration::from_micros(1024));
    }

    #[test]
    fn journal_evicts_fifo_and_keeps_seq() {
        let journal = Journal::new(3);
        for i in 0..5 {
            push(&journal, &format!("q{i}"));
        }
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.recorded(), 5);
        let tail = journal.tail(None);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(tail[0].sql, "q2");
        assert_eq!(journal.tail(Some(2)).len(), 2);
        assert_eq!(journal.last().unwrap().sql, "q4");
    }

    #[test]
    fn normalize_predicate_replaces_literals_only() {
        assert_eq!(normalize_predicate("a.name = 'Brad Pitt'"), "a.name = ?");
        assert_eq!(normalize_predicate("m.year > 2000"), "m.year > ?");
        assert_eq!(
            normalize_predicate("a1.id > a2.id AND x = 'it''s'"),
            "a1.id > a2.id AND x = ?"
        );
        // Identifiers containing digits survive; the probe parameter too.
        assert_eq!(normalize_predicate("g2.mid = $0"), "g2.mid = $?");
    }

    #[test]
    fn seeded_random_journal_inserts_stay_bounded_and_fifo() {
        // Deterministic xorshift; no external RNG crates in this build.
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cap = 1 + (next() % 64) as usize;
        let journal = Journal::new(cap);
        let total = 2_000 + (next() % 1_000);
        for i in 0..total {
            push(&journal, &format!("q{i}"));
            assert!(journal.len() <= cap, "journal exceeded its capacity");
        }
        let tail = journal.tail(None);
        assert_eq!(tail.len(), cap);
        // FIFO eviction: the retained entries are exactly the newest `cap`,
        // in insertion order.
        for (offset, e) in tail.iter().enumerate() {
            assert_eq!(e.seq, total - cap as u64 + 1 + offset as u64);
            assert_eq!(e.sql, format!("q{}", e.seq - 1));
        }
    }

    #[test]
    fn concurrent_writers_never_lose_or_duplicate() {
        use std::collections::HashSet;
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let journal = Arc::new(Journal::new(THREADS * PER_THREAD));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let journal = Arc::clone(&journal);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        push(&journal, &format!("t{t}-{i}"));
                    }
                });
            }
        });
        assert_eq!(journal.len(), THREADS * PER_THREAD);
        assert_eq!(journal.recorded(), (THREADS * PER_THREAD) as u64);
        let tail = journal.tail(None);
        let seqs: HashSet<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len(), THREADS * PER_THREAD, "duplicated sequence");
        assert_eq!(*seqs.iter().min().unwrap(), 1);
        assert_eq!(*seqs.iter().max().unwrap(), (THREADS * PER_THREAD) as u64);
        // Every statement arrived exactly once.
        let sqls: HashSet<&str> = tail.iter().map(|e| e.sql.as_str()).collect();
        assert_eq!(sqls.len(), THREADS * PER_THREAD, "lost or duplicated entry");
        // And the retained order is seq order (FIFO).
        let ordered: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        assert_eq!(ordered, sorted);
    }

    #[test]
    fn concurrent_writers_with_eviction_keep_the_newest() {
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let cap = 100;
        let journal = Arc::new(Journal::new(cap));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let journal = Arc::clone(&journal);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        push(&journal, &format!("t{t}-{i}"));
                    }
                });
            }
        });
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(journal.len(), cap);
        assert_eq!(journal.recorded(), total);
        let seqs: Vec<u64> = journal.tail(None).iter().map(|e| e.seq).collect();
        // Exactly the newest `cap` sequence numbers survive, in order.
        let expected: Vec<u64> = (total - cap as u64 + 1..=total).collect();
        assert_eq!(seqs, expected);
    }
}
