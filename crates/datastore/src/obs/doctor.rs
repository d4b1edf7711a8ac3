//! The database doctor's memory: a workload ledger aggregating the query
//! journal by literal-normalized statement shape, a miner that spots the
//! patterns worth complaining about, and a regression sentinel watching
//! per-shape latency baselines.
//!
//! The journal ([`super::Journal`]) remembers *statements*; this module
//! remembers *shapes*. Every executed statement is folded into one
//! [`WorkloadStat`] keyed by the FNV hash of its literal-normalized text —
//! the text the plan cache keys it by, whitespace runs collapsed — so
//! `… where c.mid = 7` and `… where c.mid = 9` accumulate into one row:
//! executions, total/execute time (plus a log₂ histogram for p95), rows
//! scanned vs. emitted, the access paths used, apply and sort activity, and
//! flagged misestimates. The ledger is cumulative — journal ring-buffer
//! eviction never changes its aggregates — and shared by database clones
//! like the registry that owns it.
//!
//! [`mine`] turns the ledger into [`Issue`]s (repeated full scans,
//! apply-heavy shapes, sorts with no index to lean on, chronic
//! misestimates); [`regressions`] compares each shape's recent executions
//! against its first ones and attributes ≥[`DRIFT_FACTOR`]× drift to a plan
//! change, data growth, or a cache-invalidation epoch. The SQL surface
//! (`SHOW WORKLOAD`, `ADVISE`, `CHECKUP`) and the what-if coster live in the
//! `talkback` crate; this module only aggregates and detects.

use super::{bucket_quantile, latency_bucket, CacheStatus, HIST_BUCKETS};
use crate::exec::{OpKind, OpMetrics, OpShape, PlanProfile};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// Executions of a shape before the miner takes it seriously.
pub const MIN_EXECUTIONS: u64 = 3;
/// Executions forming a shape's latency baseline (its first runs).
pub const BASELINE_WINDOW: u64 = 4;
/// Recent executions the sentinel compares against the baseline.
pub const RECENT_WINDOW: usize = 4;
/// Recent-vs-baseline mean-latency factor that flags a regression.
pub const DRIFT_FACTOR: f64 = 3.0;
/// Regressions below this recent mean are noise, not drift.
pub const DRIFT_FLOOR: Duration = Duration::from_micros(100);
/// Mean rows a full scan must touch per execution before the miner calls it
/// repeated-full-scan evidence — tables this small are cheaper to scan than
/// to advise about.
pub const SCAN_ROWS_FLOOR: u64 = 32;

/// The per-statement facts [`super::ObsRegistry::record`] folds into the
/// ledger, as one pass over the statement's counters found them.
#[derive(Debug, Clone)]
pub struct WorkloadSample<'a> {
    /// FNV hash of the literal-normalized statement text.
    pub statement_key: u64,
    /// The literal-normalized text itself (ledger display form).
    pub normalized_sql: Cow<'a, str>,
    /// The statement as the user wrote it (evidence for the advisor).
    pub sql: &'a str,
    /// Shape hash of the executed plan.
    pub plan_hash: u64,
    /// End-to-end statement time.
    pub total: Duration,
    /// Time in the executor alone.
    pub execute: Duration,
    /// Rows read from storage (scan + index-probe leaves).
    pub rows_scanned: u64,
    /// Rows the statement returned.
    pub rows_emitted: u64,
    /// The executed profile: the tables it full-scans (with the rows each
    /// scan read) and the indexes it probes are filed from it.
    pub profile: &'a PlanProfile,
    /// Rows fed through `Apply` operators (per-row subquery evaluation).
    pub apply_rows: u64,
    /// Sort operators executed.
    pub sorts: u64,
    /// Worst flagged est-vs-actual factor, when one crossed the threshold.
    pub misestimate: Option<f64>,
    /// How the plan cache treated the statement.
    pub cache: CacheStatus,
    /// The adaptive epoch the statement executed in.
    pub epoch: u64,
}

/// One recent execution kept for the sentinel's drift window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecentPoint {
    execute: Duration,
    plan_hash: u64,
    epoch: u64,
    rows_scanned: u64,
}

/// Everything the ledger knows about one statement shape.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStat {
    /// FNV hash of the literal-normalized statement text.
    pub statement_key: u64,
    /// The literal-normalized statement text.
    pub normalized_sql: String,
    /// The most recent literal form (the advisor's evidence query).
    pub last_sql: String,
    /// Times the shape has executed.
    pub executions: u64,
    /// Summed end-to-end time.
    pub total_time: Duration,
    /// Summed executor time.
    pub execute_time: Duration,
    /// Log₂ histogram of end-to-end times (µs), for interpolated p95.
    pub hist: [u64; HIST_BUCKETS],
    /// Rows read from storage across all executions.
    pub rows_scanned: u64,
    /// Rows returned across all executions.
    pub rows_emitted: u64,
    /// Full scans by table: `table → (scan count, rows read)`.
    pub full_scans: BTreeMap<String, (u64, u64)>,
    /// Index probes by index name.
    pub index_scans: BTreeMap<String, u64>,
    /// Rows fed through `Apply` operators across all executions.
    pub apply_rows: u64,
    /// Sort operators executed across all executions.
    pub sorts: u64,
    /// Rendering of the sort keys, when the shape sorts.
    pub sort_keys: Option<String>,
    /// Executions with a flagged misestimate.
    pub flagged: u64,
    /// Worst flagged factor seen.
    pub worst_factor: f64,
    /// Plan-cache hits among the executions.
    pub cache_hits: u64,
    /// Plan shape hash of the most recent execution.
    pub last_plan_hash: u64,
    /// Adaptive epoch of the most recent execution.
    pub last_epoch: u64,
    // --- sentinel state ---
    baseline_count: u64,
    baseline_execute: Duration,
    baseline_plan_hash: u64,
    baseline_epoch: u64,
    baseline_rows_scanned: u64,
    recent: VecDeque<RecentPoint>,
}

impl WorkloadStat {
    fn new(sample: &WorkloadSample) -> WorkloadStat {
        WorkloadStat {
            statement_key: sample.statement_key,
            normalized_sql: sample.normalized_sql.to_string(),
            last_sql: String::new(),
            executions: 0,
            total_time: Duration::ZERO,
            execute_time: Duration::ZERO,
            hist: [0; HIST_BUCKETS],
            rows_scanned: 0,
            rows_emitted: 0,
            full_scans: BTreeMap::new(),
            index_scans: BTreeMap::new(),
            apply_rows: 0,
            sorts: 0,
            sort_keys: None,
            flagged: 0,
            worst_factor: 0.0,
            cache_hits: 0,
            last_plan_hash: sample.plan_hash,
            last_epoch: sample.epoch,
            baseline_count: 0,
            baseline_execute: Duration::ZERO,
            baseline_plan_hash: sample.plan_hash,
            baseline_epoch: sample.epoch,
            baseline_rows_scanned: 0,
            recent: VecDeque::new(),
        }
    }

    fn fold(&mut self, sample: &WorkloadSample) {
        self.executions += 1;
        self.last_sql.clear();
        self.last_sql.push_str(sample.sql);
        self.total_time += sample.total;
        self.execute_time += sample.execute;
        self.hist[latency_bucket(sample.total)] += 1;
        self.rows_scanned += sample.rows_scanned;
        self.rows_emitted += sample.rows_emitted;
        self.file(sample.profile.shape(), sample.profile.counters());
        self.apply_rows += sample.apply_rows;
        self.sorts += sample.sorts;
        if self.sort_keys.is_none() && sample.sorts > 0 {
            // The first sort's keys, for sort-without-index advice.
            sample.profile.walk(&mut |node| {
                if self.sort_keys.is_none() && node.kind() == OpKind::Sort && node.has_detail() {
                    self.sort_keys = Some(node.detail().into_owned());
                }
            });
        }
        if let Some(factor) = sample.misestimate {
            self.flagged += 1;
            if factor > self.worst_factor {
                self.worst_factor = factor;
            }
        }
        if sample.cache == CacheStatus::Hit {
            self.cache_hits += 1;
        }
        self.last_plan_hash = sample.plan_hash;
        self.last_epoch = sample.epoch;
        // Sentinel windows: the first BASELINE_WINDOW executions set the
        // bar; a ring of the newest RECENT_WINDOW is compared against it.
        if self.baseline_count < BASELINE_WINDOW {
            self.baseline_count += 1;
            self.baseline_execute += sample.execute;
            self.baseline_rows_scanned += sample.rows_scanned;
            if self.baseline_count == 1 {
                self.baseline_plan_hash = sample.plan_hash;
                self.baseline_epoch = sample.epoch;
            }
        } else {
            self.recent.push_back(RecentPoint {
                execute: sample.execute,
                plan_hash: sample.plan_hash,
                epoch: sample.epoch,
                rows_scanned: sample.rows_scanned,
            });
            while self.recent.len() > RECENT_WINDOW {
                self.recent.pop_front();
            }
        }
    }

    /// Count the full scans and index probes of `shape` (its counters first
    /// in `counters`) under their tables and indexes. A table or index
    /// already on file is counted without copying its name again.
    fn file(&mut self, shape: &OpShape, counters: &[OpMetrics]) {
        match (shape.kind, &shape.access) {
            (OpKind::Scan, _) => {
                let (table, rows) = (shape.table().unwrap_or_default(), counters[0].rows_out);
                match self.full_scans.get_mut(table) {
                    Some((scans, read)) => (*scans, *read) = (*scans + 1, *read + rows),
                    None => _ = self.full_scans.insert(table.to_string(), (1, rows)),
                }
            }
            (
                OpKind::IndexScan | OpKind::IndexProbe | OpKind::IndexNestedLoopJoin,
                Some(access),
            ) => match self.index_scans.get_mut(&access.index) {
                Some(probes) => *probes += 1,
                None => _ = self.index_scans.insert(access.index.clone(), 1),
            },
            _ => {}
        }
        let mut at = 1;
        for child in &shape.children {
            self.file(child, &counters[at..]);
            at += child.size;
        }
    }

    /// Mean end-to-end time per execution.
    pub fn mean_total(&self) -> Duration {
        if self.executions == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.executions as u32
        }
    }

    /// Mean executor time per execution.
    pub fn mean_execute(&self) -> Duration {
        if self.executions == 0 {
            Duration::ZERO
        } else {
            self.execute_time / self.executions as u32
        }
    }

    /// Interpolated p95 of the shape's end-to-end times.
    pub fn p95(&self) -> Duration {
        bucket_quantile(&self.hist, 0.95)
    }

    /// The baseline mean executor time (first executions), once set.
    pub fn baseline_mean(&self) -> Option<Duration> {
        (self.baseline_count > 0).then(|| self.baseline_execute / self.baseline_count as u32)
    }

    /// Compact access-path rendering: `scan CAST ×20; idx pk_actor ×20`.
    pub fn access_summary(&self) -> String {
        let mut parts: Vec<String> = self
            .full_scans
            .iter()
            .map(|(table, (count, _))| format!("scan {table} ×{count}"))
            .collect();
        parts.extend(
            self.index_scans
                .iter()
                .map(|(index, count)| format!("idx {index} ×{count}")),
        );
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join("; ")
        }
    }
}

/// The cumulative workload ledger: one [`WorkloadStat`] per statement shape,
/// updated on every recorded statement and independent of journal eviction.
#[derive(Debug, Default)]
pub struct WorkloadLedger {
    inner: Mutex<BTreeMap<u64, WorkloadStat>>,
}

impl WorkloadLedger {
    /// Fold one executed statement into its shape's aggregates.
    pub fn observe(&self, sample: &WorkloadSample) {
        let mut inner = self.inner.lock().expect("workload ledger lock");
        inner
            .entry(sample.statement_key)
            .or_insert_with(|| WorkloadStat::new(sample))
            .fold(sample);
    }

    /// Shapes tracked.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("workload ledger lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every shape, heaviest total time first (ties broken by
    /// normalized text so reports are deterministic).
    pub fn snapshot(&self) -> Vec<WorkloadStat> {
        let mut stats: Vec<WorkloadStat> = self
            .inner
            .lock()
            .expect("workload ledger lock")
            .values()
            .cloned()
            .collect();
        stats.sort_by(|a, b| {
            b.total_time
                .cmp(&a.total_time)
                .then_with(|| a.normalized_sql.cmp(&b.normalized_sql))
        });
        stats
    }

    /// One shape's aggregates, by statement key.
    pub fn stat(&self, statement_key: u64) -> Option<WorkloadStat> {
        self.inner
            .lock()
            .expect("workload ledger lock")
            .get(&statement_key)
            .cloned()
    }

    /// Forget everything (tests, resets).
    pub fn clear(&self) {
        self.inner.lock().expect("workload ledger lock").clear();
    }
}

// ---------------------------------------------------------------------------
// The miner
// ---------------------------------------------------------------------------

/// A workload pattern worth advising about.
#[derive(Debug, Clone, PartialEq)]
pub enum IssueKind {
    /// The shape full-scans `table` on every execution while keeping few of
    /// the rows — the classic missing-index smell.
    RepeatedFullScan {
        table: String,
        scans: u64,
        avg_rows: u64,
    },
    /// The shape funnels many rows through per-row `Apply` subqueries.
    ApplyHeavy { evaluations: u64 },
    /// The shape sorts its output and no index delivered the order.
    SortWithoutIndex { keys: String },
    /// The optimizer keeps misestimating this shape.
    ChronicMisestimate { worst_factor: f64 },
}

impl IssueKind {
    /// Stable short label for tables and tests.
    pub fn label(&self) -> &'static str {
        match self {
            IssueKind::RepeatedFullScan { .. } => "repeated full scan",
            IssueKind::ApplyHeavy { .. } => "apply-heavy",
            IssueKind::SortWithoutIndex { .. } => "sort without index",
            IssueKind::ChronicMisestimate { .. } => "chronic misestimate",
        }
    }
}

/// One mined finding, tied to the shape that evidences it.
#[derive(Debug, Clone, PartialEq)]
pub struct Issue {
    /// Key of the shape in the ledger.
    pub statement_key: u64,
    /// The latest literal form of the shape — a runnable evidence query.
    pub evidence_sql: String,
    /// Executions backing the finding.
    pub executions: u64,
    /// Mean end-to-end time of the shape.
    pub mean_total: Duration,
    /// What the miner found.
    pub kind: IssueKind,
}

/// Mine a ledger snapshot for advisable patterns. Shapes below
/// [`MIN_EXECUTIONS`] are ignored — one slow statement is an anecdote, not
/// a workload.
pub fn mine(stats: &[WorkloadStat]) -> Vec<Issue> {
    let mut issues = Vec::new();
    for stat in stats {
        if stat.executions < MIN_EXECUTIONS {
            continue;
        }
        let issue = |kind: IssueKind| Issue {
            statement_key: stat.statement_key,
            evidence_sql: stat.last_sql.clone(),
            executions: stat.executions,
            mean_total: stat.mean_total(),
            kind,
        };
        // Repeated full scans: the heaviest-scanned table, when scans read
        // far more than the statement kept and the table is big enough for
        // an index to matter.
        if let Some((table, (scans, rows))) = stat
            .full_scans
            .iter()
            .max_by_key(|(_, (_, rows))| *rows)
            .filter(|(_, (scans, rows))| {
                *scans >= MIN_EXECUTIONS
                    && rows / scans.max(&1) >= SCAN_ROWS_FLOOR
                    && *rows >= stat.rows_emitted.saturating_mul(4)
            })
        {
            issues.push(issue(IssueKind::RepeatedFullScan {
                table: table.clone(),
                scans: *scans,
                avg_rows: rows / scans.max(&1),
            }));
        }
        if stat.apply_rows / stat.executions >= SCAN_ROWS_FLOOR {
            issues.push(issue(IssueKind::ApplyHeavy {
                evaluations: stat.apply_rows,
            }));
        }
        if stat.sorts > 0 {
            if let Some(keys) = &stat.sort_keys {
                issues.push(issue(IssueKind::SortWithoutIndex { keys: keys.clone() }));
            }
        }
        if stat.flagged * 2 >= stat.executions {
            issues.push(issue(IssueKind::ChronicMisestimate {
                worst_factor: stat.worst_factor,
            }));
        }
    }
    issues
}

// ---------------------------------------------------------------------------
// The regression sentinel
// ---------------------------------------------------------------------------

/// The sentinel's best explanation for a shape's latency drift.
#[derive(Debug, Clone, PartialEq)]
pub enum DriftCause {
    /// The executed plan's shape hash changed between baseline and now.
    PlanChange { from: u64, to: u64 },
    /// The shape reads far more rows than it used to.
    DataGrowth { from_rows: u64, to_rows: u64 },
    /// The adaptive epoch moved — cached plans and learned feedback were
    /// invalidated between baseline and now.
    CacheInvalidation { from_epoch: u64, to_epoch: u64 },
    /// Nothing observable changed; the drift is unexplained.
    Unknown,
}

/// One shape whose recent executions drifted past the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Key of the shape in the ledger.
    pub statement_key: u64,
    /// The latest literal form of the shape.
    pub sql: String,
    /// Mean executor time of the first executions.
    pub baseline_mean: Duration,
    /// Mean executor time of the newest executions.
    pub recent_mean: Duration,
    /// `recent / baseline`.
    pub factor: f64,
    /// The suspected cause.
    pub cause: DriftCause,
}

/// Compare each shape's recent window against its baseline and report every
/// drift of at least [`DRIFT_FACTOR`]× (with the recent mean above
/// [`DRIFT_FLOOR`] — microsecond wobble is not a regression).
pub fn regressions(stats: &[WorkloadStat]) -> Vec<Regression> {
    let mut found = Vec::new();
    for stat in stats {
        if stat.recent.len() < RECENT_WINDOW {
            continue;
        }
        let Some(baseline_mean) = stat.baseline_mean() else {
            continue;
        };
        let recent_total: Duration = stat.recent.iter().map(|p| p.execute).sum();
        let recent_mean = recent_total / stat.recent.len() as u32;
        if recent_mean < DRIFT_FLOOR || baseline_mean.is_zero() {
            continue;
        }
        let factor = recent_mean.as_secs_f64() / baseline_mean.as_secs_f64().max(1e-9);
        if factor < DRIFT_FACTOR {
            continue;
        }
        let newest = stat.recent.back().expect("window checked non-empty");
        let baseline_rows = stat.baseline_rows_scanned / stat.baseline_count.max(1);
        let recent_rows =
            stat.recent.iter().map(|p| p.rows_scanned).sum::<u64>() / stat.recent.len() as u64;
        let cause = if newest.plan_hash != stat.baseline_plan_hash {
            DriftCause::PlanChange {
                from: stat.baseline_plan_hash,
                to: newest.plan_hash,
            }
        } else if recent_rows >= baseline_rows.saturating_mul(2).max(baseline_rows + 1) {
            DriftCause::DataGrowth {
                from_rows: baseline_rows,
                to_rows: recent_rows,
            }
        } else if newest.epoch != stat.baseline_epoch {
            DriftCause::CacheInvalidation {
                from_epoch: stat.baseline_epoch,
                to_epoch: newest.epoch,
            }
        } else {
            DriftCause::Unknown
        };
        found.push(Regression {
            statement_key: stat.statement_key,
            sql: stat.last_sql.clone(),
            baseline_mean,
            recent_mean,
            factor,
            cause,
        });
    }
    found.sort_by(|a, b| {
        b.factor
            .partial_cmp(&a.factor)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::profile::Description;
    use crate::exec::Columns;
    use crate::fingerprint::{fnv_hash, normalize_predicate};
    use std::sync::{Arc, LazyLock};

    /// A full scan of CAST that read 100 rows.
    static CAST_SCAN: LazyLock<PlanProfile> = LazyLock::new(|| {
        let scan = Description::new(OpKind::Scan, "CAST as c".to_string());
        let shape = Arc::new(scan.shape(&Columns::default(), None, []));
        let read = OpMetrics {
            rows_in: 100,
            rows_out: 100,
            batches: 1,
            ..OpMetrics::default()
        };
        PlanProfile::new(shape, vec![read], Vec::new())
    });

    fn sample(sql: &str, micros: u64) -> WorkloadSample<'_> {
        let normalized = normalize_predicate(sql);
        WorkloadSample {
            statement_key: fnv_hash(normalized.as_bytes()),
            normalized_sql: Cow::Owned(normalized),
            sql,
            plan_hash: 11,
            total: Duration::from_micros(micros),
            execute: Duration::from_micros(micros),
            rows_scanned: 100,
            rows_emitted: 2,
            profile: &CAST_SCAN,
            apply_rows: 0,
            sorts: 0,
            misestimate: None,
            cache: CacheStatus::Miss,
            epoch: 0,
        }
    }

    #[test]
    fn literal_variants_share_one_shape() {
        let ledger = WorkloadLedger::default();
        ledger.observe(&sample("select c.aid from CAST c where c.mid = 7", 100));
        ledger.observe(&sample("select c.aid from CAST c where c.mid = 9", 300));
        assert_eq!(ledger.len(), 1);
        let stats = ledger.snapshot();
        assert_eq!(stats[0].executions, 2);
        assert_eq!(stats[0].rows_scanned, 200);
        assert_eq!(stats[0].mean_total(), Duration::from_micros(200));
        assert_eq!(
            stats[0].normalized_sql,
            "select c.aid from CAST c where c.mid = ?"
        );
        // The latest literal form is kept as evidence.
        assert_eq!(
            stats[0].last_sql,
            "select c.aid from CAST c where c.mid = 9"
        );
    }

    #[test]
    fn miner_flags_repeated_full_scans_but_not_one_offs() {
        let ledger = WorkloadLedger::default();
        ledger.observe(&sample("select c.aid from CAST c where c.mid = 1", 100));
        assert!(
            mine(&ledger.snapshot()).is_empty(),
            "one run is an anecdote"
        );
        for i in 2..=5 {
            ledger.observe(&sample(
                &format!("select c.aid from CAST c where c.mid = {i}"),
                100,
            ));
        }
        let issues = mine(&ledger.snapshot());
        assert_eq!(issues.len(), 1);
        assert!(matches!(
            &issues[0].kind,
            IssueKind::RepeatedFullScan { table, scans: 5, avg_rows: 100 } if table == "CAST"
        ));
        assert_eq!(issues[0].executions, 5);
    }

    #[test]
    fn sentinel_attributes_drift_to_data_growth() {
        let ledger = WorkloadLedger::default();
        for _ in 0..BASELINE_WINDOW {
            ledger.observe(&sample("select c.aid from CAST c where c.mid = 1", 100));
        }
        assert!(regressions(&ledger.snapshot()).is_empty());
        for _ in 0..RECENT_WINDOW {
            let mut s = sample("select c.aid from CAST c where c.mid = 1", 900);
            s.rows_scanned = 5_000;
            ledger.observe(&s);
        }
        let drifts = regressions(&ledger.snapshot());
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].factor >= DRIFT_FACTOR);
        assert!(matches!(
            drifts[0].cause,
            DriftCause::DataGrowth {
                from_rows: 100,
                to_rows: 5_000
            }
        ));
    }

    #[test]
    fn sentinel_prefers_plan_change_over_epoch_drift() {
        let ledger = WorkloadLedger::default();
        for _ in 0..BASELINE_WINDOW {
            ledger.observe(&sample("select c.aid from CAST c where c.mid = 1", 100));
        }
        for _ in 0..RECENT_WINDOW {
            let mut s = sample("select c.aid from CAST c where c.mid = 1", 2_000);
            s.plan_hash = 99;
            s.epoch = 7;
            ledger.observe(&s);
        }
        let drifts = regressions(&ledger.snapshot());
        assert_eq!(drifts.len(), 1);
        assert!(matches!(
            drifts[0].cause,
            DriftCause::PlanChange { from: 11, to: 99 }
        ));
    }
}
