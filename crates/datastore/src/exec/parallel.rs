//! Morsel-driven parallel execution.
//!
//! # The morsel model
//!
//! A pipeline — scan, filters, projections, and the probe sides of hash
//! (semi-/anti-)joins — is *embarrassingly parallel over its driver scan*:
//! every input row flows through the same operators independently. The
//! exchange operator (`ExchangeSource`) exploits that by splitting the driver
//! scan (the pipeline's leftmost leaf, [`Plan::driver_scan`]) into
//! **morsels** — contiguous row ranges of at least [`MORSEL_MIN`] rows — and
//! letting `workers` threads *claim* morsels from a shared atomic counter.
//! Claiming (rather than pre-assigning) is what makes the schedule
//! morsel-driven: a worker that drew cheap morsels simply claims more, so
//! skew self-balances without a coordinator.
//!
//! Each claimed morsel is executed by opening a fresh copy of the pipeline's
//! operator tree over just that row range. Opening is cheap — it reads no
//! data — because of the ownership refactor this module motivated: operator
//! trees own `Arc` handles to their tables ([`super::stream::ExecContext`])
//! instead of borrowing from the database, so a subtree can be shipped to a
//! worker thread wholesale.
//!
//! # Shared build state
//!
//! The stateful inputs inside a pipeline — a hash join's build side, a
//! semi-/anti-join's key set, a nested-loop join's materialized inner, a
//! scalar subquery's cached value — must be built **once**, not once per
//! morsel. `ExchangeShared` holds one mutex-guarded cell per such node
//! (indexed in the order the open walk reaches the nodes, which every
//! worker's open reproduces; the exchange's own first open says how many
//! there are): the first worker to need a build performs it and publishes
//! the result behind an `Arc`; everyone else clones the handle. Because
//! exactly one worker executes each build side, the per-operator counters
//! still sum to the single-threaded totals after the exchange merges worker
//! profiles.
//!
//! The hash-join build itself goes parallel for large inputs: rows are
//! hash-partitioned by join key across [`JoinIndex`] partitions, built by one
//! thread per partition (phase 1 scatters, phase 2 builds), preserving the
//! original build order inside every partition so probe results are
//! byte-identical to a sequential build.
//!
//! # Determinism
//!
//! Workers send `(morsel index, rows)` back over a channel; the exchange
//! reassembles outputs **in morsel order**, which equals scan order. Combined
//! with order-preserving per-morsel pipelines and build-order-preserving
//! indexes, a parallel run produces exactly the row sequence of a sequential
//! run — `ORDER BY` (a stable sort above the exchange) therefore ties-breaks
//! identically at any parallelism degree.

use crate::error::StoreError;
use crate::exec::aggregate::GroupedAggregator;
use crate::exec::keys::{Key, KeyTable, RowKey};
use crate::exec::plan::{aggregate_output_columns, Columns, GatherMode, Plan, Relation};
use crate::exec::profile::{Description, OpKind, OpMetrics};
use crate::exec::stream::{
    drain_pending, open_in, top_k, ExecContext, OpenEnv, Operator, RowSource,
};
use crate::expr::{BoundExpr, ParamLookup};
use crate::obs::Counter;
use crate::tuple::Row;
use crate::value::Value;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

/// Minimum rows per morsel: below this, per-morsel open/teardown overhead
/// dominates and the scan stays effectively sequential.
pub const MORSEL_MIN: usize = 1024;

/// Minimum build-side rows before a hash-join build is partitioned across
/// threads.
pub const PARALLEL_BUILD_MIN: usize = 4096;

/// Rows per morsel for a driver of `len` rows: aim for ~4 morsels per worker
/// (so claiming balances skew) without dropping below [`MORSEL_MIN`].
pub fn morsel_size(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 4)).max(MORSEL_MIN)
}

/// Which partition of `parts` a key with this [`Key::hash`] belongs to (the
/// only one, after a sequential build) — by the high half of the hash, so the
/// keys that meet in one partition still differ in the low bits that
/// partition's table indexes with.
fn part_of(hash: u64, parts: usize) -> usize {
    if parts == 1 {
        return 0;
    }
    ((hash >> 32) as usize) % parts
}

/// Split rows into up to `workers` contiguous *owned* chunks, preserving
/// order, so scatter threads move rows into their buckets instead of
/// cloning them. The partitioned builds rely on chunk contiguity for their
/// order-preservation invariant: concatenating per-chunk buckets in chunk
/// order reproduces the original row order within every partition.
fn split_chunks(mut rows: Vec<Row>, workers: usize) -> Vec<Vec<Row>> {
    let chunk = rows.len().div_ceil(workers.max(1)).max(1);
    let mut chunks = Vec::with_capacity(workers);
    while rows.len() > chunk {
        let tail = rows.split_off(chunk);
        chunks.push(std::mem::replace(&mut rows, tail));
    }
    chunks.push(rows);
    chunks
}

/// One thread per share, the results in share order: both phases of a
/// partitioned build.
fn on_threads<T: Send, P: Send>(shares: Vec<T>, work: impl Fn(T) -> P + Sync) -> Vec<P> {
    let work = &work;
    thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| s.spawn(move || work(share)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("build worker panicked"))
            .collect()
    })
}

/// Phase 1 of both partitioned builds: `workers` threads each take a
/// contiguous chunk of the rows and deal every row with a NULL-free key into
/// that key's partition; the second result says whether any key held a NULL.
/// Per partition, the chunks' shares are concatenated in chunk order — the
/// original row order. Phase 2 is [`on_threads`] over the partitions.
fn scatter_by_key(rows: Vec<Row>, key_cols: &[usize], workers: usize) -> (Vec<Vec<Row>>, bool) {
    let scattered = on_threads(split_chunks(rows, workers), |chunk_rows| {
        let mut buckets: Vec<Vec<Row>> = (0..workers).map(|_| Vec::new()).collect();
        let mut null_key = false;
        for row in chunk_rows {
            let key = RowKey(&row, key_cols);
            if key.has_null() {
                null_key = true;
                continue;
            }
            let part = part_of(key.hash(), workers);
            buckets[part].push(row);
        }
        (buckets, null_key)
    });
    let mut null_key = false;
    let mut per_part: Vec<Vec<Row>> = (0..workers).map(|_| Vec::new()).collect();
    for (buckets, saw_null) in scattered {
        null_key |= saw_null;
        for (part, bucket) in per_part.iter_mut().zip(buckets) {
            part.extend(bucket);
        }
    }
    (per_part, null_key)
}

// ---------------------------------------------------------------------------
// Join index (hash-join build side)
// ---------------------------------------------------------------------------

/// The build side of a hash join: key → build rows, hash-partitioned when
/// built in parallel. Lookups hit exactly one partition; rows within a key
/// keep their original build order in either mode, so probe output is
/// identical to a single-threaded, single-table build.
#[derive(Debug)]
pub struct JoinIndex {
    parts: Vec<JoinPart>,
}

/// One partition: its rows, grouped — every key's rows side by side, in build
/// order — and where each key's run lies.
#[derive(Debug)]
struct JoinPart {
    /// The distinct keys; a key's id numbers its run.
    keys: KeyTable,
    /// Key `k`'s rows are `rows[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<usize>,
    rows: Vec<Row>,
}

impl JoinPart {
    /// Group `rows` by key. Each row's key is hashed where it lies and only
    /// a new key is stored; the row is then moved — not copied — to its place
    /// in its key's run. Rows whose key holds a NULL join nothing and are
    /// dropped.
    fn build(rows: Vec<Row>, key_cols: &[usize]) -> JoinPart {
        const DROPPED: u32 = u32::MAX;
        let mut keys = KeyTable::new(key_cols.len());
        let mut sizes: Vec<usize> = Vec::new();
        let mut key_of: Vec<u32> = Vec::with_capacity(rows.len());
        for row in &rows {
            let key = RowKey(row, key_cols);
            if key.has_null() {
                key_of.push(DROPPED);
                continue;
            }
            let (id, fresh) = keys.insert(key.hash(), &key);
            if fresh {
                sizes.push(0);
            }
            sizes[id as usize] += 1;
            key_of.push(id);
        }
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        bounds.push(0);
        for size in &sizes {
            bounds.push(bounds[bounds.len() - 1] + size);
        }
        let mut next = bounds.clone();
        let mut placed: Vec<Option<Row>> = vec![None; bounds[sizes.len()]];
        for (row, id) in rows.into_iter().zip(key_of) {
            if id != DROPPED {
                placed[next[id as usize]] = Some(row);
                next[id as usize] += 1;
            }
        }
        JoinPart {
            keys,
            bounds,
            rows: placed.into_iter().flatten().collect(),
        }
    }
}

impl JoinIndex {
    /// Build from materialized build-side rows. NULL keys never participate
    /// in SQL equality and are dropped. With `workers > 1` and at least
    /// [`PARALLEL_BUILD_MIN`] rows the build is partitioned by key hash and
    /// each partition's table is built by its own thread.
    pub fn build(rows: Vec<Row>, key_cols: &[usize], workers: usize) -> JoinIndex {
        if workers <= 1 || rows.len() < PARALLEL_BUILD_MIN {
            return JoinIndex {
                parts: vec![JoinPart::build(rows, key_cols)],
            };
        }
        let (per_part, _) = scatter_by_key(rows, key_cols, workers);
        JoinIndex {
            parts: on_threads(per_part, |rows| JoinPart::build(rows, key_cols)),
        }
    }

    /// Build rows whose key is `=` to a NULL-free probe key, in build order.
    pub(crate) fn lookup(&self, key: &(impl Key + ?Sized)) -> Option<&[Row]> {
        let hash = key.hash();
        let part = &self.parts[part_of(hash, self.parts.len())];
        let id = part.keys.find(hash, key)? as usize;
        Some(&part.rows[part.bounds[id]..part.bounds[id + 1]])
    }

    /// Number of hash partitions (1 for a sequential build).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total distinct keys across partitions.
    pub fn key_count(&self) -> usize {
        self.parts.iter().map(|part| part.keys.len()).sum()
    }
}

/// The build side of a semi-/anti-join: the distinct non-NULL key set
/// (hash-partitioned when built in parallel, like [`JoinIndex`]) plus the
/// two flags `NOT IN`'s three-valued NULL semantics need.
#[derive(Debug)]
pub struct SemiBuild {
    parts: Vec<KeyTable>,
    /// Whether the build side produced any rows at all.
    pub any_rows: bool,
    /// Whether any build key contained a NULL.
    pub null_key: bool,
}

impl SemiBuild {
    /// Build the key set from materialized build-side rows. With
    /// `workers > 1` and at least [`PARALLEL_BUILD_MIN`] rows, keys are
    /// hash-partitioned and each partition's set is built by its own thread.
    pub fn build(rows: Vec<Row>, key_cols: &[usize], workers: usize) -> SemiBuild {
        let any_rows = !rows.is_empty();
        let key_set = |rows: Vec<Row>| {
            let mut keys = KeyTable::new(key_cols.len());
            let mut null_key = false;
            for row in &rows {
                let key = RowKey(row, key_cols);
                if key.has_null() {
                    null_key = true;
                } else {
                    keys.insert(key.hash(), &key);
                }
            }
            (keys, null_key)
        };
        if workers <= 1 || rows.len() < PARALLEL_BUILD_MIN {
            let (keys, null_key) = key_set(rows);
            return SemiBuild {
                parts: vec![keys],
                any_rows,
                null_key,
            };
        }
        let (per_part, null_key) = scatter_by_key(rows, key_cols, workers);
        SemiBuild {
            parts: on_threads(per_part, |rows| key_set(rows).0),
            any_rows,
            null_key,
        }
    }

    /// Whether the build-side key set holds a key `=` to `key`.
    pub(crate) fn contains(&self, key: &(impl Key + ?Sized)) -> bool {
        let hash = key.hash();
        self.parts[part_of(hash, self.parts.len())]
            .find(hash, key)
            .is_some()
    }

    /// Total distinct keys across partitions.
    pub fn key_count(&self) -> usize {
        self.parts.iter().map(KeyTable::len).sum()
    }
}

/// A scalar subquery's values by key (the empty key when uncorrelated): key
/// `k`'s value is `values[k]`.
#[derive(Debug)]
pub(crate) struct ScalarLookup {
    pub(crate) keys: KeyTable,
    pub(crate) values: Vec<Value>,
}

// ---------------------------------------------------------------------------
// Shared build-state cells
// ---------------------------------------------------------------------------

/// One pre-built stateful input, shared across the workers of an exchange.
#[derive(Debug, Clone)]
pub(crate) enum SharedBuild {
    /// A hash join's build index.
    Join(Arc<JoinIndex>),
    /// A semi-/anti-join's key set.
    Keys(Arc<SemiBuild>),
    /// A nested-loop join's materialized inner side.
    Rows(Arc<Vec<Row>>),
    /// A scalar subquery's values by key (the empty key when uncorrelated).
    Scalar(Arc<ScalarLookup>),
}

/// Build-once state shared by every worker (and every morsel) of one
/// exchange: one cell per stateful node of the pipeline, indexed by the
/// order in which [`open_in`] reaches the node. The first worker to need a
/// build performs it while holding the cell's lock; later arrivals clone the
/// published `Arc`.
#[derive(Debug)]
pub(crate) struct ExchangeShared {
    workers: usize,
    /// Sized by [`ExchangeShared::size_cells`] from the counter the
    /// exchange's first open of its pipeline leaves behind, so there are
    /// exactly as many cells as any later open of the same plan indexes.
    cells: OnceLock<Vec<Mutex<Option<SharedBuild>>>>,
}

impl ExchangeShared {
    fn new(workers: usize) -> ExchangeShared {
        ExchangeShared {
            workers,
            cells: OnceLock::new(),
        }
    }

    /// Allocate `count` empty cells (the first call wins; opening reads no
    /// rows, so no build can have asked for a cell before it).
    fn size_cells(&self, count: usize) {
        self.cells
            .get_or_init(|| (0..count).map(|_| Mutex::new(None)).collect());
    }

    /// Empty every cell, for a rewound run to build again.
    fn clear(&self) {
        for cell in self.cells.get().into_iter().flatten() {
            *cell.lock().expect("shared build cell poisoned") = None;
        }
    }

    /// Worker threads of the owning exchange — stateful builds use this as
    /// their own parallelism degree (e.g. the partitioned hash-join build).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The shared build of cell `idx`, building it via `build` if this is
    /// the first arrival. Build errors are not cached; a later worker will
    /// retry (and typically fail the same way).
    pub(crate) fn get_or_build(
        &self,
        idx: usize,
        build: impl FnOnce() -> Result<SharedBuild, StoreError>,
    ) -> Result<SharedBuild, StoreError> {
        let cells = self
            .cells
            .get()
            .expect("cells are sized when the exchange opens");
        let mut cell = cells[idx].lock().expect("shared build cell poisoned");
        if let Some(existing) = cell.as_ref() {
            return Ok(existing.clone());
        }
        let built = build()?;
        *cell = Some(built.clone());
        Ok(built)
    }
}

// ---------------------------------------------------------------------------
// Exchange operator
// ---------------------------------------------------------------------------

/// What one worker ships back for one morsel, shaped by the exchange's
/// gather mode: plain rows (possibly a sorted and/or truncated run), or
/// partial aggregate states plus how many of the morsel's batches went
/// through the vector kernels.
enum WorkerOutput {
    Rows(Vec<Row>),
    /// Boxed: an aggregator carries its vector path's arrays.
    Partial(Box<GroupedAggregator>),
}

/// Morsel-driven parallel execution of a pipeline subtree (see the module
/// docs). A blocking operator from the parent's perspective: the first pull
/// runs the whole parallel section, later pulls drain the gathered,
/// morsel-ordered output.
pub(crate) struct ExchangeSource {
    ctx: Arc<ExecContext>,
    /// The pipeline as the plan wrote it, and the copy the workers open,
    /// its parameters bound by the last rewind.
    written: Arc<Plan>,
    input: Arc<Plan>,
    workers: usize,
    /// How per-morsel outputs are combined above the workers, and the
    /// merged aggregate's `HAVING`, bound like the pipeline.
    gather: GatherMode,
    having: Option<BoundExpr>,
    columns: Columns,
    /// The pipeline subtree, opened once. On the parallel path it is never
    /// pulled: its shape is the one every worker's pipeline shares. On the
    /// pass-through path (no partitionable driver scan, or one worker) it is
    /// this operator's input.
    pipeline: Box<dyn RowSource>,
    passthrough: bool,
    shared: Arc<ExchangeShared>,
    /// The driver scan's table, read as the plan reads it.
    driver: Option<Arc<Relation>>,
    /// Gathered output in morsel order, filled by the first pull.
    gathered: Option<VecDeque<Row>>,
    /// The workers' pipeline counters, summed over every morsel of every
    /// run.
    absorbed: Option<Vec<OpMetrics>>,
}

impl ExchangeSource {
    pub(crate) fn open(
        ctx: &Arc<ExecContext>,
        input: &Plan,
        workers: usize,
        gather: GatherMode,
    ) -> Result<ExchangeSource, StoreError> {
        // The executor partitions only what `Plan::driver_scan` finds: a
        // hand-built exchange over a limit or an aggregate degrades to a
        // sequential pass-through instead of running it once per morsel.
        let driver = match input.driver_scan() {
            Some((table, alias, _)) => Some(ctx.require_table(table)?.relation(table, alias)),
            None => None,
        };
        let shared = Arc::new(ExchangeShared::new(workers));
        let cell = Cell::new(0);
        let env = OpenEnv {
            shared: Some(&shared),
            next_cell: &cell,
            one_thread: false,
        };
        // Opening the pipeline validates the subtree and fixes the profile
        // shape every worker's profile will share; it reads no rows. On the
        // pass-through path (no partitionable driver, or one worker) the
        // same source is the input — no second open. The
        // gather still applies on that path (an aggregating exchange must
        // aggregate even when it cannot partition), treating the whole
        // pass-through output as a single run.
        let pipeline = open_in(ctx, input, &env, None, None, None)?;
        shared.size_cells(cell.get());
        let columns = match &gather {
            // A merging-aggregate exchange emits aggregate output rows, not
            // the pipeline's input rows.
            GatherMode::MergeAggregate {
                group_by,
                aggregates,
                ..
            } => aggregate_output_columns(pipeline.columns(), group_by, aggregates).into(),
            _ => Arc::clone(pipeline.columns()),
        };
        let input = Arc::new(input.clone());
        Ok(ExchangeSource {
            ctx: Arc::clone(ctx),
            written: Arc::clone(&input),
            input,
            workers,
            having: match &gather {
                GatherMode::MergeAggregate { having, .. } => having.as_ref().map(BoundExpr::new),
                _ => None,
            },
            gather,
            columns,
            pipeline,
            passthrough: driver.is_none() || workers <= 1,
            shared,
            driver,
            gathered: None,
            absorbed: None,
        })
    }

    /// Run the parallel section: claim-and-run morsels on `workers` threads,
    /// gather `(morsel, rows)` over a channel, reassemble in morsel order.
    fn run(&mut self, meter: &mut OpMetrics) -> Result<(), StoreError> {
        let driver = self.driver.as_ref().expect("run requires a driver scan");
        let len = self.ctx.require_table(&driver.table)?.len();
        let morsel = morsel_size(len, self.workers);
        let total_morsels = len.div_ceil(morsel);
        let claim = Arc::new(AtomicUsize::new(0));
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(usize, Result<WorkerOutput, StoreError>)>();
        let spawned = self.workers.min(total_morsels).max(1);
        // Totals once per run rather than per-claim: workers over-claim a
        // sentinel index past the end, which would inflate a per-claim count.
        self.ctx.obs().add(Counter::WorkersSpawned, spawned as u64);
        self.ctx
            .obs()
            .add(Counter::MorselsClaimed, total_morsels as u64);
        let mut handles = Vec::with_capacity(spawned);
        for _ in 0..spawned {
            let ctx = Arc::clone(&self.ctx);
            let plan = Arc::clone(&self.input);
            let shared = Arc::clone(&self.shared);
            let claim = Arc::clone(&claim);
            let abort = Arc::clone(&abort);
            let gather = self.gather.clone();
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                worker_loop(
                    &ctx, &plan, &shared, &gather, &claim, &abort, &tx, morsel, len,
                )
            }));
        }
        drop(tx);
        let mut outputs: Vec<Option<WorkerOutput>> = (0..total_morsels).map(|_| None).collect();
        let mut first_err: Option<StoreError> = None;
        for (idx, result) in rx {
            match result {
                Ok(output) => outputs[idx] = Some(output),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let mut absorbed = vec![OpMetrics::default(); self.pipeline.node_count()];
        for handle in handles {
            if let Some(worker) = handle.join().expect("exchange worker panicked") {
                OpMetrics::add_all(&mut absorbed, &worker);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let rows = self.assemble(outputs.into_iter().flatten().collect(), meter)?;
        // Threads actually spawned (≤ `workers` when there were fewer
        // morsels than workers): what the executed profile reports.
        meter.morsels += total_morsels as u64;
        meter.workers += spawned as u64;
        match &mut self.absorbed {
            Some(total) => OpMetrics::add_all(total, &absorbed),
            None => self.absorbed = Some(absorbed),
        }
        self.gathered = Some(rows);
        Ok(())
    }

    /// Combine per-morsel worker outputs (already in morsel order) into the
    /// exchange's final output, per the gather mode.
    fn assemble(
        &self,
        outputs: Vec<WorkerOutput>,
        meter: &mut OpMetrics,
    ) -> Result<VecDeque<Row>, StoreError> {
        let mut rows = VecDeque::new();
        match self.gather.clone() {
            GatherMode::MergeAggregate {
                group_by,
                aggregates,
                vectorized,
                ..
            } => {
                // Merging in morsel order reproduces the sequential
                // first-encounter group order exactly.
                let mut agg = GroupedAggregator::new(group_by, aggregates, vectorized);
                for output in outputs {
                    let WorkerOutput::Partial(partial) = output else {
                        unreachable!("aggregate gather always receives partials");
                    };
                    meter.rows_in += partial.group_count() as u64;
                    meter.vector_batches += partial.vector_batches();
                    agg.merge_partial(*partial);
                }
                rows.extend(agg.finish(self.having.as_ref().map(BoundExpr::get))?);
            }
            // Plain rows, sorted runs and bounded runs alike arrive as rows.
            gather => {
                let mut all = Vec::new();
                for output in outputs {
                    let WorkerOutput::Rows(run) = output else {
                        unreachable!("a row gather always receives rows");
                    };
                    meter.rows_in += run.len() as u64;
                    all.extend(run);
                }
                rows.extend(match gather {
                    // Each run is already sorted; a stable sort of their
                    // morsel-order concatenation is exactly the sequential
                    // stable sort (and cheap — it mostly merges runs).
                    GatherMode::MergeSort { keys } => top_k(all, &keys, usize::MAX),
                    // Every row of the global top k is within its own
                    // morsel's top k, so merging the bounded runs loses
                    // nothing.
                    GatherMode::TopK { keys, limit } => top_k(all, &keys, limit),
                    _ => all,
                });
            }
        }
        Ok(rows)
    }

    /// Pass-through path for a non-row gather: the pipeline could not be
    /// partitioned, but the gather still owns the aggregation/sort — run it
    /// over the whole output as a single morsel.
    fn run_fallback_gathered(&mut self, meter: &mut OpMetrics) -> Result<(), StoreError> {
        let inner = &mut self.pipeline;
        let mut all = Vec::new();
        while let Some(batch) = inner.next_batch()? {
            all.push(batch);
        }
        let output = match &self.gather {
            GatherMode::Rows => unreachable!("row gather streams through"),
            GatherMode::MergeAggregate {
                group_by,
                aggregates,
                vectorized,
                ..
            } => {
                let mut agg =
                    GroupedAggregator::new(group_by.clone(), aggregates.clone(), *vectorized);
                for batch in &all {
                    agg.push_batch(batch)?;
                }
                WorkerOutput::Partial(Box::new(agg))
            }
            GatherMode::MergeSort { .. } | GatherMode::TopK { .. } => {
                WorkerOutput::Rows(all.into_iter().flatten().collect())
            }
        };
        let rows = self.assemble(vec![output], meter)?;
        self.gathered = Some(rows);
        Ok(())
    }
}

/// One worker: claim morsels until none remain (or a sibling failed),
/// running a fresh copy of the pipeline over each and shaping the morsel's
/// output per the gather mode — plain rows, a per-morsel partial aggregate,
/// or a sorted (and for top-k, truncated) run. Returns the worker's
/// pipeline counters, summed over its morsels.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ctx: &Arc<ExecContext>,
    plan: &Arc<Plan>,
    shared: &Arc<ExchangeShared>,
    gather: &GatherMode,
    claim: &AtomicUsize,
    abort: &AtomicBool,
    tx: &mpsc::Sender<(usize, Result<WorkerOutput, StoreError>)>,
    morsel: usize,
    len: usize,
) -> Option<Vec<OpMetrics>> {
    let mut counters: Option<Vec<OpMetrics>> = None;
    loop {
        // Fail fast: once any worker hit an error, the run's output is
        // discarded anyway — stop claiming work.
        if abort.load(Ordering::SeqCst) {
            break;
        }
        let m = claim.fetch_add(1, Ordering::SeqCst);
        let start = m * morsel;
        if start >= len {
            break;
        }
        let end = (start + morsel).min(len);
        let cell = Cell::new(0);
        let env = OpenEnv {
            shared: Some(shared),
            next_cell: &cell,
            one_thread: false,
        };
        let result = (|| {
            let mut src = open_in(ctx, plan, &env, Some((start, end)), None, None)?;
            let output = match gather {
                GatherMode::MergeAggregate {
                    group_by,
                    aggregates,
                    vectorized,
                    ..
                } => {
                    // One aggregator per *morsel*, so the gather can merge
                    // partials in morsel order deterministically.
                    let mut agg =
                        GroupedAggregator::new(group_by.clone(), aggregates.clone(), *vectorized);
                    while let Some(batch) = src.next_batch()? {
                        agg.push_batch(&batch)?;
                    }
                    WorkerOutput::Partial(Box::new(agg))
                }
                rows_gather => {
                    let mut rows = Vec::new();
                    while let Some(batch) = src.next_batch()? {
                        rows.extend(batch);
                    }
                    WorkerOutput::Rows(match rows_gather {
                        GatherMode::MergeSort { keys } => top_k(rows, keys, usize::MAX),
                        GatherMode::TopK { keys, limit } => top_k(rows, keys, *limit),
                        _ => rows,
                    })
                }
            };
            let counters =
                counters.get_or_insert_with(|| vec![OpMetrics::default(); src.node_count()]);
            src.absorb_into(counters);
            Ok(output)
        })();
        let failed = result.is_err();
        if failed {
            abort.store(true, Ordering::SeqCst);
        }
        if tx.send((m, result)).is_err() || failed {
            break;
        }
    }
    counters
}

impl Operator for ExchangeSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Vec<Row>>, StoreError> {
        if self.passthrough && matches!(self.gather, GatherMode::Rows) {
            // No partitionable driver: pass through, an ordinary input.
            return meter.pull(&mut self.pipeline);
        }
        if self.gathered.is_none() {
            // The whole parallel section is time this operator spent waiting
            // on its (threaded) children, not doing its own work. Over a
            // pass-through pipeline a non-row gather still aggregates/sorts,
            // treating the whole output as one run.
            meter.wait(|meter| {
                if self.passthrough {
                    self.run_fallback_gathered(meter)
                } else {
                    self.run(meter)
                }
            })?;
        }
        Ok(drain_pending(
            self.gathered.as_mut().expect("gathered above"),
        ))
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        // The workers open their copies of the plan as written, bound anew:
        // a rewind that runs workers carries every statement parameter,
        // since under an apply, whose rewinds carry only its correlation
        // values, an exchange is opened on one thread (`OpenEnv::one_thread`).
        if !self.passthrough {
            self.input = Arc::new(self.written.bound(bindings));
        }
        if let Some(having) = &mut self.having {
            having.rebind(bindings);
        }
        self.pipeline.rewind(bindings);
        self.shared.clear();
        self.gathered = None;
    }

    fn describe(&self) -> Description {
        // A reader puts how many morsels ran in front.
        let detail = match &self.driver {
            Some(driver) => format!("over {driver}"),
            None => "over input".to_string(),
        };
        Description {
            tags: self.gather.tags(),
            // A pass-through exchange (no partitionable driver) ran on one
            // thread; advertising the requested degree would make the
            // narration claim a parallel speedup that never happened. After
            // a run a reader reports the threads actually spawned (fewer
            // than requested when the driver yielded fewer morsels) —
            // before one, the plan's requested degree.
            workers: (!self.passthrough).then_some(self.workers),
            // The workers' pipelines are not operators of this tree: the
            // pipeline's shape, with their counters summed, stands in for
            // them.
            synthetic: (!self.passthrough).then(|| self.pipeline.shape()),
            accumulates: !self.passthrough,
            ..Description::new(OpKind::Exchange, detail)
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        self.passthrough
            .then_some(&*self.pipeline as &dyn RowSource)
            .into_iter()
    }

    fn synthetic_nodes(&self) -> usize {
        if self.passthrough {
            0
        } else {
            self.pipeline.node_count()
        }
    }

    fn absorb_synthetic(&self, synthetic: &mut [OpMetrics]) -> usize {
        match (&self.absorbed, self.passthrough) {
            (_, true) => 0,
            (Some(absorbed), false) => {
                OpMetrics::add_all(synthetic, absorbed);
                absorbed.len()
            }
            // Never run: the pipeline's own counters are all zero.
            (None, false) => self.pipeline.absorb_into(synthetic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::exec::plan::ColumnInfo;
    use crate::exec::stream::open;
    use crate::exec::{execute, execute_with_stats};
    use crate::expr::{CmpOp, Expr};
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn big_db(rows: i64) -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "U",
            vec![
                ColumnDef::new("tid", DataType::Integer),
                ColumnDef::new("w", DataType::Integer),
            ],
        ))
        .unwrap();
        for i in 0..rows {
            db.insert("T", vec![Value::int(i), Value::int(i % 7)])
                .unwrap();
        }
        for i in 0..rows {
            db.insert("U", vec![Value::int(i % (rows / 2).max(1)), Value::int(i)])
                .unwrap();
        }
        db
    }

    #[test]
    fn morsel_size_targets_four_morsels_per_worker() {
        assert_eq!(morsel_size(100_000, 8), 3125);
        // Small inputs never go below the minimum morsel.
        assert_eq!(morsel_size(100, 8), MORSEL_MIN);
        assert_eq!(morsel_size(0, 4), MORSEL_MIN);
    }

    #[test]
    fn join_index_parallel_build_matches_sequential() {
        let rows: Vec<Row> = (0..10_000)
            .map(|i| Row::new(vec![Value::int(i % 97), Value::int(i)]))
            .collect();
        let sequential = JoinIndex::build(rows.clone(), &[0], 1);
        let parallel = JoinIndex::build(rows, &[0], 4);
        assert_eq!(sequential.partitions(), 1);
        assert_eq!(parallel.partitions(), 4);
        assert_eq!(sequential.key_count(), parallel.key_count());
        for k in 0..97i64 {
            let key = [Value::int(k)];
            assert_eq!(
                sequential.lookup(&key[..]),
                parallel.lookup(&key[..]),
                "partitioned lookup diverged for key {k}"
            );
        }
        assert!(sequential.lookup(&[Value::int(997)][..]).is_none());
    }

    #[test]
    fn semi_build_parallel_matches_sequential() {
        let mut rows: Vec<Row> = (0..10_000)
            .map(|i| Row::new(vec![Value::int(i % 211)]))
            .collect();
        rows.push(Row::new(vec![Value::Null]));
        let sequential = SemiBuild::build(rows.clone(), &[0], 1);
        let parallel = SemiBuild::build(rows, &[0], 4);
        assert_eq!(sequential.key_count(), 211);
        assert_eq!(parallel.key_count(), 211);
        assert!(sequential.any_rows && parallel.any_rows);
        assert!(sequential.null_key && parallel.null_key);
        for k in 0..250i64 {
            let key = [Value::int(k)];
            assert_eq!(sequential.contains(&key[..]), parallel.contains(&key[..]));
        }
    }

    #[test]
    fn join_index_drops_null_keys() {
        let rows = vec![
            Row::new(vec![Value::int(1)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::int(1)]),
        ];
        let index = JoinIndex::build(rows, &[0], 1);
        assert_eq!(index.key_count(), 1);
        assert_eq!(
            index.lookup(&[Value::int(1)][..]).map(<[Row]>::len),
            Some(2)
        );
    }

    #[test]
    fn exchange_preserves_scan_order_and_counters() {
        let db = big_db(6000);
        let filter = Expr::col_cmp_value(1, CmpOp::NotEq, Value::int(3));
        let sequential = Plan::scan("T", "t").filter(filter.clone());
        let parallel = Plan::scan("T", "t").filter(filter).exchange(4);
        let (seq_rs, _) = execute_with_stats(&db, &sequential).unwrap();
        let (par_rs, profile) = execute_with_stats(&db, &parallel).unwrap();
        assert_eq!(seq_rs.rows, par_rs.rows, "row order must be identical");
        // The exchange node reports its workers and gathers every row.
        assert_eq!(profile.operator(), "exchange");
        assert_eq!(profile.root().workers(), Some(4));
        assert!(profile.detail().contains("morsels over T as t"));
        // Per-worker counters aggregate to the single-threaded totals.
        let filter_profile = &profile.child(0);
        assert_eq!(filter_profile.operator(), "filter");
        assert_eq!(filter_profile.metrics().rows_in, 6000);
        assert_eq!(filter_profile.metrics().rows_out, seq_rs.rows.len() as u64);
        assert_eq!(
            filter_profile.child(0).metrics().rows_out,
            6000,
            "scan counters must sum across morsels"
        );
    }

    #[test]
    fn exchange_hash_join_builds_once_and_matches_sequential() {
        let db = big_db(6000);
        let join = Plan::hash_join(Plan::scan("T", "t"), Plan::scan("U", "u"), vec![0], vec![0]);
        let sequential = join.clone();
        let parallel = join.clone().exchange(4);
        let (seq_rs, seq_profile) = execute_with_stats(&db, &sequential).unwrap();
        let (par_rs, par_profile) = execute_with_stats(&db, &parallel).unwrap();
        assert_eq!(seq_rs.rows, par_rs.rows);
        // Exactly one build: the join's rows_in (probe + build) matches the
        // sequential run even though four workers probed.
        let join_profile = &par_profile.child(0);
        assert_eq!(join_profile.operator(), "hash join");
        assert_eq!(
            join_profile.metrics().rows_in,
            seq_profile.metrics().rows_in
        );
        // The build-side scan ran exactly once across all workers.
        assert_eq!(join_profile.child(1).metrics().rows_out, 6000);

        // The exchange holds exactly the cells a worker's open of its
        // pipeline indexes: one for the outer join, none for the joins under
        // the build side's nested exchange and apply subplan, which open
        // with counters of their own.
        let build = join.clone().exchange(2).apply(
            join.clone(),
            Vec::new(),
            crate::exec::ApplyMode::Exists { negated: false },
        );
        let pipeline = Plan::hash_join(Plan::scan("T", "t"), build, vec![0], vec![0]);
        let ctx = Arc::new(ExecContext::new(&db));
        let exchange = ExchangeSource::open(&ctx, &pipeline, 4, GatherMode::Rows).unwrap();
        let indexed = Cell::new(0);
        let env = OpenEnv {
            shared: Some(&exchange.shared),
            next_cell: &indexed,
            one_thread: false,
        };
        open_in(&ctx, &pipeline, &env, Some((0, 1024)), None, None).unwrap();
        assert_eq!(indexed.get(), 1);
        assert_eq!(exchange.shared.cells.get().unwrap().len(), indexed.get());
    }

    #[test]
    fn exchange_over_blocking_operators_degrades_to_pass_through() {
        // A hand-built Exchange over a LIMIT must not run the limit once
        // per morsel (6 morsels × 10 rows): the executor refuses to
        // partition through blocking operators regardless of what plan it
        // is handed.
        let db = big_db(6000);
        let plan = Plan::scan("T", "t").limit(10).exchange(4);
        let (rs, profile) = execute_with_stats(&db, &plan).unwrap();
        assert_eq!(rs.len(), 10);
        assert_eq!(
            profile.root().workers(),
            None,
            "pass-through must not claim workers"
        );
        // Aggregate below an exchange: one global group, not one per morsel.
        let agg = Plan::scan("T", "t")
            .aggregate(
                vec![],
                vec![crate::exec::aggregate::AggExpr::count_star("cnt")],
                None,
            )
            .exchange(4);
        let rs = execute(&db, &agg).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0), Some(&Value::int(6000)));
    }

    #[test]
    fn exchange_partitions_index_scans_by_position_range() {
        use crate::index::{IndexBounds, IndexDef, IndexKind};
        let mut db = big_db(6000);
        db.create_index(IndexDef::single("idx_v", "T", "v", IndexKind::Ordered))
            .unwrap();
        let scan = Plan::index_scan(
            "T",
            "t",
            "idx_v",
            IndexBounds::range(Some((Value::int(2), true)), None),
        );
        let sequential = scan.clone();
        let parallel = scan.exchange(4);
        let seq = execute(&db, &sequential).unwrap();
        let (par, profile) = execute_with_stats(&db, &parallel).unwrap();
        assert_eq!(seq.rows, par.rows, "morsel order must equal position order");
        assert_eq!(profile.root().workers(), Some(4));
        // Counters sum to the sequential totals across morsels.
        assert_eq!(profile.child(0).metrics().rows_out as usize, seq.rows.len());

        // A key-ordered index scan refuses to partition: pass-through.
        let keyed = Plan::index_scan(
            "T",
            "t",
            "idx_v",
            IndexBounds::range(Some((Value::int(2), true)), None),
        )
        .with_key_order();
        let (rows_keyed, profile) = execute_with_stats(&db, &keyed.clone()).unwrap();
        let (rows_exch, exch_profile) = execute_with_stats(&db, &keyed.exchange(4)).unwrap();
        assert_eq!(rows_keyed.rows, rows_exch.rows);
        assert_eq!(profile.operator(), "index scan");
        assert_eq!(
            exch_profile.root().workers(),
            None,
            "key-ordered scans must not claim workers"
        );
    }

    #[test]
    fn exchange_without_a_scan_driver_passes_through() {
        let db = Database::new();
        let values = Plan::values(
            vec![ColumnInfo::unqualified("x")],
            (0..5).map(|i| Row::new(vec![Value::int(i)])).collect(),
        );
        let plan = values.exchange(4);
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn exchange_on_empty_table_produces_nothing() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "E",
            vec![ColumnDef::new("id", DataType::Integer)],
        ))
        .unwrap();
        let plan = Plan::scan("E", "e").exchange(4);
        let rs = execute(&db, &plan).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn exchange_propagates_worker_errors() {
        let db = big_db(6000);
        // A predicate that fails at evaluation time: LIKE over an integer
        // column is an eval error, not a three-valued FALSE.
        let plan = Plan::scan("T", "t")
            .filter(Expr::Like {
                expr: Box::new(Expr::Column(0)),
                pattern: "boom%".to_string(),
            })
            .exchange(4);
        let mut src = open(&db, &plan).unwrap();
        let mut saw_err = false;
        loop {
            match src.next_batch() {
                Err(_) => {
                    saw_err = true;
                    break;
                }
                Ok(None) => break,
                Ok(Some(_)) => {}
            }
        }
        assert!(saw_err, "worker evaluation errors must surface");
    }
}
