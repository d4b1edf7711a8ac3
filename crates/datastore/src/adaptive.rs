//! Adaptive planning state: the cardinality-feedback store and the plan
//! cache, with the epoch counter that invalidates both.
//!
//! The paper's thesis is a DBMS that talks back; the misestimate ledger
//! ([`crate::obs`]) already *records* where the optimizer was wrong. This
//! module is the part that *learns*: after each execution the est-vs-actual
//! deltas of flagged filters are folded into a per-database feedback store
//! (a [`FeedbackEntry`] map inside [`AdaptiveState`]) under the key the
//! planner stamped on the filter ([`crate::fingerprint::ShapeKey`]: the
//! table, and the pushed conjunct's literal-normalized shape), and the
//! planner consults those observed selectivities — by making the same key
//! from the same conjunct — before trusting its histograms, so a badly
//! misestimated query plans differently (and explains why) on its next run.
//! A filter without a key is one no plan will ever look up: nothing is
//! learned from it and it moves no epoch.
//!
//! The [`PlanCache`] makes the second run cheaper as well as better: a
//! bounded map from a statement's identity — literal-normalized text,
//! planner options, literal kinds — to a physical [`Plan`] template
//! ([`PlanTemplate`]), whose opened operator tree a hit runs with the
//! statement's literals, or to the verdict that the shape cannot be
//! templated and why ([`Uncacheable`]). Both structures are invalidated by one epoch counter,
//! bumped on DDL, statistics invalidation, and feedback absorption —
//! anything that could make a cached decision stale.
//!
//! A template holds two kinds of parameter ([`crate::expr::Param`]). Its
//! *statement* parameters `?k` stand for the `k`-th literal of the
//! normalized text, wherever the parameterizer lifted it — a column
//! equality or range bound, or a constant compared with an aggregate or a
//! subquery, in the outer block or inside any subquery — and a hit binds
//! them by rewinding the template's kept tree with the statement's literals
//! ([`PlanTemplate::execute`]). Its *outer-row* parameters `$k` are the
//! correlation values of its `Apply` operators and parameterized index
//! probes, left in place by that binding and bound per distinct outer row
//! by the `Apply` that owns them, which rewinds its open subplan with the
//! row's values ([`crate::exec::RowSource::rewind`]) — the same way. So a
//! nested statement is templated like a flat one: probe, rewind, drain.
//!
//! A range bound's estimate reads its value, but only through its class
//! ([`crate::stats::RangeClass`]: the estimate snapped to a geometric
//! grid), so a plan is a function of the classes of a statement's range
//! literals. Such a shape keeps, under its own key, the record of which
//! column and comparison each range parameter bounds with that epoch's
//! statistics ([`CachedVerdict::Classified`], [`RangeParam`]); a probe
//! classifies its literals with it and probes again with the classes in the
//! key ([`CacheKey::classes`]), for the template of that class.
//!
//! The plan cache is one [`ShapeCache`]; `talkback`'s translation cache is
//! the other — sentence templates stamped with the catalog version instead
//! of the epoch, under the same key comparison, LRU and stale-entry rule.

use crate::database::Database;
use crate::error::StoreError;
use crate::exec::keys::KeyHasher;
use crate::exec::plan::Plan;
use crate::exec::{describe_shape, OpShape, OpenPlan, PlanProfile, ResultSet};
use crate::fingerprint::plan_shape_hash;
use crate::obs::{CacheStatus, PlanDecision};
use crate::stats::{RangeClass, TableStats};
use crate::value::{DataType, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default plan-cache capacity (templates and negative verdicts retained).
pub const PLAN_CACHE_CAP: usize = 64;

/// Why the epoch moved. The doctor's `CHECKUP` narrates the last movement
/// ("your schema changed", "writes invalidated my statistics", "I absorbed
/// feedback"), so every bump site declares itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCause {
    /// DDL: a table or index was created or dropped.
    Schema,
    /// A write invalidated table statistics.
    Write,
    /// Absorbed cardinality feedback changed what the planner would decide.
    Feedback,
}

impl EpochCause {
    /// Every cause, in display order.
    pub const ALL: [EpochCause; 3] = [EpochCause::Schema, EpochCause::Write, EpochCause::Feedback];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            EpochCause::Schema => "schema change",
            EpochCause::Write => "write",
            EpochCause::Feedback => "feedback",
        }
    }
}

/// What the engine learned about one `(table, predicate shape)` key: the
/// filter's observed selectivity, and the last est-vs-actual pair for
/// narration ("last time I expected 10 rows here and saw 4,200").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeedbackEntry {
    /// Observed rows-out / rows-in of the flagged filter, clamped to [0, 1].
    pub selectivity: f64,
    /// Estimated rows the last time the filter was flagged.
    pub last_estimated: u64,
    /// Actual rows the last time the filter was flagged.
    pub last_actual: u64,
    /// Times this shape has been absorbed.
    pub observations: u64,
}

/// The kind of an extracted statement literal. The kinds of a statement's
/// literals are part of its plan-cache identity: a plan may be
/// type-dependent even when it is value-independent (a hash index answers
/// `name = 'x'` but not `name = 5`), so `= 5` and `= 'five'` hold two
/// templates, each planned knowing what its `?i` will be bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Integer literal.
    Integer,
    /// Float literal.
    Float,
    /// Quoted string literal.
    Text,
}

impl ParamKind {
    /// The kind of a literal's value; `None` for values the statement
    /// normalizer never extracts (NULL, booleans, dates).
    pub fn of(value: &Value) -> Option<ParamKind> {
        match value {
            Value::Integer(_) => Some(ParamKind::Integer),
            Value::Float(_) => Some(ParamKind::Float),
            Value::Text(_) => Some(ParamKind::Text),
            _ => None,
        }
    }

    /// The column type a literal of this kind has.
    pub fn data_type(self) -> DataType {
        match self {
            ParamKind::Integer => DataType::Integer,
            ParamKind::Float => DataType::Float,
            ParamKind::Text => DataType::Text,
        }
    }
}

/// Why a statement shape cannot be served from a template. The verdict is
/// cached like a template (same key, same epoch, same eviction), so the
/// engine examines a shape once per epoch instead of once per execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uncacheable {
    /// A literal is a `LIKE` pattern.
    LikePattern,
    /// A literal is a member of an `IN (…)` list.
    InList,
    /// A literal sits anywhere else the template pass cannot lift it from:
    /// the projection, arithmetic, `<>` — or where the text scanner and the
    /// parser do not find the same literals in the same order.
    Constant,
    /// The plan-cache template failed to plan, so the statement was planned
    /// afresh; or the translation template did not reproduce the fresh
    /// translation. A plan template that plans is the statement's plan by
    /// construction and needs no comparison.
    ValueDependent,
}

impl Uncacheable {
    /// Every reason, in display order.
    pub const ALL: [Uncacheable; 4] = [
        Uncacheable::LikePattern,
        Uncacheable::InList,
        Uncacheable::Constant,
        Uncacheable::ValueDependent,
    ];

    /// How the system describes statements of this kind, completing
    /// "… statements …, which I plan afresh every time".
    pub fn clause(self) -> &'static str {
        match self {
            Uncacheable::LikePattern => "whose plan depends on a LIKE pattern",
            Uncacheable::InList => "whose plan depends on an IN list",
            Uncacheable::Constant => "with a constant outside a column equality",
            Uncacheable::ValueDependent => "whose plan changes with the value compared",
        }
    }
}

/// Words in [`OptionBits`].
pub const OPTION_WORDS: usize = 2;

/// The planner knobs an entry was planned under, bit for bit and opaque to
/// the cache: the same text planned under different options must not share
/// an entry.
pub type OptionBits = [u64; OPTION_WORDS];

/// What a statement presents to a [`ShapeCache`]. An entry's identity is
/// the normalized text, the option bits, the *kinds* of the literals and
/// the classes of its range literals — all compared in full on every probe,
/// so two texts whose hashes collide can never run each other's plan. The literal values themselves are only
/// carried along: a hit binds them into the template.
#[derive(Debug, Clone, Copy)]
pub struct CacheKey<'a> {
    /// A hash of `text`, eight bytes a step: narrows the probe, decides
    /// nothing.
    pub hash: u64,
    /// The literal-normalized statement text.
    pub text: &'a str,
    /// The planner knobs in force.
    pub options: OptionBits,
    /// The statement's literals, in textual order.
    pub params: &'a [Value],
    /// The class of each range conjunct whose estimate reads a literal, in
    /// the order of the shape's [`CachedVerdict::Classified`] record; empty
    /// when probing for the shape itself.
    pub classes: &'a [RangeClass],
}

impl<'a> CacheKey<'a> {
    /// The key of a normalized statement under the given options.
    pub fn new(text: &'a str, options: OptionBits, params: &'a [Value]) -> CacheKey<'a> {
        let mut hash = KeyHasher::default();
        hash.write(text.as_bytes());
        CacheKey {
            hash: hash.finish(),
            text,
            options,
            params,
            classes: &[],
        }
    }

    /// The kinds of the literals; `None` if one has no kind.
    pub fn kinds(&self) -> Option<Box<[ParamKind]>> {
        self.params.iter().map(ParamKind::of).collect()
    }
}

/// What a cache holds for one key: a template (for the plan cache, a plan
/// with statement-parameter placeholders), the verdict that the
/// shape cannot have one, or — for a shape whose estimates read its range
/// literals — how to tell which class of the shape a statement is.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedVerdict<T> {
    /// A template, shared with whoever is binding it.
    Template(Arc<T>),
    /// A negative entry.
    Uncacheable(Uncacheable),
    /// The shape holds one entry per class of its range literals: classify
    /// a statement's literals with these ([`RangeParam::class`]) and probe
    /// again with the classes in the key.
    Classified(Arc<[RangeParam]>),
}

/// How one range conjunct of a plan-cache template reads its statement
/// parameters: which column it bounds and how, with the table's statistics
/// of the epoch the template was planned in — so a later statement's
/// literals are classified without reading the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeParam {
    /// The statistics of the bounded column's table.
    pub stats: Arc<TableStats>,
    /// The bounded column, as the statistics name it.
    pub column: Box<str>,
    /// The comparison, and which parameters bound it.
    pub op: RangeOp,
}

/// A range comparison of a column with statement parameters (`?k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOp {
    /// `column < ?param`, or `<=` when inclusive.
    Below { param: u32, inclusive: bool },
    /// `column > ?param`, or `>=` when inclusive.
    Above { param: u32, inclusive: bool },
    /// `column [NOT] BETWEEN ?low AND ?high`.
    Between { low: u32, high: u32 },
}

impl RangeParam {
    /// The class of this conjunct for a statement whose literals are
    /// `params`: what its estimate, and so its plan, is a function of.
    pub fn class(&self, params: &[Value]) -> RangeClass {
        let at = |k: u32| params.get(k as usize).and_then(Value::as_f64);
        let Some(column) = self.stats.column(&self.column) else {
            return RangeClass::UNKNOWN;
        };
        let class = match self.op {
            RangeOp::Below { param, inclusive } => at(param).map(|x| column.lt_class(x, inclusive)),
            RangeOp::Above { param, inclusive } => at(param).map(|x| column.gt_class(x, inclusive)),
            RangeOp::Between { low, high } => {
                (at(low).zip(at(high))).map(|(lo, hi)| column.between_class(lo, hi))
            }
        };
        class.unwrap_or(RangeClass::UNKNOWN)
    }
}

/// What one probe of a cache found.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup<T> {
    /// An entry of the current epoch: a template to bind, or the verdict
    /// that says start afresh and examine nothing.
    Found(CachedVerdict<T>),
    /// An entry from another epoch (evicted by this probe).
    Stale,
    /// Nothing under this text, options and kinds.
    Miss,
}

impl CacheLookup<PlanTemplate> {
    /// The journal's word for this outcome.
    pub fn status(&self) -> CacheStatus {
        match self {
            CacheLookup::Found(CachedVerdict::Template(_)) => CacheStatus::Hit,
            CacheLookup::Found(CachedVerdict::Uncacheable(why)) => CacheStatus::Uncacheable(*why),
            // A class not seen yet is planned from scratch.
            CacheLookup::Found(CachedVerdict::Classified(_)) => CacheStatus::Miss,
            CacheLookup::Stale => CacheStatus::Stale,
            CacheLookup::Miss => CacheStatus::Miss,
        }
    }
}

#[derive(Debug)]
struct CacheEntry<T> {
    hash: u64,
    text: Box<str>,
    options: OptionBits,
    kinds: Box<[ParamKind]>,
    classes: Box<[RangeClass]>,
    epoch: u64,
    /// [`CacheInner::clock`] at the last hit or insert.
    used: u64,
    verdict: CachedVerdict<T>,
}

impl<T> CacheEntry<T> {
    fn is(&self, key: &CacheKey) -> bool {
        self.hash == key.hash
            && self.options == key.options
            && *self.text == *key.text
            && *self.classes == *key.classes
            && self.kinds.len() == key.params.len()
            && self
                .kinds
                .iter()
                .zip(key.params)
                .all(|(kind, value)| ParamKind::of(value) == Some(*kind))
    }
}

#[derive(Debug)]
struct CacheInner<T> {
    /// A few dozen entries at most ([`PLAN_CACHE_CAP`]): probed linearly.
    entries: Vec<CacheEntry<T>>,
    /// Counts probes and inserts; recency is the stamp an entry carries.
    clock: u64,
}

/// Bounded LRU map from statement identity ([`CacheKey`]) to a
/// template of type `T` or a negative verdict. Entries of both kinds share
/// the capacity, and an entry made in another epoch is dropped when probed.
/// What an epoch is belongs to the owner: the plan cache passes the
/// adaptive epoch, the translation cache the catalog version.
#[derive(Debug)]
pub struct ShapeCache<T> {
    cap: usize,
    inner: Mutex<CacheInner<T>>,
}

/// The plan cache: physical plan templates.
pub type PlanCache = ShapeCache<PlanTemplate>;

/// A plan template, the decisions that shaped it, and what its
/// executions share: the described shape and its hash, and the operator
/// tree they run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTemplate {
    /// The plan, statement parameters where the literals go.
    pub plan: Plan,
    /// The planner's decisions, what `EXPLAIN` narrates: a quote of SQL
    /// keeps a slot where each parameter stands
    /// ([`PlanDecision::bind`] fills them).
    pub decisions: Vec<PlanDecision>,
    /// How many conditions the statement's flattened `WHERE` clause applies
    /// (what a result explanation counts), the same for every statement of
    /// the shape.
    pub where_conditions: usize,
    /// [`plan_shape_hash`] of the first execution, which reads no counter.
    shape_hash: OnceLock<u64>,
    /// The plan's profile shape, described at the first execution or
    /// `EXPLAIN`: each literal a `?k` slot, filled from the statement's
    /// literals when a profile is read.
    shape: OnceLock<Arc<OpShape>>,
    tree: KeptTree,
}

/// The operator tree a template keeps between its executions, when no
/// execution holds it. A copy of the template keeps none of its own yet,
/// and two templates are equal whatever trees they keep.
#[derive(Default)]
struct KeptTree(Mutex<Option<OpenPlan>>);

impl Clone for KeptTree {
    fn clone(&self) -> KeptTree {
        KeptTree::default()
    }
}

impl PartialEq for KeptTree {
    fn eq(&self, _: &KeptTree) -> bool {
        true
    }
}

impl fmt::Debug for KeptTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeptTree")
    }
}

impl PlanTemplate {
    /// A template of `plan`, shaped by `decisions` and planned from a
    /// statement whose flattened `WHERE` clause applies `where_conditions`
    /// conditions.
    pub fn new(plan: Plan, decisions: Vec<PlanDecision>, where_conditions: usize) -> PlanTemplate {
        PlanTemplate {
            plan,
            decisions,
            where_conditions,
            shape_hash: OnceLock::new(),
            shape: OnceLock::new(),
            tree: KeptTree::default(),
        }
    }

    /// The shape hash of an execution of this template whose profile is
    /// `profile`: the first execution's, which they all share.
    pub fn shape_hash(&self, profile: &PlanProfile) -> u64 {
        *self.shape_hash.get_or_init(|| plan_shape_hash(profile))
    }

    /// The profile shape every execution of the template shares, described
    /// against `db` the first time it is asked for.
    pub fn shape(&self, db: &Database) -> Result<Arc<OpShape>, StoreError> {
        if let Some(shape) = self.shape.get() {
            return Ok(Arc::clone(shape));
        }
        let shape = Arc::new(describe_shape(db, &self.plan)?);
        Ok(Arc::clone(self.shape.get_or_init(|| shape)))
    }

    /// Execute the template for a statement whose literals are `params`, on
    /// the tree the template keeps: taken (or, while another execution holds
    /// it or `db` was written since it was opened, opened afresh), rewound
    /// with the literals, drained, and put back holding no rows. The profile
    /// is the template's shape with this run's counters and the literals.
    pub fn execute(
        &self,
        db: &Database,
        params: Vec<Value>,
    ) -> Result<(ResultSet, PlanProfile), StoreError> {
        let shape = self.shape(db)?;
        let kept = self.tree.0.lock().expect("kept tree lock").take();
        let mut tree = match kept.filter(|tree| tree.reads(db)) {
            Some(tree) => tree,
            None => OpenPlan::open(db, &self.plan)?,
        };
        let ran = tree.run(db, shape, params)?;
        self.tree
            .0
            .lock()
            .expect("kept tree lock")
            .get_or_insert(tree);
        db.adaptive().trees_kept.store(true, Ordering::Release);
        Ok(ran)
    }
}

impl<T: Clone> ShapeCache<T> {
    /// An empty cache retaining at most `cap` entries.
    pub fn new(cap: usize) -> ShapeCache<T> {
        ShapeCache {
            cap: cap.max(1),
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                clock: 0,
            }),
        }
    }

    /// Maximum entries retained, templates and verdicts together.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("shape cache lock").entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probe for `key`. An entry answers only if its text, options and kinds
    /// equal the key's and it was made in `epoch`; an entry from another
    /// epoch is removed on the spot. A template comes back as a shared
    /// handle — the lock is released before anyone binds it.
    pub fn lookup(&self, key: &CacheKey, epoch: u64) -> CacheLookup<T> {
        let mut inner = self.inner.lock().expect("shape cache lock");
        let Some(at) = inner.entries.iter().position(|e| e.is(key)) else {
            return CacheLookup::Miss;
        };
        if inner.entries[at].epoch != epoch {
            inner.entries.swap_remove(at);
            return CacheLookup::Stale;
        }
        inner.clock += 1;
        inner.entries[at].used = inner.clock;
        CacheLookup::Found(inner.entries[at].verdict.clone())
    }

    /// Store the verdict on `key` reached in `epoch`, replacing whatever the
    /// key held and evicting the least recently used entry when full.
    /// Returns the number of evictions (0 or 1). A key whose literals have
    /// no kind is not stored.
    pub fn insert(&self, key: &CacheKey, epoch: u64, verdict: CachedVerdict<T>) -> u64 {
        let Some(kinds) = key.kinds() else {
            return 0;
        };
        let mut inner = self.inner.lock().expect("shape cache lock");
        inner.clock += 1;
        let used = inner.clock;
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.is(key)) {
            (entry.epoch, entry.used, entry.verdict) = (epoch, used, verdict);
            return 0;
        }
        let mut evicted = 0;
        while inner.entries.len() >= self.cap {
            let oldest = (0..inner.entries.len())
                .min_by_key(|&i| inner.entries[i].used)
                .expect("a full cache has entries");
            inner.entries.swap_remove(oldest);
            evicted += 1;
        }
        inner.entries.push(CacheEntry {
            hash: key.hash,
            text: key.text.into(),
            options: key.options,
            kinds,
            classes: key.classes.into(),
            epoch,
            used,
            verdict,
        });
        evicted
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.inner.lock().expect("shape cache lock").entries.clear();
    }
}

/// What the engine has learned, by table and then by conjunct shape — the
/// two halves of a [`crate::fingerprint::ShapeKey`].
pub type FeedbackStore = BTreeMap<String, BTreeMap<String, FeedbackEntry>>;

/// Last epoch movement (`(epoch reached, cause)`) and per-cause counts, for
/// the doctor's narration.
type EpochLog = (Option<(u64, EpochCause)>, [u64; EpochCause::ALL.len()]);

/// Per-database adaptive state: epoch counter, feedback store, plan cache.
/// Shared by clones (like the obs registry) — a clone is a snapshot of the
/// data, not a new engine that must relearn everything.
#[derive(Debug)]
pub struct AdaptiveState {
    epoch: AtomicU64,
    /// Replaced, not edited, when something is learned: a planning pass
    /// holds the store it started with and takes no lock per lookup.
    feedback: Mutex<Arc<FeedbackStore>>,
    cache: PlanCache,
    /// Set when a template keeps a tree, cleared when they are let go of.
    trees_kept: AtomicBool,
    epoch_log: Mutex<EpochLog>,
}

impl Default for AdaptiveState {
    fn default() -> AdaptiveState {
        AdaptiveState::new(PLAN_CACHE_CAP)
    }
}

impl AdaptiveState {
    /// Fresh state with a plan cache retaining `cache_cap` templates.
    pub fn new(cache_cap: usize) -> AdaptiveState {
        AdaptiveState {
            epoch: AtomicU64::new(0),
            feedback: Mutex::new(Arc::default()),
            cache: PlanCache::new(cache_cap),
            trees_kept: AtomicBool::new(false),
            epoch_log: Mutex::new((None, [0; EpochCause::ALL.len()])),
        }
    }

    /// The current schema/stats/feedback epoch. Cached plans are only valid
    /// within the epoch they were planned in.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bump the epoch: something (DDL, a write, absorbed feedback) changed
    /// what the planner would decide, so cached templates are now suspect.
    /// The cause is recorded so `CHECKUP` can say *why* cached plans died.
    pub fn bump_epoch_for(&self, cause: EpochCause) {
        let reached = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let mut log = self.epoch_log.lock().expect("epoch log lock");
        log.0 = Some((reached, cause));
        log.1[cause as usize] += 1;
    }

    /// The last epoch movement, as `(epoch reached, cause)`.
    pub fn last_epoch_change(&self) -> Option<(u64, EpochCause)> {
        self.epoch_log.lock().expect("epoch log lock").0
    }

    /// Epoch bumps by cause, in [`EpochCause::ALL`] order.
    pub fn epoch_cause_counts(&self) -> [u64; EpochCause::ALL.len()] {
        self.epoch_log.lock().expect("epoch log lock").1
    }

    /// The plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Let go of the operator trees the plan cache's templates keep, if any
    /// kept one since the last time: a tree pins the tables it was opened
    /// on, so a write would copy each table it changes.
    pub fn close_trees(&self) {
        if !self.trees_kept.swap(false, Ordering::AcqRel) {
            return;
        }
        for entry in &self.cache.inner.lock().expect("shape cache lock").entries {
            if let CachedVerdict::Template(template) = &entry.verdict {
                template.tree.0.lock().expect("kept tree lock").take();
            }
        }
    }

    /// Everything the engine has learned so far. A planning pass takes this
    /// once and looks its conjuncts up in it; a table that is absent has
    /// nothing to look up.
    pub fn feedback(&self) -> Arc<FeedbackStore> {
        Arc::clone(&self.feedback.lock().expect("feedback lock"))
    }

    /// Fold an executed profile's flagged filter misestimates into the
    /// feedback store, each under the key the planner stamped on the filter
    /// ([`crate::exec::ProfileNode::shape_key`]); a node that carries none
    /// is skipped.
    /// Returns the number of entries absorbed; when any were, the epoch is
    /// bumped so stale cached plans (planned without this knowledge) die.
    pub fn absorb(&self, profile: &PlanProfile, flag_factor: f64) -> usize {
        // The planner's override point is the selectivity of one pushed
        // conjunct, and the in/out rows of its filter measure exactly that.
        let mut flagged = Vec::new();
        profile.walk(&mut |node| {
            if let (Some(key), Some(child)) = (node.shape_key(), node.children().next()) {
                if node.misestimate_with(flag_factor).is_some() {
                    flagged.push((key, child.metrics().rows_out, node));
                }
            }
        });
        // Nothing to learn (the common statement): no lock, no epoch.
        if flagged.is_empty() {
            return 0;
        }
        let mut store = self.feedback.lock().expect("feedback lock");
        let learned = Arc::make_mut(&mut store);
        for &(key, rows_in, node) in &flagged {
            let rows_out = node.metrics().rows_out;
            let shapes = learned.entry(key.table.clone()).or_default();
            let entry = shapes.entry(key.shape.clone()).or_default();
            entry.selectivity = if rows_in == 0 {
                0.0
            } else {
                (rows_out as f64 / rows_in as f64).clamp(0.0, 1.0)
            };
            entry.last_estimated = node.estimated_rows().unwrap_or(0.0).round().max(0.0) as u64;
            entry.last_actual = rows_out;
            entry.observations += 1;
        }
        drop(store);
        self.bump_epoch_for(EpochCause::Feedback);
        flagged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: OptionBits = [0; OPTION_WORDS];

    fn template(table: &str) -> CachedVerdict<PlanTemplate> {
        CachedVerdict::Template(Arc::new(PlanTemplate::new(
            Plan::scan(table, "t"),
            Vec::new(),
            0,
        )))
    }

    fn is_hit(found: &CacheLookup<PlanTemplate>, table: &str) -> bool {
        *found == CacheLookup::Found(template(table))
    }

    #[test]
    fn cache_hits_require_matching_epoch_and_kinds() {
        let state = AdaptiveState::new(4);
        let cache = state.plan_cache();
        let epoch = state.epoch();
        let (five, text) = ([Value::int(5)], [Value::text("five")]);
        let by_int = CacheKey::new("select ?", OPTIONS, &five);
        let by_text = CacheKey::new("select ?", OPTIONS, &text);
        cache.insert(&by_int, epoch, template("INT"));
        // Another value of the same kind hits; another kind is another key.
        let seven = [Value::int(7)];
        let found = cache.lookup(&CacheKey::new("select ?", OPTIONS, &seven), epoch);
        assert!(is_hit(&found, "INT"));
        assert_eq!(cache.lookup(&by_text, epoch), CacheLookup::Miss);
        // The two kinds hold two templates instead of overwriting one another.
        cache.insert(&by_text, epoch, template("TEXT"));
        assert_eq!(cache.len(), 2);
        assert!(is_hit(&cache.lookup(&by_int, epoch), "INT"));
        assert!(is_hit(&cache.lookup(&by_text, epoch), "TEXT"));
        // So do two sets of planner options.
        let other = CacheKey::new("select ?", [1; OPTION_WORDS], &five);
        assert_eq!(cache.lookup(&other, epoch), CacheLookup::Miss);
        // Epoch bump turns an entry stale; the probe removes it.
        state.bump_epoch_for(EpochCause::Schema);
        assert_eq!(cache.lookup(&by_int, state.epoch()), CacheLookup::Stale);
        assert_eq!(cache.lookup(&by_int, state.epoch()), CacheLookup::Miss);
        assert_eq!(cache.len(), 1);
    }

    /// A shape whose estimates read a range literal holds its record under
    /// the shape and one entry per class of the literal: a literal of a
    /// class seen before hits that class's template, and one of another
    /// class misses.
    #[test]
    fn a_classified_shape_holds_one_entry_per_class() {
        use crate::schema::{ColumnDef, TableSchema};
        use crate::table::Table;
        let mut table = Table::new(TableSchema::new(
            "T",
            vec![ColumnDef::new("x", DataType::Integer)],
        ));
        for x in 1..=100 {
            table.insert_values(vec![Value::int(x)]).unwrap();
        }
        let below = RangeParam {
            stats: Arc::new(TableStats::collect(&table)),
            column: "x".into(),
            op: RangeOp::Below {
                param: 0,
                inclusive: true,
            },
        };
        let cache = PlanCache::new(8);
        let text = "select t.x from T t where t.x <= ?";
        let (fifty, fifty_one, ten) = ([Value::int(50)], [Value::int(51)], [Value::int(10)]);
        let class = |params: &[Value]| [below.class(params)];
        assert_eq!(class(&fifty), class(&fifty_one));
        assert_ne!(class(&fifty), class(&ten));
        let shape = CacheKey::new(text, OPTIONS, &fifty);
        let record = CachedVerdict::Classified(Arc::from(vec![below.clone()]));
        cache.insert(&shape, 0, record.clone());
        let classes = class(&fifty);
        cache.insert(
            &CacheKey {
                classes: &classes,
                ..shape
            },
            0,
            template("HALF"),
        );
        assert_eq!(cache.len(), 2);
        // The shape answers with its record, whatever the literal.
        let probe = CacheKey::new(text, OPTIONS, &ten);
        assert_eq!(cache.lookup(&probe, 0), CacheLookup::Found(record));
        let same = class(&fifty_one);
        let probe = CacheKey::new(text, OPTIONS, &fifty_one);
        assert!(is_hit(
            &cache.lookup(
                &CacheKey {
                    classes: &same,
                    ..probe
                },
                0
            ),
            "HALF"
        ));
        let other = class(&ten);
        let probe = CacheKey::new(text, OPTIONS, &ten);
        assert_eq!(
            cache.lookup(
                &CacheKey {
                    classes: &other,
                    ..probe
                },
                0
            ),
            CacheLookup::Miss
        );
    }

    /// Regression: a hit used to be decided by the 64-bit hash alone, so two
    /// statements whose hashes collide ran each other's plan.
    #[test]
    fn colliding_hashes_never_share_an_entry() {
        let cache = PlanCache::new(4);
        let key = |text| CacheKey {
            hash: 42,
            text,
            options: OPTIONS,
            params: &[],
            classes: &[],
        };
        cache.insert(&key("select a"), 0, template("A"));
        assert_eq!(cache.lookup(&key("select b"), 0), CacheLookup::Miss);
        cache.insert(&key("select b"), 0, template("B"));
        assert!(is_hit(&cache.lookup(&key("select a"), 0), "A"));
        assert!(is_hit(&cache.lookup(&key("select b"), 0), "B"));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let key = |text| CacheKey::new(text, OPTIONS, &[]);
        let range = CachedVerdict::Uncacheable(Uncacheable::Constant);
        assert_eq!(cache.insert(&key("one"), 0, template("ONE")), 0);
        assert_eq!(cache.insert(&key("two"), 0, range.clone()), 0);
        // Re-inserting a key replaces its verdict without evicting.
        assert_eq!(cache.insert(&key("two"), 0, range), 0);
        // Touch "one" so the negative entry becomes the LRU victim.
        cache.lookup(&key("one"), 0);
        assert_eq!(cache.insert(&key("three"), 0, template("THREE")), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&key("two"), 0), CacheLookup::Miss);
        assert!(is_hit(&cache.lookup(&key("one"), 0), "ONE"));
        assert!(is_hit(&cache.lookup(&key("three"), 0), "THREE"));
        // A negative entry answers with its reason until the epoch moves.
        cache.insert(
            &key("four"),
            0,
            CachedVerdict::Uncacheable(Uncacheable::LikePattern),
        );
        assert_eq!(
            cache.lookup(&key("four"), 0),
            CacheLookup::Found(CachedVerdict::Uncacheable(Uncacheable::LikePattern))
        );
        assert_eq!(cache.lookup(&key("four"), 1), CacheLookup::Stale);
    }

    /// A hit that finds the kept tree held by another execution opens a tree
    /// of its own, answers as the template bound to its literals does, and
    /// keeps its tree; the holder's tree, put back into a taken slot, is let
    /// go.
    #[test]
    fn a_hit_while_another_execution_holds_the_tree_opens_its_own() {
        use crate::exec::execute_with_stats;
        use crate::expr::{CmpOp, Expr, Param};
        let db = crate::sample::movie_database();
        let year = Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Column(2)),
            right: Box::new(Expr::Param(Param::Stmt(0))),
        };
        let template = PlanTemplate::new(Plan::scan("MOVIES", "m").filter(year), Vec::new(), 1);
        let run = |year: i64| {
            let params = vec![Value::int(year)];
            let fresh = execute_with_stats(&db, &template.plan.bind_params(&params)).unwrap();
            let (rows, profile) = template.execute(&db, params).unwrap();
            assert_eq!(rows, fresh.0, "{year}");
            let counts = |p: &PlanProfile| p.root().metrics().rows_out;
            assert_eq!(counts(&profile), counts(&fresh.1), "{year}");
            assert_eq!(
                profile.root().metrics().batches,
                fresh.1.root().metrics().batches
            );
            rows.len()
        };
        let slot = || template.tree.0.lock().unwrap();
        assert!(run(2004) > 0);
        assert!(slot().is_some(), "the first execution keeps its tree");
        let (held, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let tree = slot().take().expect("a kept tree");
                held.wait();
                done.wait();
                assert!(slot().get_or_insert(tree).reads(&db));
            });
            held.wait();
            assert!(slot().is_none(), "held by the other thread");
            assert!(run(2005) > 0);
            assert!(slot().is_some(), "the hit keeps the tree it opened");
            done.wait();
        });
        // Nothing is kept from run to run but the tree: a year no movie has
        // finds nothing.
        assert_eq!(run(2004), run(2004));
        assert_eq!(run(1850), 0);
    }

    /// Eight threads insert templates and negative verdicts, probe, and bump
    /// the epoch on one small cache. Each template scans a table named after
    /// its own text and kind, so a hit for anyone else's key would show.
    #[test]
    fn concurrent_probes_only_ever_get_their_own_template() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 2_000;
        const TEXTS: [&str; 6] = ["q0", "q1", "q2", "q3", "q4", "q5"];
        let state = AdaptiveState::new(8);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (state, start) = (&state, &start);
                scope.spawn(move || {
                    let cache = state.plan_cache();
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(thread + 1);
                    start.wait();
                    for _ in 0..ROUNDS {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let text = TEXTS[(rng % 6) as usize];
                        let params = match (rng >> 8) % 3 {
                            0 => vec![Value::int(rng as i64)],
                            1 => vec![Value::text("x")],
                            _ => Vec::new(),
                        };
                        let own = format!("{text}/{:?}", params.first().and_then(ParamKind::of));
                        // Every text shares one hash: equality alone decides.
                        let key = CacheKey {
                            hash: 7,
                            text,
                            options: OPTIONS,
                            params: &params,
                            classes: &[],
                        };
                        let epoch = state.epoch();
                        match (rng >> 16) % 8 {
                            0 => state.bump_epoch_for(EpochCause::Write),
                            1 | 2 => {
                                cache.insert(&key, epoch, template(&own));
                            }
                            3 => {
                                let verdict = CachedVerdict::Uncacheable(Uncacheable::InList);
                                cache.insert(&key, epoch, verdict);
                            }
                            _ => {
                                let found = cache.lookup(&key, epoch);
                                let in_list = CachedVerdict::Uncacheable(Uncacheable::InList);
                                assert!(
                                    [
                                        CacheLookup::Found(template(&own)),
                                        CacheLookup::Found(in_list),
                                        CacheLookup::Stale,
                                        CacheLookup::Miss
                                    ]
                                    .contains(&found),
                                    "{own} was answered {found:?}"
                                );
                            }
                        }
                        assert!(cache.len() <= cache.capacity());
                    }
                });
            }
        });
    }
}
