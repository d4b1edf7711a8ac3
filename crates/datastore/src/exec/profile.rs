//! What an operator tree *says about itself*, in two halves: the **shape**
//! ([`OpShape`]: operator kinds, details, tags, index access, columns,
//! estimates — described once per plan) and the **counters** of one
//! execution ([`OpMetrics`], one per node in pre-order). A [`PlanProfile`]
//! is the two together, plus the literals a plan-cache template's shape has
//! slots for; [`ProfileNode`] reads one node of it, and text — a detail with
//! its literals and tallies filled in, the tree rendering — is produced only
//! when a reader asks. [`render_expr`] renders runtime expressions with
//! column positions resolved to names.
//!
//! Nothing here executes anything. [`crate::exec::stream`] describes the
//! shapes and fills the counters (the metering protocol in the
//! [`crate::exec`] module docs); `EXPLAIN [ANALYZE]`, the §3.1 narrations,
//! the journal, the misestimate ledger, cardinality feedback and the doctor
//! read them.

use crate::exec::plan::{ColumnInfo, Columns};
use crate::expr::Expr;
use crate::fingerprint::ShapeKey;
use crate::index::ProbeOrder;
use crate::obs::SqlText;
use crate::value::Value;
use std::borrow::Cow;
use std::fmt;
use std::ops::{AddAssign, SubAssign};
use std::sync::Arc;
use std::time::Duration;

/// Per-operator instrumentation counters: what one execution of one
/// operator did. Everything else a profile node says is its shape's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Rows consumed from child operators (for a scan: rows read from
    /// storage).
    pub rows_in: u64,
    /// Rows produced to the parent.
    pub rows_out: u64,
    /// Output batches produced.
    pub batches: u64,
    /// Wall-clock time spent inside this operator's `next_batch`, inclusive
    /// of children (like `EXPLAIN ANALYZE`'s actual time).
    pub elapsed: Duration,
    /// The part of `elapsed` spent waiting inside child `next_batch` calls
    /// (and on a subplan run on the side). `elapsed - blocked` is the
    /// operator's *own* work, so time attribution blames the operator that
    /// actually burned the cycles.
    pub blocked: Duration,
    /// Input batches this operator evaluated through the typed vector
    /// kernels (zero for row-at-a-time operators); the remainder of its
    /// input batches fell back to per-row evaluation.
    pub vector_batches: u64,
    /// Index probes issued: one per run of an index scan, one per outer row
    /// with a key for the probe side of an index nested-loop join.
    pub probes: u64,
    /// Subplan evaluations: an apply's per binding, 1 once a scalar
    /// subquery has computed its values.
    pub evaluations: u64,
    /// Input rows an apply answered from its memo.
    pub cache_hits: u64,
    /// Memo entries an apply evicted.
    pub evictions: u64,
    /// The groups a keyed scalar subquery looks rows up among.
    pub groups: u64,
}

impl OpMetrics {
    /// Time this operator spent on its own work, excluding time blocked
    /// waiting on children.
    pub fn self_elapsed(&self) -> Duration {
        self.elapsed.saturating_sub(self.blocked)
    }
}

impl AddAssign for OpMetrics {
    /// Add another run's counters to these.
    fn add_assign(&mut self, other: OpMetrics) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.elapsed += other.elapsed;
        self.blocked += other.blocked;
        self.vector_batches += other.vector_batches;
        self.probes += other.probes;
        self.evaluations += other.evaluations;
        self.cache_hits += other.cache_hits;
        self.evictions += other.evictions;
        self.groups += other.groups;
    }
}

impl SubAssign for OpMetrics {
    /// Take away an earlier run's counters: what a kept tree's totals hold
    /// beyond them is what the runs since then counted.
    fn sub_assign(&mut self, earlier: OpMetrics) {
        self.rows_in -= earlier.rows_in;
        self.rows_out -= earlier.rows_out;
        self.batches -= earlier.batches;
        self.elapsed -= earlier.elapsed;
        self.blocked -= earlier.blocked;
        self.vector_batches -= earlier.vector_batches;
        self.probes -= earlier.probes;
        self.evaluations -= earlier.evaluations;
        self.cache_hits -= earlier.cache_hits;
        self.evictions -= earlier.evictions;
        self.groups -= earlier.groups;
    }
}

/// What kind of operator a profile node is: what narrations, ledgers and
/// the doctor dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    Scan,
    IndexScan,
    /// The probe side of an index nested-loop join (not an operator of its
    /// own; shown so narrations see both sides).
    IndexProbe,
    IndexNestedLoopJoin,
    Values,
    Filter,
    Project,
    NestedLoopJoin,
    HashJoin,
    Aggregate,
    Sort,
    Limit,
    Distinct,
    SemiJoin,
    AntiJoin,
    ScalarSubquery,
    Apply,
}

impl OpKind {
    /// The operator's name as plan trees print it ("scan", "hash join", …).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::IndexScan => "index scan",
            OpKind::IndexProbe => "index probe",
            OpKind::IndexNestedLoopJoin => "index nested-loop join",
            OpKind::Values => "values",
            OpKind::Filter => "filter",
            OpKind::Project => "project",
            OpKind::NestedLoopJoin => "nested-loop join",
            OpKind::HashJoin => "hash join",
            OpKind::Aggregate => "aggregate",
            OpKind::Sort => "sort",
            OpKind::Limit => "limit",
            OpKind::Distinct => "distinct",
            OpKind::SemiJoin => "semi join",
            OpKind::AntiJoin => "anti join",
            OpKind::ScalarSubquery => "scalar subquery",
            OpKind::Apply => "apply",
        }
    }

    /// True when the node's detail says what it counted (probes,
    /// evaluations, groups), so it is written from the counters on read.
    fn tallies(self) -> bool {
        matches!(
            self,
            OpKind::IndexProbe | OpKind::ScalarSubquery | OpKind::Apply
        )
    }
}

/// Structured metadata of an index-backed operator ("index scan", and the
/// probe side of an index nested-loop join), carried on the shape so
/// narrations and the §3.1 empty-result detective read fields instead of
/// parsing the rendered detail string back apart.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAccess {
    /// Probed table and its tuple-variable alias.
    pub table: String,
    pub alias: String,
    /// Index name.
    pub index: String,
    /// True for an exact (point) probe that pins every key column, false
    /// for a prefix or range probe.
    pub point: bool,
    /// The probe predicate ("m.id = 5", "c.mid = $0") of an index scan, a
    /// template's with its literal slots ([`ProfileNode::access_predicate`]
    /// fills them); `None` for the per-row probe side of an index
    /// nested-loop join.
    pub predicate: Option<SqlText>,
    /// The order rows come back in; `KeyAsc`/`KeyDesc` mean an elided sort.
    pub order: ProbeOrder,
    /// True when the scan answered from the index keys alone, never
    /// touching heap rows.
    pub index_only: bool,
}

/// The shape of one operator and its subtree: everything a profile node
/// says that does not change from one execution of its plan to the next. A
/// fresh plan's is described when it first runs or is explained; a
/// plan-cache template's once, its literals `?k` slots. It holds no table,
/// snapshot or index, so a journaled statement reads the same after DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct OpShape {
    pub(crate) kind: OpKind,
    /// The detail without what it counted (see [`OpKind::tallies`]).
    pub(crate) detail: SqlText,
    pub(crate) tags: Vec<Cow<'static, str>>,
    pub(crate) access: Option<IndexAccess>,
    pub(crate) columns: Columns,
    pub(crate) estimated_rows: Option<f64>,
    pub(crate) shape_key: Option<Arc<ShapeKey>>,
    /// A subquery operator's correlation columns (none when uncorrelated).
    pub(crate) keys: Option<Vec<String>>,
    /// The last child is a subplan whose counters accumulate every run of
    /// it (an apply's subplan): its nodes' details show no tallies, as
    /// before any run.
    pub(crate) accumulates: bool,
    /// Nodes in this subtree, this one included.
    pub(crate) size: usize,
    pub(crate) children: Vec<OpShape>,
}

impl OpShape {
    /// Nodes in this subtree, this one included: the counters an execution
    /// of it writes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// [`ProfileNode::table`] of a node of this shape.
    pub(crate) fn table(&self) -> Option<&str> {
        match &self.access {
            Some(access) => Some(&access.table),
            None if self.kind == OpKind::Scan => self.detail.as_str().split(' ').next(),
            None => None,
        }
    }
}

/// What a subquery operator did, so narrations need not parse the detail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubqueryTally<'a> {
    /// The input columns an answer depends on (none when uncorrelated).
    pub keys: &'a [String],
    /// Subplan runs, an apply's cache hits, a keyed lookup's groups.
    pub evaluations: u64,
    pub cache_hits: u64,
    pub groups: u64,
}

/// Factor by which an estimate must be off (in either direction) before the
/// tree rendering and the narration flag it.
pub const MISESTIMATE_FACTOR: f64 = 10.0;

/// How far `est` is off from `actual`, as a ≥ 1.0 factor, when it reaches
/// `flag_factor` ([`ProfileNode::misestimate_with`]).
pub(crate) fn misestimate(est: f64, actual: u64, flag_factor: f64) -> Option<f64> {
    let est = est.round().max(1.0);
    let actual = (actual as f64).max(1.0);
    let factor = if est > actual {
        est / actual
    } else {
        actual / est
    };
    (factor >= flag_factor).then_some(factor)
}

/// One execution of a plan, as it profiles itself: the plan's shape, shared
/// with every other execution of it, this execution's counters (one per
/// node, in pre-order), and the literals the shape's slots stand for. Read
/// it through [`PlanProfile::root`] and [`ProfileNode`]; all counters are
/// zero when the plan was only described, not executed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    shape: Arc<OpShape>,
    counters: Vec<OpMetrics>,
    params: Vec<Value>,
}

impl From<&PlanProfile> for PlanProfile {
    fn from(profile: &PlanProfile) -> PlanProfile {
        profile.clone()
    }
}

impl PlanProfile {
    /// A profile of `shape` with `counters` (one per node, in pre-order);
    /// `params` fill the shape's slots.
    pub fn new(shape: Arc<OpShape>, counters: Vec<OpMetrics>, params: Vec<Value>) -> PlanProfile {
        assert_eq!(counters.len(), shape.size, "one counter per shape node");
        PlanProfile {
            shape,
            counters,
            params,
        }
    }

    /// The root operator.
    pub fn root(&self) -> ProfileNode<'_> {
        ProfileNode {
            shape: &self.shape,
            counters: &self.counters,
            params: &self.params,
            live: true,
            scale: 1.0,
        }
    }

    /// The shape every execution of the plan shares.
    pub fn shape(&self) -> &Arc<OpShape> {
        &self.shape
    }

    /// This execution's counters, one per node in pre-order.
    pub fn counters(&self) -> &[OpMetrics] {
        &self.counters
    }

    /// The root's operator name.
    pub fn operator(&self) -> &'static str {
        self.shape.kind.name()
    }

    /// The root's detail ([`ProfileNode::detail`]).
    pub fn detail(&self) -> Cow<'_, str> {
        self.root().detail()
    }

    /// The root's counters.
    pub fn metrics(&self) -> &OpMetrics {
        &self.counters[0]
    }

    /// The root's inputs ([`ProfileNode::children`]).
    pub fn children(&self) -> Children<'_> {
        self.root().children()
    }

    /// The root's `i`th child; panics past the last, like indexing.
    pub fn child(&self, i: usize) -> ProfileNode<'_> {
        self.root().child(i)
    }

    /// Depth-first pre-order walk over every node.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(ProfileNode<'a>)) {
        self.root().walk(f)
    }

    /// Total number of operators in the tree.
    pub fn operator_count(&self) -> usize {
        self.shape.size
    }

    /// [`ProfileNode::worst_misestimate`] of the whole tree.
    pub fn worst_misestimate(&self, flag_factor: f64) -> Option<(ProfileNode<'_>, f64)> {
        self.root().worst_misestimate(flag_factor)
    }

    /// Render the profile as a stable ASCII tree. Every line shows the
    /// planner's estimated rows when available; with `analyze` it also shows
    /// the actual row counts (flagging estimates off by more than
    /// [`MISESTIMATE_FACTOR`]). Timings are deliberately left out of the
    /// tree (they are not stable across runs) and live only in
    /// [`OpMetrics`].
    pub fn render_tree(&self, analyze: bool) -> String {
        self.render_tree_with(analyze, MISESTIMATE_FACTOR)
    }

    /// [`PlanProfile::render_tree`] with an explicit misestimate-flagging
    /// threshold.
    pub fn render_tree_with(&self, analyze: bool, flag_factor: f64) -> String {
        self.root().render_tree_with(analyze, flag_factor)
    }
}

/// One node of a [`PlanProfile`]: its shape, its counters, and the
/// literals its detail's slots stand for. Cheap to copy; every text it
/// gives is written from those on the spot.
#[derive(Clone, Copy)]
pub struct ProfileNode<'a> {
    shape: &'a OpShape,
    /// This subtree's counters, this node's first.
    counters: &'a [OpMetrics],
    params: &'a [Value],
    /// False inside an accumulated subplan ([`OpShape::accumulates`]).
    live: bool,
    /// What estimates are multiplied by: an apply's evaluations, for its
    /// subplan's per-evaluation estimates to compare with totals.
    scale: f64,
}

impl<'a> ProfileNode<'a> {
    /// The operator kind.
    pub fn kind(self) -> OpKind {
        self.shape.kind
    }

    /// The operator name ("scan", "hash join", …).
    pub fn operator(self) -> &'static str {
        self.shape.kind.name()
    }

    /// Operator-specific detail ("MOVIES as m", "m.year > 2000", …), with
    /// its literals and what it counted filled in. Borrowed when there is
    /// nothing to fill in.
    pub fn detail(self) -> Cow<'a, str> {
        if !self.shape.kind.tallies() && !self.shape.detail.has_slots() {
            return Cow::Borrowed(self.shape.detail.as_str());
        }
        let mut text = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_detail(&mut text);
        Cow::Owned(text)
    }

    /// True unless the operator has no detail to show ("distinct").
    pub fn has_detail(self) -> bool {
        !self.shape.detail.as_str().is_empty()
    }

    /// Write [`ProfileNode::detail`] into `out`.
    pub fn write_detail(self, mut out: impl fmt::Write) -> fmt::Result {
        let ran = self.ran();
        self.write_planned_detail(&mut out)?;
        match self.shape.kind {
            OpKind::IndexProbe if ran.rows_in > 0 => {
                let (probes, matches) = (ran.rows_in, ran.rows_out);
                write!(
                    out,
                    " ({probes} probe{}, {matches} match{})",
                    plural(probes, "s"),
                    plural(matches, "es"),
                )
            }
            OpKind::ScalarSubquery if ran.evaluations > 0 && !self.keys().is_empty() => {
                let groups = ran.groups;
                write!(out, "; {groups} group{}", plural(groups, "s"))
            }
            OpKind::Apply if ran.evaluations > 0 => {
                let (evaluations, hits) = (ran.evaluations, ran.cache_hits);
                write!(
                    out,
                    "; {evaluations} evaluation{}, {hits} cache hit{}",
                    plural(evaluations, "s"),
                    plural(hits, "s"),
                )?;
                match ran.evictions {
                    0 => Ok(()),
                    n => write!(out, ", {n} eviction{}", plural(n, "s")),
                }
            }
            _ => Ok(()),
        }
    }

    /// Write the detail as planned into `out`: its literals filled in,
    /// nothing it counted (no probes, evaluations or groups).
    pub fn write_planned_detail(self, out: impl fmt::Write) -> fmt::Result {
        self.shape.detail.fill(self.params, out)
    }

    /// The counters a detail's tallies are read from: this node's, or none
    /// inside an accumulated subplan, whose details read as before a run.
    fn ran(self) -> OpMetrics {
        if self.live {
            self.counters[0]
        } else {
            OpMetrics::default()
        }
    }

    fn keys(self) -> &'a [String] {
        self.shape.keys.as_deref().unwrap_or_default()
    }

    /// Bracketed annotations rendered after the detail — `[vectorized]`,
    /// `[first-row]`.
    pub fn tags(self) -> &'a [Cow<'static, str>] {
        &self.shape.tags
    }

    /// Index access-path metadata, when this operator probes one.
    pub fn access(self) -> Option<&'a IndexAccess> {
        self.shape.access.as_ref()
    }

    /// An index scan's probe predicate with its literals filled in.
    pub fn access_predicate(self) -> Option<Cow<'a, str>> {
        let predicate = self.shape.access.as_ref()?.predicate.as_ref()?;
        Some(if predicate.has_slots() {
            Cow::Owned(predicate.bind(self.params).as_str().to_string())
        } else {
            Cow::Borrowed(predicate.as_str())
        })
    }

    /// Output columns of this operator, shared with the operator that
    /// produced them.
    pub fn columns(self) -> &'a Columns {
        &self.shape.columns
    }

    /// The planner's estimated output rows for this operator, when the plan
    /// carried one.
    pub fn estimated_rows(self) -> Option<f64> {
        self.shape.estimated_rows.map(|est| est * self.scale)
    }

    /// This execution's counters for the node.
    pub fn metrics(self) -> &'a OpMetrics {
        &self.counters[0]
    }

    /// The planner's name for the pushed conjunct a filter was lowered from
    /// ([`crate::exec::PlanNode::Filter`]); what is learned from this node is
    /// filed under it.
    pub fn shape_key(self) -> Option<&'a Arc<ShapeKey>> {
        self.shape.shape_key.as_ref()
    }

    /// What a subquery operator (`apply`, `scalar subquery`) did.
    pub fn subquery(self) -> Option<SubqueryTally<'a>> {
        let keys = self.shape.keys.as_deref()?;
        let ran = self.ran();
        Some(SubqueryTally {
            keys,
            evaluations: ran.evaluations,
            cache_hits: ran.cache_hits,
            groups: ran.groups,
        })
    }

    /// The node's children (inputs of this operator, then the child that
    /// shows more than an input would), in order.
    pub fn children(self) -> Children<'a> {
        Children {
            parent: self,
            next: 0,
            at: 1,
        }
    }

    /// The `i`th child; panics past the last, like indexing.
    pub fn child(self, i: usize) -> ProfileNode<'a> {
        self.children().nth(i).expect("child index in range")
    }

    /// The stored table this operator itself reads — an index access's
    /// table, or a `scan`'s — and `None` for every operator that reads only
    /// its children. The one place a scan's detail (`TABLE` or `TABLE as
    /// alias`) is taken apart again; ledgers and narrators that attribute an
    /// operator to a relation all ask here.
    pub fn table(self) -> Option<&'a str> {
        self.shape.table()
    }

    /// Depth-first pre-order walk over the subtree.
    pub fn walk(self, f: &mut dyn FnMut(ProfileNode<'a>)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// How far the planner's estimate is off from the actual output, as a
    /// ≥ 1.0 factor — `Some` only when the plan carried an estimate and the
    /// factor reaches [`MISESTIMATE_FACTOR`]. Cardinalities are clamped to 1
    /// so "estimated 0, saw 3" compares as 3×, not ∞.
    pub fn misestimate(self) -> Option<f64> {
        self.misestimate_with(MISESTIMATE_FACTOR)
    }

    /// [`ProfileNode::misestimate`] against an explicit flagging threshold —
    /// how `PlannerOptions::misestimate_factor` reaches the renderer.
    pub fn misestimate_with(self, flag_factor: f64) -> Option<f64> {
        misestimate(self.estimated_rows()?, self.metrics().rows_out, flag_factor)
    }

    /// The operator of this subtree whose estimate is furthest off, with its
    /// factor ([`ProfileNode::misestimate_with`]); the first one in
    /// pre-order when several tie. What the journal records and `EXPLAIN
    /// ANALYZE` owns up to.
    pub fn worst_misestimate(self, flag_factor: f64) -> Option<(ProfileNode<'a>, f64)> {
        let mut worst: Option<(ProfileNode<'a>, f64)> = None;
        self.walk(&mut |node| {
            if let Some(factor) = node.misestimate_with(flag_factor) {
                if worst.is_none_or(|(_, f)| factor > f) {
                    worst = Some((node, factor));
                }
            }
        });
        worst
    }

    /// [`PlanProfile::render_tree`] of this subtree.
    pub fn render_tree(self, analyze: bool) -> String {
        self.render_tree_with(analyze, MISESTIMATE_FACTOR)
    }

    /// [`PlanProfile::render_tree_with`] of this subtree.
    pub fn render_tree_with(self, analyze: bool, flag_factor: f64) -> String {
        let mut out = String::new();
        self.render_into(&mut out, &mut String::new(), analyze, flag_factor);
        out
    }

    /// Write this node's line (after the prefix its parent wrote) and then
    /// its children's, each under `indent` and its branch; `indent` grows
    /// by one level for the children and is given back as it came.
    fn render_into(self, out: &mut String, indent: &mut String, analyze: bool, flag_factor: f64) {
        use fmt::Write;
        out.push_str(self.operator());
        // Writing into a `String` cannot fail.
        if self.has_detail() {
            out.push_str(": ");
            let _ = self.write_detail(&mut *out);
        }
        for tag in self.tags() {
            let _ = write!(out, "  [{tag}]");
        }
        let est = self.estimated_rows().map(f64::round);
        let m = self.metrics();
        if analyze {
            out.push_str("  [");
            if let Some(est) = est {
                let _ = write!(out, "est={est:.0} ");
            }
            let _ = write!(
                out,
                "actual={} in={} batches={}]",
                m.rows_out, m.rows_in, m.batches
            );
            if let Some(factor) = self.misestimate_with(flag_factor) {
                let _ = write!(out, "  <-- est off by {factor:.0}x");
            }
        } else if let Some(est) = est {
            let _ = write!(out, "  [est={est:.0}]");
        }
        out.push('\n');
        let n = self.shape.children.len();
        for (i, child) in self.children().enumerate() {
            let (branch, cont) = if i + 1 == n {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            out.push_str(indent);
            out.push_str(branch);
            let len = indent.len();
            indent.push_str(cont);
            child.render_into(out, indent, analyze, flag_factor);
            indent.truncate(len);
        }
    }
}

/// The children of a [`ProfileNode`], in order.
#[derive(Clone)]
pub struct Children<'a> {
    parent: ProfileNode<'a>,
    /// The next child's position among its siblings, and its counters'.
    next: usize,
    at: usize,
}

impl<'a> Iterator for Children<'a> {
    type Item = ProfileNode<'a>;

    fn next(&mut self) -> Option<ProfileNode<'a>> {
        let parent = self.parent;
        let shape = parent.shape.children.get(self.next)?;
        self.next += 1;
        let at = self.at;
        self.at += shape.size;
        let accumulated = parent.shape.accumulates && self.next == parent.shape.children.len();
        // A running apply's subplan estimates are per evaluation; its
        // counters span all of them.
        let evaluations = parent.ran().evaluations;
        let scale = match parent.shape.kind {
            OpKind::Apply if accumulated && evaluations > 1 => parent.scale * evaluations as f64,
            _ => parent.scale,
        };
        Some(ProfileNode {
            shape,
            counters: &parent.counters[at..at + shape.size],
            params: parent.params,
            live: parent.live && !accumulated,
            scale,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.parent.shape.children.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Children<'_> {}

/// How an operator presents itself in its [`OpShape`]: everything except
/// what the metering wrapper in [`crate::exec::stream`] owns (columns,
/// estimate) and its inputs' shapes. Nothing here is counted.
pub(crate) struct Description {
    pub(crate) operator: OpKind,
    pub(crate) detail: String,
    pub(crate) tags: Vec<Cow<'static, str>>,
    pub(crate) access: Option<IndexAccess>,
    pub(crate) shape_key: Option<Arc<ShapeKey>>,
    pub(crate) keys: Option<Vec<String>>,
    /// A child that is not an operator of this tree, listed after the
    /// inputs: an index join's probe leaf, an apply's subplan.
    pub(crate) synthetic: Option<OpShape>,
    /// The synthetic child accumulates every run of a subplan.
    pub(crate) accumulates: bool,
}

impl Description {
    pub(crate) fn new(operator: OpKind, detail: String) -> Description {
        Description {
            operator,
            detail,
            tags: Vec::new(),
            access: None,
            shape_key: None,
            keys: None,
            synthetic: None,
            accumulates: false,
        }
    }

    /// The one place an [`OpShape`] node is put together — for running
    /// operators and synthetic children alike. `inputs` are the shapes of
    /// the operators this one pulls from.
    pub(crate) fn shape(
        self,
        columns: &Columns,
        est: Option<f64>,
        inputs: impl IntoIterator<Item = OpShape>,
    ) -> OpShape {
        // One exact allocation: both halves know their length.
        let children: Vec<OpShape> = inputs.into_iter().chain(self.synthetic).collect();
        OpShape {
            kind: self.operator,
            detail: SqlText::verbatim(self.detail),
            tags: self.tags,
            access: self.access,
            columns: Arc::clone(columns),
            estimated_rows: est,
            shape_key: self.shape_key,
            keys: self.keys,
            accumulates: self.accumulates,
            size: 1 + children.iter().map(OpShape::size).sum::<usize>(),
            children,
        }
    }
}

/// The `[vectorized]` annotation, when `on`.
pub(crate) fn vectorized_tag(on: bool) -> Vec<Cow<'static, str>> {
    Vec::from_iter(on.then_some(Cow::Borrowed("vectorized")))
}

/// The plural suffix a tally of `n` takes in an operator's detail
/// (`1 probe`, `3 probes`).
pub(crate) fn plural(n: u64, suffix: &'static str) -> &'static str {
    if n == 1 {
        ""
    } else {
        suffix
    }
}

/// The display name of column `i` of an operator's input (`alias.name`), or
/// `#i` when a hand-built plan points past the row.
pub(crate) fn column_label(columns: &[ColumnInfo], i: usize) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| match columns.get(i) {
        Some(column) => write!(f, "{column}"),
        None => write!(f, "#{i}"),
    })
}

/// `items`, with `sep` between each two.
pub(crate) fn separated<I>(sep: &'static str, items: I) -> impl fmt::Display
where
    I: IntoIterator<Item: fmt::Display> + Clone,
{
    fmt::from_fn(move |f| {
        for (i, item) in items.clone().into_iter().enumerate() {
            f.write_str(if i > 0 { sep } else { "" })?;
            write!(f, "{item}")?;
        }
        Ok(())
    })
}

/// Render a runtime expression with column positions resolved to names.
pub fn render_expr(expr: &Expr, columns: &[ColumnInfo]) -> String {
    expr_label(expr, columns).to_string()
}

/// [`render_expr`], written wherever it is formatted.
pub(crate) fn expr_label<'a>(expr: &'a Expr, columns: &'a [ColumnInfo]) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| write_expr(f, expr, columns))
}

fn write_expr(f: &mut fmt::Formatter<'_>, expr: &Expr, columns: &[ColumnInfo]) -> fmt::Result {
    let e = |expr| expr_label(expr, columns);
    match expr {
        Expr::Literal(v) => v.write_sql_literal(f),
        Expr::Column(i) => write!(f, "{}", column_label(columns, *i)),
        Expr::Compare { op, left, right } => write!(f, "{} {} {}", e(left), op.sql(), e(right)),
        Expr::And(l, r) => write!(f, "{} AND {}", e(l), e(r)),
        Expr::Or(l, r) => write!(f, "({} OR {})", e(l), e(r)),
        Expr::Not(inner) => write!(f, "NOT ({})", e(inner)),
        Expr::Arith { op, left, right } => write!(f, "{} {} {}", e(left), op.sql(), e(right)),
        Expr::IsNull(inner) => write!(f, "{} IS NULL", e(inner)),
        Expr::Like { expr, pattern } => {
            write!(f, "{} LIKE ", e(expr))?;
            Value::text(pattern.as_str()).write_sql_literal(f)
        }
        Expr::InList { expr, list } => {
            let items = list
                .iter()
                .map(|v| fmt::from_fn(|f| v.write_sql_literal(f)));
            write!(f, "{} IN ({})", e(expr), separated(", ", items))
        }
        Expr::Param(param) => write!(f, "{param}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Param};

    #[test]
    fn render_expr_resolves_column_names() {
        let cols = vec![
            ColumnInfo::qualified("m", "id"),
            ColumnInfo::qualified("m", "year"),
        ];
        let e = Expr::And(
            Box::new(Expr::col_cmp_value(1, CmpOp::Gt, Value::int(2000))),
            Box::new(Expr::col_eq(0, 1)),
        );
        assert_eq!(render_expr(&e, &cols), "m.year > 2000 AND m.id = m.year");
        assert_eq!(render_expr(&Expr::Param(Param::Outer(3)), &cols), "$3");
        // A pattern is quoted the way a text literal is.
        let like = Expr::Like {
            expr: Box::new(Expr::Column(0)),
            pattern: "O'%".to_string(),
        };
        assert_eq!(render_expr(&like, &cols), "m.id LIKE 'O''%'");
    }
}
