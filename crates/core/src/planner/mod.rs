//! Lowering of parsed queries to executable plans.
//!
//! The planner exists so the translation layer can *run* the queries it
//! explains: empty-result explanation (§3.1) needs to know which predicate
//! eliminated all rows, and the accessibility pipeline needs real answers to
//! narrate. It executes the SPJ + aggregation fragment *and* nested queries:
//! subqueries in WHERE and HAVING are decorrelated into semi-/anti-joins
//! where possible and fall back to a memoized per-row `Apply` otherwise, so
//! every paper query (Q1–Q9) runs end to end.
//!
//! Planning is organized so that the optimizer's decisions are first-class,
//! narratable objects:
//!
//! 1. **[`logical`]** decomposes the (subquery-free part of the) WHERE
//!    clause into a join graph over the FROM relations: equi-join edges,
//!    selections pushed onto one relation (a subquery block's comparisons
//!    with the enclosing row included), and residual predicates.
//! 2. **[`cost`]** bridges to `datastore`'s statistics (NDV, histograms,
//!    min/max cached per table) and enumerates a left-deep join order by
//!    dynamic programming over connected subsets (greedy fallback for very
//!    wide joins), with semi-join selectivity hints for relations an
//!    `EXISTS`/`IN` will thin out downstream — recording every choice and
//!    rejected alternative as a [`PlanDecision`].
//! 3. **[`subquery`]** classifies each WHERE/HAVING conjunct containing a
//!    subquery (uncorrelated scalar, `[NOT] IN`, `[NOT] EXISTS`, correlated
//!    comparison, quantified comparison) and picks its execution strategy —
//!    semi-join, anti-join (NULL-aware for `NOT IN`), evaluate-once scalar,
//!    a costed grouped lookup for a correlated aggregate, or the `Apply`
//!    fallback — recording a [`PlanDecision::Subquery`] for each rewrite.
//! 4. **[`physical`]** lowers the chosen order to scan/filter/hash-join
//!    operators and attaches the subquery operators, with the estimated row
//!    count on every plan node so `EXPLAIN ANALYZE` can show estimates next
//!    to actuals.
//! 5. **[`vectorize`]** marks the operators that run on the column kernels,
//!    and the columns pass (`columns.rs`) runs last: each join emits only
//!    the columns read above it.

pub mod access;
mod columns;
pub mod cost;
pub mod logical;
pub mod physical;
pub mod subquery;
pub mod vectorize;

pub use access::INDEX_PROBE_ROW_COST;
pub use cost::{plan_cost, DP_MAX_RELATIONS};
pub use datastore::obs::{
    AccessPathKind, Alternative, GroupedLookup, JoinEnumeration, PlanDecision, SqlText,
    SubqueryStrategy,
};
pub use physical::lower_expr;

use crate::error::TalkbackError;
use datastore::adaptive::{OptionBits, RangeParam};
use datastore::exec::Plan;
use datastore::{Database, Value};
use sqlparse::ast::SelectStatement;
use sqlparse::bind::bind_query;

/// Planner options: how far off an estimate must be to be flagged, and the
/// switches whose "off" side is the naive reference engine the tests and the
/// benchmark's verifier compare every answer against.
#[derive(Debug, Clone, Copy)]
pub struct PlannerOptions {
    /// Decorrelate subqueries into semi-/anti-joins, evaluate-once scalars
    /// and grouped lookups (on by default). With it off, every subquery runs through the
    /// naive per-row `Apply` — the reference the decorrelated plans are
    /// tested against.
    pub decorrelate_subqueries: bool,
    /// Read by nothing: every statement runs on the thread that calls it.
    /// Kept only because the `e2e` benchmark sets it; ROADMAP item 16(g), a
    /// change to the benchmark alone, deletes it.
    pub parallelism: usize,
    /// Consider index access paths — point/range index scans for sargable
    /// pushed predicates, index-nested-loop joins for tiny outer sides —
    /// recording a [`PlanDecision::AccessPath`] either way (on by default).
    /// With it off, every access is a full scan: the reference the
    /// byte-identical-results property tests compare against.
    pub use_indexes: bool,
    /// Factor by which an estimate must be off (in either direction) before
    /// `EXPLAIN ANALYZE` flags it in the tree and the narration owns up to
    /// it. Defaults to [`datastore::exec::MISESTIMATE_FACTOR`] (10×).
    pub misestimate_factor: f64,
    /// Hand eligible filters, aggregates, and hash-join probes to the
    /// columnar batch kernels (on by default), recording a
    /// [`PlanDecision::Vectorize`] either way. With it off, every operator
    /// runs row-at-a-time: the reference the byte-identical-results
    /// property tests compare against.
    pub use_vectorized: bool,
    /// Consult the cardinality-feedback store before histogram estimation
    /// (on by default): a predicate shape whose last execution misestimated
    /// by ≥ `misestimate_factor` plans with its *observed* selectivity
    /// instead, recording a [`PlanDecision::Feedback`]. Off restores purely
    /// statistical estimates.
    pub use_feedback: bool,
    /// Cache literal-normalized physical plans per database (on by default):
    /// repeated statements that differ only in the literals a template can
    /// hold — equalities, and constants compared with an aggregate or a
    /// subquery, subqueries included — skip lexing, parsing, and planning
    /// entirely, re-binding the new literals into the cached template.
    /// Invalidated by DDL, stats refresh, and feedback absorption through
    /// the database's adaptive epoch.
    pub use_plan_cache: bool,
}

impl Default for PlannerOptions {
    fn default() -> PlannerOptions {
        PlannerOptions {
            decorrelate_subqueries: true,
            parallelism: 1,
            use_indexes: true,
            misestimate_factor: datastore::exec::MISESTIMATE_FACTOR,
            use_vectorized: true,
            use_feedback: true,
            use_plan_cache: true,
        }
    }
}

impl PlannerOptions {
    /// Every option that can change the chosen plan, bit for bit: the part
    /// of a plan-cache entry's identity that says which planner planned it.
    /// The destructuring names every field, so a new one does not compile
    /// until it is placed here.
    pub(crate) fn cache_bits(&self) -> OptionBits {
        let PlannerOptions {
            decorrelate_subqueries,
            // Read by nothing (see the field).
            parallelism: _,
            use_indexes,
            misestimate_factor,
            use_vectorized,
            use_feedback,
            // Says whether the cache is consulted at all, not which plan a
            // consulted cache holds.
            use_plan_cache: _,
        } = *self;
        [
            u64::from(decorrelate_subqueries)
                | u64::from(use_indexes) << 1
                | u64::from(use_vectorized) << 2
                | u64::from(use_feedback) << 3,
            misestimate_factor.to_bits(),
        ]
    }
}

/// A lowered query: the physical plan, the optimizer decisions that shaped
/// it, and how many conditions its flattened `WHERE` clause applies.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub plan: Plan,
    /// The decisions the optimizer took (empty when there was nothing to
    /// decide).
    pub decisions: Vec<PlanDecision>,
    /// The conjuncts of the `WHERE` clause the plan was built from.
    pub where_conditions: usize,
}

/// Plan a query against a database with default options. Nested queries are
/// planned as written, through the subquery subsystem — semi-/anti-join
/// decorrelation with an `Apply` fallback — so `x IN (select …)` keeps each
/// outer row once, however many inner rows match it.
pub fn plan_query(db: &Database, query: &SelectStatement) -> Result<PlannedQuery, TalkbackError> {
    plan_query_with(db, query, PlannerOptions::default())
}

/// Plan a query with explicit planner options.
pub fn plan_query_with(
    db: &Database,
    query: &SelectStatement,
    options: PlannerOptions,
) -> Result<PlannedQuery, TalkbackError> {
    plan_query_impl(db, query, options, true, Vec::new(), &[]).map(|(planned, _)| planned)
}

/// Plan a plan-cache template: a statement whose liftable literals are
/// `?k` placeholders, `?k` standing for `params[k]`. Returns the plan and
/// the range conjuncts whose estimates read a parameter, the record a later
/// statement of the shape is classified by. The choices are recorded as
/// [`plan_query_with`] records them: on a plan-cache miss the template is
/// the statement's plan.
///
/// Bound to `params`, the template is the plan [`plan_query_with`] makes of
/// the statement with its literals, node for node and decision for
/// decision, because the planner reads a `?k` in these places only, and
/// each answers from the kind or the range class of `params[k]` alone:
///
/// * the access path's equality type, [`access`]'s `as_sarg`, and the
///   vectorizer's verdict on `column = ?k`, through
///   [`cost::Estimator::param_type`] (the literal's kind);
/// * a range estimate, through `Estimator::bound` and `read_range`: the
///   value is read only to be snapped to its [`datastore::stats::RangeClass`],
///   and the read is recorded for the class record;
/// * lowering ([`physical`]), which turns `?k` into the statement parameter
///   `Param::Stmt(k)` without reading it;
/// * a decision that quotes SQL, whose `?k` is a slot the literal fills
///   ([`SqlText`]).
///
/// An equality's estimate (1/NDV) and a feedback shape (`?`) read no
/// literal at all. The plan-cache differential in `tests/tests/adaptive.rs`
/// is the oracle that holds the list complete: at every step it plans each
/// statement both ways and demands the two agree.
pub fn plan_template(
    db: &Database,
    query: &SelectStatement,
    options: PlannerOptions,
    params: &[Value],
) -> Result<(PlannedQuery, Vec<RangeParam>), TalkbackError> {
    plan_query_impl(db, query, options, true, Vec::new(), params)
}

/// What-if planning for the advisor: plan silently with metadata-only
/// `hypothetical` indexes competing in access-path selection. The resulting
/// plan is for *costing only* — a chosen hypothetical index has no entries,
/// so executing the plan would return nothing.
pub(crate) fn plan_query_what_if(
    db: &Database,
    query: &SelectStatement,
    options: PlannerOptions,
    hypothetical: Vec<datastore::Index>,
) -> Result<PlannedQuery, TalkbackError> {
    plan_query_impl(db, query, options, false, hypothetical, &[]).map(|(planned, _)| planned)
}

fn plan_query_impl(
    db: &Database,
    query: &SelectStatement,
    options: PlannerOptions,
    record: bool,
    hypothetical: Vec<datastore::Index>,
    params: &[Value],
) -> Result<(PlannedQuery, Vec<RangeParam>), TalkbackError> {
    let what_if = !hypothetical.is_empty();
    let bound = bind_query(db.catalog(), query)?;
    if bound.tables.is_empty() {
        return Err(TalkbackError::Unsupported(
            "queries without a FROM clause".into(),
        ));
    }
    // Subquery conjuncts are stripped before the join graph is built; the
    // subquery pass attaches them as dedicated operators during lowering.
    let (stripped, where_subs, having_subs) = subquery::split_subqueries(query);
    let graph = logical::build_join_graph(db, &stripped, &bound);
    let mut estimator = if options.use_feedback {
        cost::Estimator::with_feedback(db)
    } else {
        cost::Estimator::new(db)
    };
    estimator.add_hypothetical(hypothetical);
    estimator.set_params(params);
    let estimator = estimator;
    // Relations a decorrelatable EXISTS/IN will thin out downstream enter
    // the enumeration at their semi-join-reduced cardinality.
    let hints = subquery::semi_join_hints(db, &estimator, &graph, &bound, &where_subs);
    let (order, mut decisions) = cost::choose_join_order(&graph, &estimator, &hints);
    // A template's statement has its literals as parameters; the decisions'
    // quotes of SQL keep their slots.
    let template = estimator.is_template();
    let subctx = subquery::SubqueryContext::new(db, options, template);
    let scopes = subquery::ScopeChain::root(&subctx);
    let (mut plan, _columns) = physical::lower_select(
        db,
        &stripped,
        &bound,
        &graph,
        &order,
        &estimator,
        &scopes,
        &where_subs,
        &having_subs,
        true,
    )?;
    decisions.extend(subctx.take_decisions());
    if options.use_vectorized {
        vectorize::vectorize_plan(db, &mut plan, &estimator, &mut decisions);
    }
    // Last, over the plan as it will run: each join emits only the columns
    // read above it. A what-if plan is only costed.
    if !what_if {
        columns::narrow_joins(db, &mut plan);
    }
    // Feedback overrides precede every other choice temporally — they
    // changed the estimates the enumeration ran on — so they lead the
    // decision list; each is also counted and marked on the misestimate
    // ledger so `SHOW MISESTIMATES` can report the correction.
    let overrides = estimator.take_feedback_decisions();
    if record {
        for decision in &overrides {
            if let PlanDecision::Feedback { table, shape, .. } = decision {
                db.obs().mark_corrected(table, shape);
                db.obs()
                    .incr(datastore::obs::Counter::FeedbackOverridesApplied);
            }
        }
    }
    decisions.splice(0..0, overrides);
    // Count every recorded choice by kind, so SHOW METRICS can report how
    // often the optimizer reordered, decorrelated, vectorized, ….
    if record {
        for decision in &decisions {
            db.obs().record_decision(decision.kind());
        }
    }
    let planned = PlannedQuery {
        plan,
        decisions,
        where_conditions: query.where_conjuncts().len(),
    };
    Ok((planned, estimator.take_ranges()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::exec::{execute, PlanNode};
    use datastore::sample::{employee_database, movie_database};
    use datastore::Value;
    use sqlparse::parse_query;

    fn run(db: &Database, sql: &str) -> datastore::exec::ResultSet {
        let q = parse_query(sql).unwrap();
        let planned = plan_query(db, &q).unwrap();
        execute(db, &planned.plan).unwrap()
    }

    /// Count plan operators of each kind (hash joins, nested-loop joins,
    /// filters) to assert plan shape.
    fn count_ops(plan: &Plan) -> (usize, usize, usize) {
        let mut acc = (0, 0, 0);
        for name in operator_names(plan) {
            match name {
                "hash join" => acc.0 += 1,
                "nested-loop join" => acc.1 += 1,
                "filter" => acc.2 += 1,
                _ => {}
            }
        }
        acc
    }

    /// The operator names of every node in the plan tree (pre-order,
    /// subplans included).
    fn operator_names(plan: &Plan) -> Vec<&'static str> {
        let mut out = Vec::new();
        plan.walk(&mut |p| out.push(p.operator_name()));
        out
    }

    /// The table names of the plan's scans, left-deep order (an index
    /// nested-loop join's probed table after its outer side).
    fn scan_order(plan: &Plan) -> Vec<String> {
        let mut out: Vec<String> = plan.children().flat_map(|(_, c)| scan_order(c)).collect();
        if let PlanNode::Scan { table, .. }
        | PlanNode::IndexScan { table, .. }
        | PlanNode::IndexNestedLoopJoin { table, .. } = &plan.node
        {
            out.push(table.clone());
        }
        out
    }

    #[test]
    fn a_parenthesized_and_plans_as_the_flat_chain() {
        let db = movie_database();
        let plan = |sql: &str| plan_query(&db, &parse_query(sql).unwrap()).unwrap().plan;
        for (grouped, flat) in [
            (
                "select m.title from MOVIES m where m.year > 1990 and (m.id < 50 and m.title <> 'x')",
                "select m.title from MOVIES m where m.year > 1990 and m.id < 50 and m.title <> 'x'",
            ),
            (
                "select m.year, count(*) from MOVIES m group by m.year \
                 having count(*) > 0 and (min(m.id) > 0 and max(m.id) < 99)",
                "select m.year, count(*) from MOVIES m group by m.year \
                 having count(*) > 0 and min(m.id) > 0 and max(m.id) < 99",
            ),
        ] {
            assert_eq!(plan(grouped), plan(flat), "{grouped}");
        }
    }

    #[test]
    fn q1_plans_hash_joins_not_cross_products() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let (hash, nested, filters) = count_ops(&planned.plan);
        let names = operator_names(&planned.plan);
        // ACTOR⋈CAST stays a hash join (CAST's join column has no index);
        // the final tiny-outer join into MOVIES probes its PK index instead
        // of building a hash table.
        assert_eq!(hash, 1, "the unindexed equi-join lowers to a hash join");
        assert!(
            names.contains(&"index nested-loop join"),
            "the MOVIES join should probe pk_movies: {names:?}"
        );
        assert_eq!(nested, 0, "no cross products left in the plan");
        // The selection on a.name is pushed below the joins onto the scan.
        assert_eq!(filters, 1);
        // With indexes off, both equi-joins lower to hash joins as before.
        let baseline = plan_query_with(
            &db,
            &q,
            PlannerOptions {
                use_indexes: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        let (hash, nested, _) = count_ops(&baseline.plan);
        assert_eq!(hash, 2);
        assert_eq!(nested, 0);
    }

    #[test]
    fn q1_starts_from_the_filtered_relation() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        // The filter on a.name makes ACTOR the smallest estimated relation;
        // the optimizer starts there instead of the written MOVIES-first
        // order.
        assert_eq!(scan_order(&planned.plan)[0], "ACTOR");
        assert!(matches!(
            planned.decisions.first(),
            Some(PlanDecision::Start { table, .. }) if table == "ACTOR"
        ));
        // The comparison against the written order is recorded, and the
        // chosen order is no more expensive. (Access-path decisions follow
        // the join-order block, so search rather than index from the end.)
        let comparison = planned
            .decisions
            .iter()
            .find(|d| matches!(d, PlanDecision::OrderComparison { .. }));
        match comparison {
            Some(PlanDecision::OrderComparison {
                chosen_cost,
                written_cost,
                chosen,
                written,
                ..
            }) => {
                assert!(chosen_cost <= written_cost);
                assert_ne!(chosen, written);
            }
            other => panic!("expected OrderComparison, got {other:?}"),
        }
    }

    #[test]
    fn join_order_is_independent_of_from_order() {
        let db = movie_database();
        let orders = [
            "MOVIES m, CAST c, ACTOR a",
            "ACTOR a, CAST c, MOVIES m",
            "CAST c, ACTOR a, MOVIES m",
        ];
        let mut plans: Vec<Vec<String>> = Vec::new();
        for from in orders {
            let q = parse_query(&format!(
                "select m.title from {from} \
                 where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'"
            ))
            .unwrap();
            let planned = plan_query(&db, &q).unwrap();
            plans.push(scan_order(&planned.plan));
            assert_eq!(execute(&db, &planned.plan).unwrap().len(), 2);
        }
        assert_eq!(
            plans[0], plans[1],
            "same join tree regardless of FROM order"
        );
        assert_eq!(plans[0], plans[2]);
    }

    #[test]
    fn every_plan_affecting_option_changes_the_cache_bits() {
        let base = PlannerOptions::default();
        let flipped = [
            PlannerOptions {
                decorrelate_subqueries: !base.decorrelate_subqueries,
                ..base
            },
            PlannerOptions {
                use_indexes: !base.use_indexes,
                ..base
            },
            PlannerOptions {
                misestimate_factor: base.misestimate_factor + 1.0,
                ..base
            },
            PlannerOptions {
                use_vectorized: !base.use_vectorized,
                ..base
            },
            PlannerOptions {
                use_feedback: !base.use_feedback,
                ..base
            },
        ];
        // Each differs from the default and from every other: no two options
        // share a bit, so no two planners share a cache entry.
        let mut seen = vec![base.cache_bits()];
        for options in flipped {
            let bits = options.cache_bits();
            assert!(!seen.contains(&bits), "aliased cache bits for {options:?}");
            seen.push(bits);
        }
        // Neither says which plan a consulted cache holds: the facade's
        // defaults and a caller that sets `parallelism` share a template.
        for other in [
            PlannerOptions {
                use_plan_cache: false,
                ..base
            },
            PlannerOptions {
                parallelism: 4,
                ..base
            },
        ] {
            assert_eq!(other.cache_bits(), base.cache_bits());
        }
    }

    #[test]
    fn every_operator_carries_an_estimate() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        planned.plan.walk(&mut |p| {
            assert!(
                p.estimated_rows.is_some(),
                "operator {} missing an estimate",
                p.operator_name()
            )
        });
    }

    #[test]
    fn chosen_order_is_never_estimated_worse_than_written() {
        // The greedy enumerator falls back to the written order whenever its
        // own pick costs more, so the recorded comparison always satisfies
        // chosen_cost <= written_cost — the narration's "at least as cheap"
        // claim is an invariant, not a hope.
        let db = movie_database();
        let queries = [
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
            "select m.title from MOVIES m, ACTOR a, CAST c \
             where m.id = c.mid and c.aid = a.id",
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
               and a1.id > a2.id",
            "select m.title, d.name from MOVIES m, DIRECTOR d where m.year > 2000",
        ];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let planned = plan_query_with(&db, &q, PlannerOptions::default()).unwrap();
            let comparison = planned
                .decisions
                .iter()
                .find(|d| matches!(d, PlanDecision::OrderComparison { .. }));
            match comparison {
                Some(PlanDecision::OrderComparison {
                    chosen_cost,
                    written_cost,
                    ..
                }) => assert!(
                    chosen_cost <= written_cost,
                    "chosen order costlier than written for {sql}: {chosen_cost} > {written_cost}"
                ),
                other => panic!("expected OrderComparison for {sql}, got {other:?}"),
            }
        }
    }

    #[test]
    fn dp_order_is_never_estimated_worse_than_greedy() {
        // The DP searches a space that contains every greedy walk, so on the
        // same graph and estimates its chosen order can never cost more than
        // the greedy pick — checked head-to-head on the multi-relation join
        // graphs of the paper's queries.
        let db = movie_database();
        let queries = [
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
            "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, \
             GENRE g where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
             and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
             and a1.id > a2.id",
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title",
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id group by a.id, a.name",
            "select m1.year from MOVIES m1, MOVIES m2 \
             where m1.title = m2.title and m1.id <> m2.id",
        ];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let bound = sqlparse::bind_query(db.catalog(), &q).unwrap();
            let graph = logical::build_join_graph(&db, &q, &bound);
            assert!(graph.relations.len() > 1, "graph degenerate for {sql}");
            let estimator = cost::Estimator::new(&db);
            let (dp, _) = cost::choose_join_order(&graph, &estimator, &[]);
            let filtered: Vec<f64> = graph
                .relations
                .iter()
                .map(|r| estimator.relation_rows(r))
                .collect();
            let greedy = cost::simulate_order(
                &graph,
                &estimator,
                &filtered,
                &cost::greedy_join_order(&graph, &estimator, &filtered),
            );
            assert!(
                dp.cost() <= greedy.cost(),
                "DP lost to greedy for {sql}: {} > {}",
                dp.cost(),
                greedy.cost()
            );
        }
    }

    #[test]
    fn point_predicate_on_the_pk_becomes_an_index_scan() {
        let db = movie_database();
        let q = parse_query("select m.title from MOVIES m where m.id = 4").unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let names = operator_names(&planned.plan);
        assert!(names.contains(&"index scan"), "plan: {names:?}");
        assert!(
            !names.contains(&"filter"),
            "the probed conjunct must leave the filter chain: {names:?}"
        );
        assert!(planned.decisions.iter().any(|d| matches!(
            d,
            PlanDecision::AccessPath {
                index,
                kind: crate::planner::AccessPathKind::Point,
                chosen: true,
                ..
            } if index == "pk_movies"
        )));
        let rs = execute(&db, &planned.plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "Star Quest");
        // A/B: the same query with indexes off answers identically.
        let baseline = plan_query_with(
            &db,
            &q,
            PlannerOptions {
                use_indexes: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        assert!(operator_names(&baseline.plan).contains(&"filter"));
        assert_eq!(execute(&db, &baseline.plan).unwrap().rows, rs.rows);
    }

    #[test]
    fn unselective_predicate_rejects_the_index_with_a_recorded_decision() {
        let db = movie_database();
        // m.id >= 0 keeps every row: the index exists but loses the costing.
        let q = parse_query("select m.title from MOVIES m where m.id >= 0").unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let names = operator_names(&planned.plan);
        assert!(names.contains(&"scan"), "full scan kept: {names:?}");
        assert!(!names.contains(&"index scan"));
        match planned
            .decisions
            .iter()
            .find(|d| matches!(d, PlanDecision::AccessPath { .. }))
        {
            Some(PlanDecision::AccessPath {
                index,
                kind,
                chosen,
                estimated_rows,
                table_rows,
                ..
            }) => {
                assert_eq!(index, "pk_movies");
                assert_eq!(*kind, crate::planner::AccessPathKind::Range);
                assert!(!chosen, "the unselective probe must be rejected");
                assert_eq!(*table_rows, 10.0);
                assert!(*estimated_rows > 2.5, "rejection implies est × 4 > rows");
            }
            other => panic!("expected a rejected AccessPath, got {other:?}"),
        }
        assert_eq!(execute(&db, &planned.plan).unwrap().len(), 10);
    }

    #[test]
    fn large_outer_side_rejects_the_index_nested_loop_join() {
        let db = movie_database();
        // Unfiltered Q1 shape: the outer ACTOR⋈CAST side is an estimated 12
        // rows, so 12 index probes into MOVIES cost more than one 10-row
        // hash build — the hash join wins, with the rejection on the record.
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let names = operator_names(&planned.plan);
        assert!(names.contains(&"hash join"));
        assert!(!names.contains(&"index nested-loop join"));
        assert!(planned.decisions.iter().any(|d| matches!(
            d,
            PlanDecision::AccessPath {
                table,
                kind: crate::planner::AccessPathKind::NestedLoopProbe,
                chosen: false,
                ..
            } if table == "MOVIES"
        )));
        assert_eq!(execute(&db, &planned.plan).unwrap().len(), 12);
    }

    #[test]
    fn order_by_on_an_index_range_scan_elides_the_sort() {
        use datastore::{IndexDef, IndexKind};
        let mut db = movie_database();
        db.create_index(IndexDef::single(
            "idx_year",
            "MOVIES",
            "year",
            IndexKind::Ordered,
        ))
        .unwrap();
        let q = parse_query(
            "select m.title, m.year from MOVIES m where m.year >= 2005 order by m.year",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let names = operator_names(&planned.plan);
        assert!(names.contains(&"index scan"), "plan: {names:?}");
        assert!(
            !names.contains(&"sort"),
            "the key-ordered range scan makes the sort redundant: {names:?}"
        );
        assert!(planned
            .decisions
            .iter()
            .any(|d| matches!(d, PlanDecision::SortElided { index, .. } if index == "idx_year")));
        let rs = execute(&db, &planned.plan).unwrap();
        // Byte-identical to the sorted full-scan baseline.
        let baseline = plan_query_with(
            &db,
            &q,
            PlannerOptions {
                use_indexes: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        assert!(operator_names(&baseline.plan).contains(&"sort"));
        assert_eq!(rs.rows, execute(&db, &baseline.plan).unwrap().rows);
        assert_eq!(rs.rows[0].get(1).unwrap().to_string(), "2005");
        // A descending order elides too: the scan walks the index backwards,
        // and ties still come back in row-position order like the stable
        // sort would leave them.
        let desc = parse_query(
            "select m.title, m.year from MOVIES m where m.year >= 2005 order by m.year desc",
        )
        .unwrap();
        let planned = plan_query(&db, &desc).unwrap();
        assert!(!operator_names(&planned.plan).contains(&"sort"));
        assert!(planned.decisions.iter().any(|d| matches!(
            d,
            PlanDecision::SortElided {
                index,
                ascending: false,
                ..
            } if index == "idx_year"
        )));
        let rs = execute(&db, &planned.plan).unwrap();
        let baseline = plan_query_with(
            &db,
            &desc,
            PlannerOptions {
                use_indexes: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
        assert!(operator_names(&baseline.plan).contains(&"sort"));
        assert_eq!(rs.rows, execute(&db, &baseline.plan).unwrap().rows);
    }

    #[test]
    fn index_scans_apply_inside_subquery_blocks() {
        let db = movie_database();
        // The semi-join build side has its own sargable point predicate on
        // GENRE? GENRE has no single-column PK; use MOVIES inside the
        // subquery instead.
        let q = parse_query(
            "select c.aid from CAST c where c.mid in \
             (select m.id from MOVIES m where m.id = 6)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"index scan"));
        let rs = execute(&db, &planned.plan).unwrap();
        assert_eq!(rs.len(), 2, "Troy has two casting credits");
    }

    #[test]
    fn case_twisted_self_equality_predicate_is_not_dropped() {
        let db = movie_database();
        // No movie has year == id, so the answer is empty; the predicate
        // must be applied even though its qualifiers differ only in case.
        let rs = run(&db, "select m.title from MOVIES m where m.year = M.id");
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn q4_cyclic_predicates_become_multi_key_hash_join() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let mut hash_keys = Vec::new();
        planned.plan.walk(&mut |p| {
            if let PlanNode::HashJoin { left_keys, .. } = &p.node {
                hash_keys.push(left_keys.len());
            }
        });
        assert_eq!(hash_keys, [2]);
    }

    #[test]
    fn disconnected_tables_fall_back_to_cross_product() {
        let db = movie_database();
        let q = parse_query("select m.title, d.name from MOVIES m, DIRECTOR d where m.year > 2000")
            .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let (hash, nested, _) = count_ops(&planned.plan);
        assert_eq!(hash, 0);
        assert_eq!(nested, 1);
        let rs = execute(&db, &planned.plan).unwrap();
        assert!(!rs.is_empty());
    }

    #[test]
    fn cross_variable_inequality_stays_as_residual_filter() {
        let db = movie_database();
        // a1.id > a2.id cannot be a hash-join key; it must survive as a
        // filter above the joins and still produce Q3's four pairs.
        let q = parse_query(
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
               and a1.id > a2.id",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let (hash, nested, filters) = count_ops(&planned.plan);
        assert_eq!(hash, 4);
        assert_eq!(nested, 0);
        assert!(filters >= 1);
    }

    #[test]
    fn mixed_type_join_keys_fall_back_to_sql_equality() {
        use datastore::{ColumnDef, DataType, TableSchema};
        // A mixed-type equi-join stays a residual comparison: the declared-
        // type guard pins the plan. The answer is 3 = 3.0 either way, as the
        // hash operators compare keys by SQL `=` too.
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "A",
            vec![ColumnDef::new("k", DataType::Integer)],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "B",
            vec![ColumnDef::new("k", DataType::Float)],
        ))
        .unwrap();
        db.insert("A", vec![Value::Integer(3)]).unwrap();
        db.insert("B", vec![Value::Float(3.0)]).unwrap();
        let q = parse_query("select a.k from A a, B b where a.k = b.k").unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let (hash, _, _) = count_ops(&planned.plan);
        assert_eq!(hash, 0, "mixed-type keys must not become hash joins");
        let rs = execute(&db, &planned.plan).unwrap();
        assert_eq!(rs.len(), 1, "SQL equality matches 3 = 3.0");
    }

    #[test]
    fn q1_returns_brad_pitt_movies() {
        let db = movie_database();
        let rs = run(
            &db,
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        let titles: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().to_string())
            .collect();
        assert_eq!(rs.len(), 2);
        assert!(titles.contains(&"Troy".to_string()));
        assert!(titles.contains(&"Seven".to_string()));
    }

    #[test]
    fn q5_flattens_and_matches_q1() {
        let db = movie_database();
        let nested = run(
            &db,
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.aid in ( \
                    select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        );
        assert_eq!(nested.len(), 2);
    }

    #[test]
    fn q3_pairs_of_actors_in_same_movie() {
        let db = movie_database();
        let rs = run(
            &db,
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
               and a1.id > a2.id",
        );
        // Fixtures: Match Point (13,14), Star Quest (11,12), Troy (10,12),
        // The Return 2006 (13,15).
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn q4_title_equals_role() {
        let db = movie_database();
        let rs = run(
            &db,
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "The Masquerade");
    }

    #[test]
    fn emp_query_finds_employees_paid_more_than_their_manager() {
        let db = employee_database();
        let rs = run(
            &db,
            "select e1.name from EMP e1, EMP e2, DEPT d \
             where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal",
        );
        let names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().to_string())
            .collect();
        // The residual filter makes no ordering guarantee, so compare sets.
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["Carol", "Erin"]);
    }

    #[test]
    fn aggregates_with_group_by_and_having_execute() {
        let db = movie_database();
        let rs = run(
            &db,
            "select m.year, count(*) from MOVIES m group by m.year having count(*) > 1",
        );
        // 2004 and 2005 appear... 2004: Melinda and Melinda + Troy; 2005: only
        // Match Point, so exactly one group qualifies.
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "2004");
    }

    #[test]
    fn an_item_computed_over_a_group_is_evaluated_above_it() {
        // It used to come out as the bare aggregate: `count(*) + 1` was
        // `count(*)`, and `-1` could not be a HAVING operand.
        let db = movie_database();
        let rs = run(
            &db,
            "select m.year, count(*) + 1, -count(*) from MOVIES m \
             group by m.year having count(*) > -1 and m.year = 2004",
        );
        assert_eq!(rs.columns[1].to_string(), "count(*) + 1");
        let row: Vec<String> = rs.rows[0].values().iter().map(|v| v.to_string()).collect();
        assert_eq!(row, ["2004", "3", "-2"]);
    }

    #[test]
    fn order_by_limit_distinct_work() {
        let db = movie_database();
        let rs = run(
            &db,
            "select distinct m.year from MOVIES m order by m.year desc limit 3",
        );
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "2006");
    }

    #[test]
    fn correlated_exists_decorrelates_to_a_semi_join() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where exists ( \
                select * from CAST c where c.mid = m.id)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"semi join"));
        assert!(planned.decisions.iter().any(|d| matches!(
            d,
            PlanDecision::Subquery {
                strategy: crate::planner::SubqueryStrategy::SemiJoin,
                ..
            }
        )));
        // Movies with at least one casting credit: all but Melinda and
        // Melinda (2) and Anything Else (3).
        assert_eq!(execute(&db, &planned.plan).unwrap().len(), 8);
    }

    #[test]
    fn correlated_not_exists_decorrelates_to_an_anti_join() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from CAST c where c.mid = m.id)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"anti join"));
        let rs = execute(&db, &planned.plan).unwrap();
        let mut titles: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().to_string())
            .collect();
        titles.sort();
        assert_eq!(titles, vec!["Anything Else", "Melinda and Melinda"]);
    }

    #[test]
    fn non_flattenable_in_executes_as_semi_join_instead_of_erroring() {
        // Regression for the pre-subsystem behaviour: an aggregated IN
        // subquery is not flattenable by the rewriter and used to be
        // rejected with Unsupported("execution of correlated or
        // non-flattenable subqueries"). It must now run as a semi-join.
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where m.id in (select max(c.mid) from CAST c)",
        )
        .unwrap();
        assert!(
            sqlparse::rewrite::flatten_in_subqueries(&q).is_none(),
            "precondition: the rewriter declines this shape"
        );
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"semi join"));
        let rs = execute(&db, &planned.plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "The Return");
    }

    #[test]
    fn not_in_lowers_to_a_null_aware_anti_join() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where m.id not in (select c.mid from CAST c)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"anti join"));
        assert!(planned.decisions.iter().any(|d| matches!(
            d,
            PlanDecision::Subquery {
                strategy: crate::planner::SubqueryStrategy::NullAwareAntiJoin,
                ..
            }
        )));
        assert_eq!(execute(&db, &planned.plan).unwrap().len(), 2);
    }

    #[test]
    fn not_in_with_a_null_on_the_build_side_returns_nothing() {
        // DEPT 30 has mgr = NULL: `eid NOT IN (select mgr …)` is UNKNOWN for
        // every non-matching employee, so the answer is empty — the
        // NULL-aware anti-join must not degenerate to NOT EXISTS semantics.
        let db = employee_database();
        let rs = run(
            &db,
            "select e.name from EMP e where e.eid not in (select d.mgr from DEPT d)",
        );
        assert_eq!(rs.len(), 0);
        // The positive variant still matches managers Alice (1) and Dave (4).
        let rs = run(
            &db,
            "select e.name from EMP e where e.eid in (select d.mgr from DEPT d)",
        );
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn not_in_with_a_null_probe_is_unknown_not_true() {
        // DEPT 30's mgr is NULL: `NULL NOT IN (non-empty set)` is UNKNOWN,
        // so Empty Shell is filtered out; Research's manager (1) is in the
        // set, Operations' (4) is not.
        let db = employee_database();
        let rs = run(
            &db,
            "select d.dname from DEPT d where d.mgr not in \
             (select e.eid from EMP e where e.did = 10)",
        );
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "Operations");
    }

    #[test]
    fn uncorrelated_scalar_subquery_evaluates_once() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where m.year = (select max(m2.year) from MOVIES m2)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"scalar subquery"));
        let rs = execute(&db, &planned.plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "The Return");
    }

    #[test]
    fn correlated_scalar_comparison_is_a_keyed_lookup() {
        // Employees paid above their own department's average — correlated
        // on e1.did, so the average is computed once per department and
        // looked up. Frank (did NULL) has no group → NULL average → UNKNOWN.
        let db = employee_database();
        let q = parse_query(
            "select e1.name from EMP e1 where e1.sal > \
             (select avg(e2.sal) from EMP e2 where e2.did = e1.did)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"scalar subquery"));
        let rs = execute(&db, &planned.plan).unwrap();
        let mut names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Alice", "Carol", "Erin"]);
    }

    #[test]
    fn q6_relational_division_executes() {
        let db = movie_database();
        // No movie carries all six genres of the fixture, so Q6 proper is
        // empty…
        let rs = run(
            &db,
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        );
        assert_eq!(rs.len(), 0);
        // …but dividing by a restricted divisor (the genres of movie 5 —
        // action) finds every action movie: Star Quest, Star Quest II, Troy.
        let rs = run(
            &db,
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where g1.mid = 5 and not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        );
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn q6_inner_block_decorrelates_inside_the_apply() {
        // The outer NOT EXISTS is correlated through its *nested* block, so
        // it must stay an apply — but the inner NOT EXISTS correlates with
        // g1 only through `g2.genre = g1.genre` and becomes an anti-join,
        // with the `g2.mid = m.id` reference turned into a parameter the
        // outer apply binds.
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        let names = operator_names(&planned.plan);
        assert!(names.contains(&"apply"));
        assert!(names.contains(&"anti join"));
    }

    #[test]
    fn q7_having_subquery_executes() {
        let db = movie_database();
        let q = parse_query(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"scalar subquery"));
        let rs = execute(&db, &planned.plan).unwrap();
        // Movies with casting credits *and* more than one genre: Match
        // Point (1), Star Quest (4), Troy (6), The Return 2006 (10).
        assert_eq!(rs.len(), 4);
        let mut ids: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().to_string())
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["1", "10", "4", "6"]);
    }

    #[test]
    fn q9_quantified_comparison_executes() {
        let db = movie_database();
        let q = parse_query(
            "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
             and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
             where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
        )
        .unwrap();
        let planned = plan_query(&db, &q).unwrap();
        assert!(operator_names(&planned.plan).contains(&"apply"));
        let rs = execute(&db, &planned.plan).unwrap();
        // `<= ALL` is vacuously true for unrepeated movies (all but the two
        // Returns); of the repeated pair, only the 1980 version qualifies.
        // That keeps every casting credit except the 2006 Return's two.
        assert_eq!(rs.len(), 10);
        let names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r.get(0).unwrap().to_string())
            .collect();
        assert!(names.contains(&"Elena Petrova".to_string()));
    }

    #[test]
    fn apply_fallback_agrees_with_decorrelated_plans() {
        let db = movie_database();
        let queries = [
            "select m.title from MOVIES m where exists (select * from CAST c where c.mid = m.id)",
            "select m.title from MOVIES m where not exists \
             (select * from CAST c where c.mid = m.id)",
            // NOT IN is never flattened by the rewriter, so it exercises
            // the anti-join vs. apply pair.
            "select m.title from MOVIES m where m.id not in (select g.mid from GENRE g \
             where g.genre = 'drama')",
        ];
        for sql in queries {
            let q = parse_query(sql).unwrap();
            let fast = plan_query(&db, &q).unwrap();
            let naive = plan_query_with(
                &db,
                &q,
                PlannerOptions {
                    decorrelate_subqueries: false,
                    ..PlannerOptions::default()
                },
            )
            .unwrap();
            assert!(operator_names(&naive.plan).contains(&"apply"));
            assert_eq!(
                execute(&db, &fast.plan).unwrap().len(),
                execute(&db, &naive.plan).unwrap().len(),
                "decorrelated and apply plans disagree for {sql}"
            );
        }
    }

    #[test]
    fn multi_column_in_subquery_is_rejected_not_truncated() {
        // SQL's "subquery has too many columns": comparing m.id against a
        // two-column subquery must error at plan time, not silently compare
        // against the first column.
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where m.id in (select c.mid, c.aid from CAST c)",
        )
        .unwrap();
        match plan_query(&db, &q) {
            Err(TalkbackError::Unsupported(msg)) => {
                assert!(
                    msg.contains("exactly one column"),
                    "error should name the degree mismatch: {msg}"
                );
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn still_unsupported_subquery_shapes_name_the_construct() {
        let db = movie_database();
        // A subquery under OR is not a conjunct any strategy covers.
        let q = parse_query(
            "select m.title from MOVIES m where m.year > 2004 or exists ( \
                select * from CAST c where c.mid = m.id)",
        )
        .unwrap();
        match plan_query(&db, &q) {
            Err(TalkbackError::Unsupported(msg)) => {
                assert!(
                    msg.contains("complex predicate") || msg.contains("larger expression"),
                    "error should name the construct: {msg}"
                );
                assert!(msg.contains("EXISTS") || msg.contains("OR"));
            }
            other => panic!("expected a precise Unsupported error, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_and_qualified_wildcard_projection() {
        let db = movie_database();
        let rs = run(&db, "select * from GENRE g where g.genre = 'action'");
        assert_eq!(rs.columns.len(), 2);
        assert_eq!(rs.len(), 3);
        let rs = run(
            &db,
            "select m.* from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'action'",
        );
        assert_eq!(rs.columns.len(), 3);
    }

    #[test]
    fn wildcard_expands_in_from_order_even_when_joins_are_reordered() {
        let db = movie_database();
        // The optimizer may well start from GENRE (filtered); `SELECT *`
        // must still list MOVIES' columns first, as written.
        let rs = run(
            &db,
            "select * from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'action'",
        );
        let names: Vec<String> = rs.columns.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, vec!["m.id", "m.title", "m.year", "g.mid", "g.genre"]);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn between_like_and_in_list_execute() {
        let db = movie_database();
        let rs = run(
            &db,
            "select m.title from MOVIES m where m.year between 2003 and 2005 \
             and m.title like '%e%' and m.id in (1, 2, 3, 6)",
        );
        assert!(rs.len() >= 2);
    }
}
