//! One path for every statement that runs a query: [`prepare`] turns SQL
//! into a plan and the decisions that shaped it — a plan-cache template,
//! whose statement parameters stand for the statement's literals (on a miss
//! the template is planned once, and is the statement's plan by
//! construction), or a fresh plan where no template can hold the statement
//! — and [`Prepared::run`] executes the plan, folds its cardinality feedback
//! into the adaptive state and journals it. `run_query`, `explain_result`
//! and `EXPLAIN ANALYZE` all go through both halves; plain `EXPLAIN`
//! prepares and describes ([`Prepared::describe`]), so it reads, absorbs and
//! records nothing. A statement served from a template its shape already
//! had neither parses, plans, copies nor opens a plan: the template's kept
//! operator tree is rewound with the statement's literals and run
//! ([`PlanTemplate::execute`]), and its profile is the template's shape —
//! described once — with this run's counters and the statement's literals.

use crate::error::TalkbackError;
use crate::planner::{self, plan_query_with, PlanDecision, PlannedQuery, PlannerOptions};
use datastore::exec::{describe_plan, execute_with_stats, OpMetrics, PlanProfile, ResultSet};
use datastore::obs::{Counter, Statement, StatementPhases};
use datastore::stats::RangeClass;
use datastore::{
    CacheKey, CacheLookup, CacheStatus, CachedVerdict, Database, ParamKind, PlanTemplate,
    RangeParam, StatementMeta, Uncacheable, Value,
};
use sqlparse::{NormalizedStatement, SelectStatement};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// A statement ready to run: its plan, where the plan came from, and what
/// the journal will say about how it was prepared.
pub(crate) struct Prepared<'s> {
    db: &'s Database,
    /// The SQL the journal records.
    sql: &'s str,
    /// The text with its literals lifted, which the plan cache keys and the
    /// workload ledger files the statement under.
    normalized: Option<NormalizedStatement>,
    source: Source,
    options: PlannerOptions,
    phases: StatementPhases,
    meta: StatementMeta,
}

enum Source {
    /// A cached template, which this statement's literals bind.
    Template(Arc<PlanTemplate>),
    /// A plan made for this statement, with the decisions that shaped it.
    Fresh(Box<PlannedQuery>),
}

/// Prepare `sql` under `options`, since `start`; `parse` gives the
/// statement, called only when it is to be planned (again, when its
/// template cannot be). The text is literal-normalized and, with the plan
/// cache on, the cache is probed for the shape: a template there is what
/// runs, bound to the new literals as it runs (no parsing or planning), and
/// a negative entry sends the statement to the planner
/// without examining it again. A shape whose estimates read its range
/// literals holds one entry per class of them, so its record classifies the
/// literals and the cache is probed once more, with the classes. On a miss
/// the statement is planned once, by [`plan_and_cache`].
pub(crate) fn prepare<'s, 'q>(
    db: &'s Database,
    sql: &'s str,
    parse: impl FnOnce() -> Result<Cow<'q, SelectStatement>, TalkbackError>,
    options: PlannerOptions,
    start: Instant,
) -> Result<Prepared<'s>, TalkbackError> {
    let epoch = db.adaptive().epoch();
    let cache = db.adaptive().plan_cache();
    let normalized = sqlparse::normalize_statement(sql);
    let classes: Vec<RangeClass>;
    let mut key = (normalized.as_ref())
        .filter(|_| options.use_plan_cache)
        .map(|n| CacheKey::new(&n.text, options.cache_bits(), &n.literals));
    let mut meta = StatementMeta {
        cache: CacheStatus::Off,
        epoch,
    };
    let mut phases = StatementPhases::default();
    let mut template = None;
    if let Some(key) = &mut key {
        let mut found = cache.lookup(key, epoch);
        if let CacheLookup::Found(CachedVerdict::Classified(ranges)) = &found {
            classes = ranges.iter().map(|r| r.class(key.params)).collect();
            key.classes = &classes;
            found = cache.lookup(key, epoch);
        }
        meta.cache = found.status();
        match found {
            CacheLookup::Found(CachedVerdict::Template(hit)) => template = Some(hit),
            CacheLookup::Found(CachedVerdict::Uncacheable(why)) => db.obs().note_uncacheable(why),
            CacheLookup::Found(CachedVerdict::Classified(_))
            | CacheLookup::Stale
            | CacheLookup::Miss => {}
        }
        let counter = match template {
            Some(_) => Counter::PlanCacheHits,
            None => Counter::PlanCacheMisses,
        };
        db.obs().incr(counter);
    }
    let source = match template {
        Some(template) => {
            phases.plan = start.elapsed();
            Source::Template(template)
        }
        None => {
            let query = parse()?;
            let planning = Instant::now();
            let source = match (&key, meta.cache) {
                (Some(key), CacheStatus::Miss | CacheStatus::Stale) => {
                    plan_and_cache(db, query, key, epoch, options)?
                }
                _ => Source::Fresh(Box::new(plan_query_with(db, &query, options)?)),
            };
            phases.parse = planning - start;
            phases.plan = planning.elapsed();
            source
        }
    };
    Ok(Prepared {
        db,
        sql,
        normalized,
        source,
        options,
        phases,
        meta,
    })
}

/// [`prepare`] for a SELECT given as its text alone.
pub(crate) fn prepare_select<'s>(
    db: &'s Database,
    sql: &'s str,
    options: PlannerOptions,
    start: Instant,
) -> Result<Prepared<'s>, TalkbackError> {
    let parse = || Ok(Cow::Owned(sqlparse::parse_query(sql)?));
    prepare(db, sql, parse, options, start)
}

impl Prepared<'_> {
    /// The optimizer's decisions: those of a fresh plan, or a template's
    /// bound to the statement's literals.
    pub(crate) fn into_decisions(self) -> Vec<PlanDecision> {
        match self.source {
            Source::Fresh(planned) => planned.decisions,
            Source::Template(..) => self.decisions(),
        }
    }

    /// [`Prepared::into_decisions`], copied out of a statement still to run.
    pub(crate) fn decisions(&self) -> Vec<PlanDecision> {
        match &self.source {
            Source::Template(template) => {
                let literals = self.literals();
                let bind = |d: &PlanDecision| d.bind(literals).into_owned();
                template.decisions.iter().map(bind).collect()
            }
            Source::Fresh(planned) => planned.decisions.clone(),
        }
    }

    /// The statement's literals, which a template's slots stand for.
    fn literals(&self) -> &[Value] {
        self.normalized.as_ref().map_or(&[], |n| &n.literals)
    }

    /// The profile of the plan, described but not executed (all counters
    /// zero): a template's shape, else the plan's opened and described.
    /// Opening a plan validates it but reads no rows.
    pub(crate) fn describe(&self) -> Result<PlanProfile, TalkbackError> {
        Ok(match &self.source {
            Source::Template(template) => {
                let shape = template.shape(self.db)?;
                let counters = vec![OpMetrics::default(); shape.size()];
                PlanProfile::new(shape, counters, self.literals().to_vec())
            }
            Source::Fresh(planned) => describe_plan(self.db, &planned.plan)?,
        })
    }

    /// How many conditions the statement's flattened `WHERE` clause applies,
    /// as counted when it (or its template) was planned.
    pub(crate) fn where_conditions(&self) -> usize {
        match &self.source {
            Source::Template(template) => template.where_conditions,
            Source::Fresh(planned) => planned.where_conditions,
        }
    }

    /// Execute the plan, absorb its cardinality feedback and journal it —
    /// the one place a prepared statement does any of the three. `keep`
    /// takes what the caller needs of the profile before the journal is
    /// handed the profile itself, the statement's literals with it.
    pub(crate) fn run<K>(
        mut self,
        keep: impl FnOnce(&PlanProfile) -> K,
    ) -> Result<(ResultSet, K), TalkbackError> {
        let (db, options) = (self.db, self.options);
        let start = Instant::now();
        let (result, profile) = match &self.source {
            Source::Template(template) => {
                let literals = (self.normalized.as_mut()).map(|n| std::mem::take(&mut n.literals));
                template.execute(db, literals.unwrap_or_default())?
            }
            Source::Fresh(planned) => execute_with_stats(db, &planned.plan)?,
        };
        let phases = StatementPhases {
            execute: start.elapsed(),
            ..self.phases
        };
        if options.use_feedback {
            db.adaptive().absorb(&profile, options.misestimate_factor);
        }
        let kept = keep(&profile);
        let statement = Statement {
            sql: self.sql,
            shape: self.normalized.as_ref().map(|n| n.text.as_str()),
            plan_hash: match &self.source {
                Source::Template(template) => Some(template.shape_hash(&profile)),
                Source::Fresh(_) => None,
            },
        };
        db.obs().record_statement(
            statement,
            profile,
            phases,
            result.len() as u64,
            options.misestimate_factor,
            self.meta,
        );
        Ok((result, kept))
    }
}

/// Plan a statement the plan cache does not know in this epoch (and class)
/// once, and cache what its shape gets. When the AST lifts exactly the
/// literals the text scanner extracted, in order, the parameterized statement
/// is planned, each `?k` read by its literal's kind or range class alone
/// ([`planner::plan_template`] lists the reads), cached and run; bound, it is
/// the statement's plan, equal to a fresh plan by construction (the
/// plan-cache differential is the oracle). A shape refused before planning, or whose
/// template fails to plan, gets its literals back
/// ([`sqlparse::restore_literals`]) and is planned afresh as it was parsed,
/// and the negative verdict cached. A range shape also gets the record its
/// later statements are classified by.
fn plan_and_cache(
    db: &Database,
    query: Cow<'_, SelectStatement>,
    key: &CacheKey,
    epoch: u64,
    options: PlannerOptions,
) -> Result<Source, TalkbackError> {
    let mut query = query.into_owned();
    let template = |query: &mut SelectStatement| {
        let lifted = sqlparse::parameterize_select(query)?;
        // `Value` equality is SQL's (3 = 3.0); a template's is also by kind.
        let same = |(a, b): (&Value, &Value)| a == b && ParamKind::of(a) == ParamKind::of(b);
        let why = if lifted.len() != key.params.len() || !lifted.iter().zip(key.params).all(same) {
            // What the text scanner and the parser disagree on is a constant
            // neither can be trusted to lift.
            Uncacheable::Constant
        } else {
            match planner::plan_template(db, query, options, key.params) {
                Ok(planned) => return Ok(planned),
                Err(_) => Uncacheable::ValueDependent,
            }
        };
        sqlparse::restore_literals(query, &lifted);
        Err(why)
    };
    let (verdict, ranges, source) = match template(&mut query) {
        Ok((planned, ranges)) => {
            let (plan, decisions) = (planned.plan, planned.decisions);
            let template = Arc::new(PlanTemplate::new(plan, decisions, planned.where_conditions));
            let verdict = CachedVerdict::Template(Arc::clone(&template));
            (verdict, ranges, Source::Template(template))
        }
        Err(why) => {
            let planned = plan_query_with(db, &query, options)?;
            let verdict = CachedVerdict::Uncacheable(why);
            (verdict, Vec::new(), Source::Fresh(Box::new(planned)))
        }
    };
    let cache = db.adaptive().plan_cache();
    let (mut key, mut evicted) = (*key, 0);
    let classes: Vec<RangeClass>;
    // A shape met for the first time this epoch whose estimates read its
    // range literals: its record, then this class.
    if key.classes.is_empty() && !ranges.is_empty() {
        let ranges: Arc<[RangeParam]> = ranges.into();
        classes = ranges.iter().map(|r| r.class(key.params)).collect();
        evicted += cache.insert(&key, epoch, CachedVerdict::Classified(ranges));
        key.classes = &classes;
    }
    evicted += cache.insert(&key, epoch, verdict);
    db.obs().add(Counter::PlanCacheEvictions, evicted);
    Ok(source)
}
