//! The traced run: every slot goes through the *decomposed* path — the
//! public function of each layer, called from here one after the other —
//! instead of the facade, and every call is a span.
//!
//! Spans are recorded from outside the program, so a layer is as fine as
//! its public call boundary. `templates` and `nlg` have none that a
//! statement reaches on its own; they are accounted inside `query.*` and
//! `content.*`. Four calls are *probes*: they repeat work that the next
//! call does again inside (`sqlparse.lex` inside `sqlparse.parse`,
//! `sqlparse.bind` inside `planner.plan` and `query.translate`,
//! `schemagraph.*` inside `query.translate`), to size that part; they are
//! left out when spans are added up to a statement.

use crate::run::{one_thread, pass, timed, timed_passes, Keep, Session, Timing};
use crate::verify::Outcome;
use crate::workloads::{Op, Workload};
use datastore::exec::{describe_plan, execute_with_stats};
use datastore::obs::{Counter, StatementPhases};
use datastore::{CacheStatus, StatementMeta};
use schemagraph::{classify, QueryGraph};
use sqlparse::ast::Statement;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use talkback::query::plan_explain::{narrate_decisions, narrate_profile_with};
use talkback::{plan_query_with, PlannerOptions};

/// The spans that repeat work another span also contains.
pub const PROBES: [&str; 4] = [
    "sqlparse.lex",
    "sqlparse.bind",
    "schemagraph.graph",
    "schemagraph.classify",
];

/// Slot number of spans recorded during set-up, outside any slot.
pub const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub slot: u32,
    pub pass: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans in memory, written out when the run ends.
pub struct Tracer {
    pub spans: Vec<Span>,
    origin: Instant,
    parent: Option<u32>,
    slot: u32,
    pass: u32,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(spans),
            origin: Instant::now(),
            parent: None,
            slot: NO_SLOT,
            pass: 0,
        }
    }

    pub fn at(&mut self, slot: u32, pass: u32) {
        self.slot = slot;
        self.pass = pass;
    }

    /// Open a span, child of the span that is open now.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.parent.replace(id),
            slot: self.slot,
            pass: self.pass,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    /// Close the span opened last.
    pub fn end(&mut self, id: u32) {
        let span = &mut self.spans[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        self.parent = span.parent;
    }

    /// How long the span closed last took.
    pub fn last_took(&self) -> Duration {
        let last = self.spans.last().expect("a span was recorded");
        Duration::from_nanos(last.end_ns - last.start_ns)
    }

    /// One call into a layer as a span.
    pub fn leaf<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let result = call();
        self.end(id);
        result
    }

    /// One JSON object per line: `{id, parent, slot, pass, name, start_ns,
    /// end_ns}`; `parent` and `slot` are `null` where there is none.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let or_null = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"slot\": {}, \"pass\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                or_null(s.parent),
                or_null(Some(s.slot).filter(|&slot| slot != NO_SLOT)),
                s.pass,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            let covered = s.end_ns - s.start_ns;
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// Counts the decomposed path sees on the way, per statement.
#[derive(Default)]
pub struct Counts {
    pub tokens: u64,
    pub lexed: u64,
    pub decisions: u64,
    pub planned: u64,
}

/// The state the decomposed path needs besides the session.
pub struct Decomposed {
    pub tracer: Tracer,
    pub counts: Counts,
    options: PlannerOptions,
}

type Step<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl Decomposed {
    pub fn new(tracer: Tracer) -> Decomposed {
        Decomposed {
            tracer,
            counts: Counts::default(),
            options: one_thread(),
        }
    }

    /// One slot through the layers' public functions, each call a span under
    /// the slot's root span (named after the facade call it stands for).
    pub fn call(&mut self, session: &mut Session, op: &Op) -> Step<Outcome> {
        match op {
            Op::Run(sql) => self.rooted("facade.run_query", |d| {
                d.run_query(session, sql).map(Outcome::Rows)
            }),
            Op::ExplainQuery(sql) => self.rooted("facade.explain_query", |d| {
                d.explain_query(session, sql).map(Outcome::Text)
            }),
            Op::ExplainPlan(sql) => self.rooted("facade.explain_plan", |d| {
                d.explain_plan(session, sql).map(Outcome::Text)
            }),
            Op::ExplainResult(sql) => self.rooted("facade.explain_result", |d| {
                let query = d
                    .tracer
                    .leaf("sqlparse.parse", || sqlparse::parse_query(sql));
                let query = query.map_err(text)?;
                let db = session.system.database();
                let lexicon = session.system.queries().lexicon();
                d.tracer
                    .leaf("query.explain_result", || {
                        talkback::explain_result(db, lexicon, &query)
                    })
                    .map(|e| Outcome::Text(e.narrative))
                    .map_err(text)
            }),
            Op::Voice { question, sql } => self.rooted("facade.voice_answer", |d| {
                d.tracer.leaf("pipeline.recognize", || {
                    session.recognizer.recognize(question)
                });
                let said = d.explain_query(session, sql)?;
                let answer = d.run_query(session, sql)?;
                // The facade words the answer with `nlg`; the wording does
                // not change what synthesis costs.
                let values: Vec<String> = answer
                    .rows
                    .iter()
                    .take(5)
                    .flat_map(|row| row.values().iter().map(|v| v.narrative_form()))
                    .collect();
                let narrative = format!(
                    "{said} There are {} answers: {}.",
                    answer.len(),
                    values.join(", ")
                );
                d.tracer
                    .leaf("pipeline.synthesize", || session.tts.synthesize(&narrative));
                Ok(Outcome::Text(narrative))
            }),
            Op::Entity { relation, heading } => self.rooted("facade.describe_entity", |d| {
                let content = session.system.content();
                let db = session.system.database();
                d.tracer
                    .leaf("content.describe_entity", || {
                        content.describe_entity(db, relation, heading, &session.content)
                    })
                    .map(Outcome::Text)
                    .map_err(text)
            }),
            Op::Summary => self.rooted("facade.describe_database", |d| {
                let content = session.system.content();
                let db = session.system.database();
                d.tracer
                    .leaf("content.describe_database", || {
                        content.describe_database(db, &session.content, None)
                    })
                    .map(Outcome::Text)
                    .map_err(text)
            }),
            Op::Write(rows) => self.rooted("facade.write", |d| {
                let db = session.system.database_mut();
                for (table, values) in rows {
                    d.tracer
                        .leaf("storage.insert", || db.insert(table, values.clone()))
                        .map_err(text)?;
                }
                Ok(Outcome::Count(rows.len()))
            }),
            Op::Ddl(_) => self.rooted("facade.execute_ddl", |d| {
                d.tracer.leaf("index.ddl", || session.call(op))
            }),
            Op::Sweep { .. } => self.rooted("facade.sweep", |d| {
                d.tracer.leaf("storage.sweep", || session.call(op))
            }),
        }
    }

    fn rooted<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Decomposed) -> T) -> T {
        let id = self.tracer.begin(name);
        let result = work(self);
        self.tracer.end(id);
        result
    }

    /// What `Talkback::run_query` does on a plan-cache miss, layer by layer.
    /// A probe runs after the call that contains its work, so that it finds
    /// the caches and the allocator as that call left them, not the other
    /// way round.
    fn run_query(&mut self, session: &Session, sql: &str) -> Step<datastore::exec::ResultSet> {
        let db = session.system.database();
        let t = &mut self.tracer;
        t.leaf("sqlparse.normalize", || sqlparse::normalize_statement(sql));
        let mut phases = StatementPhases {
            parse: t.last_took(),
            plan: Duration::ZERO,
            execute: Duration::ZERO,
        };
        let query = t.leaf("sqlparse.parse", || sqlparse::parse_query(sql));
        phases.parse += t.last_took();
        let query = query.map_err(text)?;
        let tokens = t.leaf("sqlparse.lex", || sqlparse::lexer::tokenize(sql));
        self.counts.tokens += tokens.map_err(text)?.len() as u64;
        self.counts.lexed += 1;
        // The planner asks for the statistics of each relation and collects
        // them if a write dropped them; asking first gives that its own span.
        t.leaf("stats.collect", || {
            for relation in &query.from {
                db.table_stats(&relation.table);
            }
        });
        phases.plan += t.last_took();
        let planned = t.leaf("planner.plan", || plan_query_with(db, &query, self.options));
        phases.plan += t.last_took();
        let planned = planned.map_err(text)?;
        self.counts.decisions += planned.decisions.len() as u64;
        self.counts.planned += 1;
        t.leaf("sqlparse.bind", || {
            sqlparse::bind_query(db.catalog(), &query)
        })
        .map_err(text)?;
        let (result, profile) = t
            .leaf("exec.execute", || execute_with_stats(db, &planned.plan))
            .map_err(text)?;
        phases.execute = t.last_took();
        t.leaf("adaptive.absorb", || {
            db.adaptive()
                .absorb(&profile, self.options.misestimate_factor)
        });
        t.leaf("obs.record", || {
            db.obs().record_statement(
                sql,
                &profile,
                phases,
                result.len() as u64,
                self.options.misestimate_factor,
                StatementMeta {
                    cache: CacheStatus::Off,
                    epoch: db.adaptive().epoch(),
                },
            )
        });
        Ok(result)
    }

    /// What `Talkback::explain_query` does: parse, then translate. For a
    /// SELECT the binding, the graph and its classification are probed after.
    fn explain_query(&mut self, session: &Session, sql: &str) -> Step<String> {
        let catalog = session.system.database().catalog();
        let t = &mut self.tracer;
        let statement = t.leaf("sqlparse.parse", || sqlparse::parse_statement(sql));
        let Statement::Select(query) = statement.map_err(text)? else {
            // DML and views: the translator's entry point is the facade's.
            return t
                .leaf("query.translate", || session.system.explain_query(sql))
                .map(|translation| translation.best)
                .map_err(text);
        };
        let translation = t.leaf("query.translate", || {
            session
                .system
                .queries()
                .translate_select(catalog, sql, &query)
        });
        let bound = t.leaf("sqlparse.bind", || sqlparse::bind_query(catalog, &query));
        let bound = bound.map_err(text)?;
        let graph = t.leaf("schemagraph.graph", || {
            QueryGraph::build(catalog, &query, &bound)
        });
        t.leaf("schemagraph.classify", || classify(&query, &graph));
        translation
            .map(|translation| translation.best)
            .map_err(text)
    }

    /// What `Talkback::explain_plan` does: parse, plan, execute or describe,
    /// then narrate the decisions and the profile and render the tree.
    fn explain_plan(&mut self, session: &Session, sql: &str) -> Step<String> {
        let db = session.system.database();
        let lexicon = session.system.queries().lexicon();
        let t = &mut self.tracer;
        let statement = t.leaf("sqlparse.parse", || sqlparse::parse_statement(sql));
        let Statement::Explain(explain) = statement.map_err(text)? else {
            return Err("not an EXPLAIN statement".into());
        };
        let planned = t.leaf("planner.plan", || {
            plan_query_with(db, &explain.query, self.options)
        });
        let planned = planned.map_err(text)?;
        self.counts.decisions += planned.decisions.len() as u64;
        self.counts.planned += 1;
        let flag = self.options.misestimate_factor;
        let (profile, rows) = if explain.analyze {
            let (result, profile) = t
                .leaf("exec.execute", || execute_with_stats(db, &planned.plan))
                .map_err(text)?;
            t.leaf("adaptive.absorb", || db.adaptive().absorb(&profile, flag));
            (profile, Some(result.len()))
        } else {
            let profile = t.leaf("exec.execute", || describe_plan(db, &planned.plan));
            (profile.map_err(text)?, None)
        };
        Ok(t.leaf("query.narrate_plan", || {
            let mut sentences = narrate_decisions(&planned.decisions);
            sentences.push(narrate_profile_with(
                &profile,
                lexicon,
                explain.analyze,
                rows,
                flag,
            ));
            std::hint::black_box(profile.render_tree_with(explain.analyze, flag));
            sentences.join(" ")
        }))
    }
}

/// Decomposed passes per traced run, at least; per-layer numbers take each
/// slot's fastest of them.
pub const TRACED_PASSES: u32 = 3;

/// Spans a traced run keeps at most (56 bytes each in memory, about 100 in
/// the file): `lookup` stops after its [`TRACED_PASSES`] passes, the smaller
/// workloads go on for their share of the time.
const SPAN_LIMIT: usize = 400_000;

/// The same slots through the facade with the default `nproc` workers, as
/// often as through the facade with one thread.
pub struct Workers {
    /// Fastest observation of each slot.
    pub fastest_ns: Vec<u64>,
    /// `obs` counter deltas over these passes, in `Counter::ALL` order.
    pub counters: Vec<u64>,
}

/// What a traced run brings back.
pub struct Traced {
    /// The cold pass and the untraced passes between the traced ones: the
    /// facade latency the spans are held against.
    pub timing: Timing,
    pub tracer: Tracer,
    pub counts: Counts,
    /// `obs` counter deltas over the untraced timed passes, in
    /// `Counter::ALL` order, and how many statements those passes ran.
    pub counters: Vec<u64>,
    pub journal_recorded: u64,
    pub statements: u64,
    /// Which slots the plan cache answered.
    pub hit: Vec<bool>,
    pub workers: Workers,
    pub session: Session,
}

/// One epoch: set-up (as spans), a cold pass, a facade pass that asks the
/// journal how the plan cache treated each statement, and then for `seconds`
/// rounds of three passes: one through the facade as in an untraced run, one
/// through the facade with the default `nproc` workers (see [`one_thread`]),
/// and one decomposed — at least [`TRACED_PASSES`] rounds, and only as many
/// decomposed passes as [`SPAN_LIMIT`] holds. The three kinds take turns
/// because this machine's speed drifts within seconds, and what is compared
/// must have seen the same weather. A decomposed pass comes *instead of* a
/// facade pass, not after each facade call: whichever ran first would pay
/// for statistics and warm the caches for the other.
pub fn run_traced(workload: Workload, ops: &[Op], quick: bool, seconds: f64) -> Traced {
    let (least, budget) = if quick {
        (1, Duration::ZERO)
    } else {
        (TRACED_PASSES, Duration::from_secs_f64(seconds))
    };
    let mut tracer = Tracer::with_capacity(SPAN_LIMIT);
    let (mut session, setup) = Session::open(workload, quick, &mut tracer);
    let mut timing = Timing::new(ops.len());
    timing.setup_ns.push(setup.as_nanos() as u64);
    pass(ops, &mut timing, Keep::Cold, |_, op| session.timed(op));

    let obs = Arc::clone(session.system.database().obs());
    let mut hit = vec![false; ops.len()];
    pass(ops, &mut timing, Keep::Timed, |slot, op| {
        let observed = session.timed(op);
        hit[slot] = matches!(op, Op::Run(_))
            && obs
                .journal()
                .last()
                .is_some_and(|e| e.cache == CacheStatus::Hit);
        observed
    });

    let snapshot = || -> Vec<u64> { Counter::ALL.iter().map(|&c| obs.counter(c)).collect() };
    let add_since = |sum: &mut [u64], before: &[u64]| {
        for ((sum, now), before) in sum.iter_mut().zip(snapshot()).zip(before) {
            *sum += now - before;
        }
    };
    let mut counters = vec![0; Counter::ALL.len()];
    let mut journal_recorded = 0;
    let mut workers = Workers {
        fastest_ns: vec![u64::MAX; ops.len()],
        counters: vec![0; Counter::ALL.len()],
    };
    let mut decomposed = Decomposed::new(tracer);
    let (mut rounds, mut traced_passes) = (0, 0);
    let started = Instant::now();
    while rounds < least || traced_passes < least || started.elapsed() < budget {
        rounds += 1;
        let (before, recorded_before) = (snapshot(), obs.journal().recorded());
        timed_passes(&mut session, ops, &mut timing, 1, Duration::ZERO);
        add_since(&mut counters, &before);
        journal_recorded += obs.journal().recorded() - recorded_before;

        session.options = PlannerOptions::default;
        let before = snapshot();
        pass(ops, &mut timing, Keep::Nothing, |slot, op| {
            let observed = session.timed(op);
            workers.fastest_ns[slot] = workers.fastest_ns[slot].min(observed.0);
            observed
        });
        add_since(&mut workers.counters, &before);
        session.options = one_thread;

        // As many decomposed passes as the limit holds, spread over the run.
        let per_pass = decomposed.tracer.spans.len() / traced_passes.max(1) as usize;
        let fit = ((SPAN_LIMIT / per_pass) as u32).max(least);
        if traced_passes < fit && started.elapsed() >= budget * traced_passes / fit {
            traced_passes += 1;
            pass(ops, &mut timing, Keep::Nothing, |slot, op| {
                decomposed.tracer.at(slot as u32, traced_passes);
                timed(|| decomposed.call(&mut session, op))
            });
        }
    }
    Traced {
        timing,
        tracer: decomposed.tracer,
        counts: decomposed.counts,
        counters,
        journal_recorded,
        statements: rounds as u64 * ops.len() as u64,
        hit,
        workers,
        session,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tracer = Tracer::with_capacity(4);
        tracer.at(7, 1);
        let root = tracer.begin("root");
        let child = tracer.begin("child");
        tracer.leaf("grandchild", || ());
        tracer.end(child);
        tracer.leaf("sibling", || ());
        tracer.end(root);
        // Replace the clock readings with hand-made ones.
        let times = [(0, 100), (10, 50), (20, 30), (60, 90)];
        for (span, (start, end)) in tracer.spans.iter_mut().zip(times) {
            (span.start_ns, span.end_ns) = (start, end);
        }
        let parents: Vec<_> = tracer.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(tracer.spans.iter().all(|s| s.slot == 7 && s.pass == 1));
        assert_eq!(self_times(&tracer.spans), [30, 30, 10, 30]);
    }
}
