//! # talkback — *DBMSs Should Talk Back Too*, in Rust
//!
//! A reproduction of Simitsis & Ioannidis, CIDR 2009: translating DBMS
//! internals — database **contents** and **queries/commands** — into natural
//! language. The crate sits on top of the `datastore` (storage + executor),
//! `sqlparse` (SQL front-end), `schemagraph` (schema/query graphs) and
//! `templates`/`nlg` (template language and text machinery) substrates, and
//! exposes:
//!
//! * [`content::ContentTranslator`] — §2: tuple, entity, split-pattern and
//!   whole-database narratives, compact vs. procedural style, ranking,
//!   personalization, derived-data summaries;
//! * [`query::QueryTranslator`] — §3: classification of queries into the
//!   paper's categories (path / subgraph / graph / nested / aggregate /
//!   impossible) and per-category narration, with a procedural fallback;
//! * [`query::explain`] — §3.1: empty- and large-result explanations, backed
//!   by actually executing the query through [`planner`];
//! * [`query::plan_explain`] — `EXPLAIN [ANALYZE]`: the plan as a stable
//!   ASCII tree plus a natural-language narration of what the executor did;
//! * [`pipeline`] — §2.1: the simulated speech-in / speech-out accessibility
//!   loop;
//! * [`mod@narrative_metrics`] — expressiveness/effectiveness proxies used by
//!   the benchmark harness (narrative quality, not engine counters — those
//!   live in [`datastore::obs`] and answer to `SHOW METRICS`);
//! * [`Talkback`] — a facade bundling all of the above for one database.
//!
//! ## Execution architecture: streaming + instrumentation
//!
//! The stack below this crate runs queries the way the narrations describe
//! them:
//!
//! 1. **sqlparse** parses SQL, including `EXPLAIN [ANALYZE] <select>`.
//! 2. **[`planner`]** lowers a query to a `datastore` [`datastore::exec::Plan`]:
//!    the *logical* phase decomposes WHERE into a join graph (equi-join
//!    edges, selections pushed onto their relation — a subquery block's
//!    comparisons with the enclosing row among them — residual predicates),
//!    the *cost*
//!    phase picks the left-deep join order with the smallest estimated
//!    intermediate results from table statistics (per-column NDV, min/max
//!    and histograms kept current by each table) — by dynamic programming
//!    over connected subsets, falling back to a greedy walk past
//!    [`planner::DP_MAX_RELATIONS`] relations — and the *subquery*
//!    phase decorrelates `WHERE`/`HAVING` subqueries into semi-/anti-joins
//!    (NULL-aware for `NOT IN`), evaluate-once scalars or, where it costs
//!    less, correlated aggregates grouped once and looked up per row (Q7's
//!    `HAVING` count), falling back to a
//!    memoized per-row `Apply` for genuinely correlated shapes, so every
//!    paper query (Q1–Q9, including Q6's relational division and Q7's
//!    correlated HAVING count) executes. Every operator gets an estimated
//!    row count and every ordering or decorrelation choice is recorded as a
//!    [`PlanDecision`].
//! 3. **datastore/exec** opens the plan into a tree of streaming, pull-based
//!    `RowSource` operators exchanging row batches; one metering wrapper
//!    counts every operator's rows in/out, batches and elapsed time
//!    ([`datastore::exec::OpMetrics`]) and writes them out against the
//!    plan's shape, described once per plan — a
//!    [`datastore::exec::PlanProfile`]; filter details are rendered by
//!    [`datastore::exec::profile::render_expr`].
//!    Every operator runs on the thread that pulls from it: a statement is
//!    one operator tree, pulled to exhaustion by its caller.
//! 4. **[`query::plan_explain`]** renders the (instrumented) operator tree
//!    as a stable ASCII plan with estimated vs. actual rows per operator
//!    (flagging estimates off by more than 10×) and narrates both the
//!    execution — "I scanned six actors and kept the one where a.name =
//!    'Brad Pitt', …" — and the optimizer's reasoning — "I started from
//!    ACTOR … because that order was expected to produce ~3.5× fewer
//!    intermediate rows than the order the query was written in."
//!    **[`query::explain`]** reads the same counters to attribute empty
//!    results to the predicate that eliminated the rows and large results
//!    to the join that produced the volume, without re-executing predicate
//!    subsets.
//!
//! [`Talkback::explain_plan`] is the front door: `EXPLAIN` describes the
//! plan without reading a single row; `EXPLAIN ANALYZE` executes it and
//! reports what actually happened.
//!
//! ## One execution path
//!
//! [`Talkback::run_query`], `EXPLAIN ANALYZE`, [`Talkback::explain_result`]
//! and [`Talkback::voice_answer`] take one crate-private path: *prepare*
//! (normalize, probe the plan cache, on a miss parse and plan the statement
//! once, as its template) then *run*, the one place that executes a plan, absorbs its cardinality
//! feedback and journals it. So every `SHOW` counts the same statements,
//! and an `EXPLAIN` narrating a feedback correction finds its misestimate in
//! the ledger. A plain `EXPLAIN` prepares and stops: it reads, absorbs and
//! records nothing. A plan-cache template keeps the decisions `EXPLAIN`
//! narrates, so a repeated `EXPLAIN [ANALYZE]` neither parses nor plans.
//!
//! ```
//! use talkback::Talkback;
//! use datastore::sample::movie_database;
//!
//! let system = Talkback::new(movie_database());
//! let narrative = system
//!     .explain_query(
//!         "select m.title from MOVIES m, CAST c, ACTOR a \
//!          where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
//!     )
//!     .unwrap();
//! assert_eq!(narrative.best, "Find the movies that feature the actor Brad Pitt.");
//! ```

pub mod content;
pub mod error;
pub mod narrative_metrics;
pub mod pipeline;
pub mod planner;
pub mod query;
mod statement;

pub use content::{ContentConfig, ContentTranslator, UserProfile};
pub use error::TalkbackError;
pub use narrative_metrics::{narrative_metrics, NarrativeMetrics};
pub use pipeline::{Recognition, SpeechRecognizer, SpokenChunk, TextToSpeech};
pub use planner::{plan_query, plan_query_with, PlanDecision, PlannedQuery, PlannerOptions};
pub use query::advise::{recommendations, Recommendation};
pub use query::explain::{explain_result, ResultExplanation};
pub use query::plan_explain::{explain_plan, explain_plan_with, PlanExplanation};
pub use query::show::{execute_show, ShowReport};
pub use query::{QueryTranslation, QueryTranslator};

use datastore::adaptive::PLAN_CACHE_CAP;
use datastore::exec::ResultSet;
use datastore::obs::Counter;
use datastore::{
    CacheKey, CacheLookup, CachedVerdict, Database, ShapeCache, Uncacheable, OPTION_WORDS,
};
use std::sync::Arc;
use std::time::Instant;

/// The facade: one database plus the content and query translators,
/// providing the "talk back" operations of the paper in one place.
#[derive(Debug, Clone)]
pub struct Talkback {
    db: Database,
    content: ContentTranslator,
    queries: QueryTranslator,
    /// SELECT translations by shape and catalog version (shared by clones:
    /// a version names one catalog state in the process).
    translations: Arc<ShapeCache<QueryTranslation>>,
}

impl Talkback {
    /// Wrap a database with the movie-domain lexicon and annotations (the
    /// domain every example in the paper uses).
    pub fn new(db: Database) -> Talkback {
        Talkback {
            db,
            content: ContentTranslator::movie_domain(),
            queries: QueryTranslator::movie_domain(),
            translations: Arc::new(ShapeCache::new(PLAN_CACHE_CAP)),
        }
    }

    /// Access the wrapped database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the wrapped database (e.g. to apply profiles).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The content translator.
    pub fn content(&self) -> &ContentTranslator {
        &self.content
    }

    /// The query translator.
    pub fn queries(&self) -> &QueryTranslator {
        &self.queries
    }

    /// §3: translate a SQL statement into natural language. A SELECT is
    /// translated once per shape and then has its strings filled into the
    /// shape's template ([`mod@query`] says when it is translated afresh).
    pub fn explain_query(&self, sql: &str) -> Result<QueryTranslation, TalkbackError> {
        let catalog = self.db.catalog();
        let Some(shape) = sqlparse::normalize_strings(sql) else {
            return self.queries.translate_sql(catalog, sql);
        };
        let key = CacheKey::new(&shape.text, [0; OPTION_WORDS], &shape.literals);
        let (version, obs) = (catalog.version(), self.db.obs());
        let fits = (shape.literals.iter()).all(|s| s.as_str().is_some_and(nlg::realizes_verbatim));
        let refused = || CachedVerdict::Uncacheable(Uncacheable::ValueDependent);
        // A string that fits no slot is answered as a negative entry would be.
        let found = if fits {
            self.translations.lookup(&key, version)
        } else {
            CacheLookup::Found(refused())
        };
        match &found {
            CacheLookup::Found(CachedVerdict::Template(template)) => {
                if let Some(bound) = template.bind_strings(sql, &shape.literals) {
                    obs.incr(Counter::TranslationHits);
                    return Ok(bound);
                }
            }
            CacheLookup::Found(_) => obs.incr(Counter::TranslationUncacheable),
            CacheLookup::Stale | CacheLookup::Miss => {}
        }
        obs.incr(Counter::TranslationMisses);
        let fresh = self.queries.translate_sql(catalog, sql)?;
        if let CacheLookup::Stale | CacheLookup::Miss = found {
            let template = self.queries.template(catalog, &shape, &fresh);
            let verdict = template.map_or_else(refused, |t| CachedVerdict::Template(Arc::new(t)));
            self.translations.insert(&key, version, verdict);
        }
        Ok(fresh)
    }

    /// §3.1: run the query and explain its result size (empty / small /
    /// very large), reading the executor's instrumentation counters to blame
    /// the responsible predicates. The query runs as [`Talkback::run_query`]
    /// runs it, under the default options: served from the plan cache when
    /// its shape has a template, its feedback absorbed, and journaled.
    pub fn explain_result(&self, sql: &str) -> Result<ResultExplanation, TalkbackError> {
        let options = PlannerOptions::default();
        let prepared = statement::prepare_select(&self.db, sql, options, Instant::now())?;
        query::explain::explain_prepared(self.queries.lexicon(), prepared)
    }

    /// `EXPLAIN [ANALYZE]`: describe the query's physical plan as a stable
    /// ASCII tree plus a natural-language narration. With `ANALYZE` the
    /// query is executed and the narration reports the actual per-operator
    /// row counts ("I scanned 5 movies, kept the 2 from after 2000, …");
    /// without it, nothing is executed and the plan is narrated in the
    /// future tense. A bare SELECT is treated as plain `EXPLAIN`.
    ///
    /// Either way the SELECT is prepared as [`Talkback::run_query`]
    /// prepares it: a plan-cache template serves the plan and the
    /// optimizer's decisions, bound to the statement's literals, without
    /// parsing or planning; otherwise it is planned afresh. `EXPLAIN ANALYZE`
    /// then runs as any query runs: its feedback is absorbed and the SELECT
    /// it ran is journaled and filed in the workload ledger beside
    /// executions of that SELECT. Plain `EXPLAIN` reads no row and absorbs
    /// and records nothing.
    pub fn explain_plan(&self, sql: &str) -> Result<PlanExplanation, TalkbackError> {
        query::plan_explain::explain_plan(&self.db, self.queries.lexicon(), sql)
    }

    /// [`Talkback::explain_plan`] with explicit planner options (switch to
    /// the full-scan or row-at-a-time reference engine, …).
    pub fn explain_plan_with(
        &self,
        sql: &str,
        options: PlannerOptions,
    ) -> Result<PlanExplanation, TalkbackError> {
        query::plan_explain::explain_plan_with(&self.db, self.queries.lexicon(), sql, options)
    }

    /// Execute a query and return its answer. The statement is timed phase
    /// by phase (parse → plan → execute), its feedback absorbed, and
    /// journaled into the database's observability registry, so `SHOW QUERY
    /// LOG` / `SHOW PROFILE` can talk about it afterwards — the same path
    /// `EXPLAIN ANALYZE` and [`Talkback::explain_result`] take.
    ///
    /// Two adaptive layers run by default (each has a [`PlannerOptions`]
    /// switch):
    ///
    /// * **Plan cache** — the statement text is literal-normalized and the
    ///   cache probed once under (text, options, literal kinds). A template
    ///   there is re-bound with the new literals and executed: no lexing,
    ///   parsing, or planning. On a miss the statement is planned once, as
    ///   its template, and runs from it. A *negative* entry says the shape
    ///   cannot be templated (and why), so the statement goes straight to
    ///   the parser and planner without being examined again. Entries of
    ///   both kinds die with the database's adaptive epoch — DDL, a write
    ///   that drops statistics, absorbed feedback.
    /// * **Cardinality feedback** — after execution, per-filter est-vs.-
    ///   actual deltas that cleared the misestimate threshold are folded
    ///   into the feedback store, so the *next* plan of that predicate
    ///   shape starts from the observed selectivity (and says so).
    pub fn run_query(&self, sql: &str) -> Result<ResultSet, TalkbackError> {
        self.run_query_with(sql, PlannerOptions::default())
    }

    /// [`Talkback::run_query`] with explicit planner options: the switches
    /// that select the reference engine.
    pub fn run_query_with(
        &self,
        sql: &str,
        options: PlannerOptions,
    ) -> Result<ResultSet, TalkbackError> {
        let prepared = statement::prepare_select(&self.db, sql, options, Instant::now())?;
        let (result, ()) = prepared.run(|_| ())?;
        Ok(result)
    }

    /// Execute an introspection or doctor statement — `SHOW …`, `ADVISE`,
    /// `CHECKUP`, or `SET <knob> <value>` — against the observability
    /// registry and answer both ways: a tabular report and the same facts in
    /// the system's own voice.
    pub fn execute_show(&self, sql: &str) -> Result<query::show::ShowReport, TalkbackError> {
        match sqlparse::parse_statement(sql)? {
            sqlparse::ast::Statement::Show(show) => {
                Ok(query::show::execute_show(&self.db, &show.kind))
            }
            sqlparse::ast::Statement::Advise(advise) => {
                Ok(query::advise::execute_advise(&self.db, advise.limit))
            }
            sqlparse::ast::Statement::Checkup => Ok(query::advise::execute_checkup(&self.db)),
            sqlparse::ast::Statement::Set(set) => query::show::execute_set(&self.db, &set),
            _ => Err(TalkbackError::Unsupported(
                "execute_show handles SHOW, ADVISE, CHECKUP, and SET statements".into(),
            )),
        }
    }

    /// Execute an index DDL statement (`CREATE INDEX` / `DROP INDEX`) and
    /// confirm what was done in the system's own voice — commands deserve
    /// talk-back too (§3.1). Returns the confirmation sentence.
    pub fn execute_ddl(&mut self, sql: &str) -> Result<String, TalkbackError> {
        use datastore::{IndexDef, IndexKind};
        match sqlparse::parse_statement(sql)? {
            sqlparse::ast::Statement::CreateIndex(ci) => {
                let kind = if ci.hash {
                    IndexKind::Hash
                } else {
                    IndexKind::Ordered
                };
                let entries = self.db.create_index(IndexDef {
                    name: ci.name.clone(),
                    table: ci.table.clone(),
                    columns: ci.columns.clone(),
                    kind,
                })?;
                let keys = self
                    .db
                    .find_index(&ci.name)
                    .map(|(_, idx)| idx.key_count())
                    .unwrap_or(0);
                let concept = self.queries.lexicon().concept(&ci.table);
                let noun = nlg::pluralize(&concept);
                Ok(nlg::finish_sentence(&format!(
                    "I built the {} index {} over {}({}): {} {} indexed under {}, so I can \
                     now look {} up by {} instead of scanning",
                    kind.sql(),
                    ci.name,
                    ci.table,
                    ci.columns.join(", "),
                    nlg::count_phrase(entries),
                    if entries == 1 { &concept } else { &noun },
                    query::counted(keys, "distinct key"),
                    noun,
                    key_words(&ci.columns)
                )))
            }
            sqlparse::ast::Statement::DropIndex(di) => {
                let def = self.db.drop_index(&di.name)?;
                let noun = nlg::pluralize(&self.queries.lexicon().concept(&def.table));
                let keys = key_words(&def.columns);
                Ok(nlg::finish_sentence(&format!(
                    "I dropped the index {} from {}({}); lookups by {} go back to scanning \
                     the {}",
                    def.name,
                    def.table,
                    def.columns_sql(),
                    keys,
                    noun
                )))
            }
            _ => Err(TalkbackError::Unsupported(
                "execute_ddl handles CREATE INDEX and DROP INDEX".into(),
            )),
        }
    }

    /// §2: narrate an entity and its related tuples ("Woody Allen …").
    pub fn describe_entity(
        &self,
        relation: &str,
        heading_value: &str,
        config: &ContentConfig,
    ) -> Result<String, TalkbackError> {
        self.content
            .describe_entity(&self.db, relation, heading_value, config)
    }

    /// §2: narrate the whole database within the given budget.
    pub fn describe_database(
        &self,
        config: &ContentConfig,
        profile: Option<&UserProfile>,
    ) -> Result<String, TalkbackError> {
        self.content.describe_database(&self.db, config, profile)
    }

    /// §2.1: the full accessibility loop — recognize a spoken question
    /// (simulated), run the supplied SQL, narrate the answer rows and
    /// synthesize speech. Returns the narrative and the synthesized chunks.
    pub fn voice_answer(
        &self,
        spoken_question: &str,
        sql: &str,
        recognizer: &SpeechRecognizer,
        tts: &TextToSpeech,
    ) -> Result<(Recognition, String, Vec<SpokenChunk>), TalkbackError> {
        let recognition = recognizer.recognize(spoken_question);
        let translation = self.explain_query(sql)?;
        let result = self.run_query(sql)?;
        let mut sentences = vec![translation.best.clone()];
        if result.is_empty() {
            sentences.push("There are no matching answers.".to_string());
        } else {
            let values: Vec<String> = result
                .rows
                .iter()
                .take(5)
                .map(|row| {
                    row.values()
                        .iter()
                        .map(|v| v.narrative_form())
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect();
            sentences.push(nlg::finish_sentence(&format!(
                "There {} {} answer{}: {}",
                nlg::be_verb(result.len() != 1),
                result.len(),
                if result.len() == 1 { "" } else { "s" },
                nlg::join_with_and(&values)
            )));
        }
        let narrative = nlg::join_sentences(&sentences);
        let chunks = tts.synthesize(&narrative);
        Ok((recognition, narrative, chunks))
    }
}

/// An index's columns as its narration says them: "year then id".
fn key_words(columns: &[String]) -> String {
    let words: Vec<String> = columns.iter().map(|c| c.to_lowercase()).collect();
    words.join(" then ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;

    #[test]
    fn facade_round_trip() {
        let system = Talkback::new(movie_database());
        let translation = system
            .explain_query(
                "select m.title from MOVIES m, CAST c, ACTOR a \
                 where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
            )
            .unwrap();
        assert!(translation.best.contains("Brad Pitt"));

        let result = system
            .run_query(
                "select m.title from MOVIES m, CAST c, ACTOR a \
                 where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
            )
            .unwrap();
        assert_eq!(result.len(), 2);

        let explanation = system
            .explain_result("select m.title from MOVIES m where m.year > 2100")
            .unwrap();
        assert_eq!(explanation.rows, 0);
    }

    #[test]
    fn index_ddl_executes_and_talks_back() {
        let mut system = Talkback::new(movie_database());
        let built = system
            .execute_ddl("create index idx_year on MOVIES (year)")
            .unwrap();
        assert_eq!(
            built,
            "I built the ordered index idx_year over MOVIES(year): ten movies indexed \
             under nine distinct keys, so I can now look movies up by year instead of \
             scanning."
        );
        assert!(system.database().find_index("idx_year").is_some());
        let dropped = system.execute_ddl("drop index idx_year").unwrap();
        assert!(dropped.contains("go back to scanning the movies"));
        assert!(system.database().find_index("idx_year").is_none());
        // Non-index DDL is declined by this entry point.
        assert!(system.execute_ddl("select * from MOVIES m").is_err());
    }

    #[test]
    fn voice_answer_produces_speech_chunks() {
        let system = Talkback::new(movie_database());
        let (recognition, narrative, chunks) = system
            .voice_answer(
                "which movies feature brad pitt",
                "select m.title from MOVIES m, CAST c, ACTOR a \
                 where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
                &SpeechRecognizer::perfect(),
                &TextToSpeech::default(),
            )
            .unwrap();
        assert_eq!(recognition.confidence, 1.0);
        assert!(narrative.contains("2 answers"));
        assert!(narrative.contains("Troy"));
        assert!(chunks.len() >= 2);
    }

    #[test]
    fn entity_and_database_descriptions_work_through_the_facade() {
        let system = Talkback::new(movie_database());
        let woody = system
            .describe_entity("DIRECTOR", "Woody Allen", &ContentConfig::standard())
            .unwrap();
        assert!(woody.contains("Woody Allen was born"));
        let summary = system
            .describe_database(&ContentConfig::standard(), None)
            .unwrap();
        assert!(summary.contains("movies"));
    }
}
