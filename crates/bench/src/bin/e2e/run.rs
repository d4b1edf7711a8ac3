//! The untraced run: epochs of (set-up, cold pass, timed passes) through the
//! public facade, one client, closed loop, keeping only the fastest
//! observation of every slot.
//!
//! The minimum is the estimator because on a shared machine interference
//! only ever adds time and the engine has no background work of its own:
//! the fastest of many observations estimates what the program costs.

use crate::trace::Tracer;
use crate::verify::{self, Outcome};
use crate::workloads::{Op, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use talkback::{ContentConfig, PlannerOptions, SpeechRecognizer, Talkback, TextToSpeech};

/// Epochs per run. Each builds everything from scratch, which re-draws the
/// heap layout and spreads every slot's observations over the whole run.
/// `churn` and `analytic` set up in 0.15 s, of which the fastest of 8 moved
/// by 18–27 % between identical runs and the fastest of 16 by 3–8 %; an epoch
/// of the others costs 0.3–0.9 s, and 8 of them are as steady as that.
pub fn epochs(workload: Workload) -> usize {
    match workload {
        Workload::Churn | Workload::Analytic => 16,
        _ => 8,
    }
}

/// The planner options of every measured `run_query`: the defaults, on one
/// executor thread. The morsel workers are OS threads started per statement,
/// and on a few shared cores what their start and wake-up cost is the host
/// scheduler's doing: identical runs of `analytic` spread 26 % with `nproc`
/// workers and a few percent with one. What the workers cost or save is a
/// per-layer metric of the traced run instead (`exec.parallel_speedup`).
///
/// A session calls this for every statement, as `run_query` builds its
/// defaults for every statement: finding out the core count is part of what
/// a statement costs there (17 µs when this was written).
pub fn one_thread() -> PlannerOptions {
    PlannerOptions {
        parallelism: 1,
        ..PlannerOptions::default()
    }
}

/// One epoch's system under test: the facade over a freshly built database.
pub struct Session {
    pub system: Talkback,
    /// What a `run_query` slot is planned with: [`one_thread`], except in
    /// the traced run's passes with the default workers.
    pub options: fn() -> PlannerOptions,
    pub recognizer: SpeechRecognizer,
    pub tts: TextToSpeech,
    pub content: ContentConfig,
}

impl Session {
    /// Build the database, run the index DDL, collect statistics and wrap it
    /// all in the facade, each step a span; returns how long it all took.
    pub fn open(workload: Workload, quick: bool, tracer: &mut Tracer) -> (Session, Duration) {
        let start = Instant::now();
        let db = tracer.leaf("storage.build", || workload.database(quick));
        let mut system = Talkback::new(db);
        for ddl in workload.index_ddl() {
            tracer
                .leaf("index.build", || system.execute_ddl(ddl))
                .expect("index DDL of the workload");
        }
        tracer.leaf("stats.collect", || system.database().analyze());
        let session = Session {
            system,
            options: one_thread,
            recognizer: SpeechRecognizer::perfect(),
            tts: TextToSpeech::default(),
            content: ContentConfig::standard(),
        };
        (session, start.elapsed())
    }

    /// One slot: one call into the facade.
    pub fn call(&mut self, op: &Op) -> Result<Outcome, String> {
        let err = |e: talkback::TalkbackError| e.to_string();
        Ok(match op {
            Op::Run(sql) => Outcome::Rows(
                self.system
                    .run_query_with(sql, (self.options)())
                    .map_err(err)?,
            ),
            Op::ExplainQuery(sql) => {
                Outcome::Text(self.system.explain_query(sql).map_err(err)?.best)
            }
            Op::ExplainPlan(sql) => {
                Outcome::Text(self.system.explain_plan(sql).map_err(err)?.narration)
            }
            Op::ExplainResult(sql) => {
                Outcome::Text(self.system.explain_result(sql).map_err(err)?.narrative)
            }
            Op::Voice { question, sql } => Outcome::Text(
                self.system
                    .voice_answer(question, sql, &self.recognizer, &self.tts)
                    .map_err(err)?
                    .1,
            ),
            Op::Entity { relation, heading } => Outcome::Text(
                self.system
                    .describe_entity(relation, heading, &self.content)
                    .map_err(err)?,
            ),
            Op::Summary => Outcome::Text(
                self.system
                    .describe_database(&self.content, None)
                    .map_err(err)?,
            ),
            Op::Write(rows) => {
                let db = self.system.database_mut();
                for (table, values) in rows {
                    db.insert(table, values.clone())
                        .map_err(|e| e.to_string())?;
                }
                Outcome::Count(rows.len())
            }
            Op::Ddl(sql) => Outcome::Text(self.system.execute_ddl(sql).map_err(err)?),
            Op::Sweep { first } => {
                let db = self.system.database_mut();
                let mut removed = 0;
                // Children before the parent, as a checked delete would.
                // (The movie id is the first column of all three.)
                for table in ["GENRE", "CAST", "MOVIES"] {
                    removed += db
                        .table_mut(table)
                        .ok_or_else(|| format!("no table {table}"))?
                        .delete_where(|row| {
                            row.get(0)
                                .and_then(|id| id.as_i64())
                                .is_some_and(|id| id >= *first)
                        });
                }
                Outcome::Count(removed)
            }
        })
    }

    /// [`Session::call`], timed.
    pub fn timed(&mut self, op: &Op) -> (u64, Result<Outcome, String>) {
        timed(|| self.call(op))
    }
}

/// Time one slot; a panic is caught and reported as an error of that slot.
pub fn timed(call: impl FnOnce() -> Result<Outcome, String>) -> (u64, Result<Outcome, String>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(call));
    let ns = start.elapsed().as_nanos() as u64;
    (ns, result.unwrap_or_else(|_| Err("panicked".into())))
}

/// Everything a run keeps: running minima per slot, totals per pass, and
/// which slots ever failed.
pub struct Timing {
    /// Fastest timed observation of each slot, over all epochs and passes.
    pub fastest_ns: Vec<u64>,
    /// Fastest cold-pass observation of each slot, over all epochs.
    pub cold_ns: Vec<u64>,
    /// Build + DDL + analyze + facade, per epoch.
    pub setup_ns: Vec<u64>,
    /// Sum of slot times, per timed pass.
    pub pass_ns: Vec<u64>,
    /// The spin kernel's samples, taken between passes.
    pub calib_ns: Vec<u64>,
    /// What each slot answered in the first pass (see [`verify::check`]).
    pub fingerprints: Vec<Option<u64>>,
    /// The first failure of each slot that had one.
    pub failures: Vec<Option<String>>,
}

impl Timing {
    pub fn new(slots: usize) -> Timing {
        Timing {
            fastest_ns: vec![u64::MAX; slots],
            cold_ns: vec![u64::MAX; slots],
            setup_ns: Vec::new(),
            pass_ns: Vec::new(),
            calib_ns: Vec::new(),
            fingerprints: Vec::new(),
            failures: vec![None; slots],
        }
    }

    pub fn fail(&mut self, slot: usize, why: String) {
        self.failures[slot].get_or_insert(why);
    }

    /// Check one slot's answer and hold it against the first pass's.
    pub fn observe(&mut self, slot: usize, op: &Op, result: Result<Outcome, String>) {
        let checked = result.and_then(|outcome| verify::check(op, &outcome));
        let first_pass = self.fingerprints.len() <= slot;
        match checked {
            Err(why) => self.fail(slot, why),
            Ok(fingerprint) if first_pass => self.fingerprints.push(fingerprint),
            Ok(fingerprint) if fingerprint != self.fingerprints[slot] => {
                self.fail(slot, "answer differs from the first pass".into())
            }
            Ok(_) => {}
        }
        if self.fingerprints.len() <= slot {
            // A slot that failed in the first pass has nothing to compare.
            self.fingerprints.push(None);
        }
    }
}

/// Which running minima a pass feeds.
#[derive(Clone, Copy)]
pub enum Keep {
    Cold,
    Timed,
    /// Traced passes are timed by their spans.
    Nothing,
}

/// One pass over the slot list: time every slot through `call`, keep the
/// fastest observation, check the answer. Returns the sum of slot times.
pub fn pass(
    ops: &[Op],
    timing: &mut Timing,
    keep: Keep,
    mut call: impl FnMut(usize, &Op) -> (u64, Result<Outcome, String>),
) -> u64 {
    let mut total = 0;
    for (slot, op) in ops.iter().enumerate() {
        let (ns, result) = call(slot, op);
        total += ns;
        match keep {
            Keep::Cold => timing.cold_ns[slot] = timing.cold_ns[slot].min(ns),
            Keep::Timed => timing.fastest_ns[slot] = timing.fastest_ns[slot].min(ns),
            Keep::Nothing => {}
        }
        timing.observe(slot, op, result);
    }
    total
}

/// A fixed amount of arithmetic that touches no memory: how long it takes
/// says how busy the machine is, not how fast the engine is. Four chains
/// that do not wait for each other, because what disturbs a shared host is
/// a neighbour on the other hardware thread of the core, and a single chain
/// of dependent operations leaves it room enough not to notice.
pub fn spin_kernel() -> u64 {
    let start = Instant::now();
    let mut x = std::hint::black_box([
        0x2545_F491_4F6C_DD1Du64,
        0x9E37_79B9_7F4A_7C15,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
    ]);
    for _ in 0..100_000 {
        x = x.map(|x| x ^ (x << 13));
        x = x.map(|x| x ^ (x >> 7));
        x = x.map(|x| x ^ (x << 17));
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as u64
}

/// Timed facade passes over `ops` until `budget` is used, at least
/// `min_passes`, with a sample of the spin kernel before each; returns how
/// many there were.
pub fn timed_passes(
    session: &mut Session,
    ops: &[Op],
    timing: &mut Timing,
    min_passes: usize,
    budget: Duration,
) -> usize {
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes || start.elapsed() < budget {
        timing.calib_ns.push(spin_kernel());
        let total = pass(ops, timing, Keep::Timed, |_, op| session.timed(op));
        timing.pass_ns.push(total);
        passes += 1;
    }
    passes
}

/// The untraced run: [`epochs`] epochs of set-up, cold pass and timed
/// passes, spending about `seconds` on timed passes in total (at least two
/// per epoch, however long they take). `quick` is one epoch of one pass.
pub fn run(workload: Workload, ops: &[Op], quick: bool, seconds: f64) -> (Timing, Session) {
    let (epochs, min_passes, seconds) = if quick {
        (1, 1, 0.0)
    } else {
        (epochs(workload), 2, seconds)
    };
    let mut timing = Timing::new(ops.len());
    let mut left = Duration::from_secs_f64(seconds);
    let mut last = None;
    // Set-up spans are only of interest to a traced run.
    let mut tracer = Tracer::with_capacity(8 * epochs);
    for epoch in 0..epochs {
        // One system at a time, as a user would run it.
        drop(last.take());
        let (mut session, setup) = Session::open(workload, quick, &mut tracer);
        timing.setup_ns.push(setup.as_nanos() as u64);
        pass(ops, &mut timing, Keep::Cold, |_, op| session.timed(op));
        // An even share of what is left: the last pass of an epoch overruns
        // its share, and the epochs after it make up for that.
        let timed = Instant::now();
        let budget = left / (epochs - epoch) as u32;
        timed_passes(&mut session, ops, &mut timing, min_passes, budget);
        left = left.saturating_sub(timed.elapsed());
        last = Some(session);
    }
    (timing, last.expect("at least one epoch"))
}
