//! The metrics by name: what `BENCHMARK.json` lists, what `--list` prints,
//! and how each is computed from a run.

use crate::run::Timing;
use crate::stats::{median, percentile, sorted};
use crate::trace::{self_times, Traced, NO_SLOT, PROBES};
use crate::workloads::Op;
use datastore::obs::Counter;
use std::collections::HashMap;
use talkback::{narrative_metrics, Talkback};

/// A metric as `BENCHMARK.json` lists it: name, unit, and which way is
/// better.
pub type Def = (&'static str, &'static str, &'static str);

/// Every end-to-end metric, printed by an untraced run. The share of failed
/// slots is reported beside them (as `failed` out of `attempted`), not among
/// them: it must be 0, and a bound is a share of the parent's value.
pub const END_TO_END: [Def; 6] = [
    ("stmt_per_s", "1/s", "higher"),
    ("stmt_p50_us", "us", "lower"),
    ("stmt_p95_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("narration_coverage", "ratio", "higher"),
];

/// Every per-layer metric, printed by a traced run. They have no bound; the
/// direction says which way an optimisation of that layer should move them.
/// A `<span>_us` that [`per_layer`] does not compute otherwise is that span's
/// time in µs per slot of the workload, so the layers of a workload add up to
/// its mean statement.
pub const PER_LAYER: [Def; 50] = [
    ("sqlparse.normalize_us", "us", "lower"),
    ("sqlparse.lex_us", "us", "lower"),
    ("sqlparse.parse_us", "us", "lower"),
    ("sqlparse.bind_us", "us", "lower"),
    ("sqlparse.tokens_per_stmt", "count", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("planner.decisions_per_stmt", "count", "lower"),
    ("stats.collect_us", "us", "lower"),
    ("exec.execute_us", "us", "lower"),
    ("adaptive.absorb_us", "us", "lower"),
    ("obs.record_us", "us", "lower"),
    ("storage.build_s", "s", "lower"),
    ("storage.insert_us", "us", "lower"),
    ("storage.sweep_us", "us", "lower"),
    ("index.build_us", "us", "lower"),
    ("index.ddl_us", "us", "lower"),
    ("query.translate_us", "us", "lower"),
    ("query.narrate_plan_us", "us", "lower"),
    ("query.explain_plan_us", "us", "lower"),
    ("query.explain_result_us", "us", "lower"),
    ("schemagraph.graph_us", "us", "lower"),
    ("schemagraph.classify_us", "us", "lower"),
    ("content.describe_entity_us", "us", "lower"),
    ("content.describe_database_us", "us", "lower"),
    ("pipeline.recognize_us", "us", "lower"),
    ("pipeline.synthesize_us", "us", "lower"),
    ("exec.rows_scanned_per_row_out", "ratio", "lower"),
    ("exec.index_probes_per_stmt", "count", "lower"),
    ("exec.empty_probe_ratio", "ratio", "lower"),
    ("exec.hash_build_rows_per_stmt", "count", "lower"),
    ("exec.apply_evals_per_stmt", "count", "lower"),
    ("exec.apply_cache_hit_ratio", "ratio", "higher"),
    ("exec.workers_spawned_per_stmt", "count", "lower"),
    ("exec.morsels_per_stmt", "count", "lower"),
    ("exec.parallel_speedup", "ratio", "higher"),
    ("adaptive.cache_hit_ratio", "ratio", "higher"),
    ("adaptive.cache_evictions", "count", "lower"),
    ("adaptive.feedback_overrides", "count", "lower"),
    ("obs.journal_recorded", "count", "higher"),
    ("query.words_per_narration", "count", "lower"),
    ("query.coverage", "ratio", "higher"),
    ("query.repetition", "ratio", "lower"),
    ("query.declarative_share", "ratio", "higher"),
    ("content.words_per_narrative", "count", "lower"),
    ("facade.other_us", "us", "lower"),
    ("adaptive.hit_saving_us", "us", "higher"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.pass_spread_pct", "%", "lower"),
    ("harness.calib_us", "us", "lower"),
    ("harness.noise_index", "ratio", "lower"),
];

/// The paper's expressiveness proxies over the SELECT text of every slot
/// that has one (untimed, exact), so that a speed-up cannot be bought by
/// saying less; and the length of the workload's content narratives.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Narration {
    pub coverage: f64,
    pub words: f64,
    pub repetition: f64,
    pub declarative_share: f64,
    pub content_words: f64,
    /// How many slots have a SELECT text.
    pub selects: usize,
}

pub fn narration_quality(system: &Talkback, ops: &[Op]) -> Narration {
    // Each distinct text is narrated once and counts once per slot it fills,
    // so the weight of a shape is fixed by the workload, not by how many
    // different literals a seed happens to draw for it.
    let mut by_text: HashMap<&str, Option<[f64; 4]>> = HashMap::new();
    let mut q = Narration::default();
    for sql in ops.iter().filter_map(Op::select_text) {
        q.selects += 1;
        let measured = by_text.entry(sql).or_insert_with(|| {
            let query = sqlparse::parse_query(sql).ok()?;
            let translation = system.explain_query(sql).ok()?;
            let m = narrative_metrics(&query, &translation.best);
            let declarative = f64::from(u8::from(translation.narrative.is_some()));
            Some([
                m.element_coverage,
                m.words as f64,
                m.repetition,
                declarative,
            ])
        });
        // A text that cannot be narrated covers nothing.
        let [coverage, words, repetition, declarative] = measured.unwrap_or_default();
        q.coverage += coverage;
        q.words += words;
        q.repetition += repetition;
        q.declarative_share += declarative;
    }
    let n = q.selects.max(1) as f64;
    q.coverage /= n;
    q.words /= n;
    q.repetition /= n;
    q.declarative_share /= n;

    let content = talkback::ContentConfig::standard();
    let narratives: Vec<usize> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Entity { relation, heading } => {
                system.describe_entity(relation, heading, &content).ok()
            }
            Op::Summary => system.describe_database(&content, None).ok(),
            _ => None,
        })
        .map(|text| text.split_whitespace().count())
        .collect();
    q.content_words = narratives.iter().sum::<usize>() as f64 / narratives.len().max(1) as f64;
    q
}

/// The fastest of the spin kernel's samples, and how much slower the median
/// one was: 1.0 on a quiet machine.
pub fn noise(calib_ns: &[u64]) -> (f64, f64) {
    let fastest = calib_ns.iter().copied().min().unwrap_or(0) as f64;
    let samples: Vec<f64> = calib_ns.iter().map(|&ns| ns as f64).collect();
    let index = if fastest > 0.0 {
        median(&samples) / fastest
    } else {
        1.0
    };
    (fastest / 1e3, index)
}

/// `(median pass − fastest pass) ÷ fastest`, in percent.
pub fn pass_spread_pct(pass_ns: &[u64]) -> f64 {
    let fastest = pass_ns.iter().copied().min().unwrap_or(0) as f64;
    let passes: Vec<f64> = pass_ns.iter().map(|&ns| ns as f64).collect();
    if fastest > 0.0 {
        (median(&passes) - fastest) / fastest * 100.0
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(timing: &Timing, narration: &Narration, peak_rss_mib: f64) -> Vec<f64> {
    let slots = timing.fastest_ns.len() as f64;
    let total_ns: u64 = timing.fastest_ns.iter().sum();
    let ascending = sorted(&timing.fastest_ns);
    let setup_ns =
        timing.setup_ns.iter().min().copied().unwrap_or(0) + timing.cold_ns.iter().sum::<u64>();
    vec![
        slots / (total_ns as f64 / 1e9),
        percentile(&ascending, 0.50) as f64 / 1e3,
        percentile(&ascending, 0.95) as f64 / 1e3,
        setup_ns as f64 / 1e9,
        peak_rss_mib,
        narration.coverage,
    ]
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(traced: &Traced, narration: &Narration) -> Vec<f64> {
    let spans = &traced.tracer.spans;
    let own = self_times(spans);
    let slots = traced.timing.fastest_ns.len();
    let n = slots as f64;

    // Per (span name, slot): the self time summed within each traced pass,
    // then the fastest pass. Roots are kept under their own names.
    let mut per_pass: HashMap<(&str, u32), HashMap<u32, u64>> = HashMap::new();
    let mut setup: HashMap<&str, Vec<u64>> = HashMap::new();
    for (span, own_ns) in spans.iter().zip(&own) {
        if span.slot == NO_SLOT {
            setup.entry(span.name).or_default().push(*own_ns);
        } else {
            // A root's own time is glue; what it stands for is its extent.
            let ns = match span.parent {
                None => span.end_ns - span.start_ns,
                Some(_) => *own_ns,
            };
            *per_pass
                .entry((span.name, span.slot))
                .or_default()
                .entry(span.pass)
                .or_default() += ns;
        }
    }
    let mut layer_ns: HashMap<&str, u64> = HashMap::new();
    let mut work_ns = vec![0u64; slots]; // non-probe layer time per slot
    let mut root_ns = vec![0u64; slots]; // the whole decomposed slot
    for ((name, slot), passes) in &per_pass {
        let fastest = passes.values().copied().min().unwrap_or(0);
        *layer_ns.entry(name).or_default() += fastest;
        if name.starts_with("facade.") {
            root_ns[*slot as usize] += fastest;
        } else if !PROBES.contains(name) {
            work_ns[*slot as usize] += fastest;
        }
    }
    let layer_us = |span: &str| layer_ns.get(span).copied().unwrap_or(0) as f64 / 1e3 / n;
    let setup_mean_ns = |span: &str| {
        let all = setup.get(span).map_or(&[][..], Vec::as_slice);
        all.iter().sum::<u64>() as f64 / all.len().max(1) as f64
    };

    // (`Counter::ALL` is in declaration order.)
    let counter = |c: Counter| traced.counters[c as usize] as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let statements = traced.statements as f64;

    let untraced_ns: u64 = traced.timing.fastest_ns.iter().sum();
    let traced_ns: u64 = root_ns.iter().sum();
    let savings: Vec<f64> = (0..slots)
        .filter(|&slot| traced.hit[slot])
        .map(|slot| root_ns[slot] as f64 - traced.timing.fastest_ns[slot] as f64)
        .collect();
    let (calib_us, noise_index) = noise(&traced.timing.calib_ns);

    // What the default `nproc` workers do, from the passes that had them.
    let with_workers = |c: Counter| ratio(traced.workers.counters[c as usize] as f64, statements);
    let hits = counter(Counter::PlanCacheHits);
    let computed = HashMap::from([
        (
            "sqlparse.tokens_per_stmt",
            ratio(traced.counts.tokens as f64, traced.counts.lexed as f64),
        ),
        (
            "planner.decisions_per_stmt",
            ratio(traced.counts.decisions as f64, traced.counts.planned as f64),
        ),
        ("storage.build_s", setup_mean_ns("storage.build") / 1e9),
        ("index.build_us", setup_mean_ns("index.build") / 1e3),
        (
            "exec.rows_scanned_per_row_out",
            ratio(counter(Counter::RowsScanned), counter(Counter::RowsEmitted)),
        ),
        (
            "exec.index_probes_per_stmt",
            ratio(counter(Counter::IndexProbes), statements),
        ),
        (
            "exec.empty_probe_ratio",
            ratio(
                counter(Counter::EmptyIndexProbes),
                counter(Counter::IndexProbes),
            ),
        ),
        (
            "exec.hash_build_rows_per_stmt",
            ratio(counter(Counter::HashBuildRows), statements),
        ),
        (
            "exec.apply_evals_per_stmt",
            ratio(counter(Counter::ApplyEvaluations), statements),
        ),
        (
            "exec.apply_cache_hit_ratio",
            ratio(
                counter(Counter::ApplyCacheHits),
                counter(Counter::ApplyEvaluations),
            ),
        ),
        (
            "exec.workers_spawned_per_stmt",
            with_workers(Counter::WorkersSpawned),
        ),
        (
            "exec.morsels_per_stmt",
            with_workers(Counter::MorselsClaimed),
        ),
        (
            "exec.parallel_speedup",
            ratio(
                untraced_ns as f64,
                traced.workers.fastest_ns.iter().sum::<u64>() as f64,
            ),
        ),
        (
            "adaptive.cache_hit_ratio",
            ratio(hits, hits + counter(Counter::PlanCacheMisses)),
        ),
        (
            "adaptive.cache_evictions",
            counter(Counter::PlanCacheEvictions),
        ),
        (
            "adaptive.feedback_overrides",
            counter(Counter::FeedbackOverridesApplied),
        ),
        ("obs.journal_recorded", traced.journal_recorded as f64),
        ("query.words_per_narration", narration.words),
        ("query.coverage", narration.coverage),
        ("query.repetition", narration.repetition),
        ("query.declarative_share", narration.declarative_share),
        ("content.words_per_narrative", narration.content_words),
        (
            "facade.other_us",
            (untraced_ns as f64 - work_ns.iter().sum::<u64>() as f64) / 1e3 / n,
        ),
        (
            "adaptive.hit_saving_us",
            ratio(savings.iter().sum::<f64>() / 1e3, savings.len() as f64),
        ),
        (
            "harness.trace_overhead_pct",
            ratio(traced_ns as f64 - untraced_ns as f64, untraced_ns as f64) * 100.0,
        ),
        (
            "harness.pass_spread_pct",
            pass_spread_pct(&traced.timing.pass_ns),
        ),
        ("harness.calib_us", calib_us),
        ("harness.noise_index", noise_index),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, ..)| {
            computed.get(name).copied().unwrap_or_else(|| {
                let span = name.strip_suffix("_us").unwrap_or(name);
                // The plan-explanation slots' root stands for the whole call.
                layer_us(
                    span.replace("query.explain_plan", "facade.explain_plan")
                        .as_str(),
                )
            })
        })
        .collect()
}
