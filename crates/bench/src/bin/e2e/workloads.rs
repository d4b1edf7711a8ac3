//! The five workloads: which database each runs on, and the seeded list of
//! statement *slots* (one facade call each) a pass walks through.
//!
//! The slot structure of a workload — how many slots of each shape — is the
//! same for every seed; the seed draws the literals and (where
//! slots do not depend on each other) the order. That keeps the percentiles
//! across the statement mix comparable between seeds.

use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
use datastore::{Database, Value};

/// The seed used when none is given, and the one `expected/*.digest` is for.
pub const DEFAULT_SEED: u64 = 20090104;

/// SplitMix64: small, seedable, and independent of the engine's own `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next_u64() % items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// One slot: a single call into the public `Talkback` facade (or, for the
/// writes of `churn`, into the `Database` it wraps).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `run_query`: the answer rows.
    Run(String),
    /// `explain_query`: the verify step — SQL (SELECT, DML or view) to text.
    ExplainQuery(String),
    /// `explain_plan` of an `explain [analyze] …` statement.
    ExplainPlan(String),
    /// `explain_result`: run and explain the answer's size.
    ExplainResult(String),
    /// `voice_answer`: the accessibility loop around one query.
    Voice { question: String, sql: String },
    /// `describe_entity` of the tuple with this heading value.
    Entity {
        relation: &'static str,
        heading: String,
    },
    /// `describe_database`.
    Summary,
    /// A write transaction: `Database::insert` of each row in order.
    Write(Vec<(&'static str, Vec<Value>)>),
    /// `execute_ddl`: `create index` / `drop index`.
    Ddl(String),
    /// Remove every movie with `id >= first` and its credits and genres,
    /// which restores the state the pass started from.
    Sweep { first: i64 },
}

impl Op {
    /// The SELECT text this slot runs or narrates, for the untimed
    /// narration-coverage metric.
    pub fn select_text(&self) -> Option<&str> {
        match self {
            Op::Run(sql) | Op::ExplainResult(sql) | Op::Voice { sql, .. } => Some(sql),
            Op::ExplainQuery(sql) if sql.starts_with("select") => Some(sql),
            Op::ExplainPlan(sql) => sql.find("select").map(|at| &sql[at..]),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Talkback,
    Lookup,
    Churn,
    Analytic,
    Nested,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Talkback,
        Workload::Lookup,
        Workload::Churn,
        Workload::Analytic,
        Workload::Nested,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Talkback => "talkback",
            Workload::Lookup => "lookup",
            Workload::Churn => "churn",
            Workload::Analytic => "analytic",
            Workload::Nested => "nested",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a pass changes the database (and restores it at its end).
    pub fn writes(self) -> bool {
        self == Workload::Churn
    }

    /// The database of one epoch, before index DDL. The data is the same
    /// for every seed, as the paper's fixture is: what statistics, index
    /// builds and scans cost depends on it, and the seed is there to vary
    /// the statements. The scaled databases are ×300 (3 000 movies, 9 000
    /// credits) and not ×1000: the more memory a pass walks through, the more
    /// it waits on a memory system shared with other tenants, and identical
    /// runs spread two to three times as far at ×1000 (see the README).
    /// `quick` shrinks them further so the unit tests finish in a debug build.
    pub fn database(self, quick: bool) -> Database {
        let scale = if quick { 20 } else { 300 };
        match self {
            Workload::Talkback => movie_database(),
            Workload::Lookup | Workload::Churn | Workload::Analytic => {
                scaled_movie_database(ScaleConfig {
                    movies: 10 * scale,
                    actors: 6 * scale,
                    directors: 2 * scale,
                    ..ScaleConfig::default()
                })
            }
            Workload::Nested => scaled_movie_database(ScaleConfig::default()),
        }
    }

    /// Index DDL run through `execute_ddl` after the database is built.
    pub fn index_ddl(self) -> &'static [&'static str] {
        match self {
            Workload::Lookup | Workload::Churn => &[
                "create index idx_movies_year on MOVIES (year)",
                "create index idx_cast_aid on CAST (aid)",
                "create index idx_cast_mid_aid on CAST (mid, aid)",
                "create index idx_actor_name on ACTOR (name) using hash",
            ],
            _ => &[],
        }
    }

    /// The slots of one pass, from the seed; the database tells which keys
    /// and names exist.
    pub fn slots(self, seed: u64, db: &Database, quick: bool) -> Vec<Op> {
        let mut rng = Rng::new(seed);
        let domain = Domain::of(db);
        match self {
            Workload::Talkback => talkback_slots(&mut rng, &domain, if quick { 10 } else { 1 }),
            Workload::Lookup => {
                let n = if quick { 300 } else { 10_000 };
                let mut slots: Vec<Op> = (0..n)
                    // The primary-key point read has double weight.
                    .map(|i| Op::Run(read_statement(&mut rng, &domain, i % 6 % 5)))
                    .collect();
                rng.shuffle(&mut slots);
                slots
            }
            Workload::Churn => churn_slots(&mut rng, &domain, if quick { 30 } else { 250 }),
            Workload::Analytic => analytic_slots(&mut rng, &domain, if quick { 20 } else { 1 }),
            Workload::Nested => nested_slots(&mut rng, &domain, if quick { 20 } else { 1 }),
        }
    }
}

/// What the generators need to know about the data to draw literals that
/// exist: key ranges and the name columns.
struct Domain {
    movies: i64,
    actors: i64,
    actor_names: Vec<String>,
    director_names: Vec<String>,
    movie_titles: Vec<String>,
    genres: Vec<String>,
    years: (i64, i64),
}

impl Domain {
    fn of(db: &Database) -> Domain {
        let texts = |table: &str, column: &str| -> Vec<String> {
            let mut values: Vec<String> = db
                .table(table)
                .expect("movie schema")
                .column_values(column)
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect();
            values.sort();
            values.dedup();
            values
        };
        let years: Vec<i64> = db
            .table("MOVIES")
            .expect("movie schema")
            .column_values("year")
            .iter()
            .filter_map(Value::as_i64)
            .collect();
        Domain {
            movies: db.table("MOVIES").expect("movie schema").len() as i64,
            actors: db.table("ACTOR").expect("movie schema").len() as i64,
            actor_names: texts("ACTOR", "name"),
            director_names: texts("DIRECTOR", "name"),
            movie_titles: texts("MOVIES", "title"),
            genres: texts("GENRE", "genre"),
            years: (
                years.iter().copied().min().unwrap_or(0),
                years.iter().copied().max().unwrap_or(0),
            ),
        }
    }
}

/// The five read shapes `lookup` and `churn` share, on the scaled database
/// with the indexes of [`Workload::index_ddl`].
fn read_statement(rng: &mut Rng, d: &Domain, shape: usize) -> String {
    match shape {
        // Primary-key point read.
        0 => format!(
            "select m.title from MOVIES m where m.id = {}",
            rng.range(1, d.movies)
        ),
        // Leading-prefix slice of the composite CAST(mid, aid) index.
        1 => format!(
            "select c.role from CAST c where c.mid = {}",
            rng.range(1, d.movies)
        ),
        // Index-nested-loop join driven by one actor found by hashed name.
        2 => format!(
            "select m.title from ACTOR a, CAST c, MOVIES m \
             where a.name = '{}' and c.aid = a.id and m.id = c.mid",
            rng.pick(&d.actor_names)
        ),
        // One year through the ordered index, narrowed by an id range.
        3 => format!(
            "select m.title from MOVIES m where m.year = {} and m.id <= {}",
            rng.range(d.years.0, d.years.1),
            rng.range(d.movies / 2, d.movies)
        ),
        // Index-only: both columns live in the composite index's key.
        _ => format!(
            "select c.mid, c.aid from CAST c where c.mid = {}",
            rng.range(1, d.movies)
        ),
    }
}

/// `reads` reads in a fixed shape order, a write transaction after every
/// tenth, an index built and dropped again halfway and at the end, and a
/// final sweep. The order is not shuffled: what a read costs here depends on
/// what was written just before it.
fn churn_slots(rng: &mut Rng, d: &Domain, reads: usize) -> Vec<Op> {
    const GENRES: [&str; 4] = ["drama", "comedy", "action", "thriller"];
    let first = d.movies + 1;
    let mut next = first;
    let mut slots = Vec::new();
    for i in 0..reads {
        // Shift the cycle by one after every write, so each shape takes its
        // turn as the first read that finds the statistics gone.
        slots.push(Op::Run(read_statement(rng, d, (i + i / 10) % 5)));
        if (i + 1) % 10 == 0 {
            let mut rows = vec![(
                "MOVIES",
                vec![
                    Value::int(next),
                    Value::text(format!("The New Arrival {next}")),
                    Value::int(rng.range(d.years.0, d.years.1)),
                ],
            )];
            let lead = rng.range(1, d.actors - 2);
            for aid in lead..lead + 3 {
                rows.push((
                    "CAST",
                    vec![
                        Value::int(next),
                        Value::int(aid),
                        Value::text(format!("Role {aid}")),
                    ],
                ));
            }
            let g = rng.range(0, 3) as usize;
            for genre in [GENRES[g], GENRES[(g + 1) % 4]] {
                rows.push(("GENRE", vec![Value::int(next), Value::text(genre)]));
            }
            slots.push(Op::Write(rows));
            next += 1;
        }
        if (i + 1) % (reads / 2) == 0 {
            slots.push(Op::Ddl(
                "create index idx_movies_title on MOVIES (title)".into(),
            ));
            slots.push(Op::Ddl("drop index idx_movies_title".into()));
        }
    }
    slots.push(Op::Sweep { first });
    slots
}

/// Ten executor-bound shapes on the scaled database without secondary
/// indexes: 200 slots, two thirds of them cheap scans and aggregates, six
/// of them joins (a quarter of the time). The counts put the median inside
/// the cheap group and the 95th percentile inside the ten identical slots
/// of the many-groups aggregate, not on a boundary between two shapes.
/// (`shrink` divides the counts, for the unit tests.)
fn analytic_slots(rng: &mut Rng, d: &Domain, shrink: usize) -> Vec<Op> {
    let (lo, hi) = d.years;
    let mut slots = Vec::new();
    let mut add = |count: usize, rng: &mut Rng, make: &dyn Fn(&mut Rng) -> String| {
        for _ in 0..count.div_ceil(shrink) {
            slots.push(Op::Run(make(rng)));
        }
    };
    // Fused scan → aggregate.
    add(46, rng, &|_| {
        "select m.year, count(*), sum(m.id), min(m.id), max(m.id) \
         from MOVIES m group by m.year"
            .into()
    });
    // Fused scan → filter → aggregate.
    add(46, rng, &|rng| {
        format!(
            "select m.year, count(*), max(m.id) from MOVIES m \
             where m.year >= {} group by m.year",
            rng.range(lo, lo + 9)
        )
    });
    // Scan + filter.
    add(44, rng, &|rng| {
        format!(
            "select m.title from MOVIES m where m.year = {}",
            rng.range(lo, hi)
        )
    });
    // Full sort.
    add(16, rng, &|_| {
        "select m.id, m.title, m.year from MOVIES m order by m.year, m.id".into()
    });
    // Top-k.
    add(16, rng, &|rng| {
        format!(
            "select m.id, m.title, m.year from MOVIES m order by m.year, m.id limit {}",
            rng.range(10, 20)
        )
    });
    // Few groups over the second-largest table.
    add(16, rng, &|_| {
        "select g.genre, count(*) from GENRE g group by g.genre".into()
    });
    // Many groups over the largest table.
    add(10, rng, &|_| {
        "select c.aid, count(*) from CAST c group by c.aid".into()
    });
    // Two-way join + aggregate.
    add(2, rng, &|_| {
        "select m.year, count(*) from MOVIES m, CAST c where m.id = c.mid group by m.year".into()
    });
    // Three-way join behind a filter on the smallest relation.
    add(2, rng, &|rng| {
        format!(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.id <= {}",
            rng.range(d.actors / 10, d.actors / 10 + 9)
        )
    });
    // The unfiltered three-way join.
    add(2, rng, &|_| {
        "select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id".into()
    });
    rng.shuffle(&mut slots);
    slots
}

const Q6: &str = "select m.title from MOVIES m where not exists ( \
     select * from GENRE g1 where not exists ( \
     select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))";

const Q9: &str = "select a.name from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id \
     and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
     where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)";

fn q5(actor: &str) -> String {
    format!(
        "select m.title from MOVIES m where m.id in ( \
         select c.mid from CAST c where c.aid in ( \
         select a.id from ACTOR a where a.name = '{actor}'))"
    )
}

fn q7(genres: i64) -> String {
    format!(
        "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
         group by m.id, m.title \
         having {genres} < (select count(*) from GENRE g where g.mid = m.id)"
    )
}

fn q8(years: i64) -> String {
    format!(
        "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id \
         group by a.id, a.name having count(distinct m.year) = {years}"
    )
}

/// Q9 once, Q6 twelve times, and 207 slots of the cheaper nested shapes
/// (every `shrink`-th slot only, for the unit tests).
fn nested_slots(rng: &mut Rng, d: &Domain, shrink: usize) -> Vec<Op> {
    let mut slots = vec![Op::Run(Q9.into())];
    slots.extend((0..12 / shrink.min(12)).map(|_| Op::Run(Q6.into())));
    for i in 0..207 / shrink {
        slots.push(Op::Run(match i % 5 {
            0 => q5(rng.pick(&d.actor_names).as_str()),
            1 => q7(rng.range(0, 1)),
            2 => q8(rng.range(1, 2)),
            // Correlated EXISTS.
            3 => format!(
                "select m.title from MOVIES m where m.year >= {} and exists \
                 (select * from CAST c where c.mid = m.id and c.aid <= {})",
                rng.range(d.years.0, d.years.0 + 9),
                rng.range(d.actors / 2, d.actors / 2 + 9)
            ),
            // NOT IN (NULL-aware anti-join).
            _ => format!(
                "select a.name from ACTOR a where a.id not in \
                 (select c.aid from CAST c where c.mid <= {})",
                rng.range(d.movies / 2, d.movies / 2 + 9)
            ),
        }));
    }
    rng.shuffle(&mut slots);
    slots
}

/// The paper's loop on its own fixture: 3000 single facade calls (every
/// `shrink`-th only, for the unit tests) over the Q1–Q9 shapes — half of
/// them the verify step, the rest plan explanations, spoken answers, result
/// explanations and content narration.
fn talkback_slots(rng: &mut Rng, d: &Domain, shrink: usize) -> Vec<Op> {
    let shape = |rng: &mut Rng, i: usize| -> String {
        match i % 9 {
            0 => format!(
                "select m.title from MOVIES m, CAST c, ACTOR a \
                 where m.id = c.mid and c.aid = a.id and a.name = '{}'",
                rng.pick(&d.actor_names)
            ),
            1 => format!(
                "select a.name, m.title \
                 from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
                 where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
                 and m.id = g.mid and d.name = '{}' and g.genre = '{}'",
                rng.pick(&d.director_names),
                rng.pick(&d.genres)
            ),
            2 => "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
                  where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
                  and a1.id > a2.id"
                .to_string(),
            3 => "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title"
                .to_string(),
            4 => q5(rng.pick(&d.actor_names).as_str()),
            5 => Q6.to_string(),
            6 => q7(rng.range(0, 2)),
            7 => q8(rng.range(1, 2)),
            _ => Q9.to_string(),
        }
    };
    let mut slots = Vec::new();
    let mut add = |rng: &mut Rng, count: usize, make: &dyn Fn(&mut Rng, usize) -> Op| {
        for i in 0..count / shrink {
            slots.push(make(rng, i));
        }
    };
    add(rng, 1500, &|rng, i| Op::ExplainQuery(shape(rng, i)));
    add(rng, 300, &|rng, i| {
        Op::ExplainPlan(format!("explain {}", shape(rng, i)))
    });
    add(rng, 150, &|rng, i| {
        Op::ExplainPlan(format!("explain analyze {}", shape(rng, i)))
    });
    add(rng, 300, &|rng, i| {
        let sql = shape(rng, i);
        Op::Voice {
            question: format!("please answer question number {i}"),
            sql,
        }
    });
    add(rng, 300, &|rng, i| Op::ExplainResult(shape(rng, i)));
    add(rng, 120, &|rng, i| match i % 3 {
        0 => Op::Entity {
            relation: "DIRECTOR",
            heading: rng.pick(&d.director_names).clone(),
        },
        1 => Op::Entity {
            relation: "ACTOR",
            heading: rng.pick(&d.actor_names).clone(),
        },
        _ => Op::Entity {
            relation: "MOVIES",
            heading: rng.pick(&d.movie_titles).clone(),
        },
    });
    add(rng, 30, &|_, _| Op::Summary);
    add(rng, 300, &|rng, i| {
        let id = rng.range(100, 999);
        Op::ExplainQuery(match i % 4 {
            0 => format!(
                "insert into MOVIES (id, title, year) values ({id}, 'New Film {id}', {})",
                rng.range(1990, 2009)
            ),
            1 => format!(
                "update MOVIES set year = {} where title = '{}'",
                rng.range(1990, 2009),
                rng.pick(&d.movie_titles)
            ),
            2 => format!("delete from GENRE where genre = '{}'", rng.pick(&d.genres)),
            _ => format!(
                "create view V{id} as select m.title from MOVIES m, GENRE g \
                 where m.id = g.mid and g.genre = '{}'",
                rng.pick(&d.genres)
            ),
        })
    });
    rng.shuffle(&mut slots);
    slots
}
