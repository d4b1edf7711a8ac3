//! The database doctor end to end: run a lopsided workload on a scaled
//! movie database, then let the engine initiate the conversation —
//! `SHOW WORKLOAD` (what ran), `ADVISE` (costed what-if prescriptions),
//! `CREATE INDEX` (take the advice), and `CHECKUP` (the sentinel's bill of
//! health).
//!
//! Run with: `cargo run --release -p talkback-examples --bin doctor_session`

use datastore::sample::{scaled_movie_database, ScaleConfig};
use talkback::{PlannerOptions, Talkback};

fn main() {
    let db = scaled_movie_database(ScaleConfig {
        movies: 1000,
        directors: 120,
        actors: 600,
        cast_per_movie: 30,
        genres_per_movie: 2,
        seed: 42,
    });
    let mut system = Talkback::new(db);
    let options = PlannerOptions::default();

    // A lopsided workload: the same point-and-range shape over CAST, with
    // shifting literals, twenty times — every run a full scan.
    println!("== the workload ==");
    for i in 0..20 {
        let sql = format!(
            "select c.role from CAST c where c.aid = {} and c.mid > {}",
            10 + i,
            100 + i
        );
        let rows = system.run_query_with(&sql, options).unwrap();
        if i == 0 {
            println!("{} -> {} rows (x20, literals shifting)", sql, rows.len());
        }
    }

    for statement in ["show workload", "advise", "checkup"] {
        println!("\n== {statement} ==");
        let report = system.execute_show(statement).unwrap();
        println!("{}", report.table);
        println!("{}", report.narration);
    }

    // Take the doctor's advice and re-measure.
    let advice =
        talkback::query::advise::recommendations(system.database(), PlannerOptions::default());
    if let Some(top) = advice.first() {
        println!("\n== taking the advice ==");
        println!("{}", system.execute_ddl(&top.create_sql).unwrap());
        let rows = system.run_query_with(&top.evidence_sql, options).unwrap();
        println!(
            "re-ran evidence query: {} rows via the new index",
            rows.len()
        );
        println!("\n== checkup after the cure ==");
        let report = system.execute_show("checkup").unwrap();
        println!("{}", report.narration);
    }
}
