use talkback::{PlannerOptions, Talkback};

fn main() {
    let system = Talkback::new(datastore::sample::movie_database());
    let q6 = "explain analyze select m.title from MOVIES m where not exists ( \
        select * from GENRE g1 where not exists ( \
            select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))";
    for use_indexes in [false, true] {
        let opts = PlannerOptions {
            use_indexes,
            ..PlannerOptions::default()
        };
        let e = system.explain_plan_with(q6, opts).unwrap();
        println!("=== use_indexes={use_indexes} ===");
        println!("{}", e.tree);
        println!("{}", e.narration);
        println!();
    }
}
