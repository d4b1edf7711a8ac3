//! One conjunct classifier: the binder files each WHERE conjunct once
//! (`sqlparse::ConjunctRole`), and the planner, the query graph and the
//! translator read that role instead of the qualifiers as written.
//!
//! * *no conjunct is lost.* Over Q1–Q9 and the movie and EMP/DEPT shapes of
//!   `translation_cache.rs`, every WHERE conjunct of every block has exactly
//!   one role, and the planner's join graph and the query graph each account
//!   for every conjunct exactly once.
//! * *spelling does not matter.* A variant of each statement with its
//!   qualifiers upper-cased, or dropped where the column is unambiguous,
//!   files every conjunct as the original does and plans the same tree.
//! * *the disagreements this removed*, one statement each: unqualified join
//!   columns, unqualified selections, a case-twisted self-equality, and an
//!   `IN` inside an `OR`.
//!
//! The respelling draws from fixed seeds; `ROLES_SEED=<u64>` adds one more
//! (CI passes the clock), and every failure names its seed and statement.

use datastore::sample::{employee_database, movie_database};
use datastore::{Catalog, Database};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schemagraph::QueryGraph;
use sqlparse::ast::{Expr, SelectItem, SelectStatement};
use sqlparse::{bind_query, parse_query, BoundQuery, ConjunctRole};
use talkback::planner::logical::build_join_graph;
use talkback::{PlannerOptions, Talkback};

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0044_0001, 0x0044_0002, 0x0044_0003];
    if let Ok(extra) = std::env::var("ROLES_SEED") {
        seeds.push(extra.parse().expect("ROLES_SEED is a u64"));
    }
    seeds
}

/// Q1–Q9 and the movie shapes of the translation-cache differential.
const MOVIE_STATEMENTS: [&str; 19] = [
    "select m.title from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
    "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
     where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
     and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
    "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
     where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
     and a1.id > a2.id",
    "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
    "select m.title from MOVIES m where m.id in ( \
     select c.mid from CAST c where c.aid in ( \
     select a.id from ACTOR a where a.name = 'Brad Pitt'))",
    "select m.title from MOVIES m where not exists ( \
     select * from GENRE g1 where not exists ( \
     select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
    "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
     group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
    "select a.id, a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
     group by a.id, a.name having count(distinct m.year) = 1",
    "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
     and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
     where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
    "select m.title from MOVIES m where m.year in (12, 2004)",
    "select m.title from MOVIES m where m.title not in ('Troy', 'Seven')",
    "select m.title, m.year from MOVIES m where m.year = -5",
    "select m.title from MOVIES m where m.title = 'Troy' and m.year <> 2",
    "select m.title from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'drama' \
     order by m.year desc limit 3",
    "select m.title from MOVIES m where m.title like 'T%'",
    "select a.name from ACTOR a where 'Troy' <= all (select m.title from MOVIES m)",
    "select m.title from MOVIES m where exists (select * from CAST c where c.mid = m.id) \
     and m.year > 1990",
    "select m.title from MOVIES m where m.id not in (select g.mid from GENRE g \
     where g.genre = 'drama')",
    "select m.title from MOVIES m where m.year > (select min(m1.year) from MOVIES m1 \
     where m1.id < m.id)",
];

/// The EMP/DEPT shapes of the translation-cache differential.
const EMPLOYEE_STATEMENTS: [&str; 4] = [
    "select e.name from EMP e where e.name = 'Smith'",
    "select e.name, d.dname from EMP e, DEPT d \
     where e.did = d.did and d.dname = 'Sales' and e.sal > 12",
    "select e1.name from EMP e1, EMP e2, DEPT d \
     where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal",
    "select d.dname from DEPT d where d.dname in ('Sales', 'Toys', 'Sales')",
];

/// Every expression of a block, mutably, without entering subquery bodies.
fn exprs_mut(q: &mut SelectStatement) -> Vec<&mut Expr> {
    let mut out = Vec::new();
    for item in &mut q.projection {
        if let SelectItem::Expr { expr, .. } = item {
            out.push(expr);
        }
    }
    out.extend(q.selection.as_mut());
    out.extend(q.group_by.iter_mut());
    out.extend(q.having.as_mut());
    out.extend(q.order_by.iter_mut().map(|o| &mut o.expr));
    out
}

/// The subqueries directly in `e`, mutably.
fn subqueries_mut<'a>(e: &'a mut Expr, out: &mut Vec<&'a mut SelectStatement>) {
    match e {
        Expr::InSubquery { expr, subquery, .. }
        | Expr::QuantifiedComparison {
            left: expr,
            subquery,
            ..
        } => {
            subqueries_mut(expr, out);
            out.push(subquery);
        }
        Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => out.push(subquery),
        Expr::BinaryOp { left, right, .. } => {
            subqueries_mut(left, out);
            subqueries_mut(right, out);
        }
        Expr::UnaryOp { expr, .. } | Expr::IsNull { expr, .. } => subqueries_mut(expr, out),
        _ => {}
    }
}

/// Whether `qualifier.column` still names the same tuple variable with its
/// qualifier dropped: the binder looks for an unqualified name in the
/// innermost block first, then outward, and takes it only where exactly one
/// tuple variable has the column. `scopes` are (alias, table) per block,
/// outermost first.
fn droppable(
    catalog: &Catalog,
    scopes: &[Vec<(String, String)>],
    qualifier: &str,
    column: &str,
) -> bool {
    let has = |table: &str| catalog.table(table).is_some_and(|t| t.has_column(column));
    for scope in scopes.iter().rev() {
        let holders: Vec<&str> = (scope.iter())
            .filter(|(_, t)| has(t))
            .map(|(a, _)| a.as_str())
            .collect();
        if scope.iter().any(|(a, _)| a.eq_ignore_ascii_case(qualifier)) {
            return matches!(holders[..], [one] if one.eq_ignore_ascii_case(qualifier));
        }
        if !holders.is_empty() {
            return false;
        }
    }
    false
}

/// Respell every qualified reference in the WHERE clause of each block of
/// `q`: kept, upper-cased, or dropped where that is unambiguous (counted in
/// `dropped`). A projected or grouped reference is shown as written, so it
/// is kept.
fn respell(
    q: &mut SelectStatement,
    catalog: &Catalog,
    scopes: &mut Vec<Vec<(String, String)>>,
    rng: &mut StdRng,
    dropped: &mut usize,
) {
    let own = q
        .from
        .iter()
        .map(|t| (t.variable().to_string(), t.table.clone()));
    scopes.push(own.collect());
    if let Some(selection) = &mut q.selection {
        selection.column_refs_mut(&mut |c| {
            let Some(qualifier) = c.qualifier.clone() else {
                return;
            };
            match rng.gen_range(0..3) {
                0 => {}
                1 => c.qualifier = Some(qualifier.to_uppercase()),
                _ if droppable(catalog, scopes, &qualifier, &c.column) => {
                    c.qualifier = None;
                    *dropped += 1;
                }
                _ => {}
            }
        });
    }
    let mut subqueries = Vec::new();
    for e in exprs_mut(q) {
        subqueries_mut(e, &mut subqueries);
    }
    for sub in subqueries {
        respell(sub, catalog, scopes, rng, dropped);
    }
    scopes.pop();
}

/// Each block of `q` with its binding, pre-order — the order the query
/// graph numbers its blocks in.
fn blocks<'a>(
    q: &'a SelectStatement,
    bound: &'a BoundQuery,
    out: &mut Vec<(&'a SelectStatement, &'a BoundQuery)>,
) {
    out.push((q, bound));
    let where_subs = q.selection.iter().flat_map(Expr::subqueries);
    let having_subs = q.having.iter().flat_map(Expr::subqueries);
    let subs: Vec<&SelectStatement> = where_subs.chain(having_subs).collect();
    assert_eq!(subs.len(), bound.subqueries.len(), "{q}");
    for (sub, sub_bound) in subs.into_iter().zip(&bound.subqueries) {
        blocks(sub, sub_bound, out);
    }
}

/// Every WHERE conjunct of every block has one role, and the join graph and
/// the query graph each file every one exactly once. Returns the roles,
/// block by block.
fn check_no_conjunct_is_lost(db: &Database, sql: &str) -> Vec<Vec<ConjunctRole>> {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let bound = bind_query(db.catalog(), &q).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let graph = QueryGraph::build(db.catalog(), &q, &bound);
    let mut all = Vec::new();
    blocks(&q, &bound, &mut all);
    assert_eq!(all.len(), graph.blocks.len(), "{sql}");
    for ((block, block_bound), graph_block) in all.iter().zip(&graph.blocks) {
        let conjuncts = block.where_conjuncts();
        assert_eq!(conjuncts.len(), block_bound.roles.len(), "{sql}: {block}");
        let subquery = |r: &&ConjunctRole| matches!(r, ConjunctRole::Subquery { .. });
        let connectors = block_bound.roles.iter().filter(subquery).count();

        // The planner's join graph: an edge, a pushed selection or a
        // residual each, and the subquery pass takes the rest.
        let join_graph = build_join_graph(block, block_bound);
        let pushed: usize = join_graph.relations.iter().map(|r| r.pushed.len()).sum();
        let planned = join_graph.edges.len() + pushed + join_graph.residual.len() + connectors;
        assert_eq!(planned, conjuncts.len(), "{sql}: join graph of {block}");

        // The query graph: a join edge, a class constraint, or a nesting
        // edge (a whole connector, or a correlation of the nested block).
        let mut drawn: Vec<String> = graph_block
            .joins
            .iter()
            .map(|j| j.predicate.clone())
            .collect();
        for class in &graph_block.classes {
            drawn.extend(class.where_constraints.iter().cloned());
        }
        for (conjunct, role) in conjuncts.iter().zip(&block_bound.roles) {
            if let ConjunctRole::Correlation { .. } | ConjunctRole::Subquery { whole: true, .. } =
                role
            {
                drawn.push(conjunct.to_string());
            }
        }
        let mut written: Vec<String> = conjuncts.iter().map(|c| c.to_string()).collect();
        drawn.sort();
        written.sort();
        assert_eq!(drawn, written, "{sql}: query graph of {block}");
    }
    all.into_iter().map(|(_, b)| b.roles.clone()).collect()
}

#[test]
fn no_conjunct_is_lost_and_a_respelled_statement_files_and_plans_alike() {
    let movies = Talkback::new(movie_database());
    let employees = Talkback::new(employee_database());
    let statements = (MOVIE_STATEMENTS.iter().map(|s| (&movies, *s)))
        .chain(EMPLOYEE_STATEMENTS.iter().map(|s| (&employees, *s)));
    let statements: Vec<(&Talkback, &str)> = statements.collect();
    // The plan tree, or the planner's refusal (an ORDER BY of a column the
    // statement does not project), spelled in lower case.
    let tree = |system: &Talkback, sql: &str| {
        let explained = system.explain_plan_with(sql, PlannerOptions::default());
        let explained = explained.map(|e| e.tree).map_err(|e| e.to_string());
        explained
            .map(|t| t.to_lowercase())
            .map_err(|e| e.to_lowercase())
    };
    let (mut respelled, mut dropped) = (0, 0);
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        for &(system, sql) in &statements {
            let db = system.database();
            let roles = check_no_conjunct_is_lost(db, sql);
            let original = parse_query(sql).unwrap();
            let mut variant = original.clone();
            respell(
                &mut variant,
                db.catalog(),
                &mut Vec::new(),
                &mut rng,
                &mut dropped,
            );
            respelled += usize::from(variant != original);
            let variant = variant.to_string();
            let context = format!("seed {seed}: {sql}\nrespelled as {variant}");
            assert_eq!(check_no_conjunct_is_lost(db, &variant), roles, "{context}");
            assert_eq!(tree(system, &variant), tree(system, sql), "{context}");
        }
    }
    assert!(
        respelled > statements.len(),
        "{respelled} statements respelled"
    );
    assert!(dropped > statements.len(), "{dropped} qualifiers dropped");
}

// ---------------------------------------------------------------------------
// The disagreements the one classifier removed
// ---------------------------------------------------------------------------

fn narrative(system: &Talkback, sql: &str) -> String {
    let translation = system.explain_query(sql).unwrap();
    translation
        .narrative
        .unwrap_or_else(|| panic!("{sql}: no narrative"))
}

/// Q1 with unqualified join columns joins as Q1 does: a hash join and an
/// index nested-loop join, no cross product (it planned two cross products,
/// est 120, with the joins as filters above them).
#[test]
fn q1_with_unqualified_join_columns_plans_q1s_tree() {
    let system = Talkback::new(movie_database());
    let q1 = "select m.title from MOVIES m, CAST c, ACTOR a \
              where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";
    let unqualified = "select m.title from MOVIES m, CAST c, ACTOR a \
                       where m.id = mid and aid = a.id and name = 'Brad Pitt'";
    let tree = system.explain_plan(unqualified).unwrap().tree;
    assert_eq!(tree, system.explain_plan(q1).unwrap().tree);
    assert!(tree.contains("hash join: a.id = c.aid"), "{tree}");
    assert!(
        tree.contains("index nested-loop join: c.mid = m.id"),
        "{tree}"
    );
    assert!(!tree.contains("cross product"), "{tree}");
    assert_eq!(
        narrative(&system, unqualified),
        "Find the movies that feature the actor Brad Pitt."
    );
}

/// An unqualified selection is said (both were "Find the movies.", over the
/// 7 of 10 rows the year condition keeps), and so is an unqualified
/// selection on a related class (it was "Find the movies that are related
/// to the casting credit.").
#[test]
fn unqualified_selections_are_said() {
    let system = Talkback::new(movie_database());
    for sql in [
        "select title from MOVIES where year > 2000",
        "select m.title from MOVIES m where year > 2000",
    ] {
        assert_eq!(
            narrative(&system, sql),
            "Find the movies whose year is greater than 2000.",
            "{sql}"
        );
        assert_eq!(system.run_query(sql).unwrap().len(), 7, "{sql}");
    }
    let role = "select m.title from MOVIES m, CAST c where m.id = c.mid and role = 'Achilles'";
    let qualified = role.replace("and role", "and c.role");
    assert_eq!(narrative(&system, role), narrative(&system, &qualified));
    assert_eq!(
        narrative(&system, role),
        "Find the movies that are related to the casting credit Achilles."
    );
}

/// `m.year = M.id` and `m.year = m.id` are one selection: one role, one
/// plan, one narration (the case-twisted one was a self-join edge, a
/// cyclic graph query narrated "the year of m matches the id of m").
#[test]
fn a_case_twisted_self_equality_is_the_plain_one() {
    let system = Talkback::new(movie_database());
    let plain = "select m.title from MOVIES m where m.year = m.id";
    let twisted = "select m.title from MOVIES m where m.year = M.id";
    let db = system.database();
    assert_eq!(
        check_no_conjunct_is_lost(db, twisted),
        check_no_conjunct_is_lost(db, plain)
    );
    assert_eq!(
        system.explain_plan(twisted).unwrap().tree,
        system.explain_plan(plain).unwrap().tree
    );
    let (a, b) = (
        system.explain_query(twisted).unwrap(),
        system.explain_query(plain).unwrap(),
    );
    assert_eq!(a.classification, b.classification);
    assert_eq!(a.narrative, b.narrative);
    assert_eq!(a.procedural.replace("M.id", "m.id"), b.procedural);
    assert!(
        a.procedural.contains("`m.year = M.id` holds"),
        "{}",
        a.procedural
    );
}

/// An `IN` that is one side of an `OR` is no connector of its own: the
/// procedural narration quotes the whole conjunct (it said "The previous
/// condition is whose values appear in a nested query …" and left the `OR`
/// out), no strategy narrates the `IN` alone, and `run_query` refuses it.
#[test]
fn an_in_inside_an_or_is_quoted_whole() {
    let system = Talkback::new(movie_database());
    let sql = "select m.title from MOVIES m \
               where m.id in (select c.mid from CAST c) or m.year = 1999";
    let t = system.explain_query(sql).unwrap();
    assert_eq!(t.narrative, None);
    assert_eq!(
        t.procedural,
        "Find the title of the movie m from the movie m (MOVIES) such that \
         `m.id IN (SELECT c.mid FROM CAST c) OR m.year = 1999` holds."
    );
    assert!(!t.best.contains("previous condition"), "{}", t.best);
    assert!(!t.graph.nesting[0].whole);
    assert!(system.run_query(sql).is_err());
    // A bare `IN` keeps its connector sentence.
    let bare = system
        .explain_query("select m.title from MOVIES m where m.year = 1999 and m.id in (select c.mid from CAST c)")
        .unwrap();
    assert!(
        bare.procedural
            .contains("The previous condition is whose values appear in a nested query"),
        "{}",
        bare.procedural
    );
}
