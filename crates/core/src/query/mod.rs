//! Query-to-text translation (§3 of the paper).
//!
//! The [`QueryTranslator`] ties the pieces together: parse → bind → build
//! the query graph → classify (per §3.3) → dispatch to the category's
//! strategy → realize. Every query also gets a *procedural* narration (the
//! guaranteed-coverage fallback §3.3.5 discusses), so callers can always
//! show something faithful even when the fluent strategy declines.
//!
//! ## One translation per shape
//!
//! `Talkback::explain_query` translates a SELECT once per *shape*
//! ([`sqlparse::normalize_strings`]: strings lifted out, numbers kept, for
//! the words depend on them — `1 < (select count(*) …)` is "more than one
//! genre", `count(distinct …) = 1` is Q8's idiom and `= 2` is not). No
//! strategy reads a string, it only shows it: raw in prose, quoted where SQL
//! is shown. So a miss is translated once more with each string a slot marker
//! ([`QueryTranslator::template`]), kept only if filling in its own strings
//! gives back the fresh translation in full (else a negative entry), and a
//! hit fills in strings that realization leaves alone
//! ([`nlg::realizes_verbatim`]). Entries carry the
//! [`datastore::Catalog::version`]: no translation reads the data.

pub mod advise;
pub mod dml;
pub mod explain;
pub mod phrases;
pub mod plan_explain;
pub mod procedural;
pub mod show;
pub mod special;
pub mod spj;

use crate::error::TalkbackError;
use datastore::exec::ProfileNode;
use datastore::{Catalog, Value};
use schemagraph::{classify, Classification, QueryCategory, QueryGraph};
use sqlparse::ast::{SelectStatement, Statement};
use sqlparse::bind::bind_query;
use sqlparse::{parse_statement, NormalizedStatement};
use templates::Lexicon;

/// String `i` of a template is the marker `{SLOT_OPEN}'Ab{i}{SLOT_CLOSE}`:
/// the quote tells its SQL spelling from its raw one, the mixed case shows
/// if it went through a case change.
const SLOT_OPEN: char = '\u{E000}';
const SLOT_CLOSE: char = '\u{E001}';

/// `text` with each marker replaced by its string, raw or as a SQL literal
/// as the marker is spelled (`None` if a marker was changed). What is filled
/// in is never scanned again, so a string may hold anything.
fn fill_slots(text: &str, strings: &[Value]) -> Option<String> {
    let mut filled = String::with_capacity(text.len() + 32);
    let mut rest = text;
    while let Some((before, marker)) = rest.split_once(SLOT_OPEN) {
        let (index, after) = marker.split_once(SLOT_CLOSE)?;
        let (sql, index) = match index.strip_prefix("''Ab") {
            Some(index) => (true, index),
            None => (false, index.strip_prefix("'Ab")?),
        };
        let value = strings.get(index.parse::<usize>().ok()?)?;
        if sql {
            filled.push_str(before.strip_suffix('\'')?);
            filled.push_str(&value.sql_literal());
            rest = after.strip_prefix('\'')?;
        } else {
            filled.push_str(before);
            filled.push_str(value.as_str()?);
            rest = after;
        }
    }
    filled.push_str(rest);
    Some(filled)
}

/// Table name scanned by a profile subtree, when the subtree contains
/// exactly one scan (a base relation, possibly behind filters) — the case
/// where a narration can name the relation instead of saying "them". Shared
/// by the plan narrator and the §3.1 empty-result detective.
pub(crate) fn sole_scan_table(node: ProfileNode<'_>) -> Option<String> {
    // Index scans and the probe side of an index-nested-loop join read a
    // base table just like a full scan.
    let mut tables = Vec::new();
    node.walk(&mut |p| tables.extend(p.table()));
    match tables.as_slice() {
        [one] => Some(one.to_string()),
        _ => None,
    }
}

/// `n` of a noun in words, the noun pluralized with an `s` unless `n` is one:
/// "one row", "twelve rows", "13 vectors".
pub(crate) fn counted(n: usize, noun: &str) -> String {
    let s = if n == 1 { "" } else { "s" };
    format!("{} {noun}{s}", nlg::count_phrase(n))
}

/// The result of translating one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTranslation {
    /// The original SQL text.
    pub sql: String,
    /// Classification per §3.3.
    pub classification: Classification,
    /// The fluent, declarative narrative (present when a category strategy
    /// produced one).
    pub narrative: Option<String>,
    /// The procedural narration (always present for SELECTs).
    pub procedural: String,
    /// The narrative a caller should show: the declarative one when
    /// available, otherwise the procedural one.
    pub best: String,
    /// Notes about what the translator did (flattening, dropped HAVING
    /// subqueries, …).
    pub notes: Vec<String>,
    /// The query graph the translation was derived from.
    pub graph: QueryGraph,
}

impl QueryTranslation {
    /// This template filled with a statement's strings (in textual order)
    /// and carrying its text; `None` if a slot marker was changed. The texts
    /// filled are those that show a WHERE or HAVING constant: the narrations,
    /// the notes and the graph's constraints (a marker anywhere else fails
    /// the template's verification).
    pub fn bind_strings(&self, sql: &str, strings: &[Value]) -> Option<QueryTranslation> {
        let mut bound = self.clone();
        bound.sql = sql.to_string();
        let constraints = (bound.graph.blocks.iter_mut())
            .flat_map(|block| &mut block.classes)
            .flat_map(|c| {
                c.where_constraints
                    .iter_mut()
                    .chain(&mut c.having_constraints)
            });
        let texts = (bound.narrative.iter_mut())
            .chain([&mut bound.procedural, &mut bound.best])
            .chain(&mut bound.notes)
            .chain(constraints);
        for text in texts.filter(|text| text.contains(SLOT_OPEN)) {
            *text = fill_slots(text, strings)?;
        }
        Some(bound)
    }
}

/// The query translator.
#[derive(Debug, Clone)]
pub struct QueryTranslator {
    lexicon: Lexicon,
}

impl QueryTranslator {
    /// Translator with the movie-domain lexicon.
    pub fn movie_domain() -> QueryTranslator {
        QueryTranslator {
            lexicon: Lexicon::movie_domain(),
        }
    }

    /// Translator with a custom lexicon.
    pub fn new(lexicon: Lexicon) -> QueryTranslator {
        QueryTranslator { lexicon }
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Translate a SQL string (SELECT or DML) against a catalog.
    pub fn translate_sql(
        &self,
        catalog: &Catalog,
        sql: &str,
    ) -> Result<QueryTranslation, TalkbackError> {
        let statement = parse_statement(sql)?;
        match &statement {
            Statement::Select(select) => self.translate_select(catalog, sql, select),
            other => self.translate_dml(catalog, sql, other),
        }
    }

    /// Translate an already-parsed SELECT statement.
    pub fn translate_select(
        &self,
        catalog: &Catalog,
        sql: &str,
        query: &SelectStatement,
    ) -> Result<QueryTranslation, TalkbackError> {
        let bound = bind_query(catalog, query)?;
        let graph = QueryGraph::build(catalog, query, &bound);
        let classification = classify(query, &graph);
        let mut notes = Vec::new();

        let narrative = match &classification.category {
            QueryCategory::Path | QueryCategory::Subgraph | QueryCategory::Graph { .. } => {
                let text = spj::declarative_spj(catalog, &self.lexicon, query, graph.root());
                if text.is_none() {
                    notes.push(
                        "no fluent strategy applied; falling back to the procedural narration"
                            .to_string(),
                    );
                }
                text
            }
            QueryCategory::NestedFlattenable => {
                match special::translate_flattenable(catalog, &self.lexicon, query) {
                    Some((text, flat)) => {
                        notes.push(format!(
                            "nested query flattened to its SPJ equivalent: {flat}"
                        ));
                        Some(text)
                    }
                    None => None,
                }
            }
            QueryCategory::Nested { division } => {
                if *division {
                    special::translate_division(catalog, &self.lexicon, query, &graph)
                } else {
                    notes.push("genuinely nested query without a recognized idiom".to_string());
                    None
                }
            }
            QueryCategory::Aggregate => {
                let text = special::translate_aggregate(catalog, &self.lexicon, query, &graph);
                if query
                    .having
                    .as_ref()
                    .map(|h| h.contains_subquery())
                    .unwrap_or(false)
                {
                    notes.push(
                        "the HAVING subquery executes as a correlated apply, re-checked \
                         per group and cached by its correlation key"
                            .to_string(),
                    );
                }
                text
            }
            QueryCategory::Impossible { idiom } => {
                special::translate_impossible(catalog, &self.lexicon, query, &graph, idiom)
            }
        };

        let procedural = procedural::procedural_translation(catalog, &self.lexicon, query, &graph);
        let best = narrative.clone().unwrap_or_else(|| procedural.clone());
        Ok(QueryTranslation {
            sql: sql.to_string(),
            classification,
            narrative,
            procedural,
            best,
            notes,
            graph,
        })
    }

    /// The template of a SELECT's shape ([`sqlparse::normalize_strings`]):
    /// its translation with each string a slot marker, if filling the slots
    /// with its own strings gives back `fresh`, its translation, in full.
    pub fn template(
        &self,
        catalog: &Catalog,
        shape: &NormalizedStatement,
        fresh: &QueryTranslation,
    ) -> Option<QueryTranslation> {
        let mut pieces = shape.text.split('?');
        let mut marked = pieces.next()?.to_string();
        for (i, piece) in pieces.enumerate() {
            let marker = format!("{SLOT_OPEN}'Ab{i}{SLOT_CLOSE}");
            marked.push_str(&Value::text(marker).sql_literal());
            marked.push_str(piece);
        }
        let template = self.translate_sql(catalog, &marked).ok()?;
        (template.bind_strings(&fresh.sql, &shape.literals)? == *fresh).then_some(template)
    }

    fn translate_dml(
        &self,
        catalog: &Catalog,
        sql: &str,
        statement: &Statement,
    ) -> Result<QueryTranslation, TalkbackError> {
        // Views embed the narration of their defining query.
        let inner = match statement {
            Statement::CreateView(v) => {
                Some(self.translate_select(catalog, &v.query.to_string(), &v.query)?)
            }
            _ => None,
        };
        let text = dml::translate_statement(
            catalog,
            &self.lexicon,
            statement,
            inner.as_ref().map(|t| t.best.as_str()),
        )
        .ok_or_else(|| TalkbackError::Unsupported("statement kind".into()))?;
        // DML has no query graph of its own; reuse the inner one when
        // present so callers can still render a figure for views.
        let graph = inner.as_ref().map(|t| t.graph.clone()).unwrap_or_default();
        let classification = inner.map(|t| t.classification).unwrap_or(Classification {
            category: QueryCategory::Path,
            shape: schemagraph::BlockShape {
                classes: 0,
                joins: 0,
                components: 0,
                cyclic: false,
                is_path: false,
                multi_instance: false,
                fk_joins_only: true,
            },
            blocks: 0,
            division: None,
        });
        Ok(QueryTranslation {
            sql: sql.to_string(),
            classification,
            narrative: Some(text.clone()),
            procedural: text.clone(),
            best: text,
            notes: Vec::new(),
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::{employee_database, movie_database};

    fn translate(sql: &str) -> QueryTranslation {
        let db = movie_database();
        QueryTranslator::movie_domain()
            .translate_sql(db.catalog(), sql)
            .unwrap()
    }

    #[test]
    fn all_nine_paper_queries_produce_narratives() {
        let queries: [(&str, &str); 9] = [
            (
                "select m.title from MOVIES m, CAST c, ACTOR a \
                 where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
                "Brad Pitt",
            ),
            (
                "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
                 where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
                   and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
                "G. Loucas",
            ),
            (
                "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
                 where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
                   and a1.id > a2.id",
                "pairs of actors",
            ),
            (
                "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
                "one of their roles",
            ),
            (
                "select m.title from MOVIES m where m.id in ( \
                    select c.mid from CAST c where c.aid in ( \
                        select a.id from ACTOR a where a.name = 'Brad Pitt'))",
                "Brad Pitt",
            ),
            (
                "select m.title from MOVIES m where not exists ( \
                    select * from GENRE g1 where not exists ( \
                        select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
                "all genres",
            ),
            (
                "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
                 group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
                "number of actors",
            ),
            (
                "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
                 where m.id = c.mid and c.aid = a.id \
                 group by a.id, a.name having count(distinct m.year) = 1",
                "same year",
            ),
            (
                "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
                 and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
                 where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
                "earliest",
            ),
        ];
        for (sql, expected_phrase) in queries {
            let t = translate(sql);
            assert!(
                t.best
                    .to_lowercase()
                    .contains(&expected_phrase.to_lowercase()),
                "narrative for {sql} was '{}' (expected to mention '{expected_phrase}')",
                t.best
            );
            assert!(
                t.best.starts_with("Find"),
                "narrative should start with Find"
            );
            assert!(!t.procedural.is_empty());
        }
    }

    #[test]
    fn categories_match_the_paper_sections() {
        use schemagraph::QueryCategory as C;
        let t = translate(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        assert_eq!(t.classification.category, C::Path);
        let t = translate("select m.title from MOVIES m where m.id in (select c.mid from CAST c)");
        assert_eq!(t.classification.category, C::NestedFlattenable);
        assert!(t.notes.iter().any(|n| n.contains("flattened")));
    }

    #[test]
    fn emp_manager_query_translates_via_fallback() {
        let db = employee_database();
        let t = QueryTranslator::movie_domain()
            .translate_sql(
                db.catalog(),
                "select e1.name from EMP e1, EMP e2, DEPT d \
                 where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal",
            )
            .unwrap();
        assert!(t.best.to_lowercase().contains("employee"));
        assert!(t.best.to_lowercase().contains("sal"));
    }

    #[test]
    fn dml_statements_translate_through_the_same_entry_point() {
        let t = translate("delete from GENRE where genre = 'noir'");
        assert!(t.best.contains("Remove the genres"));
        let t = translate(
            "create view BRAD as select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        assert!(t.best.contains("Define a view named BRAD"));
        assert!(t.best.contains("Brad Pitt"));
    }

    #[test]
    fn parse_and_bind_errors_propagate() {
        let db = movie_database();
        let translator = QueryTranslator::movie_domain();
        assert!(matches!(
            translator.translate_sql(db.catalog(), "selec nonsense"),
            Err(TalkbackError::Parse(_))
        ));
        assert!(matches!(
            translator.translate_sql(db.catalog(), "select x.y from NOPE x"),
            Err(TalkbackError::Bind(_))
        ));
    }
}
