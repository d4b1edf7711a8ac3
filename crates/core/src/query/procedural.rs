//! The procedural (guaranteed-coverage) query narration.
//!
//! §3.3.5 notes that a narrative may be "declarative (as in the above two
//! examples) or procedural, i.e., whether it will just specify what the
//! query answer should satisfy or also the actions that need to be performed
//! for the answer to be generated. The former is always desirable, but for
//! complicated queries, the latter may be the only reasonable approach."
//! This module is that fallback: it walks the query graph and verbalizes
//! every element, so *every* query gets a faithful (if less fluent)
//! narration.

use datastore::Catalog;
use nlg::finish_sentence;
use schemagraph::{NestingConnector, QueryGraph};
use sqlparse::ast::SelectStatement;
use templates::Lexicon;

/// Verbalize every block of the query graph, outer block first. A block
/// whose connector is not its whole conjunct is not narrated on its own:
/// the conjunct is quoted whole among its block's conditions.
pub fn procedural_translation(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    graph: &QueryGraph,
) -> String {
    let mut sentences = Vec::new();
    sentences.push(block_sentence(catalog, lexicon, graph, 0, query));
    for edge in graph
        .nesting
        .iter()
        .filter(|e| narrated(graph, e.inner_block))
    {
        let quantified;
        let connector = match &edge.connector {
            NestingConnector::In { negated: false } => "whose values appear in",
            NestingConnector::In { negated: true } => "whose values do not appear in",
            NestingConnector::Exists { negated: false } => "for which there exists a match in",
            NestingConnector::Exists { negated: true } => "for which there is no match in",
            NestingConnector::Quantified { op, all } => {
                quantified = quantified_words(op.sql(), *all);
                &quantified
            }
            NestingConnector::Scalar => "compared with the result of",
        };
        sentences.push(finish_sentence(&format!(
            "The previous condition is {} a nested query: {}",
            connector,
            block_phrase(catalog, lexicon, graph, edge.inner_block)
        )));
    }
    sentences.join(" ")
}

/// Whether a block gets sentences of its own: the outer block, and a block
/// whose connector is its whole conjunct in a block that does.
fn narrated(graph: &QueryGraph, block: usize) -> bool {
    block == 0
        || (graph.nesting.iter())
            .any(|e| e.inner_block == block && e.whole && narrated(graph, e.outer_block))
}

/// `op ALL` / `op ANY` in words: the comparison, then "every result" or
/// "at least one result".
fn quantified_words(op: &str, all: bool) -> String {
    let compared = match op {
        "=" => "equal to",
        "<>" => "different from",
        "<" => "less than",
        "<=" => "less than or equal to",
        ">" => "greater than",
        ">=" => "greater than or equal to",
        other => other,
    };
    let quantifier = if all { "every" } else { "at least one" };
    format!("{compared} {quantifier} result of")
}

fn block_sentence(
    catalog: &Catalog,
    lexicon: &Lexicon,
    graph: &QueryGraph,
    block_index: usize,
    query: &SelectStatement,
) -> String {
    let mut text = format!(
        "Find {}",
        block_phrase(catalog, lexicon, graph, block_index)
    );
    let block = &graph.blocks[block_index];
    if !block.group_by.is_empty() {
        text.push_str(&format!(", grouped by {}", block.group_by.join(" and ")));
    }
    if !block.order_by.is_empty() {
        text.push_str(&format!(", ordered by {}", block.order_by.join(" and ")));
    }
    if let Some(limit) = query.limit {
        text.push_str(&format!(", keeping only the first {limit} results"));
    }
    finish_sentence(&text)
}

/// The noun-phrase description of one block: projected items, the relations
/// involved, the join conditions and the per-class constraints.
pub fn block_phrase(
    catalog: &Catalog,
    lexicon: &Lexicon,
    graph: &QueryGraph,
    block_index: usize,
) -> String {
    let block = &graph.blocks[block_index];
    let mut projected: Vec<String> = Vec::new();
    for class in &block.classes {
        for item in &class.select {
            projected.push(format!(
                "the {} of the {} {}",
                item.column.to_lowercase(),
                lexicon.concept(&class.relation),
                class.alias
            ));
        }
    }
    projected.extend(block.aggregates.iter().map(|a| format!("the value of {a}")));
    let head = if projected.is_empty() {
        "all matching tuples".to_string()
    } else {
        projected.join(", ")
    };

    let relations: Vec<String> = block
        .classes
        .iter()
        .map(|c| {
            format!(
                "the {} {} ({})",
                lexicon.concept(&c.relation),
                c.alias,
                c.relation
            )
        })
        .collect();
    let mut out = format!("{head} from {}", relations.join(", "));

    let mut conditions: Vec<String> = Vec::new();
    for join in &block.joins {
        let left = &block.classes[join.left];
        let right = &block.classes[join.right];
        conditions.push(format!(
            "the {} of {} matches the {} of {}",
            join.left_column.to_lowercase(),
            left.alias,
            join.right_column.to_lowercase(),
            right.alias
        ));
    }
    for class in &block.classes {
        for constraint in &class.where_constraints {
            conditions.push(format!("{} holds", nlg::quote_sql(constraint)));
        }
        for constraint in &class.having_constraints {
            conditions.push(format!(
                "{} holds after grouping",
                nlg::quote_sql(constraint)
            ));
        }
    }
    let _ = catalog;
    if !conditions.is_empty() {
        out.push_str(&format!(" such that {}", conditions.join(" and ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;
    use schemagraph::QueryGraph;
    use sqlparse::parse_query;
    use templates::Lexicon;

    fn translate(sql: &str) -> String {
        let db = movie_database();
        let q = parse_query(sql).unwrap();
        let g = QueryGraph::from_query(db.catalog(), &q).unwrap();
        procedural_translation(db.catalog(), &Lexicon::movie_domain(), &q, &g)
    }

    #[test]
    fn covers_every_element_of_q1() {
        let text = translate(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        assert!(text.starts_with("Find the title of the movie m"));
        assert!(text.contains("casting credit"));
        assert!(text.contains("matches"));
        assert!(text.contains("Brad Pitt"));
    }

    #[test]
    fn verbalizes_nested_blocks() {
        let text = translate(
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.aid in ( \
                    select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        );
        assert!(text.matches("nested query").count() >= 2);
        assert!(text.contains("whose values appear in"));
    }

    #[test]
    fn verbalizes_grouping_ordering_and_limits() {
        let text = translate(
            "select m.year, count(*) from MOVIES m group by m.year order by m.year desc limit 3",
        );
        assert!(text.contains("grouped by m.year"));
        assert!(text.contains("ordered by m.year DESC"));
        assert!(text.contains("first 3 results"));
        assert!(text.contains("count(*)"));
    }

    #[test]
    fn says_the_operator_and_the_quantifier() {
        let nested = |quantified: &str| {
            translate(&format!(
                "select m.title from MOVIES m where m.year {quantified} \
                 (select m1.year from MOVIES m1 where m1.id <> m.id)"
            ))
        };
        let said = [
            ("= any", "equal to at least one result"),
            ("= all", "equal to every result"),
            ("< any", "less than at least one result"),
            ("<= all", "less than or equal to every result"),
        ];
        for (quantified, words) in said {
            let text = nested(quantified);
            let sentence = format!("The previous condition is {words} of a nested query");
            assert!(text.contains(&sentence), "{quantified}: {text}");
        }
    }

    #[test]
    fn verbalizes_not_exists_connectors() {
        let text = translate(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g where g.mid = m.id)",
        );
        assert!(text.contains("no match in"));
        assert!(text.contains("genre"));
    }
}
