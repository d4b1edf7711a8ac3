//! Translation strategies for non-graph and "impossible" queries
//! (§3.3.4–§3.3.5): flattenable nesting, relational division, aggregation,
//! and the higher-order idioms of Q8/Q9.

use crate::query::phrases::concept_plural;
use crate::query::spj::declarative_spj;
use datastore::Catalog;
use nlg::finish_sentence;
use schemagraph::{HigherOrderIdiom, NestingConnector, QueryBlock, QueryGraph};
use sqlparse::ast::{BinaryOperator, Expr, Literal, SelectStatement};
use sqlparse::bind::ConjunctRole;
use sqlparse::rewrite::{detect_division, flatten_in_subqueries};
use templates::Lexicon;

/// Q5: flatten the nested query and translate its flat equivalent. Returns
/// the narrative and the flattened SQL (so callers can show the equivalence
/// the paper says makes the translation possible).
pub fn translate_flattenable(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
) -> Option<(String, SelectStatement)> {
    let flat = flatten_in_subqueries(query)?;
    let graph = QueryGraph::from_query(catalog, &flat).ok()?;
    let text = declarative_spj(catalog, lexicon, &flat, graph.root())?;
    Some((text, flat))
}

/// Q6: relational division — "Find the movies that have all genres."
pub fn translate_division(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    graph: &QueryGraph,
) -> Option<String> {
    let division = detect_division(query)?;
    let outer_relation = graph
        .root()
        .classes
        .iter()
        .find(|c| c.alias.eq_ignore_ascii_case(&division.outer_alias))
        .map(|c| c.relation.clone())?;
    let outer = concept_plural(lexicon, &outer_relation);
    let divisor = concept_plural(lexicon, &division.divisor_table);
    let _ = catalog;
    Some(finish_sentence(&format!(
        "Find the {outer} that have all {divisor}"
    )))
}

/// Q7: aggregate queries. Handles the shape the paper highlights — a count
/// over a connector relation grouped by another relation, with a correlated
/// counting subquery in HAVING ("Find the number of actors in movies of more
/// than one genre") — and declines anything else so the procedural strategy
/// takes over.
pub fn translate_aggregate(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    graph: &QueryGraph,
) -> Option<String> {
    let block = graph.root();
    if block.aggregates.is_empty() {
        return None;
    }
    // Only the count(*) shape is given the declarative treatment.
    if !block.aggregates.iter().any(|a| a.starts_with("count")) {
        return None;
    }
    // Group-by owner aliases ("m.id" -> "m").
    let owners: Vec<String> = block
        .group_by
        .iter()
        .filter_map(|g| g.split('.').next().map(str::to_string))
        .collect();
    let owner_class = block
        .classes
        .iter()
        .find(|c| owners.iter().any(|o| o.eq_ignore_ascii_case(&c.alias)))?;
    // The counted class: a class that is not the group-by owner.
    let counted_class = block
        .classes
        .iter()
        .find(|c| !c.alias.eq_ignore_ascii_case(&owner_class.alias))?;
    let counted_concept = counted_entity_concept(
        catalog,
        lexicon,
        &counted_class.relation,
        &owner_class.relation,
    );
    let owner_concept = lexicon.concept(&owner_class.relation);

    let mut text = format!(
        "Find the number of {} in each {}",
        counted_concept, owner_concept
    );
    if let Some(having_phrase) = having_count_phrase(lexicon, query) {
        text.push(' ');
        text.push_str(&having_phrase);
    }
    Some(finish_sentence(&text))
}

/// The concept to use for a counted relation. Connector relations (CAST) are
/// counted in terms of the far relation they reference (actors), mirroring
/// how the paper's target sentence talks about "the number of actors" even
/// though the query counts CAST tuples.
fn counted_entity_concept(
    catalog: &Catalog,
    lexicon: &Lexicon,
    counted_relation: &str,
    owner_relation: &str,
) -> String {
    let onward: Vec<String> = catalog
        .foreign_keys_from(counted_relation)
        .into_iter()
        .map(|fk| fk.ref_table.clone())
        .filter(|t| !t.eq_ignore_ascii_case(owner_relation))
        .collect();
    match onward.first() {
        Some(far) => concept_plural(lexicon, far),
        None => concept_plural(lexicon, counted_relation),
    }
}

/// Verbalize a HAVING of the form `n < (select count(*) from X where …)` or
/// `(select count(*) …) > n` as "with more than n Xs".
fn having_count_phrase(lexicon: &Lexicon, query: &SelectStatement) -> Option<String> {
    let having = query.having.as_ref()?;
    for conjunct in having.conjuncts() {
        let Expr::BinaryOp { left, op, right } = conjunct else {
            continue;
        };
        let (literal, subquery, more_than) = match (left.as_ref(), right.as_ref(), op) {
            (Expr::Literal(Literal::Integer(n)), Expr::ScalarSubquery(sub), BinaryOperator::Lt) => {
                (*n, sub, true)
            }
            (Expr::ScalarSubquery(sub), Expr::Literal(Literal::Integer(n)), BinaryOperator::Gt) => {
                (*n, sub, true)
            }
            (Expr::ScalarSubquery(sub), Expr::Literal(Literal::Integer(n)), BinaryOperator::Eq)
            | (Expr::Literal(Literal::Integer(n)), Expr::ScalarSubquery(sub), BinaryOperator::Eq) => {
                (*n, sub, false)
            }
            _ => continue,
        };
        // "more than one genre" (singular) vs "more than two genres".
        let counted = subquery
            .from
            .first()
            .map(|t| {
                if literal == 1 {
                    lexicon.concept(&t.table)
                } else {
                    concept_plural(lexicon, &t.table)
                }
            })
            .unwrap_or_else(|| "items".to_string());
        let count_word = if literal == 1 && more_than {
            "one".to_string()
        } else {
            nlg::count_phrase(literal as usize)
        };
        return Some(if more_than {
            format!("with more than {count_word} {counted}")
        } else {
            format!("with exactly {count_word} {counted}")
        });
    }
    None
}

/// Q8/Q9: the higher-order idioms.
pub fn translate_impossible(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    graph: &QueryGraph,
    idiom: &HigherOrderIdiom,
) -> Option<String> {
    let block = graph.root();
    let projected = projected_concept(lexicon, block)?;
    match idiom {
        HigherOrderIdiom::AllSame { attribute } => {
            // "Find the actors whose movies all have the same year."
            let owner = attribute_owner(catalog, block, attribute)
                .map(|r| concept_plural(lexicon, &r))
                .unwrap_or_else(|| "related items".to_string());
            Some(finish_sentence(&format!(
                "Find the {projected} whose {owner} all have the same {}",
                attribute.to_lowercase()
            )))
        }
        HigherOrderIdiom::Superlative {
            attribute,
            smallest,
        } => {
            let superlative = match (attribute.to_lowercase().as_str(), smallest) {
                ("year" | "bdate" | "date", true) => "earliest".to_string(),
                ("year" | "bdate" | "date", false) => "latest".to_string(),
                (_, true) => "smallest".to_string(),
                (_, false) => "largest".to_string(),
            };
            let owner =
                attribute_owner(catalog, block, attribute).unwrap_or_else(|| "MOVIES".to_string());
            let owner_plural = concept_plural(lexicon, &owner);
            let verb = lexicon
                .verb(&relation_of_projection(block).unwrap_or_default(), &owner)
                .map(|v| v.verb_plural.clone())
                .unwrap_or_else(|| "are related to".to_string());
            // Describe the comparison set: Q9 compares against movies that
            // share their title (i.e. repeated movies).
            let restriction =
                quantified_subquery_restriction(lexicon, query, graph).unwrap_or_default();
            Some(finish_sentence(&format!(
                "Find the {projected} that {verb} the {owner_plural} with the {superlative} {}{restriction}",
                attribute.to_lowercase()
            )))
        }
    }
}

/// The plural concept of the projected relation(s).
fn projected_concept(lexicon: &Lexicon, block: &QueryBlock) -> Option<String> {
    let relation = relation_of_projection(block)?;
    Some(concept_plural(lexicon, &relation))
}

fn relation_of_projection(block: &QueryBlock) -> Option<String> {
    block
        .classes
        .iter()
        .find(|c| !c.select.is_empty())
        .map(|c| c.relation.clone())
}

/// The relation (within the outer block) that owns an attribute name.
fn attribute_owner(catalog: &Catalog, block: &QueryBlock, attribute: &str) -> Option<String> {
    block
        .classes
        .iter()
        .map(|c| c.relation.clone())
        .find(|relation| {
            catalog
                .table(relation)
                .map(|t| t.has_column(attribute))
                .unwrap_or(false)
        })
}

/// Describe the comparison set of a quantified subquery. For Q9 — a
/// multi-instance self-join on the correlated title — this yields the
/// "movies that have been repeated" restriction.
fn quantified_subquery_restriction(
    lexicon: &Lexicon,
    query: &SelectStatement,
    graph: &QueryGraph,
) -> Option<String> {
    let mut quantified = Vec::new();
    query.selection.as_ref()?.walk(&mut |e| {
        if let Expr::QuantifiedComparison { subquery, .. } = e {
            quantified.push(subquery.as_ref());
        }
    });
    // The outer block's quantified subqueries, in the same order.
    let blocks = (graph.nesting.iter())
        .filter(|e| {
            e.outer_block == 0 && matches!(e.connector, NestingConnector::Quantified { .. })
        })
        .map(|e| &graph.blocks[e.inner_block]);
    quantified
        .into_iter()
        .zip(blocks)
        .find_map(|(subquery, block)| {
            let tables: Vec<&str> = subquery.from.iter().map(|t| t.table.as_str()).collect();
            let multi_instance =
                tables.len() > 1 && tables.iter().all(|t| t.eq_ignore_ascii_case(tables[0]));
            if !multi_instance {
                return None;
            }
            let concept = concept_plural(lexicon, tables[0]);
            // The correlation attribute (e.g. title) that the copies share.
            let conjuncts = subquery.where_conjuncts().into_iter().zip(&block.roles);
            let shared = conjuncts
                .filter(|(_, role)| {
                    matches!(
                        role,
                        ConjunctRole::Join { .. } | ConjunctRole::Correlation { .. }
                    )
                })
                .find_map(|(c, _)| c.as_column_equality().map(|(l, _)| l.column.clone()))
                .or_else(|| subquery.column_refs().first().map(|c| c.column.clone()))
                .unwrap_or_else(|| "value".to_string());
            Some(format!(
                ", considering only {concept} that have been repeated (that share their {})",
                shared.to_lowercase()
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;
    use schemagraph::{classify, QueryCategory, QueryGraph};
    use sqlparse::parse_query;

    fn setup(sql: &str) -> (datastore::Database, SelectStatement, QueryGraph) {
        let db = movie_database();
        let q = parse_query(sql).unwrap();
        let g = QueryGraph::from_query(db.catalog(), &q).unwrap();
        (db, q, g)
    }

    #[test]
    fn q5_flattens_and_reads_like_q1() {
        let (db, q, _g) = setup(
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.aid in ( \
                    select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        );
        let (text, flat) =
            translate_flattenable(db.catalog(), &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(text, "Find the movies that feature the actor Brad Pitt.");
        assert!(!flat.has_subquery());
    }

    #[test]
    fn q6_reads_as_relational_division() {
        let (db, q, g) = setup(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        );
        let text = translate_division(db.catalog(), &Lexicon::movie_domain(), &q, &g).unwrap();
        assert_eq!(text, "Find the movies that have all genres.");
    }

    #[test]
    fn q7_reads_as_the_paper_target() {
        let (db, q, g) = setup(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        );
        let text = translate_aggregate(db.catalog(), &Lexicon::movie_domain(), &q, &g).unwrap();
        assert_eq!(
            text,
            "Find the number of actors in each movie with more than one genre."
        );
    }

    #[test]
    fn q8_reads_as_all_in_the_same_year() {
        let (db, q, g) = setup(
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id \
             group by a.id, a.name having count(distinct m.year) = 1",
        );
        let c = classify(&q, &g);
        let QueryCategory::Impossible { idiom } = &c.category else {
            panic!("expected impossible category");
        };
        let text =
            translate_impossible(db.catalog(), &Lexicon::movie_domain(), &q, &g, idiom).unwrap();
        assert_eq!(text, "Find the actors whose movies all have the same year.");
    }

    #[test]
    fn q9_reads_as_a_superlative() {
        let (db, q, g) = setup(
            "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
             and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
             where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
        );
        let c = classify(&q, &g);
        let QueryCategory::Impossible { idiom } = &c.category else {
            panic!("expected impossible category");
        };
        let text =
            translate_impossible(db.catalog(), &Lexicon::movie_domain(), &q, &g, idiom).unwrap();
        assert!(text.contains("Find the actors"));
        assert!(text.contains("earliest year"));
        assert!(text.contains("repeated"));
    }

    #[test]
    fn non_matching_shapes_decline() {
        let (db, q, g) = setup("select avg(m.year) from MOVIES m");
        assert!(translate_aggregate(db.catalog(), &Lexicon::movie_domain(), &q, &g).is_none());
        let (db, q, g) = setup("select m.title from MOVIES m where m.year > 2000");
        assert!(translate_division(db.catalog(), &Lexicon::movie_domain(), &q, &g).is_none());
        assert!(translate_flattenable(db.catalog(), &Lexicon::movie_domain(), &q).is_none());
    }
}
