//! Shared phrase-building helpers for the query translation strategies.

use datastore::Catalog;
use schemagraph::{QueryBlock, RelationClass};
use sqlparse::ast::{flip, BinaryOperator, ColumnRef, Expr, Literal, UnaryOperator};
use templates::Lexicon;

/// The plural conceptual noun of a relation ("movies", "actors").
pub fn concept_plural(lexicon: &Lexicon, relation: &str) -> String {
    nlg::pluralize(&lexicon.concept(relation))
}

/// A literal rendered for a narrative (strings unquoted, numbers plain, the
/// empty string as SQL writes it, so that it still shows).
pub fn literal_phrase(literal: &Literal) -> String {
    match literal {
        Literal::String(s) if s.is_empty() => "''".to_string(),
        Literal::String(s) => s.clone(),
        Literal::Integer(i) => i.to_string(),
        Literal::Float(f) => f.to_string(),
        Literal::Boolean(b) => if *b { "true" } else { "false" }.to_string(),
        Literal::Null => "unknown".to_string(),
    }
}

/// The phrase a projected class contributes to the "Find …" head of a
/// sentence: when the projected attribute is the relation's heading
/// attribute the phrase is just the plural concept (the paper's
/// `'title' -> 'movies'` replacement), otherwise "the `<attr>`s of the
/// `<concept plural>`".
pub fn projection_phrase(catalog: &Catalog, lexicon: &Lexicon, class: &RelationClass) -> String {
    let plural = concept_plural(lexicon, &class.relation);
    let heading = catalog
        .table(&class.relation)
        .map(|t| t.effective_heading().to_string())
        .unwrap_or_default();
    if class.select.is_empty() {
        return format!("the {plural}");
    }
    let non_heading: Vec<&str> = class
        .select
        .iter()
        .map(|s| s.column.as_str())
        .filter(|c| !c.eq_ignore_ascii_case(&heading) && *c != "*")
        .collect();
    if non_heading.is_empty() {
        format!("the {plural}")
    } else {
        let attrs = non_heading
            .iter()
            .map(|a| nlg::pluralize(&a.to_lowercase()))
            .collect::<Vec<_>>()
            .join(" and ");
        format!("the {attrs} of the {plural}")
    }
}

/// How to mention a constrained entity: if the class carries an equality
/// constraint on its heading attribute ("a.name = 'Brad Pitt'"), the entity
/// is mentioned by name ("the actor Brad Pitt"); otherwise by its concept
/// plus the verbalized constraints ("movies whose year is greater than
/// 2000").
pub fn entity_mention(
    catalog: &Catalog,
    lexicon: &Lexicon,
    class: &RelationClass,
    constraints: &[&Expr],
) -> String {
    let concept = lexicon.concept(&class.relation);
    if let Some(name) = heading_constant(catalog, class, constraints) {
        return format!("the {concept} {name}");
    }
    // Otherwise: concept plus verbalized constraints.
    let described: Vec<String> = constraints
        .iter()
        .filter_map(|c| constraint_phrase(c))
        .collect();
    if described.is_empty() {
        format!("the {concept}")
    } else {
        format!("the {concept} whose {}", described.join(" and whose "))
    }
}

/// The constant a class's heading attribute is equated with, as a narrative
/// shows it ("action" for `g.genre = 'action'`).
pub fn heading_constant(
    catalog: &Catalog,
    class: &RelationClass,
    constraints: &[&Expr],
) -> Option<String> {
    let heading = catalog.table(&class.relation)?.effective_heading();
    constraints.iter().find_map(|c| match selection(c)? {
        (col, BinaryOperator::Eq, constant) if col.column.eq_ignore_ascii_case(heading) => {
            Some(constant)
        }
        _ => None,
    })
}

/// A constant as a narrative shows it: a literal, or a number behind a minus
/// sign (which the parser reads as a minus applied to the number).
fn constant_phrase(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Literal(literal) => Some(literal_phrase(literal)),
        Expr::UnaryOp {
            op: UnaryOperator::Minus,
            expr,
        } if matches!(
            **expr,
            Expr::Literal(Literal::Integer(_) | Literal::Float(_))
        ) =>
        {
            Some(format!("-{}", constant_phrase(expr)?))
        }
        _ => None,
    }
}

/// A comparison of a column with a constant, either way round, as the
/// column, the operator seen from the column and the constant's phrase.
fn selection(constraint: &Expr) -> Option<(&ColumnRef, BinaryOperator, String)> {
    let Expr::BinaryOp { left, op, right } = constraint else {
        return None;
    };
    match (left.as_ref(), right.as_ref()) {
        _ if !op.is_comparison() => None,
        (Expr::Column(c), constant) => Some((c, *op, constant_phrase(constant)?)),
        (constant, Expr::Column(c)) => Some((c, flip(*op), constant_phrase(constant)?)),
        _ => None,
    }
}

/// The members of an `IN` list as one alternative ("1999 or 2004"), or of a
/// `NOT IN` list as what the value is not ("neither 1999 nor 2004").
fn alternatives(items: &[String], negated: bool) -> Option<String> {
    let (last, init) = items.split_last()?;
    Some(match (init, negated) {
        ([], false) => last.clone(),
        ([], true) => format!("not {last}"),
        ([one], true) => format!("neither {one} nor {last}"),
        (_, true) => format!("none of {}", nlg::join_with_and(items)),
        ([one], false) => format!("{one} or {last}"),
        (_, false) => format!("{}, or {last}", init.join(", ")),
    })
}

/// Verbalize a single selection constraint ("year is greater than 2000").
pub fn constraint_phrase(constraint: &Expr) -> Option<String> {
    if let Some((col, op, constant)) = selection(constraint) {
        return Some(format!(
            "{} {} {constant}",
            col.column.to_lowercase(),
            op.narrative_phrase(),
        ));
    }
    match constraint {
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let Expr::Column(c) = expr.as_ref() else {
                return None;
            };
            let items: Option<Vec<String>> = list.iter().map(constant_phrase).collect();
            Some(format!(
                "{} is {}",
                c.column.to_lowercase(),
                alternatives(&items?, *negated)?
            ))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            if let (Expr::Column(c), Expr::Literal(Literal::String(p))) =
                (expr.as_ref(), pattern.as_ref())
            {
                Some(format!(
                    "{} {} like {}",
                    c.column.to_lowercase(),
                    if *negated { "does not look" } else { "looks" },
                    p
                ))
            } else {
                None
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let Expr::Column(c) = expr.as_ref() else {
                return None;
            };
            Some(format!(
                "{} is {}between {} and {}",
                c.column.to_lowercase(),
                if *negated { "not " } else { "" },
                constant_phrase(low)?,
                constant_phrase(high)?
            ))
        }
        Expr::IsNull { expr, negated } => {
            if let Expr::Column(c) = expr.as_ref() {
                Some(format!(
                    "{} is {}",
                    c.column.to_lowercase(),
                    if *negated { "known" } else { "unknown" }
                ))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The classes of a block that act as pure connectors for the purposes of a
/// narrative: no projected attributes, no constraints, and exactly two join
/// edges. `CAST` in Q1 is the canonical example.
pub fn connector_classes(block: &QueryBlock) -> Vec<usize> {
    let degrees = block.join_degrees();
    block
        .classes
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            c.select.is_empty()
                && c.where_constraints.is_empty()
                && c.having_constraints.is_empty()
                && degrees.get(*i).copied().unwrap_or(0) == 2
        })
        .map(|(i, _)| i)
        .collect()
}

/// The neighbours of a class in the block's join graph.
pub fn neighbours(block: &QueryBlock, class: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for j in &block.joins {
        if j.left == class {
            out.push(j.right);
        } else if j.right == class {
            out.push(j.left);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The join adjacency of a block after collapsing connector classes: each
/// connector with exactly two neighbours is replaced by a direct edge
/// between those neighbours.
pub fn collapsed_adjacency(block: &QueryBlock) -> Vec<(usize, usize)> {
    let connectors = connector_classes(block);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for j in &block.joins {
        if connectors.contains(&j.left) || connectors.contains(&j.right) {
            continue;
        }
        edges.push((j.left.min(j.right), j.left.max(j.right)));
    }
    for &connector in &connectors {
        let n = neighbours(block, connector);
        if n.len() == 2 {
            edges.push((n[0].min(n[1]), n[0].max(n[1])));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;
    use schemagraph::QueryGraph;
    use sqlparse::parse_query;

    fn block_for(sql: &str) -> QueryBlock {
        let db = movie_database();
        let q = parse_query(sql).unwrap();
        QueryGraph::from_query(db.catalog(), &q)
            .unwrap()
            .root()
            .clone()
    }

    #[test]
    fn projection_phrase_uses_concepts_for_headings() {
        let db = movie_database();
        let lex = Lexicon::movie_domain();
        let block = block_for("select m.title, m.year from MOVIES m");
        let phrase = projection_phrase(db.catalog(), &lex, &block.classes[0]);
        assert_eq!(phrase, "the years of the movies");
        let block = block_for("select m.title from MOVIES m");
        let phrase = projection_phrase(db.catalog(), &lex, &block.classes[0]);
        assert_eq!(phrase, "the movies");
    }

    #[test]
    fn entity_mention_prefers_heading_constants() {
        let db = movie_database();
        let lex = Lexicon::movie_domain();
        let block = block_for("select m.title from MOVIES m, ACTOR a where a.name = 'Brad Pitt'");
        let a = &block.classes[1];
        let q = parse_query("select m.title from MOVIES m, ACTOR a where a.name = 'Brad Pitt'")
            .unwrap();
        let constraints: Vec<&Expr> = q.where_conjuncts();
        assert_eq!(
            entity_mention(db.catalog(), &lex, a, &constraints),
            "the actor Brad Pitt"
        );
    }

    #[test]
    fn entity_mention_falls_back_to_constraint_description() {
        let db = movie_database();
        let lex = Lexicon::movie_domain();
        let q = parse_query("select m.title from MOVIES m where m.year > 2000").unwrap();
        let block = block_for("select m.title from MOVIES m where m.year > 2000");
        let constraints: Vec<&Expr> = q.where_conjuncts();
        assert_eq!(
            entity_mention(db.catalog(), &lex, &block.classes[0], &constraints),
            "the movie whose year is greater than 2000"
        );
    }

    #[test]
    fn constraint_phrases_cover_like_between_isnull() {
        let q = parse_query(
            "select * from MOVIES m where m.title like 'The%' and m.year between 2000 and 2005 \
             and m.year is not null",
        )
        .unwrap();
        let phrases: Vec<String> = q
            .where_conjuncts()
            .iter()
            .filter_map(|c| constraint_phrase(c))
            .collect();
        assert_eq!(phrases.len(), 3);
        assert!(phrases[0].contains("looks like"));
        assert!(phrases[1].contains("between 2000 and 2005"));
        assert!(phrases[2].contains("known"));
    }

    #[test]
    fn connector_detection_and_collapse() {
        let block = block_for(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        let connectors = connector_classes(&block);
        assert_eq!(connectors.len(), 1);
        assert_eq!(block.classes[connectors[0]].relation, "CAST");
        let collapsed = collapsed_adjacency(&block);
        // MOVIES (0) and ACTOR (2) end up directly connected.
        assert_eq!(collapsed, vec![(0, 2)]);
        assert_eq!(neighbours(&block, connectors[0]), vec![0, 2]);
    }
}
