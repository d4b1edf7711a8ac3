//! Declarative translation of select-project-join queries (§3.3.1–§3.3.3).
//!
//! Path and subgraph queries are translated by composing projection phrases
//! with relative clauses derived from the lexicon's relationship verbs,
//! eliding connector relations such as `CAST` (the counterpart of `DIRECTED`
//! elision in content translation). Graph queries first try the non-local
//! idioms the paper calls for ("pairs of actors who have played in the same
//! movie", "movies whose title is one of their roles") and fall back to the
//! caller's procedural strategy otherwise.
//!
//! What each WHERE conjunct constrains is read from the block's roles (the
//! binder's): a class's constraints are the conjuncts in its `<<WHERE>>`
//! compartment, and a comparison between two classes is a residual over
//! them, however the query spells its qualifiers.

use crate::query::phrases::{
    collapsed_adjacency, concept_plural, connector_classes, constraint_phrase, entity_mention,
    heading_constant, projection_phrase,
};
use datastore::Catalog;
use nlg::finish_sentence;
use schemagraph::QueryBlock;
use sqlparse::ast::{BinaryOperator, Expr, SelectStatement};
use sqlparse::bind::ConjunctRole;
use templates::Lexicon;

/// The conjuncts in a class's `<<WHERE>>` compartment.
fn class_constraints<'a>(
    query: &'a SelectStatement,
    block: &QueryBlock,
    class: usize,
) -> Vec<&'a Expr> {
    let conjuncts = query.where_conjuncts();
    block.class_conjuncts(class).map(|i| conjuncts[i]).collect()
}

/// Indices of the projected classes (classes with a non-empty SELECT
/// compartment).
fn projected_classes(block: &QueryBlock) -> Vec<usize> {
    block
        .classes
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.select.is_empty())
        .map(|(i, _)| i)
        .collect()
}

/// Declarative translation of an SPJ block. Returns `None` when no fluent
/// strategy applies (the caller then falls back to the procedural
/// translation).
pub fn declarative_spj(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    block: &QueryBlock,
) -> Option<String> {
    if let Some(text) = symmetric_pair_idiom(catalog, lexicon, query, block) {
        return Some(text);
    }
    if let Some(text) = cyclic_attribute_idiom(catalog, lexicon, block) {
        return Some(text);
    }
    general_spj(catalog, lexicon, query, block)
}

/// Q3's non-local template: two instances of the same relation, both
/// projected, meeting at a common relation, with an ordering constraint
/// between the instances ("Find pairs of actors who have played in the same
/// movie").
fn symmetric_pair_idiom(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    block: &QueryBlock,
) -> Option<String> {
    if !block.has_multiple_instances() {
        return None;
    }
    let projected = projected_classes(block);
    if projected.len() != 2 {
        return None;
    }
    let (a, b) = (projected[0], projected[1]);
    if !block.classes[a]
        .relation
        .eq_ignore_ascii_case(&block.classes[b].relation)
    {
        return None;
    }
    // Both instances must reach a common class through the collapsed join
    // graph.
    let adjacency = collapsed_adjacency(block);
    let neighbours = |x: usize| -> Vec<usize> {
        adjacency
            .iter()
            .filter(|(l, r)| *l == x || *r == x)
            .map(|(l, r)| if *l == x { *r } else { *l })
            .collect()
    };
    let common: Vec<usize> = neighbours(a)
        .into_iter()
        .filter(|n| neighbours(b).contains(n))
        .collect();
    let meeting = *common.first()?;
    // An ordering / inequality constraint between the two instances marks
    // the symmetric-pair intent (it removes mirrored duplicates).
    let mut conjuncts = query.where_conjuncts().into_iter().zip(&block.roles);
    let has_ordering = conjuncts.any(|(c, role)| {
        let (ConjunctRole::Residual { tables }, Expr::BinaryOp { left, op, right }) = (role, c)
        else {
            return false;
        };
        let ordering = matches!(
            op,
            BinaryOperator::Gt | BinaryOperator::Lt | BinaryOperator::NotEq
        );
        let columns = matches!(
            (left.as_ref(), right.as_ref()),
            (Expr::Column(_), Expr::Column(_))
        );
        ordering && columns && (tables[..] == [a, b] || tables[..] == [b, a])
    });
    if !has_ordering {
        return None;
    }
    let pair_concept = concept_plural(lexicon, &block.classes[a].relation);
    let meeting_concept = lexicon.concept(&block.classes[meeting].relation);
    let verb = lexicon
        .verb(&block.classes[a].relation, &block.classes[meeting].relation)
        .map(|v| v.verb_plural.clone())
        .unwrap_or_else(|| "are related to".to_string());
    let catalog_unused = catalog;
    let _ = catalog_unused;
    Some(finish_sentence(&format!(
        "Find pairs of {pair_concept} that {verb} the same {meeting_concept}"
    )))
}

/// Q4's non-local template: a cyclic block whose cycle closes with a non-FK
/// equality between an attribute of the projected relation and an attribute
/// of a related relation ("Find movies whose title is one of their roles").
fn cyclic_attribute_idiom(
    catalog: &Catalog,
    lexicon: &Lexicon,
    block: &QueryBlock,
) -> Option<String> {
    let projected = projected_classes(block);
    let non_fk = block.joins.iter().find(|j| !j.is_foreign_key)?;
    // Both endpoints must also be connected through a FK join (that is what
    // makes it a cycle rather than a theta join).
    let fk_connected = block.joins.iter().any(|j| {
        j.is_foreign_key
            && ((j.left == non_fk.left && j.right == non_fk.right)
                || (j.left == non_fk.right && j.right == non_fk.left))
    });
    if !fk_connected {
        return None;
    }
    let (proj, proj_col, other, other_col) = if projected.contains(&non_fk.left) {
        (
            non_fk.left,
            &non_fk.left_column,
            non_fk.right,
            &non_fk.right_column,
        )
    } else if projected.contains(&non_fk.right) {
        (
            non_fk.right,
            &non_fk.right_column,
            non_fk.left,
            &non_fk.left_column,
        )
    } else {
        return None;
    };
    let _ = other;
    let _ = catalog;
    let plural = concept_plural(lexicon, &block.classes[proj].relation);
    Some(finish_sentence(&format!(
        "Find the {plural} whose {} is one of their {}",
        proj_col.to_lowercase(),
        nlg::pluralize(&other_col.to_lowercase())
    )))
}

/// Path / subgraph translation: projection phrases plus relative clauses for
/// every constrained, non-projected relation, connected through the
/// collapsed join graph.
fn general_spj(
    catalog: &Catalog,
    lexicon: &Lexicon,
    query: &SelectStatement,
    block: &QueryBlock,
) -> Option<String> {
    let mut projected = projected_classes(block);
    if projected.is_empty() {
        return None;
    }
    // Order the head phrases the way the SELECT list orders them (the paper
    // writes "the actors and titles of action movies", i.e. SELECT order),
    // rather than FROM order.
    let select_order: Vec<usize> = query
        .projection
        .iter()
        .filter_map(|item| match item {
            sqlparse::ast::SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => c.qualifier.as_deref().and_then(|q| block.class_index(q)),
            _ => None,
        })
        .collect();
    projected.sort_by_key(|p| {
        select_order
            .iter()
            .position(|x| x == p)
            .unwrap_or(usize::MAX)
    });
    let connectors = connector_classes(block);
    let adjacency = collapsed_adjacency(block);

    // Head: one phrase per projected class (deduplicated).
    let mut head_phrases: Vec<String> = Vec::new();
    for &p in &projected {
        let phrase = projection_phrase(catalog, lexicon, &block.classes[p]);
        if !head_phrases.contains(&phrase) {
            head_phrases.push(phrase);
        }
    }
    let mut text = format!("Find {}", nlg::join_with_and(&head_phrases));

    // Constraints on projected classes become "whose …" additions.
    for &p in &projected {
        let constraints = class_constraints(query, block, p);
        let phrases: Vec<String> = constraints
            .iter()
            .filter_map(|c| constraint_phrase(c))
            .collect();
        if !phrases.is_empty() {
            text.push_str(&format!(" whose {}", phrases.join(" and whose ")));
        }
    }

    // Every other (non-connector) class contributes a relative clause.
    let mut clauses: Vec<String> = Vec::new();
    for (i, class) in block.classes.iter().enumerate() {
        if projected.contains(&i) || connectors.contains(&i) {
            continue;
        }
        let constraints = class_constraints(query, block, i);
        // The projected class this one attaches to in the collapsed graph.
        let attach = adjacency
            .iter()
            .filter(|(l, r)| *l == i || *r == i)
            .map(|(l, r)| if *l == i { *r } else { *l })
            .find(|n| projected.contains(n));
        let Some(attach) = attach else {
            // Unreachable entity (cartesian product component): no fluent
            // reading, let the procedural strategy handle it.
            return None;
        };
        let attach_relation = &block.classes[attach].relation;
        let verb = lexicon
            .verb(attach_relation, &class.relation)
            .map(|v| {
                if v.verb_plural.is_empty() {
                    v.verb.clone()
                } else {
                    v.verb_plural.clone()
                }
            })
            .unwrap_or_else(|| "are related to".to_string());
        let mention = entity_mention(catalog, lexicon, class, &constraints);
        // Avoid "belong to the genre the genre action": when the verb already
        // names the entity's concept, mention only the constraining value.
        let concept = lexicon.concept(&class.relation);
        let object = if verb.ends_with(&concept) {
            heading_constant(catalog, class, &constraints).unwrap_or(mention)
        } else {
            mention
        };
        clauses.push(format!("that {verb} {object}"));
    }
    if !clauses.is_empty() {
        text.push(' ');
        text.push_str(&clauses.join(" and "));
    }

    // Theta-join predicates spanning two tuple variables ("e1.sal > e2.sal")
    // are verbalized explicitly; they are what the EMP/DEPT example of §3.1
    // hinges on ("employees who make more than their managers").
    let conjuncts = query.where_conjuncts().into_iter().zip(&block.roles);
    let cross: Vec<String> = conjuncts
        .filter_map(|(c, role)| match role {
            ConjunctRole::Residual { tables } => cross_constraint_phrase(block, c, tables),
            _ => None,
        })
        .collect();
    if !cross.is_empty() {
        text.push_str(&format!(" such that {}", cross.join(" and ")));
    }
    Some(finish_sentence(&text))
}

/// Verbalize a comparison between attributes of two different tuple
/// variables, a residual over `tables` ("the sal of e1 is greater than the
/// sal of e2").
fn cross_constraint_phrase(
    block: &QueryBlock,
    constraint: &Expr,
    tables: &[usize],
) -> Option<String> {
    let Expr::BinaryOp { left, op, right } = constraint else {
        return None;
    };
    let (Expr::Column(l), Expr::Column(r), true, &[lt, rt]) =
        (left.as_ref(), right.as_ref(), op.is_comparison(), tables)
    else {
        return None;
    };
    Some(format!(
        "the {} of {} {} the {} of {}",
        l.column.to_lowercase(),
        block.classes[lt].alias,
        op.narrative_phrase(),
        r.column.to_lowercase(),
        block.classes[rt].alias
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;
    use schemagraph::QueryGraph;
    use sqlparse::parse_query;

    fn translate(sql: &str) -> Option<String> {
        let db = movie_database();
        let q = parse_query(sql).unwrap();
        let g = QueryGraph::from_query(db.catalog(), &q).unwrap();
        declarative_spj(db.catalog(), &Lexicon::movie_domain(), &q, g.root())
    }

    #[test]
    fn q1_translates_to_a_natural_sentence() {
        let text = translate(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        assert_eq!(text, "Find the movies that feature the actor Brad Pitt.");
    }

    #[test]
    fn q2_translates_with_both_constraints() {
        let text = translate(
            "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
             where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
               and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
        )
        .unwrap();
        assert!(text.starts_with("Find the actors and the movies"));
        assert!(text.contains("are directed by the director G. Loucas"));
        assert!(text.contains("belong to the genre action"));
    }

    #[test]
    fn q3_uses_the_pair_idiom() {
        let text = translate(
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
               and a1.id > a2.id",
        )
        .unwrap();
        assert_eq!(text, "Find pairs of actors that play in the same movie.");
    }

    #[test]
    fn q4_uses_the_cyclic_idiom() {
        let text = translate(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        )
        .unwrap();
        assert_eq!(text, "Find the movies whose title is one of their roles.");
    }

    #[test]
    fn single_relation_filters_read_as_whose_clauses() {
        let text = translate("select m.title from MOVIES m where m.year > 2000").unwrap();
        assert_eq!(text, "Find the movies whose year is greater than 2000.");
    }

    #[test]
    fn unconnected_entities_fall_back_to_procedural() {
        // Cartesian product: the ACTOR constraint cannot be attached to the
        // projected MOVIES class, so the declarative strategy declines.
        assert!(
            translate("select m.title from MOVIES m, ACTOR a where a.name = 'Brad Pitt'").is_none()
        );
    }

    #[test]
    fn projection_of_non_heading_attributes_is_described() {
        let text = translate(
            "select m.year from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'action'",
        )
        .unwrap();
        assert!(text.starts_with("Find the years of the movies"));
        assert!(text.contains("genre action"));
    }
}
