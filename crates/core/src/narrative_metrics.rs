//! Expressiveness and effectiveness proxies for generated *narratives* —
//! not engine metrics.
//!
//! The paper asks that generated text be *expressive* ("accurate in
//! capturing the underlying queries or data") and *effective* ("allowing
//! fast and unique interpretation"). Without a user study those qualities
//! can only be approximated; this module computes the measurable proxies the
//! benchmark harness reports: how many query elements the narrative covers,
//! how long it is, and how repetitive it is. (Engine metrics — what `SHOW
//! METRICS` reads — live in [`datastore::obs`].)

use sqlparse::ast::{Expr, Literal, SelectStatement};

/// Measurable properties of one narrative for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct NarrativeMetrics {
    /// Fraction (0..=1) of the query's relations, constants and projected
    /// attributes that the narrative mentions (expressiveness proxy).
    pub element_coverage: f64,
    /// Number of words.
    pub words: usize,
    /// Number of sentences.
    pub sentences: usize,
    /// Fraction of repeated words (1 - distinct/total); lower is better
    /// (effectiveness proxy: the compact style exists to reduce repetition).
    pub repetition: f64,
}

/// Compute metrics for a narrative describing `query`.
pub fn narrative_metrics(query: &SelectStatement, narrative: &str) -> NarrativeMetrics {
    let lower = narrative.to_lowercase();

    // Elements that should be mentioned: constants, relation names (or their
    // obvious concept form), projected attribute names.
    let mut elements: Vec<String> = Vec::new();
    for table in &query.from {
        elements.push(table.table.to_lowercase());
    }
    let mut visit = |e: &Expr| {
        e.walk(&mut |x| {
            if let Expr::Literal(Literal::String(s)) = x {
                elements.push(s.to_lowercase());
            }
            if let Expr::Literal(Literal::Integer(i)) = x {
                elements.push(i.to_string());
            }
        });
    };
    if let Some(w) = &query.selection {
        visit(w);
    }
    if let Some(h) = &query.having {
        visit(h);
    }
    for c in query.column_refs() {
        elements.push(c.column.to_lowercase());
    }
    elements.sort();
    elements.dedup();

    let covered = elements
        .iter()
        .filter(|e| {
            // A relation counts as covered if its name or its singular form
            // appears ("MOVIES" -> "movie").
            let singular = datastore::schema::singularize(e);
            lower.contains(e.as_str()) || lower.contains(&singular)
        })
        .count();
    let element_coverage = if elements.is_empty() {
        1.0
    } else {
        covered as f64 / elements.len() as f64
    };

    let words: Vec<&str> = narrative.split_whitespace().collect();
    let mut distinct: Vec<String> = words.iter().map(|w| w.to_lowercase()).collect();
    distinct.sort();
    distinct.dedup();
    let repetition = if words.is_empty() {
        0.0
    } else {
        1.0 - distinct.len() as f64 / words.len() as f64
    };
    let sentences = narrative
        .matches(['.', '!', '?'])
        .count()
        .max(usize::from(!narrative.is_empty()));

    NarrativeMetrics {
        element_coverage,
        words: words.len(),
        sentences,
        repetition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::parse_query;

    #[test]
    fn coverage_reflects_mentioned_elements() {
        let q = parse_query("select m.title from MOVIES m, ACTOR a where a.name = 'Brad Pitt'")
            .unwrap();
        let good = narrative_metrics(&q, "Find the movies that feature the actor Brad Pitt.");
        let bad = narrative_metrics(&q, "Find some things.");
        assert!(good.element_coverage > bad.element_coverage);
        assert!(good.element_coverage > 0.5);
    }

    #[test]
    fn repetition_is_lower_for_compact_text() {
        let q = parse_query("select m.title from MOVIES m").unwrap();
        let compact =
            narrative_metrics(&q, "Woody Allen was born in Brooklyn on December 1, 1935.");
        let repetitive = narrative_metrics(
            &q,
            "Woody Allen was born in Brooklyn. Woody Allen was born on December 1, 1935.",
        );
        assert!(compact.repetition < repetitive.repetition);
        assert_eq!(compact.sentences, 1);
        assert!(repetitive.sentences >= 2);
    }

    #[test]
    fn empty_narrative_has_zero_words() {
        let q = parse_query("select m.title from MOVIES m").unwrap();
        let m = narrative_metrics(&q, "");
        assert_eq!(m.words, 0);
        assert_eq!(m.repetition, 0.0);
    }
}
