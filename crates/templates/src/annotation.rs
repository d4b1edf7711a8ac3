//! Annotation registry: template labels attached to schema-graph nodes and
//! edges.
//!
//! §2.2: "both nodes and edges are annotated by appropriate template labels.
//! These labels are assigned once, e.g., by the designer, at an initial
//! design phase, and are instantiated at query time." The registry stores
//! designer-supplied labels and synthesizes sensible defaults from the
//! schema plus the lexicon for everything that has not been annotated,
//! mirroring the paper's assumption that relation/attribute names are
//! meaningful.

use crate::lexicon::Lexicon;
use crate::template::{Segment, Template};
use datastore::Catalog;
use std::collections::BTreeMap;

/// Where a template label is attached.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnnotationTarget {
    /// The relation node itself (the "subject template": how to introduce a
    /// tuple of this relation).
    Relation(String),
    /// The projection edge from a relation to one of its attributes.
    ProjectionEdge { relation: String, attribute: String },
    /// The join edge between two relations (direction matters: the first
    /// relation is the sentence subject).
    JoinEdge { from: String, to: String },
}

fn normalize(target: &AnnotationTarget) -> AnnotationTarget {
    match target {
        AnnotationTarget::Relation(r) => AnnotationTarget::Relation(r.to_uppercase()),
        AnnotationTarget::ProjectionEdge {
            relation,
            attribute,
        } => AnnotationTarget::ProjectionEdge {
            relation: relation.to_uppercase(),
            attribute: attribute.to_lowercase(),
        },
        AnnotationTarget::JoinEdge { from, to } => AnnotationTarget::JoinEdge {
            from: from.to_uppercase(),
            to: to.to_uppercase(),
        },
    }
}

/// The registry of template labels.
#[derive(Debug, Clone, Default)]
pub struct AnnotationRegistry {
    labels: BTreeMap<AnnotationTarget, Template>,
}

impl AnnotationRegistry {
    /// Empty registry.
    pub fn new() -> AnnotationRegistry {
        AnnotationRegistry::default()
    }

    /// Attach a template label to a target (designer annotation).
    pub fn annotate(&mut self, target: AnnotationTarget, template: Template) -> &mut Self {
        self.labels.insert(normalize(&target), template);
        self
    }

    /// The explicit label for a target, if one was registered.
    pub fn label(&self, target: &AnnotationTarget) -> Option<&Template> {
        self.labels.get(&normalize(target))
    }

    /// Number of explicit labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no explicit labels are registered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label for a projection edge, synthesizing a default from the
    /// lexicon when none was registered: `<heading> <attribute phrase>
    /// <attribute value>` ("Woody Allen was born in Brooklyn…").
    pub fn projection_label(
        &self,
        catalog: &Catalog,
        lexicon: &Lexicon,
        relation: &str,
        attribute: &str,
    ) -> Template {
        if let Some(t) = self.label(&AnnotationTarget::ProjectionEdge {
            relation: relation.to_string(),
            attribute: attribute.to_string(),
        }) {
            return t.clone();
        }
        let heading = catalog
            .table(relation)
            .map(|t| t.effective_heading().to_string())
            .unwrap_or_else(|| "name".to_string());
        let phrase = lexicon.attribute_phrase(relation, attribute);
        Template::new(vec![
            Segment::attr(heading),
            Segment::lit(format!(" {phrase} ")),
            Segment::attr(attribute.to_string()),
        ])
    }

    /// The label introducing a tuple of a relation ("The director's name is
    /// Woody Allen" style), synthesized from the concept and heading when no
    /// designer label exists.
    pub fn relation_label(&self, catalog: &Catalog, lexicon: &Lexicon, relation: &str) -> Template {
        if let Some(t) = self.label(&AnnotationTarget::Relation(relation.to_string())) {
            return t.clone();
        }
        let heading = catalog
            .table(relation)
            .map(|t| t.effective_heading().to_string())
            .unwrap_or_else(|| "name".to_string());
        let concept = lexicon.concept(relation);
        Template::new(vec![
            Segment::lit(format!("The {concept}'s {} is ", heading.to_lowercase())),
            Segment::attr(heading),
        ])
    }

    /// The designer annotations used for the paper's §2.2 examples: the
    /// DIRECTOR birth templates and the "As a director, …" join label.
    pub fn movie_domain() -> AnnotationRegistry {
        let mut reg = AnnotationRegistry::new();
        reg.annotate(
            AnnotationTarget::ProjectionEdge {
                relation: "DIRECTOR".into(),
                attribute: "blocation".into(),
            },
            Template::new(vec![
                Segment::attr("name"),
                Segment::lit(" was born in "),
                Segment::attr("blocation"),
            ]),
        );
        reg.annotate(
            AnnotationTarget::ProjectionEdge {
                relation: "DIRECTOR".into(),
                attribute: "bdate".into(),
            },
            Template::new(vec![
                Segment::attr("name"),
                Segment::lit(" was born on "),
                Segment::attr("bdate"),
            ]),
        );
        reg.annotate(
            AnnotationTarget::ProjectionEdge {
                relation: "MOVIES".into(),
                attribute: "year".into(),
            },
            Template::new(vec![
                Segment::attr("title"),
                Segment::lit(" was released in "),
                Segment::attr("year"),
            ]),
        );
        reg.annotate(
            AnnotationTarget::JoinEdge {
                from: "DIRECTOR".into(),
                to: "MOVIES".into(),
            },
            Template::new(vec![
                Segment::lit("As a director, "),
                Segment::attr("name"),
                Segment::lit("'s work includes "),
                Segment::attr("MOVIE_LIST"),
            ]),
        );
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::{instantiate, Bindings};
    use datastore::sample::movie_database;

    #[test]
    fn explicit_labels_take_precedence() {
        let db = movie_database();
        let lex = Lexicon::movie_domain();
        let reg = AnnotationRegistry::movie_domain();
        let t = reg.projection_label(db.catalog(), &lex, "DIRECTOR", "blocation");
        assert_eq!(t.referenced_attributes(), vec!["name", "blocation"]);
        let mut b = Bindings::new();
        b.set("name", "Woody Allen")
            .set("blocation", "Brooklyn, New York, USA");
        assert_eq!(
            instantiate(&t, &b).unwrap(),
            "Woody Allen was born in Brooklyn, New York, USA"
        );
    }

    #[test]
    fn default_projection_label_uses_lexicon_phrase() {
        let db = movie_database();
        let lex = Lexicon::movie_domain();
        let reg = AnnotationRegistry::new();
        let t = reg.projection_label(db.catalog(), &lex, "ACTOR", "nationality");
        let mut b = Bindings::new();
        b.set("name", "Brad Pitt").set("nationality", "American");
        assert_eq!(instantiate(&t, &b).unwrap(), "Brad Pitt is American");
    }

    #[test]
    fn default_relation_label_matches_the_paper_phrase() {
        let db = movie_database();
        let lex = Lexicon::movie_domain();
        let reg = AnnotationRegistry::new();
        let t = reg.relation_label(db.catalog(), &lex, "DIRECTOR");
        let mut b = Bindings::new();
        b.set("name", "Woody Allen");
        assert_eq!(
            instantiate(&t, &b).unwrap(),
            "The director's name is Woody Allen"
        );
    }

    #[test]
    fn annotation_lookup_is_case_insensitive() {
        let reg = AnnotationRegistry::movie_domain();
        assert!(reg
            .label(&AnnotationTarget::ProjectionEdge {
                relation: "director".into(),
                attribute: "BLOCATION".into(),
            })
            .is_some());
        assert!(reg
            .label(&AnnotationTarget::Relation("MOVIES".into()))
            .is_none());
        assert_eq!(reg.len(), 4);
        assert!(!reg.is_empty());
    }
}
