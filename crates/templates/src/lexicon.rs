//! The lexicon: domain vocabulary the translation layer draws on.
//!
//! The paper assumes "the names of relations and attributes are meaningful;
//! otherwise, appropriate aliases can be used" and relies on a designer to
//! supply conceptual meanings, verb phrases for relationships ("plays in",
//! "directed by") and phrasings for attributes ("was born in"). The lexicon
//! collects those choices in one place; everything has a schema-derived
//! default so translation degrades gracefully when the designer has not
//! annotated a relation yet.

use std::collections::BTreeMap;

/// Grammatical gender hints used by pronoun introduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Gender {
    Masculine,
    Feminine,
    #[default]
    Neuter,
}

impl Gender {
    /// Subject pronoun for the gender ("he", "she", "it").
    pub fn subject_pronoun(&self) -> &'static str {
        match self {
            Gender::Masculine => "he",
            Gender::Feminine => "she",
            Gender::Neuter => "it",
        }
    }
}

/// A verb phrase describing the relationship expressed by a join edge,
/// directionally: `subject_relation verb object_relation`
/// ("ACTOR plays in MOVIES", "DIRECTOR directed MOVIES").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationshipVerb {
    /// Relation acting as the grammatical subject.
    pub subject: String,
    /// Relation acting as the grammatical object.
    pub object: String,
    /// Verb phrase, third person singular ("plays in").
    pub verb: String,
    /// Plural / non-third-person form ("play in"); falls back to `verb`
    /// when empty.
    pub verb_plural: String,
}

/// The lexicon.
#[derive(Debug, Clone, Default)]
pub struct Lexicon {
    /// Conceptual noun for a relation ("MOVIES" -> "movie").
    concepts: BTreeMap<String, String>,
    /// Phrase connecting a relation's subject to an attribute value
    /// ("DIRECTOR.blocation" -> "was born in").
    attribute_phrases: BTreeMap<String, String>,
    /// Verb phrases for relationships between relations.
    verbs: Vec<RelationshipVerb>,
    /// Gender hints for relations whose tuples denote people.
    genders: BTreeMap<String, Gender>,
}

fn key(relation: &str) -> String {
    relation.to_uppercase()
}

fn attr_key(relation: &str, attribute: &str) -> String {
    format!("{}.{}", relation.to_uppercase(), attribute.to_lowercase())
}

impl Lexicon {
    /// Empty lexicon; lookups fall back to schema-derived defaults.
    pub fn new() -> Lexicon {
        Lexicon::default()
    }

    /// The lexicon used throughout the paper's movie examples.
    pub fn movie_domain() -> Lexicon {
        let mut lex = Lexicon::new();
        lex.set_concept("MOVIES", "movie")
            .set_concept("ACTOR", "actor")
            .set_concept("DIRECTOR", "director")
            .set_concept("GENRE", "genre")
            .set_concept("CAST", "casting credit")
            .set_concept("DIRECTED", "directing credit")
            .set_concept("EMP", "employee")
            .set_concept("DEPT", "department");
        lex.set_attribute_phrase("DIRECTOR", "blocation", "was born in")
            .set_attribute_phrase("DIRECTOR", "bdate", "was born on")
            .set_attribute_phrase("MOVIES", "year", "was released in")
            .set_attribute_phrase("ACTOR", "nationality", "is")
            .set_attribute_phrase("CAST", "role", "plays the role of")
            .set_attribute_phrase("EMP", "sal", "earns")
            .set_attribute_phrase("EMP", "age", "is aged")
            .set_attribute_phrase("DEPT", "dname", "is named");
        lex.add_verb("ACTOR", "MOVIES", "plays in", "play in")
            .add_verb("DIRECTOR", "MOVIES", "directed", "directed")
            .add_verb(
                "MOVIES",
                "GENRE",
                "belongs to the genre",
                "belong to the genre",
            )
            .add_verb("MOVIES", "ACTOR", "features", "feature")
            .add_verb("MOVIES", "DIRECTOR", "is directed by", "are directed by")
            .add_verb("EMP", "DEPT", "works in", "work in");
        lex.set_gender("ACTOR", Gender::Masculine)
            .set_gender("DIRECTOR", Gender::Masculine)
            .set_gender("EMP", Gender::Neuter);
        lex
    }

    /// Set the conceptual noun of a relation.
    pub fn set_concept(&mut self, relation: &str, concept: &str) -> &mut Self {
        self.concepts.insert(key(relation), concept.to_string());
        self
    }

    /// Conceptual noun of a relation, falling back to a lower-cased,
    /// singularized relation name.
    pub fn concept(&self, relation: &str) -> String {
        self.concepts
            .get(&key(relation))
            .cloned()
            .unwrap_or_else(|| datastore::schema::singularize(&relation.to_lowercase()))
    }

    /// Set the phrase connecting a relation's subject to an attribute.
    pub fn set_attribute_phrase(
        &mut self,
        relation: &str,
        attribute: &str,
        phrase: &str,
    ) -> &mut Self {
        self.attribute_phrases
            .insert(attr_key(relation, attribute), phrase.to_string());
        self
    }

    /// Phrase for an attribute, falling back to "has ATTRIBUTE" ("the
    /// copulative default" — `X has year 2005`).
    pub fn attribute_phrase(&self, relation: &str, attribute: &str) -> String {
        self.attribute_phrases
            .get(&attr_key(relation, attribute))
            .cloned()
            .unwrap_or_else(|| format!("has {}", attribute.to_lowercase()))
    }

    /// Register a verb phrase for the relationship `subject -> object`.
    pub fn add_verb(
        &mut self,
        subject: &str,
        object: &str,
        verb: &str,
        verb_plural: &str,
    ) -> &mut Self {
        self.verbs.push(RelationshipVerb {
            subject: key(subject),
            object: key(object),
            verb: verb.to_string(),
            verb_plural: verb_plural.to_string(),
        });
        self
    }

    /// The verb phrase for `subject -> object`, if registered.
    pub fn verb(&self, subject: &str, object: &str) -> Option<&RelationshipVerb> {
        self.verbs
            .iter()
            .find(|v| v.subject == key(subject) && v.object == key(object))
    }

    /// Set the gender hint for a relation's tuples.
    pub fn set_gender(&mut self, relation: &str, gender: Gender) -> &mut Self {
        self.genders.insert(key(relation), gender);
        self
    }

    /// Gender hint for a relation (neuter when unknown).
    pub fn gender(&self, relation: &str) -> Gender {
        self.genders
            .get(&key(relation))
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movie_domain_lexicon_covers_the_paper_examples() {
        let lex = Lexicon::movie_domain();
        assert_eq!(lex.concept("MOVIES"), "movie");
        assert_eq!(lex.concept("ACTOR"), "actor");
        assert_eq!(lex.attribute_phrase("DIRECTOR", "blocation"), "was born in");
        assert_eq!(lex.attribute_phrase("DIRECTOR", "BDATE"), "was born on");
        assert_eq!(lex.verb("ACTOR", "MOVIES").unwrap().verb, "plays in");
        assert_eq!(lex.verb("DIRECTOR", "MOVIES").unwrap().verb, "directed");
    }

    #[test]
    fn defaults_degrade_gracefully() {
        let lex = Lexicon::new();
        assert_eq!(lex.concept("COMPANIES"), "company");
        assert_eq!(lex.attribute_phrase("MOVIES", "Budget"), "has budget");
        assert!(lex.verb("A", "B").is_none());
        assert_eq!(lex.gender("ANYTHING"), Gender::Neuter);
    }

    #[test]
    fn pronouns_follow_gender() {
        assert_eq!(Gender::Masculine.subject_pronoun(), "he");
        assert_eq!(Gender::Feminine.subject_pronoun(), "she");
        assert_eq!(Gender::Neuter.subject_pronoun(), "it");
        let mut lex = Lexicon::new();
        lex.set_gender("DIRECTOR", Gender::Feminine);
        assert_eq!(lex.gender("director"), Gender::Feminine);
    }
}
