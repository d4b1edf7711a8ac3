//! Clause model: the intermediate representation between template
//! instantiation and surface realization.
//!
//! A clause has a subject and a predicate (verb phrase plus complement).
//! Turned into a relative clause ("who was born in Italy") it is what lets
//! the split pattern move from the "vapid narrative" of §2.2 to the fluent
//! one.

use std::fmt;

/// A clause: subject + predicate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clause {
    /// The grammatical subject ("Woody Allen", "the movie M1").
    pub subject: String,
    /// The predicate: verb phrase and complement ("was born in Brooklyn").
    pub predicate: String,
}

impl Clause {
    /// Build a clause from subject and predicate.
    pub fn new(subject: impl Into<String>, predicate: impl Into<String>) -> Clause {
        Clause {
            subject: subject.into(),
            predicate: predicate.into(),
        }
    }

    /// Render the clause as flat text (no final punctuation, no
    /// capitalization): `subject predicate`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(self.subject.trim());
        if !self.predicate.trim().is_empty() {
            out.push(' ');
            out.push_str(self.predicate.trim());
        }
        out
    }

    /// Turn this clause into a relative clause modifying its subject
    /// ("Woody Allen was born in Brooklyn" -> "who was born in Brooklyn").
    /// The relative pronoun is chosen by the caller ("who" for people,
    /// "that"/"which" for things).
    pub fn as_relative(&self, pronoun: &str) -> String {
        format!("{pronoun} {}", self.predicate.trim())
    }

    /// True when the clause says nothing.
    pub fn is_empty(&self) -> bool {
        self.subject.trim().is_empty() && self.predicate.trim().is_empty()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_subject_predicate() {
        let c = Clause::new("Woody Allen", "was born in Brooklyn");
        assert_eq!(c.render(), "Woody Allen was born in Brooklyn");
        assert!(!c.is_empty());
        assert!(Clause::default().is_empty());
    }

    #[test]
    fn as_relative_rewrites_with_a_pronoun() {
        let c = Clause::new("the actor A1", "is Greek");
        assert_eq!(c.as_relative("who"), "who is Greek");
        let c = Clause::new("the movie", " was released in 2004 ");
        assert_eq!(c.as_relative("that"), "that was released in 2004");
    }
}
