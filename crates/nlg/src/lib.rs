//! # nlg — natural language generation substrate
//!
//! Domain-independent text machinery used by the `talkback` translators:
//! clauses and the split-pattern sentence (relative-clause embedding, list
//! joining), conservative pronoun introduction, basic English morphology,
//! surface realization (one-pass sentence finishing, paragraph joining, SQL
//! quoting) and discourse planning (compact vs. procedural style selection,
//! truncation).
//!
//! Everything here is deliberately free of database concepts; the coupling
//! to schemas, templates and queries happens in the `talkback` core crate.

pub mod aggregate;
pub mod clause;
pub mod discourse;
pub mod morph;
pub mod pronoun;
pub mod realize;

pub use aggregate::{join_with_and, split_pattern_sentence};
pub use clause::Clause;
pub use discourse::{truncate_sentences, ContentComplexity, Style, StylePolicy};
pub use morph::{
    be_verb, capitalize_first, count_phrase, indefinite_article, pluralize, possessive,
};
pub use pronoun::{PronounPlanner, Referent};
pub use realize::{finish_sentence, join_sentences, quote_sql, realizes_verbatim};
