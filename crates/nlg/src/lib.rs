//! # nlg — natural language generation substrate
//!
//! Domain-independent text machinery used by the `talkback` translators:
//! clauses and clause aggregation (shared subjects, relative-clause
//! embedding, split-pattern sentences), conservative pronoun introduction,
//! basic English morphology, surface realization (capitalization,
//! punctuation, list joining) and discourse planning (compact vs. procedural
//! style selection, importance ordering, truncation).
//!
//! Everything here is deliberately free of database concepts; the coupling
//! to schemas, templates and queries happens in the `talkback` core crate.

pub mod aggregate;
pub mod clause;
pub mod discourse;
pub mod morph;
pub mod pronoun;
pub mod realize;

pub use aggregate::{
    embed_relative_clauses, join_with_and, merge_same_subject, split_pattern_sentence,
};
pub use clause::Clause;
pub use discourse::{
    order_by_importance, truncate_sentences, ContentComplexity, Style, StylePolicy,
};
pub use morph::{
    be_verb, capitalize_first, count_phrase, have_verb, indefinite_article, pluralize, possessive,
};
pub use pronoun::{PronounPlanner, Referent};
pub use realize::{finish_sentence, join_sentences, quote_sql, realize_clauses, realizes_verbatim};
