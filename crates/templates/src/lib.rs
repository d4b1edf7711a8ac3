//! # templates — the template language of the `talkback` reproduction
//!
//! Implements the annotation machinery of §2.2: template labels attached to
//! schema-graph nodes and edges, written in the paper's own notation
//! (`DNAME + " was born" + " in " + BLOCATION`, `DEFINE MOVIE_LIST as …`),
//! instantiated against tuples at query time, plus the common-expression
//! merging that turns per-attribute clauses into a single fluent sentence.
//!
//! Modules:
//! * [`template`] — the template and loop-template data structures;
//! * [`parse`] — parser for the paper's template notation;
//! * [`mod@instantiate`] — bindings and instantiation;
//! * [`merge`] — common-expression identification and merging;
//! * [`lexicon`] — domain vocabulary (concepts, verb phrases, genders);
//! * [`annotation`] — the registry of labels with schema-derived defaults.

pub mod annotation;
pub mod instantiate;
pub mod lexicon;
pub mod merge;
pub mod parse;
pub mod template;

pub use annotation::{AnnotationRegistry, AnnotationTarget};
pub use instantiate::{instantiate, instantiate_loop, Bindings, InstantiateError};
pub use lexicon::{Gender, Lexicon, RelationshipVerb};
pub use merge::{common_prefix_len, merge_clauses, merge_pair};
pub use parse::{parse_loop_definition, parse_template, TemplateParseError};
pub use template::{LoopTemplate, Segment, Template};
