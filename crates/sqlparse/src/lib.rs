//! # sqlparse — SQL front-end for the `talkback` reproduction
//!
//! A hand-written lexer, recursive-descent parser, binder and rewriter for
//! the SQL dialect used by the paper's examples (Q1–Q9 and the §3.1 EMP/DEPT
//! query). The crate produces:
//!
//! * an [`ast`] rich enough to represent arbitrary SPJ queries, nested
//!   subqueries (`IN`, `EXISTS`, quantified comparisons), aggregates with
//!   `GROUP BY`/`HAVING`, DML and views;
//! * SQL rendering of that AST ([`display`]) for round-tripping and for
//!   quoting fragments inside narratives;
//! * name resolution against a `datastore` catalog ([`bind`]), which is what
//!   the query graph of §3.2 is built from; and
//! * translatability-motivated rewrites ([`rewrite`]): flattening of nested
//!   queries (Q5 → Q1) and detection of the relational-division idiom (Q6).

pub mod ast;
pub mod bind;
pub mod display;
pub mod error;
pub mod lexer;
pub mod param;
pub mod parser;
pub mod rewrite;

pub use ast::{
    AggregateFunction, BinaryOperator, ColumnRef, ExplainStatement, Expr, Literal, OrderByItem,
    Quantifier, SelectItem, SelectStatement, Statement, TableRef, UnaryOperator,
};
pub use bind::{bind_query, bind_subquery, BoundQuery, BoundTable, ConjunctRole, Connector};
pub use error::{BindError, ParseError};
pub use param::{
    normalize_statement, normalize_strings, parameterize_select, restore_literals,
    NormalizedStatement,
};
pub use parser::{parse_query, parse_statement};
pub use rewrite::{
    detect_division, equivalent_modulo_commutativity, flatten_in_subqueries, normalize,
    DivisionPattern,
};
