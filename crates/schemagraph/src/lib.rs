//! # schemagraph — graph models for the `talkback` reproduction
//!
//! This crate implements the two graph representations at the heart of the
//! paper:
//!
//! * the **database schema graph** of §2.2 / Figure 1 ([`schema_graph`]) —
//!   relation and attribute nodes, projection edges, FK join edges, weights;
//! * the **query graph** of §3.2 / Figure 2 ([`query_graph`]) — one
//!   parameterized relation class per tuple variable with
//!   `FROM/SELECT/WHERE/HAVING` compartments, `GROUP BY`/`ORDER BY` notes,
//!   generic join edges and nesting edges between query blocks.
//!
//! On top of those it provides the analyses the translation strategies need:
//! graph traversal with weights and budgets ([`traversal`]), block shape
//! analysis ([`analysis`]), the §3.3 query
//! categorization ([`mod@classify`]) and DOT export regenerating the paper's
//! figures ([`dot`]).

pub mod analysis;
pub mod classify;
pub mod dot;
pub mod query_graph;
pub mod schema_graph;
pub mod traversal;

pub use analysis::{block_shape, BlockShape};
pub use classify::{classify, detect_idiom, Classification, HigherOrderIdiom, QueryCategory};
pub use dot::{query_graph_to_dot, schema_graph_to_dot};
pub use query_graph::{
    NestingConnector, NestingEdge, QueryBlock, QueryGraph, QueryJoinEdge, RelationClass, SelectAttr,
};
pub use schema_graph::{AttributeNode, JoinEdge, ProjectionEdge, RelationNode, SchemaGraph};
pub use traversal::{dfs_traversal, TraversalConfig, TraversalPlan, TraversalStep};
