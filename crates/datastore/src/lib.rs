//! # datastore — the relational substrate of the `talkback` reproduction
//!
//! *"DBMSs Should Talk Back Too"* (Simitsis & Ioannidis, CIDR 2009) assumes a
//! relational DBMS underneath its translation machinery: a schema with
//! relations, attributes and foreign keys, tuples to narrate, and a query
//! engine to run the queries being explained. This crate provides that
//! substrate from scratch:
//!
//! * typed values and schemas ([`value`], [`schema`]),
//! * an in-memory storage engine with PK/FK enforcement ([`table`],
//!   [`catalog`], [`database`]) and secondary indexes — ordered and hash —
//!   maintained on writes ([`index`]),
//! * a small executor sufficient to run every query in the paper
//!   ([`expr`], [`exec`]),
//! * the sample databases the paper's examples are written against
//!   ([`sample`]): the Figure 1 movie schema and the §3.1 EMP/DEPT schema,
//! * derived data (samples, histograms) that §2.1 lists as further
//!   translation targets ([`stats`]),
//! * engine-wide observability — the metrics registry, query journal,
//!   trace spans, and misestimate ledger the `SHOW` introspection
//!   statements read ([`obs`]), and
//! * CSV import/export for fixtures ([`csvio`]).
//!
//! Higher layers (`schemagraph`, `templates`, `nlg`, `talkback`) build the
//! paper's actual contribution on top of this crate.

pub mod adaptive;
pub mod catalog;
pub mod csvio;
pub mod database;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fingerprint;
pub mod index;
pub mod obs;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use adaptive::{
    AdaptiveState, CacheKey, CacheLookup, CachedVerdict, EpochCause, FeedbackEntry, ParamKind,
    PlanCache, PlanTemplate, RangeOp, RangeParam, ShapeCache, Uncacheable, OPTION_WORDS,
};
pub use catalog::Catalog;
pub use database::Database;
pub use error::StoreError;
pub use index::{Index, IndexBounds, IndexDef, IndexKind};
pub use obs::{format_duration, CacheStatus, ObsRegistry, StatementMeta};
pub use schema::{ColumnDef, ForeignKey, TableSchema};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
pub use tuple::{NamedRow, Row};
pub use value::{DataType, Date, Value};
