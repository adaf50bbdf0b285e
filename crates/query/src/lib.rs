//! # ds-query
//!
//! The query layer of the Deep Sketches reproduction: a friendly query
//! model over [`ds_storage`], a SQL-subset parser and printer, the uniform
//! training-query generator of the paper (Figure 1a, step 2), and the
//! evaluation workloads (JOB-light and a TPC-H analogue).

pub mod canonical;
pub mod generator;
pub mod graph;
pub mod parser;
pub mod query;
pub mod shift;
pub mod sqlgen;
pub mod workloads;

pub use canonical::{CanonicalQuery, CanonicalSets};
pub use generator::{GeneratorConfig, QueryGenerator};
pub use graph::JoinGraph;
pub use parser::{parse_query, ParseError};
pub use query::Query;
pub use shift::{ShiftKind, ShiftSweep, SweepConfig};
