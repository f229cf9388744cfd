//! # orpheus-core — OrpheusDB (Chapters 3–5)
//!
//! OrpheusDB is a dataset version-control system that "bolts on" versioning
//! to a relational database. The fundamental unit of storage is the
//! **collaborative versioned dataset (CVD)**: a relation plus the many
//! versions of it, related by a version graph. Records are immutable; each
//! version is a set of record ids; users interact through git-style
//! commands (`checkout`, `commit`, `diff`, …) and versioned SQL.
//!
//! The crate is organised exactly along the paper's architecture
//! (Fig. 3.1):
//!
//! * [`cvd`] — the CVD itself: the record manager (rid assignment under the
//!   no-cross-version-diff rule), the version manager (metadata table,
//!   version graph), and schema evolution (attribute table, §4.3);
//! * [`models`] — the five physical data models compared in Chapter 4
//!   (a-table-per-version, combined-table, split-by-vlist, split-by-rlist,
//!   delta-based), all implementing [`models::VersioningModel`];
//! * [`partitioned`] — the partition-optimized split-by-rlist storage that
//!   Chapter 5 builds with LyreSplit;
//! * [`query`] — the versioned query layer: `SELECT … FROM VERSION i OF
//!   CVD c`, aggregates `GROUP BY vid`, and the functional primitives
//!   `ancestor`/`descendant`/`parent`, `v_diff`, `v_intersect` (§3.3.2);
//! * [`plan`] — the one plan path of those queries: a logical plan per
//!   parsed query, lowered to relational operators over the engine's
//!   tables or a pinned [`snapshot`];
//! * [`commands`] — the command-line surface: `init`, `checkout`, `commit`,
//!   `diff`, `ls`, `drop`, `optimize`, plus user management and the
//!   access-controlled staging area (§3.3.1).

mod catalog;
pub mod commands;
pub mod cvd;
pub mod error;
pub mod models;
pub mod partitioned;
pub mod plan;
pub mod query;
pub mod snapshot;

pub use commands::{CommandOutput, OrpheusDb};
pub use cvd::{CommitResult, Cvd, VersionMeta};
pub use error::{Error, Result};
pub use models::{
    ATablePerVersion, CombinedTable, DeltaBased, ModelKind, SplitByRlist, SplitByVlist,
    VersioningModel,
};
pub use partition::{Rid, Vid};
pub use partitioned::PartitionedStore;
pub use snapshot::Snapshot;
