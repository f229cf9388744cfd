//! A named catalog of tables over one shared buffer pool.

use crate::codec::PageFormatKind;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::{Table, DEFAULT_POOL_PAGES};
use obs::{Recorder, Registry};
use pagestore::{BufferPool, IoStats, RecoveryReport};
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

/// A database: a catalog of named tables sharing one buffer pool.
///
/// OrpheusDB keeps its CVD data tables, versioning tables and metadata
/// tables in one database, as the original does with a single PostgreSQL
/// schema — and, like PostgreSQL's `shared_buffers`, every table created
/// through the catalog competes for the same pool of page frames. Tables
/// built over [`pool`](Self::pool) outside the catalog (OrpheusDB's
/// staging tables) share those frames too.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    pool: Rc<BufferPool>,
    /// Scoped span recorder; the pool's spans are routed here too, so
    /// parallel tests never share span trees through the global recorder.
    recorder: Recorder,
    /// Scoped metrics registry ([`publish_metrics`](Self::publish_metrics)).
    metrics: Registry,
    /// Page format given to tables created through the catalog
    /// ([`create_table`](Self::create_table)); `ORPHEUS_PAGE_FORMAT`
    /// seeds it, [`set_default_format`](Self::set_default_format)
    /// overrides it.
    default_format: PageFormatKind,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Database::with_pool_capacity(DEFAULT_POOL_PAGES)
    }

    /// A database whose shared pool holds `pages` 8 KiB frames.
    pub fn with_pool_capacity(pages: usize) -> Self {
        Database::from_pool(BufferPool::in_memory(pages))
    }

    fn from_pool(pool: BufferPool) -> Self {
        let recorder = Recorder::new();
        pool.set_recorder(recorder.clone());
        Database {
            tables: BTreeMap::new(),
            pool: Rc::new(pool),
            recorder,
            metrics: Registry::new(),
            default_format: PageFormatKind::from_env(),
        }
    }

    /// Page format tables created through this catalog will use.
    pub fn default_format(&self) -> PageFormatKind {
        self.default_format
    }

    /// Override the page format for tables created from here on; existing
    /// tables keep the format they were created with.
    pub fn set_default_format(&mut self, kind: PageFormatKind) {
        self.default_format = kind;
    }

    /// Open (or create) a database whose shared pool is backed by a
    /// durable page file plus write-ahead log in `dir`. Crash recovery
    /// runs before the pool comes up; the returned report says what it
    /// repaired. The catalog itself starts empty — callers rebuild it
    /// (e.g. from their own metadata tables) on top of the recovered
    /// pages.
    pub fn open_durable(dir: impl AsRef<Path>, pages: usize) -> Result<(Self, RecoveryReport)> {
        let (pool, report) = BufferPool::open_durable(dir, pages)?;
        Ok((Database::from_pool(pool), report))
    }

    /// Whether the shared pool has a write-ahead log attached, i.e.
    /// [`checkpoint`](Self::checkpoint) is an atomic durability point.
    pub fn is_durable(&self) -> bool {
        self.pool.is_durable()
    }

    /// Force every dirty page down to storage. On a durable database this
    /// is a WAL-protected atomic checkpoint and returns `Ok(true)`; on an
    /// in-memory database there is nothing to make durable and it returns
    /// `Ok(false)` without touching the pool (so I/O counters and
    /// eviction state are unperturbed).
    pub fn checkpoint(&self) -> Result<bool> {
        if !self.pool.is_durable() {
            return Ok(false);
        }
        self.pool.flush_all()?;
        Ok(true)
    }

    /// Replay the write-ahead log into the page file, as after a crash.
    /// Fails on a non-durable database or while any page is pinned.
    pub fn recover(&self) -> Result<RecoveryReport> {
        Ok(self.pool.recover()?)
    }

    /// The buffer pool shared by tables created through this catalog.
    pub fn pool(&self) -> &Rc<BufferPool> {
        &self.pool
    }

    /// Cumulative I/O counters of the shared pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Zero the shared pool's I/O counters (e.g. between experiments).
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats()
    }

    /// The scoped span recorder this database (and its pool) writes to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The scoped metrics registry of this database.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Publish the pool's cumulative I/O counters (and hit ratio) into
    /// the scoped registry. Idempotent: counters are set, not added.
    pub fn publish_metrics(&self) {
        self.pool.stats().publish(&self.metrics);
    }

    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<&mut Table> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(Error::TableExists(name));
        }
        let table = Table::with_format(
            name.clone(),
            schema,
            Rc::clone(&self.pool),
            self.default_format,
        );
        Ok(self.tables.entry(name).or_insert(table))
    }

    /// Register an already-built table (e.g. one that was bulk-loaded and
    /// clustered before being attached to the catalog).
    pub fn attach_table(&mut self, table: Table) -> Result<()> {
        if self.tables.contains_key(table.name()) {
            return Err(Error::TableExists(table.name().to_owned()));
        }
        self.tables.insert(table.name().to_owned(), table);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        self.tables
            .remove(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Names of tables with the given prefix (partitions of a CVD share a
    /// common prefix).
    pub fn tables_with_prefix(&self, prefix: &str) -> Vec<&str> {
        self.tables
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Total storage footprint across all tables, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.tables.values().map(Table::storage_bytes).sum()
    }

    /// Storage footprint of tables matching a prefix.
    pub fn storage_bytes_with_prefix(&self, prefix: &str) -> usize {
        self.tables_with_prefix(prefix)
            .iter()
            .map(|n| self.tables[*n].storage_bytes())
            .sum()
    }

    /// Physical on-page bytes (per the page format, including dictionary
    /// pages) of tables matching a prefix. Scans the heaps; see
    /// [`Table::encoded_bytes`].
    pub fn encoded_bytes_with_prefix(&self, prefix: &str) -> Result<usize> {
        let mut total = 0;
        for n in self.tables_with_prefix(prefix) {
            total += self.tables[n].encoded_bytes()?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Int64)])
    }

    #[test]
    fn create_drop_lookup() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        assert!(db.create_table("t", schema()).is_err());
        assert!(db.has_table("t"));
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        assert_eq!(db.table("t").unwrap().live_row_count(), 1);
        db.drop_table("t").unwrap();
        assert!(db.table("t").is_err());
    }

    #[test]
    fn prefix_listing() {
        let mut db = Database::new();
        for n in ["cvd_p1", "cvd_p2", "other", "cvd_meta"] {
            db.create_table(n, schema()).unwrap();
        }
        assert_eq!(
            db.tables_with_prefix("cvd_"),
            vec!["cvd_meta", "cvd_p1", "cvd_p2"]
        );
    }

    #[test]
    fn attach_prebuilt_table() {
        let mut db = Database::new();
        let mut t = Table::new("pre", schema());
        t.insert(vec![Value::Int64(9)]).unwrap();
        db.attach_table(t).unwrap();
        assert_eq!(db.table("pre").unwrap().live_row_count(), 1);
    }

    #[test]
    fn checkpoint_is_a_noop_on_in_memory_databases() {
        let mut db = Database::with_pool_capacity(8);
        db.create_table("t", schema()).unwrap();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        let before = db.io_stats();
        assert!(!db.is_durable());
        assert!(!db.checkpoint().unwrap());
        assert_eq!(db.io_stats(), before, "no-op checkpoint must not do I/O");
        assert!(db.recover().is_err(), "recover needs a WAL");
    }

    #[test]
    fn durable_database_checkpoints_and_reopens() {
        let dir = std::env::temp_dir().join(format!("relstore-db-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut db, report) = Database::open_durable(&dir, 8).unwrap();
            assert!(!report.did_work(), "fresh directory has nothing to repair");
            assert!(db.is_durable());
            db.create_table("t", schema()).unwrap();
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int64(7)])
                .unwrap();
            assert!(db.checkpoint().unwrap());
            assert!(db.io_stats().checkpoints >= 1);
        }
        {
            // Reopen: the pages survive even though the catalog is empty.
            let (db, _) = Database::open_durable(&dir, 8).unwrap();
            assert!(db.pool().num_pages() > 0, "checkpointed pages persist");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_spans_land_in_the_scoped_recorder() {
        // Two frames, three pages: fetching page 2 must miss and evict,
        // and those spans must land in *this* database's recorder, not
        // the process-wide one (parallel tests would cross-contaminate).
        let mut db = Database::with_pool_capacity(2);
        db.create_table("t", schema()).unwrap();
        for i in 0..3000 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int64(i)])
                .unwrap();
        }
        let t = db.table("t").unwrap();
        assert!(t.num_heap_pages() > 2, "need more pages than frames");
        let mut tracker = crate::cost::CostTracker::new();
        for ord in 0..t.num_heap_pages() {
            t.read_page_rows(ord, &mut tracker).unwrap();
        }
        let report = db.recorder().report();
        assert!(report.find("pagestore.pool.miss").is_some(), "{report:?}");
    }

    #[test]
    fn publish_metrics_fills_the_scoped_registry() {
        let mut db = Database::with_pool_capacity(8);
        db.create_table("t", schema()).unwrap();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        db.publish_metrics();
        let m = db.metrics();
        assert!(m.counter("pagestore.pool.logical_reads") > 0);
        assert!(m.gauge("pagestore.pool.hit_ratio").is_some());
    }

    #[test]
    fn default_format_flows_into_created_tables() {
        let mut db = Database::with_pool_capacity(8);
        assert_eq!(db.default_format(), PageFormatKind::Flat);
        db.create_table("f", schema()).unwrap();
        assert_eq!(db.table("f").unwrap().format_kind(), PageFormatKind::Flat);
        db.set_default_format(PageFormatKind::Delta);
        db.create_table("d", schema()).unwrap();
        assert_eq!(db.table("d").unwrap().format_kind(), PageFormatKind::Delta);
        // Same logical rows, identical reads back, smaller pages.
        for t in ["f", "d"] {
            let table = db.table_mut(t).unwrap();
            for i in 0..200 {
                table.insert(vec![Value::Int64(i)]).unwrap();
            }
        }
        let flat = db.table("f").unwrap();
        let delta = db.table("d").unwrap();
        assert_eq!(
            flat.iter().map(|(_, r)| r).collect::<Vec<_>>(),
            delta.iter().map(|(_, r)| r).collect::<Vec<_>>()
        );
        assert!(
            delta.encoded_bytes().unwrap() < flat.encoded_bytes().unwrap(),
            "delta {} B should undercut flat {} B",
            delta.encoded_bytes().unwrap(),
            flat.encoded_bytes().unwrap()
        );
        assert_eq!(
            db.encoded_bytes_with_prefix("f").unwrap(),
            flat.encoded_bytes().unwrap()
        );
    }

    #[test]
    fn tables_share_the_catalog_pool() {
        let mut db = Database::with_pool_capacity(8);
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.table_mut("a")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        db.table_mut("b")
            .unwrap()
            .insert(vec![Value::Int64(2)])
            .unwrap();
        assert!(std::rc::Rc::ptr_eq(
            db.table("a").unwrap().pool(),
            db.pool()
        ));
        assert!(db.io_stats().logical_reads > 0);
        db.reset_io_stats();
        assert_eq!(db.io_stats(), pagestore::IoStats::default());
    }
}
