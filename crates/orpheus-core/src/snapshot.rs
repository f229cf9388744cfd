//! Snapshot-isolated reads for multi-session servers.
//!
//! Records in a CVD are immutable and versions only ever grow, so a
//! *snapshot* — a pinned copy of a CVD's records, per-version record
//! lists, and schema — stays valid forever: later commits add versions
//! the snapshot simply does not know about. A server session pins a
//! [`Snapshot`] once and evaluates versioned SQL against it on its own
//! thread, entirely outside the engine thread: readers are lock-free and
//! never block (or are blocked by) writers.
//!
//! A snapshot is a scan source of the one query plan path
//! ([`crate::plan`]): queries are planned exactly as
//! [`OrpheusDb::run`](crate::OrpheusDb::run) plans them, and lowered
//! with its rows as the data table — a `Fetch` is a positional fetch of
//! the rid-indexed rows, in ascending rid (= data-table insertion)
//! order, and the version table is `Values` of `(vid, rlist)`. Output is
//! therefore byte-identical to the engine's on the same version set —
//! pinned by the parity tests below.

use crate::cvd::Cvd;
use crate::error::{Error, Result};
use crate::plan::{self, Source};
use crate::query::{parse_query, QueryResult, VQuery};
use partition::{Rid, Vid};
use relstore::{ExecContext, Row, Schema, Value};

/// An immutable, `Send + Sync` view of one CVD at pin time.
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    /// The CVD's attribute schema (without `rid`).
    pub(crate) attrs: Schema,
    /// The `[rid, attrs…]` star schema of the physical data table.
    pub(crate) star: Schema,
    /// Star rows indexed by rid — the data table's insertion order.
    pub(crate) rows: Vec<Row>,
    /// Per-version record ids, sorted, indexed by vid.
    pub(crate) version_rids: Vec<Vec<Rid>>,
}

impl Snapshot {
    /// Pin `cvd` as of now.
    pub(crate) fn of(cvd: &Cvd) -> Snapshot {
        let star = crate::models::data_schema(cvd);
        let width = star.len();
        let rows = (0..cvd.num_records())
            .map(|rid| {
                let mut row = crate::models::data_row(cvd, Rid(rid as u64));
                // Records committed before a schema evolution may be
                // narrower than the union schema; pad like the engine's
                // migrated tables do.
                row.resize(width, Value::Null);
                row
            })
            .collect();
        Snapshot {
            name: cvd.name().to_owned(),
            attrs: cvd.schema().clone(),
            star,
            rows,
            version_rids: cvd.version_records_raw().to_vec(),
        }
    }

    /// Name of the CVD this snapshot pins.
    pub fn cvd(&self) -> &str {
        &self.name
    }

    /// Number of versions visible in this snapshot.
    pub fn num_versions(&self) -> usize {
        self.version_rids.len()
    }

    /// Latest version visible in this snapshot.
    pub fn latest_version(&self) -> Vid {
        Vid(self.version_rids.len().saturating_sub(1) as u32)
    }

    /// Evaluate a versioned SQL string against this snapshot. Supports
    /// the full `run` surface; the CVD named in the query must be the
    /// pinned one.
    pub fn run(&self, sql: &str) -> Result<QueryResult> {
        self.run_query(&parse_query(sql)?)
    }

    /// Evaluate an already parsed versioned query against this snapshot.
    pub fn run_query(&self, query: &VQuery) -> Result<QueryResult> {
        if query.cvd() != self.name {
            return Err(Error::CvdNotFound(format!(
                "{} (this session pins {})",
                query.cvd(),
                self.name
            )));
        }
        plan::run(
            query,
            &Source::Snapshot(self),
            None,
            &mut ExecContext::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OrpheusDb;
    use relstore::{Column, DataType};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_and_sync() {
        assert_send_sync::<Snapshot>();
    }

    /// A CVD with three versions, modified rows, a schema-identical merge
    /// commit, and both text and numeric attributes.
    fn setup() -> OrpheusDb {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Text(format!("r{i}")),
                    Value::Int64(i * 7 % 13),
                ]
            })
            .collect();
        odb.init_cvd("T", schema, vec!["k".into()], rows).unwrap();
        // v1: bump some scores.
        odb.execute("checkout T -v 0 -t w1").unwrap();
        odb.execute("insert w1 100,extra,42").unwrap();
        odb.execute("commit -t w1 -m v1").unwrap();
        // v2: branch from v0 with a different new row.
        odb.execute("checkout T -v 0 -t w2").unwrap();
        odb.execute("insert w2 200,other,7").unwrap();
        odb.execute("commit -t w2 -m v2").unwrap();
        // v3: merge of v1 and v2.
        odb.execute("checkout T -v 1 2 -t w3").unwrap();
        odb.execute("commit -t w3 -m merge").unwrap();
        odb
    }

    fn parity(odb: &OrpheusDb, sql: &str) {
        let snap = odb.snapshot("T").unwrap();
        let engine = odb.run(sql).unwrap();
        let snapshot = snap.run(sql).unwrap();
        assert_eq!(engine.schema, snapshot.schema, "schema parity: {sql}");
        assert_eq!(engine.rows, snapshot.rows, "row parity: {sql}");
    }

    #[test]
    fn select_versions_parity() {
        let odb = setup();
        parity(&odb, "SELECT * FROM VERSION 0 OF CVD T");
        parity(&odb, "SELECT * FROM VERSION 1, 2 OF CVD T");
        parity(&odb, "SELECT * FROM VERSION 3 OF CVD T WHERE score > 5");
        parity(
            &odb,
            "SELECT * FROM VERSION 0, 3 OF CVD T WHERE name = 'r3'",
        );
        parity(&odb, "SELECT * FROM VERSION 1, 2, 3 OF CVD T LIMIT 7");
    }

    #[test]
    fn aggregate_parity() {
        let odb = setup();
        parity(&odb, "SELECT vid, count(*) FROM CVD T GROUP BY vid");
        parity(&odb, "SELECT vid, sum(score) FROM CVD T GROUP BY vid");
        parity(&odb, "SELECT vid, avg(score) FROM CVD T GROUP BY vid");
        parity(&odb, "SELECT vid, min(k) FROM CVD T GROUP BY vid");
        parity(
            &odb,
            "SELECT vid, max(score) FROM CVD T WHERE k > 4 GROUP BY vid",
        );
    }

    #[test]
    fn diff_intersect_join_parity() {
        let odb = setup();
        parity(&odb, "SELECT * FROM V_DIFF(1, 2) OF CVD T");
        parity(&odb, "SELECT * FROM V_DIFF(2, 1) OF CVD T");
        parity(&odb, "SELECT * FROM V_DIFF(3, 0) OF CVD T");
        parity(&odb, "SELECT * FROM V_INTERSECT(1, 2) OF CVD T");
        parity(&odb, "SELECT * FROM V_INTERSECT(0, 1, 2, 3) OF CVD T");
        parity(&odb, "SELECT * FROM VERSION 1 OF CVD T JOIN VERSION 2 ON k");
        parity(
            &odb,
            "SELECT * FROM VERSION 0 OF CVD T JOIN VERSION 3 ON score",
        );
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut odb = setup();
        let snap = odb.snapshot("T").unwrap();
        assert_eq!(snap.num_versions(), 4);
        assert_eq!(snap.latest_version(), Vid(3));
        odb.execute("checkout T -v 3 -t w4").unwrap();
        odb.execute("insert w4 300,late,1").unwrap();
        odb.execute("commit -t w4 -m v4").unwrap();
        // The pinned snapshot does not see v4…
        assert!(snap.run("SELECT * FROM VERSION 4 OF CVD T").is_err());
        assert_eq!(snap.num_versions(), 4);
        // …but a fresh pin does.
        let fresh = odb.snapshot("T").unwrap();
        assert_eq!(fresh.num_versions(), 5);
        let rows = fresh
            .run("SELECT * FROM VERSION 4 OF CVD T WHERE k = 300")
            .unwrap();
        assert_eq!(rows.rows.len(), 1);
    }

    #[test]
    fn snapshot_rejects_other_cvds() {
        let odb = setup();
        let snap = odb.snapshot("T").unwrap();
        assert!(matches!(
            snap.run("SELECT * FROM VERSION 0 OF CVD Other"),
            Err(Error::CvdNotFound(_))
        ));
    }
}
