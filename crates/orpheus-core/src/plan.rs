//! One plan path for versioned queries (§3.3.2).
//!
//! Every [`VQuery`] form is translated once, by [`plan`], into a small
//! left-deep [`LogicalPlan`] over the split-by-rlist layout — a rid set
//! fetched from the data table, or the unnested version table joined
//! with it — and turned into relational operators once, by [`lower`].
//! `run`, `diff`, `EXPLAIN ANALYZE` and pinned snapshot reads all go
//! through this pair, so they execute the same operators by construction:
//!
//! * the engine's tables lower `Fetch` to `Project ← HashJoin(Values
//!   rids, SeqScan data)`, or its fused morsel-parallel `ParHashJoin`
//!   when the worker pool has more than one thread;
//! * a pinned [`Snapshot`] lowers `Fetch` to a positional fetch of its
//!   rid-indexed rows into `Values`, and its version table to `Values`
//!   of `(vid, rlist)`.
//!
//! With `instrument` on, every operator is wrapped in an
//! [`ExplainNode`] carrying its label and the planner's estimates, taken
//! from the PostgreSQL-default cost model the rest of the system charges
//! with ([`CostModel`]); the estimate arithmetic runs only then.

use crate::cvd::Cvd;
use crate::error::{Error, Result};
use crate::models::SplitByRlist;
use crate::query::{QueryResult, VQuery};
use crate::snapshot::Snapshot;
use partition::{Rid, Vid};
use relstore::{
    wrap, AggFunc, BinOp, BoxExec, Column, CostModel, DataType, Database, Estimate, ExecContext,
    ExplainNode, Expr, Filter, HashAggregate, HashJoin, Limit, ParHashJoin, Project, Row, Schema,
    SeqScan, Table, Unnest, Value, Values, WorkerPool,
};

/// PostgreSQL's default selectivity guesses (`eqsel` / inequality).
const EQ_SEL: f64 = 0.005;
const INEQ_SEL: f64 = 1.0 / 3.0;

/// A logical plan over the split-by-rlist data and version tables.
#[derive(Debug)]
pub enum LogicalPlan {
    /// Star rows `[rid, attrs…]` of a sorted, deduplicated rid set, in
    /// ascending rid (data-table) order.
    Fetch(Vec<Rid>),
    /// `unnest(version table) ⋈ data` on rid: one `[vid, rid, rid,
    /// attrs…]` row per (version, record) pair — the `GROUP BY vid` input.
    VersionRecords,
    /// Rows of `input` satisfying `predicate`; `column` names the
    /// filtered attribute.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
        column: String,
    },
    /// The first `n` rows of `input`.
    Limit { input: Box<LogicalPlan>, n: usize },
    /// `agg(column)` of `input` grouped by its vid column 0; `name` is the
    /// aggregated attribute as written in the query.
    Aggregate {
        input: Box<LogicalPlan>,
        agg: AggFunc,
        column: usize,
        name: String,
    },
    /// Hash join of two star inputs on star column `key`; `condition`
    /// describes it (`v1.k=v2.k`).
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        key: usize,
        condition: String,
    },
}

impl LogicalPlan {
    /// The result schema of star-shaped plans, `None` for grouped rows
    /// (which keep the lowered aggregate's schema). The engine's rid join
    /// names its rid column `rhs_rid`, so results take the star's names.
    fn result_schema(&self, star: &Schema) -> Option<Schema> {
        match self {
            LogicalPlan::Fetch(_) => Some(star.clone()),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                input.result_schema(star)
            }
            LogicalPlan::Join { .. } => Some(star.join(star)),
            LogicalPlan::VersionRecords | LogicalPlan::Aggregate { .. } => None,
        }
    }
}

/// What a plan's leaves read.
pub enum Source<'a> {
    /// The engine's split-by-rlist tables of `cvd`.
    Tables {
        cvd: &'a Cvd,
        data: &'a Table,
        vtab: &'a Table,
    },
    /// A pinned snapshot's in-memory rows and rid lists.
    Snapshot(&'a Snapshot),
}

impl<'a> Source<'a> {
    /// The tables `model` keeps for `cvd` in `db`.
    pub fn tables(db: &'a Database, cvd: &'a Cvd, model: &SplitByRlist) -> Result<Self> {
        Ok(Source::Tables {
            cvd,
            data: db.table(&model.data_name())?,
            vtab: db.table(&model.vtab_name())?,
        })
    }

    /// The CVD's attribute schema (without `rid`).
    fn attrs(&self) -> &Schema {
        match self {
            Source::Tables { cvd, .. } => cvd.schema(),
            Source::Snapshot(s) => &s.attrs,
        }
    }

    /// Per-version rid lists, sorted and deduplicated, indexed by vid.
    fn versions(&self) -> &[Vec<Rid>] {
        match self {
            Source::Tables { cvd, .. } => cvd.version_records_raw(),
            Source::Snapshot(s) => &s.version_rids,
        }
    }

    /// The `[rid, attrs…]` star schema of the data table.
    fn star(&self) -> Schema {
        match self {
            Source::Tables { cvd, .. } => crate::models::data_schema(cvd),
            Source::Snapshot(s) => s.star.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Rid sets over sorted, deduplicated per-version rid lists.
// ---------------------------------------------------------------------------

/// The rid list of version `v`.
fn rids_of(versions: &[Vec<Rid>], v: Vid) -> Result<&[Rid]> {
    versions
        .get(v.idx())
        .map(Vec::as_slice)
        .ok_or(Error::VersionNotFound(v.0))
}

/// The rid lists of `vs`, every version checked first.
pub(crate) fn lists<'v>(versions: &'v [Vec<Rid>], vs: &[Vid]) -> Result<Vec<&'v [Rid]>> {
    vs.iter().map(|&v| rids_of(versions, v)).collect()
}

/// Rids in any of `lists`, sorted and deduplicated.
pub(crate) fn union(lists: &[&[Rid]]) -> Vec<Rid> {
    let mut out: Vec<Rid> = lists.concat();
    out.sort_unstable();
    out.dedup();
    out
}

/// Rids of `a` not in `b` (`v_diff`), in `a`'s order.
pub(crate) fn difference(a: &[Rid], b: &[Rid]) -> Vec<Rid> {
    a.iter()
        .copied()
        .filter(|r| b.binary_search(r).is_err())
        .collect()
}

/// Rids in every one of `lists` (`v_intersect`), in the first list's
/// order; empty for no lists.
pub(crate) fn intersection(lists: &[&[Rid]]) -> Vec<Rid> {
    let Some((first, rest)) = lists.split_first() else {
        return Vec::new();
    };
    let mut acc = first.to_vec();
    for set in rest {
        acc.retain(|r| set.binary_search(r).is_ok());
    }
    acc
}

// ---------------------------------------------------------------------------
// The planner.
// ---------------------------------------------------------------------------

/// Translate a parsed versioned query into its logical plan against the
/// versions and schema `source` holds.
pub fn plan(query: &VQuery, source: &Source) -> Result<LogicalPlan> {
    let attrs = source.attrs();
    let versions = source.versions();
    Ok(match query {
        VQuery::SelectVersions {
            versions: vs,
            predicate,
            limit,
            ..
        } => {
            let filter = match predicate {
                Some(p) => Some((p.0.clone(), predicate_expr(attrs, p)?)),
                None => None,
            };
            let mut plan = LogicalPlan::Fetch(union(&lists(versions, vs)?));
            if let Some((column, predicate)) = filter {
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate,
                    column,
                };
            }
            if let Some(n) = *limit {
                plan = LogicalPlan::Limit {
                    input: Box::new(plan),
                    n,
                };
            }
            plan
        }
        VQuery::AggregateByVersion {
            agg,
            agg_col,
            predicate,
            ..
        } => {
            let mut plan = LogicalPlan::VersionRecords;
            if let Some(p) = predicate {
                // Star columns sit behind `[vid, rid]` in the joined rows.
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: shift_columns(&predicate_expr(attrs, p)?, 2),
                    column: p.0.clone(),
                };
            }
            let star_idx = match agg_col.as_str() {
                "rid" => 0,
                col => 1 + attrs.index_of(col)?,
            };
            LogicalPlan::Aggregate {
                input: Box::new(plan),
                agg: *agg,
                column: 2 + star_idx,
                name: agg_col.clone(),
            }
        }
        VQuery::Diff { a, b, .. } => {
            LogicalPlan::Fetch(difference(rids_of(versions, *a)?, rids_of(versions, *b)?))
        }
        VQuery::Intersect { versions: vs, .. } => {
            LogicalPlan::Fetch(intersection(&lists(versions, vs)?))
        }
        VQuery::JoinVersions {
            left, right, on, ..
        } => {
            // The join attribute must be Int64 (the engine's join-key type).
            let key = 1 + attrs.index_of(on)?;
            let fetch = |v: Vid| -> Result<Box<LogicalPlan>> {
                Ok(Box::new(LogicalPlan::Fetch(rids_of(versions, v)?.to_vec())))
            };
            LogicalPlan::Join {
                left: fetch(*left)?,
                right: fetch(*right)?,
                key,
                condition: format!("v{}.{on}=v{}.{on}", left.0, right.0),
            }
        }
    })
}

/// Build a predicate over the `[rid, attrs…]` star schema from the parsed
/// `(col, op, lit)` triple.
fn predicate_expr(attrs: &Schema, pred: &(String, BinOp, Value)) -> Result<Expr> {
    let (col, op, value) = pred;
    let idx = 1 + attrs.index_of(col)?;
    Ok(Expr::Bin(
        *op,
        Box::new(Expr::col(idx)),
        Box::new(Expr::Const(value.clone())),
    ))
}

/// Rewrite column ordinals in an expression by a fixed offset (a
/// predicate written against `[rid, attrs…]` running over rows with
/// leading bookkeeping columns).
fn shift_columns(e: &Expr, offset: usize) -> Expr {
    let shift = |x: &Expr| Box::new(shift_columns(x, offset));
    match e {
        Expr::Col(i) => Expr::Col(i + offset),
        Expr::Const(v) => Expr::Const(v.clone()),
        Expr::Bin(op, l, r) => Expr::Bin(*op, shift(l), shift(r)),
        Expr::And(l, r) => Expr::And(shift(l), shift(r)),
        Expr::Or(l, r) => Expr::Or(shift(l), shift(r)),
        Expr::Not(x) => Expr::Not(shift(x)),
        Expr::ArrayContains(l, r) => Expr::ArrayContains(shift(l), shift(r)),
        Expr::ArrayAppend(l, r) => Expr::ArrayAppend(shift(l), shift(r)),
        Expr::IsNull(x) => Expr::IsNull(shift(x)),
    }
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

/// A lowered plan: its executor and, when instrumented, the explain node
/// observing it.
pub type Lowered<'a> = (BoxExec<'a>, Option<ExplainNode>);

/// Turn `plan` into operators reading `source`. A pool of more than one
/// thread runs the engine's rid joins morsel-parallel; `instrument` wraps
/// every operator in an [`ExplainNode`].
pub fn lower<'a>(
    plan: LogicalPlan,
    source: &Source<'a>,
    pool: Option<&WorkerPool>,
    instrument: bool,
) -> Result<Lowered<'a>> {
    Lowering::new(pool, instrument).node(plan, source, "")
}

/// Plan, lower and drain `query` against `source`.
pub fn run(
    query: &VQuery,
    source: &Source,
    pool: Option<&WorkerPool>,
    ctx: &mut ExecContext,
) -> Result<QueryResult> {
    let plan = plan(query, source)?;
    let logical = plan.result_schema(&source.star());
    let (mut exec, _) = lower(plan, source, pool, false)?;
    let schema = logical.unwrap_or_else(|| exec.schema().clone());
    let rows = relstore::collect(exec.as_mut(), ctx)?;
    Ok(QueryResult { schema, rows })
}

/// The star rows of `rids` in the data table (split-by-rlist and
/// partitioned checkouts).
pub(crate) fn fetch_rows(
    data: &Table,
    rids: Vec<i64>,
    pool: Option<&WorkerPool>,
    ctx: &mut ExecContext,
) -> Result<Vec<Row>> {
    let (mut exec, _) = Lowering::new(pool, false).rid_join(data, rids, "");
    Ok(relstore::collect(exec.as_mut(), ctx)?)
}

struct Lowering<'p> {
    /// The worker pool, when it has more than one thread.
    pool: Option<&'p WorkerPool>,
    /// The cost model of the estimates, when instrumenting.
    cost: Option<CostModel>,
}

fn pages_of(rows: f64, m: &CostModel) -> f64 {
    (rows / m.rows_per_page as f64).ceil()
}

fn selectivity(predicate: &Expr) -> f64 {
    match predicate {
        Expr::Bin(BinOp::Eq, ..) => EQ_SEL,
        _ => INEQ_SEL,
    }
}

impl<'p> Lowering<'p> {
    fn new(pool: Option<&'p WorkerPool>, instrument: bool) -> Self {
        Lowering {
            pool: pool.filter(|p| p.threads() > 1),
            cost: instrument.then(CostModel::default),
        }
    }

    /// Wrap `exec` in an explain node over `children` when instrumenting;
    /// `describe` computes its label and estimate from the children's
    /// nodes and runs only then.
    fn wrap<'a>(
        &self,
        exec: BoxExec<'a>,
        children: Vec<Option<ExplainNode>>,
        describe: impl FnOnce(&[ExplainNode], &CostModel) -> (String, Estimate),
    ) -> Lowered<'a> {
        let Some(m) = &self.cost else {
            return (exec, None);
        };
        let children: Vec<ExplainNode> = children.into_iter().flatten().collect();
        let (label, estimate) = describe(&children, m);
        let (exec, node) = wrap(exec, label, estimate, children);
        (exec, Some(node))
    }

    /// Lower one node; `suffix` tags the leaves of a join side.
    fn node<'a>(
        &self,
        plan: LogicalPlan,
        source: &Source<'a>,
        suffix: &str,
    ) -> Result<Lowered<'a>> {
        Ok(match plan {
            LogicalPlan::Fetch(rids) => match source {
                Source::Tables { data, .. } => {
                    self.rid_join(data, rids.iter().map(|r| r.0 as i64).collect(), suffix)
                }
                Source::Snapshot(snap) => {
                    let rows = rids
                        .iter()
                        .map(|r| {
                            snap.rows.get(r.idx()).cloned().ok_or_else(|| {
                                Error::Internal(format!("snapshot has no record {}", r.0))
                            })
                        })
                        .collect::<Result<Vec<Row>>>()?;
                    let n = rows.len() as f64;
                    self.wrap(
                        Box::new(Values::new(snap.star.clone(), rows)),
                        vec![],
                        |_, _| (format!("Values rows{suffix}"), Estimate::new(n, 0.0)),
                    )
                }
            },
            LogicalPlan::VersionRecords => self.version_records(source)?,
            LogicalPlan::Filter {
                input,
                predicate,
                column,
            } => {
                let sel = selectivity(&predicate);
                let (child, node) = self.node(*input, source, suffix)?;
                self.wrap(
                    Box::new(Filter::new(child, predicate)),
                    vec![node],
                    |c, _| {
                        let est = &c[0].estimate;
                        (
                            format!("Filter {column}"),
                            Estimate::new(est.rows * sel, est.pages),
                        )
                    },
                )
            }
            LogicalPlan::Limit { input, n } => {
                let (child, node) = self.node(*input, source, suffix)?;
                self.wrap(Box::new(Limit::new(child, n)), vec![node], |c, _| {
                    let est = &c[0].estimate;
                    (
                        format!("Limit {n}"),
                        Estimate::new((n as f64).min(est.rows), est.pages),
                    )
                })
            }
            LogicalPlan::Aggregate {
                input,
                agg,
                column,
                name,
            } => {
                let (child, node) = self.node(*input, source, suffix)?;
                let exec = Box::new(HashAggregate::new(child, vec![0], vec![(agg, column)]));
                self.wrap(exec, vec![node], |c, _| {
                    let versions = match source {
                        Source::Tables { vtab, .. } => vtab.live_row_count(),
                        Source::Snapshot(s) => s.version_rids.len(),
                    };
                    (
                        format!("HashAggregate {name} by vid"),
                        Estimate::new(versions as f64, c[0].estimate.pages),
                    )
                })
            }
            LogicalPlan::Join {
                left,
                right,
                key,
                condition,
            } => {
                let (lhs, lnode) = self.node(*left, source, " (left)")?;
                let (rhs, rnode) = self.node(*right, source, " (right)")?;
                let exec = Box::new(HashJoin::new(lhs, rhs, key, key));
                self.wrap(exec, vec![lnode, rnode], |c, _| {
                    let (l, r) = (&c[0].estimate, &c[1].estimate);
                    (
                        format!("HashJoin {condition}"),
                        Estimate::new(l.rows.max(r.rows), l.pages + r.pages),
                    )
                })
            }
        })
    }

    /// The split-by-rlist retrieval pipeline: `Project star ← HashJoin(Values
    /// rids, SeqScan data)`, or its fused morsel-parallel equivalent. Both
    /// emit the star rows in identical (data-table) order. The parallel
    /// probe ships zero-copy page leases to the workers (checkpointed
    /// pages only — dirty pages are copied and counted).
    fn rid_join<'a>(&self, data: &'a Table, rids: Vec<i64>, suffix: &str) -> Lowered<'a> {
        let n = rids.len() as f64;
        let data_rows = || data.live_row_count() as f64;
        let data_pages = |m: &CostModel| pages_of(data_rows(), m);
        let (build, build_node) = self.wrap(Box::new(Values::ints("rid", rids)), vec![], |_, _| {
            (format!("Values rids{suffix}"), Estimate::new(n, 0.0))
        });
        let cols: Vec<usize> = (1..1 + data.schema().len()).collect();
        if let Some(p) = self.pool {
            // The join fuses the probe scan and the star projection, so the
            // plan has one node where the sequential tree has three. The
            // probe's I/O still happens (on the coordinator) and stays in
            // the estimate.
            let join = ParHashJoin::new(build, data, 0, 0, p.clone()).with_projection(&cols);
            let workers = join.parallelism();
            let worker_rows = join.worker_rows();
            let (exec, mut node) = self.wrap(Box::new(join), vec![build_node], |_, m| {
                (
                    format!("ParHashJoin rid=rid{suffix}"),
                    Estimate::new(n, data_pages(m)).with_parallelism(workers),
                )
            });
            if let Some(node) = &mut node {
                node.set_worker_rows(worker_rows);
            }
            return (exec, node);
        }
        let (probe, probe_node) = self.wrap(Box::new(SeqScan::new(data)), vec![], |_, m| {
            (
                format!("SeqScan {}{suffix}", data.name()),
                Estimate::new(data_rows(), data_pages(m)),
            )
        });
        let join = Box::new(HashJoin::new(build, probe, 0, 0));
        let (join, join_node) = self.wrap(join, vec![build_node, probe_node], |_, m| {
            (
                format!("HashJoin rid=rid{suffix}"),
                Estimate::new(n, data_pages(m)),
            )
        });
        let project = Box::new(Project::columns(join, &cols));
        self.wrap(project, vec![join_node], |_, m| {
            (
                format!("Project star{suffix}"),
                Estimate::new(n, data_pages(m)),
            )
        })
    }

    /// `unnest(version table) ⋈ data` on rid.
    fn version_records<'a>(&self, source: &Source<'a>) -> Result<Lowered<'a>> {
        let scan = |table: &'a Table| {
            self.wrap(Box::new(SeqScan::new(table)), vec![], |_, m| {
                let rows = table.live_row_count() as f64;
                (
                    format!("SeqScan {}", table.name()),
                    Estimate::new(rows, pages_of(rows, m)),
                )
            })
        };
        let values = |label: &'static str, schema: Schema, rows: Vec<Row>| {
            let n = rows.len() as f64;
            self.wrap(Box::new(Values::new(schema, rows)), vec![], |_, _| {
                (label.to_owned(), Estimate::new(n, 0.0))
            })
        };
        let (vtab, vtab_node) = match source {
            Source::Tables { vtab, .. } => scan(vtab),
            Source::Snapshot(snap) => {
                let schema = Schema::new(vec![
                    Column::new("vid", DataType::Int64),
                    Column::new("rlist", DataType::IntArray),
                ]);
                let rows = (0i64..)
                    .zip(&snap.version_rids)
                    .map(|(vid, rids)| {
                        vec![
                            Value::Int64(vid),
                            Value::IntArray(rids.iter().map(|r| r.0 as i64).collect()),
                        ]
                    })
                    .collect();
                values("Values vtab", schema, rows)
            }
        };
        let unnest = Box::new(Unnest::new(vtab, 1)?);
        let (unnest, unnest_node) = self.wrap(unnest, vec![vtab_node], |c, _| {
            // Unnest fan-out: total rlist entries across every version.
            let entries: usize = source.versions().iter().map(Vec::len).sum();
            (
                "Unnest rlist".to_owned(),
                Estimate::new(entries as f64, c[0].estimate.pages),
            )
        });
        let (data, data_node) = match source {
            Source::Tables { data, .. } => scan(data),
            Source::Snapshot(snap) => values("Values data", snap.star.clone(), snap.rows.clone()),
        };
        let join = Box::new(HashJoin::new(unnest, data, 1, 0));
        Ok(self.wrap(join, vec![unnest_node, data_node], |c, _| {
            let (l, r) = (&c[0].estimate, &c[1].estimate);
            (
                "HashJoin rid=rid".to_owned(),
                Estimate::new(l.rows, l.pages + r.pages),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OrpheusDb;
    use crate::query::parse_query;
    use relstore::ExplainSnapshot;

    fn labels(node: &ExplainSnapshot, out: &mut Vec<String>) {
        out.push(node.label.clone());
        for child in &node.children {
            labels(child, out);
        }
    }

    /// Instrumented lowering over a snapshot wraps every operator, in
    /// pre-order, and returns the rows the plain lowering returns.
    #[test]
    fn instrumented_snapshot_lowering_wraps_every_operator() {
        let mut odb = OrpheusDb::new();
        odb.create_user("u").unwrap();
        odb.login("u").unwrap();
        let schema = Schema::new(vec![Column::new("k", DataType::Int64)]);
        let rows = (0..6).map(|k| vec![Value::Int64(k)]).collect();
        odb.init_cvd("T", schema, vec!["k".into()], rows).unwrap();
        let snap = odb.snapshot("T").unwrap();
        let source = Source::Snapshot(&snap);
        for (sql, want) in [
            (
                "SELECT vid, count(*) FROM CVD T WHERE k > 1 GROUP BY vid",
                vec![
                    "HashAggregate rid by vid",
                    "Filter k",
                    "HashJoin rid=rid",
                    "Unnest rlist",
                    "Values vtab",
                    "Values data",
                ],
            ),
            (
                "SELECT * FROM VERSION 0 OF CVD T JOIN VERSION 0 ON k",
                vec![
                    "HashJoin v0.k=v0.k",
                    "Values rows (left)",
                    "Values rows (right)",
                ],
            ),
        ] {
            let query = parse_query(sql).unwrap();
            let plain = run(&query, &source, None, &mut ExecContext::new()).unwrap();
            let logical = plan(&query, &source).unwrap();
            let (mut exec, node) = lower(logical, &source, None, true).unwrap();
            let rows = relstore::collect(exec.as_mut(), &mut ExecContext::new()).unwrap();
            drop(exec);
            assert_eq!(rows, plain.rows, "{sql}");
            let root = node.unwrap().snapshot();
            assert_eq!(root.stats.rows, rows.len() as u64, "{sql}");
            let mut got = Vec::new();
            labels(&root, &mut got);
            assert_eq!(got, want, "{sql}");
        }
    }
}
