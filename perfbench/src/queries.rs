//! Versioned-query probe: the relstore operators and exec-pool morsels
//! behind versioned reads, measured in process for the traced run of
//! `server_2c` (the wire has no `EXPLAIN`).
//!
//! Set-up commits 11 versions of a 10K-record × 20-attribute table into an
//! in-memory `OrpheusDb` with the default 512-frame pool, which its pages
//! exceed. Each round runs one query of each kind — a filtered
//! `SELECT … VERSION v`, `GROUP BY vid`, `JOIN VERSION … ON k` and
//! `V_DIFF` — with versions and constants drawn from the seed, checks the
//! result against the benchmark's model or the `Cvd`, and takes the
//! per-operator figures from `EXPLAIN ANALYZE` of the same query. A fixed
//! number of rounds runs on one morsel worker for `op.*`, and again on two
//! for the exec-pool counters.
//!
//! These queries are not timed end to end: on a shared two-vCPU host their
//! wall-clock figures spread past the benchmark's bounds from run to run
//! (see `perfbench/README.md`).

use crate::model::{apply, staging_hash, Model};
use crate::report::{Report, OPERATORS};
use crate::rng::Rng;
use crate::{io_series, ms, Config};
use orpheus_core::{OrpheusDb, Vid};
use relstore::{ExplainSnapshot, IoStats, Value};

const CVD: &str = "t";
const USER: &str = "bench";
/// Columns besides `k`: 20 attributes in all.
const VALUES: usize = 19;
/// Values are uniform in `0..VALUE_RANGE`, so `a1 < x` keeps x/1000.
const VALUE_RANGE: u64 = 1000;
const KINDS: [&str; 4] = ["select", "aggregate", "join", "vdiff"];

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub records: usize,
    /// Versions after set-up, `v0` included.
    pub versions: usize,
    /// Rows changed per committed version.
    pub change: usize,
    /// Rounds per worker count.
    pub rounds: usize,
}

/// 10K records × 20 attributes, 11 versions. The data and version tables
/// take more than the default 512-frame (4 MiB) pool, so rounds miss and
/// evict.
pub const FULL: Sizes = Sizes {
    records: 10_000,
    versions: 11,
    change: 1_000,
    rounds: 2,
};

pub const SMALL: Sizes = Sizes {
    records: 1_500,
    versions: 5,
    change: 150,
    rounds: 2,
};

/// Per-version oracle data kept by the benchmark.
struct VersionModel {
    keys: Vec<i64>,
    a1: Vec<i64>,
}

struct Store {
    db: OrpheusDb,
    versions: Vec<VersionModel>,
}

fn set_up(sizes: &Sizes, initial: &Model, rng: &Rng, threads: usize) -> Result<Store, String> {
    let err = |e: orpheus_core::Error| format!("probe set-up: {e}");
    let mut model = initial.clone();
    let mut rng = rng.clone();
    let mut versions = vec![VersionModel {
        keys: model.sorted_keys(),
        a1: model.sorted_column(1),
    }];
    let mut db = OrpheusDb::new();
    db.set_threads(threads);
    db.create_user(USER).map_err(err)?;
    db.login(USER).map_err(err)?;
    db.init_cvd(CVD, model.schema(), vec!["k".into()], model.rows())
        .map_err(err)?;
    for v in 1..sizes.versions {
        let table = format!("s{v}");
        db.checkout(CVD, &[Vid(v as u32 - 1)], &table)
            .map_err(err)?;
        let (_, ids) = staging_hash(&db, &table).map_err(err)?;
        let edits = model.change(&mut rng, sizes.change);
        apply(&mut db, &table, &ids, &edits)?;
        db.commit(&table, "setup").map_err(err)?;
        versions.push(VersionModel {
            keys: model.sorted_keys(),
            a1: model.sorted_column(1),
        });
    }
    Ok(Store { db, versions })
}

/// One round's queries, drawn from the seed. Each kind does about the
/// same work in every round: the select keeps 9–11% of a version, the
/// join pairs two whole versions, and the diff compares a version with its
/// parent (one commit's changes).
struct Round {
    select: (u32, i64),
    join: (u32, u32),
    diff: (u32, u32),
}

impl Round {
    fn draw(rng: &mut Rng, versions: usize) -> Round {
        let n = versions as u64;
        let a = rng.below(n) as u32;
        let b = (a + 1 + rng.below(n - 1) as u32) % n as u32;
        let child = 1 + rng.below(n - 1) as u32;
        Round {
            select: (rng.below(n) as u32, 90 + rng.value(21)),
            join: (a, b),
            diff: (child, child - 1),
        }
    }

    fn sql(&self, kind: &str) -> String {
        match kind {
            "select" => format!(
                "SELECT * FROM VERSION {} OF CVD {CVD} WHERE a1 < {}",
                self.select.0, self.select.1
            ),
            "aggregate" => format!("SELECT vid, count(*) FROM CVD {CVD} GROUP BY vid"),
            "join" => format!(
                "SELECT * FROM VERSION {} OF CVD {CVD} JOIN VERSION {} ON k",
                self.join.0, self.join.1
            ),
            _ => format!(
                "SELECT * FROM V_DIFF({}, {}) OF CVD {CVD}",
                self.diff.0, self.diff.1
            ),
        }
    }
}

fn count_below(sorted: &[i64], x: i64) -> usize {
    sorted.partition_point(|&v| v < x)
}

fn count_common(a: &[i64], b: &[i64]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Compare one query result with the oracle; returns a mismatch message.
fn verify(
    store: &Store,
    round: &Round,
    kind: &str,
    result: &orpheus_core::query::QueryResult,
) -> Result<(), String> {
    let cvd = store.db.cvd(CVD).map_err(|e| e.to_string())?;
    let int = |v: &Value| v.as_i64().unwrap_or(i64::MIN);
    match kind {
        "select" => {
            let (v, x) = round.select;
            let want = count_below(&store.versions[v as usize].a1, x);
            (result.rows.len() == want).then_some(()).ok_or_else(|| {
                format!(
                    "select v{v} a1<{x}: {} rows, want {want}",
                    result.rows.len()
                )
            })
        }
        "aggregate" => {
            // GROUP BY vid counts equal each version's record count.
            let mut got: Vec<(i64, i64)> = result
                .rows
                .iter()
                .map(|r| (int(&r[0]), int(&r[1])))
                .collect();
            got.sort_unstable();
            let want: Vec<(i64, i64)> = (0..store.versions.len())
                .map(|v| {
                    let n = cvd.version_records(Vid(v as u32)).map_or(0, <[_]>::len);
                    (v as i64, n as i64)
                })
                .collect();
            let model: Vec<(i64, i64)> = (0..)
                .zip(&store.versions)
                .map(|(v, m)| (v, m.keys.len() as i64))
                .collect();
            if want != model {
                return Err(format!(
                    "Cvd version sizes {want:?} differ from the model {model:?}"
                ));
            }
            (got == want)
                .then_some(())
                .ok_or_else(|| format!("GROUP BY vid: got {got:?}, want {want:?}"))
        }
        "join" => {
            let (a, b) = round.join;
            let want = count_common(
                &store.versions[a as usize].keys,
                &store.versions[b as usize].keys,
            );
            (result.rows.len() == want)
                .then_some(())
                .ok_or_else(|| format!("join v{a}⋈v{b}: {} rows, want {want}", result.rows.len()))
        }
        _ => {
            let (a, b) = round.diff;
            let (only_a, _) = cvd.diff(Vid(a), Vid(b)).map_err(|e| e.to_string())?;
            let want: Vec<i64> = only_a.iter().map(|r| r.0 as i64).collect();
            let mut got: Vec<i64> = result.rows.iter().map(|r| int(&r[0])).collect();
            got.sort_unstable();
            (got == want)
                .then_some(())
                .ok_or_else(|| format!("V_DIFF({a}, {b}): {} rids, want {}", got.len(), want.len()))
        }
    }
}

/// What the rounds on one worker count saw, one entry per round.
#[derive(Default)]
struct Rounds {
    io: Vec<IoStats>,
    exec_tasks: Vec<f64>,
    /// `op.<name>.self_ms` and `.rows`, summed over the kinds.
    op_self_ms: Vec<[f64; OPERATORS.len()]>,
    op_rows: Vec<[f64; OPERATORS.len()]>,
    examined_per_returned: Vec<f64>,
}

fn operator_index(label: &str) -> Option<usize> {
    let name = label.split_whitespace().next()?.to_ascii_lowercase();
    OPERATORS.iter().position(|o| *o == name)
}

/// Add a plan's per-operator self time and rows; returns the rows its
/// leaves produced (rows examined).
fn add_plan(node: &ExplainSnapshot, self_ms: &mut [f64], rows: &mut [f64]) -> u64 {
    if let Some(i) = operator_index(&node.label) {
        self_ms[i] += ms(node.self_wall);
        rows[i] += node.stats.rows as f64;
    }
    if node.children.is_empty() {
        return node.stats.rows;
    }
    node.children
        .iter()
        .map(|c| add_plan(c, self_ms, rows))
        .sum()
}

/// Set up a store on `threads` morsel workers and run the rounds on it.
fn rounds(
    sizes: &Sizes,
    initial: &Model,
    rng: &Rng,
    seed: u64,
    threads: usize,
    report: &mut Report,
) -> Result<Rounds, String> {
    let store = set_up(sizes, initial, rng, threads)?;
    let db = &store.db;
    let mut queries = Rng::new(seed ^ 0x517E_C7ED);
    let mut out = Rounds::default();
    for done in 0..sizes.rounds {
        let round = Round::draw(&mut queries, store.versions.len());
        let io0 = db.io_stats();
        let tasks0 = db.metrics().counter("exec.pool.tasks");
        for kind in KINDS {
            let Some(result) = report.op(kind, db.run(&round.sql(kind))) else {
                continue;
            };
            let check = verify(&store, &round, kind, &result);
            report.check(check.is_ok(), || {
                format!("probe round {done}: {}", check.unwrap_err())
            });
        }
        out.io.push(db.io_stats().since(&io0));
        let tasks = db
            .metrics()
            .counter("exec.pool.tasks")
            .saturating_sub(tasks0);
        out.exec_tasks.push(tasks as f64);
        let mut self_ms = [0.0; OPERATORS.len()];
        let mut rows = [0.0; OPERATORS.len()];
        let (mut examined, mut returned) = (0u64, 0u64);
        for kind in KINDS {
            if let Some(plan) = report.op("explain analyze", db.explain_analyze(&round.sql(kind))) {
                examined += add_plan(&plan.root, &mut self_ms, &mut rows);
                returned += plan.root.stats.rows;
            }
        }
        out.op_self_ms.push(self_ms);
        out.op_rows.push(rows);
        out.examined_per_returned
            .push(examined as f64 / returned.max(1) as f64);
    }
    Ok(out)
}

/// Run the probe and report `op.*`, `rows_examined_per_row_returned` and
/// `exec.*`. Call with the journal on, as in any traced phase.
pub fn probe(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let sizes = if cfg.small { SMALL } else { FULL };
    let mut rng = Rng::new(cfg.seed);
    let initial = Model::generate(&mut rng, sizes.records, VALUES, VALUE_RANGE);
    let serial = rounds(&sizes, &initial, &rng, cfg.seed, 1, report)?;
    // The exec-pool counters come from the same queries on up to two
    // morsel workers.
    let parallel = rounds(&sizes, &initial, &rng, cfg.seed, parallel_threads(), report)?;
    layer_metrics(&serial, &parallel, report);
    Ok(())
}

/// Morsel workers of the exec-pool rounds: two, or one on a single core.
fn parallel_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn layer_metrics(serial: &Rounds, parallel: &Rounds, report: &mut Report) {
    let copied = io_series(&parallel.io, |s| s.bytes_copied_to_workers as f64);
    report.layer_median("exec.bytes_copied_to_workers", &copied);
    let allocs = io_series(&parallel.io, |s| s.morsel_allocs as f64);
    report.layer_median("exec.morsel_allocs", &allocs);
    report.layer_median("exec.tasks", &parallel.exec_tasks);
    for (i, op) in OPERATORS.iter().enumerate() {
        let self_ms: Vec<f64> = serial.op_self_ms.iter().map(|r| r[i]).collect();
        let rows: Vec<f64> = serial.op_rows.iter().map(|r| r[i]).collect();
        report.layer_median(&format!("op.{op}.self_ms"), &self_ms);
        report.layer_median(&format!("op.{op}.rows"), &rows);
    }
    report.layer_median(
        "rows_examined_per_row_returned",
        &serial.examined_per_returned,
    );
}
