//! `cycle_100k`: the paper's §4.2 protocol on one durable `OrpheusDb`.
//!
//! Each cycle checks out the latest version into a staging table,
//! applies a seeded ~1% change through `staging_table_mut` (updates,
//! inserts, deletes), and commits with the default per-commit
//! checkpoint. The run is a series of identical episodes: set up a fresh
//! store, run a fixed number of cycles, reopen the idle data directory a
//! few times. The catalog grows with every version, so fixed-length
//! episodes keep each sample's position in that growth the same on every
//! run, however fast the host is. The benchmark keeps its own model of
//! the table; every checkout, and the latest version after every reopen,
//! must hash to it.

use crate::model::{apply, staging_hash, version_hash, Model};
use crate::report::Report;
use crate::rng::Rng;
use crate::{io_series, ms, stats, timed, Config};
use obs::SpanReport;
use orpheus_core::{OrpheusDb, Vid};
use relstore::{IoStats, Row, PAGE_SIZE};
use std::path::{Path, PathBuf};

const CVD: &str = "t";
const USER: &str = "bench";
/// Value columns besides the key `k`.
const VALUES: usize = 3;
/// Logical bytes of one record: four 8-byte integers.
const USER_ROW_BYTES: u64 = 8 * (1 + VALUES as u64);
const VALUE_RANGE: u64 = 1_000_000;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub records: usize,
    pub pool_pages: usize,
    /// Checkout → commit cycles per episode.
    pub cycles: usize,
    /// Idle reopens at the end of each episode.
    pub reopens: usize,
}

/// 100K records × 4 int columns in a 4096-frame (32 MiB) pool, which
/// holds the live data: durable pools cannot evict dirty frames.
pub const FULL: Sizes = Sizes {
    records: 100_000,
    pool_pages: 4096,
    cycles: 5,
    reopens: 2,
};

pub const SMALL: Sizes = Sizes {
    records: 4_000,
    pool_pages: 512,
    cycles: 3,
    reopens: 2,
};

/// One durable database with the initial version committed.
struct Store {
    db: OrpheusDb,
    dir: PathBuf,
}

/// Create a fresh durable store in `dir`; returns it with the set-up
/// time in seconds (open + init + checkpoint; input generation excluded).
fn set_up(dir: &Path, sizes: &Sizes, model: &Model) -> Result<(Store, f64), String> {
    let (schema, rows) = (model.schema(), model.rows());
    drop(std::fs::remove_dir_all(dir));
    let err = |e: orpheus_core::Error| format!("set-up: {e}");
    let (r, ms) = timed(|| -> Result<_, String> {
        let (mut db, report) = OrpheusDb::open_durable(dir, sizes.pool_pages).map_err(err)?;
        db.create_user(USER).map_err(err)?;
        db.login(USER).map_err(err)?;
        db.init_cvd(CVD, schema, vec!["k".into()], rows)
            .map_err(err)?;
        db.checkpoint().map_err(err)?;
        Ok((db, report))
    });
    let (db, _) = r?;
    Ok((
        Store {
            db,
            dir: dir.to_owned(),
        },
        ms / 1e3,
    ))
}

/// What the episodes of one phase saw, accumulated.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    cycle_ms: Vec<f64>,
    checkout_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    reopen_ms: Vec<f64>,
    /// `relstore::Database::open_durable` before each reopen (traced).
    storage_reopen_ms: Vec<f64>,
    /// Count metrics of the first episode; every episode repeats them.
    counts: Option<Counts>,
    /// Layer timings (traced phase only).
    layers: Layers,
}

/// Count metrics of one episode.
#[derive(Debug, Clone, Copy)]
struct Counts {
    /// WAL, page and catalog bytes written per commit.
    durable_bytes_per_commit: f64,
    /// Data directory bytes per logical byte of the CVD's records.
    stored_bytes_per_user_byte: f64,
    /// `pages.db` growth per idle reopen.
    reopen_growth_bytes: f64,
}

#[derive(Default)]
struct Layers {
    checkout: Vec<f64>,
    checkout_rows: Vec<f64>,
    staging_build: Vec<f64>,
    commit: Vec<f64>,
    cvd_commit: Vec<f64>,
    commit_apply: Vec<f64>,
    catalog_write: Vec<f64>,
    pagestore_checkpoint: Vec<f64>,
    wal_fsync: Vec<f64>,
    /// Per cycle: engine-span time inside `orpheus.checkout` and
    /// `orpheus.commit`, and the share of each command no layer timing or
    /// engine span accounts for.
    checkout_spans: Vec<f64>,
    commit_spans: Vec<f64>,
    unattributed_checkout: Vec<f64>,
    unattributed_commit: Vec<f64>,
    catalog_bytes: Vec<f64>,
    /// IoStats over checkout + commit (+ checkpoint) of each cycle.
    cycle_io: Vec<IoStats>,
    /// IoStats over commit + checkpoint of each cycle.
    commit_io: Vec<IoStats>,
}

/// Run the episode's cycles. With `traced`, every call into a layer is
/// also timed on its own. Returns the bytes written per commit.
fn cycles(
    store: &mut Store,
    model: &mut Model,
    rng: &mut Rng,
    sizes: &Sizes,
    traced: bool,
    phase: &mut Phase,
    report: &mut Report,
) -> f64 {
    let change = (sizes.records / 100).max(1);
    let io_start = store.db.io_stats();
    let mut catalog_written = 0u64;
    let mut done = 0;
    while done < sizes.cycles {
        let db = &mut store.db;
        let latest = match db.cvd(CVD) {
            Ok(c) => c.latest_version(),
            Err(e) => {
                report.fail(format!("cvd lookup: {e}"));
                break;
            }
        };
        let table = format!("w{done}");
        let mut rows_ms = 0.0;
        if traced {
            rows_ms = timed(|| db.cvd(CVD).and_then(|c| c.checkout_rows(&[latest]))).1;
            db.recorder().reset();
        }
        let io0 = db.io_stats();
        let (r, co_ms) = timed(|| db.checkout(CVD, &[latest], &table));
        if report.op("checkout", r).is_none() {
            break;
        }
        let io_co = db.io_stats().since(&io0);
        if traced {
            let l = &mut phase.layers;
            let spans = child_span_ms(&db.recorder().report(), "orpheus.checkout");
            l.checkout.push(co_ms);
            l.checkout_rows.push(rows_ms);
            l.staging_build.push(co_ms - rows_ms);
            l.checkout_spans.push(spans);
            l.unattributed_checkout
                .push(unattributed_pct(co_ms, rows_ms + spans));
        }
        // Output check (untimed): the checkout equals the model.
        let Some((hash, ids)) = report.op("read staging", staging_hash(db, &table)) else {
            break;
        };
        report.check(hash == model.hash(), || {
            format!("cycle {done}: checkout of {latest} does not match the model")
        });
        let edits = model.change(rng, change);
        let (r, edit_ms) = timed(|| apply(db, &table, &ids, &edits));
        if report.op("edit staging", r).is_none() {
            break;
        }
        let io1 = db.io_stats();
        let committed = if traced {
            commit_traced(db, &table, latest, &mut phase.layers, report)
        } else {
            let (r, ms) = timed(|| db.commit(&table, "cycle"));
            report.op("commit", r).map(|c| (c.vid, ms))
        };
        let Some((vid, commit_ms)) = committed else {
            break;
        };
        report.check(vid.0 as usize == latest.0 as usize + 1, || {
            format!(
                "cycle {done}: commit returned {vid}, expected v{}",
                latest.0 + 1
            )
        });
        let io_commit = store.db.io_stats().since(&io1);
        let catalog = file_len(&store.dir.join("catalog.orc"));
        if traced {
            let mut cycle_io = io_co;
            cycle_io.absorb(&io_commit);
            phase.layers.cycle_io.push(cycle_io);
            phase.layers.commit_io.push(io_commit);
            phase.layers.catalog_bytes.push(catalog as f64);
        }
        phase.checkout_ms.push(co_ms);
        phase.commit_ms.push(commit_ms);
        phase.cycle_ms.push(co_ms + edit_ms + commit_ms);
        catalog_written += catalog;
        done += 1;
    }
    // Each checkpoint rewrites `catalog.orc` whole.
    let io = store.db.io_stats().since(&io_start);
    let written = io.wal_bytes + io.pages_written() * PAGE_SIZE as u64 + catalog_written;
    written as f64 / done.max(1) as f64
}

/// Commit split into its layers: the logical `Cvd::commit` (timed on a
/// clone), `OrpheusDb::commit` without its checkpoint, and the
/// checkpoint. Returns the new version and the whole commit time, or
/// `None` after a failed step (already counted).
fn commit_traced(
    db: &mut OrpheusDb,
    table: &str,
    parent: Vid,
    layers: &mut Layers,
    report: &mut Report,
) -> Option<(Vid, f64)> {
    let staged: orpheus_core::Result<(orpheus_core::Cvd, Vec<Row>)> = (|| {
        let rows = db.staging_table(table)?.iter().map(|(_, r)| r).collect();
        Ok((db.cvd(CVD)?.clone(), rows))
    })();
    let (mut cvd, rows) = report.op("stage commit copy", staged)?;
    let (r, cvd_ms) = timed(|| cvd.commit(&[parent], rows, "cycle", USER));
    report.op("Cvd::commit", r)?;
    drop(cvd);
    db.set_auto_checkpoint(false);
    db.recorder().reset();
    let (r, apply_ms) = timed(|| db.commit(table, "cycle"));
    db.set_auto_checkpoint(true);
    let result = report.op("commit", r)?;
    let commit_spans = child_span_ms(&db.recorder().report(), "orpheus.commit");
    db.recorder().reset();
    let (r, ckpt_ms) = timed(|| db.checkpoint());
    report.op("checkpoint", r)?;
    let spans = db.recorder().report();
    let pagestore_ms = span_ms(&spans, "pagestore.checkpoint");
    let commit_ms = apply_ms + ckpt_ms;
    layers.cvd_commit.push(cvd_ms);
    layers.commit_apply.push(apply_ms - cvd_ms);
    layers.pagestore_checkpoint.push(pagestore_ms);
    layers.catalog_write.push(ckpt_ms - pagestore_ms);
    layers
        .wal_fsync
        .push(span_ms(&spans, "pagestore.wal.fsync"));
    layers.commit.push(commit_ms);
    layers.commit_spans.push(commit_spans);
    // The checkpoint call is attributed whole: the pagestore span plus
    // the catalog write it brackets.
    layers
        .unattributed_commit
        .push(unattributed_pct(commit_ms, cvd_ms + commit_spans + ckpt_ms));
    Some((result.vid, commit_ms))
}

/// Reopen the data directory `sizes.reopens` times, checking after each
/// that every acknowledged version is listed and the latest hashes to
/// the model. With `split`, the storage layer's own reopen
/// (`relstore::Database::open_durable`) is timed before each.
fn reopen(
    dir: &Path,
    sizes: &Sizes,
    versions: usize,
    model: &Model,
    split: bool,
    phase: &mut Phase,
    report: &mut Report,
) {
    for i in 0..sizes.reopens {
        if split {
            let (r, ms) = timed(|| relstore::Database::open_durable(dir, sizes.pool_pages));
            if report.op("relstore reopen", r).is_some() {
                phase.storage_reopen_ms.push(ms);
            }
        }
        let (r, ms) = timed(|| OrpheusDb::open_durable(dir, sizes.pool_pages));
        let Some((db, _)) = report.op("reopen", r) else {
            continue;
        };
        phase.reopen_ms.push(ms);
        let listed = db.cvd(CVD).map_or(0, |c| c.num_versions());
        report.check(listed == versions, || {
            format!("reopen {i}: {listed} versions listed, {versions} acknowledged")
        });
        let latest = Vid(versions.saturating_sub(1) as u32);
        if let Some(h) = report.op("read latest after reopen", version_hash(&db, CVD, latest)) {
            report.check(h == model.hash(), || {
                format!("reopen {i}: latest version does not match the model")
            });
        }
    }
}

/// One episode: a fresh store, `sizes.cycles` cycles, idle reopens.
fn episode(
    dir: &Path,
    sizes: &Sizes,
    initial: &Model,
    rng: &Rng,
    traced: bool,
    phase: &mut Phase,
    report: &mut Report,
) -> Result<(), String> {
    let (mut store, setup_s) = set_up(dir, sizes, initial)?;
    phase.setup_s.push(setup_s);
    let mut model = initial.clone();
    // Every episode replays the same seeded edit stream.
    let mut rng = rng.clone();
    let durable_bytes_per_commit = cycles(
        &mut store, &mut model, &mut rng, sizes, traced, phase, report,
    );
    let versions = store.db.cvd(CVD).map_or(0, |c| c.num_versions());
    let records = store.db.cvd(CVD).map_or(0, |c| c.num_records()) as u64;
    drop(store.db);
    let stored = dir_bytes(dir);
    let before = file_len(&dir.join("pages.db"));
    reopen(dir, sizes, versions, &model, traced, phase, report);
    let growth = file_len(&dir.join("pages.db")).saturating_sub(before);
    drop(std::fs::remove_dir_all(dir));
    phase.counts.get_or_insert(Counts {
        durable_bytes_per_commit,
        stored_bytes_per_user_byte: stored as f64 / (records * USER_ROW_BYTES).max(1) as f64,
        reopen_growth_bytes: growth as f64 / sizes.reopens.max(1) as f64,
    });
    Ok(())
}

/// Episodes until `seconds` have passed (at least one).
fn phase(
    cfg: &Config,
    sizes: &Sizes,
    initial: &Model,
    rng: &Rng,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<Phase, String> {
    crate::set_journal(traced);
    let mut phase = Phase::default();
    let dir = cfg.work_dir.join("data");
    let budget = crate::Budget::new(seconds, 1);
    let mut done = 0;
    while budget.more(done) {
        episode(&dir, sizes, initial, rng, traced, &mut phase, report)?;
        done += 1;
    }
    Ok(phase)
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let sizes = if cfg.small { SMALL } else { FULL };
    let mut rng = Rng::new(cfg.seed);
    let initial = Model::generate(&mut rng, sizes.records, VALUES, VALUE_RANGE);
    report.input_hash = initial.hash();
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let untraced = phase(cfg, &sizes, &initial, &rng, half, false, report)?;
        let traced = phase(cfg, &sizes, &initial, &rng, half, true, report)?;
        layer_metrics(&untraced, &traced, report);
        return Ok(());
    }
    let p = phase(cfg, &sizes, &initial, &rng, cfg.seconds, false, report)?;
    report.e2e("setup_s", stats::median(&p.setup_s), p.setup_s.len());
    report.e2e(
        "cycle_mean_ms",
        stats::trimmed_mean(&p.cycle_ms),
        p.cycle_ms.len(),
    );
    report.e2e(
        "read_mean_ms",
        stats::trimmed_mean(&p.checkout_ms),
        p.checkout_ms.len(),
    );
    let busy_s: f64 = p.cycle_ms.iter().sum::<f64>() / 1e3;
    report.e2e(
        "cycles_per_s",
        p.cycle_ms.len() as f64 / busy_s,
        p.cycle_ms.len(),
    );
    report.detail_latency("checkout", &p.checkout_ms);
    report.detail_latency("commit", &p.commit_ms);
    report.detail_latency("reopen", &p.reopen_ms);
    if let Some(c) = p.counts {
        report.detail(
            "stored_bytes_per_user_byte",
            "ratio",
            c.stored_bytes_per_user_byte,
            1,
        );
        report.detail(
            "durable_bytes_per_commit",
            "B",
            c.durable_bytes_per_commit,
            sizes.cycles,
        );
        report.detail(
            "reopen_growth_bytes",
            "B",
            c.reopen_growth_bytes,
            sizes.reopens,
        );
    }
    Ok(())
}

fn layer_metrics(untraced: &Phase, traced: &Phase, report: &mut Report) {
    let l = &traced.layers;
    report.layer_median("core.checkout_ms", &l.checkout);
    report.layer_median("core.checkout_rows_ms", &l.checkout_rows);
    report.layer_median("core.staging_build_ms", &l.staging_build);
    report.layer_median("core.commit_ms", &l.commit);
    report.layer_median("core.cvd_commit_ms", &l.cvd_commit);
    report.layer_median("core.commit_apply_ms", &l.commit_apply);
    report.layer_median("core.catalog_write_ms", &l.catalog_write);
    report.layer_median("core.catalog_bytes_per_commit", &l.catalog_bytes);
    report.layer_median("core.reopen_ms", &traced.reopen_ms);
    let catalog: Vec<f64> = traced
        .reopen_ms
        .iter()
        .zip(&traced.storage_reopen_ms)
        .map(|(all, storage)| all - storage)
        .collect();
    report.layer_median("core.reopen_catalog_ms", &catalog);
    report.layer_median("pagestore.checkpoint_ms", &l.pagestore_checkpoint);
    report.layer_median("wal.fsync_ms", &l.wal_fsync);
    let commit = |f: fn(&IoStats) -> f64| io_series(&l.commit_io, f);
    report.layer_median("wal.bytes_per_commit", &commit(|s| s.wal_bytes as f64));
    report.layer_median("wal.fsyncs_per_commit", &commit(|s| s.wal_fsyncs as f64));
    let written = commit(|s| s.pages_written() as f64);
    report.layer_median("pool.pages_written_per_commit", &written);
    let encoded = commit(|s| s.tuple_bytes_encoded as f64);
    report.layer_median("codec.bytes_encoded_per_commit", &encoded);
    let cycle = |f: fn(&IoStats) -> f64| io_series(&l.cycle_io, f);
    report.layer_median("pool.hit_rate", &cycle(IoStats::hit_rate));
    report.layer_median("pool.physical_reads", &cycle(|s| s.physical_reads as f64));
    report.layer_median("pool.evictions", &cycle(|s| s.evictions as f64));
    report.layer_median("codec.tuples_decoded", &cycle(|s| s.tuples_decoded as f64));
    report.layer_median("codec.decode_ms", &cycle(|s| s.decode_micros as f64 / 1e3));
    // Dark time, with the engine-span time that entered it.
    report.layer_median("obs.spanned_ms.checkout", &l.checkout_spans);
    report.layer_median("obs.spanned_ms.commit", &l.commit_spans);
    report.layer_median("obs.unattributed_pct.checkout", &l.unattributed_checkout);
    report.layer_median("obs.unattributed_pct.commit", &l.unattributed_commit);
    report.layer(
        "obs.trace_overhead_pct",
        crate::overhead_pct(
            stats::trimmed_mean(&traced.cycle_ms),
            stats::trimmed_mean(&untraced.cycle_ms),
        ),
        traced.cycle_ms.len(),
    );
}

/// Size of a file in bytes, 0 when it does not exist.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Bytes a durable data directory holds on disk.
fn dir_bytes(dir: &Path) -> u64 {
    ["pages.db", "wal.log", "catalog.orc"]
        .iter()
        .map(|f| file_len(&dir.join(f)))
        .sum()
}

/// Total time, in ms, of every span named `name` (a match's own
/// descendants are not searched again, so nesting never double-counts).
fn span_ms(report: &SpanReport, name: &str) -> f64 {
    fn walk(nodes: &[obs::SpanStats], name: &str) -> f64 {
        nodes
            .iter()
            .map(|n| {
                if n.name == name {
                    ms(n.total)
                } else {
                    walk(&n.children, name)
                }
            })
            .sum()
    }
    walk(&report.roots, name)
}

/// Total time, in ms, of the direct children of every span named
/// `parent`: the part of the parent's time some span accounts for.
fn child_span_ms(report: &SpanReport, parent: &str) -> f64 {
    fn walk(nodes: &[obs::SpanStats], parent: &str) -> f64 {
        nodes
            .iter()
            .map(|n| {
                if n.name == parent {
                    n.children.iter().map(|c| ms(c.total)).sum()
                } else {
                    walk(&n.children, parent)
                }
            })
            .sum()
    }
    walk(&report.roots, parent)
}

/// Share of `total` not covered by `attributed`, in percent.
fn unattributed_pct(total: f64, attributed: f64) -> f64 {
    if total > 0.0 {
        100.0 * (1.0 - attributed / total)
    } else {
        0.0
    }
}
