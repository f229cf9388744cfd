//! Wall-clock benchmark of OrpheusDB through its public surfaces.
//!
//! Two workloads, each with its inputs generated here from a seed:
//!
//! * [`cycle`] — the paper's §4.2 loop on one durable `OrpheusDb`:
//!   check out the latest version, change ~1% of it, commit it back;
//!   then reopen the data directory a few times.
//! * [`server`] — two closed-loop clients against a durable
//!   `orpheus_server::Server`: pinned snapshot read, checkout, insert,
//!   commit. Its traced run ends with the [`queries`] probe, which times
//!   the relstore operators of versioned queries in process.
//!
//! Every workload checks its outputs against an oracle it computes
//! itself; a mismatch counts as a failed operation. Without tracing a
//! run reports the end-to-end metrics of [`report::E2E_KEYS`]; with
//! tracing it times each layer's public functions from here and reports
//! [`report::LAYER_KEYS`].

pub mod cycle;
pub mod model;
pub mod queries;
pub mod report;
pub mod rng;
pub mod server;
pub mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use report::Report;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["cycle_100k", "server_2c"];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time of the run. A traced run splits it between an
    /// untraced and a traced phase. With 0, every loop runs its minimum
    /// (one episode, the count rounds): the determinism tests use this.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced input sizes, for tests.
    pub small: bool,
    /// Scratch directory for data directories and CSV inputs; removed
    /// when the run ends.
    pub work_dir: PathBuf,
}

/// Decides when a measuring loop stops: once `seconds` have passed and
/// at least `min` rounds ran. With `seconds` 0 it runs exactly `min`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
}

impl Budget {
    pub fn new(seconds: f64, min: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            min,
        }
    }

    pub fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Run one workload by name.
pub fn run(workload: &str, cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let mut report = Report::default();
    let result = match workload {
        "cycle_100k" => cycle::run(cfg, &mut report),
        "server_2c" => server::run(cfg, &mut report),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    };
    // Best effort: a leftover scratch directory must not fail the run.
    // The parent goes too once no other run uses it.
    drop(std::fs::remove_dir_all(&cfg.work_dir));
    if let Some(parent) = cfg.work_dir.parent() {
        drop(std::fs::remove_dir(parent));
    }
    result.map(|()| report)
}

/// Turn the engine's event journal on or off for databases and servers
/// created from now on (`ORPHEUS_TRACE_SAMPLE` is read when a recorder is
/// made). Call only while no other thread runs.
pub fn set_journal(on: bool) {
    std::env::set_var(obs::journal::SAMPLE_ENV, if on { "1" } else { "0" });
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One figure per `IoStats` delta, e.g. per cycle or per round.
pub fn io_series(io: &[relstore::IoStats], f: impl Fn(&relstore::IoStats) -> f64) -> Vec<f64> {
    io.iter().map(f).collect()
}

/// Traced over untraced time, as a percent overhead.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}
