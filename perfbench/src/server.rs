//! `server_2c`: two closed-loop clients against a durable server.
//!
//! The server runs with the default `EngineConfig` (512 frames, 2 ms
//! group-commit linger) on a data directory seeded by `init -f` with 10K
//! records × 4 int columns. Each client repeats: `pin` the CVD, read its
//! last version through the pinned snapshot, `checkout` that version,
//! `insert` one row, `commit`. The read result is checked against the
//! benchmark's model, and the final `log` must list exactly one version
//! per acknowledged commit plus `v0`.
//!
//! The run is a series of identical episodes — start a server on a fresh
//! directory, run a fixed number of cycles per client, shut it down — so
//! that every run samples the same stretch of catalog growth. The traced
//! run ends with the versioned-query probe of [`crate::queries`].

use crate::model::Model;
use crate::report::Report;
use crate::rng::Rng;
use crate::{stats, timed, Budget, Config};
use obs::Json;
use orpheus_server::{Client, EngineConfig, Reply, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;

const CVD: &str = "t";
const VALUES: usize = 3;
const VALUE_RANGE: u64 = 1_000_000;
/// Reads select `a1 < x` with `x < READ_RANGE`: at most ~10% of the rows.
const READ_RANGE: u64 = VALUE_RANGE / 10;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub records: usize,
    /// Cycles each client runs per episode.
    pub cycles: usize,
}

pub const FULL: Sizes = Sizes {
    records: 10_000,
    cycles: 12,
};

pub const SMALL: Sizes = Sizes {
    records: 1_000,
    cycles: 5,
};

/// Client threads: two, or one on a single-core host.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Send one line; a transport error or an error reply is a failure.
fn query(c: &mut Client, line: &str) -> Result<Reply, String> {
    let reply = c.query(line).map_err(|e| format!("`{line}`: {e}"))?;
    match reply.error() {
        Some((code, msg)) => Err(format!("`{line}` failed [{code}]: {msg}")),
        None => Ok(reply),
    }
}

fn tag(reply: &Reply) -> String {
    reply.tag().unwrap_or_default().to_owned()
}

fn write_csv(path: &Path, model: &Model) -> Result<(), String> {
    let mut out = String::from("k,a1,a2,a3\n");
    for row in model.rows() {
        let fields: Vec<String> = row.iter().map(ToString::to_string).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Start a server on a fresh data directory and load the CSV through
/// an admin session; returns the server, the admin session and the
/// set-up time in seconds.
fn set_up(dir: &Path, csv: &Path) -> Result<(Server, Client, f64), String> {
    drop(std::fs::remove_dir_all(dir));
    let (r, ms) = timed(|| -> Result<_, String> {
        let server = Server::start(ServerConfig {
            engine: EngineConfig {
                data_dir: Some(dir.to_owned()),
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut admin = Client::connect(server.local_addr(), "admin")
            .map_err(|e| format!("admin connect: {e}"))?;
        query(
            &mut admin,
            &format!(
                "init {CVD} -f {} -s k:int,a1:int,a2:int,a3:int -k k",
                csv.display()
            ),
        )?;
        query(&mut admin, "checkpoint")?;
        Ok((server, admin))
    });
    let (server, admin) = r?;
    Ok((server, admin, ms / 1e3))
}

fn shut_down(server: Server, admin: Client) -> Result<(), String> {
    drop(admin.terminate());
    server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    attempted: u64,
    failures: Vec<String>,
    cycle_ms: Vec<f64>,
    read_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    /// Round trip of every query the client sent.
    rtt_ms: Vec<f64>,
    acked: usize,
}

impl ClientRun {
    fn step(&mut self, c: &mut Client, line: &str) -> Option<(Reply, f64)> {
        self.attempted += 1;
        let (r, ms) = timed(|| query(c, line));
        self.rtt_ms.push(ms);
        match r {
            Ok(reply) => Some((reply, ms)),
            Err(e) => {
                self.failures.push(e);
                None
            }
        }
    }
}

/// One client's closed loop.
fn client_loop(
    addr: SocketAddr,
    id: usize,
    seed: u64,
    initial_a1: &[i64],
    cycles: usize,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut c = match Client::connect(addr, &format!("c{id}")) {
        Ok(c) => c,
        Err(e) => {
            run.attempted += 1;
            run.failures.push(format!("client {id} connect: {e}"));
            return run;
        }
    };
    let mut rng = Rng::new(seed ^ (0xC1_1E47 * (id as u64 + 1)));
    let mut inserted_a1: Vec<i64> = Vec::new();
    let mut last = 0u32;
    for n in 1..=cycles {
        let mut cycle = 0.0;
        let Some((_, ms)) = run.step(&mut c, &format!("pin {CVD}")) else {
            continue;
        };
        cycle += ms;
        let x = rng.value(READ_RANGE);
        let sql = format!("run SELECT * FROM VERSION {last} OF CVD {CVD} WHERE a1 < {x}");
        let Some((reply, ms)) = run.step(&mut c, &sql) else {
            continue;
        };
        cycle += ms;
        run.read_ms.push(ms);
        // The client's last version holds the initial rows plus its own
        // inserts.
        let want =
            initial_a1.partition_point(|&v| v < x) + inserted_a1.iter().filter(|&&v| v < x).count();
        let got = reply.rows().len();
        if got != want {
            run.failures.push(format!(
                "client {id}: read of v{last} returned {got} rows, want {want}"
            ));
        }
        let table = format!("c{id}n{n}");
        let Some((_, ms)) = run.step(&mut c, &format!("checkout {CVD} -v {last} -t {table}"))
        else {
            continue;
        };
        cycle += ms;
        let k = 100_000_000 + 10_000_000 * id as i64 + n as i64;
        let v: Vec<i64> = (0..VALUES).map(|_| rng.value(VALUE_RANGE)).collect();
        let line = format!("insert {table} {k},{},{},{}", v[0], v[1], v[2]);
        let Some((_, ms)) = run.step(&mut c, &line) else {
            continue;
        };
        cycle += ms;
        let Some((reply, ms)) = run.step(&mut c, &format!("commit -t {table} -m c{id}")) else {
            continue;
        };
        cycle += ms;
        let t = tag(&reply);
        match t.strip_prefix("COMMIT v").and_then(|s| s.parse().ok()) {
            Some(vid) => {
                last = vid;
                run.acked += 1;
                inserted_a1.push(v[0]);
            }
            None => run
                .failures
                .push(format!("client {id}: unexpected commit tag {t:?}")),
        }
        run.commit_ms.push(ms);
        run.cycle_ms.push(cycle);
    }
    drop(c.terminate());
    run
}

/// The server's metrics registry as `metrics --json` prints it.
struct ServerStats {
    metrics: Json,
}

impl ServerStats {
    fn take(admin: &mut Client) -> Result<ServerStats, String> {
        let text = tag(&query(admin, "metrics --json")?);
        let metrics = obs::parse(&text).map_err(|e| format!("metrics --json: {e}"))?;
        Ok(ServerStats { metrics })
    }

    fn counter(&self, name: &str) -> f64 {
        self.metrics
            .get_path(&format!("counters/{name}"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn histogram(&self, name: &str, field: &str) -> f64 {
        self.metrics
            .get_path(&format!("histograms/{name}/{field}"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }
}

/// Total microseconds of spans named `name` in a `spans --json` tree.
fn span_us(nodes: &Json, name: &str) -> f64 {
    let Json::Arr(items) = nodes else { return 0.0 };
    items
        .iter()
        .map(|n| {
            if n.get("name").and_then(Json::as_str) == Some(name) {
                n.get("total_us").and_then(Json::as_f64).unwrap_or(0.0)
            } else {
                n.get("children").map_or(0.0, |c| span_us(c, name))
            }
        })
        .sum()
}

/// What the episodes of one phase saw, accumulated.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    clients: Vec<ClientRun>,
    /// Time the clients ran, summed over episodes.
    busy_s: f64,
    /// Server counter and span deltas over the clients' work (traced).
    deltas: BTreeMap<&'static str, f64>,
}

impl Phase {
    fn all(&self, f: impl Fn(&ClientRun) -> &Vec<f64>) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }

    fn cycles(&self) -> usize {
        self.clients.iter().map(|c| c.cycle_ms.len()).sum()
    }

    fn delta(&self, name: &str) -> f64 {
        self.deltas.get(name).copied().unwrap_or(0.0)
    }
}

/// Server counters whose deltas the traced phase reports.
const COUNTERS: &[&str] = &[
    "orpheus.server.commits_total",
    "orpheus.server.group_commit.batches",
    "orpheus.server.backpressure_rejections",
    "pagestore.wal.fsyncs",
    "pagestore.wal.bytes",
    "pagestore.pool.write_backs",
    "pagestore.pool.flushed_writes",
    "pagestore.pool.logical_reads",
    "pagestore.pool.physical_reads",
    "pagestore.pool.evictions",
    "pagestore.page.encoded_bytes",
    "pagestore.page.decoded_tuples",
];
const LATENCY: &str = "orpheus.server.query.latency_us";
const SPANS: &[&str] = &["pagestore.checkpoint", "pagestore.wal.fsync"];

/// Run every client's cycles against `addr`, in parallel.
fn drive(
    addr: SocketAddr,
    cfg: &Config,
    sizes: &Sizes,
    initial_a1: &[i64],
) -> (Vec<ClientRun>, f64) {
    let (clients, ms) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients())
                .map(|id| {
                    s.spawn(move || client_loop(addr, id, cfg.seed, initial_a1, sizes.cycles))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ClientRun {
                        attempted: 1,
                        failures: vec!["client thread panicked".into()],
                        ..ClientRun::default()
                    })
                })
                .collect::<Vec<_>>()
        })
    });
    (clients, ms / 1e3)
}

/// Count the versions `log` lists: one `* vN` line each.
fn logged_versions(admin: &mut Client) -> Result<usize, String> {
    let log = tag(&query(admin, &format!("log {CVD}"))?);
    Ok(log.lines().filter(|l| l.starts_with("* ")).count())
}

/// Fold the clients' counts into the report and check the final log.
fn account(clients: &[ClientRun], admin: &mut Client, report: &mut Report) {
    for c in clients {
        report.attempted += c.attempted;
        for f in &c.failures {
            report.fail(f.clone());
        }
    }
    let acked: usize = clients.iter().map(|c| c.acked).sum();
    if let Some(listed) = report.op("log", logged_versions(admin)) {
        report.check(listed == acked + 1, || {
            format!("log lists {listed} versions; 1 + {acked} acknowledged commits expected")
        });
    }
}

/// One episode: a server on a fresh directory, every client's cycles,
/// the log check, shutdown.
fn episode(
    cfg: &Config,
    sizes: &Sizes,
    csv: &Path,
    initial_a1: &[i64],
    traced: bool,
    phase: &mut Phase,
    report: &mut Report,
) -> Result<(), String> {
    let dir = cfg.work_dir.join("data");
    let (server, mut admin, setup_s) = set_up(&dir, csv)?;
    phase.setup_s.push(setup_s);
    let before = if traced {
        query(&mut admin, "spans reset")?;
        Some(ServerStats::take(&mut admin)?)
    } else {
        None
    };
    let (clients, busy_s) = drive(server.local_addr(), cfg, sizes, initial_a1);
    if let Some(before) = before {
        let after = ServerStats::take(&mut admin)?;
        let spans = tag(&query(&mut admin, "spans --json")?);
        let spans = obs::parse(&spans).map_err(|e| format!("spans --json: {e}"))?;
        let mut add = |k: &'static str, v: f64| *phase.deltas.entry(k).or_default() += v;
        for &name in COUNTERS {
            add(name, after.counter(name) - before.counter(name));
        }
        add(
            "latency.count",
            after.histogram(LATENCY, "count") - before.histogram(LATENCY, "count"),
        );
        add(
            "latency.sum_us",
            after.histogram(LATENCY, "sum") - before.histogram(LATENCY, "sum"),
        );
        for &name in SPANS {
            add(name, span_us(&spans, name));
        }
    }
    account(&clients, &mut admin, report);
    shut_down(server, admin)?;
    drop(std::fs::remove_dir_all(&dir));
    phase.busy_s += busy_s;
    phase.clients.extend(clients);
    Ok(())
}

/// Episodes until `seconds` have passed (at least one).
fn phase(
    cfg: &Config,
    sizes: &Sizes,
    csv: &Path,
    initial_a1: &[i64],
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<Phase, String> {
    crate::set_journal(traced);
    let mut phase = Phase::default();
    let budget = Budget::new(seconds, 1);
    let mut done = 0;
    while budget.more(done) {
        episode(cfg, sizes, csv, initial_a1, traced, &mut phase, report)?;
        done += 1;
    }
    Ok(phase)
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let sizes = if cfg.small { SMALL } else { FULL };
    let mut rng = Rng::new(cfg.seed);
    let initial = Model::generate(&mut rng, sizes.records, VALUES, VALUE_RANGE);
    report.input_hash = initial.hash();
    let initial_a1 = initial.sorted_column(1);
    let csv = cfg.work_dir.join("seed.csv");
    write_csv(&csv, &initial)?;
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let untraced = phase(cfg, &sizes, &csv, &initial_a1, half, false, report)?;
        let traced = phase(cfg, &sizes, &csv, &initial_a1, half, true, report)?;
        crate::queries::probe(cfg, report)?;
        layer_metrics(&untraced, &traced, report);
        return Ok(());
    }
    let p = phase(cfg, &sizes, &csv, &initial_a1, cfg.seconds, false, report)?;
    let cycle = p.all(|c| &c.cycle_ms);
    let read = p.all(|c| &c.read_ms);
    let commit = p.all(|c| &c.commit_ms);
    let throughput = p.cycles() as f64 / p.busy_s;
    report.e2e("setup_s", stats::median(&p.setup_s), p.setup_s.len());
    report.e2e("cycle_mean_ms", stats::trimmed_mean(&cycle), cycle.len());
    report.e2e("read_mean_ms", stats::trimmed_mean(&read), read.len());
    report.e2e("cycles_per_s", throughput, p.cycles());
    report.detail("srv_cycles_per_s", "1/s", throughput, p.cycles());
    report.detail("srv_clients", "count", clients() as f64, 1);
    report.detail_latency("srv_commit", &commit);
    report.detail_latency("srv_read", &read);
    // The p95s, where at least 10 samples lie beyond them and the
    // highest supported tail is not already the p95.
    for (name, xs) in [("srv_commit_p95_ms", &commit), ("srv_read_p95_ms", &read)] {
        let highest = stats::tail(xs).map(|t| t.pct);
        if let Some(t) = stats::tail_at(xs, 95.0).filter(|_| highest != Some(95.0)) {
            report.detail(name, "ms", t.value, xs.len());
        }
    }
    Ok(())
}

fn layer_metrics(untraced: &Phase, traced: &Phase, report: &mut Report) {
    let d = |name: &str| traced.delta(name);
    let commits = d("orpheus.server.commits_total");
    let n_commits = commits as usize;
    let per_commit = |x: f64| if commits > 0.0 { x / commits } else { 0.0 };
    let rtt = traced.all(|c| &c.rtt_ms);
    let rtt_mean = rtt.iter().sum::<f64>() / rtt.len().max(1) as f64;
    let n = d("latency.count");
    let query_ms = if n > 0.0 {
        d("latency.sum_us") / n / 1e3
    } else {
        0.0
    };
    report.layer("srv.rtt_ms", rtt_mean, rtt.len());
    report.layer("srv.query_ms", query_ms, n as usize);
    report.layer("srv.wire_session_ms", rtt_mean - query_ms, rtt.len());
    let batches = d("orpheus.server.group_commit.batches");
    let batch_size = if batches > 0.0 {
        commits / batches
    } else {
        0.0
    };
    report.layer("srv.batch_size", batch_size, batches as usize);
    let fsyncs = per_commit(d("pagestore.wal.fsyncs"));
    report.layer("srv.fsyncs_per_commit", fsyncs, n_commits);
    report.layer("wal.fsyncs_per_commit", fsyncs, n_commits);
    let rejected = d("orpheus.server.backpressure_rejections");
    report.layer("srv.backpressure_rejections", rejected, n_commits);
    report.layer(
        "wal.bytes_per_commit",
        per_commit(d("pagestore.wal.bytes")),
        n_commits,
    );
    let written = d("pagestore.pool.write_backs") + d("pagestore.pool.flushed_writes");
    report.layer(
        "pool.pages_written_per_commit",
        per_commit(written),
        n_commits,
    );
    let encoded = per_commit(d("pagestore.page.encoded_bytes"));
    report.layer("codec.bytes_encoded_per_commit", encoded, n_commits);
    let checkpoint_ms = per_commit(d("pagestore.checkpoint") / 1e3);
    report.layer("pagestore.checkpoint_ms", checkpoint_ms, n_commits);
    report.layer(
        "wal.fsync_ms",
        per_commit(d("pagestore.wal.fsync") / 1e3),
        n_commits,
    );
    let cycles = traced.cycles();
    let per_cycle = |x: f64| x / cycles.max(1) as f64;
    let logical = d("pagestore.pool.logical_reads");
    let physical = d("pagestore.pool.physical_reads");
    let hit_rate = if logical > 0.0 {
        1.0 - physical / logical
    } else {
        1.0
    };
    report.layer("pool.hit_rate", hit_rate, cycles);
    report.layer("pool.physical_reads", per_cycle(physical), cycles);
    report.layer(
        "pool.evictions",
        per_cycle(d("pagestore.pool.evictions")),
        cycles,
    );
    let decoded = per_cycle(d("pagestore.page.decoded_tuples"));
    report.layer("codec.tuples_decoded", decoded, cycles);
    report.layer(
        "obs.trace_overhead_pct",
        crate::overhead_pct(
            stats::trimmed_mean(&traced.all(|c| &c.cycle_ms)),
            stats::trimmed_mean(&untraced.all(|c| &c.cycle_ms)),
        ),
        cycles,
    );
}
