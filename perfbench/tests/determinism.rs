//! The same seed must give identical count metrics; another seed must
//! change the inputs. Runs every workload at reduced size with
//! `seconds = 0`, so each loop runs exactly its minimum.

use perfbench::{Config, Report};
use std::sync::Mutex;

/// Workloads set `ORPHEUS_TRACE_SAMPLE` and start servers: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        seed,
        seconds: 0.0,
        trace,
        small: true,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("determinism-{workload}-{seed}-{}", u8::from(trace))),
    };
    let report = perfbench::run(workload, &cfg).expect("workload runs");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    report
}

fn detail(r: &Report, name: &str) -> f64 {
    r.detail
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no report figure {name}"))
        .value
}

fn layer(r: &Report, name: &str) -> f64 {
    r.layers
        .get(name)
        .unwrap_or_else(|| panic!("no layer metric {name}"))
        .value
}

fn assert_same(what: &str, a: &[(&str, f64)], b: &[(&str, f64)]) {
    for ((name, x), (_, y)) in a.iter().zip(b) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {name} differs: {x} vs {y}"
        );
    }
}

const CYCLE_COUNTS: &[&str] = &[
    "wal.bytes_per_commit",
    "wal.fsyncs_per_commit",
    "pool.pages_written_per_commit",
    "codec.bytes_encoded_per_commit",
    "codec.tuples_decoded",
    "pool.physical_reads",
    "pool.evictions",
    "pool.hit_rate",
    "core.catalog_bytes_per_commit",
];

/// Counts of the versioned-query probe in the traced run of `server_2c`.
/// The server's own counters depend on how the two clients interleave.
const PROBE_COUNTS: &[&str] = &[
    "exec.tasks",
    "exec.bytes_copied_to_workers",
    "exec.morsel_allocs",
    "op.seqscan.rows",
    "op.unnest.rows",
    "op.hashjoin.rows",
    "op.hashaggregate.rows",
    "rows_examined_per_row_returned",
];

#[test]
fn same_seed_repeats_count_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let storage = |r: &Report| {
        [
            "durable_bytes_per_commit",
            "stored_bytes_per_user_byte",
            "reopen_growth_bytes",
        ]
        .map(|n| (n, detail(r, n)))
    };
    let a = storage(&run("cycle_100k", 7, false));
    let b = storage(&run("cycle_100k", 7, false));
    assert!(a.iter().all(|(_, v)| *v > 0.0), "{a:?}");
    assert_same("cycle_100k", &a, &b);

    for (workload, names) in [("cycle_100k", CYCLE_COUNTS), ("server_2c", PROBE_COUNTS)] {
        let counts = |r: &Report| names.iter().map(|n| (*n, layer(r, n))).collect::<Vec<_>>();
        let a = counts(&run(workload, 7, true));
        let b = counts(&run(workload, 7, true));
        assert_same(workload, &a, &b);
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in perfbench::WORKLOADS {
        let a = run(workload, 1, false).input_hash;
        let b = run(workload, 1, false).input_hash;
        let c = run(workload, 2, false).input_hash;
        assert_eq!(a, b, "{workload}: same seed, different inputs");
        assert_ne!(a, c, "{workload}: another seed, same inputs");
    }
}
