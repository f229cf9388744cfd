//! The percentile rule, the result line's schema, and the agreement of
//! the pinned metric lists with `BENCHMARK.json`.

use perfbench::report::{required_keys, E2E_KEYS, LAYER_KEYS};
use perfbench::stats::{median, quantile, tail, tail_at, trimmed_mean};
use perfbench::{Report, WORKLOADS};

fn one_to(n: usize) -> Vec<f64> {
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail(&one_to(99)), None, "p90 of 99 has only 9 beyond");
    let t = tail(&one_to(100)).expect("p90 of 100");
    assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    let t = tail(&one_to(199)).expect("p90 of 199");
    assert_eq!(t.pct, 90.0, "p95 of 199 has only 9 beyond");
    assert_eq!(tail_at(&one_to(199), 95.0), None);
    let t = tail(&one_to(200)).expect("p95 of 200");
    assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
    let t = tail(&one_to(1000)).expect("p99 of 1000");
    assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
    let t = tail(&one_to(10_000)).expect("p99.9 of 10000");
    assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
}

#[test]
fn median_and_quartiles_interpolate() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
}

#[test]
fn trimmed_mean_drops_a_tenth_at_each_end() {
    assert_eq!(trimmed_mean(&[]), 0.0);
    assert_eq!(trimmed_mean(&[4.0]), 4.0);
    // Fewer than ten samples: nothing is dropped.
    assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 10.0]), 4.0);
    // 1..=10 loses 1 and 10.
    assert_eq!(trimmed_mean(&one_to(10)), 5.5);
    // A stall among twenty samples is dropped with the fastest.
    let mut xs = vec![5.0; 18];
    xs.extend([0.5, 500.0]);
    assert_eq!(trimmed_mean(&xs), 5.0);
}

#[test]
fn report_lines_carry_unit_and_sample_count() {
    let mut r = Report::default();
    let xs = one_to(200);
    r.detail_latency("commit", &xs);
    let lines = r.lines(false);
    assert!(
        lines.contains(&"commit_p50_ms = 100.5 ms (n=200)".to_owned()),
        "{lines:?}"
    );
    assert!(
        lines.contains(&"commit_p95_ms = 190 ms (n=200)".to_owned()),
        "{lines:?}"
    );
    assert!(lines[0].starts_with("error_rate = 0 "), "{lines:?}");
}

#[test]
fn result_line_matches_the_pinned_schema() {
    let mut r = Report::default();
    r.op::<(), String>("op", Ok(()));
    assert!(
        r.result_json(false).is_err(),
        "a missing gated metric is an error"
    );
    for (i, (name, _)) in E2E_KEYS.iter().enumerate() {
        r.e2e(name, 1.5 + i as f64, 3);
    }
    r.layer("pool.hit_rate", 0.75, 4);
    for trace in [false, true] {
        let line = r.result_json(trace).expect("every gated metric is present");
        let keys: Vec<String> = required_keys(trace);
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(obs::missing_keys(&line, &keys), Ok(vec![]), "{line}");
        let doc = obs::parse(&line).expect("valid JSON");
        let obs::Json::Obj(top) = &doc else {
            panic!("not an object: {line}")
        };
        let top: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
        let obs::Json::Obj(metrics) = doc.get("metrics").expect("metrics") else {
            panic!("metrics is not an object")
        };
        let pinned = if trace { LAYER_KEYS } else { E2E_KEYS };
        assert_eq!(metrics.len(), pinned.len(), "exactly the pinned metrics");
    }
    let mut bad = Report::default();
    bad.e2e("setup_s", f64::NAN, 1);
    assert!(
        bad.result_json(false).is_err(),
        "non-finite values are refused"
    );
}

#[test]
fn a_failed_check_counts_against_the_run() {
    let mut r = Report::default();
    assert_eq!(r.op::<u8, String>("ok", Ok(1)), Some(1));
    r.check(false, || "mismatch".into());
    assert_eq!((r.attempted, r.failed), (1, 1));
    assert_eq!(r.error_rate(), 1.0);
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(doc: &obs::Json, key: &str) -> Vec<(String, String)> {
    let Some(obs::Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(obs::Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn pinned_metrics_agree_with_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = obs::parse(&text).expect("BENCHMARK.json parses");
    let pinned = |keys: &[(&str, &str)]| -> Vec<(String, String)> {
        keys.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), pinned(E2E_KEYS));
    assert_eq!(listed(&doc, "per_layer"), pinned(LAYER_KEYS));
    let workloads: Vec<String> = listed(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
