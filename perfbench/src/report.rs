//! The benchmark's result: pinned metric names, the human-readable
//! report lines and the one-line JSON result.

use crate::stats;
use obs::Json;
use std::collections::BTreeMap;

/// End-to-end metrics every workload reports with tracing off, as
/// `(name, unit)`. These are the gated metrics of `BENCHMARK.json`; the
/// `_mean_ms` timings are [`stats::trimmed_mean`]s.
pub const E2E_KEYS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cycle_mean_ms", "ms"),
    ("read_mean_ms", "ms"),
    ("cycles_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`. Every workload
/// reports all of them; a layer the workload does not reach reads 0.
pub const LAYER_KEYS: &[(&str, &str)] = &[
    ("core.checkout_ms", "ms"),
    ("core.checkout_rows_ms", "ms"),
    ("core.staging_build_ms", "ms"),
    ("core.commit_ms", "ms"),
    ("core.cvd_commit_ms", "ms"),
    ("core.commit_apply_ms", "ms"),
    ("core.catalog_write_ms", "ms"),
    ("core.catalog_bytes_per_commit", "B"),
    ("core.reopen_ms", "ms"),
    ("core.reopen_catalog_ms", "ms"),
    ("op.values.self_ms", "ms"),
    ("op.values.rows", "count"),
    ("op.seqscan.self_ms", "ms"),
    ("op.seqscan.rows", "count"),
    ("op.hashjoin.self_ms", "ms"),
    ("op.hashjoin.rows", "count"),
    ("op.parhashjoin.self_ms", "ms"),
    ("op.parhashjoin.rows", "count"),
    ("op.project.self_ms", "ms"),
    ("op.project.rows", "count"),
    ("op.filter.self_ms", "ms"),
    ("op.filter.rows", "count"),
    ("op.limit.self_ms", "ms"),
    ("op.limit.rows", "count"),
    ("op.unnest.self_ms", "ms"),
    ("op.unnest.rows", "count"),
    ("op.hashaggregate.self_ms", "ms"),
    ("op.hashaggregate.rows", "count"),
    ("rows_examined_per_row_returned", "ratio"),
    ("codec.tuples_decoded", "count"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes_encoded_per_commit", "B"),
    ("pool.hit_rate", "ratio"),
    ("pool.physical_reads", "count"),
    ("pool.evictions", "count"),
    ("pool.pages_written_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_commit", "count"),
    ("pagestore.checkpoint_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("exec.tasks", "count"),
    ("exec.bytes_copied_to_workers", "B"),
    ("exec.morsel_allocs", "count"),
    ("srv.rtt_ms", "ms"),
    ("srv.query_ms", "ms"),
    ("srv.wire_session_ms", "ms"),
    ("srv.batch_size", "count"),
    ("srv.fsyncs_per_commit", "count"),
    ("srv.backpressure_rejections", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spanned_ms.checkout", "ms"),
    ("obs.spanned_ms.commit", "ms"),
    ("obs.unattributed_pct.checkout", "%"),
    ("obs.unattributed_pct.commit", "%"),
];

/// Operators whose `op.<name>.*` metrics come from EXPLAIN ANALYZE.
pub const OPERATORS: &[&str] = &[
    "values",
    "seqscan",
    "hashjoin",
    "parhashjoin",
    "project",
    "filter",
    "limit",
    "unnest",
    "hashaggregate",
];

/// One measured figure with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples the value summarises (1 for a single count or total).
    pub samples: usize,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: commands, queries, reopens.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output did not
    /// match the benchmark's own oracle.
    pub failed: u64,
    /// Fingerprint of the generated inputs: equal for equal seeds.
    pub input_hash: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
    /// Gated end-to-end metrics ([`E2E_KEYS`]).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end figures (report lines only).
    pub detail: Vec<Metric>,
    /// Per-layer metrics of the traced run ([`LAYER_KEYS`]).
    pub layers: BTreeMap<String, Metric>,
}

impl Report {
    /// Count one attempted operation and whether it went wrong.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Record a failed operation or output mismatch.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Record an output check: a mismatch counts as a failed operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Add a gated end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(E2E_KEYS, name).expect("gated metric names are pinned in E2E_KEYS");
        self.end_to_end.push(metric(name, unit, value, samples));
    }

    /// Add a workload-specific report figure.
    pub fn detail(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        self.detail.push(metric(name, unit, value, samples));
    }

    /// Add the median of `xs` as a report figure, plus the tail percentile
    /// the sample supports, if any.
    pub fn detail_latency(&mut self, name: &str, xs: &[f64]) {
        self.detail(&format!("{name}_p50_ms"), "ms", stats::median(xs), xs.len());
        if let Some(t) = stats::tail(xs) {
            let label = format!("{}", t.pct).replace('.', "_");
            self.detail(&format!("{name}_p{label}_ms"), "ms", t.value, xs.len());
        }
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(LAYER_KEYS, name).expect("layer metric names are pinned in LAYER_KEYS");
        self.layers
            .insert(name.to_owned(), metric(name, unit, value, samples));
    }

    /// Set a per-layer metric to the median of `xs`.
    pub fn layer_median(&mut self, name: &str, xs: &[f64]) {
        self.layer(name, stats::median(xs), xs.len());
    }

    /// Human-readable lines: every figure with unit and sample count,
    /// then any failures.
    pub fn lines(&self, trace: bool) -> Vec<String> {
        let mut out = vec![format!(
            "error_rate = {} ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        )];
        let shown: Vec<&Metric> = if trace {
            self.layers.values().collect()
        } else {
            self.detail.iter().chain(&self.end_to_end).collect()
        };
        for m in shown {
            out.push(format!(
                "{} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.extend(self.failures.iter().map(|f| format!("FAILED: {f}")));
        out
    }

    /// The one-line JSON result: end-to-end metrics without tracing,
    /// per-layer metrics with it (layers the workload does not reach
    /// read 0). Errors when a gated metric is missing or not finite.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        if trace {
            for &(name, unit) in LAYER_KEYS {
                let value = self.layers.get(name).map_or(0.0, |m| m.value);
                metrics.push((name, unit, value));
            }
        } else {
            for &(name, unit) in E2E_KEYS {
                let m = self
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                metrics.push((name, unit, m.value));
            }
        }
        let mut obj = Vec::new();
        for (name, unit, value) in metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            obj.push((
                name,
                Json::object(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_owned())),
                ]),
            ));
        }
        Ok(Json::object(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::object(obj)),
        ])
        .to_string_compact())
    }
}

fn unit_of(keys: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    keys.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

fn metric(name: &str, unit: &str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        unit: unit.to_owned(),
        value,
        samples,
    }
}

/// The keys a result line must carry, as `/`-separated paths for
/// [`obs::missing_keys`].
pub fn required_keys(trace: bool) -> Vec<String> {
    let keys = if trace { LAYER_KEYS } else { E2E_KEYS };
    let mut out: Vec<String> = ["correct", "attempted", "failed"]
        .iter()
        .map(|k| (*k).to_owned())
        .collect();
    for (name, _) in keys {
        out.push(format!("metrics/{name}/value"));
        out.push(format!("metrics/{name}/unit"));
    }
    out
}
