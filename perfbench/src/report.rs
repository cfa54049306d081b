//! The metric catalogue, check bookkeeping, the result line and its
//! validator, and the envelope every emitted document carries.

use std::collections::BTreeMap;

use planaria_common::json::{self, Value, Writer};

/// One metric the benchmark reports: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9][A-Za-z0-9_.-]*`.
    pub name: &'static str,
    /// Unit as printed next to the value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// Metrics of an untraced run (what a user of the simulator sees).
pub const END_TO_END: [MetricSpec; 11] = [
    m("accesses_per_s", "acc/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("turn_ns_per_access_p50", "ns"),
    m("turn_ns_per_access_p99", "ns"),
    m("sc_hit_rate", "ratio"),
    m("amat_cycles", "cycles"),
    m("dram_requests_per_access", "ratio"),
    m("prefetch_accuracy", "ratio"),
    m("power_mw", "mW"),
    m("checks_passed_share", "ratio"),
];

/// Metrics of a traced run: each layer replayed alone on its captured
/// input stream.
pub const PER_LAYER: [MetricSpec; 30] = [
    m("trace.synth_ns_per_access", "ns"),
    m("trace.encode_ns_per_access", "ns"),
    m("trace.decode_ns_per_access", "ns"),
    m("cache.ns_per_op", "ns"),
    m("cache.fills_per_access", "ratio"),
    m("cache.evictions_per_access", "ratio"),
    m("core.ns_per_access", "ns"),
    m("core.prefetches_per_access", "ratio"),
    m("core.table_accesses_per_access", "ratio"),
    m("core.tlp_accept_rate", "ratio"),
    m("core.arbitration_tlp_share", "ratio"),
    m("baselines.ns_per_access", "ns"),
    m("baselines.prefetches_per_access", "ratio"),
    m("dram.ns_per_request", "ns"),
    m("dram.requests_per_access", "ratio"),
    m("dram.queue_full_per_request", "ratio"),
    m("dram.mean_queue_len", "count"),
    m("dram.row_hit_rate", "ratio"),
    m("sim.batch_ns_per_access", "ns"),
    m("sim.unattributed_ns_per_access", "ns"),
    m("sim.filtered_per_access", "ratio"),
    m("sim.late_per_access", "ratio"),
    m("serve.bytes_per_device", "bytes"),
    m("serve.build_us_per_device", "us"),
    m("serve.snapshot_us", "us"),
    m("serve.restore_ns_per_replayed_access", "ns"),
    m("serve.worker_busy_share", "ratio"),
    m("serve.rounds", "count"),
    m("serve.max_slowdown", "ratio"),
    m("telemetry.events_slowdown", "ratio"),
];

/// The catalogue a run reports: per-layer when traced, else end-to-end.
pub fn catalogue(traced: bool) -> &'static [MetricSpec] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Output checks made during a run: how many were attempted, which
/// failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

/// Failure messages kept for the report document (the count is exact).
const KEPT_FAILURES: usize = 20;

impl Checks {
    /// Records one check; `what` describes a failure and is only
    /// evaluated when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds another set of checks to this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Share of attempted checks that passed (1 when none were made).
    pub fn passed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed()) as f64 / self.attempted as f64
        }
    }

    /// The first failure messages, for the report document.
    pub fn failures(&self) -> &[String] {
        &self.failures[..self.failures.len().min(KEPT_FAILURES)]
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A finite value as JSON with every digit Rust's shortest round-trip
/// form gives; a non-finite value as `null`, which the validator rejects.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The one-line result object: `correct`, `attempted`, `failed` and
/// `metrics`, the metrics in catalogue order.
pub fn result_line(checks: &Checks, catalogue: &[MetricSpec], metrics: &Metrics) -> String {
    let mut w = Writer::compact();
    w.begin_object();
    w.key("correct");
    w.bool(checks.failed() == 0);
    w.key("attempted");
    w.u64(checks.attempted().max(1));
    w.key("failed");
    w.u64(checks.failed());
    w.key("metrics");
    w.begin_object();
    for spec in catalogue {
        let Some(v) = metrics.get(spec.name) else { continue };
        w.key(spec.name);
        w.begin_object();
        w.key("value");
        w.raw(&number(*v));
        w.key("unit");
        w.string(spec.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Validates a result line against a catalogue.
///
/// Rejects malformed JSON, keys other than the four the line carries, a
/// missing, extra, non-finite or wrongly-unitted metric, a metric name
/// outside `[A-Za-z0-9_.-]`, and any failed check (`failed > 0`,
/// `correct` false, or `checks_passed_share` below 1).
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_result(line: &str, catalogue: &[MetricSpec]) -> Result<(), String> {
    let doc = json::parse(line)?;
    let members = doc.as_object().ok_or("result is not a JSON object")?;
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}, want correct/attempted/failed/metrics"));
    }
    let count = |key: &str| -> Result<u64, String> {
        match doc.get(key).and_then(Value::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(53) => Ok(n as u64),
            _ => Err(format!("{key:?} is not a whole number")),
        }
    };
    let attempted = count("attempted")?;
    let failed = count("failed")?;
    if attempted == 0 {
        return Err("no checks attempted".into());
    }
    if failed > 0 {
        return Err(format!("{failed} of {attempted} output checks failed"));
    }
    if !matches!(doc.get("correct"), Some(Value::Bool(true))) {
        return Err("\"correct\" is not true".into());
    }
    let metrics =
        doc.get("metrics").and_then(Value::as_object).ok_or("\"metrics\" is not an object")?;
    for (name, body) in metrics {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        let spec = catalogue
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("metric {name:?} is not in the catalogue"))?;
        let value = body
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name:?} has no numeric value"))?;
        if !value.is_finite() {
            return Err(format!("metric {name:?} is not finite"));
        }
        if body.get("unit").and_then(Value::as_str) != Some(spec.unit) {
            return Err(format!("metric {name:?} does not carry unit {:?}", spec.unit));
        }
        if name == "checks_passed_share" && value < 1.0 {
            return Err(format!("checks_passed_share is {value}"));
        }
    }
    for spec in catalogue {
        if !metrics.iter().any(|(name, _)| name == spec.name) {
            return Err(format!("metric {:?} is missing", spec.name));
        }
    }
    if metrics.len() != catalogue.len() {
        return Err("a metric appears more than once".into());
    }
    Ok(())
}

/// Where and how a run was made; every report document carries it.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Host CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Threads the host offers (`available_parallelism`).
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
    /// Commit of the measured tree, when it is a git checkout.
    pub commit: String,
    /// Workload seed of the run.
    pub seed: u64,
}

/// The caveat every document states: the model has no hardware reference
/// and statistics include the cold start.
pub const MODEL_NOTE: &str = "model unvalidated; caches start empty";

impl Envelope {
    /// Describes this host and build for a run with `seed`.
    pub fn current(seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            commit: git_commit(),
            seed,
        }
    }

    /// Writes the envelope as one object member named `envelope`.
    pub fn write(&self, w: &mut Writer) {
        w.key("envelope");
        w.begin_object();
        w.key("cpu_model");
        w.string(&self.cpu_model);
        w.key("nproc");
        w.u64(self.nproc as u64);
        w.key("rustc");
        w.string(self.rustc);
        w.key("profile");
        w.string(self.profile);
        w.key("commit");
        w.string(&self.commit);
        w.key("seed");
        w.u64(self.seed);
        w.key("note");
        w.string(MODEL_NOTE);
        w.end_object();
    }
}

/// The commit checked out in the repository around the benchmark, read
/// from its `.git` directory; `"unknown"` when the tree is not a git
/// checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let resolve = || -> Option<String> {
        let head = read("HEAD")?;
        let Some(name) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        if let Some(id) = read(name) {
            return Some(id.trim().to_string());
        }
        let packed = read("packed-refs")?;
        let line = packed.lines().find(|l| l.split_whitespace().nth(1) == Some(name))?;
        line.split_whitespace().next().map(str::to_string)
    };
    resolve().filter(|id| !id.is_empty()).unwrap_or_else(|| "unknown".into())
}

/// Median of `xs` (mean of the middle pair for an even count; NaN when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of weighted samples `(value, weight)`: the smallest
/// value whose cumulative weight reaches `q` of the total (NaN when the
/// total weight is zero).
pub fn weighted_quantile(samples: &mut [(f64, u64)], q: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    samples.last().map_or(f64::NAN, |s| s.0)
}

/// Total weight of the samples above `threshold`: how many samples a
/// percentile rests on.
pub fn weight_above(samples: &[(f64, u64)], threshold: f64) -> u64 {
    samples.iter().filter(|s| s.0 > threshold).map(|s| s.1).sum()
}

/// Process peak resident set (`VmHWM`) or current resident set
/// (`VmRSS`), in KiB.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_metrics(catalogue: &[MetricSpec]) -> Metrics {
        catalogue.iter().map(|s| (s.name, 1.5)).collect()
    }

    fn passing(n: u64) -> Checks {
        let mut c = Checks::default();
        for _ in 0..n {
            c.check(true, String::new);
        }
        c
    }

    #[test]
    fn result_line_round_trips_through_the_validator() {
        for traced in [false, true] {
            let cat = catalogue(traced);
            let line = result_line(&passing(3), cat, &full_metrics(cat));
            validate_result(&line, cat).unwrap();
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        let err = validate_result("{\"correct\": true,", &END_TO_END).unwrap_err();
        assert!(!err.is_empty());
        assert!(validate_result("[1, 2]", &END_TO_END).is_err());
    }

    #[test]
    fn validator_rejects_a_missing_metric() {
        let mut metrics = full_metrics(&END_TO_END);
        metrics.remove("power_mw");
        let line = result_line(&passing(1), &END_TO_END, &metrics);
        let err = validate_result(&line, &END_TO_END).unwrap_err();
        assert!(err.contains("power_mw"), "{err}");
    }

    #[test]
    fn validator_rejects_names_outside_the_alphabet() {
        let line = result_line(&passing(1), &END_TO_END, &full_metrics(&END_TO_END))
            .replace("\"power_mw\"", "\"power mw\"");
        let err = validate_result(&line, &END_TO_END).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        assert!(!valid_name("-lead"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("sim.batch_ns_per_access"));
    }

    #[test]
    fn validator_rejects_failed_checks() {
        let mut checks = passing(4);
        checks.check(false, || "fingerprint mismatch".into());
        let mut metrics = full_metrics(&END_TO_END);
        metrics.insert("checks_passed_share", checks.passed_share());
        let line = result_line(&checks, &END_TO_END, &metrics);
        assert!(line.contains("\"correct\":false"));
        let err = validate_result(&line, &END_TO_END).unwrap_err();
        assert!(err.contains("1 of 5"), "{err}");
        // A share below 1 is rejected even when the counts were edited.
        let forged = line
            .replace("\"correct\":false", "\"correct\":true")
            .replace("\"failed\":1", "\"failed\":0");
        let err = validate_result(&forged, &END_TO_END).unwrap_err();
        assert!(err.contains("checks_passed_share"), "{err}");
    }

    #[test]
    fn validator_rejects_non_finite_and_wrong_units() {
        let mut metrics = full_metrics(&END_TO_END);
        metrics.insert("amat_cycles", f64::NAN);
        let line = result_line(&passing(1), &END_TO_END, &metrics);
        assert!(validate_result(&line, &END_TO_END).is_err());
        let line = result_line(&passing(1), &END_TO_END, &full_metrics(&END_TO_END))
            .replace("\"unit\":\"mW\"", "\"unit\":\"W\"");
        assert!(validate_result(&line, &END_TO_END).is_err());
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn quantiles_weigh_samples() {
        let mut s = vec![(10.0, 1), (1.0, 98), (5.0, 1)];
        assert_eq!(weighted_quantile(&mut s, 0.5), 1.0);
        assert_eq!(weighted_quantile(&mut s, 0.99), 5.0);
        assert_eq!(weighted_quantile(&mut s, 1.0), 10.0);
        assert_eq!(weight_above(&s, 1.0), 2);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
