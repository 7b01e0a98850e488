//! The repository benchmark.
//!
//! Workloads, each chosen so one layer of the workspace dominates it and
//! another layer is absent from it (see `BENCHMARK.json` and `README.md`
//! for the per-workload rationale):
//!
//! * `farm_guideline` — an in-memory heterogeneous farm; the guideline
//!   `t₀` search dominates, no journal, no analyzer.
//! * `farm_durable` — a homogeneous journaled farm with a snapshot ring
//!   and GC, crashed at a seeded late record and resumed; snapshot
//!   encode/write dominates, policy lookups are cache hits.
//! * `trace_analyze` — decode + `obs report` + `obs path` over a seeded
//!   faulty-farm trace; engine, policy and journal are not run.
//! * `mc_validate` — pooled Monte-Carlo of a guideline schedule checked
//!   against the analytic `E(S;p)`; the only workload on `cs-pool`.
//!
//! An untraced run (`--trace 0`) repeats timed passes and reports each
//! timing by its fastest pass; a traced run (`--trace 1`)
//! records spans around the benchmark's calls into each layer and
//! reports the per-layer metrics, the tracing overhead and the
//! reconciliation of layer times against the traced wall time.

#![forbid(unsafe_code)]

mod farm_durable;
mod farm_guideline;
mod fleet;
mod iovfs;
mod layers;
mod mc_validate;
mod spans;
mod timing;
mod trace_analyze;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics every untraced run reports, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("items_per_s", "1/s"),
    m("recover_s", "s"),
    m("peak_rss_mb", "MB"),
    m("success_rate", "ratio"),
    m("banked_per_vtime", "ratio"),
    m("useful_work_frac", "ratio"),
];

/// The per-layer metrics every traced run reports, on every workload. A
/// layer a workload bypasses reports zero work (and zero time per unit).
pub const PER_LAYER: &[MetricDef] = &[
    m("search.calls", "count"),
    m("search.ns_per_call", "ns"),
    m("search.life_evals_per_call", "count"),
    m("policy.lookups", "count"),
    m("policy.hit_rate", "ratio"),
    m("policy.ns_per_hit", "ns"),
    m("policy.ns_per_miss", "ns"),
    m("policy.share", "ratio"),
    m("engine.events", "count"),
    m("engine.ns_per_event", "ns"),
    m("engine.requeues", "count"),
    m("engine.replicas", "count"),
    m("engine.share", "ratio"),
    m("encode.ns_per_event", "ns"),
    m("encode.bytes_per_event", "B"),
    m("journal.records", "count"),
    m("journal.bytes", "B"),
    m("journal.fsyncs", "count"),
    m("journal.ns_per_record", "ns"),
    m("journal.share", "ratio"),
    m("snapshot.count", "count"),
    m("snapshot.bytes", "B"),
    m("snapshot.ns_per_snapshot", "ns"),
    m("snapshot.share", "ratio"),
    m("gc.truncated_bytes", "B"),
    m("recovery.records_skipped", "count"),
    m("recovery.records_replayed", "count"),
    m("recovery.restore_ns", "ns"),
    m("recovery.fallbacks", "count"),
    m("decode.ns_per_line", "ns"),
    m("check.ns_per_line", "ns"),
    m("report.ns_per_line", "ns"),
    m("lineage.ns_per_line", "ns"),
    m("analyze.decodes_per_line", "count"),
    m("analyze.lines", "count"),
    m("mc.trials", "count"),
    m("mc.ns_per_trial", "ns"),
    m("mc.serial_share", "ratio"),
    m("mc.kernel_share", "ratio"),
    m("pool.tasks", "count"),
    m("pool.steals", "count"),
    m("pool.parks", "count"),
    m("trace.overhead_frac", "ratio"),
    m("trace.unattributed_frac", "ratio"),
    m("trace.dominant_share", "ratio"),
    m("trace.prediction_confirmed", "bool"),
    m("trace.reconciled", "bool"),
];

/// The per-layer counts that must repeat exactly at a fixed seed.
pub const DETERMINISTIC_COUNTS: &[&str] = &[
    "search.calls",
    "engine.events",
    "journal.records",
    "snapshot.count",
    "analyze.lines",
    "mc.trials",
];

/// How far the layer self times plus the unattributed share may miss the
/// traced wall time before the reconciliation is reported as failed:
/// `|trace.unattributed_frac| ≤ RECONCILE_TOLERANCE`.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: &[&str] = &[
    "farm_guideline",
    "farm_durable",
    "trace_analyze",
    "mc_validate",
];

/// Input size. `Full` is what the benchmark measures; `Quick` shrinks
/// every workload for the self-tests (same code paths, same metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Small inputs for the self-tests.
    Quick,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for the benchmark's scratch files (journals, span dumps).
    pub work_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Passes whose output check ran.
    pub attempted: u64,
    /// Passes whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (I/O location,
    /// reconciliation verdicts, span file).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds the pass tallies of `t`.
    pub(crate) fn count(&mut self, t: &timing::Passes) {
        self.attempted += t.attempted();
        self.failed += t.failed;
    }

    /// The metric table this report must fill.
    fn defs(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Renders the one-line result object. Fails when a metric of the
    /// table is missing or not finite, or when the report holds a metric
    /// the table does not list.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let defs = Self::defs(trace);
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !defs.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric {extra} is not in the metric table"));
        }
        let mut body = Vec::with_capacity(defs.len());
        for d in defs {
            let v = *self
                .metrics
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            body.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

/// Runs one workload and returns its report. [`Report::to_json`] checks
/// that it holds every metric of its table.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    match opts.workload.as_str() {
        "farm_guideline" => farm_guideline::run(opts),
        "farm_durable" => farm_durable::run(opts),
        "trace_analyze" => trace_analyze::run(opts),
        "mc_validate" => mc_validate::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Every per-layer metric a workload does not exercise, set to zero: the
/// layer is bypassed, so it did no work.
pub(crate) fn zero_unset(report: &mut Report) {
    for d in PER_LAYER {
        report.metrics.entry(d.name).or_insert(0.0);
    }
}

/// Fills the reconciliation rows of a traced run. `shares` are the
/// measured layer times as fractions of the wall time; whatever they
/// leave is `trace.unattributed_frac`. The predicted layer is confirmed
/// when its share is larger than every other layer's and than the
/// unattributed remainder, so a workload with one measured layer can
/// still refute its prediction.
pub(crate) fn reconcile(
    report: &mut Report,
    predicted: &'static str,
    shares: &[(&'static str, f64)],
) {
    let unattributed = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    let dominant = shares
        .iter()
        .copied()
        .chain([("unattributed", unattributed)])
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one layer share");
    let predicted_share = shares
        .iter()
        .find(|(n, _)| *n == predicted)
        .map_or(0.0, |(_, s)| *s);
    let confirmed = dominant.0 == predicted;
    let reconciled = unattributed.abs() <= RECONCILE_TOLERANCE;
    report.set("trace.unattributed_frac", unattributed);
    report.set("trace.dominant_share", predicted_share);
    report.set("trace.prediction_confirmed", f64::from(u8::from(confirmed)));
    report.set("trace.reconciled", f64::from(u8::from(reconciled)));
    let rows: Vec<String> = shares.iter().map(|(n, s)| format!("{n}={s:.3}")).collect();
    report.notes.push(format!(
        "layer shares of wall time: {} unattributed={unattributed:.3} \
         (tolerance ±{RECONCILE_TOLERANCE}): {}",
        rows.join(" "),
        if reconciled {
            "reconciled"
        } else {
            "NOT reconciled"
        }
    ));
    report.notes.push(format!(
        "predicted dominant layer {predicted}: {} (largest: {} at {:.3})",
        if confirmed { "confirmed" } else { "refuted" },
        dominant.0,
        dominant.1
    ));
}
