//! `trace_analyze`: the `obs report` + `obs path` pipeline over one seeded
//! faulty-farm trace generated in memory during set-up — decode
//! (`validate_line`), `check_lines`, `analyze_lines` and
//! `analyze_lineage_lines`. Engine, policy and journal are not run.

use crate::fleet;
use crate::spans::Tracer;
use crate::timing::{self, median, repeat, timed, Setups};
use crate::{reconcile, zero_unset, Options, Report, Scale};
use cs_now::Farm;
use cs_obs::{
    analyze_lineage_lines, analyze_lines, check_lines, validate_line, Event, LineageAnalysis,
    MemorySink, SpanProfiler, ALL_KINDS,
};

fn tasks(scale: Scale) -> usize {
    match scale {
        Scale::Full => 70_000,
        Scale::Quick => 1_500,
    }
}

/// Monte-Carlo trials appended to the trace (the source of the
/// `period_*` and `mc_progress` kinds).
const MC_TRIALS: u64 = 200;

/// Seeds of the small tail runs appended to every trace, and their bag
/// size. The seeds are fixed, so set-up does the same work for every
/// `--seed`; each of these runs alone holds a permanent crash and a tail
/// replica, the kinds the large run can lack.
const TAIL_SEEDS: [u64; 3] = [3, 4, 5];
const TAIL_TASKS: usize = 1_000;

/// Stages of the pipeline that take raw lines and so decode each one:
/// decode, check, report, lineage.
const DECODING_STAGES: f64 = 4.0;

struct Setup {
    lines: Vec<String>,
    /// Nanoseconds to render the events to JSONL, and the bytes rendered.
    encode: (f64, u64),
}

/// Every kind the trace must hold.
fn missing_kind(events: &[Event]) -> Option<&'static str> {
    ALL_KINDS
        .iter()
        .chain(&["span_start", "span_end"])
        .copied()
        .find(|kind| !events.iter().any(|e| e.kind.name() == *kind))
}

/// Generates the trace: a profiled faulty farm with reclaim storms and
/// two straggling workstations, then a short traced Monte-Carlo run (the
/// period and progress kinds), then small end-game-heavy farm runs at the
/// fixed [`TAIL_SEEDS`] — permanent crashes are left out of the large run
/// and tail replicas are rare in it. The trace must hold every event
/// kind. The lineage rows describe the first run, the one that holds
/// nearly all of the lines.
fn setup(opts: &Options) -> Result<Setup, String> {
    let mut sink = MemorySink::new();
    let mut inputs = fleet::homogeneous(opts.seed, 8, tasks(opts.scale), true)?;
    // Two workstations slower than their leases cover, so their chunks
    // straggle, time out and get them quarantined.
    for w in &mut inputs.config.workstations[..2] {
        w.faults.slowdown = 5.0;
    }
    Farm::new(inputs.config.clone(), inputs.bag.clone())
        .map_err(|e| e.to_string())?
        .run_profiled(&mut sink, &mut SpanProfiler::new());
    let w = &inputs.config.workstations[0];
    let schedule = cs_core::search::best_guideline_schedule(&w.life, w.c)
        .map_err(|e| e.to_string())?
        .schedule;
    cs_sim::simulate_expected_work_observed(
        &schedule, &w.life, w.c, MC_TRIALS, opts.seed, &mut sink,
    );
    for seed in TAIL_SEEDS {
        let mut tail = fleet::homogeneous(seed, 8, TAIL_TASKS, false)?;
        for w in &mut tail.config.workstations[..4] {
            // Stragglers, and the permanent crashes the large run leaves out.
            w.faults.slowdown = 5.0;
            w.faults.crash_rate = 2e-3;
        }
        Farm::new(tail.config, tail.bag)
            .map_err(|e| e.to_string())?
            .run_observed(&mut sink);
    }
    if let Some(kind) = missing_kind(&sink.events) {
        return Err(format!("generated trace has no {kind} event"));
    }
    let (secs, lines) = timed(|| sink.events.iter().map(Event::to_jsonl).collect::<Vec<_>>());
    let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
    Ok(Setup {
        lines,
        encode: (secs, bytes),
    })
}

/// Outputs of one pipeline pass.
struct Pass {
    /// The output check passed.
    ok: bool,
    /// The lineage analysis, when it succeeded.
    lineage: Option<LineageAnalysis>,
}

/// The pipeline, each stage in its own span. Output check: every line
/// decodes, `check_lines` passes, the report counts every line, and the
/// lineage loss reconciles with `run_end`.
fn pipeline(lines: &[String], tr: &mut Tracer) -> Pass {
    let it = || lines.iter().map(String::as_str);
    let n = lines.len();
    let decoded = tr.span("decode", |_| {
        it().filter(|l| validate_line(l).is_ok()).count()
    });
    let check = tr.span("check", |_| check_lines(it()));
    let report = tr.span("report", |_| analyze_lines(it()));
    let lineage = tr.span("lineage", |_| analyze_lineage_lines(it())).ok();
    let ok = decoded == n
        && check.ok()
        && check.lines == n
        && report.is_ok_and(|r| r.lines == n)
        && lineage
            .as_ref()
            .is_some_and(LineageAnalysis::loss_reconciles);
    Pass { ok, lineage }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (mut setups, s) = Setups::new(|| setup(opts))?;
    let n = s.lines.len() as f64;
    // Warm-up, and the lineage that the quality rows read.
    let lineage = pipeline(&s.lines, &mut Tracer::disabled())
        .lineage
        .ok_or("lineage analysis failed")?;
    let mut report = Report::default();
    report.notes.push(format!("trace: {} lines", s.lines.len()));
    let untraced = || {
        let (secs, p) = timed(|| pipeline(&s.lines, &mut Tracer::disabled()));
        Ok((secs, p.ok))
    };
    if !opts.trace {
        setups.window(opts.seconds);
        let passes = repeat(opts.seconds, 5, || {
            setups.poll()?;
            untraced()
        })?;
        report.count(&passes);
        report.notes.push(passes.describe("run"));
        let run_s = passes.fastest();
        report.set("setup_s", setups.fastest());
        report.notes.push(setups.describe());
        report.set("run_s", run_s);
        report.set("items_per_s", n / run_s);
        // Nothing durable: recovering the analysis means running it again.
        report.set("recover_s", run_s);
        report.set("peak_rss_mb", timing::peak_rss_mb()?);
        report.set("success_rate", passes.success_rate());
        report.set("banked_per_vtime", lineage.banked / lineage.phases.makespan);
        report.set(
            "useful_work_frac",
            lineage.banked / (lineage.banked + lineage.lost_work),
        );
        return Ok(report);
    }

    let baseline = repeat(0.4 * opts.seconds, 3, untraced)?;
    report.count(&baseline);
    let mut tr = Tracer::new();
    let traced = repeat(0.6 * opts.seconds, 3, || {
        let (secs, p) = timed(|| tr.pass("pass", |tr| pipeline(&s.lines, tr)));
        Ok((secs, p.ok))
    })?;
    report.count(&traced);
    let spans_path = opts
        .work_dir
        .join(format!("spans-trace_analyze-{}.jsonl", opts.seed));
    tr.write_jsonl(&spans_path)?;
    report
        .notes
        .push(format!("spans: {}", spans_path.display()));

    let analyze_s = fill_analyzer_rows(&mut report, &tr, s.lines.len());
    report.set("encode.ns_per_event", s.encode.0 * 1e9 / n);
    report.set("encode.bytes_per_event", s.encode.1 as f64 / n);
    report.set(
        "trace.overhead_frac",
        traced.fastest() / baseline.fastest() - 1.0,
    );
    // The stage spans are measured in the traced passes and their share
    // is taken of the untraced pass time, so what they leave over, either
    // way, is wall time the stage spans do not account for.
    reconcile(
        &mut report,
        "analyze",
        &[("analyze", analyze_s / baseline.median())],
    );
    zero_unset(&mut report);
    Ok(report)
}

/// Fills the decode, check, report and lineage rows from the median
/// durations of the [`pipeline`] spans over `lines` lines, and returns the
/// median seconds of the four stages together.
fn fill_analyzer_rows(report: &mut Report, tr: &Tracer, lines: usize) -> f64 {
    let stages = ["decode", "check", "report", "lineage"].map(|name| median(&tr.durations(name)));
    let n = lines as f64;
    let per_line = |secs: f64| secs * 1e9 / n;
    report.set("decode.ns_per_line", per_line(stages[0]));
    report.set("check.ns_per_line", per_line(stages[1]));
    report.set("report.ns_per_line", per_line(stages[2]));
    report.set("lineage.ns_per_line", per_line(stages[3]));
    report.set("analyze.decodes_per_line", DECODING_STAGES);
    report.set("analyze.lines", n);
    stages.iter().sum()
}
