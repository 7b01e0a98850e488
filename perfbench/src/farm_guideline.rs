//! `farm_guideline`: an in-memory `Farm::run` of a seeded heterogeneous
//! fleet under the guideline policy with a moderate fault mix. One owner
//! per workstation, so no two workstations share a guideline cache and
//! the `t₀` search dominates; no journal, no observer, no analyzer.

use crate::fleet::{self, FarmInputs};
use crate::layers;
use crate::spans::Tracer;
use crate::timing::{self, repeat, timed, Setups};
use crate::{reconcile, zero_unset, Options, Report, Scale};
use cs_now::Farm;

/// Workstations in the fleet.
const WORKSTATIONS: usize = 24;

fn tasks(scale: Scale) -> usize {
    match scale {
        Scale::Full => 24_000,
        Scale::Quick => 2_000,
    }
}

struct Setup {
    inputs: FarmInputs,
    total_work: f64,
    reference: cs_now::FarmReport,
    digest: u64,
}

/// Input generation, fleet construction and the reference report.
fn setup(opts: &Options) -> Result<Setup, String> {
    let inputs = fleet::heterogeneous(opts.seed, WORKSTATIONS, tasks(opts.scale))?;
    let total_work = inputs.total_work();
    let reference = Farm::new(inputs.config.clone(), inputs.bag.clone())
        .map_err(|e| e.to_string())?
        .run();
    if !reference.drained {
        return Err("reference farm run did not drain the bag".into());
    }
    let digest = fleet::digest(&reference);
    Ok(Setup {
        inputs,
        total_work,
        reference,
        digest,
    })
}

/// One timed pass: the farm run alone, inputs cloned beforehand.
fn pass(s: &Setup) -> Result<(f64, bool), String> {
    let farm =
        Farm::new(s.inputs.config.clone(), s.inputs.bag.clone()).map_err(|e| e.to_string())?;
    let (secs, report) = timed(|| farm.run());
    Ok((secs, fleet::report_ok(&report, s.total_work, s.digest)))
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (mut setups, s) = Setups::new(|| setup(opts))?;
    pass(&s)?; // warm-up
    let mut report = Report::default();
    if !opts.trace {
        setups.window(opts.seconds);
        let passes = repeat(opts.seconds, 5, || {
            setups.poll()?;
            pass(&s)
        })?;
        report.count(&passes);
        report.notes.push(passes.describe("run"));
        let run_s = passes.fastest();
        report.set("setup_s", setups.fastest());
        report.notes.push(setups.describe());
        report.set("run_s", run_s);
        report.set("items_per_s", s.inputs.tasks() as f64 / run_s);
        // No journal: recovering from a crash means running again.
        report.set("recover_s", run_s);
        report.set("peak_rss_mb", timing::peak_rss_mb()?);
        report.set("success_rate", passes.success_rate());
        report.set("banked_per_vtime", fleet::banked_per_vtime(&s.reference));
        report.set("useful_work_frac", fleet::useful_work_frac(&s.reference));
        return Ok(report);
    }
    traced(opts, &s, report)
}

fn traced(opts: &Options, s: &Setup, mut report: Report) -> Result<Report, String> {
    let untraced = repeat(0.3 * opts.seconds, 3, || pass(s))?;
    report.count(&untraced);
    let prep = layers::prepare(&s.inputs)?;
    report.attempted += 1;
    if prep.digest != s.digest {
        report.failed += 1;
    }
    let mut tr = Tracer::new();
    let mut samples = layers::FarmSamples::default();
    let traced = repeat(0.7 * opts.seconds, 3, || {
        tr.pass("pass", |tr| {
            let farm = Farm::new(s.inputs.config.clone(), s.inputs.bag.clone())
                .map_err(|e| e.to_string())?;
            let (secs, out) = tr.span("farm.run", |_| timed(|| farm.run()));
            samples.sample(tr, &s.inputs, &prep)?;
            Ok((secs, fleet::report_ok(&out, s.total_work, s.digest)))
        })
    })?;
    report.count(&traced);
    let spans_path = opts
        .work_dir
        .join(format!("spans-farm_guideline-{}.jsonl", opts.seed));
    tr.write_jsonl(&spans_path)?;
    report
        .notes
        .push(format!("spans: {}", spans_path.display()));

    let run_s = traced.median();
    samples.fill(&mut report, &prep, run_s);
    report.set(
        "trace.overhead_frac",
        traced.fastest() / untraced.fastest() - 1.0,
    );
    reconcile(
        &mut report,
        "policy",
        &[
            ("policy", samples.policy_s() / run_s),
            ("engine", samples.engine_s() / run_s),
        ],
    );
    zero_unset(&mut report);
    Ok(report)
}
