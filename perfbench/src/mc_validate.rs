//! `mc_validate`: `simulate_expected_work_parallel` of the guideline
//! schedule on a polynomial life, on at most `nproc` (and at most two)
//! pool threads, checked against the analytic `E(S;p)` within four
//! standard errors. The only workload on `cs-pool` and the `cs-sim`
//! episode kernel.

use crate::spans::Tracer;
use crate::timing::{self, median, repeat, timed, Setups};
use crate::{reconcile, zero_unset, Options, Report, Scale};
use cs_core::Schedule;
use cs_life::{LifeFunction, Polynomial};
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::{
    simulate_expected_work, simulate_expected_work_parallel,
    simulate_expected_work_parallel_metrics, MonteCarlo,
};

/// Life function: `p(t) = 1 − (t/L)^3`, `L = 1000`.
const DEGREE: u32 = 3;
const LIFESPAN: f64 = 1000.0;
/// Overhead `c`; small, so episodes run many periods and trials are heavy.
const OVERHEAD: f64 = 0.5;

fn trials(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 4_000_000,
        Scale::Quick => 20_000,
    }
}

struct Setup {
    life: Polynomial,
    schedule: Schedule,
    /// Analytic `E(S;p)`.
    expected: f64,
    /// Expected work of the period the owner interrupts.
    expected_lost: f64,
    /// Mean episode length `E[R] = ∫ p`.
    mean_episode: f64,
    trials: u64,
    mc_seed: u64,
    threads: usize,
    /// Bits of the serial estimate's mean: the pooled run must match it.
    reference: u64,
}

/// The guideline schedule, its analytic figures, and the serial
/// reference estimate.
fn setup(opts: &Options) -> Result<Setup, String> {
    let life = Polynomial::new(DEGREE, LIFESPAN).map_err(|e| e.to_string())?;
    let plan =
        cs_core::search::best_guideline_schedule(&life, OVERHEAD).map_err(|e| e.to_string())?;
    let schedule = plan.schedule;
    let expected = schedule.expected_work(&life, OVERHEAD);
    // A period that starts at T_{k-1} and is cut before T_k loses its
    // productive work: Σ (t_k ⊖ c)(p(T_{k-1}) − p(T_k)).
    let mut t_end = 0.0;
    let mut expected_lost = 0.0;
    for &t in schedule.periods() {
        let before = life.survival(t_end);
        t_end += t;
        expected_lost += (t - OVERHEAD).max(0.0) * (before - life.survival(t_end));
    }
    let steps = 100_000;
    let h = LIFESPAN / steps as f64;
    let mean_episode = h
        * (0..steps)
            .map(|i| 0.5 * (life.survival(i as f64 * h) + life.survival((i + 1) as f64 * h)))
            .sum::<f64>();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let trials = trials(opts.scale);
    let reference = simulate_expected_work(&schedule, &life, OVERHEAD, trials, opts.seed)
        .work
        .mean();
    Ok(Setup {
        life,
        schedule,
        expected,
        expected_lost,
        mean_episode,
        trials,
        mc_seed: opts.seed,
        threads,
        reference: reference.to_bits(),
    })
}

/// How many standard errors the estimate may sit from the analytic `E`.
/// At three, one seed in 370 fails by chance alone (seed 13 does, at
/// 3.1 s.e.); four, the tolerance of `cs-sim`'s own validation tests,
/// leaves one in 16,000.
const TOLERANCE_SE: f64 = 4.0;

/// Output check: within [`TOLERANCE_SE`] standard errors of the analytic
/// `E`, and bitwise the serial reference (the pooled result must not
/// depend on scheduling).
fn check(s: &Setup, mc: &MonteCarlo) -> bool {
    let mean = mc.work.mean();
    (mean - s.expected).abs() <= TOLERANCE_SE * mc.work.std_error()
        && mc.work.count() == s.trials
        && mean.to_bits() == s.reference
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (mut setups, s) = Setups::new(|| setup(opts))?;
    let pass = || {
        let (secs, mc) = timed(|| {
            simulate_expected_work_parallel(
                &s.schedule,
                &s.life,
                OVERHEAD,
                s.trials,
                s.mc_seed,
                s.threads,
            )
        });
        Ok((secs, check(&s, &mc), mc))
    };
    let (_, _, warm) = pass()?; // warm-up
    let mut report = Report::default();
    report.notes.push(format!(
        "{} pool threads (available parallelism {}), E(S;p) = {:.6}, estimate {:.6} ± {:.6}",
        s.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        s.expected,
        warm.work.mean(),
        warm.work.std_error()
    ));
    if !opts.trace {
        setups.window(opts.seconds);
        let passes = repeat(opts.seconds, 5, || {
            setups.poll()?;
            pass().map(|(t, ok, _)| (t, ok))
        })?;
        report.count(&passes);
        report.notes.push(passes.describe("run"));
        let run_s = passes.fastest();
        report.set("setup_s", setups.fastest());
        report.notes.push(setups.describe());
        report.set("run_s", run_s);
        report.set("items_per_s", s.trials as f64 / run_s);
        // Nothing durable: recovering the estimate means running again.
        report.set("recover_s", run_s);
        report.set("peak_rss_mb", timing::peak_rss_mb()?);
        report.set("success_rate", passes.success_rate());
        report.set("banked_per_vtime", warm.work.mean() / s.mean_episode);
        report.set(
            "useful_work_frac",
            s.expected / (s.expected + s.expected_lost),
        );
        return Ok(report);
    }

    let untraced = repeat(0.3 * opts.seconds, 3, || pass().map(|(t, ok, _)| (t, ok)))?;
    report.count(&untraced);
    let serial_trials = s.trials / 4;
    let mut tr = Tracer::new();
    let (mut draw_merge, mut pool_wait, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool_metrics = None;
    let traced = repeat(0.7 * opts.seconds, 3, || {
        tr.pass("pass", |tr| {
            let mut prof = SpanProfiler::new();
            let (secs, (mc, pm)) = tr.span("mc.parallel", |_| {
                timed(|| {
                    simulate_expected_work_parallel_metrics(
                        &s.schedule,
                        &s.life,
                        OVERHEAD,
                        s.trials,
                        s.mc_seed,
                        s.threads,
                        NoopSink,
                        &mut prof,
                    )
                })
            });
            let span_s = |name: &str| {
                prof.registry()
                    .histogram(&format!("span_ns.{name}"))
                    .map_or(0.0, |h| h.sum() * 1e-9)
            };
            draw_merge.push((span_s("mc.draw") + span_s("mc.merge")) / secs);
            pool_wait.push(span_s("mc.pool") / secs);
            pool_metrics = pm.or(pool_metrics.take());
            let (t, _) = tr.span("mc.serial", |_| {
                timed(|| {
                    simulate_expected_work(&s.schedule, &s.life, OVERHEAD, serial_trials, s.mc_seed)
                })
            });
            serial.push(t);
            Ok((secs, check(&s, &mc)))
        })
    })?;
    report.count(&traced);
    let spans_path = opts
        .work_dir
        .join(format!("spans-mc_validate-{}.jsonl", opts.seed));
    tr.write_jsonl(&spans_path)?;
    report
        .notes
        .push(format!("spans: {}", spans_path.display()));

    let (serial_share, kernel_share) = (median(&draw_merge), median(&pool_wait));
    report.set("mc.trials", s.trials as f64);
    report.set(
        "mc.ns_per_trial",
        median(&serial) * 1e9 / serial_trials as f64,
    );
    report.set("mc.serial_share", serial_share);
    report.set("mc.kernel_share", kernel_share);
    if let Some(pm) = pool_metrics {
        report.set("pool.tasks", pm.tasks as f64);
        report.set("pool.steals", pm.steals as f64);
        report.set("pool.parks", pm.parks as f64);
    }
    report.set(
        "trace.overhead_frac",
        traced.fastest() / untraced.fastest() - 1.0,
    );
    reconcile(
        &mut report,
        "kernel+pool",
        &[("kernel+pool", kernel_share), ("serial", serial_share)],
    );
    zero_unset(&mut report);
    Ok(report)
}
