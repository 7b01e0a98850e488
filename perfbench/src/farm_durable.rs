//! `farm_durable`: a homogeneous fleet (one shared guideline cache, so
//! policy lookups are nearly all hits) run journaled with the §4.2
//! guideline cadence, a 3-generation snapshot ring and journal GC; then
//! crashed at a seeded late journal write through the `FaultyVfs`
//! fail-stop plan and resumed with `Farm::resume_vfs` (the function behind
//! `Farm::resume_with`).
//!
//! Every pass writes its journal and snapshots to a scratch directory
//! under the working directory through [`NoSyncVfs`]: the repository's
//! own `StdVfs` I/O with fsync left out, as on tmpfs, because fsync
//! latency on the disk there made pass times swing by a third from run to
//! run. The crash is made once in set-up; its files are kept in memory
//! and written back to the scratch directory, untimed, before every
//! resume.

use crate::fleet::{self, FarmInputs};
use crate::iovfs::{CountingVfs, FileClass, NoSyncVfs};
use crate::layers;
use crate::spans::Tracer;
use crate::timing::{self, median, repeat, timed, unit, Passes, Setups};
use crate::{reconcile, zero_unset, Options, Report, Scale};
use cs_now::{Farm, FarmReport, JournalError, JournalOptions, SnapshotOutcome};
use cs_obs::{injected_kind, FaultAt, FaultKind, FaultyVfs, FsyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Workstations in the fleet.
const WORKSTATIONS: usize = 8;

fn tasks(scale: Scale) -> usize {
    match scale {
        Scale::Full => 6_000,
        Scale::Quick => 1_500,
    }
}

/// The durability settings under test: guideline fsync and snapshot
/// cadence, a 3-generation ring, prefix GC, fail-stop on I/O errors.
fn journal_options(inputs: &FarmInputs) -> JournalOptions {
    JournalOptions {
        snapshot_ring: 3,
        gc: true,
        ..JournalOptions::guideline(&inputs.config)
    }
}

/// Files of a crashed run, restored before every resume.
type Staged = Vec<(PathBuf, Vec<u8>)>;

struct Setup {
    inputs: FarmInputs,
    total_work: f64,
    reference: FarmReport,
    digest: u64,
    /// Journal bytes an uninterrupted journaled run ends with.
    journal: Vec<u8>,
    /// The crashed run's files.
    crashed: Staged,
    /// Global write index the fail-stop plan failed.
    crash_write: u64,
    dir: PathBuf,
    path: PathBuf,
}

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Empties the scratch directory.
fn clear(dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(io)? {
        std::fs::remove_file(entry.map_err(io)?.path()).map_err(io)?;
    }
    Ok(())
}

fn stage(dir: &Path, files: &Staged) -> Result<(), String> {
    clear(dir)?;
    for (path, bytes) in files {
        std::fs::write(path, bytes).map_err(io)?;
    }
    Ok(())
}

fn snapshot_dir(dir: &Path) -> Result<Staged, String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let path = entry.map_err(io)?.path();
        let bytes = std::fs::read(&path).map_err(io)?;
        out.push((path, bytes));
    }
    out.sort();
    Ok(out)
}

/// Inputs, the in-memory reference report, an uninterrupted journaled
/// reference, and the crashed journal (made on disk: `FaultyVfs` wraps the
/// real filesystem).
fn setup(opts: &Options, dir: &Path) -> Result<Setup, String> {
    let inputs = fleet::homogeneous(opts.seed, WORKSTATIONS, tasks(opts.scale), false)?;
    let total_work = inputs.total_work();
    let reference = Farm::new(inputs.config.clone(), inputs.bag.clone())
        .map_err(io)?
        .run();
    let digest = fleet::digest(&reference);
    let path = dir.join("farm.jsonl");
    let jopts = journal_options(&inputs);

    clear(dir)?;
    let vfs = CountingVfs::new(NoSyncVfs);
    let (journaled, _) = Farm::new(inputs.config.clone(), inputs.bag.clone())
        .map_err(io)?
        .run_journaled_vfs(&path, jopts, &vfs)
        .map_err(io)?;
    if fleet::digest(&journaled) != digest {
        return Err("journaled reference run differs from the in-memory run".into());
    }
    let journal = std::fs::read(&path).map_err(io)?;

    // Crash at a seeded journal write 79–81% of the way through the run:
    // late, and in a window narrow enough that the tail left to recover
    // is about the same length for every seed.
    let journal_writes: Vec<u64> = vfs
        .tally()
        .writes
        .iter()
        .enumerate()
        .filter(|(_, c)| **c == FileClass::Journal)
        .map(|(i, _)| i as u64)
        .collect();
    let mut rng = opts.seed ^ 0x6372_6173_6821;
    let at = ((0.79 + 0.02 * unit(&mut rng)) * journal_writes.len() as f64) as usize;
    let crash_write = *journal_writes
        .get(at)
        .ok_or("journaled reference run made no journal writes")?;
    clear(dir)?;
    let faulty = FaultyVfs::with_plan(&[FaultAt {
        kind: FaultKind::FailedWrite,
        index: crash_write,
    }]);
    // Journal fsyncs on the real disk would only add its latency to
    // set-up: each record is one write whatever the fsync cadence, so the
    // crashed files are the same (every resume pass compares the stitched
    // journal with the uninterrupted one byte for byte).
    let crash_opts = JournalOptions {
        fsync: FsyncPolicy::Interval(f64::INFINITY),
        ..jopts
    };
    match Farm::new(inputs.config.clone(), inputs.bag.clone())
        .map_err(io)?
        .run_journaled_vfs(&path, crash_opts, &faulty)
    {
        Err(JournalError::Io(e)) if injected_kind(&e) == Some(FaultKind::FailedWrite) => {}
        Err(e) => return Err(format!("crash run failed with the wrong error: {e}")),
        Ok(_) => return Err("crash run finished despite the planned write failure".into()),
    }
    let crashed = snapshot_dir(dir)?;
    Ok(Setup {
        inputs,
        total_work,
        reference,
        digest,
        journal,
        crashed,
        crash_write,
        dir: dir.to_path_buf(),
        path,
    })
}

/// One journaled run in the emptied scratch directory; checks the
/// report, the durability counters and the journal bytes.
fn run_pass(s: &Setup) -> Result<(f64, bool), String> {
    clear(&s.dir)?;
    let farm = Farm::new(s.inputs.config.clone(), s.inputs.bag.clone()).map_err(io)?;
    let jopts = journal_options(&s.inputs);
    let (secs, out) = timed(|| farm.run_journaled_vfs(&s.path, jopts, &NoSyncVfs));
    let ok = match out {
        Ok((report, stats)) => {
            fleet::report_ok(&report, s.total_work, s.digest)
                && stats.snapshots_written > 0
                && stats.gc_truncated_records > 0
                && !stats.degraded
                && std::fs::read(&s.path).map_err(io)? == s.journal
        }
        Err(_) => false,
    };
    Ok((secs, ok))
}

/// One recovery: write the crashed files back, then time `resume_vfs` to a
/// finished report. The report must equal the uninterrupted one bit for
/// bit, a snapshot generation must have restored, and the stitched
/// journal must end byte-identical to the uninterrupted journal.
fn recover_pass(s: &Setup) -> Result<(f64, bool, Option<cs_now::RecoveryInfo>), String> {
    stage(&s.dir, &s.crashed)?;
    let (config, bag) = (s.inputs.config.clone(), s.inputs.bag.clone());
    let jopts = journal_options(&s.inputs);
    let (secs, out) = timed(|| Farm::resume_vfs(config, bag, &s.path, jopts, &NoSyncVfs));
    Ok(match out {
        Ok((report, info)) => {
            let ok = fleet::report_ok(&report, s.total_work, s.digest)
                && matches!(info.snapshot, SnapshotOutcome::Used { .. })
                && !info.degraded
                && std::fs::read(&s.path).map_err(io)? == s.journal;
            (secs, ok, Some(info))
        }
        Err(_) => (secs, false, None),
    })
}

/// Removes the scratch directory when the run ends, however it ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    // One directory per run, so runs in one process do not share files.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = ScratchDir(
        opts.work_dir
            .join(format!("io-{}-{run}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).map_err(io)?;
    let (mut setups, s) = Setups::new(|| setup(opts, &dir.0))?;
    let mut report = Report::default();
    report.notes.push(format!(
        "journal and snapshots in {} without fsync; crash at write {}",
        dir.0.display(),
        s.crash_write
    ));
    run_pass(&s)?; // warm-up
    recover_pass(&s)?;
    if opts.trace {
        return traced(opts, &s, report);
    }
    // Run and recovery passes alternate over the whole window, so both
    // sample the same stretch of machine load.
    let (mut runs, mut recoveries) = (Passes::default(), Passes::default());
    setups.window(opts.seconds);
    let start = Instant::now();
    while runs.attempted() < 5 || start.elapsed().as_secs_f64() < opts.seconds {
        setups.poll()?;
        let (secs, ok) = run_pass(&s)?;
        runs.push(secs, ok);
        let (secs, ok, _) = recover_pass(&s)?;
        recoveries.push(secs, ok);
    }
    report.count(&runs);
    report.count(&recoveries);
    report.notes.push(runs.describe("run"));
    report.notes.push(recoveries.describe("recover"));
    let run_s = runs.fastest();
    let attempted = (runs.attempted() + recoveries.attempted()) as f64;
    report.set("setup_s", setups.fastest());
    report.notes.push(setups.describe());
    report.set("run_s", run_s);
    report.set("items_per_s", s.inputs.tasks() as f64 / run_s);
    report.set("recover_s", recoveries.fastest());
    report.set("peak_rss_mb", timing::peak_rss_mb()?);
    report.set(
        "success_rate",
        (attempted - (runs.failed + recoveries.failed) as f64) / attempted,
    );
    report.set("banked_per_vtime", fleet::banked_per_vtime(&s.reference));
    report.set("useful_work_frac", fleet::useful_work_frac(&s.reference));
    Ok(report)
}

fn traced(opts: &Options, s: &Setup, mut report: Report) -> Result<Report, String> {
    let untraced = repeat(0.2 * opts.seconds, 3, || run_pass(s))?;
    report.count(&untraced);
    let prep = layers::prepare(&s.inputs)?;
    report.attempted += 1;
    if prep.digest != s.digest {
        report.failed += 1;
    }
    let (encode_s, encode_bytes) = layers::encode(&prep.events);
    let jopts = journal_options(&s.inputs);
    let journal_only = JournalOptions {
        snapshot_every: None,
        ..JournalOptions::guideline(&s.inputs.config)
    };
    let mut tr = Tracer::new();
    let mut samples = layers::FarmSamples::default();
    let (mut memory, mut plain) = (Vec::new(), Vec::new());
    let mut restore = Vec::new();
    let mut durable = None;
    let mut recovery = None;
    let mut fallbacks = 0u64;
    let traced = repeat(0.8 * opts.seconds, 3, || {
        tr.pass("pass", |tr| {
            let farm = |s: &Setup| Farm::new(s.inputs.config.clone(), s.inputs.bag.clone());
            let vfs = CountingVfs::new(NoSyncVfs);
            let f = farm(s).map_err(io)?;
            clear(&s.dir)?;
            let (secs, out) = tr.span("farm.journaled", |_| {
                timed(|| f.run_journaled_vfs(&s.path, jopts, &vfs))
            });
            let mut ok = match out {
                Ok((out, stats)) => {
                    durable = Some((stats, vfs.tally()));
                    fleet::report_ok(&out, s.total_work, s.digest)
                }
                Err(_) => false,
            };

            let f = farm(s).map_err(io)?;
            clear(&s.dir)?;
            let (t, out) = tr.span("farm.journal_only", |_| {
                timed(|| f.run_journaled_vfs(&s.path, journal_only, &NoSyncVfs))
            });
            ok &= out.is_ok_and(|(r, _)| fleet::digest(&r) == s.digest);
            plain.push(t);

            let f = farm(s).map_err(io)?;
            let (t, out) = tr.span("farm.memory", |_| timed(|| f.run()));
            ok &= fleet::digest(&out) == s.digest;
            memory.push(t);
            samples.sample(tr, &s.inputs, &prep)?;

            let (_, resumed, info) = tr.span("recovery.resume", |_| recover_pass(s))?;
            ok &= resumed;
            if let Some(info) = info {
                fallbacks += u64::from(matches!(info.snapshot, SnapshotOutcome::Fallback(_)));
                stage(&s.dir, &s.crashed)?;
                let (config, bag) = (s.inputs.config.clone(), s.inputs.bag.clone());
                let (t, state) = tr.span("recovery.restore", |_| {
                    timed(|| Farm::replay_to_from(config, bag, &s.path, 0, info.generation))
                });
                ok &= state.is_ok();
                restore.push(t);
                recovery = Some(info);
            }
            Ok((secs, ok))
        })
    })?;
    report.count(&traced);
    let spans_path = opts
        .work_dir
        .join(format!("spans-farm_durable-{}.jsonl", opts.seed));
    tr.write_jsonl(&spans_path)?;
    report
        .notes
        .push(format!("spans: {}", spans_path.display()));

    let run_s = traced.median();
    let (memory_s, plain_s) = (median(&memory), median(&plain));
    let (stats, tally) = durable.ok_or("no traced journaled run finished")?;
    let journal_s = plain_s - memory_s;
    let snapshot_s = run_s - plain_s;
    samples.fill(&mut report, &prep, run_s);
    let events = prep.events.len().max(1) as f64;
    report.set("encode.ns_per_event", encode_s * 1e9 / events);
    report.set("encode.bytes_per_event", encode_bytes as f64 / events);
    report.set("journal.records", stats.records as f64);
    report.set("journal.bytes", tally.journal_bytes as f64);
    report.set("journal.fsyncs", stats.syncs as f64);
    report.set(
        "journal.ns_per_record",
        journal_s * 1e9 / stats.records.max(1) as f64,
    );
    report.set("journal.share", journal_s / run_s);
    report.set("snapshot.count", stats.snapshots_written as f64);
    report.set("snapshot.bytes", tally.snapshot_bytes as f64);
    report.set(
        "snapshot.ns_per_snapshot",
        snapshot_s * 1e9 / stats.snapshots_written.max(1) as f64,
    );
    report.set("snapshot.share", snapshot_s / run_s);
    report.set("gc.truncated_bytes", stats.gc_truncated_bytes as f64);
    let info = recovery.ok_or("no traced resume finished")?;
    let skipped = match info.snapshot {
        SnapshotOutcome::Used { records_skipped } => records_skipped,
        _ => 0,
    };
    report.set("recovery.records_skipped", skipped as f64);
    report.set("recovery.records_replayed", info.records_replayed as f64);
    report.set("recovery.restore_ns", median(&restore) * 1e9);
    report.set("recovery.fallbacks", fallbacks as f64);
    report.set(
        "trace.overhead_frac",
        traced.fastest() / untraced.fastest() - 1.0,
    );
    reconcile(
        &mut report,
        "snapshot",
        &[
            ("policy", samples.policy_s() / run_s),
            ("engine", samples.engine_s() / run_s),
            ("journal", journal_s / run_s),
            ("snapshot", snapshot_s / run_s),
        ],
    );
    zero_unset(&mut report);
    Ok(report)
}
