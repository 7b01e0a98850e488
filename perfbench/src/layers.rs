//! Measuring the policy, search, engine and encode layers of a farm from
//! outside, through public functions only.
//!
//! * Policy: the per-dispatch `elapsed` sequence is recovered from the
//!   run's event stream (`dispatch.t − episode_start.t` of the same
//!   workstation, the exact subtraction the farm performs) and replayed
//!   through `GuidelinePolicy::with_cache`, with caches shared exactly as
//!   `PolicyCaches` shares them (same believed-life `Arc`, same `c`). A
//!   lookup is a miss when it grew its cache.
//! * Search: the missed `elapsed` values are replayed through the
//!   uncached `GuidelinePolicy::new` over an evaluation-counting life.
//! * Engine: the same fleet reruns under `PolicySpec::FixedSize`, with a
//!   period giving the same mean chunk as the guideline run.
//! * Encode: the recorded events are rendered to JSONL.

use crate::fleet::{CountingLife, FarmInputs};
use crate::timing::{median, timed};
use cs_now::{Farm, FarmReport, PolicySpec};
use cs_obs::{Event, EventKind, MemorySink};
use cs_sim::policy::{ChunkPolicy, GuidelineCache, GuidelinePolicy};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Runs the farm once with every event recorded in memory.
pub fn record(inputs: &FarmInputs) -> Result<(FarmReport, Vec<Event>), String> {
    let farm = Farm::new(inputs.config.clone(), inputs.bag.clone()).map_err(|e| e.to_string())?;
    let mut sink = MemorySink::new();
    let report = farm.run_observed(&mut sink);
    Ok((report, sink.events))
}

/// Counts of a recorded stream the engine rows report.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamCounts {
    /// Events emitted.
    pub events: u64,
    /// `dispatch` events.
    pub dispatches: u64,
    /// `requeue` events.
    pub requeues: u64,
    /// Task time dispatched.
    pub dispatched_work: f64,
}

/// Tallies a recorded stream.
pub fn stream_counts(events: &[Event]) -> StreamCounts {
    let mut c = StreamCounts {
        events: events.len() as u64,
        ..Default::default()
    };
    for ev in events {
        match ev.kind {
            EventKind::Dispatch { work, .. } => {
                c.dispatches += 1;
                c.dispatched_work += work;
            }
            EventKind::Requeue { .. } => c.requeues += 1,
            _ => {}
        }
    }
    c
}

/// The `(workstation, elapsed)` argument of every policy call that led to
/// a dispatch, in the order the farm made them.
pub fn dispatch_elapsed(events: &[Event]) -> Vec<(usize, f64)> {
    let mut episode_start: HashMap<u64, f64> = HashMap::new();
    let mut out = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::EpisodeStart { ws } => {
                episode_start.insert(ws, ev.time);
            }
            EventKind::Dispatch { ws, .. } => {
                let start = episode_start.get(&ws).copied().unwrap_or(0.0);
                out.push((ws as usize, ev.time - start));
            }
            _ => {}
        }
    }
    out
}

/// What replaying the dispatch sequence through cached policies found.
#[derive(Debug, Clone, Default)]
pub struct PolicyReplay {
    /// Lookups replayed.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Wall ns spent in hits.
    pub hit_ns: u64,
    /// Wall ns spent in misses.
    pub miss_ns: u64,
    /// The `(workstation, elapsed)` of each miss, in replay order.
    pub misses: Vec<(usize, f64)>,
}

impl PolicyReplay {
    /// Total wall seconds in the policy layer.
    pub fn secs(&self) -> f64 {
        (self.hit_ns + self.miss_ns) as f64 * 1e-9
    }
}

/// Replays `calls` through `GuidelinePolicy::with_cache`, one cache per
/// distinct `(believed life, c)` exactly as `PolicyCaches` keys them.
pub fn replay_policy(inputs: &FarmInputs, calls: &[(usize, f64)]) -> PolicyReplay {
    let mut caches: HashMap<(usize, u64), Arc<GuidelineCache>> = HashMap::new();
    let mut policies: Vec<(GuidelinePolicy, Arc<GuidelineCache>)> = inputs
        .config
        .workstations
        .iter()
        .map(|w| {
            let key = (
                Arc::as_ptr(&w.believed) as *const () as usize,
                w.c.to_bits(),
            );
            let cache = caches.entry(key).or_default().clone();
            (
                GuidelinePolicy::with_cache(w.believed.clone(), w.c, cache.clone()),
                cache,
            )
        })
        .collect();
    let mut out = PolicyReplay::default();
    for &(ws, elapsed) in calls {
        let (policy, cache) = &mut policies[ws];
        let before = cache.len();
        let start = Instant::now();
        std::hint::black_box(policy.next_period(std::hint::black_box(elapsed)));
        let ns = start.elapsed().as_nanos() as u64;
        out.lookups += 1;
        if cache.len() > before {
            out.miss_ns += ns;
            out.misses.push((ws, elapsed));
        } else {
            out.hits += 1;
            out.hit_ns += ns;
        }
    }
    out
}

/// Uncached guideline searches over the missed `elapsed` values.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchReplay {
    /// Searches run.
    pub calls: u64,
    /// Wall seconds in the searches.
    pub secs: f64,
    /// Life-function evaluations the searches made.
    pub life_evals: u64,
}

/// Replays each miss through `GuidelinePolicy::new` over a counting life.
pub fn replay_search(inputs: &FarmInputs, misses: &[(usize, f64)]) -> SearchReplay {
    let lives: Vec<Arc<CountingLife>> = inputs
        .config
        .workstations
        .iter()
        .map(|w| CountingLife::new(w.believed.clone()))
        .collect();
    let mut policies: Vec<GuidelinePolicy> = inputs
        .config
        .workstations
        .iter()
        .zip(&lives)
        .map(|(w, life)| GuidelinePolicy::new(life.clone(), w.c))
        .collect();
    let (secs, ()) = timed(|| {
        for &(ws, elapsed) in misses {
            std::hint::black_box(policies[ws].next_period(std::hint::black_box(elapsed)));
        }
    });
    SearchReplay {
        calls: misses.len() as u64,
        secs,
        life_evals: lives.iter().map(|l| l.evals()).sum(),
    }
}

/// The same fleet under `PolicySpec::FixedSize`, each workstation's
/// period set so its chunks carry the guideline run's mean dispatched
/// work: the event engine with the search taken out.
pub fn fixed_size_inputs(inputs: &FarmInputs, counts: &StreamCounts) -> FarmInputs {
    let mean_chunk = counts.dispatched_work / counts.dispatches.max(1) as f64;
    let mut fixed = inputs.clone();
    for w in &mut fixed.config.workstations {
        w.policy = PolicySpec::FixedSize(mean_chunk + w.c);
    }
    fixed
}

/// Renders every event to JSONL; returns wall seconds and bytes
/// (newlines included).
pub fn encode(events: &[Event]) -> (f64, u64) {
    let (secs, bytes) = timed(|| {
        events
            .iter()
            .map(|e| std::hint::black_box(e.to_jsonl()).len() as u64 + 1)
            .sum::<u64>()
    });
    (secs, bytes)
}

/// What a traced farm run measures once, before its passes: the recorded
/// event stream's counts, the dispatch sequence and the fixed-size twin.
pub struct FarmPrep {
    /// The guideline run's stream counts.
    pub counts: StreamCounts,
    /// Its per-dispatch policy arguments.
    pub calls: Vec<(usize, f64)>,
    /// Digest of the recorded run's report.
    pub digest: u64,
    /// Replicas the recorded run dispatched.
    pub replicas: u64,
    /// The fixed-size twin's inputs.
    pub fixed: FarmInputs,
    /// Events the fixed-size twin emits.
    pub fixed_events: u64,
    /// The recorded stream, for the encode row.
    pub events: Vec<Event>,
}

/// Records the guideline run and its fixed-size twin once.
pub fn prepare(inputs: &FarmInputs) -> Result<FarmPrep, String> {
    let (report, events) = record(inputs)?;
    let counts = stream_counts(&events);
    let fixed = fixed_size_inputs(inputs, &counts);
    let (_, fixed_stream) = record(&fixed)?;
    Ok(FarmPrep {
        counts,
        calls: dispatch_elapsed(&events),
        digest: crate::fleet::digest(&report),
        replicas: report.robustness.replicas_dispatched,
        fixed,
        fixed_events: fixed_stream.len() as u64,
        events,
    })
}

/// Per-pass samples of the policy, search and engine layers.
#[derive(Default)]
pub struct FarmSamples {
    policy: Vec<PolicyReplay>,
    search: Vec<SearchReplay>,
    engine_s: Vec<f64>,
}

impl FarmSamples {
    /// Measures the three layers once, each in its own span.
    pub fn sample(
        &mut self,
        tr: &mut crate::spans::Tracer,
        inputs: &FarmInputs,
        prep: &FarmPrep,
    ) -> Result<(), String> {
        let policy = tr.span("policy.replay", |_| replay_policy(inputs, &prep.calls));
        self.search
            .push(tr.span("search.replay", |_| replay_search(inputs, &policy.misses)));
        self.policy.push(policy);
        let farm = Farm::new(prep.fixed.config.clone(), prep.fixed.bag.clone())
            .map_err(|e| e.to_string())?;
        let (secs, _) = tr.span("engine.fixed", |_| timed(|| farm.run()));
        self.engine_s.push(secs);
        Ok(())
    }

    /// Median seconds in the policy layer.
    pub fn policy_s(&self) -> f64 {
        median(
            &self
                .policy
                .iter()
                .map(PolicyReplay::secs)
                .collect::<Vec<_>>(),
        )
    }

    /// Median seconds of the fixed-size engine run.
    pub fn engine_s(&self) -> f64 {
        median(&self.engine_s)
    }

    /// Fills the search, policy and engine rows; `run_s` is the traced
    /// wall time the shares are taken of.
    pub fn fill(&self, report: &mut crate::Report, prep: &FarmPrep, run_s: f64) {
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let p = self.policy.last().expect("at least one sample");
        let s = self.search.last().expect("at least one sample");
        let searches = |r: &SearchReplay| {
            if r.calls == 0 {
                0.0
            } else {
                r.secs * 1e9 / r.calls as f64
            }
        };
        report.set("search.calls", s.calls as f64);
        report.set(
            "search.ns_per_call",
            median(&self.search.iter().map(searches).collect::<Vec<_>>()),
        );
        report.set("search.life_evals_per_call", per(s.life_evals, s.calls));
        report.set("policy.lookups", p.lookups as f64);
        report.set("policy.hit_rate", p.hits as f64 / p.lookups.max(1) as f64);
        report.set(
            "policy.ns_per_hit",
            median(
                &self
                    .policy
                    .iter()
                    .map(|r| per(r.hit_ns, r.hits))
                    .collect::<Vec<_>>(),
            ),
        );
        report.set(
            "policy.ns_per_miss",
            median(
                &self
                    .policy
                    .iter()
                    .map(|r| per(r.miss_ns, r.lookups - r.hits))
                    .collect::<Vec<_>>(),
            ),
        );
        report.set("policy.share", self.policy_s() / run_s);
        report.set("engine.events", prep.counts.events as f64);
        report.set(
            "engine.ns_per_event",
            self.engine_s() * 1e9 / prep.fixed_events.max(1) as f64,
        );
        report.set("engine.requeues", prep.counts.requeues as f64);
        report.set("engine.replicas", prep.replicas as f64);
        report.set("engine.share", self.engine_s() / run_s);
    }
}
