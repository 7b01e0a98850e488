//! Seeded farm inputs and the checks every farm pass must pass.

use cs_life::{ArcLife, GeometricIncreasing, LifeFunction, Polynomial, Shape, Uniform};
use cs_now::{FarmConfig, FarmReport, FaultPlan, PolicySpec, WorkstationConfig};
use cs_tasks::{workloads, TaskBag};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A farm's inputs: configuration and task bag.
#[derive(Clone)]
pub struct FarmInputs {
    /// Fleet, horizon, seed, storms.
    pub config: FarmConfig,
    /// The bag of unit tasks.
    pub bag: TaskBag,
}

impl FarmInputs {
    /// Tasks in the bag.
    pub fn tasks(&self) -> usize {
        self.bag.pending_count()
    }

    /// Total task time in the bag.
    pub fn total_work(&self) -> f64 {
        self.bag.pending_work()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Intensity of the moderate fault mix every farm workload runs under.
const FAULT_INTENSITY: f64 = 0.25;

/// The fault mix of the farm workloads: message loss, slowdown and
/// reclaim-storm hits at [`FAULT_INTENSITY`], but no permanent crashes. A
/// crash retires a workstation for the rest of the run, so a handful of
/// early crashes would swing the makespan from seed to seed more than any
/// change to the code.
fn faults() -> FaultPlan {
    FaultPlan {
        crash_rate: 0.0,
        ..FaultPlan::scaled(FAULT_INTENSITY)
    }
}

/// One owner per workstation (§2): workstation `i` runs life family
/// `i mod 4` — §4.1 uniform, §4.3 geometric-increasing, §4.1 quadratic
/// and cubic polynomial — with its own lifespan and overhead `c`. (The
/// unbounded §4.2 geometric-decreasing family is left out: its searches
/// cost several times more, so a few of them would make the run time
/// swing with the seed.) Every workstation holds its own `Arc`, so
/// no two share a guideline cache. The fleet is the same for every seed;
/// the seed drives the episode and fault draws.
pub fn heterogeneous(seed: u64, workstations: usize, tasks: usize) -> Result<FarmInputs, String> {
    let fleet = (0..workstations)
        .map(|i| {
            let scale = 1.0 + 0.05 * (i / 4) as f64;
            let life: ArcLife = match i % 4 {
                0 => Arc::new(Uniform::new(150.0 * scale).map_err(err)?),
                1 => Arc::new(GeometricIncreasing::new(120.0 * scale).map_err(err)?),
                2 => Arc::new(Polynomial::new(2, 150.0 * scale).map_err(err)?),
                _ => Arc::new(Polynomial::new(3, 150.0 * scale).map_err(err)?),
            };
            Ok(WorkstationConfig {
                life: life.clone(),
                believed: life,
                c: 1.5 + 0.25 * (i % 3) as f64,
                policy: PolicySpec::Guideline,
                gap_mean: 10.0,
                faults: faults(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FarmInputs {
        config: FarmConfig::new(fleet, 1e8, seed),
        bag: workloads::uniform(tasks, 1.0).map_err(err)?,
    })
}

/// A fleet of identical workstations sharing one life `Arc` and one `c`,
/// so all guideline lookups go through a single shared cache. The seed
/// drives the episode and fault draws; `storms` adds whole-fleet reclaim
/// storms so every fault event kind occurs.
pub fn homogeneous(
    seed: u64,
    workstations: usize,
    tasks: usize,
    storms: bool,
) -> Result<FarmInputs, String> {
    let life: ArcLife = Arc::new(Uniform::new(150.0).map_err(err)?);
    let fleet = (0..workstations)
        .map(|_| WorkstationConfig {
            life: life.clone(),
            believed: life.clone(),
            c: 2.0,
            policy: PolicySpec::Guideline,
            gap_mean: 10.0,
            faults: faults(),
        })
        .collect();
    let mut config = FarmConfig::new(fleet, 1e8, seed);
    if storms {
        config.storms = (1..=20).map(|k| 300.0 * k as f64).collect();
    }
    Ok(FarmInputs {
        config,
        bag: workloads::uniform(tasks, 1.0).map_err(err)?,
    })
}

/// FNV-1a digest of every number in a report, bit for bit.
pub fn digest(r: &FarmReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.makespan.to_bits());
    eat(r.completed_work.to_bits());
    eat(r.lost_work.to_bits());
    eat(r.remaining_work.to_bits());
    eat(u64::from(r.drained));
    for w in &r.per_workstation {
        eat(w.completed_work.to_bits());
        eat(w.lost_work.to_bits());
        eat(w.chunks_completed);
        eat(w.chunks_lost);
        eat(w.episodes);
        eat(w.lease_timeouts);
        eat(w.replicas_dispatched);
        eat(w.duplicate_work.to_bits());
    }
    h
}

/// The farm output check: the bag drained, every task's work was banked
/// exactly once, and the report is bitwise the workload's reference.
pub fn report_ok(r: &FarmReport, total_work: f64, reference: u64) -> bool {
    r.drained
        && r.remaining_work == 0.0
        && (r.completed_work - total_work).abs() <= 1e-9 * total_work
        && digest(r) == reference
}

/// Banked work per unit of virtual makespan: the paper's objective at
/// fleet level.
pub fn banked_per_vtime(r: &FarmReport) -> f64 {
    r.completed_work / r.makespan
}

/// Banked work over banked plus lost work.
pub fn useful_work_frac(r: &FarmReport) -> f64 {
    r.completed_work / (r.completed_work + r.lost_work)
}

/// A life function that counts its evaluations (survival, derivative and
/// inverse survival), for `search.life_evals_per_call`.
pub struct CountingLife {
    inner: ArcLife,
    evals: AtomicU64,
}

impl CountingLife {
    /// Wraps `inner`.
    pub fn new(inner: ArcLife) -> Arc<Self> {
        Arc::new(Self {
            inner,
            evals: AtomicU64::new(0),
        })
    }

    /// Evaluations so far.
    pub fn evals(&self) -> u64 {
        // A statistic: it publishes no other data.
        self.evals.load(Ordering::Relaxed)
    }

    fn tick(&self) {
        self.evals.fetch_add(1, Ordering::Relaxed);
    }
}

impl LifeFunction for CountingLife {
    fn survival(&self, t: f64) -> f64 {
        self.tick();
        self.inner.survival(t)
    }

    fn deriv(&self, t: f64) -> f64 {
        self.tick();
        self.inner.deriv(t)
    }

    fn lifespan(&self) -> Option<f64> {
        self.inner.lifespan()
    }

    fn shape(&self) -> Shape {
        self.inner.shape()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn inverse_survival(&self, q: f64) -> f64 {
        self.tick();
        self.inner.inverse_survival(q)
    }
}
