//! Periodic state snapshots: the restore points of crash recovery and
//! time-travel forking for journaled farm runs.
//!
//! Redo replay re-runs the seeded engine from virtual time zero and
//! verifies every regenerated event against the journal — O(run length).
//! This module captures the farm's **complete** mid-run state between two
//! queue events, so [`crate::journal`]'s recovery can restore the last
//! snapshot and replay only the tail: the re-execution cost becomes
//! O(snapshot interval), independent of how long the run had been going.
//! The run's initial state ⊥ is the restore point of last resort.
//!
//! # What a snapshot holds
//!
//! Everything the steppable farm engine (`FarmRun`) owns that is not
//! derivable from the configuration: the master RNG stream and every
//! per-workstation fault stream (raw xoshiro256** state words), the
//! pending-event queue, the task bag's raw parts, the lease table, the
//! banked-id set, and each workstation's
//! episode/lease/quarantine/backoff/crash cursors and stats. Policies are
//! rebuilt from the [`FarmConfig`] and re-hydrated through
//! [`cs_sim::policy::ChunkPolicy::save_state`] (the paper's three policies
//! are stateless; the hook covers stateful ones like replayed schedules).
//! Floats are serialized as `f64::to_bits` hex, so restore is bitwise — a
//! resumed run continues the exact event/RNG trajectory of the original.
//!
//! # Format, versioning, integrity
//!
//! Each ring generation (`<journal>.snap.<g>`, see [`ring_snapshot_path`])
//! is a line-oriented text file opening with the version banner
//! `cs-now-snapshot v1` and closing with an FNV-1a 64 checksum of the
//! preceding bytes. A `journal` line binds the snapshot to a committed
//! journal prefix: record count plus a running FNV-1a hash of those
//! records' bytes, verified at recovery so a snapshot can never be applied
//! to a journal it does not describe. Any failure — unknown version, parse
//! error, checksum or binding mismatch, foreign farm — is a typed
//! [`SnapshotError`], and recovery falls back to an older generation or ⊥
//! (reported as [`SnapshotOutcome::Fallback`], never a wrong answer).
//!
//! Snapshots are written atomically (temp file + rename) on the same
//! `cs_saves::guideline_interval` cadence as the fsync policy — the paper's
//! §4.2 Remark prices state saves exactly like cycle-stealing chunks, and
//! both durability knobs take its answer.
//!
//! # Time travel
//!
//! A snapshot is also a fork point: [`Farm::fork_from_snapshot`] restores
//! the state under a *perturbed* configuration (typically a different
//! [`crate::FaultPlan`]) and plays the rest of the run as a what-if, while
//! [`Farm::replay_to_from`] in [`crate::journal`] reconstructs the state
//! at any record for inspection.

use crate::equeue::EventQueue;
use crate::farm::{
    BankedSet, Engine, Event, EventKind, Farm, FarmConfig, FarmReport, FarmRun, Lease, LeaseTable,
    WorkstationState, WorkstationStats, WsTable,
};
use cs_obs::vfs::{StdVfs, Vfs};
use cs_obs::{NoopSink, SpanId, SpanProfiler};
use cs_tasks::{Chunk, Task, TaskBag, TaskBagState};
use rand::rngs::StdRng;
use std::fmt;
use std::path::{Path, PathBuf};

/// Version banner every snapshot opens with; restore refuses others.
pub const SNAPSHOT_VERSION: &str = "cs-now-snapshot v1";

/// FNV-1a 64 offset basis — the hash of the empty byte string.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends a running FNV-1a 64 hash with `bytes`. Seed with
/// [`FNV_OFFSET`].
pub(crate) fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The sidecar path of ring generation `g`: `<journal>.snap.<g>`. A
/// snapshot ring of size N cycles generations `0..N`.
pub fn ring_snapshot_path(journal: &Path, generation: u32) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(format!(".snap.{generation}"));
    PathBuf::from(name)
}

/// The segment-metadata path for a journal: `<journal>.seg`. Present only
/// after journal-prefix GC has rotated the journal into a segment; records
/// how many records were truncated and the running hash at the cut.
pub fn segment_meta_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".seg");
    PathBuf::from(name)
}

/// The temp path a given sidecar/segment file is staged at before its
/// atomic rename (`<path>.tmp`).
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Why a snapshot could not be written, read or applied. Resume treats
/// every variant as a *soft* failure: it logs the typed reason and falls
/// back to full redo replay (see [`SnapshotOutcome::Fallback`]).
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the sidecar failed.
    Io(std::io::Error),
    /// The file does not open with [`SNAPSHOT_VERSION`].
    Version {
        /// The banner actually found (truncated for display).
        found: String,
    },
    /// A line failed to parse.
    Malformed {
        /// 1-based line number.
        line: u64,
        /// What was wrong.
        reason: String,
    },
    /// The trailing FNV-1a checksum does not match the body.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The snapshot describes a different farm (seed, workstation count or
    /// task count disagree with the resuming configuration).
    FarmMismatch {
        /// Which field disagreed.
        reason: String,
    },
    /// The snapshot binds to more journal records than the journal holds —
    /// the journal was truncated behind the snapshot's back (e.g. a crash
    /// discarded fsync-pending records the snapshot had already seen).
    JournalAhead {
        /// Records the snapshot binds to.
        snapshot_records: u64,
        /// Committed records actually in the journal.
        journal_records: u64,
    },
    /// The journal prefix the snapshot binds to hashes differently — the
    /// sidecar belongs to some other journal with the same length.
    JournalMismatch {
        /// Length of the mismatching prefix.
        records: u64,
    },
}

/// [`SnapshotError`] collapsed to a `Copy` discriminant, carried in
/// [`SnapshotOutcome::Fallback`] so [`crate::RecoveryInfo`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// Sidecar I/O failed.
    Io,
    /// Unknown version banner.
    Version,
    /// Parse failure.
    Malformed,
    /// Body checksum mismatch.
    Checksum,
    /// Snapshot belongs to a different farm.
    FarmMismatch,
    /// Snapshot ahead of the (truncated) journal.
    JournalAhead,
    /// Journal-prefix hash mismatch.
    JournalMismatch,
}

impl SnapshotError {
    /// The `Copy` discriminant of this error.
    pub fn kind(&self) -> SnapshotErrorKind {
        match self {
            SnapshotError::Io(_) => SnapshotErrorKind::Io,
            SnapshotError::Version { .. } => SnapshotErrorKind::Version,
            SnapshotError::Malformed { .. } => SnapshotErrorKind::Malformed,
            SnapshotError::Checksum { .. } => SnapshotErrorKind::Checksum,
            SnapshotError::FarmMismatch { .. } => SnapshotErrorKind::FarmMismatch,
            SnapshotError::JournalAhead { .. } => SnapshotErrorKind::JournalAhead,
            SnapshotError::JournalMismatch { .. } => SnapshotErrorKind::JournalMismatch,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Version { found } => write!(
                f,
                "unknown snapshot version: expected {SNAPSHOT_VERSION:?}, found {found:?}"
            ),
            SnapshotError::Malformed { line, reason } => {
                write!(f, "malformed snapshot at line {line}: {reason}")
            }
            SnapshotError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: recorded {expected:016x}, body hashes to {found:016x}"
            ),
            SnapshotError::FarmMismatch { reason } => {
                write!(f, "snapshot belongs to a different farm: {reason}")
            }
            SnapshotError::JournalAhead {
                snapshot_records,
                journal_records,
            } => write!(
                f,
                "snapshot binds to {snapshot_records} journal records but the journal holds only \
                 {journal_records}"
            ),
            SnapshotError::JournalMismatch { records } => write!(
                f,
                "snapshot does not bind to this journal: the {records}-record prefix hashes \
                 differently"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl fmt::Display for SnapshotErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnapshotErrorKind::Io => "io",
            SnapshotErrorKind::Version => "version",
            SnapshotErrorKind::Malformed => "malformed",
            SnapshotErrorKind::Checksum => "checksum",
            SnapshotErrorKind::FarmMismatch => "farm-mismatch",
            SnapshotErrorKind::JournalAhead => "journal-ahead",
            SnapshotErrorKind::JournalMismatch => "journal-mismatch",
        };
        f.write_str(s)
    }
}

/// How [`Farm::resume_vfs`] used (or failed to use) the snapshot ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SnapshotOutcome {
    /// No generation was present: recovery restored ⊥ (full redo replay).
    #[default]
    None,
    /// The snapshot restored cleanly; this many committed records were
    /// skipped instead of re-executed.
    Used {
        /// Journal records covered by the snapshot (not replayed).
        records_skipped: u64,
    },
    /// Every generation present was rejected, the last for the given
    /// reason; recovery fell back to ⊥ (full redo replay). The run still
    /// finishes bitwise-exact.
    Fallback(SnapshotErrorKind),
}

/// Summary of a snapshot sidecar: the farm it belongs to and where in the
/// run it was taken. Returned by [`inspect_snapshot`] and
/// [`Farm::fork_from_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    /// Seed of the snapshotted run.
    pub seed: u64,
    /// Workstation count.
    pub workstations: u64,
    /// Initial task count.
    pub tasks: u64,
    /// Committed journal records the snapshot covers.
    pub journal_records: u64,
    /// Virtual time of the last event handled before the snapshot.
    pub virtual_time: f64,
}

/// Reads and validates (version, parse, checksum) a sidecar, returning its
/// metadata without restoring anything.
pub fn inspect_snapshot(path: impl AsRef<Path>) -> Result<SnapshotMeta, SnapshotError> {
    FarmSnapshot::load(&StdVfs, path.as_ref()).map(|snap| snap.meta())
}

// ---------------------------------------------------------------------------
// The structured snapshot
// ---------------------------------------------------------------------------

/// One serialized queue event.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: f64,
    /// 0 = Arrival(id), 1 = LeaseExpiry(id), 2 = Dispatch(ws) — the same
    /// ranks the queue's tie-break uses.
    tag: u8,
    id: u64,
}

/// One serialized lease-table entry.
#[derive(Debug, Clone)]
struct LeaseSnap {
    lease: u64,
    ws: u64,
    expiry: f64,
    arrives: bool,
    expired: bool,
    replicas: u32,
    tasks: Vec<Task>,
}

/// One serialized workstation: cursors, fault stream, policy state, stats.
#[derive(Debug, Clone)]
struct WsSnap {
    episode_start: f64,
    reclaim_at: f64,
    crash_at: f64,
    quarantined_until: f64,
    fault_rng: [u64; 4],
    crashed: bool,
    fail_streak: u32,
    backoff_pending: bool,
    policy_state: Vec<u8>,
    stats: WorkstationStats,
}

/// The complete captured state of a [`FarmRun`] between two queue events,
/// in the [aero `virtual_time`] `save_state`/`restore_state` shape: a plain
/// data struct the engine can be rebuilt from.
///
/// [aero `virtual_time`]: https://github.com/wilsonzlin/aero
#[derive(Debug, Clone)]
pub(crate) struct FarmSnapshot {
    pub(crate) seed: u64,
    pub(crate) workstations: u64,
    pub(crate) tasks: u64,
    /// Committed journal records this snapshot covers.
    pub(crate) journal_records: u64,
    /// FNV-1a 64 over those records' bytes (each line plus `\n`).
    pub(crate) journal_hash: u64,
    /// Virtual time of the last handled event.
    pub(crate) now: f64,
    rng: [u64; 4],
    makespan: f64,
    next_lease: u64,
    bag: TaskBagState,
    banked: Vec<u64>,
    queue: Vec<QueuedEvent>,
    leases: Vec<LeaseSnap>,
    ws: Vec<WsSnap>,
}

impl FarmSnapshot {
    pub(crate) fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            seed: self.seed,
            workstations: self.workstations,
            tasks: self.tasks,
            journal_records: self.journal_records,
            virtual_time: self.now,
        }
    }
}

impl FarmRun {
    /// Captures the run's complete state, bound to the journal prefix of
    /// `journal_records` records hashing to `journal_hash`.
    pub(crate) fn save_state(&self, journal_records: u64, journal_hash: u64) -> FarmSnapshot {
        // The heap serializes as its ascending pop order. The event order
        // is total and ties are content-identical, so rebuilding a heap
        // from this list pops the exact same event sequence.
        let mut queue: Vec<QueuedEvent> = self
            .eng
            .queue
            .iter()
            .map(|e| {
                let (tag, id) = e.kind.rank();
                QueuedEvent {
                    time: e.time,
                    tag,
                    id,
                }
            })
            .collect();
        queue.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| (a.tag, a.id).cmp(&(b.tag, b.id)))
        });
        // The banked set iterates ascending already, which keeps identical
        // states producing identical bytes (it is only ever
        // membership-tested at runtime).
        let banked: Vec<u64> = self.eng.banked.iter().collect();
        let leases = self
            .eng
            .in_flight
            .iter()
            .map(|(lease, l)| LeaseSnap {
                lease,
                ws: l.ws as u64,
                expiry: l.expiry,
                arrives: l.arrives,
                expired: l.expired,
                replicas: l.replicas,
                tasks: l.chunk.tasks().to_vec(),
            })
            .collect();
        let ws = (0..self.states.len())
            .map(|i| WsSnap {
                episode_start: self.states.episode_start[i],
                reclaim_at: self.states.reclaim_at[i],
                crash_at: self.states.crash_at[i],
                quarantined_until: self.states.quarantined_until[i],
                fault_rng: self.states.fault_rng[i].state(),
                crashed: self.states.crashed[i],
                fail_streak: self.states.fail_streak[i],
                backoff_pending: self.states.backoff_pending[i],
                policy_state: self.states.policy[i].save_state(),
                stats: self.states.stats[i],
            })
            .collect();
        FarmSnapshot {
            seed: self.config.seed,
            workstations: self.config.workstations.len() as u64,
            tasks: self.initial_tasks as u64,
            journal_records,
            journal_hash,
            now: self.now,
            rng: self.eng.rng.state(),
            makespan: self.eng.makespan,
            next_lease: self.eng.in_flight.next_id(),
            bag: self.eng.bag.save_state(),
            banked,
            queue,
            leases,
            ws,
        }
    }
}

impl FarmSnapshot {
    /// Rebuilds a paused [`FarmRun`] under `config`. The configuration must
    /// describe the same farm *shape* (workstation count); everything else
    /// — including the fault plans, for what-if forking — is taken from
    /// `config`, while all captured state comes from the snapshot.
    pub(crate) fn restore(self, config: FarmConfig) -> Result<FarmRun, SnapshotError> {
        config.validate().map_err(|e| SnapshotError::FarmMismatch {
            reason: format!("restore configuration is invalid: {e}"),
        })?;
        if config.workstations.len() as u64 != self.workstations {
            return Err(SnapshotError::FarmMismatch {
                reason: format!(
                    "snapshot has {} workstations, configuration has {}",
                    self.workstations,
                    config.workstations.len()
                ),
            });
        }
        let mut storms = config.storms.clone();
        storms.sort_by(f64::total_cmp);
        let queue: EventQueue = self
            .queue
            .into_iter()
            .map(|q| {
                let kind = match q.tag {
                    0 => EventKind::Arrival(q.id),
                    1 => EventKind::LeaseExpiry(q.id),
                    _ => EventKind::Dispatch(q.id as usize),
                };
                Event { time: q.time, kind }
            })
            .collect();
        // Tombstones first so already-retired lease ids stay retired, then
        // place each live lease back at its captured id.
        let mut in_flight = LeaseTable::with_tombstones(self.next_lease);
        for l in self.leases {
            in_flight.place(
                l.lease,
                Lease {
                    ws: l.ws as usize,
                    chunk: Chunk::from_tasks(l.tasks),
                    expiry: l.expiry,
                    arrives: l.arrives,
                    expired: l.expired,
                    replicas: l.replicas,
                },
            );
        }
        let mut banked = BankedSet::with_bits(self.tasks);
        for id in self.banked {
            banked.insert(id);
        }
        let eng = Engine {
            bag: TaskBag::restore_state(self.bag),
            queue,
            rng: StdRng::from_state(self.rng),
            storms,
            in_flight,
            banked,
            makespan: self.makespan,
            free_bufs: Vec::new(),
        };
        let mut caches = cs_scenarios::PolicyCaches::new();
        let mut states = WsTable::with_capacity(self.ws.len());
        for (w, wc) in self.ws.into_iter().zip(&config.workstations) {
            let mut policy = wc
                .policy
                .build_shared(wc.believed.clone(), wc.c, &mut caches);
            policy.restore_state(&w.policy_state);
            states.push(WorkstationState {
                policy,
                episode_start: w.episode_start,
                reclaim_at: w.reclaim_at,
                fault_rng: StdRng::from_state(w.fault_rng),
                crash_at: w.crash_at,
                crashed: w.crashed,
                fail_streak: w.fail_streak,
                backoff_pending: w.backoff_pending,
                quarantined_until: w.quarantined_until,
                stats: w.stats,
            });
        }
        Ok(FarmRun {
            initial_tasks: self.tasks as usize,
            config,
            eng,
            states,
            now: self.now,
            root_span: SpanId::NONE,
        })
    }

    // -- text encoding ------------------------------------------------------

    /// Serializes to the versioned, checksummed line format.
    pub(crate) fn encode(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(SNAPSHOT_VERSION);
        s.push('\n');
        s.push_str(&format!(
            "meta seed {} workstations {} tasks {}\n",
            self.seed, self.workstations, self.tasks
        ));
        s.push_str(&format!(
            "journal records {} hash {:016x}\n",
            self.journal_records, self.journal_hash
        ));
        s.push_str(&format!(
            "clock now {} makespan {}\n",
            fx(self.now),
            fx(self.makespan)
        ));
        let r = self.rng;
        s.push_str(&format!(
            "rng {:016x} {:016x} {:016x} {:016x}\n",
            r[0], r[1], r[2], r[3]
        ));
        s.push_str(&format!(
            "bag next_id {} completed_tasks {} completed_work {} lost_work {} pending {}\n",
            self.bag.next_id,
            self.bag.completed_tasks,
            fx(self.bag.completed_work),
            fx(self.bag.lost_work),
            self.bag.pending.len()
        ));
        for t in &self.bag.pending {
            s.push_str(&format!("task {} {}\n", t.id, fx(t.duration)));
        }
        s.push_str(&format!("banked {}\n", self.banked.len()));
        for chunk in self.banked.chunks(64) {
            s.push_str("ids");
            for id in chunk {
                s.push_str(&format!(" {id}"));
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "queue {} next_lease {}\n",
            self.queue.len(),
            self.next_lease
        ));
        for q in &self.queue {
            s.push_str(&format!("event {} {} {}\n", fx(q.time), q.tag, q.id));
        }
        s.push_str(&format!("leases {}\n", self.leases.len()));
        for l in &self.leases {
            s.push_str(&format!(
                "lease {} ws {} expiry {} arrives {} expired {} replicas {} tasks {}",
                l.lease,
                l.ws,
                fx(l.expiry),
                u8::from(l.arrives),
                u8::from(l.expired),
                l.replicas,
                l.tasks.len()
            ));
            for t in &l.tasks {
                s.push_str(&format!(" {}:{}", t.id, fx(t.duration)));
            }
            s.push('\n');
        }
        for (i, w) in self.ws.iter().enumerate() {
            let f = w.fault_rng;
            s.push_str(&format!(
                "ws {i} episode_start {} reclaim_at {} crash_at {} quarantined_until {} \
                 crashed {} fail_streak {} backoff {} frng {:016x} {:016x} {:016x} {:016x} \
                 policy {}\n",
                fx(w.episode_start),
                fx(w.reclaim_at),
                fx(w.crash_at),
                fx(w.quarantined_until),
                u8::from(w.crashed),
                w.fail_streak,
                u8::from(w.backoff_pending),
                f[0],
                f[1],
                f[2],
                f[3],
                hex(&w.policy_state)
            ));
            let st = &w.stats;
            s.push_str(&format!(
                "stats {i} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                fx(st.completed_work),
                fx(st.lost_work),
                fx(st.duplicate_work),
                st.chunks_completed,
                st.chunks_lost,
                st.episodes,
                st.idle_periods,
                st.messages_lost,
                st.straggled_chunks,
                st.crashes,
                st.storm_kills,
                st.lease_timeouts,
                st.backoff_delays,
                st.quarantines,
                st.replicas_dispatched,
                st.late_banks
            ));
        }
        seal(s)
    }

    /// Parses and integrity-checks the line format.
    pub(crate) fn decode(text: &str) -> Result<Self, SnapshotError> {
        let mut cur = unseal(text, SNAPSHOT_VERSION)?;
        let mut meta = cur.fields(&["meta seed", "workstations", "tasks"])?;
        let (seed, workstations, tasks) = (p_u64(&mut meta)?, p_u64(&mut meta)?, p_u64(&mut meta)?);
        let mut j = cur.fields(&["journal records", "hash"])?;
        let (journal_records, journal_hash) = (p_u64(&mut j)?, p_hex(&mut j)?);
        let mut clock = cur.fields(&["clock now", "makespan"])?;
        let (now, makespan) = (p_f64(&mut clock)?, p_f64(&mut clock)?);
        let rng = cur.rng_line("rng")?;
        let mut b = cur.fields(&[
            "bag next_id",
            "completed_tasks",
            "completed_work",
            "lost_work",
            "pending",
        ])?;
        let next_id = p_u64(&mut b)?;
        let completed_tasks = p_u64(&mut b)?;
        let completed_work = p_f64(&mut b)?;
        let lost_work = p_f64(&mut b)?;
        let n_pending = p_u64(&mut b)? as usize;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let mut t = cur.fields(&["task"])?;
            let id = p_u64(&mut t)?;
            let duration = p_f64(&mut t)?;
            pending.push(Task { id, duration });
        }
        let mut bk = cur.fields(&["banked"])?;
        let n_banked = p_u64(&mut bk)? as usize;
        let mut banked = Vec::with_capacity(n_banked);
        while banked.len() < n_banked {
            let line = cur.next()?;
            let rest = line
                .strip_prefix("ids")
                .ok_or_else(|| cur.malformed("expected ids line"))?;
            for tok in rest.split_ascii_whitespace() {
                banked.push(
                    tok.parse::<u64>()
                        .map_err(|_| cur.malformed("bad banked id"))?,
                );
            }
        }
        if banked.len() != n_banked {
            return Err(cur.malformed("banked id count mismatch"));
        }
        let mut q = cur.fields(&["queue", "next_lease"])?;
        let n_queue = p_u64(&mut q)? as usize;
        let next_lease = p_u64(&mut q)?;
        let mut queue = Vec::with_capacity(n_queue);
        for _ in 0..n_queue {
            let mut e = cur.fields(&["event"])?;
            let time = p_f64(&mut e)?;
            let tag = p_u64(&mut e)? as u8;
            let id = p_u64(&mut e)?;
            if tag > 2 {
                return Err(cur.malformed("event tag out of range"));
            }
            queue.push(QueuedEvent { time, tag, id });
        }
        let mut ls = cur.fields(&["leases"])?;
        let n_leases = p_u64(&mut ls)? as usize;
        let mut leases = Vec::with_capacity(n_leases);
        for _ in 0..n_leases {
            let mut l = cur.fields(&[
                "lease", "ws", "expiry", "arrives", "expired", "replicas", "tasks",
            ])?;
            let lease = p_u64(&mut l)?;
            let ws = p_u64(&mut l)?;
            let expiry = p_f64(&mut l)?;
            let arrives = p_bool(&mut l)?;
            let expired = p_bool(&mut l)?;
            let replicas = p_u64(&mut l)? as u32;
            let n_tasks = p_u64(&mut l)? as usize;
            let mut tasks = Vec::with_capacity(n_tasks);
            for _ in 0..n_tasks {
                let task = l.next().and_then(|pair| {
                    let (id, dur) = pair.split_once(':')?;
                    Some(Task {
                        id: id.parse().ok()?,
                        duration: parse_fx(dur)?,
                    })
                });
                tasks
                    .push(task.ok_or_else(|| cur.malformed("expected an id:duration lease task"))?);
            }
            leases.push(LeaseSnap {
                lease,
                ws,
                expiry,
                arrives,
                expired,
                replicas,
                tasks,
            });
        }
        let mut ws = Vec::with_capacity(workstations as usize);
        for i in 0..workstations {
            let mut w = cur.fields(&[
                "ws",
                "episode_start",
                "reclaim_at",
                "crash_at",
                "quarantined_until",
                "crashed",
                "fail_streak",
                "backoff",
                "frng",
            ])?;
            let idx = p_u64(&mut w)?;
            if idx != i {
                return Err(cur.malformed("workstation lines out of order"));
            }
            let episode_start = p_f64(&mut w)?;
            let reclaim_at = p_f64(&mut w)?;
            let crash_at = p_f64(&mut w)?;
            let quarantined_until = p_f64(&mut w)?;
            let crashed = p_bool(&mut w)?;
            let fail_streak = p_u64(&mut w)? as u32;
            let backoff_pending = p_bool(&mut w)?;
            let fault_rng = [
                p_hex(&mut w)?,
                p_hex(&mut w)?,
                p_hex(&mut w)?,
                p_hex(&mut w)?,
            ];
            let policy_tok = match w.next() {
                Some("policy") => w.next().unwrap_or("-"),
                _ => return Err(cur.malformed("missing policy field")),
            };
            let policy_state = unhex(policy_tok).ok_or_else(|| cur.malformed("bad policy hex"))?;
            let mut st = cur.fields(&["stats"])?;
            let sidx = p_u64(&mut st)?;
            if sidx != i {
                return Err(cur.malformed("stats lines out of order"));
            }
            let stats = WorkstationStats {
                completed_work: p_f64(&mut st)?,
                lost_work: p_f64(&mut st)?,
                duplicate_work: p_f64(&mut st)?,
                chunks_completed: p_u64(&mut st)?,
                chunks_lost: p_u64(&mut st)?,
                episodes: p_u64(&mut st)?,
                idle_periods: p_u64(&mut st)?,
                messages_lost: p_u64(&mut st)?,
                straggled_chunks: p_u64(&mut st)?,
                crashes: p_u64(&mut st)?,
                storm_kills: p_u64(&mut st)?,
                lease_timeouts: p_u64(&mut st)?,
                backoff_delays: p_u64(&mut st)?,
                quarantines: p_u64(&mut st)?,
                replicas_dispatched: p_u64(&mut st)?,
                late_banks: p_u64(&mut st)?,
            };
            ws.push(WsSnap {
                episode_start,
                reclaim_at,
                crash_at,
                quarantined_until,
                fault_rng,
                crashed,
                fail_streak,
                backoff_pending,
                policy_state,
                stats,
            });
        }
        Ok(FarmSnapshot {
            seed,
            workstations,
            tasks,
            journal_records,
            journal_hash,
            now,
            rng,
            makespan,
            next_lease,
            bag: TaskBagState {
                pending,
                next_id,
                completed_tasks,
                completed_work,
                lost_work,
            },
            banked,
            queue,
            leases,
            ws,
        })
    }

    /// Writes the snapshot atomically through `vfs`: temp file in the same
    /// directory, fsync, rename over the destination. A crash mid-write
    /// leaves either the old snapshot or the new one, never a torn file;
    /// every write, fsync and rename error surfaces as a typed
    /// [`SnapshotError::Io`].
    pub(crate) fn write_atomic(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), SnapshotError> {
        write_atomic_bytes(vfs, path, self.encode().as_bytes())
    }

    /// Reads and fully validates a sidecar file through `vfs`.
    pub(crate) fn load(vfs: &dyn Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::decode(&read_text(vfs, path)?)
    }
}

/// Stages `bytes` at `<path>.tmp`, fsyncs, then renames over `path`. The
/// shared atomic-publish primitive for snapshot sidecars and segment
/// metadata.
pub(crate) fn write_atomic_bytes(
    vfs: &dyn Vfs,
    path: &Path,
    bytes: &[u8],
) -> Result<(), SnapshotError> {
    let tmp = tmp_path(path);
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    vfs.rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Segment metadata: the journal's GC cut point
// ---------------------------------------------------------------------------

/// Version banner of the segment-metadata sidecar.
pub const SEGMENT_VERSION: &str = "cs-now-segment v1";

/// Where a GC'd journal *segment* starts in the full record stream.
///
/// After journal-prefix GC the journal file no longer begins at record 1:
/// the records a retained snapshot makes redundant have been truncated,
/// and this tiny checksummed sidecar (`<journal>.seg`, see
/// [`segment_meta_path`]) records the cut — how many records were
/// dropped, the running journal FNV hash at the cut (so ring generations
/// still bind by hash extension), and the hash of the segment's first
/// surviving record line (so a stale sidecar from a crash between the two
/// GC renames is *detected*, never silently trusted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Records truncated before the segment (the absolute index of the
    /// segment's first record).
    pub base_records: u64,
    /// Running FNV-1a 64 journal hash over the truncated prefix (each
    /// record line plus `\n`), i.e. the hash a snapshot at the cut binds
    /// to.
    pub base_hash: u64,
    /// FNV-1a 64 (from the standard offset basis) of the segment's first
    /// record line plus `\n`, or `None` when the segment was empty at the
    /// cut.
    pub first_record_hash: Option<u64>,
}

impl SegmentMeta {
    /// Serializes to the versioned, checksummed line format.
    pub(crate) fn encode(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str(SEGMENT_VERSION);
        s.push('\n');
        s.push_str(&format!(
            "base records {} hash {:016x}\n",
            self.base_records, self.base_hash
        ));
        match self.first_record_hash {
            Some(h) => s.push_str(&format!("first {h:016x}\n")),
            None => s.push_str("first -\n"),
        }
        seal(s)
    }

    /// Parses and integrity-checks the line format.
    pub(crate) fn decode(text: &str) -> Result<Self, SnapshotError> {
        let mut cur = unseal(text, SEGMENT_VERSION)?;
        let mut b = cur.fields(&["base records", "hash"])?;
        let (base_records, base_hash) = (p_u64(&mut b)?, p_hex(&mut b)?);
        let first_line = cur.next()?;
        let first_tok = first_line
            .strip_prefix("first ")
            .ok_or_else(|| cur.malformed("expected a \"first\" line"))?;
        let first_record_hash = match first_tok.trim() {
            "-" => None,
            h => Some(
                u64::from_str_radix(h, 16).map_err(|_| cur.malformed("bad first-record hash"))?,
            ),
        };
        Ok(SegmentMeta {
            base_records,
            base_hash,
            first_record_hash,
        })
    }

    /// Atomically publishes the metadata at `path`.
    pub(crate) fn store(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), SnapshotError> {
        write_atomic_bytes(vfs, path, self.encode().as_bytes())
    }

    /// Loads and validates the metadata at `path`.
    pub(crate) fn load(vfs: &dyn Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::decode(&read_text(vfs, path)?)
    }

    /// True when `record` (the segment's actual first line, without the
    /// newline) matches the recorded first-record hash — the staleness
    /// check that detects a crash between the journal rename and the
    /// metadata rename.
    pub(crate) fn matches_first(&self, record: Option<&str>) -> bool {
        match (self.first_record_hash, record) {
            (None, None) => true,
            (Some(expected), Some(line)) => {
                let h = fnv1a64(fnv1a64(FNV_OFFSET, line.as_bytes()), b"\n");
                h == expected
            }
            _ => false,
        }
    }

    /// Builds the metadata for a cut at `base_records`/`base_hash` with
    /// the given first surviving record line (if any).
    pub(crate) fn for_cut(base_records: u64, base_hash: u64, first_record: Option<&str>) -> Self {
        SegmentMeta {
            base_records,
            base_hash,
            first_record_hash: first_record
                .map(|line| fnv1a64(fnv1a64(FNV_OFFSET, line.as_bytes()), b"\n")),
        }
    }
}

impl Farm {
    /// Time-travel forking: restores the snapshot at `snap_path` under
    /// `config` — the original scenario, or one with a **perturbed**
    /// [`crate::FaultPlan`] — and plays the rest of the run to completion as
    /// a what-if. With the original configuration the returned report is
    /// bitwise identical to the run the snapshot was taken from; with a
    /// perturbed one it answers "how would the rest of this very run have
    /// gone under different faults?" from the exact captured state (bag,
    /// leases, RNG cursors and all).
    ///
    /// The farm *shape* must match (workstation count, and the same
    /// believed life functions if reports are to be comparable); seed and
    /// fault plans are free to differ. Nothing is journaled.
    pub fn fork_from_snapshot(
        config: FarmConfig,
        snap_path: impl AsRef<Path>,
    ) -> Result<(FarmReport, SnapshotMeta), SnapshotError> {
        let snap = FarmSnapshot::load(&StdVfs, snap_path.as_ref())?;
        let meta = snap.meta();
        let mut run = snap.restore(config)?;
        let mut sink = NoopSink;
        let mut prof = SpanProfiler::disabled();
        while run.step(&mut sink, &mut prof) {}
        Ok((run.finish(&mut sink, &mut prof), meta))
    }
}

// -- encode/decode helpers ---------------------------------------------------

/// Appends the trailing FNV-1a 64 `checksum` line over everything before
/// it.
fn seal(mut s: String) -> String {
    let checksum = fnv1a64(FNV_OFFSET, s.as_bytes());
    s.push_str(&format!("checksum {checksum:016x}\n"));
    s
}

/// Verifies the trailing checksum line and the version `banner`,
/// returning a cursor over the body after the banner.
fn unseal<'a>(text: &'a str, banner: &str) -> Result<Cursor<'a>, SnapshotError> {
    let malformed = |reason: &str| SnapshotError::Malformed {
        line: text.lines().count() as u64,
        reason: reason.into(),
    };
    let body_end = 1 + text
        .rfind("\nchecksum ")
        .ok_or_else(|| malformed("missing trailing checksum line"))?;
    let expected = text[body_end..]
        .trim_end()
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| malformed("unparsable checksum line"))?;
    let found = fnv1a64(FNV_OFFSET, &text.as_bytes()[..body_end]);
    if expected != found {
        return Err(SnapshotError::Checksum { expected, found });
    }
    let mut cur = Cursor::new(&text[..body_end]);
    let first = cur.next()?;
    if first != banner {
        return Err(SnapshotError::Version {
            found: first.chars().take(40).collect(),
        });
    }
    Ok(cur)
}

/// Reads a sealed text file through `vfs`.
fn read_text(vfs: &dyn Vfs, path: &Path) -> Result<String, SnapshotError> {
    String::from_utf8(vfs.read(path)?).map_err(|_| SnapshotError::Malformed {
        line: 0,
        reason: format!("{} is not UTF-8", path.display()),
    })
}

/// Bitwise-exact float serialization: `f64::to_bits` as fixed-width hex.
fn fx(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_fx(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".into();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if s.len() % 2 != 0 {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Line cursor with 1-based position tracking for typed parse errors.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line_no: u64,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, SnapshotError> {
        self.line_no += 1;
        self.lines.next().ok_or(SnapshotError::Malformed {
            line: self.line_no,
            reason: "unexpected end of snapshot".into(),
        })
    }

    fn malformed(&self, reason: &str) -> SnapshotError {
        SnapshotError::Malformed {
            line: self.line_no,
            reason: reason.into(),
        }
    }

    /// Reads the next line, checks it starts with `keys[0]` and strips all
    /// key tokens, returning an iterator over the value tokens.
    fn fields(&mut self, keys: &[&str]) -> Result<std::vec::IntoIter<&'a str>, SnapshotError> {
        let line = self.next()?;
        let lead = keys[0];
        let rest = line
            .strip_prefix(lead)
            .ok_or_else(|| self.malformed(&format!("expected a {lead:?} line")))?;
        let mut toks: Vec<&str> = Vec::new();
        let keyset: std::collections::HashSet<&str> = keys
            .iter()
            .flat_map(|k| k.split_ascii_whitespace())
            .collect();
        for tok in rest.split_ascii_whitespace() {
            if keyset.contains(tok) {
                continue;
            }
            toks.push(tok);
        }
        Ok(toks.into_iter())
    }

    fn rng_line(&mut self, key: &str) -> Result<[u64; 4], SnapshotError> {
        let line = self.next()?;
        let rest = line
            .strip_prefix(key)
            .ok_or_else(|| self.malformed(&format!("expected a {key:?} line")))?;
        let words: Vec<u64> = rest
            .split_ascii_whitespace()
            .map(|w| u64::from_str_radix(w, 16))
            .collect::<Result<_, _>>()
            .map_err(|_| self.malformed("bad rng word"))?;
        <[u64; 4]>::try_from(words).map_err(|_| self.malformed("rng needs 4 words"))
    }
}

fn p_u64(it: &mut std::vec::IntoIter<&str>) -> Result<u64, SnapshotError> {
    it.next()
        .and_then(|t| t.parse().ok())
        .ok_or(SnapshotError::Malformed {
            line: 0,
            reason: "expected an integer field".into(),
        })
}

fn p_hex(it: &mut std::vec::IntoIter<&str>) -> Result<u64, SnapshotError> {
    it.next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or(SnapshotError::Malformed {
            line: 0,
            reason: "expected a hex field".into(),
        })
}

fn p_f64(it: &mut std::vec::IntoIter<&str>) -> Result<f64, SnapshotError> {
    it.next()
        .and_then(parse_fx)
        .ok_or(SnapshotError::Malformed {
            line: 0,
            reason: "expected a float-bits field".into(),
        })
}

fn p_bool(it: &mut std::vec::IntoIter<&str>) -> Result<bool, SnapshotError> {
    match it.next() {
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        _ => Err(SnapshotError::Malformed {
            line: 0,
            reason: "expected a 0/1 field".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::{PolicySpec, WorkstationConfig};
    use crate::faults::FaultPlan;
    use cs_life::{ArcLife, Uniform};
    use cs_obs::MemorySink;
    use cs_tasks::workloads;
    use std::sync::Arc;

    fn config(seed: u64, intensity: f64) -> FarmConfig {
        let workstations = (0..3)
            .map(|i| {
                let life: ArcLife = Arc::new(Uniform::new(150.0 + 25.0 * (i % 3) as f64).unwrap());
                WorkstationConfig {
                    life: life.clone(),
                    believed: life,
                    c: 2.0,
                    policy: PolicySpec::FixedSize(18.0),
                    gap_mean: 8.0,
                    faults: FaultPlan::scaled(intensity),
                }
            })
            .collect();
        let mut config = FarmConfig::new(workstations, 1e6, seed);
        config.storms = vec![150.0, 400.0];
        config
    }

    fn bag() -> cs_tasks::TaskBag {
        workloads::uniform(90, 1.0).unwrap()
    }

    /// Steps a run `k` times, snapshots, and finishes both the original and
    /// the restored run side by side: both reports must be bitwise equal
    /// and both tails must emit identical events.
    #[test]
    fn mid_run_snapshot_restores_bitwise() {
        for k in [0usize, 1, 17, 100, 400] {
            let mut sink = MemorySink::new();
            let mut prof = SpanProfiler::disabled();
            let farm = Farm::new(config(11, 0.8), bag()).unwrap();
            let mut run = FarmRun::start(farm, &mut sink, &mut prof);
            for _ in 0..k {
                if !run.step(&mut sink, &mut prof) {
                    break;
                }
            }
            let snap = run.save_state(sink.events.len() as u64, 0);
            let encoded = snap.encode();
            let decoded = FarmSnapshot::decode(&encoded).unwrap();
            assert_eq!(
                decoded.encode(),
                encoded,
                "decode(encode) must round-trip, k={k}"
            );

            let mut restored = decoded.restore(config(11, 0.8)).unwrap();
            let mut tail_a = MemorySink::new();
            let mut tail_b = MemorySink::new();
            while run.step(&mut tail_a, &mut prof) {}
            while restored.step(&mut tail_b, &mut prof) {}
            let a = run.finish(&mut tail_a, &mut prof);
            let b = restored.finish(&mut tail_b, &mut prof);
            let lines_a: Vec<String> = tail_a.events.iter().map(|e| e.to_jsonl()).collect();
            let lines_b: Vec<String> = tail_b.events.iter().map(|e| e.to_jsonl()).collect();
            assert_eq!(lines_a, lines_b, "tails diverged after restore, k={k}");
            crate::journal::tests::assert_reports_bitwise_equal(&a, &b);
        }
    }

    #[test]
    fn snapshot_rejects_corruption_and_foreign_farms() {
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        let farm = Farm::new(config(5, 0.5), bag()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..50 {
            run.step(&mut sink, &mut prof);
        }
        let snap = run.save_state(40, 0xDEAD);
        let good = snap.encode();

        // Version gate.
        let vs = good.replacen("v1", "v9", 1);
        // (checksum now wrong too; fix it so the version check is what fires)
        let vs_fixed = refresh_checksum(&vs);
        assert!(matches!(
            FarmSnapshot::decode(&vs_fixed),
            Err(SnapshotError::Version { .. })
        ));

        // A flipped byte anywhere in the body fails the checksum.
        let mut bytes = good.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        match FarmSnapshot::decode(&corrupt) {
            Err(SnapshotError::Checksum { .. }) | Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Checksum/Malformed, got {other:?}"),
        }

        // Garbage is Malformed, not a panic.
        assert!(matches!(
            FarmSnapshot::decode("not a snapshot at all\n"),
            Err(SnapshotError::Malformed { .. })
        ));

        // Wrong workstation count at restore.
        let decoded = FarmSnapshot::decode(&good).unwrap();
        let mut small = config(5, 0.5);
        small.workstations.pop();
        assert!(matches!(
            decoded.restore(small),
            Err(SnapshotError::FarmMismatch { .. })
        ));

        // Errors render.
        for e in [
            SnapshotError::Version { found: "x".into() },
            SnapshotError::Checksum {
                expected: 1,
                found: 2,
            },
            SnapshotError::FarmMismatch { reason: "x".into() },
            SnapshotError::JournalAhead {
                snapshot_records: 9,
                journal_records: 3,
            },
            SnapshotError::JournalMismatch { records: 4 },
            SnapshotError::Malformed {
                line: 2,
                reason: "x".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(!e.kind().to_string().is_empty());
        }
    }

    /// Rewrites the trailing checksum line to match the (possibly edited)
    /// body, so tests can target validation stages past the checksum.
    fn refresh_checksum(text: &str) -> String {
        let body_end = text.rfind("\nchecksum ").unwrap() + 1;
        let body = &text[..body_end];
        format!(
            "{body}checksum {:016x}\n",
            fnv1a64(FNV_OFFSET, body.as_bytes())
        )
    }

    #[test]
    fn fork_with_original_config_reproduces_the_run() {
        let path =
            std::env::temp_dir().join(format!("cs_now_snapshot_fork_{}.snap", std::process::id()));
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        // A long run (many chunks), snapshotted early: plenty of dispatches
        // and fault rolls remain in the tail.
        let farm = Farm::new(config(23, 0.9), workloads::uniform(400, 1.0).unwrap()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..30 {
            run.step(&mut sink, &mut prof);
        }
        run.save_state(0, 0).write_atomic(&StdVfs, &path).unwrap();
        while run.step(&mut sink, &mut prof) {}
        let reference = run.finish(&mut sink, &mut prof);

        let (forked, meta) = Farm::fork_from_snapshot(config(23, 0.9), &path).unwrap();
        crate::journal::tests::assert_reports_bitwise_equal(&reference, &forked);
        assert_eq!(meta.seed, 23);
        assert_eq!(meta.workstations, 3);

        // A perturbed FaultPlan is a genuine what-if: same captured state,
        // different tail. Turning every fault *off* must change the rest of
        // a heavily-faulty run.
        let mut perturbed = config(23, 0.9);
        for w in &mut perturbed.workstations {
            w.faults = FaultPlan::none();
        }
        let (what_if, _) = Farm::fork_from_snapshot(perturbed, &path).unwrap();
        assert!(
            what_if.makespan.to_bits() != reference.makespan.to_bits()
                || what_if.lost_work.to_bits() != reference.lost_work.to_bits(),
            "perturbed fork should diverge"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_snapshot_metadata() {
        let path = std::env::temp_dir().join(format!(
            "cs_now_snapshot_inspect_{}.snap",
            std::process::id()
        ));
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        let farm = Farm::new(config(7, 0.0), bag()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..30 {
            run.step(&mut sink, &mut prof);
        }
        run.save_state(29, 0xBEEF)
            .write_atomic(&StdVfs, &path)
            .unwrap();
        let meta = inspect_snapshot(&path).unwrap();
        assert_eq!(meta.seed, 7);
        assert_eq!(meta.workstations, 3);
        assert_eq!(meta.tasks, 90);
        assert_eq!(meta.journal_records, 29);
        assert!(meta.virtual_time >= 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_meta_roundtrips_and_rejects_corruption() {
        for first in [Some("{\"v\":2,\"t\":3.5,\"type\":\"bank\"}"), None] {
            let meta = SegmentMeta::for_cut(42, 0xDEAD_BEEF_CAFE, first);
            let decoded = SegmentMeta::decode(&meta.encode()).unwrap();
            assert_eq!(decoded.base_records, 42);
            assert_eq!(decoded.base_hash, 0xDEAD_BEEF_CAFE);
            assert_eq!(decoded.first_record_hash, meta.first_record_hash);
            assert!(decoded.matches_first(first));
            // The staleness probe: any other first line must not match.
            assert!(!decoded.matches_first(Some("{\"v\":2,\"other\":1}")));
            assert_eq!(decoded.matches_first(None), first.is_none());
        }
        // Any flipped body byte trips the trailing checksum.
        let text = SegmentMeta::for_cut(7, 0x1234, Some("line")).encode();
        let mut corrupt = text.clone().into_bytes();
        corrupt[10] ^= 0x04;
        let err = SegmentMeta::decode(std::str::from_utf8(&corrupt).unwrap()).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Checksum);
        // A foreign banner (with a fixed-up checksum) is a version error.
        let other = refresh_checksum(&text.replace(SEGMENT_VERSION, "cs-now-segment v99"));
        assert_eq!(
            SegmentMeta::decode(&other).unwrap_err().kind(),
            SnapshotErrorKind::Version
        );
    }

    #[test]
    fn segment_meta_stores_and_loads_through_the_vfs() {
        let path =
            std::env::temp_dir().join(format!("cs_now_segment_meta_{}.seg", std::process::id()));
        let meta = SegmentMeta::for_cut(99, 0xABCD, Some("{\"v\":2}"));
        meta.store(&StdVfs, &path).unwrap();
        let loaded = SegmentMeta::load(&StdVfs, &path).unwrap();
        assert_eq!(loaded.base_records, 99);
        assert_eq!(loaded.base_hash, 0xABCD);
        assert!(loaded.matches_first(Some("{\"v\":2}")));
        // The staging temp file was renamed away, not left behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
