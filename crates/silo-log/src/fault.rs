//! Deterministic fault injection: one seeded scheduler for every layer.
//!
//! A [`FaultPlan<K>`] is a seeded failpoint registry: it schedules faults of
//! kind `K` at specific operation counts of specific sites (`K::Site`). The
//! kind enum says what its layer can break through the [`Fault`] trait: its
//! site type, the random site and kind draws of [`FaultPlan::from_seed`],
//! and its named [`FaultPlan::profile`]s. This module supplies the
//! durability layer's kinds ([`FaultKind`] at [`FaultSite`]s, injected by a
//! [`FaultSink`] and by the checkpointer's crash points); `silo-net` plugs
//! its wire faults into the same plan.
//!
//! Sinks are wrapped in a [`FaultSink`] only when a plan is configured
//! through [`crate::LogConfig::fault`], so production configurations pay
//! nothing — the hot path never even branches on a disabled plan.
//!
//! Plans are either built explicitly ([`FaultPlan::new`] +
//! [`FaultPlan::fail_at`], for unit tests that need one precise fault) or
//! derived from a seed ([`FaultPlan::from_seed`] / [`FaultPlan::profile`],
//! for the fault-matrix and chaos suites: the same seed always yields the
//! same schedule, so every CI failure is reproducible from the printed seed
//! alone).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::sink::{LogSink, SinkError, TruncateOutcome};

/// A fault kind a [`FaultPlan`] can schedule, implemented by each layer's
/// kind enum.
pub trait Fault: Clone + PartialEq + std::fmt::Debug {
    /// Where faults of this kind fire.
    type Site: Copy + PartialEq + std::fmt::Debug;
    /// [`FaultPlan::from_seed`] draws operation counts in `1..=SEEDED_SPAN`.
    const SEEDED_SPAN: u64;
    /// Draws the site of one [`FaultPlan::from_seed`] fault.
    fn random_site(state: &mut u64) -> Self::Site;
    /// Draws the kind of one [`FaultPlan::from_seed`] fault at `site`.
    fn random_kind(state: &mut u64, site: Self::Site) -> Self;
    /// Builds the named fault family from the seeded `state`; panics on an
    /// unknown name.
    fn profile(name: &str, state: &mut u64) -> FaultPlan<Self>;
}

/// xorshift64* — deterministic, dependency-free PRNG for seeded schedules
/// and backoff jitter.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

struct Scheduled<K: Fault> {
    site: K::Site,
    /// Fire on the `at`-th operation at `site` (1-based).
    at: u64,
    kind: K,
}

struct Schedule<K: Fault> {
    pending: Vec<Scheduled<K>>,
    /// Operations counted so far, per site seen.
    ops: Vec<(K::Site, u64)>,
    injected: u64,
}

/// A deterministic schedule of faults, shared by every component of one
/// subsystem (all sinks and the checkpointer of one logger, or all
/// connections of one network endpoint), which count into the same per-site
/// counters.
pub struct FaultPlan<K: Fault = FaultKind> {
    schedule: Mutex<Schedule<K>>,
}

impl<K: Fault> FaultPlan<K> {
    /// An empty plan (schedule faults with [`FaultPlan::fail_at`]).
    pub fn new() -> Self {
        FaultPlan {
            schedule: Mutex::new(Schedule {
                pending: Vec::new(),
                ops: Vec::new(),
                injected: 0,
            }),
        }
    }

    /// Schedules `kind` to fire on the `nth` operation (1-based) at `site`.
    pub fn fail_at(self, site: K::Site, nth: u64, kind: K) -> Self {
        self.schedule.lock().pending.push(Scheduled {
            site,
            at: nth.max(1),
            kind,
        });
        self
    }

    /// A random mixed schedule derived from `seed`: a handful of faults of
    /// random kinds at random early operation counts.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed | 1;
        let mut plan = Self::new();
        let faults = 1 + (xorshift(&mut state) % 4);
        for _ in 0..faults {
            let site = K::random_site(&mut state);
            let at = 1 + (xorshift(&mut state) % K::SEEDED_SPAN);
            let kind = K::random_kind(&mut state, site);
            plan = plan.fail_at(site, at, kind);
        }
        plan
    }

    /// A schedule of one fault *family* (so tests can assert family-specific
    /// invariants) with seed-determined positions; the families are listed
    /// on each kind's [`Fault::profile`].
    pub fn profile(profile: &str, seed: u64) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15 | 1;
        K::profile(profile, &mut state)
    }

    /// Counts one operation at `site` and returns the fault scheduled for it,
    /// if any. Each scheduled fault fires at most once.
    pub fn next_fault(&self, site: K::Site) -> Option<K> {
        let mut schedule = self.schedule.lock();
        let count = match schedule.ops.iter_mut().find(|(s, _)| *s == site) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                schedule.ops.push((site, 1));
                1
            }
        };
        let hit = schedule
            .pending
            .iter()
            .position(|s| s.site == site && s.at == count)?;
        schedule.injected += 1;
        Some(schedule.pending.swap_remove(hit).kind)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.schedule.lock().injected
    }
}

impl<K: Fault> Default for FaultPlan<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Lists the faults still pending as `(site, at, kind)`.
impl<K: Fault> std::fmt::Debug for FaultPlan<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(
                self.schedule
                    .lock()
                    .pending
                    .iter()
                    .map(|s| (s.site, s.at, &s.kind)),
            )
            .finish()
    }
}

/// Where in the durability pipeline a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A logger thread appending one group-commit round to its sink.
    Append,
    /// A logger thread syncing its sink.
    Sync,
    /// A logger thread rotating to a fresh log segment.
    Rotate,
    /// A checkpoint slice writer, between tables (mid-checkpoint).
    CkptSlice,
    /// The checkpointer, after the slices are durable but before the
    /// `MANIFEST` temp file is renamed into place.
    CkptBeforeManifest,
    /// The checkpointer, right after the `MANIFEST` rename (checkpoint is
    /// complete on disk, nothing else has happened).
    CkptAfterManifest,
    /// The checkpointer, after the manifest directory sync but before the log
    /// is truncated against the new checkpoint.
    CkptBeforeTruncate,
}

/// What kind of failure to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error: the operation fails without side effects and a
    /// retry may succeed.
    Transient,
    /// A permanent I/O error: the operation fails and retries cannot help
    /// (dead device).
    Permanent,
    /// The device is out of space (`ENOSPC`). Retryable — log truncation can
    /// free space.
    NoSpace,
    /// A short (torn) write: only a prefix of the data reaches the sink, then
    /// the device dies. Models a crash tearing the last append.
    ShortWrite,
    /// Silent corruption: one bit of the appended data is flipped and the
    /// write then *succeeds*. Only checksums can catch this.
    BitFlip {
        /// Which bit of the payload to flip (taken modulo the payload size).
        bit: u64,
    },
    /// The sync succeeds, but only after stalling this long (slow disk).
    SyncStall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Abort the enclosing operation in place, without cleanup — the
    /// checkpointer's crash points use this to simulate `kill -9` at
    /// protocol-critical instants.
    Crash,
}

impl Fault for FaultKind {
    type Site = FaultSite;
    const SEEDED_SPAN: u64 = 24;

    fn random_site(state: &mut u64) -> FaultSite {
        match xorshift(state) % 5 {
            0 => FaultSite::Append,
            1 => FaultSite::Sync,
            2 => FaultSite::Rotate,
            3 => FaultSite::CkptSlice,
            _ => FaultSite::CkptBeforeManifest,
        }
    }

    fn random_kind(state: &mut u64, site: FaultSite) -> FaultKind {
        match site {
            FaultSite::CkptSlice
            | FaultSite::CkptBeforeManifest
            | FaultSite::CkptAfterManifest
            | FaultSite::CkptBeforeTruncate => FaultKind::Crash,
            _ => match xorshift(state) % 6 {
                0 => FaultKind::Transient,
                1 => FaultKind::Permanent,
                2 => FaultKind::NoSpace,
                3 => FaultKind::ShortWrite,
                4 => FaultKind::BitFlip {
                    bit: xorshift(state),
                },
                _ => FaultKind::SyncStall {
                    millis: 1 + xorshift(state) % 20,
                },
            },
        }
    }

    /// | profile | injected faults |
    /// |---|---|
    /// | `transient` | bursts of retryable errors on append/sync |
    /// | `permanent` | one permanent error on append or sync |
    /// | `torn` | one short (torn) write on append |
    /// | `corrupt` | one silent bit flip on append |
    /// | `enospc` | `ENOSPC` on rotate and append |
    /// | `stall` | sync stalls |
    /// | `crash` | one checkpointer crash point |
    fn profile(name: &str, state: &mut u64) -> FaultPlan {
        let plan = FaultPlan::new();
        let pick = |state: &mut u64, range: u64| 1 + (xorshift(state) % range);
        match name {
            "transient" => {
                // A burst: several consecutive appends/syncs fail transiently,
                // exercising the backoff loop more than once per round.
                let start = pick(state, 12);
                (0..1 + (xorshift(state) % 3))
                    .fold(plan, |plan, i| {
                        plan.fail_at(FaultSite::Append, start + i, FaultKind::Transient)
                    })
                    .fail_at(FaultSite::Sync, pick(state, 12), FaultKind::Transient)
            }
            "permanent" => {
                let site = if xorshift(state) % 2 == 0 {
                    FaultSite::Append
                } else {
                    FaultSite::Sync
                };
                plan.fail_at(site, pick(state, 16), FaultKind::Permanent)
            }
            "torn" => plan.fail_at(FaultSite::Append, pick(state, 16), FaultKind::ShortWrite),
            "corrupt" => plan.fail_at(
                FaultSite::Append,
                pick(state, 16),
                FaultKind::BitFlip {
                    bit: xorshift(state),
                },
            ),
            "enospc" => plan
                .fail_at(FaultSite::Rotate, 1, FaultKind::NoSpace)
                .fail_at(FaultSite::Append, pick(state, 12), FaultKind::NoSpace),
            "stall" => plan
                .fail_at(
                    FaultSite::Sync,
                    pick(state, 8),
                    FaultKind::SyncStall {
                        millis: 5 + xorshift(state) % 40,
                    },
                )
                .fail_at(
                    FaultSite::Sync,
                    8 + pick(state, 8),
                    FaultKind::SyncStall {
                        millis: 5 + xorshift(state) % 40,
                    },
                ),
            "crash" => {
                let site = match xorshift(state) % 4 {
                    0 => FaultSite::CkptSlice,
                    1 => FaultSite::CkptBeforeManifest,
                    2 => FaultSite::CkptAfterManifest,
                    _ => FaultSite::CkptBeforeTruncate,
                };
                plan.fail_at(site, pick(state, 3), FaultKind::Crash)
            }
            other => panic!("unknown fault profile {other:?}"),
        }
    }
}

/// The error payload of an injected checkpoint crash, so callers can tell an
/// injected abort (skip cleanup — simulate `kill -9`) from a real I/O error.
#[derive(Debug)]
pub struct InjectedCrash(pub FaultSite);

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash at {:?}", self.0)
    }
}

impl std::error::Error for InjectedCrash {}

/// Whether an I/O error is an injected checkpoint crash.
pub fn is_injected_crash(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<InjectedCrash>())
}

/// Counts one pass through the crash point `site` and fails with an
/// [`InjectedCrash`] when `plan` schedules one there, so the caller can
/// abort *without cleanup* — simulating `kill -9` at a protocol-critical
/// instant.
pub(crate) fn crash_point(plan: Option<&Arc<FaultPlan>>, site: FaultSite) -> std::io::Result<()> {
    match plan.and_then(|plan| plan.next_fault(site)) {
        Some(FaultKind::Crash) => Err(std::io::Error::other(InjectedCrash(site))),
        _ => Ok(()),
    }
}

/// The error or stall `fault` injects into sink operation `op`; `Ok` lets
/// the operation proceed untouched. Kinds that alter the data itself (torn
/// writes, bit flips) are the caller's to handle; elsewhere a torn write
/// kills the device and a bit flip has nothing to flip.
fn inject(op: &'static str, fault: Option<FaultKind>) -> Result<(), SinkError> {
    match fault {
        None | Some(FaultKind::Crash) | Some(FaultKind::BitFlip { .. }) => Ok(()),
        Some(FaultKind::Transient) => Err(SinkError::injected(op, true)),
        Some(FaultKind::Permanent) | Some(FaultKind::ShortWrite) => {
            Err(SinkError::injected(op, false))
        }
        Some(FaultKind::NoSpace) => Err(SinkError::no_space(op, true)),
        Some(FaultKind::SyncStall { millis }) => {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            Ok(())
        }
    }
}

/// A [`LogSink`] wrapper that injects the faults a [`FaultPlan`] schedules.
///
/// Fault semantics preserve the sink contract ([`LogSink::append`]): a
/// *transient* failure (including `ENOSPC`) is injected **before** any byte
/// reaches the inner sink, so a retry is safe; a *torn* write appends a
/// prefix and then fails permanently (the tail stays torn, exactly like a
/// crash mid-append); a *bit flip* silently corrupts the data and reports
/// success.
pub struct FaultSink {
    inner: Box<dyn LogSink + Send>,
    plan: Arc<FaultPlan>,
}

impl FaultSink {
    /// Wraps `inner`, injecting the faults `plan` schedules.
    pub fn new(inner: Box<dyn LogSink + Send>, plan: Arc<FaultPlan>) -> FaultSink {
        FaultSink { inner, plan }
    }
}

impl LogSink for FaultSink {
    fn append(&mut self, data: &[u8]) -> Result<(), SinkError> {
        match self.plan.next_fault(FaultSite::Append) {
            Some(FaultKind::ShortWrite) => {
                // A torn write: a prefix lands, then the device dies. The
                // inner result is irrelevant — the sink is failed either way.
                let torn = data.len() / 2;
                let _ = self.inner.append(&data[..torn]);
                Err(SinkError::injected_torn("append", torn, data.len()))
            }
            Some(FaultKind::BitFlip { bit }) if !data.is_empty() => {
                let mut corrupted = data.to_vec();
                let pos = (bit / 8) as usize % corrupted.len();
                corrupted[pos] ^= 1 << (bit % 8);
                self.inner.append(&corrupted)
            }
            fault => {
                inject("append", fault)?;
                self.inner.append(data)
            }
        }
    }

    fn sync(&mut self) -> Result<(), SinkError> {
        inject("sync", self.plan.next_fault(FaultSite::Sync))?;
        self.inner.sync()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn observe_epoch(&mut self, epoch: u64) {
        self.inner.observe_epoch(epoch);
    }

    fn should_rotate(&self) -> bool {
        self.inner.should_rotate()
    }

    fn rotate(&mut self) -> Result<bool, SinkError> {
        inject("rotate", self.plan.next_fault(FaultSite::Rotate))?;
        self.inner.rotate()
    }

    fn truncate_obsolete(&mut self, ckpt_epoch: u64) -> TruncateOutcome {
        self.inner.truncate_obsolete(ckpt_epoch)
    }

    fn reopen(&mut self) -> Result<bool, SinkError> {
        // Reopens are the *recovery* from an injected sync fault; injecting
        // here would only mask the site under test.
        self.inner.reopen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_fault_fires_exactly_once_at_its_count() {
        let plan = FaultPlan::new().fail_at(FaultSite::Append, 3, FaultKind::Transient);
        assert_eq!(plan.next_fault(FaultSite::Append), None);
        assert_eq!(plan.next_fault(FaultSite::Append), None);
        assert_eq!(
            plan.next_fault(FaultSite::Append),
            Some(FaultKind::Transient)
        );
        assert_eq!(plan.next_fault(FaultSite::Append), None);
        assert_eq!(plan.injected(), 1);
        assert_eq!(format!("{plan:?}"), "[]", "every scheduled fault fired");
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new()
            .fail_at(FaultSite::Append, 1, FaultKind::Permanent)
            .fail_at(FaultSite::Sync, 2, FaultKind::NoSpace)
            .fail_at(FaultSite::Rotate, 2, FaultKind::SyncStall { millis: 0 });
        assert_eq!(plan.next_fault(FaultSite::Sync), None);
        assert_eq!(plan.next_fault(FaultSite::Rotate), None);
        assert_eq!(
            plan.next_fault(FaultSite::Append),
            Some(FaultKind::Permanent)
        );
        assert_eq!(plan.next_fault(FaultSite::Sync), Some(FaultKind::NoSpace));
        assert_eq!(
            plan.next_fault(FaultSite::Rotate),
            Some(FaultKind::SyncStall { millis: 0 })
        );
    }

    #[test]
    fn crash_points_fail_with_an_injected_crash_once() {
        let plan =
            Arc::new(FaultPlan::new().fail_at(FaultSite::CkptBeforeManifest, 1, FaultKind::Crash));
        let err = crash_point(Some(&plan), FaultSite::CkptBeforeManifest).unwrap_err();
        assert!(is_injected_crash(&err));
        assert!(crash_point(Some(&plan), FaultSite::CkptBeforeManifest).is_ok());
        assert!(crash_point(None, FaultSite::CkptBeforeManifest).is_ok());
        assert_eq!(plan.injected(), 1);
    }
}
