//! Shared eDRAM capacity accounting for concurrent serving sessions.
//!
//! The paper's KV policies exist because on-chip capacity is scarce (§4.1):
//! one 4 MB eDRAM array holds the KV working sets of *every* request decoding
//! on the accelerator at once.  [`CapacityLedger`] is the single source of
//! truth for that shared budget.  Each admitted session holds a *lease* whose
//! byte count grows as its context grows; the ledger tracks the total live
//! bytes against the device capacity, the lifetime high-water mark, and the
//! bytes oversubscribed past capacity (which a serving stack must spill to
//! off-chip DRAM and charge at [`DramSpec`](crate::DramSpec) cost).
//!
//! Two reservation paths exist on purpose:
//!
//! * [`reserve`](CapacityLedger::reserve) is *checked* — it refuses to admit a
//!   footprint that does not fit in the remaining capacity.  Admission control
//!   uses this: the ledger never exceeds capacity through `reserve` alone.
//! * [`force_reserve`](CapacityLedger::force_reserve) and
//!   [`grow`](CapacityLedger::grow) are *unchecked* — decoding a token grows a
//!   live session's KV no matter how full the device is, so growth may
//!   oversubscribe.  The excess is reported as
//!   [`oversubscribed_bytes`](CapacityLedger::oversubscribed_bytes) rather
//!   than rejected.
//!
//! Besides per-session leases, the ledger arbitrates a **shared pool** for
//! cross-session prefix sharing: a published prefix's KV bytes are charged
//! against capacity *once*, however many sessions attach to it
//! ([`attach_shared`](CapacityLedger::attach_shared) /
//! [`detach_shared`](CapacityLedger::detach_shared) refcount the entry), and
//! every attachment beyond the first accrues
//! [`dedup_savings_bytes`](CapacityLedger::dedup_savings_bytes) — the bytes
//! deduplication kept off the device.

/// Handle to one session's reservation inside a [`CapacityLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseId(usize);

/// Why a checked reservation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// The requested bytes do not fit in the remaining capacity.
    InsufficientCapacity {
        /// Bytes the caller asked for.
        requested: u64,
        /// Bytes still available below the capacity line.
        available: u64,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::InsufficientCapacity {
                requested,
                available,
            } => write!(
                f,
                "cannot reserve {requested} bytes: only {available} available"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Tracks live KV bytes per session against one shared memory capacity.
///
/// Invariants (asserted by the property tests):
///
/// * `live_bytes` always equals the sum of all outstanding lease sizes, so it
///   can never go negative and `release` always returns exactly what the
///   lease held;
/// * `reserve` never pushes `live_bytes` past `capacity_bytes` — only
///   `force_reserve`/`grow` can oversubscribe, and the excess is reported via
///   `oversubscribed_bytes`;
/// * `high_water_bytes` is monotone non-decreasing and always `>= live_bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityLedger {
    capacity_bytes: u64,
    leases: Vec<Option<u64>>,
    live_bytes: u64,
    high_water_bytes: u64,
    shared: Vec<SharedPoolEntry>,
    dedup_savings_bytes: u64,
}

/// One refcounted shared-pool entry (a published prefix's resident bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharedPoolEntry {
    /// Caller-chosen identity of the shared object (the prefix entry id).
    tag: u64,
    /// Resident bytes, charged once.
    bytes: u64,
    /// Sessions currently attached.
    refs: usize,
}

impl CapacityLedger {
    /// A ledger arbitrating `capacity_bytes` of shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "ledger capacity must be non-zero");
        CapacityLedger {
            capacity_bytes,
            leases: Vec::new(),
            live_bytes: 0,
            high_water_bytes: 0,
            shared: Vec::new(),
            dedup_savings_bytes: 0,
        }
    }

    /// The arbitrated capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently held by outstanding leases.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes still available below the capacity line (zero when
    /// oversubscribed).
    pub(crate) fn available_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.live_bytes)
    }

    /// Whether a checked reservation of `bytes` would succeed right now.
    pub fn can_fit(&self, bytes: u64) -> bool {
        bytes <= self.available_bytes()
    }

    /// Highest `live_bytes` ever observed.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }

    /// Bytes currently held past capacity — the working set a serving stack
    /// must spill to off-chip DRAM.
    pub fn oversubscribed_bytes(&self) -> u64 {
        self.live_bytes.saturating_sub(self.capacity_bytes)
    }

    /// Number of outstanding leases.
    pub fn active_leases(&self) -> usize {
        self.leases.iter().filter(|l| l.is_some()).count()
    }

    fn open_lease(&mut self, bytes: u64) -> LeaseId {
        self.live_bytes += bytes;
        self.high_water_bytes = self.high_water_bytes.max(self.live_bytes);
        self.leases.push(Some(bytes));
        LeaseId(self.leases.len() - 1)
    }

    /// Checked reservation: opens a lease of `bytes` only if it fits in the
    /// remaining capacity.  This is the admission-control path — the ledger
    /// can never exceed capacity through `reserve` alone.
    pub fn reserve(&mut self, bytes: u64) -> Result<LeaseId, LedgerError> {
        if !self.can_fit(bytes) {
            return Err(LedgerError::InsufficientCapacity {
                requested: bytes,
                available: self.available_bytes(),
            });
        }
        Ok(self.open_lease(bytes))
    }

    /// Unchecked reservation: opens a lease of `bytes` even if it
    /// oversubscribes the device.  Used to guarantee forward progress when a
    /// single request is larger than the whole capacity.
    pub fn force_reserve(&mut self, bytes: u64) -> LeaseId {
        self.open_lease(bytes)
    }

    /// Grows a live lease by `additional_bytes` (KV growth during decoding).
    /// Growth is never refused; the excess past capacity shows up in
    /// [`oversubscribed_bytes`](CapacityLedger::oversubscribed_bytes).
    ///
    /// # Panics
    ///
    /// Panics if the lease was already released.
    pub fn grow(&mut self, lease: LeaseId, additional_bytes: u64) {
        let slot = self.leases[lease.0]
            .as_mut()
            .expect("lease already released");
        *slot += additional_bytes;
        self.live_bytes += additional_bytes;
        self.high_water_bytes = self.high_water_bytes.max(self.live_bytes);
    }

    /// Applies a batch of lease growths as one commit — the per-tick commit
    /// of the serving scheduler, which collects every active session's decode
    /// growth for a tick (possibly computed on worker threads) and lands the
    /// whole tick on the ledger at once, on the coordinating thread.
    ///
    /// Equivalent to calling [`grow`](CapacityLedger::grow) once per entry in
    /// order: growths only ever *increase* `live_bytes`, so the high-water
    /// and peak-oversubscription marks after the batch equal the marks the
    /// individual calls would have produced (they are maxima of a monotone
    /// sequence, i.e. its final value) — asserted by a unit test.  The
    /// watermark bookkeeping runs once per commit instead of once per lease.
    ///
    /// # Panics
    ///
    /// Panics if any lease in the batch was already released; leases before
    /// the offending entry are grown (the commit is not atomic under panic —
    /// a released lease in a tick commit is a scheduler logic error).
    pub fn commit_growth(&mut self, growths: &[(LeaseId, u64)]) {
        for &(lease, additional_bytes) in growths {
            let slot = self.leases[lease.0]
                .as_mut()
                .expect("lease already released");
            *slot += additional_bytes;
            self.live_bytes += additional_bytes;
        }
        self.high_water_bytes = self.high_water_bytes.max(self.live_bytes);
    }

    /// Releases a lease, returning the bytes it held.  Releasing is what lets
    /// admission control back-fill waiting requests.
    ///
    /// # Panics
    ///
    /// Panics if the lease was already released.
    pub fn release(&mut self, lease: LeaseId) -> u64 {
        let bytes = self.leases[lease.0].take().expect("lease already released");
        self.live_bytes -= bytes;
        bytes
    }

    /// Whether the shared pool currently holds `tag`.
    pub fn has_shared(&self, tag: u64) -> bool {
        self.shared.iter().any(|e| e.tag == tag)
    }

    /// Bytes the shared pool currently charges against capacity (each tag
    /// counted once).
    pub fn shared_bytes(&self) -> u64 {
        self.shared.iter().map(|e| e.bytes).sum()
    }

    /// Cumulative bytes kept off the device by shared-pool deduplication:
    /// every attachment beyond a tag's first adds the tag's bytes here (a
    /// single-tenant stack would have charged them again).
    pub fn dedup_savings_bytes(&self) -> u64 {
        self.dedup_savings_bytes
    }

    /// Attaches a session to the shared-pool entry `tag` of `bytes` bytes.
    ///
    /// The first attachment charges the bytes against capacity (unchecked,
    /// like [`force_reserve`](CapacityLedger::force_reserve): the shared data
    /// already physically exists); every further attachment only bumps the
    /// refcount and records the deduplication saving.  Returns `true` when
    /// this call was the charging one.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is already pooled with a different byte size (a tag
    /// identifies one immutable published object).
    pub fn attach_shared(&mut self, tag: u64, bytes: u64) -> bool {
        if let Some(entry) = self.shared.iter_mut().find(|e| e.tag == tag) {
            assert_eq!(
                entry.bytes, bytes,
                "shared tag re-attached with a different size"
            );
            entry.refs += 1;
            self.dedup_savings_bytes += bytes;
            return false;
        }
        self.shared.push(SharedPoolEntry {
            tag,
            bytes,
            refs: 1,
        });
        self.live_bytes += bytes;
        self.high_water_bytes = self.high_water_bytes.max(self.live_bytes);
        true
    }

    /// Detaches a session from shared-pool entry `tag`.  The last detachment
    /// releases the charged bytes.  Returns `true` when the entry was fully
    /// released.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not pooled.
    pub fn detach_shared(&mut self, tag: u64) -> bool {
        let index = self
            .shared
            .iter()
            .position(|e| e.tag == tag)
            .expect("detach of an unpooled shared tag");
        self.shared[index].refs -= 1;
        if self.shared[index].refs == 0 {
            self.live_bytes -= self.shared[index].bytes;
            self.shared.remove(index);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip() {
        let mut ledger = CapacityLedger::new(100);
        let a = ledger.reserve(40).unwrap();
        let b = ledger.reserve(60).unwrap();
        assert_eq!(ledger.live_bytes(), 100);
        assert_eq!(ledger.available_bytes(), 0);
        assert_eq!(ledger.active_leases(), 2);
        assert_eq!(ledger.release(a), 40);
        assert_eq!(ledger.live_bytes(), 60);
        assert_eq!(ledger.release(b), 60);
        assert_eq!(ledger.live_bytes(), 0);
        assert_eq!(ledger.high_water_bytes(), 100);
    }

    #[test]
    fn checked_reserve_refuses_overflow() {
        let mut ledger = CapacityLedger::new(100);
        ledger.reserve(80).unwrap();
        let err = ledger.reserve(30).unwrap_err();
        assert_eq!(
            err,
            LedgerError::InsufficientCapacity {
                requested: 30,
                available: 20
            }
        );
        // The failed reservation left no trace.
        assert_eq!(ledger.live_bytes(), 80);
        assert_eq!(ledger.active_leases(), 1);
    }

    #[test]
    fn growth_oversubscribes_instead_of_failing() {
        let mut ledger = CapacityLedger::new(100);
        let lease = ledger.reserve(90).unwrap();
        ledger.grow(lease, 30);
        assert_eq!(ledger.live_bytes(), 120);
        assert_eq!(ledger.oversubscribed_bytes(), 20);
        ledger.release(lease);
        assert_eq!(ledger.oversubscribed_bytes(), 0);
        // The high-water mark persists after release.
        assert_eq!(ledger.high_water_bytes(), 120);
    }

    #[test]
    fn batched_commit_matches_sequential_grows() {
        // The per-tick commit must be observationally identical to growing
        // each lease one call at a time, including the watermarks.
        let mut batched = CapacityLedger::new(100);
        let mut sequential = CapacityLedger::new(100);
        let b0 = batched.reserve(30).unwrap();
        let b1 = batched.reserve(20).unwrap();
        let s0 = sequential.reserve(30).unwrap();
        let s1 = sequential.reserve(20).unwrap();

        batched.commit_growth(&[(b0, 25), (b1, 40), (b0, 5)]);
        sequential.grow(s0, 25);
        sequential.grow(s1, 40);
        sequential.grow(s0, 5);

        assert_eq!(batched, sequential);
        assert_eq!(batched.live_bytes(), 120);
        assert_eq!(batched.high_water_bytes(), 120);
        assert_eq!(batched.oversubscribed_bytes(), 20);
        // An empty commit is a no-op.
        batched.commit_growth(&[]);
        assert_eq!(batched, sequential);
    }

    #[test]
    #[should_panic(expected = "lease already released")]
    fn batched_commit_rejects_released_leases() {
        let mut ledger = CapacityLedger::new(100);
        let lease = ledger.reserve(10).unwrap();
        ledger.release(lease);
        ledger.commit_growth(&[(lease, 5)]);
    }

    #[test]
    fn force_reserve_admits_requests_larger_than_capacity() {
        let mut ledger = CapacityLedger::new(10);
        let lease = ledger.force_reserve(25);
        assert_eq!(ledger.oversubscribed_bytes(), 15);
        assert!(!ledger.can_fit(1));
        ledger.release(lease);
        assert!(ledger.can_fit(10));
    }

    #[test]
    #[should_panic(expected = "lease already released")]
    fn double_release_panics() {
        let mut ledger = CapacityLedger::new(10);
        let lease = ledger.reserve(5).unwrap();
        ledger.release(lease);
        ledger.release(lease);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        CapacityLedger::new(0);
    }

    #[test]
    fn shared_pool_charges_once_and_refcounts() {
        let mut ledger = CapacityLedger::new(100);
        assert!(ledger.attach_shared(7, 40), "first attach charges");
        assert!(!ledger.attach_shared(7, 40), "second attach only refcounts");
        assert!(!ledger.attach_shared(7, 40));
        assert_eq!(ledger.live_bytes(), 40);
        assert_eq!(ledger.shared_bytes(), 40);
        assert_eq!(ledger.dedup_savings_bytes(), 80);
        assert!(ledger.has_shared(7));
        // Private leases coexist with the pool.
        let lease = ledger.reserve(30).unwrap();
        assert_eq!(ledger.live_bytes(), 70);
        assert!(!ledger.detach_shared(7));
        assert!(!ledger.detach_shared(7));
        assert!(ledger.detach_shared(7), "last detach releases");
        assert!(!ledger.has_shared(7));
        assert_eq!(ledger.live_bytes(), 30);
        ledger.release(lease);
        assert_eq!(ledger.live_bytes(), 0);
        // Savings are cumulative and persist after release.
        assert_eq!(ledger.dedup_savings_bytes(), 80);
        assert_eq!(ledger.high_water_bytes(), 70);
    }

    #[test]
    fn shared_pool_counts_toward_admission_capacity() {
        let mut ledger = CapacityLedger::new(100);
        ledger.attach_shared(1, 60);
        // Admission sees the true footprint: only 40 bytes remain.
        assert!(!ledger.can_fit(41));
        assert!(ledger.can_fit(40));
        // The pool can oversubscribe like force_reserve (the data exists).
        ledger.attach_shared(2, 70);
        assert_eq!(ledger.oversubscribed_bytes(), 30);
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn shared_tag_size_is_immutable() {
        let mut ledger = CapacityLedger::new(100);
        ledger.attach_shared(3, 10);
        ledger.attach_shared(3, 11);
    }

    #[test]
    #[should_panic(expected = "unpooled shared tag")]
    fn detach_unknown_tag_panics() {
        let mut ledger = CapacityLedger::new(100);
        ledger.detach_shared(9);
    }
}
