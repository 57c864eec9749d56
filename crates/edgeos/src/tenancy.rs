//! Multi-tenant XEdge serving: workload classes, per-tenant admission +
//! fair queueing.
//!
//! §III-B's XEdge servers are shared infrastructure — many vehicles,
//! belonging to different service tenants (OEM analytics, city traffic,
//! third-party apps), contend for the same accelerators, and §IV-B/§IV-C
//! insist those vehicles run *heterogeneous* services: real-time
//! detection, infotainment streaming, and personalized model training.
//! This module supplies what a shared server needs to multiplex them: a
//! first-class [`WorkloadClass`] vocabulary every layer of the serving
//! path speaks, a per-tenant admission controller ([`TenantAdmission`])
//! that bounds each tenant's queue so one noisy tenant cannot starve the
//! rest, and a deficit round-robin fair queue ([`FairQueue`]) that
//! interleaves admitted requests proportionally to their cost — over
//! plain tenants or over per-tenant-per-class flows
//! ([`ClassQueueKey`]) with per-class quanta.
//!
//! All structures iterate keys in order and use integer arithmetic
//! only, so any same-input sequence of operations produces bit-identical
//! outcomes — a requirement of the deterministic fleet engine built on
//! top.

use std::collections::VecDeque;
use std::fmt;

/// The vehicular workload classes a shared XEdge deployment multiplexes
/// (§IV-B's heterogeneous service mix reduced to its three cost shapes).
///
/// Each class carries a distinct cost model along the whole serving
/// path — bytes moved, work units charged in the fair queue, deadline
/// budget, and what "degraded" means when the deadline is missed:
///
/// * [`Detection`](WorkloadClass::Detection) — real-time perception
///   offload (pedestrian alerts, scan-type detection). Small uploads,
///   tiny downloads, tight deadlines; a miss degrades to reduced-
///   accuracy on-VCU inference.
/// * [`Infotainment`](WorkloadClass::Infotainment) — streaming chunks
///   transcoded at the edge (E13). Tiny uplink, heavy downlink, loose
///   deadline; a miss falls back to a lower-bitrate on-board decode.
/// * [`PbeamTraining`](WorkloadClass::PbeamTraining) — personalized
///   driving-model training rounds (`vdap_models::pbeam`): a gradient
///   upload plus model-delta download per round, the loosest deadline;
///   a missed round is *skipped*, not locally recomputed — training
///   just converges a round later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum WorkloadClass {
    /// Real-time detection offload (scan-type perception requests).
    #[default]
    Detection,
    /// Infotainment streaming via edge transcode.
    Infotainment,
    /// pBEAM personalized-model training rounds.
    PbeamTraining,
}

impl WorkloadClass {
    /// Every class, in canonical (ordinal) order.
    pub const ALL: [WorkloadClass; 3] = [
        WorkloadClass::Detection,
        WorkloadClass::Infotainment,
        WorkloadClass::PbeamTraining,
    ];

    /// Dense index of this class (`ALL[c.index()] == c`).
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            WorkloadClass::Detection => 0,
            WorkloadClass::Infotainment => 1,
            WorkloadClass::PbeamTraining => 2,
        }
    }

    /// Stable lower-case label (metrics rows, fault-plan targets).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            WorkloadClass::Detection => "detection",
            WorkloadClass::Infotainment => "infotainment",
            WorkloadClass::PbeamTraining => "pbeam-training",
        }
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifies a service tenant sharing an XEdge server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(u32);

impl TenantId {
    /// Wraps a raw tenant number.
    #[must_use]
    pub const fn new(id: u32) -> Self {
        TenantId(id)
    }

    /// Raw tenant number.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-tenant admission control with a fixed queue cap.
///
/// Each tenant may have at most `queue_cap` requests outstanding
/// (admitted but not yet released). Requests past the cap are rejected
/// and counted — the fleet's admission-reject-rate metric.
///
/// The gate keeps one table row per tenant it has seen, sorted by id:
/// the tenant's outstanding depth and its cap override, if one is in
/// force. Tenants are a handful of dense ids, so an admission and a
/// release are one binary search each; a row whose depth drains to
/// zero stays in the table.
///
/// # Examples
///
/// ```
/// use vdap_edgeos::{TenantAdmission, TenantId};
///
/// let mut adm = TenantAdmission::new(2);
/// let t = TenantId::new(0);
/// assert!(adm.try_admit(t));
/// assert!(adm.try_admit(t));
/// assert!(!adm.try_admit(t)); // cap reached
/// adm.release(t);
/// assert!(adm.try_admit(t)); // slot freed
/// assert_eq!(adm.rejected(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAdmission {
    queue_cap: usize,
    /// One row per tenant ever named, sorted by id.
    tenants: Vec<TenantRow>,
    admitted: u64,
    rejected: u64,
}

/// One tenant's row in a [`TenantAdmission`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TenantRow {
    id: TenantId,
    /// Requests admitted and not yet released.
    depth: usize,
    /// A temporary cap override (a quota flap); `None` = the nominal
    /// `queue_cap` applies.
    cap: Option<usize>,
}

impl TenantAdmission {
    /// Creates a controller allowing `queue_cap` outstanding requests
    /// per tenant.
    ///
    /// # Panics
    ///
    /// Panics when `queue_cap` is zero.
    #[must_use]
    pub fn new(queue_cap: usize) -> Self {
        assert!(queue_cap > 0, "queue cap must be positive");
        TenantAdmission {
            queue_cap,
            tenants: Vec::new(),
            admitted: 0,
            rejected: 0,
        }
    }

    /// Where `tenant`'s row is, or would be inserted.
    fn search(&self, tenant: TenantId) -> Result<usize, usize> {
        self.tenants.binary_search_by(|r| r.id.cmp(&tenant))
    }

    /// `tenant`'s row, if the gate has one.
    fn find(&self, tenant: TenantId) -> Option<&TenantRow> {
        self.search(tenant).ok().map(|i| &self.tenants[i])
    }

    /// `tenant`'s row, inserted at depth 0 without an override when the
    /// gate has not seen the tenant yet.
    fn row(&mut self, tenant: TenantId) -> &mut TenantRow {
        let i = match self.search(tenant) {
            Ok(i) => i,
            Err(i) => {
                let row = TenantRow {
                    id: tenant,
                    depth: 0,
                    cap: None,
                };
                self.tenants.insert(i, row);
                i
            }
        };
        &mut self.tenants[i]
    }

    /// Installs a temporary cap override for `tenant` (a quota flap).
    /// Overrides are clamped to at least 1 so a flapped tenant is
    /// squeezed, never wedged shut; requests already outstanding above
    /// the new cap are not evicted — they drain naturally.
    pub fn set_cap_override(&mut self, tenant: TenantId, cap: usize) {
        self.row(tenant).cap = Some(cap.max(1));
    }

    /// Removes a tenant's cap override; the nominal cap applies again.
    pub fn clear_cap_override(&mut self, tenant: TenantId) {
        if let Ok(i) = self.search(tenant) {
            self.tenants[i].cap = None;
        }
    }

    /// The cap override in force for `tenant`, if any. An override can
    /// equal the nominal cap (a flap at a nominal cap of 1 clamps to 1),
    /// so this, not a comparison of caps, tells whether one is set.
    #[must_use]
    pub fn cap_override(&self, tenant: TenantId) -> Option<usize> {
        self.find(tenant).and_then(|r| r.cap)
    }

    /// Replaces the nominal per-tenant cap (elastic capacity scaling).
    /// Clamped to at least 1; active overrides are untouched and
    /// requests outstanding above a shrunken cap drain naturally.
    pub fn set_queue_cap(&mut self, cap: usize) {
        self.queue_cap = cap.max(1);
    }

    /// The cap currently enforced for `tenant`.
    #[must_use]
    pub fn effective_cap(&self, tenant: TenantId) -> usize {
        self.cap_override(tenant).unwrap_or(self.queue_cap)
    }

    /// Attempts to admit one request for `tenant`. Returns `false` (and
    /// counts a reject) when the tenant's queue is full.
    pub fn try_admit(&mut self, tenant: TenantId) -> bool {
        let queue_cap = self.queue_cap;
        let row = self.row(tenant);
        if row.depth >= row.cap.unwrap_or(queue_cap) {
            self.rejected += 1;
            false
        } else {
            row.depth += 1;
            self.admitted += 1;
            true
        }
    }

    /// Releases one previously admitted request for `tenant` (request
    /// finished serving). Releasing below zero is a no-op.
    pub fn release(&mut self, tenant: TenantId) {
        if let Ok(i) = self.search(tenant) {
            let row = &mut self.tenants[i];
            row.depth = row.depth.saturating_sub(1);
        }
    }

    /// Current outstanding depth for one tenant.
    #[must_use]
    pub fn depth(&self, tenant: TenantId) -> usize {
        self.find(tenant).map_or(0, |r| r.depth)
    }

    /// Total outstanding requests across all tenants.
    #[must_use]
    pub fn total_depth(&self) -> usize {
        self.tenants.iter().map(|r| r.depth).sum()
    }

    /// Per-tenant queue cap.
    #[must_use]
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Requests admitted so far.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Fraction of offered requests rejected (0 when none offered).
    #[must_use]
    pub fn reject_rate(&self) -> f64 {
        let offered = self.admitted + self.rejected;
        if offered == 0 {
            0.0
        } else {
            self.rejected as f64 / offered as f64
        }
    }

    /// Captures what the gate carries from one round of admissions to
    /// the next: its counters. Its cap and quota-flap overrides are set
    /// by its owner before each round, and its depth is zero once every
    /// admitted request is released, which is when a checkpoint is
    /// taken.
    #[must_use]
    pub fn state(&self) -> AdmissionState {
        debug_assert_eq!(
            self.total_depth(),
            0,
            "state captured with requests outstanding"
        );
        AdmissionState {
            admitted: self.admitted,
            rejected: self.rejected,
        }
    }

    /// Lays captured counters over a gate built with its cap, with no
    /// override in force and no request outstanding.
    pub fn restore(&mut self, state: AdmissionState) {
        self.tenants.clear();
        self.admitted = state.admitted;
        self.rejected = state.rejected;
    }
}

/// What a [`TenantAdmission`] gate carries across checkpoints (see
/// [`TenantAdmission::state`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionState {
    /// Requests admitted so far.
    pub admitted: u64,
    /// Requests rejected so far.
    pub rejected: u64,
}

/// One (tenant, workload class) flow in a class-aware [`FairQueue`].
///
/// Ordered tenant-major: a full cursor cycle visits every class of
/// tenant 0, then every class of tenant 1, and so on — so per-visit
/// quanta compose per tenant exactly as the fairness proof expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassQueueKey {
    /// The tenant whose traffic this flow carries.
    pub tenant: TenantId,
    /// The workload class of every item in the flow.
    pub class: WorkloadClass,
}

impl ClassQueueKey {
    /// Builds a flow key.
    #[must_use]
    pub const fn new(tenant: TenantId, class: WorkloadClass) -> Self {
        ClassQueueKey { tenant, class }
    }
}

impl fmt::Display for ClassQueueKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.tenant, self.class)
    }
}

/// A deficit round-robin (DRR) fair queue over flows.
///
/// Each flow (a [`TenantId`] by default, or any `Copy + Ord` key such as
/// a per-tenant-per-class [`ClassQueueKey`]) owns a FIFO of `(cost, item)`
/// pairs. [`FairQueue::pop`] visits non-empty flows cyclically in key
/// order, granting each its quantum of deficit per visit and serving a
/// flow's head item once its accumulated deficit covers the item's
/// cost. Expensive requests therefore consume proportionally more
/// turns, giving byte-fair (not merely request-fair) scheduling — the
/// classic DRR guarantee — while staying O(1)-ish and fully
/// deterministic.
///
/// Quanta are per flow: [`FairQueue::set_quantum`] overrides the
/// default for one key, which is how heterogeneous workload classes get
/// class-sized service shares (a streaming flow may drain a whole chunk
/// per visit while a detection flow drains one frame).
///
/// A drained queue can serve another round: [`FairQueue::restart`]
/// returns the cursor to the first flow and keeps the flow table and
/// its quanta, so the round pops exactly what a new queue with the same
/// quanta would, without rebuilding the table.
///
/// # Examples
///
/// ```
/// use vdap_edgeos::{FairQueue, TenantId};
///
/// let mut q = FairQueue::new(10);
/// let (a, b) = (TenantId::new(0), TenantId::new(1));
/// q.enqueue(a, 10, "a1");
/// q.enqueue(a, 10, "a2");
/// q.enqueue(b, 10, "b1");
/// // Equal costs alternate between tenants.
/// assert_eq!(q.pop(), Some((a, "a1")));
/// assert_eq!(q.pop(), Some((b, "b1")));
/// assert_eq!(q.pop(), Some((a, "a2")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// Class-aware flows with per-class quanta:
///
/// ```
/// use vdap_edgeos::{ClassQueueKey, FairQueue, TenantId, WorkloadClass};
///
/// let mut q: FairQueue<&str, ClassQueueKey> = FairQueue::new(8);
/// let det = ClassQueueKey::new(TenantId::new(0), WorkloadClass::Detection);
/// let inf = ClassQueueKey::new(TenantId::new(0), WorkloadClass::Infotainment);
/// q.set_quantum(inf, 16); // streaming drains twice the work per visit
/// q.enqueue(det, 8, "frame");
/// q.enqueue(inf, 16, "chunk");
/// assert_eq!(q.pop(), Some((det, "frame")));
/// assert_eq!(q.pop(), Some((inf, "chunk")));
/// ```
#[derive(Debug, Clone)]
pub struct FairQueue<T, K: Copy + Ord = TenantId> {
    quantum: u64,
    /// Every flow ever named by `enqueue` or `set_quantum`, sorted by
    /// key; an emptied flow stays, so the table holds a few dozen
    /// entries however many items pass through.
    flows: Vec<Flow<K, T>>,
    /// Items queued across all flows.
    len: usize,
    /// The flow table index the next visit starts from, wrapping to 0
    /// at the end: one past the flow visited last (0 until the first
    /// visit). An insertion below it shifts it with the flows, so it
    /// stays on the first flow after the visited key.
    cursor: usize,
}

/// One flow of a [`FairQueue`]: its quantum, the deficit it has banked
/// and its FIFO of `(cost, item)` pairs.
#[derive(Debug, Clone)]
struct Flow<K, T> {
    key: K,
    quantum: u64,
    deficit: u64,
    items: VecDeque<(u64, T)>,
}

impl<T, K: Copy + Ord> FairQueue<T, K> {
    /// Creates a queue granting `quantum` deficit units per flow visit.
    ///
    /// # Panics
    ///
    /// Panics when `quantum` is zero (the scheduler could not make
    /// progress on items costlier than zero).
    #[must_use]
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        FairQueue {
            quantum,
            flows: Vec::new(),
            len: 0,
            cursor: 0,
        }
    }

    /// Position of `key`'s flow, inserted empty with the default
    /// quantum when the queue has not seen the key yet.
    fn flow(&mut self, key: K) -> usize {
        match self.flows.binary_search_by(|f| f.key.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                let flow = Flow {
                    key,
                    quantum: self.quantum,
                    deficit: 0,
                    items: VecDeque::new(),
                };
                self.flows.insert(i, flow);
                if i < self.cursor {
                    self.cursor += 1;
                }
                i
            }
        }
    }

    /// Overrides the per-visit quantum for one flow (per-class quanta).
    ///
    /// # Panics
    ///
    /// Panics when `quantum` is zero.
    pub fn set_quantum(&mut self, key: K, quantum: u64) {
        assert!(quantum > 0, "quantum must be positive");
        let i = self.flow(key);
        self.flows[i].quantum = quantum;
    }

    /// The per-visit quantum this flow receives.
    #[must_use]
    pub fn quantum_of(&self, key: K) -> u64 {
        self.flows
            .binary_search_by(|f| f.key.cmp(&key))
            .map_or(self.quantum, |i| self.flows[i].quantum)
    }

    /// Appends an item with the given service cost to a flow's FIFO.
    pub fn enqueue(&mut self, key: K, cost: u64, item: T) {
        let i = self.flow(key);
        self.flows[i].items.push_back((cost, item));
        self.len += 1;
    }

    /// Total queued items across flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Starts a new round on a drained queue: the next visit starts
    /// from the first flow, as in a new queue. Every flow keeps its
    /// quantum; a drained flow holds no deficit, since a flow forfeits
    /// it when it empties.
    pub fn restart(&mut self) {
        debug_assert!(
            self.len == 0 && self.flows.iter().all(|f| f.deficit == 0),
            "restarted a queue that is not drained"
        );
        self.cursor = 0;
    }

    /// Removes and returns the next item under DRR scheduling.
    pub fn pop(&mut self) -> Option<(K, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Next non-empty flow at or after the cursor, wrapping.
            let from = self.cursor;
            let i = (from..self.flows.len())
                .chain(0..from)
                .find(|&i| !self.flows[i].items.is_empty())?;
            let flow = &mut self.flows[i];
            let head_cost = flow.items.front().expect("non-empty flow").0;
            if flow.deficit >= head_cost {
                flow.deficit -= head_cost;
                let (_, item) = flow.items.pop_front().expect("non-empty flow");
                if flow.items.is_empty() {
                    // Idle flows forfeit leftover deficit (standard DRR).
                    flow.deficit = 0;
                }
                self.len -= 1;
                return Some((flow.key, item));
            }
            flow.deficit += flow.quantum;
            // Advance past this flow for the next visit.
            self.cursor = i + 1;
        }
    }

    /// Drains the whole queue in DRR order.
    pub fn drain(&mut self) -> Vec<(K, T)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(x) = self.pop() {
            out.push(x);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn admission_caps_per_tenant_not_globally() {
        let mut adm = TenantAdmission::new(1);
        let (a, b) = (TenantId::new(0), TenantId::new(1));
        assert!(adm.try_admit(a));
        assert!(adm.try_admit(b), "cap is per tenant");
        assert!(!adm.try_admit(a));
        assert_eq!(adm.total_depth(), 2);
        assert!((adm.reject_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cap_override_shrinks_and_restores_quota() {
        let mut adm = TenantAdmission::new(4);
        let t = TenantId::new(0);
        assert_eq!(adm.effective_cap(t), 4);
        adm.set_cap_override(t, 2);
        assert_eq!(adm.effective_cap(t), 2);
        assert!(adm.try_admit(t));
        assert!(adm.try_admit(t));
        assert!(!adm.try_admit(t), "shrunken cap enforced");
        adm.clear_cap_override(t);
        assert_eq!(adm.effective_cap(t), 4);
        assert!(adm.try_admit(t), "nominal cap restored");
        // Other tenants are untouched by the override.
        let u = TenantId::new(1);
        adm.set_cap_override(t, 1);
        for _ in 0..4 {
            assert!(adm.try_admit(u));
        }
    }

    #[test]
    fn cap_override_is_clamped_to_one() {
        let mut adm = TenantAdmission::new(8);
        let t = TenantId::new(3);
        adm.set_cap_override(t, 0);
        assert_eq!(adm.effective_cap(t), 1, "flap squeezes, never wedges");
        assert!(adm.try_admit(t));
        assert!(!adm.try_admit(t));
    }

    #[test]
    fn outstanding_above_shrunken_cap_drains_naturally() {
        let mut adm = TenantAdmission::new(3);
        let t = TenantId::new(0);
        for _ in 0..3 {
            assert!(adm.try_admit(t));
        }
        adm.set_cap_override(t, 1);
        assert_eq!(adm.depth(t), 3, "no eviction on shrink");
        assert!(!adm.try_admit(t));
        adm.release(t);
        adm.release(t);
        assert!(!adm.try_admit(t), "still at the shrunken cap");
        adm.release(t);
        assert!(adm.try_admit(t));
    }

    #[test]
    fn an_override_equal_to_the_nominal_cap_still_shows() {
        let mut adm = TenantAdmission::new(1);
        let t = TenantId::new(0);
        assert_eq!(adm.cap_override(t), None);
        adm.set_cap_override(t, 0);
        assert_eq!(adm.cap_override(t), Some(1), "clamped, and in force");
        assert_eq!(adm.effective_cap(t), adm.queue_cap());
        assert_eq!(adm.cap_override(TenantId::new(1)), None);
        adm.clear_cap_override(t);
        assert_eq!(adm.cap_override(t), None);
    }

    #[test]
    fn release_is_saturating() {
        let mut adm = TenantAdmission::new(2);
        let t = TenantId::new(7);
        adm.release(t); // never admitted: no-op
        assert_eq!(adm.depth(t), 0);
        assert!(adm.try_admit(t));
        adm.release(t);
        adm.release(t);
        assert_eq!(adm.depth(t), 0);
    }

    #[test]
    fn drr_splits_bandwidth_by_cost() {
        // Tenant 0 sends expensive requests, tenant 1 cheap ones; over a
        // long run each should get ~equal total cost served.
        let mut q = FairQueue::new(4);
        let (a, b) = (TenantId::new(0), TenantId::new(1));
        for i in 0..10 {
            q.enqueue(a, 8, ("a", i));
        }
        for i in 0..20 {
            q.enqueue(b, 4, ("b", i));
        }
        let order = q.drain();
        assert_eq!(order.len(), 30);
        // In the first 12 served items, tenant a (cost 8) should appear
        // about half as often as tenant b (cost 4).
        let a_early = order[..12].iter().filter(|(t, _)| *t == a).count();
        assert!(
            (3..=5).contains(&a_early),
            "cost-weighted fairness: a appeared {a_early} times in first 12"
        );
    }

    #[test]
    fn drr_preserves_fifo_within_tenant() {
        let mut q = FairQueue::new(1);
        let t = TenantId::new(3);
        for i in 0..5 {
            q.enqueue(t, 2, i);
        }
        let got: Vec<i32> = q.drain().into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drr_is_deterministic_across_runs() {
        let build = || {
            let mut q = FairQueue::new(5);
            for v in 0..30u32 {
                q.enqueue(TenantId::new(v % 3), u64::from(v % 7) + 1, v);
            }
            q.drain()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: FairQueue<u8> = FairQueue::new(1);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn class_index_round_trips() {
        for (i, c) in WorkloadClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(WorkloadClass::ALL[c.index()], *c);
        }
        assert_eq!(WorkloadClass::PbeamTraining.to_string(), "pbeam-training");
    }

    #[test]
    fn class_key_successor_walks_tenant_major() {
        // A full successor cycle over 2 tenants visits all 6 flows in
        // BTreeMap order, then wraps.
        let start = ClassQueueKey::new(TenantId::new(0), WorkloadClass::Detection);
        let mut key = start;
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(key);
            key = key.successor();
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "successor order must match key order");
        assert_eq!(key.tenant, TenantId::new(2), "cycle ends at next tenant");
    }

    #[test]
    fn per_class_quanta_shape_service_shares() {
        // One tenant, two classes: infotainment's quantum covers a whole
        // chunk per visit while detection needs one visit per frame, so
        // equal-cost backlogs interleave 1:1 despite a 4x cost gap.
        let t = TenantId::new(0);
        let det = ClassQueueKey::new(t, WorkloadClass::Detection);
        let inf = ClassQueueKey::new(t, WorkloadClass::Infotainment);
        let mut q: FairQueue<u32, ClassQueueKey> = FairQueue::new(4);
        q.set_quantum(inf, 16);
        assert_eq!(q.quantum_of(inf), 16);
        assert_eq!(q.quantum_of(det), 4);
        for i in 0..8 {
            q.enqueue(det, 4, i);
            q.enqueue(inf, 16, 100 + i);
        }
        let order = q.drain();
        // Per cursor cycle each class serves exactly one item.
        for pair in order.chunks(2) {
            assert_eq!(pair[0].0.class, WorkloadClass::Detection);
            assert_eq!(pair[1].0.class, WorkloadClass::Infotainment);
        }
    }

    #[test]
    fn class_flows_are_deterministic() {
        let build = || {
            let mut q: FairQueue<u32, ClassQueueKey> = FairQueue::new(6);
            for v in 0..36u32 {
                let key = ClassQueueKey::new(
                    TenantId::new(v % 3),
                    WorkloadClass::ALL[(v as usize / 3) % 3],
                );
                q.enqueue(key, u64::from(v % 5) + 1, v);
            }
            q.drain()
        };
        assert_eq!(build(), build());
    }

    /// Where the reference queue's cursor lands after visiting a flow:
    /// the key right after it in key order, wrapping. The flow table's
    /// index cursor lands on the same flow, the first at or after this
    /// key.
    trait Successor: Copy + Ord {
        fn successor(self) -> Self;
    }

    impl Successor for TenantId {
        fn successor(self) -> Self {
            TenantId::new(self.as_u32().wrapping_add(1))
        }
    }

    impl Successor for ClassQueueKey {
        fn successor(self) -> Self {
            match self.class {
                WorkloadClass::Detection => {
                    ClassQueueKey::new(self.tenant, WorkloadClass::Infotainment)
                }
                WorkloadClass::Infotainment => {
                    ClassQueueKey::new(self.tenant, WorkloadClass::PbeamTraining)
                }
                WorkloadClass::PbeamTraining => {
                    ClassQueueKey::new(self.tenant.successor(), WorkloadClass::Detection)
                }
            }
        }
    }

    /// The three-map DRR queue the flow table replaced and the two-map
    /// admission gate the tenant table replaced, kept as the
    /// differential tests' independent truth.
    mod reference {
        use std::collections::{BTreeMap, VecDeque};

        use super::Successor;
        use crate::TenantId;

        pub struct TenantAdmission {
            queue_cap: usize,
            cap_overrides: BTreeMap<TenantId, usize>,
            depth: BTreeMap<TenantId, usize>,
            pub admitted: u64,
            pub rejected: u64,
        }

        impl TenantAdmission {
            pub fn new(queue_cap: usize) -> Self {
                TenantAdmission {
                    queue_cap,
                    cap_overrides: BTreeMap::new(),
                    depth: BTreeMap::new(),
                    admitted: 0,
                    rejected: 0,
                }
            }

            pub fn set_cap_override(&mut self, tenant: TenantId, cap: usize) {
                self.cap_overrides.insert(tenant, cap.max(1));
            }

            pub fn clear_cap_override(&mut self, tenant: TenantId) {
                self.cap_overrides.remove(&tenant);
            }

            pub fn set_queue_cap(&mut self, cap: usize) {
                self.queue_cap = cap.max(1);
            }

            pub fn queue_cap(&self) -> usize {
                self.queue_cap
            }

            pub fn cap_override(&self, tenant: TenantId) -> Option<usize> {
                self.cap_overrides.get(&tenant).copied()
            }

            pub fn effective_cap(&self, tenant: TenantId) -> usize {
                self.cap_override(tenant).unwrap_or(self.queue_cap)
            }

            pub fn try_admit(&mut self, tenant: TenantId) -> bool {
                let cap = self.effective_cap(tenant);
                let depth = self.depth.entry(tenant).or_insert(0);
                if *depth >= cap {
                    self.rejected += 1;
                    false
                } else {
                    *depth += 1;
                    self.admitted += 1;
                    true
                }
            }

            pub fn release(&mut self, tenant: TenantId) {
                if let Some(d) = self.depth.get_mut(&tenant) {
                    *d = d.saturating_sub(1);
                }
            }

            pub fn depth(&self, tenant: TenantId) -> usize {
                self.depth.get(&tenant).copied().unwrap_or(0)
            }

            pub fn total_depth(&self) -> usize {
                self.depth.values().sum()
            }

            pub fn restore(&mut self, admitted: u64, rejected: u64) {
                self.cap_overrides.clear();
                self.depth.clear();
                self.admitted = admitted;
                self.rejected = rejected;
            }
        }

        pub struct FairQueue<T, K: Successor> {
            quantum: u64,
            quanta: BTreeMap<K, u64>,
            queues: BTreeMap<K, VecDeque<(u64, T)>>,
            deficits: BTreeMap<K, u64>,
            cursor: Option<K>,
        }

        impl<T, K: Successor> FairQueue<T, K> {
            pub fn new(quantum: u64) -> Self {
                FairQueue {
                    quantum,
                    quanta: BTreeMap::new(),
                    queues: BTreeMap::new(),
                    deficits: BTreeMap::new(),
                    cursor: None,
                }
            }

            pub fn set_quantum(&mut self, key: K, quantum: u64) {
                self.quanta.insert(key, quantum);
            }

            pub fn quantum_of(&self, key: K) -> u64 {
                self.quanta.get(&key).copied().unwrap_or(self.quantum)
            }

            pub fn enqueue(&mut self, key: K, cost: u64, item: T) {
                self.queues.entry(key).or_default().push_back((cost, item));
            }

            pub fn len(&self) -> usize {
                self.queues.values().map(VecDeque::len).sum()
            }

            pub fn pop(&mut self) -> Option<(K, T)> {
                if self.queues.values().all(VecDeque::is_empty) {
                    return None;
                }
                loop {
                    let from_cursor = self.cursor.and_then(|c| {
                        self.queues
                            .range(c..)
                            .find(|(_, q)| !q.is_empty())
                            .map(|(k, _)| *k)
                    });
                    let next = from_cursor.or_else(|| {
                        self.queues
                            .iter()
                            .find(|(_, q)| !q.is_empty())
                            .map(|(k, _)| *k)
                    });
                    let key = next?;
                    let deficit = self.deficits.entry(key).or_insert(0);
                    let queue = self.queues.get_mut(&key).expect("flow just found");
                    let head_cost = queue.front().expect("non-empty queue").0;
                    if *deficit >= head_cost {
                        *deficit -= head_cost;
                        let (_, item) = queue.pop_front().expect("non-empty queue");
                        if queue.is_empty() {
                            self.deficits.remove(&key);
                        }
                        return Some((key, item));
                    }
                    *deficit += self.quanta.get(&key).copied().unwrap_or(self.quantum);
                    self.cursor = Some(key.successor());
                }
            }
        }
    }

    /// Tenants the differential tests draw from: a few small ids and
    /// the top of the range, where `successor()` wraps to tenant 0.
    const TENANTS: [u32; 6] = [0, 1, 2, 5, u32::MAX - 1, u32::MAX];

    fn drr_tenants() -> prop::sample::Select<u32> {
        prop::sample::select(TENANTS.to_vec())
    }

    /// Replays `ops` through the flow table and the reference: each op
    /// is `(kind, key, class, value)`, where kind 0–4 enqueues an item
    /// costing `value`, 5–8 pops and 9 sets the flow's quantum to
    /// `value`; the queues are drained at the end. Returns the first
    /// divergence, if any.
    fn drr_replay<K: Successor + fmt::Debug>(
        quantum: u64,
        ops: &[(u8, u32, usize, u64)],
        key_of: impl Fn(u32, usize) -> K,
    ) -> Result<(), String> {
        let mut fast: FairQueue<usize, K> = FairQueue::new(quantum);
        let mut slow: reference::FairQueue<usize, K> = reference::FairQueue::new(quantum);
        for (i, &(kind, tenant, class, value)) in ops.iter().enumerate() {
            let key = key_of(tenant, class);
            match kind {
                0..=4 => {
                    fast.enqueue(key, value, i);
                    slow.enqueue(key, value, i);
                }
                5..=8 => {
                    let (got, want) = (fast.pop(), slow.pop());
                    if got != want {
                        return Err(format!("op {i}: popped {got:?}, reference {want:?}"));
                    }
                }
                _ => {
                    fast.set_quantum(key, value);
                    slow.set_quantum(key, value);
                }
            }
            if fast.len() != slow.len() || fast.quantum_of(key) != slow.quantum_of(key) {
                return Err(format!("op {i}: length or quantum of {key:?} diverged"));
            }
        }
        loop {
            let (got, want) = (fast.pop(), slow.pop());
            if got != want {
                return Err(format!("drain: popped {got:?}, reference {want:?}"));
            }
            if got.is_none() {
                return Ok(());
            }
        }
    }

    /// Replays `ops` through the tenant table and the two-map reference
    /// gate, both built with `cap`: each op is `(kind, tenant, value,
    /// raw)`, where kind 0–3 admits, 4–5 releases, 6 sets the tenant's
    /// cap override to `value`, 7 clears it, 8 sets the nominal cap to
    /// `value` and 9 restores counters drawn from `raw`. After every op
    /// each tenant's depth, cap and override must agree, and so must the
    /// totals and counters. Returns the first divergence, if any.
    fn admission_replay(cap: usize, ops: &[(u8, u32, usize, u64)]) -> Result<(), String> {
        let mut fast = TenantAdmission::new(cap);
        let mut slow = reference::TenantAdmission::new(cap);
        for (i, &(kind, tenant, value, raw)) in ops.iter().enumerate() {
            let t = TenantId::new(tenant);
            match kind {
                0..=3 => {
                    let (got, want) = (fast.try_admit(t), slow.try_admit(t));
                    if got != want {
                        return Err(format!("op {i}: admitted {got}, reference {want}"));
                    }
                }
                4 | 5 => {
                    fast.release(t);
                    slow.release(t);
                }
                6 => {
                    fast.set_cap_override(t, value);
                    slow.set_cap_override(t, value);
                }
                7 => {
                    fast.clear_cap_override(t);
                    slow.clear_cap_override(t);
                }
                8 => {
                    fast.set_queue_cap(value);
                    slow.set_queue_cap(value);
                }
                _ => {
                    let (admitted, rejected) = (raw >> 32, raw & 0xffff_ffff);
                    fast.restore(AdmissionState { admitted, rejected });
                    slow.restore(admitted, rejected);
                }
            }
            for t in TENANTS.map(TenantId::new) {
                let got = (fast.depth(t), fast.effective_cap(t), fast.cap_override(t));
                let want = (slow.depth(t), slow.effective_cap(t), slow.cap_override(t));
                if got != want {
                    return Err(format!("op {i}: {t} reads {got:?}, reference {want:?}"));
                }
            }
            let (admitted, rejected) = (fast.admitted(), fast.rejected());
            let got = (fast.total_depth(), fast.queue_cap(), admitted, rejected);
            let want = (
                slow.total_depth(),
                slow.queue_cap(),
                slow.admitted,
                slow.rejected,
            );
            if got != want {
                return Err(format!("op {i}: gate reads {got:?}, reference {want:?}"));
            }
            let drained = AdmissionState { admitted, rejected };
            if got.0 == 0 && fast.state() != drained {
                return Err(format!("op {i}: state diverged"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tenant_table_admits_as_the_reference_gate(
            cap in 1usize..5,
            ops in prop::collection::vec((0u8..10, drr_tenants(), 0usize..5, any::<u64>()), 0..300),
        ) {
            let replay = admission_replay(cap, &ops);
            prop_assert!(replay.is_ok(), "{}", replay.unwrap_err());
        }

        #[test]
        fn a_restarted_queue_pops_what_a_new_one_pops(
            quantum in 1u64..24,
            quanta in prop::collection::vec((drr_tenants(), 0usize..3, 1u64..48), 0..8),
            rounds in prop::collection::vec(
                prop::collection::vec((0u8..10, drr_tenants(), 0usize..3, 1u64..48), 0..120),
                1..6,
            ),
        ) {
            // Each round enqueues and pops, then drains; the reused queue
            // restarts after each, a new one is built with the same quanta.
            let key_of = |t, c| ClassQueueKey::new(TenantId::new(t), WorkloadClass::ALL[c]);
            let fresh = || {
                let mut q = FairQueue::new(quantum);
                for &(t, c, flow_quantum) in &quanta {
                    q.set_quantum(key_of(t, c), flow_quantum);
                }
                q
            };
            let mut reused = fresh();
            for (r, ops) in rounds.iter().enumerate() {
                let mut new = fresh();
                for (i, &(kind, t, c, cost)) in ops.iter().enumerate() {
                    if kind < 6 {
                        reused.enqueue(key_of(t, c), cost, i);
                        new.enqueue(key_of(t, c), cost, i);
                    } else {
                        prop_assert_eq!(reused.pop(), new.pop(), "round {} op {}", r, i);
                    }
                }
                loop {
                    let (got, want) = (reused.pop(), new.pop());
                    prop_assert_eq!(got, want, "round {} drain", r);
                    if got.is_none() {
                        break;
                    }
                }
                reused.restart();
            }
        }

        #[test]
        fn flow_table_pops_match_the_reference_over_tenants(
            quantum in 1u64..24,
            ops in prop::collection::vec((0u8..10, drr_tenants(), 0usize..3, 1u64..48), 0..400),
        ) {
            let replay = drr_replay(quantum, &ops, |t, _| TenantId::new(t));
            prop_assert!(replay.is_ok(), "{}", replay.unwrap_err());
        }

        #[test]
        fn flow_table_pops_match_the_reference_over_class_flows(
            quantum in 1u64..24,
            ops in prop::collection::vec((0u8..10, drr_tenants(), 0usize..3, 1u64..48), 0..400),
        ) {
            let replay = drr_replay(quantum, &ops, |t, c| {
                ClassQueueKey::new(TenantId::new(t), WorkloadClass::ALL[c])
            });
            prop_assert!(replay.is_ok(), "{}", replay.unwrap_err());
        }
    }
}
