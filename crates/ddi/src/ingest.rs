//! Fleet-scale ingestion primitives: regional collectors with bounded
//! queues and a saturating storage-tier write model.
//!
//! The paper's DDI (§IV-D) collects per-vehicle telemetry into a shared
//! storage backend. At fleet scale that path runs through **regional
//! collectors**: each region's vehicles batch their records and upload
//! over the shared cellular link to the region's collector, which
//! buffers them in a bounded queue ahead of the storage tier. The
//! storage tier drains the queues at a finite write throughput, and its
//! effective write latency follows a convex utilization curve — light
//! load writes at nominal speed, saturation doubles the latency, and
//! overload degrades linearly until a cap. When a collector queue is
//! full, backpressure pushes the overflow back to the vehicle: the
//! batch is *deferred* into the vehicle's local TTL cache and retried
//! later, or — when the cache itself is full — shed lowest-priority
//! first.
//!
//! Everything here is deterministic arithmetic over explicit inputs; the
//! fleet engine drives these types only at epoch barriers so its
//! byte-identity across executor width and batch size is preserved.

use std::collections::VecDeque;

use vdap_sim::{SimDuration, SimTime};

/// One vehicle's batched telemetry upload, addressed to its region's
/// collector.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadBatch {
    /// Uploading vehicle.
    pub vehicle: u64,
    /// Region (and therefore collector) the vehicle uploads through.
    pub region: u32,
    /// Per-vehicle batch sequence number (canonical tie-breaker).
    pub seq: u32,
    /// Records in the batch.
    pub records: u32,
    /// Batch size on the wire.
    pub bytes: u64,
    /// When the vehicle initiated the upload.
    pub sent_at: SimTime,
    /// Ingestion deadline: the batch should be durable by this instant.
    pub deadline: SimTime,
    /// Scheduling priority; *lower* values shed first.
    pub priority: u8,
}

impl UploadBatch {
    /// Re-addresses an in-flight batch to another region's collector
    /// (the uploading vehicle crossed a region boundary before the
    /// batch became durable). Returns whether the region changed —
    /// deadline, priority, and payload are untouched: moving does not
    /// buy the batch more time.
    pub fn readdress(&mut self, region: u32) -> bool {
        if self.region == region {
            return false;
        }
        self.region = region;
        true
    }
}

/// A regional collector: a bounded FIFO of upload batches waiting for
/// the storage tier. The bound is expressed in records, not batches, so
/// big batches exert proportionate pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionCollector {
    region: u32,
    queue: VecDeque<UploadBatch>,
    queued_records: u64,
    capacity_records: u64,
}

impl RegionCollector {
    /// Creates a collector whose queue holds at most `capacity_records`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity_records` is zero.
    #[must_use]
    pub fn new(region: u32, capacity_records: u64) -> Self {
        assert!(capacity_records > 0, "queue capacity must be positive");
        RegionCollector {
            region,
            queue: VecDeque::new(),
            queued_records: 0,
            capacity_records,
        }
    }

    /// The region this collector serves.
    #[must_use]
    pub fn region(&self) -> u32 {
        self.region
    }

    /// Records currently queued.
    #[must_use]
    pub fn queued_records(&self) -> u64 {
        self.queued_records
    }

    /// Batches currently queued.
    #[must_use]
    pub fn queued_batches(&self) -> usize {
        self.queue.len()
    }

    /// Queue bound in records.
    #[must_use]
    pub fn capacity_records(&self) -> u64 {
        self.capacity_records
    }

    /// Whether a batch of `records` fits without breaching the bound.
    #[must_use]
    pub fn has_room(&self, records: u32) -> bool {
        self.queued_records + u64::from(records) <= self.capacity_records
    }

    /// Enqueues a batch, or returns it to the caller when the queue is
    /// full — backpressure is explicit, never a silent drop.
    ///
    /// # Errors
    ///
    /// The rejected batch itself, unchanged, so the caller can defer it
    /// to the vehicle's local cache or shed it.
    pub fn offer(&mut self, batch: UploadBatch) -> Result<(), UploadBatch> {
        if !self.has_room(batch.records) {
            return Err(batch);
        }
        self.queued_records += u64::from(batch.records);
        self.queue.push_back(batch);
        Ok(())
    }

    /// The next batch's record count, without dequeuing.
    #[must_use]
    pub fn peek_records(&self) -> Option<u32> {
        self.queue.front().map(|b| b.records)
    }

    /// Dequeues the oldest batch (FIFO).
    pub fn pop(&mut self) -> Option<UploadBatch> {
        let batch = self.queue.pop_front()?;
        self.queued_records -= u64::from(batch.records);
        Some(batch)
    }

    /// Iterates the queued batches front-to-back without dequeuing
    /// (checkpointing walks the queue while leaving it intact).
    pub fn batches(&self) -> impl Iterator<Item = &UploadBatch> {
        self.queue.iter()
    }
}

/// A saturating write-throughput model for the shared storage tier.
///
/// With offered load `rho = offered / capacity` over a drain window:
///
/// * `rho <= 1`: the effective write latency is `base × (1 + rho²)` —
///   a convex ramp from nominal at idle to 2× at saturation;
/// * `rho > 1`: latency is `base × 2·rho` (linear overload, continuous
///   with the ramp at `rho = 1`);
/// * the multiplier never exceeds `max_multiplier`.
///
/// Brownouts scale the tier's throughput by a factor in `(0, 1]`:
/// capacity shrinks, so the same offered load sits at a higher `rho`
/// and drains slower — queueing delay grows as write load approaches
/// the (browned-out) capacity.
///
/// # Examples
///
/// ```
/// use vdap_ddi::StorageTierModel;
/// use vdap_sim::SimDuration;
///
/// let tier = StorageTierModel::new(1000.0);
/// let epoch = SimDuration::from_secs(1);
/// assert_eq!(tier.capacity_in(epoch, 1.0), 1000);
/// assert_eq!(tier.capacity_in(epoch, 0.25), 250); // brownout
/// let idle = tier.write_delay(0, epoch, 1.0);
/// let saturated = tier.write_delay(1000, epoch, 1.0);
/// assert_eq!(saturated, idle * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageTierModel {
    records_per_sec: f64,
    max_multiplier: f64,
}

impl StorageTierModel {
    /// Default ceiling on the write-latency multiplier.
    pub const DEFAULT_MAX_MULTIPLIER: f64 = 16.0;

    /// Nominal per-record write latency: the write delay at idle.
    pub const DEFAULT_BASE_WRITE_LATENCY: SimDuration = SimDuration::from_millis(2);

    /// Creates a model for a tier that absorbs `records_per_sec` at
    /// nominal speed.
    ///
    /// # Panics
    ///
    /// Panics when `records_per_sec` is not positive.
    #[must_use]
    pub fn new(records_per_sec: f64) -> Self {
        assert!(records_per_sec > 0.0, "throughput must be positive");
        StorageTierModel {
            records_per_sec,
            max_multiplier: Self::DEFAULT_MAX_MULTIPLIER,
        }
    }

    /// Replaces the multiplier ceiling.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is below 1.
    #[must_use]
    pub fn with_max_multiplier(mut self, cap: f64) -> Self {
        assert!(cap >= 1.0, "multiplier cap must be at least 1");
        self.max_multiplier = cap;
        self
    }

    /// Nominal write throughput in records per second.
    #[must_use]
    pub fn records_per_sec(&self) -> f64 {
        self.records_per_sec
    }

    /// Records the tier can drain in `window` at `throughput_factor`
    /// (1.0 nominal; a brownout shrinks it). Negative factors clamp to
    /// zero.
    #[must_use]
    pub fn capacity_in(&self, window: SimDuration, throughput_factor: f64) -> u64 {
        let cap = self.records_per_sec * window.as_secs_f64() * throughput_factor.max(0.0);
        cap.floor() as u64
    }

    /// Utilization `offered / capacity` over the window; may exceed 1
    /// in overload, and saturates at the multiplier ceiling's
    /// equivalent when capacity is zero.
    #[must_use]
    pub fn utilization(&self, offered: u64, window: SimDuration, throughput_factor: f64) -> f64 {
        let cap = self.capacity_in(window, throughput_factor);
        if cap == 0 {
            return if offered == 0 {
                0.0
            } else {
                self.max_multiplier
            };
        }
        offered as f64 / cap as f64
    }

    /// Effective per-record write latency at the given offered load:
    /// the convex multiplier applied to the base latency. Monotone
    /// non-decreasing in `offered`, continuous, capped.
    #[must_use]
    pub fn write_delay(
        &self,
        offered: u64,
        window: SimDuration,
        throughput_factor: f64,
    ) -> SimDuration {
        let rho = self.utilization(offered, window, throughput_factor);
        let m = if rho <= 1.0 {
            1.0 + rho * rho
        } else {
            2.0 * rho
        };
        Self::DEFAULT_BASE_WRITE_LATENCY.mul_f64(m.min(self.max_multiplier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(vehicle: u64, records: u32, priority: u8) -> UploadBatch {
        UploadBatch {
            vehicle,
            region: 0,
            seq: 0,
            records,
            bytes: u64::from(records) * 96,
            sent_at: SimTime::ZERO,
            deadline: SimTime::from_secs(5),
            priority,
        }
    }

    #[test]
    fn readdress_moves_region_but_not_the_deadline() {
        let mut b = batch(7, 10, 2);
        let deadline = b.deadline;
        assert!(b.readdress(3));
        assert_eq!(b.region, 3);
        assert_eq!(b.deadline, deadline, "moving buys no extra time");
        assert!(!b.readdress(3), "same region is a no-op");
    }

    #[test]
    fn collector_queue_is_fifo_and_counts_records() {
        let mut c = RegionCollector::new(3, 100);
        c.offer(batch(1, 10, 0)).unwrap();
        c.offer(batch(2, 20, 1)).unwrap();
        assert_eq!(c.queued_records(), 30);
        assert_eq!(c.queued_batches(), 2);
        assert_eq!(c.peek_records(), Some(10));
        assert_eq!(c.pop().unwrap().vehicle, 1);
        assert_eq!(c.pop().unwrap().vehicle, 2);
        assert_eq!(c.queued_records(), 0);
        assert!(c.pop().is_none());
    }

    #[test]
    fn overflow_bounces_the_batch_back() {
        let mut c = RegionCollector::new(0, 25);
        c.offer(batch(1, 20, 0)).unwrap();
        // 20 + 10 > 25: the queue bound is a hard backpressure edge.
        let bounced = c.offer(batch(2, 10, 1)).unwrap_err();
        assert_eq!(bounced.vehicle, 2);
        assert_eq!(c.queued_records(), 20, "rejected batch not queued");
        // A smaller batch still fits.
        c.offer(batch(3, 5, 0)).unwrap();
        assert_eq!(c.queued_records(), 25);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_collector_rejected() {
        let _ = RegionCollector::new(0, 0);
    }

    #[test]
    fn storage_curve_is_monotone_and_continuous_at_saturation() {
        let tier = StorageTierModel::new(100.0);
        let w = SimDuration::from_secs(1);
        let mut last = SimDuration::ZERO;
        for offered in 0..400u64 {
            let d = tier.write_delay(offered, w, 1.0);
            assert!(d >= last, "write delay dipped at {offered}");
            last = d;
        }
        let at_saturation = tier.write_delay(100, w, 1.0);
        assert_eq!(
            at_saturation,
            StorageTierModel::DEFAULT_BASE_WRITE_LATENCY * 2
        );
    }

    #[test]
    fn brownout_shrinks_capacity_and_inflates_delay() {
        let tier = StorageTierModel::new(1000.0);
        let w = SimDuration::from_millis(500);
        assert_eq!(tier.capacity_in(w, 1.0), 500);
        assert_eq!(tier.capacity_in(w, 0.1), 50);
        assert_eq!(tier.capacity_in(w, -1.0), 0, "negative clamps to zero");
        let nominal = tier.write_delay(100, w, 1.0);
        let browned = tier.write_delay(100, w, 0.1);
        assert!(browned > nominal, "same load must hurt more browned out");
    }

    #[test]
    fn delay_ceiling_caps_overload_and_zero_capacity() {
        let tier = StorageTierModel::new(10.0).with_max_multiplier(4.0);
        let w = SimDuration::from_secs(1);
        let capped = tier.write_delay(10_000, w, 1.0);
        assert_eq!(
            capped,
            StorageTierModel::DEFAULT_BASE_WRITE_LATENCY.mul_f64(4.0)
        );
        // Zero capacity (full brownout) pins the delay at the ceiling
        // for any nonzero load, and stays idle-priced for none.
        assert_eq!(tier.write_delay(5, w, 0.0), capped);
        assert_eq!(tier.utilization(0, w, 0.0), 0.0);
    }
}
