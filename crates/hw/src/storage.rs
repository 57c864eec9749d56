//! On-board storage model.
//!
//! §IV-B chooses a parallelism-supported SSD for vehicle data. [`SsdModel`]
//! is a multi-channel device: transfers are striped across channels, so
//! concurrent streams scale until the channel count saturates, matching
//! the multi-queue SSD literature the paper cites.

use vdap_sim::{SimDuration, SimTime};

/// Direction of a storage transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOp {
    /// Read from flash.
    Read,
    /// Program to flash (slower than reads).
    Write,
}

/// A parallel multi-channel SSD.
///
/// # Examples
///
/// ```
/// use vdap_hw::{SsdModel, StorageOp};
///
/// let ssd = SsdModel::automotive();
/// let t1 = ssd.transfer_time(StorageOp::Read, 64 * 1024 * 1024, 1);
/// let t8 = ssd.transfer_time(StorageOp::Read, 64 * 1024 * 1024, 8);
/// assert!(t8 < t1); // parallel streams stripe across channels
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdModel {
    name: String,
    channels: u32,
    channel_read_mbps: f64,
    channel_write_mbps: f64,
    access_latency: SimDuration,
    capacity_bytes: u64,
    used_bytes: u64,
    busy_until: SimTime,
    bytes_read: u64,
    bytes_written: u64,
}

impl SsdModel {
    /// A representative automotive NVMe device: 8 channels,
    /// 400 MB/s read and 250 MB/s write per channel, 80 µs access, 1 TB.
    #[must_use]
    pub fn automotive() -> Self {
        SsdModel::new(
            "automotive-nvme",
            8,
            400.0,
            250.0,
            SimDuration::from_micros(80),
            1 << 40,
        )
    }

    /// Creates a device model.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is zero or a bandwidth is not positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        channels: u32,
        channel_read_mbps: f64,
        channel_write_mbps: f64,
        access_latency: SimDuration,
        capacity_bytes: u64,
    ) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(channel_read_mbps > 0.0 && channel_write_mbps > 0.0);
        SsdModel {
            name: name.into(),
            channels,
            channel_read_mbps,
            channel_write_mbps,
            access_latency,
            capacity_bytes,
            used_bytes: 0,
            busy_until: SimTime::ZERO,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of flash channels.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently stored.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes still free.
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes - self.used_bytes
    }

    /// Lifetime bytes read / written.
    #[must_use]
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// Time for a transfer of `bytes` with `parallel_streams` concurrent
    /// requests: striping helps until streams exceed channels.
    #[must_use]
    pub fn transfer_time(&self, op: StorageOp, bytes: u64, parallel_streams: u32) -> SimDuration {
        let per_channel = match op {
            StorageOp::Read => self.channel_read_mbps,
            StorageOp::Write => self.channel_write_mbps,
        } * 1e6;
        let effective_channels = parallel_streams.clamp(1, self.channels) as f64;
        let secs = bytes as f64 / (per_channel * effective_channels);
        self.access_latency + SimDuration::from_secs_f64(secs)
    }

    /// Records a write of `bytes` arriving at `now`; returns the
    /// completion time, serializing behind earlier transfers.
    ///
    /// # Errors
    ///
    /// Returns [`StorageFull`] when the device lacks free space.
    pub fn write(
        &mut self,
        now: SimTime,
        bytes: u64,
        parallel_streams: u32,
    ) -> Result<SimTime, StorageFull> {
        if bytes > self.free_bytes() {
            return Err(StorageFull {
                requested: bytes,
                free: self.free_bytes(),
            });
        }
        self.used_bytes += bytes;
        self.bytes_written += bytes;
        Ok(self.occupy(
            now,
            self.transfer_time(StorageOp::Write, bytes, parallel_streams),
        ))
    }

    /// Records a read of `bytes` at `now`; returns the completion time.
    pub fn read(&mut self, now: SimTime, bytes: u64, parallel_streams: u32) -> SimTime {
        self.bytes_read += bytes;
        self.occupy(
            now,
            self.transfer_time(StorageOp::Read, bytes, parallel_streams),
        )
    }

    /// Frees `bytes` of stored data (clamped to the used amount).
    pub fn delete(&mut self, bytes: u64) {
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }

    fn occupy(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let finish = start + service;
        self.busy_until = finish;
        finish
    }
}

/// Error: a write exceeded the device's free space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFull {
    /// Bytes the caller asked to write.
    pub requested: u64,
    /// Bytes actually free.
    pub free: u64,
}

impl std::fmt::Display for StorageFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "storage full: requested {} bytes with {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for StorageFull {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_streams_speed_up_until_channel_count() {
        let ssd = SsdModel::automotive();
        let mb = 256 * 1024 * 1024;
        let t1 = ssd.transfer_time(StorageOp::Read, mb, 1);
        let t4 = ssd.transfer_time(StorageOp::Read, mb, 4);
        let t8 = ssd.transfer_time(StorageOp::Read, mb, 8);
        let t64 = ssd.transfer_time(StorageOp::Read, mb, 64);
        assert!(t4 < t1);
        assert!(t8 < t4);
        assert_eq!(t8, t64, "beyond channel count there is no further gain");
    }

    #[test]
    fn writes_slower_than_reads() {
        let ssd = SsdModel::automotive();
        let bytes = 64 * 1024 * 1024;
        assert!(
            ssd.transfer_time(StorageOp::Write, bytes, 1)
                > ssd.transfer_time(StorageOp::Read, bytes, 1)
        );
    }

    #[test]
    fn capacity_enforced() {
        let mut ssd = SsdModel::new("tiny", 2, 100.0, 100.0, SimDuration::ZERO, 1000);
        assert!(ssd.write(SimTime::ZERO, 800, 1).is_ok());
        let err = ssd.write(SimTime::ZERO, 300, 1).unwrap_err();
        assert_eq!(err.free, 200);
        ssd.delete(500);
        assert!(ssd.write(SimTime::ZERO, 300, 1).is_ok());
    }

    #[test]
    fn transfers_serialize_on_device() {
        let mut ssd = SsdModel::new("s", 1, 1.0, 1.0, SimDuration::ZERO, u64::MAX);
        // 1 MB/s, so 1 MB takes 1 s.
        let f1 = ssd.read(SimTime::ZERO, 1_000_000, 1);
        let f2 = ssd.read(SimTime::ZERO, 1_000_000, 1);
        assert_eq!(f1.as_secs_f64(), 1.0);
        assert_eq!(f2.as_secs_f64(), 2.0);
    }

    #[test]
    fn traffic_accounting() {
        let mut ssd = SsdModel::automotive();
        ssd.write(SimTime::ZERO, 100, 1).unwrap();
        ssd.read(SimTime::ZERO, 40, 1);
        assert_eq!(ssd.traffic(), (40, 100));
        assert_eq!(ssd.used_bytes(), 100);
    }

    #[test]
    fn storage_full_displays() {
        let e = StorageFull {
            requested: 10,
            free: 5,
        };
        assert!(e.to_string().contains("requested 10"));
    }
}
