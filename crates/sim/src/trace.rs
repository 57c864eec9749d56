//! Structured event tracing.
//!
//! Components record [`TraceEvent`]s into a [`TraceLog`] so experiments
//! can reconstruct *why* an end-to-end latency came out the way it did
//! (which pipeline was selected, when a handoff dropped packets, when a
//! service was hung up, ...). Traces are bounded ring buffers so long
//! simulations cannot exhaust memory.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// Severity of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// Fine-grained progress (per-packet, per-task).
    Debug,
    /// Normal lifecycle milestones (service started, pipeline selected).
    Info,
    /// Degraded-but-operating conditions (handoff loss burst, hung service).
    Warn,
    /// Failures (service compromised, task rejected).
    Error,
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceLevel::Debug => "DEBUG",
            TraceLevel::Info => "INFO",
            TraceLevel::Warn => "WARN",
            TraceLevel::Error => "ERROR",
        };
        f.write_str(s)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Emitting component, e.g. `"edgeos.elastic"`. Interned: component
    /// names are a small fixed vocabulary, so recording an event costs
    /// no per-component allocation.
    pub component: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {}",
            self.at, self.level, self.component, self.message
        )
    }
}

/// A bounded, in-order log of trace events.
///
/// # Examples
///
/// ```
/// use vdap_sim::{SimTime, TraceLevel, TraceLog};
///
/// let mut log = TraceLog::with_capacity(128);
/// log.record(SimTime::ZERO, TraceLevel::Info, "vcu.dsf", "scheduler online");
/// assert_eq!(log.len(), 1);
/// assert!(log.iter().any(|e| e.message.contains("online")));
/// ```
#[derive(Debug, Clone)]
pub struct TraceLog {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    min_level: TraceLevel,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl TraceLog {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Creates an empty log with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Creates an empty log bounded to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceLog {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            min_level: TraceLevel::Debug,
        }
    }

    /// Suppresses events below `level`.
    pub fn set_min_level(&mut self, level: TraceLevel) {
        self.min_level = level;
    }

    /// Records an event, evicting the oldest when at capacity.
    pub fn record(
        &mut self,
        at: SimTime,
        level: TraceLevel,
        component: &'static str,
        message: impl Into<String>,
    ) {
        if level < self.min_level {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            level,
            component,
            message: message.into(),
        });
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted due to the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Retained events from one component, oldest-first.
    #[must_use]
    pub fn for_component(&self, component: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.component == component)
            .collect()
    }

    /// Retained events at or above a severity, oldest-first.
    #[must_use]
    pub fn at_least(&self, level: TraceLevel) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.level >= level).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_n(log: &mut TraceLog, n: usize) {
        for i in 0..n {
            log.record(
                SimTime::from_nanos(i as u64),
                TraceLevel::Info,
                "test",
                format!("event {i}"),
            );
        }
    }

    #[test]
    fn records_in_order() {
        let mut log = TraceLog::new();
        log_n(&mut log, 5);
        let msgs: Vec<&str> = log.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(
            msgs,
            vec!["event 0", "event 1", "event 2", "event 3", "event 4"]
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = TraceLog::with_capacity(3);
        log_n(&mut log, 5);
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.iter().next().unwrap().message, "event 2");
    }

    #[test]
    fn min_level_filters() {
        let mut log = TraceLog::new();
        log.set_min_level(TraceLevel::Warn);
        log.record(SimTime::ZERO, TraceLevel::Debug, "c", "hidden");
        log.record(SimTime::ZERO, TraceLevel::Error, "c", "shown");
        assert_eq!(log.len(), 1);
        assert_eq!(log.iter().next().unwrap().level, TraceLevel::Error);
    }

    #[test]
    fn component_and_level_queries() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, TraceLevel::Info, "a", "1");
        log.record(SimTime::ZERO, TraceLevel::Warn, "b", "2");
        log.record(SimTime::ZERO, TraceLevel::Error, "a", "3");
        assert_eq!(log.for_component("a").len(), 2);
        assert_eq!(log.at_least(TraceLevel::Warn).len(), 2);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent {
            at: SimTime::from_secs(1),
            level: TraceLevel::Warn,
            component: "net",
            message: "handoff".into(),
        };
        let s = e.to_string();
        assert!(s.contains("WARN"));
        assert!(s.contains("net"));
        assert!(s.contains("handoff"));
    }
}
