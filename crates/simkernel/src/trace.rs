//! Lightweight structured tracing.
//!
//! Tracing is off by default (experiments run millions of events); tests
//! and the examples enable it to show protocol walk-throughs.

use std::fmt;

use crate::actor::ActorId;
use crate::time::SimTime;

/// One trace record.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Simulated time of the record.
    pub at: SimTime,
    /// Emitting actor.
    pub actor: ActorId,
    /// Free-form message.
    pub message: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.actor, self.message)
    }
}

/// Trace sink.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    records: Vec<TraceRecord>,
    max_records: usize,
    dropped: u64,
}

impl Trace {
    /// A disabled trace.
    pub fn new() -> Self {
        Trace {
            enabled: false,
            records: Vec::new(),
            max_records: 100_000,
            dropped: 0,
        }
    }

    /// Enable or disable record collection.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether record collection is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Cap on retained records (oldest beyond the cap are dropped).
    pub fn set_max_records(&mut self, max: usize) {
        self.max_records = max;
    }

    /// Append a record if tracing is enabled.
    pub fn record(&mut self, at: SimTime, actor: ActorId, message: String) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.max_records {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord { at, actor, message });
    }

    /// All retained records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records dropped due to the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records whose message contains `needle` (test helper).
    pub fn find(&self, needle: &str) -> Vec<&TraceRecord> {
        self.records
            .iter()
            .filter(|r| r.message.contains(needle))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, ActorId::from_index(0), "hello".into());
        assert!(t.records().is_empty());
    }

    #[test]
    fn enabled_trace_collects_and_finds() {
        let mut t = Trace::new();
        t.set_enabled(true);
        t.record(
            SimTime::from_secs(1),
            ActorId::from_index(2),
            "token sent".into(),
        );
        t.record(
            SimTime::from_secs(2),
            ActorId::from_index(3),
            "ckpt done".into(),
        );
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.find("token").len(), 1);
        assert!(format!("{}", t.records()[0]).contains("token sent"));
    }

    #[test]
    fn record_cap_drops() {
        let mut t = Trace::new();
        t.set_enabled(true);
        t.set_max_records(3);
        for i in 0..5 {
            t.record(SimTime::ZERO, ActorId::from_index(0), format!("r{i}"));
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 2);
    }
}
