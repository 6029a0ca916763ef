//! Measurement utilities: histograms, time series, and counters.

mod histogram;
mod slots;
mod timeseries;

pub use histogram::Histogram;
pub use slots::{CounterSet, CounterSlot};
pub use timeseries::{SeriesPoint, TimeSeries};

use std::collections::BTreeMap;
use std::fmt;

/// A set of named monotonically increasing counters.
///
/// Backed by a `BTreeMap` so that iteration (and hence any report built from
/// it) is deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    values: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Create an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.values.entry(name).or_insert(0) += delta;
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read counter `name` (0 if never written).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    /// Merge another counter set into this one (summing shared names).
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.inc("ops");
        c.add("ops", 4);
        c.add("errors", 1);
        assert_eq!(c.get("ops"), 5);
        assert_eq!(c.get("errors"), 1);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn counters_merge_and_order() {
        let mut a = Counters::new();
        a.add("b", 1);
        a.add("a", 2);
        let mut b = Counters::new();
        b.add("b", 10);
        a.merge(&b);
        let items: Vec<_> = a.iter().collect();
        assert_eq!(items, vec![("a", 2), ("b", 11)]);
        assert_eq!(a.to_string(), "a: 2\nb: 11\n");
    }
}
