//! Counter families declared once, as fixed slots.
//!
//! [`counter_slots!`](crate::counter_slots) declares a family: an enum whose
//! variants are the slots, each with its full exported name. A
//! [`CounterSet`] holds one `u64` per slot, so a hot path adds to an array
//! index instead of looking a name up in a map, and the only place a
//! counter's name is written is its declaration.
//!
//! A set leaves a run through one of two exports into the string-keyed
//! [`Counters`]: [`CounterSet::export`] writes every name (a fixed schema,
//! zero when never hit) and [`CounterSet::export_written`] only the names
//! written so far, even if only ever by zero.

use super::Counters;

/// A counter family: implemented by the enum [`counter_slots!`]
/// declares.
///
/// [`counter_slots!`]: crate::counter_slots
pub trait CounterSlot: Copy {
    /// Full exported name of each slot, in slot order.
    const NAMES: &'static [&'static str];
    /// One `u64` per slot.
    type Values: AsRef<[u64]> + AsMut<[u64]> + Clone + Default;
    /// This slot's position in [`NAMES`](Self::NAMES).
    fn index(self) -> usize;
}

/// Declare counter families: per family an enum of slots, each with its
/// exported name, implementing [`CounterSlot`](crate::stats::CounterSlot).
/// A family has at most 32 slots (the written mask of a
/// [`CounterSet`](crate::stats::CounterSet)).
///
/// ```
/// skv_simcore::counter_slots! {
///     /// Requests a toy server saw.
///     pub enum ToyStat {
///         /// Requests answered.
///         Served => "toy.served",
///         /// Requests refused.
///         Refused => "toy.refused",
///     }
///
///     /// Bytes it moved.
///     pub enum ToyBytes {
///         /// Bytes in.
///         In => "toy.bytes_in",
///     }
/// }
///
/// let mut set = skv_simcore::stats::CounterSet::<ToyStat>::default();
/// set.inc(ToyStat::Served);
/// assert_eq!(set.get(ToyStat::Served), 1);
/// ```
#[macro_export]
macro_rules! counter_slots {
    ($($(#[$meta:meta])* $vis:vis enum $family:ident {
        $($(#[$slot_meta:meta])* $slot:ident => $name:literal,)*
    })*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis enum $family { $($(#[$slot_meta])* $slot,)* }

        impl $crate::stats::CounterSlot for $family {
            const NAMES: &'static [&'static str] = &[$($name,)*];
            type Values = [u64; [$($name,)*].len()];
            #[inline]
            fn index(self) -> usize {
                self as usize
            }
        }

        const _: () = assert!(
            <$family as $crate::stats::CounterSlot>::NAMES.len() <= 32,
            "a CounterSet's written mask is a u32",
        );
    )*};
}

/// One `u64` per slot of family `S`, plus which slots have been written.
pub struct CounterSet<S: CounterSlot> {
    values: S::Values,
    written: u32,
}

impl<S: CounterSlot> CounterSet<S> {
    /// Add `delta` to `slot`.
    #[inline]
    pub fn add(&mut self, slot: S, delta: u64) {
        let i = slot.index();
        self.values.as_mut()[i] += delta;
        self.written |= 1 << i;
    }

    /// Increment `slot` by one.
    #[inline]
    pub fn inc(&mut self, slot: S) {
        self.add(slot, 1);
    }

    /// Read `slot` (0 if never written).
    pub fn get(&self, slot: S) -> u64 {
        self.values.as_ref()[slot.index()]
    }

    /// Add every slot of `other` into this set.
    pub fn merge(&mut self, other: &Self) {
        for (v, &o) in self.values.as_mut().iter_mut().zip(other.values.as_ref()) {
            *v += o;
        }
        self.written |= other.written;
    }

    /// Add every slot to `out` under its name, written or not.
    pub fn export(&self, out: &mut Counters) {
        for (&name, &value) in S::NAMES.iter().zip(self.values.as_ref()) {
            out.add(name, value);
        }
    }

    /// Add the written slots to `out` under their names.
    pub fn export_written(&self, out: &mut Counters) {
        let values = S::NAMES.iter().zip(self.values.as_ref());
        for (i, (&name, &value)) in values.enumerate() {
            if self.written & (1 << i) != 0 {
                out.add(name, value);
            }
        }
    }
}

impl<S: CounterSlot> Default for CounterSet<S> {
    fn default() -> Self {
        CounterSet {
            values: S::Values::default(),
            written: 0,
        }
    }
}

impl<S: CounterSlot> Clone for CounterSet<S> {
    fn clone(&self) -> Self {
        CounterSet {
            values: self.values.clone(),
            written: self.written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_slots! {
        /// A miniature family for the tests.
        enum Demo {
            Bytes => "demo.bytes",
            Doorbells => "demo.doorbells",
            Polled => "demo.polled",
            Messages => "demo.messages",
            Untouched => "demo.untouched",
        }
    }

    fn exported(set: &CounterSet<Demo>, all: bool) -> Vec<(&'static str, u64)> {
        let mut out = Counters::new();
        if all {
            set.export(&mut out);
        } else {
            set.export_written(&mut out);
        }
        out.iter().collect()
    }

    #[test]
    fn every_slot_has_a_distinct_name_and_fits_the_mask() {
        assert!(Demo::NAMES.len() <= 32, "`written` is a u32 mask");
        assert_eq!(Demo::Untouched.index(), Demo::NAMES.len() - 1);
        let mut names = Demo::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Demo::NAMES.len());
    }

    #[test]
    fn snapshot_lists_written_slots_only_zero_adds_included() {
        let mut c = CounterSet::<Demo>::default();
        assert_eq!(exported(&c, false), vec![]);
        c.inc(Demo::Doorbells);
        c.add(Demo::Bytes, 64);
        c.add(Demo::Polled, 0);
        c.inc(Demo::Messages);
        assert_eq!(
            exported(&c, false),
            vec![
                ("demo.bytes", 64),
                ("demo.doorbells", 1),
                ("demo.messages", 1),
                ("demo.polled", 0),
            ]
        );
    }

    #[test]
    fn full_export_writes_each_name_once_and_sums_across_sets() {
        let empty = CounterSet::<Demo>::default();
        let zeros: Vec<_> = exported(&empty, true);
        let mut names: Vec<_> = zeros.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        let mut declared = Demo::NAMES.to_vec();
        declared.sort_unstable();
        assert_eq!(names, declared, "every name, each once");
        assert!(zeros.iter().all(|&(_, v)| v == 0));

        let mut a = CounterSet::<Demo>::default();
        a.add(Demo::Bytes, 5);
        let mut b = CounterSet::<Demo>::default();
        b.add(Demo::Bytes, 7);
        b.inc(Demo::Polled);
        let mut out = Counters::new();
        a.export(&mut out);
        b.export(&mut out);
        assert_eq!(out.iter().count(), Demo::NAMES.len());
        assert_eq!((out.get("demo.bytes"), out.get("demo.polled")), (12, 1));

        a.merge(&b);
        assert_eq!((a.get(Demo::Bytes), a.get(Demo::Polled)), (12, 1));
        assert_eq!(
            exported(&a, false),
            vec![("demo.bytes", 12), ("demo.polled", 1)]
        );
    }
}
