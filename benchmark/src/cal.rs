//! The calibration kernel: a fixed amount of host work whose duration is
//! the unit `host_cal_per_kop` is expressed in.
//!
//! It runs the same mix the simulator runs per event — allocate a payload,
//! box it as `dyn Any`, move it through an ordered map, downcast it back —
//! so a noisy neighbour, a frequency step or a slower machine stretches a
//! pass and a simulation slice alike, and their ratio stays put.
//!
//! FROZEN: changing anything in [`pass`] re-baselines every
//! `host_cal_per_kop` and `*_ucal` number ever recorded.

use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::trace::Tracer;

/// Map operations per pass.
const OPS: u32 = 150_000;
/// What one pass took on the machine the benchmark was defined on; turns a
/// cost in passes into "reference seconds" (see `HostStats::setup_s`).
pub const REFERENCE_PASS_S: f64 = 0.015;
/// Distinct keys; bounds the map (and the kernel's footprint) to a few
/// hundred KiB.
const KEY_MASK: u64 = 0xFFF;
/// Payload size, the benchmark's most common value size.
const PAYLOAD: usize = 64;

/// Run one calibration pass and return how long it took. Allocation
/// counting is suspended for the duration, so the kernel never shows up in
/// a workload's allocation metrics.
pub fn pass() -> Duration {
    let _uncounted = alloc::pause();
    let start = Instant::now();
    let mut map: BTreeMap<u64, Box<dyn Any>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & KEY_MASK;
        match i % 3 {
            0 => {
                let payload: Box<dyn Any> = Box::new(vec![(i & 0xFF) as u8; PAYLOAD]);
                map.insert(key, payload);
            }
            1 => {
                if let Some(v) = map.get(&key).and_then(|b| b.downcast_ref::<Vec<u8>>()) {
                    acc += v.len() as u64 + u64::from(v[0]);
                }
            }
            _ => {
                if let Some(v) = map.remove(&key).and_then(|b| b.downcast::<Vec<u8>>().ok()) {
                    acc += v.len() as u64;
                }
            }
        }
    }
    black_box(acc);
    drop(map);
    start.elapsed()
}

/// [`pass`] inside a `calibration` span.
pub fn traced_pass(tr: &mut Tracer) -> Duration {
    let span = tr.open(|| "calibration".into());
    let took = pass();
    tr.close(span);
    took
}
