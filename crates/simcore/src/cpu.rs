//! CPU core modelling.
//!
//! The paper's central resource argument is about *CPU time*: the master's
//! single server thread spends cycles posting one RDMA Work Request per
//! slave per write command, and SKV reclaims those cycles by moving the
//! fan-out onto the SmartNIC's (slower) ARM cores. [`CorePool`] models a set
//! of serialized execution units with a speed factor, tracking when each
//! core next becomes free and how much busy time it has accumulated.
//!
//! Work submitted to a core runs FIFO: completion time is
//! `max(now, busy_until) + cost / speed`. Actors schedule their own
//! completion events at the returned instant, which is how a single-threaded
//! Redis event loop's serialization (and its queueing-driven tail latency)
//! emerges in the simulation.

use crate::time::{SimDuration, SimTime};

/// A set of CPU cores with a common speed factor.
#[derive(Debug, Clone)]
pub struct CorePool {
    /// `busy_until[i]` is the instant core `i` next becomes free.
    busy_until: Vec<SimTime>,
    /// Accumulated busy time per core (for utilization reporting).
    busy_total: Vec<SimDuration>,
    /// Relative speed: 1.0 = reference host core. A BlueField ARM A72 core
    /// is ~0.35 of a Xeon core on this workload (paper §II-C / [22]).
    speed: f64,
}

/// Receipt for one piece of executed work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkDone {
    /// Core the work ran on.
    pub core: usize,
    /// Instant the work started executing (after any queueing).
    pub started: SimTime,
    /// Instant the work completed.
    pub finished: SimTime,
}

impl WorkDone {
    /// Time spent waiting for the core plus executing.
    pub fn total_delay_from(&self, submitted: SimTime) -> SimDuration {
        self.finished.saturating_since(submitted)
    }
}

impl CorePool {
    /// Create `n` cores with the given speed factor.
    ///
    /// # Panics
    /// Panics if `n == 0` or `speed` is not a positive finite number.
    pub fn new(n: usize, speed: f64) -> Self {
        assert!(n > 0, "a core pool needs at least one core");
        assert!(
            speed.is_finite() && speed > 0.0,
            "core speed must be positive"
        );
        CorePool {
            busy_until: vec![SimTime::ZERO; n],
            busy_total: vec![SimDuration::ZERO; n],
            speed,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.busy_until.len()
    }

    /// The speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Scale `cost` (expressed in reference-core time) to this pool's cores.
    #[inline]
    pub fn scaled(&self, cost: SimDuration) -> SimDuration {
        cost.mul_f64(1.0 / self.speed)
    }

    /// Run `cost` of work on a specific core, FIFO after anything already
    /// queued there. Returns start/finish instants.
    pub fn run_on(&mut self, core: usize, now: SimTime, cost: SimDuration) -> WorkDone {
        let scaled = self.scaled(cost);
        let started = self.busy_until[core].max(now);
        let finished = started + scaled;
        self.busy_until[core] = finished;
        self.busy_total[core] += scaled;
        WorkDone {
            core,
            started,
            finished,
        }
    }

    /// Run `cost` on the core that frees up earliest (lowest index wins
    /// ties, keeping runs deterministic).
    pub fn run_any(&mut self, now: SimTime, cost: SimDuration) -> WorkDone {
        let core = self.earliest_free_core();
        self.run_on(core, now, cost)
    }

    /// Index of the core that becomes free soonest (lowest index on ties).
    pub fn earliest_free_core(&self) -> usize {
        self.busy_until
            .iter()
            .enumerate()
            .min_by_key(|&(i, t)| (*t, i))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Queueing depth proxy: how far in the future the given core's queue
    /// currently extends.
    pub fn backlog(&self, core: usize, now: SimTime) -> SimDuration {
        self.busy_until[core].saturating_since(now)
    }

    /// Total busy time accumulated on a core.
    pub fn busy_time(&self, core: usize) -> SimDuration {
        self.busy_total[core]
    }

    /// Utilization of a core over the window `[0, now]`, in `[0, 1]`.
    pub fn utilization(&self, core: usize, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_total[core].as_secs_f64() / now.as_secs_f64()).min(1.0)
    }

    /// Mean utilization across all cores over `[0, now]`.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        let n = self.num_cores();
        (0..n).map(|c| self.utilization(c, now)).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn fifo_on_one_core() {
        let mut pool = CorePool::new(1, 1.0);
        let a = pool.run_on(0, at(0), us(10));
        assert_eq!(a.started, at(0));
        assert_eq!(a.finished, at(10));
        // Submitted at t=2 but the core is busy until t=10.
        let b = pool.run_on(0, at(2), us(5));
        assert_eq!(b.started, at(10));
        assert_eq!(b.finished, at(15));
        assert_eq!(b.total_delay_from(at(2)), us(13));
    }

    #[test]
    fn idle_gap_does_not_accumulate_busy_time() {
        let mut pool = CorePool::new(1, 1.0);
        pool.run_on(0, at(0), us(10));
        pool.run_on(0, at(100), us(10)); // 80us idle in between
        assert_eq!(pool.busy_time(0), us(20));
        assert!((pool.utilization(0, at(200)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn speed_factor_scales_cost() {
        let mut slow = CorePool::new(1, 0.5);
        let w = slow.run_on(0, at(0), us(10));
        assert_eq!(w.finished, at(20)); // half-speed core takes twice as long
        assert_eq!(slow.scaled(us(7)), us(14));
    }

    #[test]
    fn run_any_picks_least_loaded_core() {
        let mut pool = CorePool::new(2, 1.0);
        let w0 = pool.run_any(at(0), us(10));
        let w1 = pool.run_any(at(0), us(10));
        assert_eq!(w0.core, 0);
        assert_eq!(w1.core, 1);
        assert_eq!(w1.started, at(0)); // parallel, not queued
        let w2 = pool.run_any(at(0), us(1));
        assert_eq!(w2.started, at(10)); // both busy; queued on core 0
        assert_eq!(w2.core, 0);
    }

    #[test]
    fn backlog_reflects_queue_depth() {
        let mut pool = CorePool::new(1, 1.0);
        pool.run_on(0, at(0), us(30));
        assert_eq!(pool.backlog(0, at(10)), us(20));
        assert_eq!(pool.backlog(0, at(40)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CorePool::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn bad_speed_rejected() {
        let _ = CorePool::new(1, 0.0);
    }

    #[test]
    fn mean_utilization_averages() {
        let mut pool = CorePool::new(2, 1.0);
        pool.run_on(0, at(0), us(100));
        assert!((pool.mean_utilization(at(100)) - 0.5).abs() < 1e-9);
    }
}
