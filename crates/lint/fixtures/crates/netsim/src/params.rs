//! Fixture: rule `knob-budget` — sixteen public fields against a budget of
//! fifteen. Every field is set by the fixture benchmark workload, so
//! `config-drift` is clean and the sixteenth is the only finding.

pub struct NetParams {
    pub k01: u64,
    pub k02: u64,
    pub k03: u64,
    pub k04: u64,
    pub k05: u64,
    pub k06: u64,
    pub k07: u64,
    pub k08: u64,
    pub k09: u64,
    pub k10: u64,
    pub k11: u64,
    pub k12: u64,
    pub k13: u64,
    pub k14: u64,
    pub k15: u64,
    /// One over: knob-budget.
    pub k16: u64,
    /// Not a knob: private fields do not count.
    scratch: u64,
}
