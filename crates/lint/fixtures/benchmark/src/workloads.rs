//! Fixture: the benchmark package — outside `crates/`, so no rule scans
//! it (the `HashMap` below is not a finding), but a knob a workload sets
//! counts as exercised for rule `config-drift`.

use std::collections::HashMap;

fn workload(cfg: &mut ClusterConfig, p: &mut NetParams) {
    cfg.benchmark_knob = 3;
    (p.k01, p.k02, p.k03, p.k04) = (1, 2, 3, 4);
    (p.k05, p.k06, p.k07, p.k08) = (5, 6, 7, 8);
    (p.k09, p.k10, p.k11, p.k12) = (9, 10, 11, 12);
    (p.k13, p.k14, p.k15, p.k16) = (13, 14, 15, 16);
}
