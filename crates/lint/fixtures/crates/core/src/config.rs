//! Fixture: rule `config-drift` — knobs vs the experiment corpus.

pub struct ClusterConfig {
    /// Swept by the fixture ablation below: clean.
    pub used_knob: usize,
    /// Nothing references it: config-drift.
    pub orphan_knob: usize,
    // skv-lint: allow(config-drift) -- fixture: guardrail constant, deliberately not swept
    pub excused_knob: usize,
    /// Set only by the fixture benchmark workload: clean.
    pub benchmark_knob: usize,
}
