//! # skv-bench — experiment harness for the SKV reproduction
//!
//! One function per figure of the paper's evaluation, plus ablations, each
//! returning a [`table::Table`]; [`REGISTRY`] names them all. Run everything
//! with:
//!
//! ```text
//! cargo run --release -p skv-bench --bin experiments -- all
//! ```
//!
//! `experiments --check NAME…` renders the named arms and compares each
//! with its block of the committed `experiments_output.txt` ([`golden`]).

#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod golden;
pub mod table;

use ablations as abl;
use experiments as exp;
use table::Table;

/// A named experiment.
pub type Arm = (&'static str, fn() -> Table);

/// Every figure and ablation, in the order `experiments all` runs them and
/// `experiments_output.txt` records them.
pub const REGISTRY: &[Arm] = &[
    ("fig3", exp::fig03_rdma_write_latency),
    ("fig7", exp::fig07_slave_degradation),
    ("fig10", exp::fig10_redis_vs_rdma),
    ("fig11", exp::fig11_set_offload),
    ("fig12", exp::fig12_value_size),
    ("fig13", exp::fig13_get_parity),
    ("fig14", exp::fig14_availability),
    ("niccrash", exp::nic_crash_timeline),
    ("threadnum", abl::ablation_threadnum),
    ("nicstore", abl::ablation_nic_datastore),
    ("wrcost", abl::ablation_wr_cost),
    ("wrbatch", abl::ablation_wr_batching),
    ("netcal", abl::ablation_netcal),
    ("backoff", abl::ablation_backoff),
    ("replmode", abl::ablation_replmode),
    ("slavecount", abl::ablation_slave_count),
    ("failparams", abl::ablation_failure_params),
    ("probeloss", abl::ablation_probe_loss),
    ("pipeline", abl::ablation_pipeline),
    ("shards", abl::ablation_shards),
    ("hotcache", abl::ablation_hotcache),
];

/// The arms `names` selects, in the order given: the whole registry for no
/// names or any `all`, otherwise each named arm. An unknown name is an
/// error that lists the valid ones, so a typo runs nothing.
pub fn select(names: &[String]) -> Result<Vec<Arm>, String> {
    if names.is_empty() || names.iter().any(|n| n == "all") {
        return Ok(REGISTRY.to_vec());
    }
    names
        .iter()
        .map(|name| {
            REGISTRY
                .iter()
                .find(|(known, _)| known == name)
                .copied()
                .ok_or_else(|| {
                    let known: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
                    format!(
                        "unknown experiment {name:?}; valid: all {}",
                        known.join(" ")
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(arms: &[Arm]) -> Vec<&'static str> {
        arms.iter().map(|(n, _)| *n).collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn registry_names_are_unique() {
        let mut seen = names(REGISTRY);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), REGISTRY.len());
        assert!(!seen.contains(&"all"), "`all` is reserved");
    }

    #[test]
    fn all_and_no_arguments_select_the_registry_in_order() {
        let everything = names(REGISTRY);
        assert_eq!(names(&select(&[]).unwrap()), everything);
        assert_eq!(names(&select(&args(&["all"])).unwrap()), everything);
        assert_eq!(names(&select(&args(&["fig7", "all"])).unwrap()), everything);
    }

    #[test]
    fn named_arms_run_in_the_order_given() {
        let picked = select(&args(&["shards", "fig3", "shards"])).unwrap();
        assert_eq!(names(&picked), ["shards", "fig3", "shards"]);
    }

    #[test]
    fn an_unknown_name_selects_nothing_and_lists_the_valid_ones() {
        let err = select(&args(&["fig3", "fig33"])).unwrap_err();
        assert!(err.contains("\"fig33\""), "{err}");
        for (name, _) in REGISTRY {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }

    /// Rendering the cheapest arm (fabric only, ≈ 1 s) against its block
    /// keeps the renderer, the registry order and the committed file from
    /// drifting apart — `experiments --check fig3`, in tier-1.
    #[test]
    fn fig3_renders_the_committed_block() {
        let recorded = include_str!("../../../experiments_output.txt");
        assert_eq!(REGISTRY[0].0, "fig3");
        assert_eq!(golden::check(&REGISTRY[0], recorded), Ok(()));
    }
}
