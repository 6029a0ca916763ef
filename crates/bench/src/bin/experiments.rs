//! CLI driver: regenerate any (or all) of the paper's figures.
//!
//! Usage: `experiments [NAME...]` with the names of `skv_bench::REGISTRY`,
//! or `all` / no argument for every one of them in registry order.

use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let arms = match skv_bench::select(&names) {
        Ok(arms) => arms,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    for (_, run) in arms {
        println!("{}", run());
    }
    ExitCode::SUCCESS
}
