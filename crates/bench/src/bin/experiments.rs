//! CLI driver: regenerate any (or all) of the paper's figures.
//!
//! Usage: `experiments [--check] [NAME...]` with the names of
//! `skv_bench::REGISTRY`, or `all` / no name for every one of them in
//! registry order. With `--check` nothing is printed but a verdict per arm:
//! each is compared with its block of the committed
//! `experiments_output.txt`, and a mismatch prints a unified diff and
//! makes the exit code 1.

use std::process::ExitCode;

use skv_bench::golden;

fn main() -> ExitCode {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let check = names.first().is_some_and(|arg| arg == "--check");
    if check {
        names.remove(0);
    }
    let arms = match skv_bench::select(&names) {
        Ok(arms) => arms,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    if !check {
        for (_, run) in arms {
            println!("{}", run());
        }
        return ExitCode::SUCCESS;
    }
    let recorded = match std::fs::read_to_string(golden::RECORDED_PATH) {
        Ok(text) => text,
        Err(why) => {
            eprintln!("{}: {why}", golden::RECORDED_PATH);
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for arm in &arms {
        match golden::check(arm, &recorded) {
            Ok(()) => println!("{}: matches experiments_output.txt", arm.0),
            Err(diff) => {
                println!("{}: DIFFERS\n{diff}", arm.0);
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
