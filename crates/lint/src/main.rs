//! Command-line entry point for `skv-analyze`.
//!
//! Exit codes: `0` clean (or warnings only), `1` error-severity
//! violations found (or any violation under `--deny-warnings`),
//! `2` usage or I/O error.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

use skv_analyze::{analyze_workspace, stats_table, to_json, RULES};

const HELP_HEADER: &str = "\
skv-analyze: token-level static analysis for the SKV reproduction

USAGE:
    cargo run -p skv-analyze [-- --root <dir>] [--format text|json] [--deny-warnings] [--stats]

Walks every non-test .rs file under <root>/crates/ and <root>/examples/
with a small Rust lexer (comments, strings, raw strings, nested block
comments, cfg(test) brace tracking; <root>/benchmark/src is read only for
the config knobs it names) and enforces:
";

const HELP_FOOTER: &str = "
Suppress a finding with a justified directive on (or directly above) the line:
    // skv-lint: allow(<rule>) -- <reason>

Without --root, the workspace root is located by walking up from the
current directory to the first Cargo.toml containing [workspace].
--format json prints the machine-readable report (schema: DESIGN.md §14).
--stats prints, instead of the findings, the non-test code lines of every
scanned file (same lexer: comments, blank lines and cfg(test) items do not
count) and the public field count of each drift-checked config struct.
";

fn print_help() {
    print!("{HELP_HEADER}");
    for r in RULES {
        println!(
            "    {:<16} [{}] {} — {}",
            r.name,
            r.severity.as_str(),
            r.summary,
            r.scope
        );
    }
    print!("{HELP_FOOTER}");
}

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format_json = false;
    let mut deny_warnings = false;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("skv-analyze: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => {
                    eprintln!("skv-analyze: --format requires `text` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--deny-warnings" => deny_warnings = true,
            "--stats" => stats = true,
            "-h" | "--help" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("skv-analyze: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("skv-analyze: could not locate a workspace root (pass --root <dir>)");
        return ExitCode::from(2);
    };

    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skv-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if stats {
        print!("{}", stats_table(&analysis));
        return ExitCode::SUCCESS;
    }
    if format_json {
        print!("{}", to_json(&analysis));
    } else if analysis.violations.is_empty() {
        println!(
            "skv-analyze: clean ({} files, {} rules enforced)",
            analysis.files_scanned,
            RULES.len()
        );
    } else {
        for v in &analysis.violations {
            println!("{} [{}]", v, v.severity().as_str());
        }
        println!(
            "skv-analyze: {} error{}, {} warning{}",
            analysis.errors(),
            if analysis.errors() == 1 { "" } else { "s" },
            analysis.warnings(),
            if analysis.warnings() == 1 { "" } else { "s" },
        );
    }

    let fail = analysis.errors() > 0 || (deny_warnings && !analysis.violations.is_empty());
    if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
