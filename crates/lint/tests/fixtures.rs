//! Fixture-driven self-tests: run the analyzer over a miniature workspace
//! containing one deliberate violation (and one near-miss) per rule and
//! assert the exact diagnostics, then assert the real workspace scans
//! clean (the acceptance gate itself).

use std::path::Path;

use skv_analyze::{analyze_workspace, check_workspace, to_json, Severity, Violation};

fn fixture_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

fn by_file<'a>(violations: &'a [Violation], file: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.file == file).collect()
}

fn lines_of(violations: &[Violation], file: &str, rule: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.file == file && v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn fixtures_produce_expected_diagnostics() {
    let violations = check_workspace(fixture_root()).expect("fixture walk");

    // --- per-line pattern rules ---------------------------------------
    let hashmap = by_file(&violations, "crates/netsim/src/bad_hashmap.rs");
    assert_eq!(
        hashmap.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![2, 3, 6, 7],
        "{hashmap:?}"
    );
    assert!(hashmap.iter().all(|v| v.rule == "hashmap"));

    let wallclock = by_file(&violations, "crates/simcore/src/bad_wallclock.rs");
    assert_eq!(
        wallclock.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![4, 5, 6, 7],
        "{wallclock:?}"
    );
    assert!(wallclock.iter().all(|v| v.rule == "wallclock"));

    let unwrap = by_file(&violations, "crates/core/src/server.rs");
    assert_eq!(
        unwrap.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![4, 5],
        "{unwrap:?}"
    );
    assert!(unwrap.iter().all(|v| v.rule == "unwrap"));

    // Blocking calls fire in sim crates only; the `thread::sleep` and
    // `std::fs::` twins in crates/bench stay clean (checked below).
    assert_eq!(
        lines_of(&violations, "crates/core/src/bad_blocking.rs", "blocking"),
        vec![4, 5, 6]
    );

    // Raw CQ polls are flagged everywhere on the event loop except the
    // budgeted-drain helper itself.
    assert_eq!(
        lines_of(&violations, "crates/core/src/bad_pollcq.rs", "pollcq"),
        vec![4]
    );
    // So are raw arms; the creation helper beside it is clean.
    assert_eq!(
        by_file(&violations, "crates/core/src/bad_armcq.rs")
            .iter()
            .map(|v| (v.line, v.rule))
            .collect::<Vec<_>>(),
        vec![(4, "armcq")]
    );

    // Handoffs are flagged everywhere but the fabric's notify site and
    // the crate that defines the primitive (both checked clean below).
    assert_eq!(
        lines_of(
            &violations,
            "crates/core/src/bad_handoff.rs",
            "handoff-site"
        ),
        vec![5]
    );

    // `std::sync` in a sim crate: both `use` lines and the inline path;
    // the `Rc`/`Cell` imports and the handoff call in `simcore` are clean.
    let sync = by_file(&violations, "crates/simcore/src/bad_sync.rs");
    assert_eq!(
        sync.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(5, "sync-in-sim"), (6, "sync-in-sim"), (11, "sync-in-sim")],
        "{sync:?}"
    );

    // The IO-free state machines name no network, context, connection
    // table, CPU model or channel: the import and both signatures fire
    // (once per type), `NetEvent` / `ChannelMsg` / `SimTime` do not.
    let io_free = by_file(&violations, "crates/core/src/replsink.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![
            (5, "io-free"),
            (6, "io-free"),
            (6, "io-free"),
            (6, "io-free"),
            (7, "io-free"),
            (7, "io-free"),
        ],
        "{io_free:?}"
    );
    // The master's half is held to the same: taking the connection table
    // to see which replicas are open, or the core pool to charge a
    // persist, is the actor's job — an address iterator and a frame list
    // are what cross the seam.
    let io_free = by_file(&violations, "crates/core/src/replsource.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(6, "io-free"), (7, "io-free"), (7, "io-free")],
        "{io_free:?}"
    );
    // And so are the two command front ends: the shard set hands back a
    // hop count instead of charging a core, the SoC front end a
    // connection index instead of sending on it.
    let io_free = by_file(&violations, "crates/core/src/shard.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(5, "io-free"), (6, "io-free")],
        "{io_free:?}"
    );
    let io_free = by_file(&violations, "crates/core/src/hotcache.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(5, "io-free"), (5, "io-free"), (6, "io-free")],
        "{io_free:?}"
    );
    // The host's link owner is told whether a channel is open and hands
    // back the address to dial: a context to dial with, or the table to
    // look the channel up in, is the actor's.
    let io_free = by_file(&violations, "crates/core/src/hostlinks.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(5, "io-free"), (6, "io-free")],
        "{io_free:?}"
    );
    // So is Nic-KV's node list: it is told which channel closed and hands
    // back the update to send, never looking a channel up or sending it.
    let io_free = by_file(&violations, "crates/core/src/nodelist.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(5, "io-free"), (6, "io-free")],
        "{io_free:?}"
    );
    // And the master's write gate: it is told which connections are open
    // and hands back the replies to post, never looking one up or posting.
    let io_free = by_file(&violations, "crates/core/src/commitgate.rs");
    assert_eq!(
        io_free.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(5, "io-free"), (6, "io-free")],
        "{io_free:?}"
    );

    // --- wire-format hygiene ------------------------------------------
    // Narrowing casts only; the `as u64` / `as usize` widenings are clean.
    assert_eq!(
        lines_of(&violations, "crates/core/src/protocol.rs", "cast-truncate"),
        vec![4, 5, 6]
    );
    // Range indexing only; `.get(range)` and single-element lookups are
    // clean.
    assert_eq!(
        lines_of(&violations, "crates/core/src/channel.rs", "index-unchecked"),
        vec![4, 5]
    );

    // --- drift rules ---------------------------------------------------
    // `orphan_knob` is swept by nothing; `used_knob` is referenced from
    // the fixture bench crate, `benchmark_knob` from the fixture benchmark
    // package, and `excused_knob` carries a reasoned allow.
    assert_eq!(
        lines_of(&violations, "crates/core/src/config.rs", "config-drift"),
        vec![7]
    );
    // Sixteen public `NetParams` fields against a budget of fifteen: the
    // sixteenth is the finding, and the only one (the benchmark package
    // sets all sixteen, and is itself scanned by no rule).
    let params = by_file(&violations, "crates/netsim/src/params.rs");
    assert_eq!(
        params.iter().map(|v| (v.line, v.rule)).collect::<Vec<_>>(),
        vec![(22, "knob-budget")],
        "{params:?}"
    );
    assert!(violations.iter().all(|v| !v.file.starts_with("benchmark/")));

    // `GET` and `MSET` are rows of the fixture command table; matching or
    // comparing them in core is drift. The option word, the command being
    // *built*, the prose in a string and the allowed fast path are clean.
    assert_eq!(
        lines_of(&violations, "crates/core/src/bad_cmd_match.rs", "cmd-drift"),
        vec![4, 8]
    );
    assert_eq!(
        by_file(&violations, "crates/core/src/bad_cmd_match.rs").len(),
        2
    );

    // --- size ----------------------------------------------------------
    // 801 code lines in core: the 801st is the finding. The fixture
    // `server.rs` is far under its ceiling and reports only its unwraps.
    assert_eq!(
        by_file(&violations, "crates/core/src/over_budget.rs")
            .iter()
            .map(|v| (v.line, v.rule))
            .collect::<Vec<_>>(),
        vec![(805, "file-budget")]
    );

    // --- allow auditing ------------------------------------------------
    // A reason-less (or typo'd) allow is flagged AND does not suppress
    // the underlying finding.
    let bad_allow = by_file(&violations, "crates/core/src/bad_allow.rs");
    let rules: Vec<_> = bad_allow.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(
        rules,
        vec![
            (3, "allow-syntax"),
            (3, "hashmap"),
            (6, "allow-syntax"),
            (6, "hashmap"),
        ],
        "{bad_allow:?}"
    );
    // A well-formed allow that excuses nothing is reported as stale.
    assert_eq!(
        lines_of(
            &violations,
            "crates/core/src/unused_allow.rs",
            "allow-unused"
        ),
        vec![4]
    );

    // Justified allows, cfg(test) code, the cqdrain exemption, and
    // out-of-scope crates are all clean.
    for clean in [
        "crates/core/src/allowed.rs",
        "crates/core/src/test_only.rs",
        "crates/core/src/cqdrain.rs",
        "crates/netsim/src/fabric.rs",
        "crates/bench/src/ablations.rs",
        "crates/bench/src/blocking_ok.rs",
        "crates/bench/src/out_of_scope.rs",
        "crates/store/src/cmd/mod.rs",
    ] {
        assert!(
            by_file(&violations, clean).is_empty(),
            "{clean} should be clean: {:?}",
            by_file(&violations, clean)
        );
    }

    assert_eq!(violations.len(), 54, "{violations:?}");
}

#[test]
fn severities_split_errors_from_warnings() {
    let analysis = analyze_workspace(fixture_root()).expect("fixture walk");
    // Exactly one warning: the stale allow. Everything else is an error.
    assert_eq!(analysis.warnings(), 1);
    assert_eq!(analysis.errors(), 53);
    assert!(analysis
        .violations
        .iter()
        .filter(|v| v.severity() == Severity::Warning)
        .all(|v| v.rule == "allow-unused"));
}

#[test]
fn json_report_round_trips_fixture_diagnostics() {
    let analysis = analyze_workspace(fixture_root()).expect("fixture walk");
    let json = to_json(&analysis);
    // Cheap structural checks without a JSON parser: every rule name that
    // fired appears, and the violation count matches.
    for rule in [
        "hashmap",
        "wallclock",
        "unwrap",
        "blocking",
        "pollcq",
        "armcq",
        "handoff-site",
        "sync-in-sim",
        "io-free",
        "cast-truncate",
        "index-unchecked",
        "config-drift",
        "knob-budget",
        "cmd-drift",
        "file-budget",
        "allow-syntax",
        "allow-unused",
    ] {
        assert!(
            json.contains(&format!("\"rule\": \"{rule}\"")),
            "missing rule {rule} in JSON:\n{json}"
        );
    }
    assert_eq!(json.matches("\"rule\":").count(), 54, "{json}");
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let violations = check_workspace(fixture_root()).expect("fixture walk");
    let first = violations
        .iter()
        .find(|v| v.file == "crates/netsim/src/bad_hashmap.rs")
        .expect("hashmap fixture diagnostic");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/netsim/src/bad_hashmap.rs:2: rule(hashmap): "),
        "{rendered}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let violations = check_workspace(root).expect("workspace walk");
    assert!(
        violations.is_empty(),
        "skv-analyze found violations in the real workspace:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
