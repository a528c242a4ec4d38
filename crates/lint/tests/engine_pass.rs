//! Golden tests for the `engine` pass: the shipped presets lint clean
//! (library- and CLI-level), and the committed malformed fixture — which
//! *parses* structurally — is rejected with one finding per broken semantic
//! rule and a nonzero exit.

use nt_lint::{engine, Severity};
use std::process::Command;

#[test]
fn cli_engine_pass_is_clean_on_the_shipped_presets() {
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .arg("engine")
        .output()
        .expect("spawn nt-lint");
    assert!(
        out.status.success(),
        "the shipped engine presets must lint clean; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"));
}

#[test]
fn cli_rejects_the_golden_malformed_engine_config() {
    // The committed fixture parses (structural validity) but breaks every
    // semantic rule at once: zero threads, non-power-of-two shards,
    // inverted backoff bounds with a zero round duration, and no watchdog. The `engine` pass must flag each and fail the run.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/malformed.engine.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["engine", fixture])
        .output()
        .expect("spawn nt-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "malformed engine config must fail the run"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("threads must be >= 1"), "{stdout}");
    assert!(stdout.contains("power of two"), "{stdout}");
    assert!(stdout.contains("backoff_round_us"), "{stdout}");
    assert!(stdout.contains("cap_rounds"), "{stdout}");
    assert!(stdout.contains("max_wall_ms"), "{stdout}");
}

#[test]
fn engine_files_route_to_the_engine_pass_not_the_plan_pass() {
    // A `*.engine.json` argument must be linted as an engine config even
    // though it also ends in `.json` — the plan pass would misparse it.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/malformed.engine.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["engine", fixture])
        .output()
        .expect("spawn nt-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("not a valid plan document"), "{stdout}");
    assert!(stdout.contains("engine"), "{stdout}");
}

#[test]
fn cli_rejects_engine_configs_with_unknown_keys() {
    // A typo'd knob must be named in the finding, not silently ignored —
    // a misspelled "threads" would otherwise run the default thread count
    // while the author believes the override took.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/unknown-key.engine.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["engine", fixture])
        .output()
        .expect("spawn nt-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "unknown-key engine config must fail the run"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("threds"), "{stdout}");

    // `durability` was an engine-config key no code read (`run_plan`
    // mounts no store); a document still carrying it is refused the same
    // way, by name.
    let stale = include_str!("fixtures/unknown-key.engine.json")
        .replace("\"threds\"", "\"threads\"")
        .replacen('{', "{\"durability\": \"fsync\",", 1);
    let fs = engine::lint_config_json("stale.engine.json", &stale);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].severity, Severity::Error);
    assert!(fs[0].message.contains("unknown"), "{fs:?}");
    assert!(fs[0].message.contains("durability"), "{fs:?}");

    // So is the detector period: deadlock is detected at the enqueue that
    // closes the cycle, and the knob went with the detector thread.
    let stale = include_str!("fixtures/unknown-key.engine.json")
        .replace("\"threds\"", "\"threads\"")
        .replacen('{', "{\"detector_period_us\": 200,", 1);
    let fs = engine::lint_config_json("stale.engine.json", &stale);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert!(fs[0].message.contains("unknown"), "{fs:?}");
    assert!(fs[0].message.contains("detector_period_us"), "{fs:?}");
}

#[test]
fn cli_flags_unreadable_engine_files() {
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["engine", "/nonexistent/nowhere.engine.json"])
        .output()
        .expect("spawn nt-lint");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("cannot read engine config file"));
}

#[test]
fn committed_fixture_matches_the_library_verdict() {
    // The fixture the CLI test gates on must stay in sync with the library
    // pass: same document, same findings.
    let doc = include_str!("fixtures/malformed.engine.json");
    let fs = engine::lint_config_json("malformed.engine.json", doc);
    let errors: Vec<_> = fs
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 5, "{errors:?}");
}
