//! Golden tests for the `net` pass: the shipped defaults lint clean
//! (library- and CLI-level), and the committed malformed fixture — which
//! *parses* structurally — is rejected with one finding per broken
//! semantic rule and a nonzero exit.

use nt_lint::{net, Severity};
use std::process::Command;

#[test]
fn cli_net_pass_is_clean_on_the_shipped_defaults() {
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .arg("net")
        .output()
        .expect("spawn nt-lint");
    assert!(
        out.status.success(),
        "the shipped net defaults must lint clean; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"));
}

#[test]
fn cli_rejects_the_golden_malformed_net_config() {
    // The committed fixture parses (structural validity) but breaks every
    // server-side semantic rule at once: a capacity that
    // cannot register a transaction, a zero-depth queue, a frame limit too
    // small for any history, a drain deadline that is always overdue, a
    // drop-everything fault plan, and a no-op delay. The `net` pass must flag each and fail
    // the run.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/malformed.net.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["net", fixture])
        .output()
        .expect("spawn nt-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "malformed net config must fail the run"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("capacity"), "{stdout}");
    assert!(stdout.contains("drain_timeout_ms"), "{stdout}");
    assert!(stdout.contains("queue_depth"), "{stdout}");
    assert!(stdout.contains("max_frame_len"), "{stdout}");
    assert!(stdout.contains("drop_period"), "{stdout}");
    assert!(stdout.contains("delay_us"), "{stdout}");
}

#[test]
fn cli_rejects_the_batch_framing_fixture() {
    // A load config asking for `batch: 0` would pack no ops into any
    // BATCH frame — the pass must flag it, pointing at the `1` sentinel
    // that disables batching instead.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/malformed.batch.net.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["net", fixture])
        .output()
        .expect("spawn nt-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "zero batch must fail the net pass"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("batch of 0"), "{stdout}");
}

#[test]
fn retired_knobs_fail_the_pass_by_name() {
    // The reactor's executor pool is gone and `workers` with it; so are
    // the threaded front end, the WAL's group-commit window, the
    // deadlock detector's period, the span-ring size, the lock-table
    // shards and the static admission gate. A server config still carrying one of
    // them must fail the pass as an unparsable document — naming the key,
    // and for those with a reason to give, the reason — not be silently
    // accepted.
    for (knob, names) in [
        (r#""workers":4"#, "workers"),
        (
            r#""frontend":"threaded""#,
            "the reactor is the only front end",
        ),
        (
            r#""durability":"group","group_commit_window_us":100"#,
            "fsync",
        ),
        (
            r#""detector_period_us":500"#,
            "deadlock is detected at the enqueue; there is no period",
        ),
        (
            r#""span_ring":512"#,
            "the span ring is a fixed 4096 entries",
        ),
        (
            r#""shards":12"#,
            "the lock table is one engine lock, not shards",
        ),
        (r#""static_gate":true"#, "Theorem 17"),
    ] {
        let doc = format!(
            r#"{{"schema":"nt-net-config-v1","role":"server","addr":"127.0.0.1:0",{knob}}}"#
        );
        let fs = net::lint_config_json("stale.net.json", &doc);
        let errors: Vec<_> = fs
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 1, "{knob}: {errors:?}");
        assert!(errors[0].message.contains(names), "{knob}: {errors:?}");
    }
}

#[test]
fn net_files_route_to_the_net_pass_not_the_plan_pass() {
    // A `*.net.json` argument must be linted as a net config even though
    // it also ends in `.json` — the plan pass would misparse it.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/malformed.net.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["net", fixture])
        .output()
        .expect("spawn nt-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("not a valid plan document"), "{stdout}");
    assert!(stdout.contains("net"), "{stdout}");
}

#[test]
fn cli_flags_unreadable_net_files() {
    let out = Command::new(env!("CARGO_BIN_EXE_nt-lint"))
        .args(["net", "/nonexistent/nowhere.net.json"])
        .output()
        .expect("spawn nt-lint");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("cannot read net config file"));
}

#[test]
fn committed_fixture_matches_the_library_verdict() {
    // The fixtures the CLI tests gate on must stay in sync with the
    // library pass: same documents, same findings.
    let doc = include_str!("fixtures/malformed.net.json");
    let fs = net::lint_config_json("malformed.net.json", doc);
    let errors: Vec<_> = fs
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 6, "{errors:?}");

    let doc = include_str!("fixtures/malformed.batch.net.json");
    let fs = net::lint_config_json("malformed.batch.net.json", doc);
    let errors: Vec<_> = fs
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
}
