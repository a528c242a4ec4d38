//! The engine's resident footprint at start follows the names it has
//! registered, not the capacity it was given: the transaction arena is
//! built one segment at a time as ids enter it.
//!
//! Its own test binary with one test, so nothing else allocates while
//! `VmRSS` is read. Skipped where `/proc/self/status` is unreadable.

use nt_engine::SessionEngine;
use std::time::Duration;

/// Resident set size in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_large_capacity_costs_nothing_until_names_are_registered() {
    let Some(before) = vm_rss_kib() else {
        eprintln!("skipped: /proc/self/status is unreadable");
        return;
    };
    // The benchmark's server capacity: an eagerly built arena made about
    // 24 MiB of it resident here.
    let engine = SessionEngine::start(1 << 19, 8, Duration::ZERO);
    let after = vm_rss_kib().expect("readable a moment ago");
    let grew = after.saturating_sub(before);
    assert!(
        grew < 2 * 1024,
        "SessionEngine::start(1 << 19) made {grew} KiB resident"
    );
    // Still a working engine.
    let mut s = engine.open_session();
    let top = s.begin_top().expect("top");
    assert_eq!(engine.tx_count(), top.index() + 1);
}
