//! Static well-formedness checks for durable-store artifacts: WAL /
//! checkpoint files (`*.wal`, `*.ckpt`) and crash-campaign plans
//! (`*.crash.json`, [`nt_faults::CrashPlan`]).
//!
//! Log files are checked *structurally, without replay*: the frame
//! stream must decode (length-prefixed, CRC-checked extents of one or
//! more records), must open with a header record whose kind matches the
//! file's role, and is summarized as frames *and* records (their quotient
//! is what one WAL barrier covered). A torn tail —
//! legitimate in a WAL that survived `SIGKILL`, since recovery truncates
//! it — is surfaced as a warning with the exact byte offset where the
//! valid prefix ends. A file with no valid frame at all is an error:
//! recovery would refuse it too, but the lint names the corruption
//! before anything tries to mount the directory.
//!
//! Crash plans get the same treatment as transport plans: the shipped
//! defaults always lint clean, and a plan that kills nothing, drives no
//! load, or promises durability under `none` is called out before a
//! campaign burns minutes discovering it.

use crate::report::{Finding, Severity};
use nt_faults::CrashPlan;
use nt_store::{decode_stream, FileKind, Record};

/// Lint one parsed crash plan. `name` labels the findings.
pub fn lint_crash_plan(name: &str, plan: &CrashPlan) -> Vec<Finding> {
    plan.problems()
        .into_iter()
        .map(|msg| Finding::new(Severity::Error, "store", format!("crash plan {name}"), msg))
        .collect()
}

/// Lint a serialized `*.crash.json` document; parse failures become
/// error findings.
pub fn lint_crash_plan_json(name: &str, json: &str) -> Vec<Finding> {
    match CrashPlan::from_json(json.trim()) {
        Ok(plan) => lint_crash_plan(name, &plan),
        Err(e) => vec![Finding::new(
            Severity::Error,
            "store",
            format!("crash plan {name}"),
            format!("not a valid crash plan document: {e}"),
        )],
    }
}

/// Which role a log file claims by extension (`None` when the path has
/// neither `.wal` nor `.ckpt`).
fn expected_kind(name: &str) -> Option<FileKind> {
    if name.ends_with(".wal") {
        Some(FileKind::Wal)
    } else if name.ends_with(".ckpt") {
        Some(FileKind::Checkpoint)
    } else {
        None
    }
}

/// Structurally lint the bytes of a WAL or checkpoint file.
pub fn lint_log_bytes(name: &str, bytes: &[u8]) -> Vec<Finding> {
    let ctx = format!("log {name}");
    let mut out = Vec::new();
    if bytes.is_empty() {
        out.push(Finding::new(
            Severity::Info,
            "store",
            ctx,
            "empty log file (a fresh store before its first append)".to_string(),
        ));
        return out;
    }
    let decoded = decode_stream(bytes);
    if decoded.records.is_empty() {
        out.push(Finding::new(
            Severity::Error,
            "store",
            ctx,
            format!(
                "no valid frame decodes from {} bytes{}",
                bytes.len(),
                decoded.torn.map(|e| format!(" ({e})")).unwrap_or_default()
            ),
        ));
        return out;
    }
    match (&decoded.records[0], expected_kind(name)) {
        (Record::Header { kind, gen, .. }, expected) => {
            if let Some(expected) = expected {
                if *kind != expected {
                    out.push(Finding::new(
                        Severity::Error,
                        "store",
                        ctx.clone(),
                        format!("header says {kind:?} but the file extension implies {expected:?}"),
                    ));
                }
            }
            if *gen == 0 {
                out.push(Finding::new(
                    Severity::Error,
                    "store",
                    ctx.clone(),
                    "generation 0 is reserved (generations start at 1)".to_string(),
                ));
            }
        }
        (other, _) => out.push(Finding::new(
            Severity::Error,
            "store",
            ctx.clone(),
            format!("first frame is {other:?}, not a header record"),
        )),
    }
    out.push(Finding::new(
        Severity::Info,
        "store",
        ctx.clone(),
        format!(
            "{} frame(s) holding {} record(s) in {} bytes",
            decoded.frames,
            decoded.records.len(),
            decoded.valid_len
        ),
    ));
    if let Some(torn) = &decoded.torn {
        out.push(Finding::new(
            Severity::Warning,
            "store",
            ctx,
            format!(
                "torn tail: {} record(s) decode cleanly, then {torn} at byte {} of {} — recovery will truncate here",
                decoded.records.len(),
                decoded.valid_len,
                bytes.len()
            ),
        ));
    }
    out
}

/// Lint the shipped crash-plan defaults — what `nt-crash` runs bare and
/// what the CI smoke uses.
pub fn lint_defaults() -> Vec<Finding> {
    let mut out = lint_crash_plan("default", &CrashPlan::default());
    out.extend(lint_crash_plan("ci_smoke", &CrashPlan::ci_smoke()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    fn errors(fs: &[Finding]) -> Vec<&str> {
        fs.iter()
            .filter(|f| f.severity == Severity::Error)
            .map(|f| f.message.as_str())
            .collect()
    }

    fn header(kind: FileKind) -> Vec<u8> {
        Record::Header {
            kind,
            gen: 1,
            covers_stamp: 0,
        }
        .encode_frame()
        .expect("encode header")
    }

    #[test]
    fn shipped_defaults_lint_clean() {
        assert!(lint_defaults().is_empty(), "{:?}", lint_defaults());
    }

    #[test]
    fn degenerate_crash_plans_are_errors() {
        let fs = lint_crash_plan(
            "bad",
            &CrashPlan {
                runs: 0,
                durability: "none".to_string(),
                ..CrashPlan::default()
            },
        );
        let es = errors(&fs);
        assert!(es.iter().any(|m| m.contains("0 runs")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("none")), "{es:?}");
        let fs = lint_crash_plan_json("garbage", "{not json");
        assert_eq!(errors(&fs).len(), 1);
    }

    #[test]
    fn clean_wal_lints_clean_and_torn_tail_warns() {
        let mut bytes = header(FileKind::Wal);
        let fs = lint_log_bytes("a.wal", &bytes);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].severity, Severity::Info);
        assert!(
            fs[0].message.contains("1 frame(s) holding 1 record(s)"),
            "{}",
            fs[0].message
        );

        bytes.extend_from_slice(&[0xFF; 5]);
        let fs = lint_log_bytes("a.wal", &bytes);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[1].severity, Severity::Warning);
        assert!(fs[1].message.contains("torn tail"), "{}", fs[1].message);
    }

    #[test]
    fn an_extent_counts_as_one_frame_of_many_records() {
        // The header frame, then one extent of three records — what a WAL
        // barrier writes for a round that logged three.
        let mut bytes = header(FileKind::Wal);
        let mut payload = Vec::new();
        for seq in 1..=3 {
            Record::Cache {
                seq,
                resp: vec![seq as u8; 4],
            }
            .encode_into(&mut payload)
            .expect("encode");
        }
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&nt_store::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let fs = lint_log_bytes("a.wal", &bytes);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(
            fs[0].message.contains("2 frame(s) holding 4 record(s)"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn garbage_and_role_mismatch_are_errors() {
        let fs = lint_log_bytes("junk.wal", b"this was never a wal");
        assert_eq!(errors(&fs).len(), 1, "{fs:?}");

        let fs = lint_log_bytes("mislabeled.ckpt", &header(FileKind::Wal));
        assert!(
            errors(&fs)[0].contains("extension implies"),
            "{:?}",
            errors(&fs)
        );

        assert_eq!(lint_log_bytes("empty.wal", b"")[0].severity, Severity::Info);
    }
}
