//! Static well-formedness checks for networked-server and load-driver
//! configurations (`nt_net::NetConfig`, the `*.net.json` documents).
//!
//! `NetConfig::from_json` rejects unknown keys and bad roles but is
//! otherwise structural; this pass enforces the semantics the server or
//! load driver would hit at run time:
//!
//! * server: a capacity that can register transactions, a
//!   nonzero request queue (a zero-depth queue dispatches no frame), a
//!   frame limit large enough to answer a one-member `BATCH`, a nonzero
//!   drain deadline, and a coherent transport fault plan;
//! * load: at least one connection driving at least one transaction over
//!   at least one object, probabilities that are probabilities, a
//!   non-empty children range, a nonzero open-loop rate, and a nonzero
//!   response timeout (a zero timeout retries before the server can
//!   possibly answer).
//!
//! The two shipped `Default` configurations — what `nt-serve` and
//! `nt-load` run when given no file — are linted as a unit, so the
//! out-of-the-box pair is statically validated.

use crate::report::{Finding, Severity};
use nt_net::{LoadConfig, NetConfig, ServerConfig};

fn role_name(cfg: &NetConfig) -> &'static str {
    match cfg {
        NetConfig::Server(_) => "server",
        NetConfig::Load(_) => "load",
    }
}

/// Lint one parsed net config. `name` labels the findings (file name or
/// "default/…").
pub fn lint_config(name: &str, cfg: &NetConfig) -> Vec<Finding> {
    let role = role_name(cfg);
    cfg.problems()
        .into_iter()
        .map(|msg| Finding::new(Severity::Error, "net", format!("net {role} {name}"), msg))
        .collect()
}

/// Lint a serialized `*.net.json` document: parse failures become error
/// findings so the CLI can gate on unparsable configs too.
pub fn lint_config_json(name: &str, json: &str) -> Vec<Finding> {
    match NetConfig::from_json(json.trim()) {
        Ok(cfg) => lint_config(name, &cfg),
        Err(e) => vec![Finding::new(
            Severity::Error,
            "net",
            format!("net {name}"),
            format!("not a valid net config document: {e}"),
        )],
    }
}

/// Lint the shipped defaults — the configurations `nt-serve` and
/// `nt-load` actually run when no file is given.
pub fn lint_defaults() -> Vec<Finding> {
    let mut out = lint_config(
        "default/server",
        &NetConfig::Server(ServerConfig::default()),
    );
    out.extend(lint_config(
        "default/load",
        &NetConfig::Load(LoadConfig::default()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_faults::TransportPlan;

    fn errors(fs: &[Finding]) -> Vec<&str> {
        fs.iter()
            .filter(|f| f.severity == Severity::Error)
            .map(|f| f.message.as_str())
            .collect()
    }

    #[test]
    fn shipped_defaults_lint_clean() {
        assert!(lint_defaults().is_empty(), "{:?}", lint_defaults());
    }

    #[test]
    fn every_server_rule_is_a_finding() {
        let bad = NetConfig::Server(ServerConfig {
            capacity: 1,
            queue_depth: 0,
            drain_timeout_ms: 0,
            max_frame_len: 8,
            fault: Some(TransportPlan {
                drop_period: 1,
                ..TransportPlan::default()
            }),
            ..ServerConfig::default()
        });
        let fs = lint_config("bad", &bad);
        let es = errors(&fs);
        assert!(es.iter().any(|m| m.contains("capacity")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("drain_timeout_ms")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("queue_depth")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("max_frame_len")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("drop_period")), "{es:?}");
        // The floor is the smallest cap whose BATCH_RESP holds one member.
        let frame = |max_frame_len| {
            let cfg = NetConfig::Server(ServerConfig {
                max_frame_len,
                ..ServerConfig::default()
            });
            errors(&lint_config("frame", &cfg)).len()
        };
        assert_eq!(frame(138), 1, "138 answers no BATCH");
        assert_eq!(frame(139), 0, "139 answers a one-member BATCH");
    }

    #[test]
    fn every_load_rule_is_a_finding() {
        let bad = NetConfig::Load(LoadConfig {
            connections: 0,
            tops_per_conn: 0,
            objects: 0,
            hotspot: 1.5,
            read_ratio: -0.1,
            subtx_prob: 2.0,
            min_children: 3,
            max_children: 1,
            timeout_ms: 0,
            ..LoadConfig::default()
        });
        let fs = lint_config("bad", &bad);
        let es = errors(&fs);
        for key in [
            "connections",
            "tops_per_conn",
            "objects",
            "hotspot",
            "read_ratio",
            "subtx_prob",
            "children range",
            "timeout_ms",
        ] {
            assert!(es.iter().any(|m| m.contains(key)), "missing {key}: {es:?}");
        }
    }

    #[test]
    fn unparsable_documents_become_error_findings() {
        let fs = lint_config_json("garbage", "{not json");
        assert_eq!(errors(&fs).len(), 1);
        assert!(fs[0].message.contains("not a valid net config"));

        let fs = lint_config_json("typo", r#"{"role":"server","sharts":4}"#);
        assert_eq!(errors(&fs).len(), 1);
        assert!(fs[0].message.contains("sharts"), "{}", fs[0].message);
    }
}
