//! Static well-formedness checks for threaded-engine configurations
//! (`nt_engine::EngineConfig`).
//!
//! `EngineConfig::from_json` is structural-only, mirroring the fault-plan
//! split: malformed documents still *parse* where possible, and this pass
//! enforces the semantics the engine itself would reject at run time:
//!
//! * `threads ≥ 1` — a zero-worker pool runs nothing;
//! * `shards` a nonzero power of two — the shard map is `obj & (shards-1)`,
//!   so a non-power-of-two silently strands shards;
//! * backoff wiring is coherent (`base_rounds ≥ 1`, `cap ≥ base`, nonzero
//!   round duration when a policy is set);
//! * `max_wall_ms > 0` — the watchdog is the liveness backstop.
//!
//! The shipped presets (`EngineConfig::presets()`) are linted as a unit so
//! every config the workspace actually runs is statically validated.

use crate::report::{Finding, Severity};
use nt_engine::EngineConfig;

/// Lint one parsed engine config. `name` labels the findings (preset name
/// or file name, whichever the caller has).
pub fn lint_config(name: &str, cfg: &EngineConfig) -> Vec<Finding> {
    cfg.problems()
        .into_iter()
        .map(|msg| Finding::new(Severity::Error, "engine", format!("engine {name}"), msg))
        .collect()
}

/// Lint a serialized engine-config document: parse failures become error
/// findings so the CLI can gate on unparsable configs too.
pub fn lint_config_json(name: &str, json: &str) -> Vec<Finding> {
    match EngineConfig::from_json(json.trim()) {
        Ok(cfg) => lint_config(name, &cfg),
        Err(e) => vec![Finding::new(
            Severity::Error,
            "engine",
            format!("engine {name}"),
            format!("not a valid engine config document: {e}"),
        )],
    }
}

/// Lint every shipped preset. The binary's `engine` pass runs this, making
/// the preset list the statically-validated source of truth.
pub fn lint_presets() -> Vec<Finding> {
    EngineConfig::presets()
        .iter()
        .flat_map(|(name, cfg)| lint_config(&format!("preset/{name}"), cfg))
        .collect()
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

    #[test]
    fn shipped_presets_lint_clean() {
        assert!(lint_presets().is_empty(), "{:?}", lint_presets());
    }

    #[test]
    fn every_semantic_rule_is_a_finding() {
        let bad = EngineConfig {
            threads: 0,
            shards: 12,
            backoff_round_us: 0,
            max_wall_ms: 0,
            ..EngineConfig::default()
        };
        let fs = lint_config("bad", &bad);
        let es = errors(&fs);
        assert!(es.iter().any(|m| m.contains("threads")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("power of two")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("backoff_round_us")), "{es:?}");
        assert!(es.iter().any(|m| m.contains("max_wall_ms")), "{es:?}");
    }

    #[test]
    fn unparsable_documents_become_error_findings() {
        let fs = lint_config_json("garbage", "{not json");
        assert_eq!(errors(&fs).len(), 1);
        assert!(fs[0].message.contains("not a valid engine config"));
    }

    #[test]
    fn structural_parse_then_semantic_lint() {
        // Parses fine (structurally valid), then fails semantically.
        let doc = r#"{"threads":0,"shards":12,
                      "backoff":{"base_rounds":4,"cap_rounds":2},
                      "backoff_round_us":0,"access_latency_us":0,"max_wall_ms":0}"#;
        let fs = lint_config_json("doc", doc);
        let es = errors(&fs);
        assert!(es.len() >= 5, "{es:?}");
        assert!(es.iter().any(|m| m.contains("cap_rounds")), "{es:?}");
    }
}
