//! Engine configuration: thread-pool size, lock-table sharding, and
//! retry/backoff wiring — with a JSON form so configs can be linted
//! statically (`nt-lint engine`). Deadlock detection has no knob: it runs
//! at the enqueue that closes the cycle.

use nt_faults::BackoffPolicy;
use nt_obs::json::{Json, JsonObj};

/// When a durable store is mounted, how an acknowledgment relates to the
/// write-ahead log reaching disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No durability wait: the WAL is appended but acknowledgments never
    /// block on fsync (crash loses the OS-buffered tail; recovery still
    /// replays the durable prefix).
    #[default]
    None,
    /// Fsync the WAL before acknowledging state-changing requests. The
    /// caller decides how many acknowledgments one fsync covers: the
    /// server pays one barrier per poll round (its group commit).
    FsyncPerCommit,
}

impl DurabilityMode {
    /// The JSON tag (and `nt-serve --durability` spelling) of this mode.
    pub fn tag(&self) -> &'static str {
        match self {
            DurabilityMode::None => "none",
            DurabilityMode::FsyncPerCommit => "fsync",
        }
    }

    /// Parse the tag. The retired `group` / `group:WINDOW_US` spellings
    /// are refused by name: silently mapping them would hide that the
    /// window no longer exists.
    pub fn from_tag(tag: &str) -> Result<DurabilityMode, String> {
        match tag {
            "none" => Ok(DurabilityMode::None),
            "fsync" => Ok(DurabilityMode::FsyncPerCommit),
            t if t == "group" || t.starts_with("group:") => Err(format!(
                "durability {tag:?} was removed: use \"fsync\" (one fsync per poll round is the group commit)"
            )),
            _ => Err(format!(
                "unknown durability {tag:?} (expected \"none\" or \"fsync\")"
            )),
        }
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Configuration of one threaded engine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads executing top-level transactions (must be ≥ 1).
    pub threads: usize,
    /// Lock-table shards; must be a power of two (objects map to shards by
    /// `object_id & (shards - 1)`).
    pub shards: usize,
    /// Retry policy for deadlock victims. `None` disables retries even when
    /// the workload pre-materialized replica chains (they stay inert, like
    /// the simulator without `SimConfig::retry`).
    pub backoff: Option<BackoffPolicy>,
    /// Wall-clock microseconds one backoff "round" maps to (must be > 0
    /// when `backoff` is set): the policy's round counts become real
    /// sleeps.
    pub backoff_round_us: u64,
    /// Simulated storage latency per access in microseconds, slept after
    /// the access returns, while its parent holds the inherited lock (0 =
    /// none). With it the workload is latency-bound, so the throughput
    /// benchmark measures the engine's ability to overlap access latency
    /// across workers — meaningful even on a single hardware core.
    pub access_latency_us: u64,
    /// Watchdog: `run_plan`'s calling thread aborts all in-flight work
    /// after this many wall-clock milliseconds (must be > 0). A run that
    /// trips it is reported with `gave_up = true` and still certifies
    /// (aborted work is invisible to `T0`).
    pub max_wall_ms: u64,
    /// Maintain the serialization graph *live* while the run executes
    /// (`nt-sgt-live`): the thread that records an action also steps the
    /// incremental maintainer with it, which detects cycles as their
    /// closing edge forms and garbage-collects the certified prefix; the
    /// verdict lands in `EngineReport::live`.
    pub live_certify: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 4,
            shards: 16,
            backoff: Some(BackoffPolicy::default()),
            backoff_round_us: 50,
            access_latency_us: 0,
            max_wall_ms: 30_000,
            live_certify: false,
        }
    }
}

impl EngineConfig {
    /// Every rule violation in this config, as human-readable sentences.
    /// Empty means the config is runnable. `nt-lint`'s `engine` pass turns
    /// these into findings; [`run_plan`](crate::run_plan) refuses configs
    /// with any problem.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.threads == 0 {
            out.push("threads must be >= 1".to_string());
        }
        if self.shards == 0 || !self.shards.is_power_of_two() {
            out.push(format!(
                "shards must be a nonzero power of two (got {})",
                self.shards
            ));
        }
        if let Some(b) = &self.backoff {
            if self.backoff_round_us == 0 {
                out.push("backoff_round_us must be > 0 when a backoff policy is set".to_string());
            }
            if b.base_rounds == 0 {
                out.push("backoff.base_rounds must be >= 1".to_string());
            }
            if b.cap_rounds < b.base_rounds {
                out.push(format!(
                    "backoff.cap_rounds ({}) must be >= base_rounds ({})",
                    b.cap_rounds, b.base_rounds
                ));
            }
        }
        if self.max_wall_ms == 0 {
            out.push("max_wall_ms must be > 0 (the watchdog is the liveness backstop)".to_string());
        }
        out
    }

    /// `Ok` iff [`problems`](Self::problems) is empty.
    pub fn validate(&self) -> Result<(), String> {
        let problems = self.problems();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// The named configurations the workspace actually runs (benchmarks and
    /// CI smoke). `nt-lint`'s `engine` pass lints all of them, so the
    /// shipped configs are exactly the statically validated ones.
    pub fn presets() -> Vec<(&'static str, EngineConfig)> {
        vec![
            ("default", EngineConfig::default()),
            (
                "bench-partitioned",
                EngineConfig {
                    access_latency_us: 300,
                    ..EngineConfig::default()
                },
            ),
            (
                "bench-contended",
                EngineConfig {
                    access_latency_us: 100,
                    shards: 4,
                    ..EngineConfig::default()
                },
            ),
            (
                "ci-smoke",
                EngineConfig {
                    threads: 4,
                    shards: 8,
                    ..EngineConfig::default()
                },
            ),
            (
                "live-certify",
                EngineConfig {
                    live_certify: true,
                    ..EngineConfig::default()
                },
            ),
        ]
    }

    /// Serialize to the JSON document form `from_json` parses.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("threads", self.threads as u64)
            .num("shards", self.shards as u64);
        match &self.backoff {
            Some(b) => {
                let mut bo = JsonObj::new();
                bo.num("base_rounds", b.base_rounds)
                    .num("cap_rounds", b.cap_rounds);
                o.raw("backoff", bo.build());
            }
            None => {
                o.raw("backoff", "null".to_string());
            }
        }
        o.num("backoff_round_us", self.backoff_round_us)
            .num("access_latency_us", self.access_latency_us)
            .num("max_wall_ms", self.max_wall_ms)
            .bool("live_certify", self.live_certify);
        o.build()
    }

    /// Parse an engine config from its JSON document form. Structural
    /// errors (bad JSON, missing or unknown keys, wrong types) are `Err`;
    /// semantic rules are *not* applied here — call
    /// [`problems`](Self::problems) or [`validate`](Self::validate) on the
    /// result.
    pub fn from_json(doc: &str) -> Result<EngineConfig, String> {
        let parsed = Json::parse(doc)?;
        let Json::Obj(map) = &parsed else {
            return Err("engine config must be a JSON object".to_string());
        };
        const KNOWN: [&str; 7] = [
            "threads",
            "shards",
            "backoff",
            "backoff_round_us",
            "access_latency_us",
            "max_wall_ms",
            "live_certify",
        ];
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown engine config key {key:?}"));
            }
        }
        let uint = |key: &str| -> Result<u64, String> {
            let v = parsed
                .get(key)
                .ok_or_else(|| format!("missing required key {key:?}"))?;
            let n = v
                .as_num()
                .ok_or_else(|| format!("key {key:?} must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("key {key:?} must be a non-negative integer"));
            }
            Ok(n as u64)
        };
        let backoff = match parsed.get("backoff") {
            None | Some(Json::Null) => None,
            Some(b @ Json::Obj(fields)) => {
                for key in fields.keys() {
                    if key != "base_rounds" && key != "cap_rounds" {
                        return Err(format!("unknown backoff key {key:?}"));
                    }
                }
                let field = |key: &str| -> Result<u64, String> {
                    let n = b
                        .get(key)
                        .and_then(Json::as_num)
                        .ok_or_else(|| format!("backoff.{key} must be a number"))?;
                    Ok(n as u64)
                };
                Some(BackoffPolicy {
                    base_rounds: field("base_rounds")?,
                    cap_rounds: field("cap_rounds")?,
                })
            }
            Some(_) => return Err("backoff must be an object or null".to_string()),
        };
        // Optional for compatibility with pre-live-certify documents.
        let live_certify = match parsed.get("live_certify") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("live_certify must be a boolean".to_string()),
        };
        Ok(EngineConfig {
            threads: uint("threads")? as usize,
            shards: uint("shards")? as usize,
            backoff,
            backoff_round_us: uint("backoff_round_us")?,
            access_latency_us: uint("access_latency_us")?,
            max_wall_ms: uint("max_wall_ms")?,
            live_certify,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_presets_are_clean() {
        for (name, cfg) in EngineConfig::presets() {
            assert!(cfg.problems().is_empty(), "{name}: {:?}", cfg.problems());
        }
    }

    #[test]
    fn json_round_trip() {
        for (_, cfg) in EngineConfig::presets() {
            let doc = cfg.to_json();
            assert_eq!(EngineConfig::from_json(&doc).expect("round trip"), cfg);
        }
        let none = EngineConfig {
            backoff: None,
            ..EngineConfig::default()
        };
        assert_eq!(
            EngineConfig::from_json(&none.to_json()).expect("null backoff"),
            none
        );
    }

    #[test]
    fn bad_configs_are_flagged() {
        let bad = EngineConfig {
            threads: 0,
            shards: 12,
            backoff_round_us: 0,
            max_wall_ms: 0,
            ..EngineConfig::default()
        };
        assert_eq!(bad.problems().len(), 4);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn unknown_keys_rejected() {
        assert!(EngineConfig::from_json("{\"threads\":1,\"bogus\":2}").is_err());
        // `run_plan` mounts no store, so the engine config never had a
        // reader for `durability`: a document still carrying it is stale.
        let stale =
            EngineConfig::default()
                .to_json()
                .replacen('{', "{\"durability\":\"fsync\",", 1);
        let err = EngineConfig::from_json(&stale).expect_err("retired key");
        assert!(err.contains("durability"), "{err}");
        assert!(EngineConfig::from_json("[1,2]").is_err());
        assert!(EngineConfig::from_json("{\"threads\":\"two\"}").is_err());
    }

    #[test]
    fn durability_tags_round_trip_and_retired_spellings_name_the_replacement() {
        for mode in [DurabilityMode::None, DurabilityMode::FsyncPerCommit] {
            assert_eq!(DurabilityMode::from_tag(mode.tag()), Ok(mode));
        }
        for retired in ["group", "group:100"] {
            let err = DurabilityMode::from_tag(retired).expect_err("retired mode");
            assert!(err.contains("fsync"), "{err}");
        }
        assert!(DurabilityMode::from_tag("paranoid").is_err());
    }
}
