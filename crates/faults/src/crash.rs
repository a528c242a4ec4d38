//! Whole-process crash campaign plans for the durable server.
//!
//! Transport faults ([`crate::TransportPlan`]) exercise the *at-least-
//! once* transport; a [`CrashPlan`] exercises the *durability* story:
//! spawn a real `nt-serve` on a fresh data directory, drive load at it,
//! `SIGKILL` the whole process at a seeded point mid-load, restart it on
//! the same directory, and demand that recovery (a) passes the
//! Theorem 17 re-certification gate, (b) lost no committed transaction,
//! and (c) answers every resent pre-crash acknowledged request from the
//! journaled response cache, byte-identical, without re-executing it.
//!
//! The plan itself is execution-free data — the driver lives in `nt-net`
//! (`nt-crash`), which owns the process spawning and the wire client.
//! Durability is carried as its CLI string (`none` or `fsync`) rather
//! than the engine enum so this crate keeps its no-engine dependency
//! rule.
//!
//! Determinism: run `i` of a plan derives its workload seed and its
//! kill point from `splitmix64` over `(base_seed, i)` — the same plan
//! replays the same campaign, modulo OS scheduling of where inside the
//! kill window the load happened to be.

use nt_obs::json::{Json, JsonObj};

/// One seeded crash–restart campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Number of crash–restart runs.
    pub runs: u64,
    /// Base seed; run `i` uses [`CrashPlan::seed_for`]`(i)`.
    pub base_seed: u64,
    /// Client connections per run.
    pub connections: u64,
    /// Top-level transactions each connection attempts.
    pub tops_per_conn: u64,
    /// Objects in the contended working set.
    pub objects: u64,
    /// Earliest kill point, milliseconds after load starts.
    pub kill_min_ms: u64,
    /// Latest kill point (inclusive), milliseconds after load starts.
    pub kill_max_ms: u64,
    /// Durability mode as its `nt-serve --durability` string
    /// (`none` or `fsync`).
    pub durability: String,
}

impl Default for CrashPlan {
    fn default() -> CrashPlan {
        CrashPlan {
            runs: 10,
            base_seed: 1,
            connections: 3,
            tops_per_conn: 400,
            objects: 4,
            kill_min_ms: 5,
            kill_max_ms: 120,
            durability: "fsync".to_string(),
        }
    }
}

/// `splitmix64`: the standard 64-bit finalizer-style mixer. Good enough
/// to decorrelate `(base_seed, run)` pairs; trivially reproducible in
/// any language a future driver is written in.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl CrashPlan {
    /// A small fixed campaign for CI: few runs, early kill points, so
    /// the smoke finishes in seconds yet still kills mid-load.
    pub fn ci_smoke() -> CrashPlan {
        CrashPlan {
            runs: 3,
            tops_per_conn: 200,
            kill_min_ms: 5,
            kill_max_ms: 40,
            ..CrashPlan::default()
        }
    }

    /// The workload seed for run `i`.
    pub fn seed_for(&self, run: u64) -> u64 {
        // Never 0: seeded PRNGs downstream treat 0 as degenerate.
        splitmix64(self.base_seed ^ splitmix64(run)) | 1
    }

    /// Milliseconds after load start at which run `i` fires `SIGKILL`
    /// (uniform over `[kill_min_ms, kill_max_ms]`, seed-derived).
    pub fn kill_after_ms(&self, run: u64) -> u64 {
        let span = self.kill_max_ms.saturating_sub(self.kill_min_ms) + 1;
        self.kill_min_ms + splitmix64(self.seed_for(run) ^ 0xC0FF_EE00) % span
    }

    /// Semantic problems (surfaced by the `nt-lint` `store` pass).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.runs == 0 {
            out.push("crash plan has 0 runs; nothing is tested".to_string());
        }
        if self.connections == 0 || self.tops_per_conn == 0 {
            out.push("crash plan drives no load (connections/tops_per_conn is 0)".to_string());
        }
        if self.objects == 0 {
            out.push("crash plan has no objects to contend on".to_string());
        }
        if self.kill_min_ms > self.kill_max_ms {
            out.push(format!(
                "crash plan kill window is empty ({} > {})",
                self.kill_min_ms, self.kill_max_ms
            ));
        }
        if self.durability == "none" {
            out.push(
                "crash plan durability \"none\" cannot promise acknowledged work survives"
                    .to_string(),
            );
        }
        out
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("runs", self.runs)
            .num("base_seed", self.base_seed)
            .num("connections", self.connections)
            .num("tops_per_conn", self.tops_per_conn)
            .num("objects", self.objects)
            .num("kill_min_ms", self.kill_min_ms)
            .num("kill_max_ms", self.kill_max_ms)
            .str("durability", &self.durability);
        o.build()
    }

    /// Parse from a JSON object. Unknown keys are rejected by name.
    pub fn from_json_value(v: &Json) -> Result<CrashPlan, String> {
        let Json::Obj(fields) = v else {
            return Err("crash plan must be a JSON object".to_string());
        };
        let mut plan = CrashPlan::default();
        for (key, val) in fields {
            if key == "durability" {
                plan.durability = val
                    .as_str()
                    .ok_or_else(|| "crash plan durability must be a string".to_string())?
                    .to_string();
                continue;
            }
            let n = val
                .as_num()
                .ok_or_else(|| format!("crash plan field {key:?} must be a number"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "crash plan field {key:?} must be a non-negative integer"
                ));
            }
            let n = n as u64;
            match key.as_str() {
                "runs" => plan.runs = n,
                "base_seed" => plan.base_seed = n,
                "connections" => plan.connections = n,
                "tops_per_conn" => plan.tops_per_conn = n,
                "objects" => plan.objects = n,
                "kill_min_ms" => plan.kill_min_ms = n,
                "kill_max_ms" => plan.kill_max_ms = n,
                other => return Err(format!("unknown crash plan key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Parse from a JSON string.
    pub fn from_json(input: &str) -> Result<CrashPlan, String> {
        let v = Json::parse(input).map_err(|e| format!("crash plan is not JSON: {e}"))?;
        CrashPlan::from_json_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_points_are_deterministic_and_inside_the_window() {
        let p = CrashPlan::default();
        for run in 0..64 {
            let ms = p.kill_after_ms(run);
            assert!(
                (p.kill_min_ms..=p.kill_max_ms).contains(&ms),
                "run {run}: {ms} outside window"
            );
            assert_eq!(ms, p.kill_after_ms(run), "same run, same kill point");
            assert_ne!(p.seed_for(run), 0);
        }
        // The window is actually explored, not collapsed to one point.
        let distinct: std::collections::BTreeSet<u64> =
            (0..64).map(|r| p.kill_after_ms(r)).collect();
        assert!(distinct.len() > 8, "kill points barely vary: {distinct:?}");
    }

    #[test]
    fn json_roundtrip_and_unknown_keys() {
        let p = CrashPlan {
            runs: 12,
            base_seed: 99,
            durability: "none".to_string(),
            ..CrashPlan::default()
        };
        let q = CrashPlan::from_json(&p.to_json()).expect("roundtrip");
        assert_eq!(p, q);
        let err =
            CrashPlan::from_json(r#"{"runs":2,"fsyncs":1}"#).expect_err("unknown key rejected");
        assert!(err.contains("fsyncs"), "{err}");
    }

    #[test]
    fn problems_catch_degenerate_plans() {
        assert!(CrashPlan::default().problems().is_empty());
        assert!(CrashPlan::ci_smoke().problems().is_empty());
        let empty = CrashPlan {
            runs: 0,
            kill_min_ms: 50,
            kill_max_ms: 10,
            durability: "none".to_string(),
            ..CrashPlan::default()
        };
        let probs = empty.problems();
        assert_eq!(probs.len(), 3, "{probs:?}");
    }
}
