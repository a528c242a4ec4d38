//! Deterministic transport fault plans for the networked server
//! (`nt-net`): frame drop, duplication, and delay injected on the
//! server's *receive* path.
//!
//! Determinism matters more than realism here — a fault schedule must
//! replay identically regardless of thread interleaving, so faults are
//! keyed on each connection's own frame counter (frame 1, 2, 3, … as
//! read off that socket), not on wall-clock or a shared RNG. `drop` wins
//! over `duplicate` wins over `delay` when periods collide.
//!
//! The plan serializes as a small JSON document embedded in `*.net.json`
//! server configs; `nt-lint`'s `net` pass checks its semantics (a drop
//! period of 1 would discard every request and livelock every client).

use nt_obs::json::{Json, JsonObj};

/// What to do with one received frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Hand the frame to the executor normally.
    Deliver,
    /// Discard the frame (the client's retry will resend it).
    Drop,
    /// Enqueue the frame twice (the executor's dedup cache must answer the
    /// second copy from cache).
    Duplicate,
    /// Stall the receive path for `delay_us` before delivering.
    Delay(u64),
}

/// Periodic drop/duplicate/delay schedule over a connection's frame
/// counter. A period of 0 disables that fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportPlan {
    /// Drop every `drop_period`-th frame (0 = never).
    pub drop_period: u64,
    /// Duplicate every `dup_period`-th frame (0 = never).
    pub dup_period: u64,
    /// Delay every `delay_period`-th frame (0 = never).
    pub delay_period: u64,
    /// Stall applied to delayed frames, in microseconds.
    pub delay_us: u64,
}

impl TransportPlan {
    /// Is every fault disabled?
    pub fn is_noop(&self) -> bool {
        self.drop_period == 0 && self.dup_period == 0 && self.delay_period == 0
    }

    /// The fate of frame number `idx` (1-based, per connection).
    pub fn fate(&self, idx: u64) -> FrameFate {
        let hits = |period: u64| period != 0 && idx.is_multiple_of(period);
        if hits(self.drop_period) {
            FrameFate::Drop
        } else if hits(self.dup_period) {
            FrameFate::Duplicate
        } else if hits(self.delay_period) {
            FrameFate::Delay(self.delay_us)
        } else {
            FrameFate::Deliver
        }
    }

    /// Semantic problems (the `nt-lint` `net` pass surfaces these).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.drop_period == 1 {
            out.push(
                "transport drop_period of 1 drops every frame; no request ever executes"
                    .to_string(),
            );
        }
        if self.delay_period != 0 && self.delay_us == 0 {
            out.push("transport delay_period set but delay_us is 0 (no-op delay)".to_string());
        }
        if self.delay_period == 0 && self.delay_us != 0 {
            out.push("transport delay_us set but delay_period is 0 (never applied)".to_string());
        }
        out
    }

    /// Serialize as a JSON object (embedded in `*.net.json` configs).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("drop_period", self.drop_period)
            .num("dup_period", self.dup_period)
            .num("delay_period", self.delay_period)
            .num("delay_us", self.delay_us);
        o.build()
    }

    /// Parse from a JSON object. Unknown keys are rejected by name.
    pub fn from_json_value(v: &Json) -> Result<TransportPlan, String> {
        let Json::Obj(fields) = v else {
            return Err("transport plan must be a JSON object".to_string());
        };
        let mut plan = TransportPlan::default();
        for (key, val) in fields {
            let n: u64 = val.as_uint().ok_or_else(|| {
                format!("transport plan field {key:?} must be a non-negative integer")
            })?;
            match key.as_str() {
                "drop_period" => plan.drop_period = n,
                "dup_period" => plan.dup_period = n,
                "delay_period" => plan.delay_period = n,
                "delay_us" => plan.delay_us = n,
                other => return Err(format!("unknown transport plan key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Parse from a JSON string.
    pub fn from_json(input: &str) -> Result<TransportPlan, String> {
        let v = Json::parse(input).map_err(|e| format!("transport plan is not JSON: {e}"))?;
        TransportPlan::from_json_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fates_are_periodic_and_prioritized() {
        let p = TransportPlan {
            drop_period: 6,
            dup_period: 4,
            delay_period: 3,
            delay_us: 50,
        };
        assert_eq!(p.fate(1), FrameFate::Deliver);
        assert_eq!(p.fate(3), FrameFate::Delay(50));
        assert_eq!(p.fate(4), FrameFate::Duplicate);
        assert_eq!(p.fate(6), FrameFate::Drop, "drop wins over delay at 6");
        assert_eq!(p.fate(12), FrameFate::Drop, "drop wins over dup and delay");
        assert!(TransportPlan::default().is_noop());
        assert_eq!(TransportPlan::default().fate(7), FrameFate::Deliver);
    }

    #[test]
    fn json_roundtrip_and_unknown_keys() {
        let p = TransportPlan {
            drop_period: 5,
            dup_period: 7,
            delay_period: 2,
            delay_us: 100,
        };
        let q = TransportPlan::from_json(&p.to_json()).expect("roundtrip");
        assert_eq!(p, q);
        let err = TransportPlan::from_json(r#"{"drop_period":2,"jitter":9}"#)
            .expect_err("unknown key rejected");
        assert!(err.contains("jitter"), "{err}");
    }

    #[test]
    fn problems_catch_degenerate_plans() {
        let all_drop = TransportPlan {
            drop_period: 1,
            ..TransportPlan::default()
        };
        assert_eq!(all_drop.problems().len(), 1);
        let noop_delay = TransportPlan {
            delay_period: 4,
            delay_us: 0,
            ..TransportPlan::default()
        };
        assert!(
            noop_delay.problems()[0].contains("delay_us"),
            "{:?}",
            noop_delay.problems()
        );
        assert!(TransportPlan::default().problems().is_empty());
    }
}
