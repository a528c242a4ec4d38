//! `*.net.json` configuration documents for the networked server and the
//! load driver, with the workspace's config discipline: every key
//! explicit, unknown keys rejected by name, and a `problems()` semantic
//! check the `nt-lint` `net` pass runs over committed configs.
//!
//! One document format serves both roles, dispatched on `"role"`:
//!
//! ```json
//! { "role": "server", "addr": "127.0.0.1:0", "capacity": 65536, … }
//! { "role": "load",   "connections": 4, "tops_per_conn": 64, … }
//! ```

use nt_engine::DurabilityMode;
use nt_faults::{BackoffPolicy, TransportPlan};
use nt_obs::json::{Json, JsonObj};

/// The schema identifier embedded in every `*.net.json` document.
pub const SCHEMA_ID: &str = "nt-net-config-v1";

/// Why the static admission gate's `static_gate` key and its
/// `--static-gate` / `--gate-probe` flags are refused.
pub const STATIC_GATE_RETIRED: &str = "by Theorem 17 Moss locking already keeps SG(β) \
     acyclic, and the deadlock detector resolves the deadlock potential the static \
     admission gate refused";

/// Server-role settings.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 = ephemeral).
    pub addr: String,
    /// Vestigial: read by nobody in the workspace and absent from the
    /// document form. The lock table is one engine lock, not shards; the
    /// field (and its default of 8) stays only because the pinned
    /// benchmark crate names it, until ROADMAP 6(a)'s `[benchmark]` PR.
    pub shards: usize,
    /// The most transactions the server will ever register (including
    /// `T0`); past it every new request is refused with `CAPACITY`. A cap,
    /// not an allocation: the arena is paid one 4096-name segment at a
    /// time, as registrations enter it. At most `u32::MAX` (ids are
    /// `u32`).
    pub capacity: usize,
    /// Vestigial: read by nobody in the workspace and absent from the
    /// document form. Deadlock is detected at the enqueue that closes the
    /// cycle, so there is no period; the field (and its default of 500)
    /// stays only because the pinned benchmark crate names it, until
    /// ROADMAP 6(a)'s `[benchmark]` PR.
    pub detector_period_us: u64,
    /// Bounded per-connection request queue depth (backpressure).
    pub queue_depth: usize,
    /// Largest accepted frame length (the `len` prefix value).
    pub max_frame_len: usize,
    /// Optional deterministic transport fault plan on the receive path.
    pub fault: Option<TransportPlan>,
    /// Enable runtime telemetry: per-request lifecycle spans (a fixed ring
    /// of `nt_obs::SPAN_RING`, newest win), lock-wait attribution, phase
    /// histograms, and the `STATS` document's histogram/gauge section.
    /// Off by default — the disabled handle costs one branch per probe
    /// site.
    pub telemetry: bool,
    /// Run the live serialization-graph certifier: every recorded action
    /// steps an incremental Theorem 17 gate inline (cycle check per
    /// conflict edge, watermark GC bounding memory), the `CERT` wire op
    /// serves its verdict, and the `sgt.live.*` gauges publish
    /// its health.
    pub live_certify: bool,
    /// Period of `nt-serve --metrics-out` snapshot rewrites.
    pub metrics_period_ms: u64,
    /// How long a drain may take before the flight recorder is dumped
    /// for diagnosis (the drain itself keeps waiting).
    pub drain_timeout_ms: u64,
    /// Directory for the WAL-backed durable store. `None` keeps the
    /// server purely in memory; set, every applied action and response is
    /// journaled and a restart recovers (and re-certifies) the history.
    pub data_dir: Option<String>,
    /// When to acknowledge relative to the fsync: never wait (`none`), or
    /// only after it (`fsync`). The poll round is the group commit: one
    /// fsync at the round's barrier covers every connection's mutating
    /// acks of that round. `fsync` requires `data_dir`.
    pub durability: DurabilityMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 8,
            capacity: 1 << 16,
            detector_period_us: 500,
            queue_depth: 32,
            max_frame_len: crate::wire::DEFAULT_MAX_FRAME,
            fault: None,
            telemetry: false,
            live_certify: false,
            metrics_period_ms: 1000,
            drain_timeout_ms: 10_000,
            data_dir: None,
            durability: DurabilityMode::None,
        }
    }
}

/// How the load driver paces top-level transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Closed loop: each connection starts its next top as soon as the
    /// previous one finishes.
    Closed,
    /// Open loop: tops start on a fixed schedule of `rate_tps`
    /// tops/second (aggregate across connections), regardless of how the
    /// previous ones are doing.
    Open {
        /// Aggregate arrival rate, top-level transactions per second.
        rate_tps: u64,
    },
}

/// Load-driver settings (the client side).
#[derive(Clone, Debug, PartialEq)]
pub struct LoadConfig {
    /// Server address (`host:port`). Empty = supplied on the command line.
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Top-level transactions each connection drives.
    pub tops_per_conn: usize,
    /// Objects in the workload keyspace.
    pub objects: usize,
    /// Probability an access goes to object 0 (contention knob).
    pub hotspot: f64,
    /// Fraction of accesses that are reads.
    pub read_ratio: f64,
    /// Maximum nesting depth below top level.
    pub max_depth: u32,
    /// Probability a child slot is a subtransaction rather than an access.
    pub subtx_prob: f64,
    /// Children per inner transaction: uniform in `min..=max`.
    pub min_children: usize,
    /// See `min_children`.
    pub max_children: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Pacing mode.
    pub mode: LoadMode,
    /// Per-response wait before a retry, milliseconds.
    pub timeout_ms: u64,
    /// Resend budget per request before the run gives up.
    pub max_retries: u32,
    /// Re-runs of a top-level transaction whose subtree aborted.
    pub top_retries: u32,
    /// Capped exponential backoff between resends/re-runs, in rounds.
    pub backoff: BackoffPolicy,
    /// Microseconds per backoff round.
    pub backoff_round_us: u64,
    /// Ops per `BATCH` wire frame: sibling access runs are packed into
    /// batches of up to this many ops. `1` sends every op as its own
    /// frame (the pre-batching wire shape).
    pub batch: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            connections: 4,
            tops_per_conn: 64,
            objects: 8,
            hotspot: 0.3,
            read_ratio: 0.5,
            max_depth: 2,
            subtx_prob: 0.4,
            min_children: 1,
            max_children: 3,
            seed: 7,
            mode: LoadMode::Closed,
            timeout_ms: 200,
            max_retries: 10,
            top_retries: 3,
            backoff: BackoffPolicy::default(),
            backoff_round_us: 500,
            batch: 1,
        }
    }
}

/// A parsed `*.net.json`: one of the two roles.
#[derive(Clone, Debug, PartialEq)]
pub enum NetConfig {
    /// `"role": "server"`.
    Server(ServerConfig),
    /// `"role": "load"`.
    Load(LoadConfig),
}

/// The one integer reader of a `*.net.json` document ([`Json::as_uint`]).
fn int<N: TryFrom<u64>>(v: &Json, key: &str) -> Result<N, String> {
    v.as_uint().ok_or_else(|| {
        format!("net config key {key:?} must be a non-negative integer that fits its field")
    })
}

fn frac_field(v: &Json, key: &str) -> Result<f64, String> {
    v.as_num()
        .ok_or_else(|| format!("net config key {key:?} must be a number"))
}

impl ServerConfig {
    /// Semantic problems the lint pass reports.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.capacity < 2 {
            out.push("capacity below 2 cannot register any transaction".to_string());
        }
        if self.capacity > u32::MAX as usize {
            out.push(format!(
                "capacity {} exceeds the u32 transaction-id range (at most {})",
                self.capacity,
                u32::MAX
            ));
        }
        if self.queue_depth == 0 {
            out.push("queue_depth of 0 lets no frame be dispatched".to_string());
        }
        if self.max_frame_len < crate::wire::HEADER_LEN + 64 {
            out.push(format!(
                "max_frame_len {} cannot carry a history response",
                self.max_frame_len
            ));
        }
        if let Some(plan) = &self.fault {
            out.extend(plan.problems());
        }
        if self.metrics_period_ms == 0 {
            out.push("metrics_period_ms of 0 busy-writes the snapshot file".to_string());
        }
        if self.drain_timeout_ms == 0 {
            out.push("drain_timeout_ms of 0 dumps diagnostics on every drain".to_string());
        }
        if self.durability != DurabilityMode::None && self.data_dir.is_none() {
            out.push(format!(
                "durability {} needs a data_dir to journal into",
                self.durability
            ));
        }
        out
    }

    /// Serialize as a `*.net.json` document.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("schema", SCHEMA_ID)
            .str("role", "server")
            .str("addr", &self.addr)
            .num("capacity", self.capacity as u64)
            .num("queue_depth", self.queue_depth as u64)
            .num("max_frame_len", self.max_frame_len as u64)
            .bool("telemetry", self.telemetry)
            .bool("live_certify", self.live_certify)
            .num("metrics_period_ms", self.metrics_period_ms)
            .num("drain_timeout_ms", self.drain_timeout_ms);
        if let Some(plan) = &self.fault {
            o.raw("fault", plan.to_json());
        }
        if let Some(dir) = &self.data_dir {
            o.str("data_dir", dir);
        }
        o.str("durability", self.durability.tag());
        o.build()
    }
}

impl LoadConfig {
    /// Semantic problems the lint pass reports.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.connections == 0 {
            out.push("connections must be >= 1".to_string());
        }
        if self.tops_per_conn == 0 {
            out.push("tops_per_conn of 0 drives no load".to_string());
        }
        if self.objects == 0 {
            out.push("objects must be >= 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.hotspot) {
            out.push(format!("hotspot {} is not a probability", self.hotspot));
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            out.push(format!(
                "read_ratio {} is not a probability",
                self.read_ratio
            ));
        }
        if !(0.0..=1.0).contains(&self.subtx_prob) {
            out.push(format!(
                "subtx_prob {} is not a probability",
                self.subtx_prob
            ));
        }
        if self.min_children == 0 || self.min_children > self.max_children {
            out.push(format!(
                "children range {}..={} is empty or zero",
                self.min_children, self.max_children
            ));
        }
        if let LoadMode::Open { rate_tps: 0 } = self.mode {
            out.push("open-loop rate_tps of 0 never starts a transaction".to_string());
        }
        if self.timeout_ms == 0 {
            out.push("timeout_ms of 0 retries before the server can answer".to_string());
        }
        if self.batch == 0 {
            out.push("batch of 0 packs no ops into a frame; use 1 to disable batching".to_string());
        }
        out
    }

    /// Serialize as a `*.net.json` document.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("schema", SCHEMA_ID)
            .str("role", "load")
            .str("addr", &self.addr)
            .num("connections", self.connections as u64)
            .num("tops_per_conn", self.tops_per_conn as u64)
            .num("objects", self.objects as u64)
            .float("hotspot", self.hotspot)
            .float("read_ratio", self.read_ratio)
            .num("max_depth", u64::from(self.max_depth))
            .float("subtx_prob", self.subtx_prob)
            .num("min_children", self.min_children as u64)
            .num("max_children", self.max_children as u64)
            .num("seed", self.seed);
        match self.mode {
            LoadMode::Closed => o.str("mode", "closed"),
            LoadMode::Open { rate_tps } => o.str("mode", "open").num("rate_tps", rate_tps),
        };
        o.num("timeout_ms", self.timeout_ms)
            .num("max_retries", u64::from(self.max_retries))
            .num("top_retries", u64::from(self.top_retries))
            .num("backoff_base_rounds", self.backoff.base_rounds)
            .num("backoff_cap_rounds", self.backoff.cap_rounds)
            .num("backoff_round_us", self.backoff_round_us)
            .num("batch", self.batch as u64);
        o.build()
    }
}

impl NetConfig {
    /// Problems of whichever role this is.
    pub fn problems(&self) -> Vec<String> {
        match self {
            NetConfig::Server(c) => c.problems(),
            NetConfig::Load(c) => c.problems(),
        }
    }

    /// Parse a `*.net.json` document, rejecting unknown keys by name.
    pub fn from_json(input: &str) -> Result<NetConfig, String> {
        let v = Json::parse(input).map_err(|e| format!("net config is not JSON: {e}"))?;
        let Json::Obj(fields) = &v else {
            return Err("net config must be a JSON object".to_string());
        };
        let role = v
            .get("role")
            .and_then(Json::as_str)
            .ok_or_else(|| "net config needs a \"role\" of \"server\" or \"load\"".to_string())?;
        match role {
            "server" => {
                let mut c = ServerConfig::default();
                for (key, val) in fields {
                    match key.as_str() {
                        "schema" | "role" => {}
                        "addr" => {
                            c.addr = val
                                .as_str()
                                .ok_or_else(|| "addr must be a string".to_string())?
                                .to_string();
                        }
                        "capacity" => c.capacity = int(val, key)?,
                        "queue_depth" => c.queue_depth = int(val, key)?,
                        "max_frame_len" => c.max_frame_len = int(val, key)?,
                        "fault" => c.fault = Some(TransportPlan::from_json_value(val)?),
                        "telemetry" => match val {
                            Json::Bool(b) => c.telemetry = *b,
                            _ => return Err("telemetry must be a boolean".to_string()),
                        },
                        "live_certify" => match val {
                            Json::Bool(b) => c.live_certify = *b,
                            _ => return Err("live_certify must be a boolean".to_string()),
                        },
                        "metrics_period_ms" => c.metrics_period_ms = int(val, key)?,
                        "drain_timeout_ms" => c.drain_timeout_ms = int(val, key)?,
                        "data_dir" => {
                            c.data_dir = Some(
                                val.as_str()
                                    .ok_or_else(|| "data_dir must be a string".to_string())?
                                    .to_string(),
                            );
                        }
                        "durability" => {
                            c.durability = DurabilityMode::from_tag(
                                val.as_str()
                                    .ok_or_else(|| "durability must be a string".to_string())?,
                            )?;
                        }
                        // Retired with the threaded front end, the detector
                        // thread, the second observability crate, the
                        // sharded lock table and the static admission gate:
                        // refused with the reason, not silently accepted.
                        "frontend" => {
                            return Err("net server config key \"frontend\" was removed: \
                                        the reactor is the only front end"
                                .to_string());
                        }
                        "detector_period_us" => {
                            return Err("net server config key \"detector_period_us\" was \
                                        removed: deadlock is detected at the enqueue; there \
                                        is no period"
                                .to_string());
                        }
                        "span_ring" => {
                            return Err("net server config key \"span_ring\" was removed: \
                                        the span ring is a fixed 4096 entries"
                                .to_string());
                        }
                        "shards" => {
                            return Err("net server config key \"shards\" was removed: \
                                        the lock table is one engine lock, not shards"
                                .to_string());
                        }
                        "static_gate" => {
                            return Err(format!(
                                "net server config key \"static_gate\" was removed: \
                                 {STATIC_GATE_RETIRED}"
                            ));
                        }
                        other => return Err(format!("unknown net server config key {other:?}")),
                    }
                }
                Ok(NetConfig::Server(c))
            }
            "load" => {
                let mut c = LoadConfig::default();
                let mut mode = "closed".to_string();
                let mut rate_tps = 0u64;
                for (key, val) in fields {
                    match key.as_str() {
                        "schema" | "role" => {}
                        "addr" => {
                            c.addr = val
                                .as_str()
                                .ok_or_else(|| "addr must be a string".to_string())?
                                .to_string();
                        }
                        "connections" => c.connections = int(val, key)?,
                        "tops_per_conn" => c.tops_per_conn = int(val, key)?,
                        "objects" => c.objects = int(val, key)?,
                        "hotspot" => c.hotspot = frac_field(val, key)?,
                        "read_ratio" => c.read_ratio = frac_field(val, key)?,
                        "max_depth" => c.max_depth = int(val, key)?,
                        "subtx_prob" => c.subtx_prob = frac_field(val, key)?,
                        "min_children" => c.min_children = int(val, key)?,
                        "max_children" => c.max_children = int(val, key)?,
                        "seed" => c.seed = int(val, key)?,
                        "mode" => {
                            mode = val
                                .as_str()
                                .ok_or_else(|| "mode must be \"closed\" or \"open\"".to_string())?
                                .to_string();
                        }
                        "rate_tps" => rate_tps = int(val, key)?,
                        "timeout_ms" => c.timeout_ms = int(val, key)?,
                        "max_retries" => c.max_retries = int(val, key)?,
                        "top_retries" => c.top_retries = int(val, key)?,
                        "backoff_base_rounds" => c.backoff.base_rounds = int(val, key)?,
                        "backoff_cap_rounds" => c.backoff.cap_rounds = int(val, key)?,
                        "backoff_round_us" => c.backoff_round_us = int(val, key)?,
                        "batch" => c.batch = int(val, key)?,
                        other => return Err(format!("unknown net load config key {other:?}")),
                    }
                }
                c.mode = match mode.as_str() {
                    "closed" => LoadMode::Closed,
                    "open" => LoadMode::Open { rate_tps },
                    other => return Err(format!("unknown load mode {other:?}")),
                };
                Ok(NetConfig::Load(c))
            }
            other => Err(format!("unknown net config role {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_roles_roundtrip() {
        let s = ServerConfig {
            fault: Some(TransportPlan {
                drop_period: 7,
                dup_period: 5,
                delay_period: 3,
                delay_us: 200,
            }),
            telemetry: true,
            live_certify: true,
            metrics_period_ms: 250,
            drain_timeout_ms: 5_000,
            data_dir: Some("/tmp/nt-data".to_string()),
            durability: DurabilityMode::FsyncPerCommit,
            ..ServerConfig::default()
        };
        match NetConfig::from_json(&s.to_json()).expect("server roundtrip") {
            NetConfig::Server(back) => assert_eq!(back, s),
            other => panic!("wrong role: {other:?}"),
        }
        let l = LoadConfig {
            mode: LoadMode::Open { rate_tps: 500 },
            batch: 16,
            ..LoadConfig::default()
        };
        match NetConfig::from_json(&l.to_json()).expect("load roundtrip") {
            NetConfig::Load(back) => assert_eq!(back, l),
            other => panic!("wrong role: {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_and_roles_are_rejected() {
        let err =
            NetConfig::from_json(r#"{"role":"server","sharts":4}"#).expect_err("typo rejected");
        assert!(err.contains("sharts"), "{err}");
        let err = NetConfig::from_json(r#"{"role":"load","connection_count":4}"#)
            .expect_err("typo rejected");
        assert!(err.contains("connection_count"), "{err}");
        // The executor-pool knob went away with the pool: a config still
        // carrying it is refused like any other unknown key.
        let err =
            NetConfig::from_json(r#"{"role":"server","workers":4}"#).expect_err("retired knob");
        assert!(err.contains("workers"), "{err}");
        let err = NetConfig::from_json(r#"{"role":"server","detector_period_us":500}"#)
            .expect_err("retired knob");
        assert!(err.contains("there is no period"), "{err}");
        let err =
            NetConfig::from_json(r#"{"role":"server","span_ring":512}"#).expect_err("retired knob");
        assert!(err.contains("a fixed 4096 entries"), "{err}");
        let err = NetConfig::from_json(r#"{"role":"server","static_gate":true}"#)
            .expect_err("retired knob");
        assert!(err.contains("Theorem 17"), "{err}");
        let err = NetConfig::from_json(r#"{"role":"proxy"}"#).expect_err("role rejected");
        assert!(err.contains("proxy"), "{err}");
        let err = NetConfig::from_json(r#"{"shards":4}"#).expect_err("missing role");
        assert!(err.contains("role"), "{err}");
    }

    /// `"shards": 12` used to pass `problems()` and then panic at bind.
    #[test]
    fn shards_is_refused_at_parse_by_name_with_the_reason() {
        let err =
            NetConfig::from_json(r#"{"role":"server","shards":12}"#).expect_err("retired knob");
        assert!(err.contains("\"shards\" was removed"), "{err}");
        assert!(err.contains("one engine lock, not shards"), "{err}");
        assert!(!ServerConfig::default().to_json().contains("shards"));
    }

    /// Every integer key of both roles goes through one reader: whole,
    /// non-negative and within its field's type, or refused naming the
    /// key. `4294967297` used to become 1 in a `u32` field.
    #[test]
    fn integer_keys_refuse_fractions_negatives_and_overflow() {
        let server = [
            "capacity",
            "queue_depth",
            "max_frame_len",
            "metrics_period_ms",
            "drain_timeout_ms",
        ];
        let load = [
            "connections",
            "tops_per_conn",
            "objects",
            "max_depth",
            "min_children",
            "max_children",
            "seed",
            "rate_tps",
            "timeout_ms",
            "max_retries",
            "top_retries",
            "backoff_base_rounds",
            "backoff_cap_rounds",
            "backoff_round_us",
            "batch",
        ];
        let narrow = ["max_depth", "max_retries", "top_retries"];
        for (role, keys) in [("server", &server[..]), ("load", &load[..])] {
            for &key in keys {
                let doc = |v: &str| format!(r#"{{"role":"{role}","{key}":{v}}}"#);
                NetConfig::from_json(&doc("3")).expect("a whole number parses");
                let past_u32 = if narrow.contains(&key) {
                    vec!["4294967297"]
                } else {
                    NetConfig::from_json(&doc("4294967297")).expect("a 64-bit field");
                    vec![]
                };
                for bad in ["1.5", "2.7", "-1", "18446744073709551616", "1e30"]
                    .into_iter()
                    .chain(past_u32)
                {
                    let err = NetConfig::from_json(&doc(bad)).expect_err(bad);
                    assert!(err.contains(&format!("{key:?}")), "{key}={bad}: {err}");
                }
            }
        }
    }

    #[test]
    fn problems_catch_degenerate_configs() {
        let s = ServerConfig {
            queue_depth: 0,
            fault: Some(TransportPlan {
                drop_period: 1,
                ..TransportPlan::default()
            }),
            ..ServerConfig::default()
        };
        let probs = s.problems();
        assert!(probs.iter().any(|p| p.contains("queue_depth")), "{probs:?}");
        assert!(probs.iter().any(|p| p.contains("drop_period")), "{probs:?}");

        let s = ServerConfig {
            metrics_period_ms: 0,
            ..ServerConfig::default()
        };
        let probs = s.problems();
        assert!(
            probs.iter().any(|p| p.contains("metrics_period_ms")),
            "{probs:?}"
        );

        let l = LoadConfig {
            read_ratio: 1.5,
            mode: LoadMode::Open { rate_tps: 0 },
            batch: 0,
            ..LoadConfig::default()
        };
        let probs = l.problems();
        assert!(probs.iter().any(|p| p.contains("read_ratio")), "{probs:?}");
        assert!(probs.iter().any(|p| p.contains("rate_tps")), "{probs:?}");
        assert!(probs.iter().any(|p| p.contains("batch")), "{probs:?}");

        assert!(LoadConfig::default().problems().is_empty());
        assert!(ServerConfig::default().problems().is_empty());
    }

    #[test]
    fn capacity_is_bounded_by_the_txid_range() {
        let parsed = NetConfig::from_json(r#"{"role":"server","capacity":5000000000}"#)
            .expect("parses; the bound is a semantic problem");
        let probs = parsed.problems();
        assert!(
            probs.iter().any(|p| p.contains("u32 transaction-id range")),
            "{probs:?}"
        );
        let widest = ServerConfig {
            capacity: u32::MAX as usize,
            ..ServerConfig::default()
        };
        assert!(widest.problems().is_empty());
    }

    #[test]
    fn durability_needs_a_data_dir() {
        let s = ServerConfig {
            durability: DurabilityMode::FsyncPerCommit,
            ..ServerConfig::default()
        };
        let probs = s.problems();
        assert!(probs.iter().any(|p| p.contains("data_dir")), "{probs:?}");
        let ok = ServerConfig {
            durability: DurabilityMode::FsyncPerCommit,
            data_dir: Some("/tmp/nt".to_string()),
            ..ServerConfig::default()
        };
        assert!(ok.problems().is_empty());
        // A data dir without waits is valid: journaled, never awaited.
        let fire_and_forget = ServerConfig {
            data_dir: Some("/tmp/nt".to_string()),
            ..ServerConfig::default()
        };
        assert!(fire_and_forget.problems().is_empty());
        match NetConfig::from_json(&ok.to_json()).expect("roundtrip") {
            NetConfig::Server(back) => assert_eq!(back, ok),
            other => panic!("wrong role: {other:?}"),
        }
    }
}
