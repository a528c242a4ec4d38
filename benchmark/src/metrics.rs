//! Every metric the benchmark reports: name, unit, direction, bound, what
//! it measures and — for a layer metric — the end-to-end metric it should
//! move. `BENCHMARK.json` repeats the first four; a unit test holds the two
//! together.

/// Which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the server sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndDef {
    /// Name.
    pub name: &'static str,
    /// Unit (`x` = multiples of the host reference op).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Definition.
    pub what: &'static str,
}

/// A per-layer metric from the traced run. Informational: no bound.
#[derive(Clone, Copy, Debug)]
pub struct LayerDef {
    /// Name (`layer.metric`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
    /// Definition.
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, all measured with tracing off.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "top_cost_x",
        unit: "x",
        better: Lower,
        bound: 0.08,
        what: "trial wall / committed tops / ref (inverse throughput); median over kept trials",
    },
    EndToEndDef {
        name: "top_p50_x",
        unit: "x",
        better: Lower,
        bound: 0.08,
        what: "client-observed top latency p50, retries and backoff included, / ref; median over kept trials",
    },
    EndToEndDef {
        name: "top_p99_x",
        unit: "x",
        better: Lower,
        bound: 0.15,
        what: "same at p99 per trial (10 samples beyond it at 1000 tops) / ref; median over kept trials",
    },
    EndToEndDef {
        name: "req_p50_x",
        unit: "x",
        better: Lower,
        bound: 0.08,
        what: "wire frame round trip p50 (a BATCH frame is one) / ref; median over kept trials",
    },
    EndToEndDef {
        name: "rss_peak_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
        what: "VmHWM of the benchmark process (server, clients and 18 000 resident templates) at the end of the first epoch's trials, server still up",
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        what: "epoch set-up wall (store open, bind, serve, connect, 1000 warm-up tops) / ref x 10 us: seconds on a host whose reference op takes 10 us; median over epochs",
    },
];

/// The per-layer metrics of the traced run (`--trace 1`).
pub const PER_LAYER: &[LayerDef] = &[
    LayerDef { name: "wire.encode_ns_per_frame", unit: "ns", better: Lower, moves: "req_p50_x, top_cost_x on rpc-1c; 1/16 of that on batch workloads", what: "encode_request / encode_batch_request over the workload's own request frames" },
    LayerDef { name: "wire.decode_ns_per_frame", unit: "ns", better: Lower, moves: "req_p50_x, top_cost_x on rpc-1c; 1/16 of that on batch workloads", what: "parse_request / parse_frame + decode_batch_request over the same frames" },
    LayerDef { name: "wire.frames_per_top", unit: "count", better: Lower, moves: "top_cost_x, top_p50_x on rpc-1c", what: "wire round trips per committed top in the untraced trials of the traced epoch" },
    LayerDef { name: "wire.bytes_per_top", unit: "B", better: Lower, moves: "none end to end; req_p50_x on rpc-1c when frames shrink", what: "modelled, not counted on the socket: every request sent and response received in the traced trials, encoded again and measured, per committed top; resends are not in it" },
    LayerDef { name: "reactor.echo_x", unit: "x", better: Lower, moves: "req_p50_x on rpc-1c; no change on hot-2c", what: "round trip through nt_reactor::spawn with an echo Service / host echo_us" },
    LayerDef { name: "server.ping_x", unit: "x", better: Lower, moves: "req_p50_x on rpc-1c", what: "Request::Ping through the full server / host echo_us" },
    LayerDef { name: "server.ctx_switches_per_req", unit: "count", better: Lower, moves: "req_p50_x, top_cost_x on rpc-1c", what: "voluntary + involuntary context switches of every thread per Ping round trip" },
    LayerDef { name: "server.handoff_x", unit: "x", better: Lower, moves: "req_p50_x on rpc-1c", what: "server.ping_x - reactor.echo_x: what decode, reply cache and stats add to the bare reactor" },
    LayerDef { name: "client.self_us_per_req", unit: "us", better: Lower, moves: "floor of req_p50_x everywhere", what: "self time of top spans + Conn::send spans per wire frame (the driver's own cost)" },
    LayerDef { name: "session.inproc_us_per_top", unit: "us", better: Lower, moves: "floor of top_cost_x everywhere", what: "the same templates through SessionEngine::open_session, no sockets, one thread" },
    LayerDef { name: "session.tx_per_top", unit: "count", better: Lower, moves: "top_cost_x, rss_peak_mb", what: "transactions registered per committed top (retries included) in the traced epoch" },
    LayerDef { name: "net.loopback_delta_us_per_req", unit: "us", better: Lower, moves: "top_cost_x on rpc-1c", what: "(loopback us per top - in-process us per top) / frames per top" },
    LayerDef { name: "locktable.acquire_ns", unit: "ns", better: Lower, moves: "top_cost_x on hot-2c", what: "uncontended LockTable::acquire" },
    LayerDef { name: "locktable.release_inherit_ns", unit: "ns", better: Lower, moves: "top_cost_x on hot-2c", what: "uncontended LockTable::release_inherit" },
    LayerDef { name: "locktable.wait_share", unit: "ratio", better: Lower, moves: "top_cost_x, top_p99_x on hot-2c; near zero on rpc-1c and wal-1c", what: "lock_blocks / lock_grants over the traced epoch" },
    LayerDef { name: "locktable.wait_us_per_top", unit: "us", better: Lower, moves: "top_p50_x, top_p99_x on hot-2c", what: "blocked time in the lock table per top, from the telemetry-on leg" },
    LayerDef { name: "locktable.timeout_rescues", unit: "count", better: Lower, moves: "top_p99_x on hot-2c", what: "grants that landed right after a timed-out wait, traced epoch" },
    LayerDef { name: "detector.victims_per_ktop", unit: "count", better: Lower, moves: "top_p99_x, top_cost_x on hot-2c", what: "deadlock victims per 1000 committed tops" },
    LayerDef { name: "detector.passes_per_s", unit: "1/s", better: Lower, moves: "top_cost_x everywhere (the detector shares the CPU)", what: "detector scan passes per second of the traced epoch" },
    LayerDef { name: "engine.abort_share", unit: "ratio", better: Lower, moves: "top_cost_x, top_p99_x on hot-2c", what: "aborted top attempts / all top attempts" },
    LayerDef { name: "engine.retry_sleep_us_per_top", unit: "us", better: Lower, moves: "top_p99_x on hot-2c", what: "client backoff sleep per committed top" },
    LayerDef { name: "recorder.record_ns_per_action", unit: "ns", better: Lower, moves: "top_cost_x on cert-2c", what: "WorkerLog::record, no sink, no feed" },
    LayerDef { name: "recorder.actions_per_top", unit: "count", better: Lower, moves: "rss_peak_mb everywhere", what: "recorded actions per committed top in the traced epoch" },
    LayerDef { name: "recorder.history_snapshot_ms", unit: "ms", better: Lower, moves: "rss_peak_mb", what: "SessionEngine::history_snapshot of the traced epoch's server" },
    LayerDef { name: "sgt_live.apply_ns_per_action", unit: "ns", better: Lower, moves: "top_cost_x on cert-2c only", what: "SgtMaintainer::replay of the verify pass's history / actions" },
    LayerDef { name: "sgt_live.edges_per_access", unit: "count", better: Lower, moves: "top_cost_x, rss_peak_mb on cert-2c", what: "edges of that replay with GC off / accesses" },
    LayerDef { name: "sgt_live.resident_nodes_max", unit: "count", better: Lower, moves: "rss_peak_mb on cert-2c", what: "largest sgt.live.nodes gauge sampled during the telemetry-on leg (0 without the certifier)" },
    LayerDef { name: "sgt_live.resident_edges_max", unit: "count", better: Lower, moves: "rss_peak_mb on cert-2c", what: "largest sgt.live.edges gauge sampled during the same leg" },
    LayerDef { name: "sgt_live.lag_actions_max", unit: "count", better: Lower, moves: "top_cost_x on cert-2c", what: "largest SeqClock - GC watermark sampled during the same leg" },
    LayerDef { name: "sgt_live.drain_ms", unit: "ms", better: Lower, moves: "top_cost_x on cert-2c", what: "one CERT round trip (certifier drain barrier) right after the last trial" },
    LayerDef { name: "sgt_live.on_cost_pct", unit: "%", better: Lower, moves: "top_cost_x on cert-2c", what: "top_cost_x with live_certify on vs off, this workload's traffic, interleaved trials" },
    LayerDef { name: "sgt.posthoc_ms_per_kaction", unit: "ms", better: Lower, moves: "store.recover_x on wal-1c", what: "certify_recorded on the verify pass's history, per 1000 actions" },
    LayerDef { name: "sgt.posthoc_edges_per_access", unit: "count", better: Lower, moves: "store.recover_x on wal-1c", what: "serialization-graph edges of that certificate / accesses" },
    LayerDef { name: "store.append_ns_per_record", unit: "ns", better: Lower, moves: "top_cost_x on wal-1c", what: "Wal::append of a 24-byte cache record, no sync" },
    LayerDef { name: "store.records_per_top", unit: "count", better: Lower, moves: "top_cost_x on wal-1c", what: "WAL records appended per committed top with this traffic logged" },
    LayerDef { name: "store.flush_durable_us_p50", unit: "us", better: Lower, moves: "none with DurabilityMode::None; barrier-pass time", what: "append one record + Wal::flush_durable, p50 of 25 (device time)" },
    LayerDef { name: "store.checkpoint_ms", unit: "ms", better: Lower, moves: "setup_s on wal-1c (drain cost)", what: "Store::checkpoint on the logged leg's directory" },
    LayerDef { name: "store.analyze_ms_per_krecord", unit: "ms", better: Lower, moves: "store.recover_x, setup_s on wal-1c", what: "nt_store::analyze on that directory, per 1000 records" },
    LayerDef { name: "store.on_cost_pct", unit: "%", better: Lower, moves: "top_cost_x on wal-1c", what: "top_cost_x with the WAL mounted (no fsync wait) vs not, this workload's traffic, interleaved trials" },
    LayerDef { name: "store.wal_bytes_per_top", unit: "B", better: Lower, moves: "top_cost_x on wal-1c", what: "WAL file bytes / tops: barrier pass (2000 tops) on wal-1c, logged leg elsewhere" },
    LayerDef { name: "store.wal_syncs_per_top", unit: "count", better: Lower, moves: "barrier-pass time on wal-1c", what: "Wal::sync_count / tops: barrier pass on wal-1c, logged leg elsewhere" },
    LayerDef { name: "store.recover_x", unit: "x", better: Lower, moves: "setup_s on wal-1c", what: "Store::open wall on that directory / host cpu_us" },
    LayerDef { name: "telemetry.on_cost_pct", unit: "%", better: Lower, moves: "should stay near 0 on every workload", what: "top_cost_x with telemetry on vs off, this workload's traffic, interleaved trials" },
    LayerDef { name: "budget.wire_us", unit: "us", better: Lower, moves: "req_p50_x on rpc-1c", what: "request encode + decode + response encode + decode per stand-alone frame" },
    LayerDef { name: "budget.reactor_us", unit: "us", better: Lower, moves: "req_p50_x on rpc-1c", what: "bare reactor echo round trip" },
    LayerDef { name: "budget.handoff_us", unit: "us", better: Lower, moves: "req_p50_x on rpc-1c", what: "server Ping round trip - bare reactor round trip" },
    LayerDef { name: "budget.session_us", unit: "us", better: Lower, moves: "req_p50_x on rpc-1c", what: "in-process us per top / frames per top" },
    LayerDef { name: "budget.sum_us", unit: "us", better: Lower, moves: "req_p50_x on rpc-1c", what: "the four rows above added" },
    LayerDef { name: "budget.coverage", unit: "ratio", better: Higher, moves: "none; the ladder is additive only near 1", what: "budget.sum_us / raw.req_us_p50" },
    LayerDef { name: "host.echo_us", unit: "us", better: Lower, moves: "none (the host)", what: "the reference op: 32-byte loopback ping-pong; median over brackets" },
    LayerDef { name: "host.cpu_us", unit: "us", better: Lower, moves: "none (the host)", what: "integer-mix + HashMap kernel (what store.recover_x is divided by); mean of a reading before and after the traced run" },
    LayerDef { name: "host.fsync_us", unit: "us", better: Lower, moves: "none (the device)", what: "4 KiB write + sync_data, mean of 20" },
    LayerDef { name: "host.trials_dropped", unit: "count", better: Lower, moves: "none (the host)", what: "trials with a bracket more than 15% above their run's fast level (the lower quartile of its bracket readings)" },
    LayerDef { name: "host.ref_spread_pct", unit: "%", better: Lower, moves: "none (the host)", what: "IQR / median of the reference over all brackets" },
    LayerDef { name: "raw.tops_per_s", unit: "1/s", better: Higher, moves: "top_cost_x (un-normalised)", what: "committed tops per second; median over kept untraced trials" },
    LayerDef { name: "raw.top_us_p50", unit: "us", better: Lower, moves: "top_p50_x (un-normalised)", what: "top latency p50" },
    LayerDef { name: "raw.top_us_p99", unit: "us", better: Lower, moves: "top_p99_x (un-normalised)", what: "top latency p99" },
    LayerDef { name: "raw.req_us_p50", unit: "us", better: Lower, moves: "req_p50_x (un-normalised)", what: "frame round trip p50" },
    LayerDef { name: "raw.setup_s", unit: "s", better: Lower, moves: "setup_s (un-normalised)", what: "set-up wall of the traced epoch" },
    LayerDef { name: "raw.recover_s", unit: "s", better: Lower, moves: "store.recover_x (un-normalised)", what: "Store::open wall" },
    LayerDef { name: "raw.cpu_us_per_top", unit: "us", better: Lower, moves: "top_cost_x (on one pinned CPU the two agree unless something sleeps)", what: "process user + system CPU time per committed top over the untraced trials" },
    LayerDef { name: "trace.overhead_pct", unit: "%", better: Lower, moves: "none; how far the traced trials are from the untraced", what: "top_cost_x of traced vs untraced trials of the same epoch, interleaved" },
];

/// A measured value under a registered name.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Registered metric name.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Unit, from the registry.
    pub unit: &'static str,
}

/// Collects values and checks each against the registry.
#[derive(Default)]
pub struct Values(Vec<Value>);

impl Values {
    /// Record `value` under `name`, which must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not registered"));
        self.0.retain(|v| v.name != name);
        self.0.push(Value { name, value, unit });
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// The values in registry order; a registered name of `kind` that was
    /// never set is an error.
    pub fn in_order(
        &self,
        names: impl Iterator<Item = &'static str>,
    ) -> Result<Vec<Value>, String> {
        names
            .map(|n| {
                self.0
                    .iter()
                    .find(|v| v.name == n)
                    .cloned()
                    .ok_or_else(|| format!("metric {n} was not measured"))
            })
            .collect()
    }
}

/// The unit a registered name reports in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| PER_LAYER.iter().find(|d| d.name == name).map(|d| d.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_obs::json::Json;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        let first = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let workloads = crate::workloads::all();
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for name in workloads
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in END_TO_END {
            assert!(unit_ok(d.unit), "{}", d.name);
            // The driver takes up to 0.25; a metric that needs more than
            // 0.15 moves to `raw.*` instead.
            assert!(d.bound > 0.0 && d.bound <= 0.15, "{}", d.name);
        }
        for d in PER_LAYER {
            assert!(unit_ok(d.unit), "{}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let arr = |k: &str| match doc.get(k) {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let s = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let listed: Vec<(String, String)> = arr("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let e2e = arr("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), d.name);
            assert_eq!(s(j, "unit"), d.unit);
            assert_eq!(s(j, "better"), d.better.word());
            assert_eq!(
                j.get("bound").and_then(Json::as_num),
                Some(d.bound),
                "{}",
                d.name
            );
        }
        let layers = arr("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(j, "name"), d.name);
            assert_eq!(s(j, "unit"), d.unit);
            assert_eq!(s(j, "better"), d.better.word());
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(crate::workloads::NOMINAL_SECONDS as f64)
        );
    }

    #[test]
    fn values_reject_unregistered_and_missing_names() {
        let mut v = Values::default();
        v.set("top_cost_x", 1.5);
        v.set("top_cost_x", 2.5);
        assert_eq!(v.get("top_cost_x"), Some(2.5));
        assert!(v.in_order(["top_cost_x"].into_iter()).is_ok());
        assert!(v.in_order(["top_p50_x"].into_iter()).is_err());
        assert!(std::panic::catch_unwind(|| Values::default().set("nope", 1.0)).is_err());
    }
}
