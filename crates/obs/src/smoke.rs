//! One-line machine-readable smoke summaries.
//!
//! Every `--smoke` binary in the workspace (engine_bench, analyze_bench,
//! nt-load) emits exactly one JSON line on stdout so CI can grep and
//! parse the result uniformly: `{"suite": "...", ...}`. This builder
//! keeps the shape consistent — `suite` first, then whatever counters
//! the gate cares about. It lives here (rather than in the bench
//! harness) so the load driver's sweep cells and the bench binaries
//! share one percentile-reporting idiom.

use crate::json::JsonObj;
use crate::Histogram;

/// One-line machine-readable smoke summary.
pub struct SmokeLine(JsonObj);

impl SmokeLine {
    /// Start a line for the named suite.
    pub fn new(suite: &str) -> SmokeLine {
        let mut o = JsonObj::new();
        o.str("suite", suite);
        SmokeLine(o)
    }

    /// Add an integer counter.
    pub fn num(mut self, key: &str, v: u64) -> SmokeLine {
        self.0.num(key, v);
        self
    }

    /// Add a float measurement.
    pub fn float(mut self, key: &str, v: f64) -> SmokeLine {
        self.0.float(key, v);
        self
    }

    /// Add a boolean verdict.
    pub fn bool(mut self, key: &str, v: bool) -> SmokeLine {
        self.0.bool(key, v);
        self
    }

    /// Add `{prefix}_p50`/`_p95`/`_p99` from a latency histogram, so
    /// every smoke line reports tail latency alongside its throughput
    /// counters under uniform key names (prefixes carry the unit, e.g.
    /// `top_us`).
    pub fn percentiles(mut self, prefix: &str, hist: &Histogram) -> SmokeLine {
        let (p50, p95, p99) = hist.p50_p95_p99();
        self.0.num(&format!("{prefix}_p50"), p50);
        self.0.num(&format!("{prefix}_p95"), p95);
        self.0.num(&format!("{prefix}_p99"), p99);
        self
    }

    /// The finished line (no trailing newline).
    pub fn build(self) -> String {
        self.0.build()
    }

    /// Print the line to stdout.
    pub fn emit(self) {
        println!("{}", self.build());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn smoke_line_reports_percentiles_uniformly() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v * 10);
        }
        let line = SmokeLine::new("demo").percentiles("req_us", &h).build();
        let v = Json::parse(&line).expect("smoke line parses");
        let num = |k: &str| v.get(k).and_then(Json::as_num).unwrap();
        assert!(num("req_us_p50") > 0.0);
        assert!(num("req_us_p95") >= num("req_us_p50"));
        assert!(num("req_us_p99") >= num("req_us_p95"));
    }
}
