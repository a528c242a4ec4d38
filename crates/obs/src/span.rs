//! Per-request lifecycle spans (timed recorders only).
//!
//! The server's poll thread stamps every frame at three points of its
//! life — arrived (dispatched by the reactor), started (its first op
//! runs), finished (its reply is buffered) — with a wall-clock
//! microsecond offset from the recorder's epoch, plus the engine's logical
//! `SeqClock` reading at start and finish, so a span can be placed on the
//! real timeline *and* ordered against the recorded history. Spans feed
//! the `phase.*` histograms and export as a Chrome `trace_event` timeline.

use crate::json::JsonObj;

/// One request's lifecycle stamps. All `t_*` fields are microseconds
/// since the owning recorder's epoch; `seq_*` fields are logical clock
/// stamps from the engine's `SeqClock` (carried as plain `u64`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReqSpan {
    /// Connection id the frame arrived on.
    pub conn: u64,
    /// Wire sequence number of the request.
    pub seq: u64,
    /// Wire kind byte of the request (0x01..).
    pub kind: u8,
    /// Frame dispatched to the connection's service.
    pub t_arrived: u64,
    /// Execution began (the frame left whatever queued ahead of it).
    pub t_started: u64,
    /// Every op answered and the reply buffered.
    pub t_finished: u64,
    /// Time spent blocked in the lock table during execution.
    pub lock_wait_us: u64,
    /// Logical clock when execution began.
    pub seq_started: u64,
    /// Logical clock when the reply was buffered.
    pub seq_finished: u64,
}

impl ReqSpan {
    /// Time the request sat behind earlier work.
    pub fn queue_wait_us(&self) -> u64 {
        self.t_started.saturating_sub(self.t_arrived)
    }

    /// Execution time (includes any lock wait).
    pub fn execute_us(&self) -> u64 {
        self.t_finished.saturating_sub(self.t_started)
    }

    /// Whole server-side span: arrival to buffered reply.
    pub fn total_us(&self) -> u64 {
        self.t_finished.saturating_sub(self.t_arrived)
    }

    /// The two back-to-back slices of the span, as `(histogram name,
    /// start, duration)`: what [`crate::TraceHandle::record_span`]
    /// observes and what the Chrome export draws.
    pub fn slices(&self) -> [(&'static str, u64, u64); 2] {
        [
            ("phase.queue_wait", self.t_arrived, self.queue_wait_us()),
            ("phase.execute", self.t_started, self.execute_us()),
        ]
    }

    /// True when the wall stamps are non-decreasing in lifecycle order
    /// and the logical stamps agree with that order.
    pub fn monotone(&self) -> bool {
        self.t_arrived <= self.t_started
            && self.t_started <= self.t_finished
            && self.seq_started <= self.seq_finished
    }
}

/// Render spans as a Chrome `trace_event` JSON document: one process
/// (pid 3, "nt-serve runtime"), one track per connection, and two
/// complete ("X") events per request — queue wait, execute — so
/// chrome://tracing shows where each request's time went. Wall
/// timestamps are real microseconds; the logical stamps ride along in
/// `args` for correlation with the recorded history.
pub fn spans_to_chrome_trace(spans: &[ReqSpan]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 2 + 1);
    let mut meta = JsonObj::new();
    meta.str("name", "process_name")
        .str("ph", "M")
        .num("pid", 3)
        .num("tid", 0)
        .raw("args", "{\"name\":\"nt-serve runtime\"}".to_string());
    events.push(meta.build());
    for s in spans {
        for (name, ts, dur) in s.slices() {
            let mut args = JsonObj::new();
            args.num("seq", s.seq)
                .num("kind", u64::from(s.kind))
                .num("lock_wait_us", s.lock_wait_us)
                .num("seq_started", s.seq_started)
                .num("seq_finished", s.seq_finished);
            let mut o = JsonObj::new();
            o.str("name", name)
                .str("cat", "req")
                .str("ph", "X")
                .num("ts", ts)
                .num("dur", dur)
                .num("pid", 3)
                .num("tid", s.conn)
                .raw("args", args.build());
            events.push(o.build());
        }
    }
    format!("[{}]", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span() -> ReqSpan {
        ReqSpan {
            conn: 1,
            seq: 9,
            kind: 0x03,
            t_arrived: 110,
            t_started: 150,
            t_finished: 400,
            lock_wait_us: 200,
            seq_started: 5,
            seq_finished: 12,
        }
    }

    #[test]
    fn phase_durations_decompose_total() {
        let s = span();
        assert!(s.monotone());
        assert_eq!(s.queue_wait_us() + s.execute_us(), s.total_us());
        assert_eq!(s.queue_wait_us(), 40);
        assert_eq!(s.execute_us(), 250);
    }

    #[test]
    fn non_monotone_span_is_flagged() {
        let mut s = span();
        s.t_started = 90;
        assert!(!s.monotone());
    }

    #[test]
    fn chrome_trace_parses_and_orders() {
        let trace = spans_to_chrome_trace(&[span()]);
        let Json::Arr(items) = Json::parse(&trace).expect("trace parses") else {
            panic!("trace is an array");
        };
        // 1 metadata + 2 slices.
        assert_eq!(items.len(), 3);
        let mut last_ts = 0.0;
        for ev in &items[1..] {
            let ts = ev.get("ts").and_then(Json::as_num).unwrap();
            assert!(ts >= last_ts, "timestamps in order");
            last_ts = ts;
            assert_eq!(ev.get("pid").and_then(Json::as_num), Some(3.0));
        }
    }
}
