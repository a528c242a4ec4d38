//! Per-request lifecycle spans.
//!
//! The server stamps every frame at fixed points of its life —
//! decoded → enqueued for the executor → dequeued → executed →
//! response written — with both a wall-clock microsecond offset from
//! the telemetry epoch and the engine's logical [`SeqClock`] value, so
//! a span can be placed on the real timeline *and* ordered against the
//! recorded history. Spans aggregate into per-phase histograms and
//! export as a cross-thread Chrome `trace_event` timeline.
//!
//! [`SeqClock`]: https://docs.rs/ (nt-engine's recorder clock; carried
//! here as a plain `u64` so nt-telemetry stays dependency-light)

use nt_obs::json::JsonObj;

/// One request's lifecycle stamps. All `t_*` fields are microseconds
/// since the owning [`crate::Telemetry`]'s epoch; `seq_*` fields are
/// logical clock stamps from the engine's `SeqClock`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReqSpan {
    /// Connection id the frame arrived on.
    pub conn: u64,
    /// Wire sequence number of the request.
    pub seq: u64,
    /// Wire kind byte of the request (0x01..).
    pub kind: u8,
    /// Frame decoded by the read loop.
    pub t_decode: u64,
    /// Handed to the executor queue.
    pub t_enqueue: u64,
    /// Picked up by the executor.
    pub t_dequeue: u64,
    /// Engine execution finished.
    pub t_exec_end: u64,
    /// Response bytes written to the socket.
    pub t_respond: u64,
    /// Time spent blocked in the lock table during execution.
    pub lock_wait_us: u64,
    /// Logical clock when the frame was decoded.
    pub seq_decode: u64,
    /// Logical clock when the response was written.
    pub seq_respond: u64,
}

impl ReqSpan {
    /// Parse + channel-send time: decode to executor enqueue.
    pub fn decode_enqueue_us(&self) -> u64 {
        self.t_enqueue.saturating_sub(self.t_decode)
    }

    /// Time the request sat in the executor queue.
    pub fn queue_wait_us(&self) -> u64 {
        self.t_dequeue.saturating_sub(self.t_enqueue)
    }

    /// Execution time (includes any lock wait).
    pub fn execute_us(&self) -> u64 {
        self.t_exec_end.saturating_sub(self.t_dequeue)
    }

    /// Response encode + socket write time.
    pub fn respond_us(&self) -> u64 {
        self.t_respond.saturating_sub(self.t_exec_end)
    }

    /// Whole server-side span: decode to response written.
    pub fn total_us(&self) -> u64 {
        self.t_respond.saturating_sub(self.t_decode)
    }

    /// True when the wall stamps are non-decreasing in lifecycle order
    /// and the logical stamps agree with that order.
    pub fn monotone(&self) -> bool {
        self.t_decode <= self.t_enqueue
            && self.t_enqueue <= self.t_dequeue
            && self.t_dequeue <= self.t_exec_end
            && self.t_exec_end <= self.t_respond
            && self.seq_decode <= self.seq_respond
    }
}

/// Render spans as a Chrome `trace_event` JSON document: one process
/// (pid 3, "nt-serve runtime"), one track per connection, and three
/// complete ("X") events per request — queue wait, execute, respond —
/// so chrome://tracing shows where each request's time went. Wall
/// timestamps are real microseconds; the logical stamps ride along in
/// `args` for correlation with the recorded history.
pub fn spans_to_chrome_trace(spans: &[ReqSpan]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 3 + 1);
    let mut meta = JsonObj::new();
    meta.str("name", "process_name")
        .str("ph", "M")
        .num("pid", 3)
        .num("tid", 0)
        .raw("args", "{\"name\":\"nt-serve runtime\"}".to_string());
    events.push(meta.build());
    for s in spans {
        let phases = [
            ("queue_wait", s.t_enqueue, s.queue_wait_us()),
            ("execute", s.t_dequeue, s.execute_us()),
            ("respond", s.t_exec_end, s.respond_us()),
        ];
        for (name, ts, dur) in phases {
            let mut args = JsonObj::new();
            args.num("seq", s.seq)
                .num("kind", u64::from(s.kind))
                .num("lock_wait_us", s.lock_wait_us)
                .num("seq_decode", s.seq_decode)
                .num("seq_respond", s.seq_respond);
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

    fn span() -> ReqSpan {
        ReqSpan {
            conn: 1,
            seq: 9,
            kind: 0x03,
            t_decode: 100,
            t_enqueue: 110,
            t_dequeue: 150,
            t_exec_end: 400,
            t_respond: 420,
            lock_wait_us: 200,
            seq_decode: 5,
            seq_respond: 12,
        }
    }

    #[test]
    fn phase_durations_decompose_total() {
        let s = span();
        assert!(s.monotone());
        assert_eq!(
            s.decode_enqueue_us() + s.queue_wait_us() + s.execute_us() + s.respond_us(),
            s.total_us()
        );
        assert_eq!(s.queue_wait_us(), 40);
        assert_eq!(s.execute_us(), 250);
    }

    #[test]
    fn non_monotone_span_is_flagged() {
        let mut s = span();
        s.t_dequeue = 90;
        assert!(!s.monotone());
    }

    #[test]
    fn chrome_trace_parses_and_orders() {
        let trace = spans_to_chrome_trace(&[span()]);
        let v = nt_obs::json::Json::parse(&trace).expect("trace parses");
        let nt_obs::json::Json::Arr(items) = v else {
            panic!("trace is an array");
        };
        // 1 metadata + 3 phase events.
        assert_eq!(items.len(), 4);
        let mut last_ts = 0.0;
        for ev in &items[1..] {
            let ts = ev.get("ts").and_then(nt_obs::json::Json::as_num).unwrap();
            assert!(ts >= last_ts, "timestamps in order");
            last_ts = ts;
            assert_eq!(
                ev.get("pid").and_then(nt_obs::json::Json::as_num),
                Some(3.0)
            );
        }
    }
}
