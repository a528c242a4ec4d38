//! The crash-campaign driver behind `nt-crash` and the CI kill-9 smoke.
//!
//! One run of a [`CrashPlan`]: spawn a real `nt-serve` process on a
//! fresh data directory, drive committing load at it from several
//! connections, `SIGKILL` the whole process at the plan's seeded point,
//! restart it on the same directory, and verify the durability
//! contract end to end:
//!
//! 1. the restart succeeds at all — `nt-serve` refuses to serve unless
//!    the recovered history passes the Theorem 17 gate in-process;
//! 2. the recovered history, re-fetched over the wire, certifies
//!    *client-side* too, by the independent post-hoc oracle;
//! 3. every top-level transaction whose `COMMIT` was acknowledged
//!    before the kill is present and committed in the recovered
//!    history (zero committed-transaction loss);
//! 4. resending a pre-crash acknowledged frame, byte for byte, yields
//!    the byte-identical pre-crash response from the journaled cache —
//!    never a second execution;
//! 5. the restarted server's own recovery report (the
//!    `nt-serve recovery {...}` stdout line) says `certified: true`.
//!
//! The driver talks to the server through [`RawConn`], a deliberately
//! dumb client that *retains the exact frame bytes* it sent and
//! received — the retry-capable [`crate::Conn`] hides exactly the
//! bytes check 4 needs.

use crate::wire::{
    encode_request, parse_response, read_frame, Request, Response, WireError, DEFAULT_MAX_FRAME,
};
use nt_faults::CrashPlan;
use nt_model::{Action, Op, TxId};
use nt_obs::json::{Json, JsonObj};
use nt_reactor::FrameBuf;
use nt_serial::{ObjectTypes, RwRegister};
use nt_sgt::{check_serial_correctness, ConflictSource};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A frame-level client that keeps the bytes: every request is sent
/// verbatim `Vec<u8>`, every response comes back as its raw frame (no
/// length prefix) plus the parsed form. No retries, no pipelining —
/// when the server dies mid-read the error surfaces immediately.
pub struct RawConn {
    stream: TcpStream,
    fr: FrameBuf,
    next_seq: u64,
}

impl RawConn {
    /// Connect with the same per-connection seq band as [`crate::Conn`].
    pub fn connect(addr: &str, conn_id: u64) -> Result<RawConn, WireError> {
        let stream = TcpStream::connect(addr).map_err(|e| WireError::from_io(&e))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(2000)))
            .map_err(|e| WireError::from_io(&e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| WireError::from_io(&e))?;
        Ok(RawConn {
            stream,
            fr: FrameBuf::new(),
            next_seq: crate::Conn::seq_base(conn_id),
        })
    }

    /// Send `req`, await its response. Returns
    /// `(request bytes, response frame bytes, parsed response)`.
    pub fn request(&mut self, req: &Request) -> Result<(Vec<u8>, Vec<u8>, Response), WireError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = encode_request(seq, req)?;
        self.stream
            .write_all(&bytes)
            .map_err(|e| WireError::from_io(&e))?;
        let frame = self.await_seq(seq)?;
        let (_, resp) = parse_response(&frame)?;
        Ok((bytes, frame, resp))
    }

    /// Re-send previously captured request bytes verbatim and return the
    /// raw response frame (for byte-identity checks).
    pub fn resend_raw(&mut self, request_bytes: &[u8], seq: u64) -> Result<Vec<u8>, WireError> {
        self.stream
            .write_all(request_bytes)
            .map_err(|e| WireError::from_io(&e))?;
        self.await_seq(seq)
    }

    fn await_seq(&mut self, seq: u64) -> Result<Vec<u8>, WireError> {
        loop {
            match read_frame(&mut self.fr, &mut self.stream, DEFAULT_MAX_FRAME)? {
                None => return Err(WireError::Io("server closed the connection".to_string())),
                Some(frame) => {
                    let (got, _) = parse_response(frame)?;
                    if got == seq {
                        return Ok(frame.to_vec());
                    }
                }
            }
        }
    }
}

/// The pre-crash evidence one load connection gathered.
struct ConnEvidence {
    /// Tops whose `COMMIT` was acknowledged `Committed`.
    acked_committed: Vec<u32>,
    /// The last acknowledged mutating exchange:
    /// `(seq, request bytes, response frame bytes)`.
    retained: Option<(u64, Vec<u8>, Vec<u8>)>,
}

/// tiny xorshift for workload variety (determinism within a run does
/// not matter — the kill races the load by design).
fn mix(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Drive begin/write/commit loops until the plan's tops are done or the
/// server dies under us (the expected outcome pre-kill).
fn drive_load(addr: &str, conn_id: u64, seed: u64, plan: &CrashPlan) -> ConnEvidence {
    let mut ev = ConnEvidence {
        acked_committed: Vec::new(),
        retained: None,
    };
    let Ok(mut conn) = RawConn::connect(addr, conn_id) else {
        return ev;
    };
    let mut rng = seed ^ (conn_id << 17) | 1;
    for _ in 0..plan.tops_per_conn {
        let Ok((_, _, resp)) = conn.request(&Request::BeginTop) else {
            return ev;
        };
        let Response::Begun { tx } = resp else {
            continue;
        };
        let obj = (mix(&mut rng) % plan.objects.max(1)) as u32;
        let val = (mix(&mut rng) % 1000) as i64;
        if conn
            .request(&Request::Access {
                parent: tx,
                obj,
                op: Op::Write(val),
            })
            .is_err()
        {
            return ev;
        }
        let commit_seq = conn.next_seq;
        match conn.request(&Request::Commit { tx }) {
            Ok((req_bytes, frame, Response::Committed)) => {
                ev.acked_committed.push(tx);
                ev.retained = Some((commit_seq, req_bytes, frame));
            }
            Ok(_) => {}
            Err(_) => return ev,
        }
    }
    ev
}

/// What one crash–restart run established.
pub struct RunReport {
    /// Run index within the campaign.
    pub run: u64,
    /// Seed the plan derived for this run.
    pub seed: u64,
    /// Milliseconds into the load at which `SIGKILL` fired.
    pub kill_after_ms: u64,
    /// `COMMIT` acks observed before the kill.
    pub acked_commits: u64,
    /// Committed tops found again in the recovered history.
    pub recovered_commits: u64,
    /// Acked tops missing from the recovered history (must stay 0).
    pub lost_commits: u64,
    /// Pre-crash frames resent post-restart.
    pub resends: u64,
    /// Resends whose response frames came back byte-identical.
    pub resends_matched: u64,
    /// Client-side Theorem 17 verdict over the recovered history.
    pub certified: bool,
    /// The restarted server's own recovery report said `certified`.
    pub server_certified: bool,
    /// Crash-time losers the recovery rolled back.
    pub losers: u64,
}

impl RunReport {
    /// True when every durability obligation held.
    pub fn ok(&self) -> bool {
        self.lost_commits == 0
            && self.resends_matched == self.resends
            && self.certified
            && self.server_certified
    }

    /// One JSON line for campaign output.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("run", self.run)
            .num("seed", self.seed)
            .num("kill_after_ms", self.kill_after_ms)
            .num("acked_commits", self.acked_commits)
            .num("recovered_commits", self.recovered_commits)
            .num("lost_commits", self.lost_commits)
            .num("resends", self.resends)
            .num("resends_matched", self.resends_matched)
            .bool("certified", self.certified)
            .bool("server_certified", self.server_certified)
            .num("losers", self.losers)
            .bool("ok", self.ok());
        o.build()
    }
}

fn spawn_serve(serve_bin: &Path, dir: &Path, durability: &str) -> Result<Child, String> {
    // A restart must not race `wait_port` against the previous life's
    // port file.
    let _ = std::fs::remove_file(dir.join("port"));
    Command::new(serve_bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            &dir.join("port").to_string_lossy(),
            "--data-dir",
            &dir.join("data").to_string_lossy(),
            "--durability",
            durability,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", serve_bin.display()))
}

fn wait_port(dir: &Path, child: &mut Child) -> Result<String, String> {
    let path = dir.join("port");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(s) = std::fs::read_to_string(&path) {
            let s = s.trim().to_string();
            if !s.is_empty() {
                return Ok(s);
            }
        }
        if let Some(status) = child.try_wait().map_err(|e| format!("try_wait: {e}"))? {
            let out = child
                .stderr
                .take()
                .map(|mut s| {
                    let mut buf = String::new();
                    let _ = std::io::Read::read_to_string(&mut s, &mut buf);
                    buf
                })
                .unwrap_or_default();
            return Err(format!("nt-serve exited before listening: {status}; {out}"));
        }
        if Instant::now() >= deadline {
            return Err("nt-serve never wrote its port file".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Parse the `nt-serve recovery {...}` line out of a finished server's
/// stdout. Returns `(certified, losers)`.
fn parse_recovery_line(stdout: &str) -> Result<(bool, u64), String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("nt-serve recovery "))
        .ok_or_else(|| format!("no recovery line in nt-serve stdout: {stdout:?}"))?;
    let v = Json::parse(line).map_err(|e| format!("recovery line is not JSON: {e}"))?;
    let certified = matches!(v.get("certified"), Some(Json::Bool(true)));
    let losers = match v.get("losers") {
        Some(Json::Arr(a)) => a.len() as u64,
        _ => 0,
    };
    Ok((certified, losers))
}

/// Execute run `run` of `plan`. `serve_bin` is the `nt-serve`
/// executable; `scratch` is a directory this run may own a fresh
/// subdirectory of (removed again on success).
pub fn run_one(
    plan: &CrashPlan,
    run: u64,
    serve_bin: &Path,
    scratch: &Path,
) -> Result<RunReport, String> {
    let dir = scratch.join(format!("run-{run}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let seed = plan.seed_for(run);
    let kill_after_ms = plan.kill_after_ms(run);

    // First life: serve, load, SIGKILL mid-flight.
    let mut child = spawn_serve(serve_bin, &dir, &plan.durability)?;
    let addr = wait_port(&dir, &mut child)?;
    let loaders: Vec<_> = (0..plan.connections.max(1))
        .map(|c| {
            let addr = addr.clone();
            let plan = plan.clone();
            std::thread::spawn(move || drive_load(&addr, c + 1, seed, &plan))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(kill_after_ms));
    if !sigshim::send(child.id(), sigshim::SIGKILL) {
        let _ = child.kill();
    }
    let _ = child.wait();
    let evidence: Vec<ConnEvidence> = loaders
        .into_iter()
        .map(|h| h.join().expect("loader thread"))
        .collect();
    let acked: Vec<u32> = evidence
        .iter()
        .flat_map(|e| e.acked_committed.iter().copied())
        .collect();

    // Second life: recover on the same directory and interrogate it.
    let mut child = spawn_serve(serve_bin, &dir, &plan.durability)?;
    let addr = wait_port(&dir, &mut child)?;

    // Fresh seq band — the load bands 1..=connections are burned into
    // the durable cache now.
    let mut conn = crate::Conn::connect(&addr, 1_000_000 + run, crate::ConnConfig::default())
        .map_err(|e| format!("post-restart connect: {e}"))?;
    let (tree, actions) = conn
        .fetch_history()
        .map_err(|e| format!("post-restart history fetch: {e}"))?;
    let types = ObjectTypes::uniform(tree.num_objects(), Arc::new(RwRegister::new(0)));
    let oracle = check_serial_correctness(&tree, &actions, &types, ConflictSource::ReadWrite);
    let committed: BTreeSet<u32> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Commit(TxId(t)) => Some(*t),
            _ => None,
        })
        .collect();
    let lost = acked.iter().filter(|t| !committed.contains(t)).count() as u64;
    let recovered = acked.len() as u64 - lost;

    // Exactly-once: resend each connection's retained pre-crash frame.
    let mut resends = 0;
    let mut resends_matched = 0;
    for ev in &evidence {
        let Some((seq, req_bytes, frame)) = &ev.retained else {
            continue;
        };
        resends += 1;
        let mut raw = RawConn::connect(&addr, 999).map_err(|e| format!("resend connect: {e}"))?;
        let got = raw
            .resend_raw(req_bytes, *seq)
            .map_err(|e| format!("resend seq {seq}: {e}"))?;
        if got == *frame {
            resends_matched += 1;
        }
    }

    // Drain cleanly and read the server's own recovery verdict.
    conn.shutdown_server()
        .map_err(|e| format!("post-restart shutdown: {e}"))?;
    drop(conn);
    let out = child
        .wait_with_output()
        .map_err(|e| format!("wait nt-serve: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "restarted nt-serve exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let (server_certified, losers) = parse_recovery_line(&String::from_utf8_lossy(&out.stdout))?;

    let report = RunReport {
        run,
        seed,
        kill_after_ms,
        acked_commits: acked.len() as u64,
        recovered_commits: recovered,
        lost_commits: lost,
        resends,
        resends_matched,
        certified: oracle.is_serially_correct(),
        server_certified,
        losers,
    };
    if report.ok() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Run a whole campaign, calling `emit` with each run's JSON line as it
/// lands. Returns the reports; the campaign is a pass iff every run's
/// [`RunReport::ok`] holds.
pub fn run_campaign(
    plan: &CrashPlan,
    serve_bin: &Path,
    scratch: &Path,
    mut emit: impl FnMut(&RunReport),
) -> Result<Vec<RunReport>, String> {
    let problems = plan.problems();
    if !problems.is_empty() {
        return Err(format!("crash plan problems: {}", problems.join("; ")));
    }
    let mut reports = Vec::new();
    for run in 0..plan.runs {
        let r = run_one(plan, run, serve_bin, scratch)?;
        emit(&r);
        reports.push(r);
    }
    Ok(reports)
}

/// The `nt-serve` binary expected to sit next to the running executable
/// (both are built into the same target directory).
pub fn sibling_serve_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "executable has no parent directory".to_string())?;
    let candidate = dir.join("nt-serve");
    if candidate.is_file() {
        return Ok(candidate);
    }
    Err(format!("nt-serve not found at {}", candidate.display()))
}
