//! End-to-end reactor tests over real loopback sockets, with a tiny echo
//! protocol: each frame is `len u32le | payload`, and the service echoes
//! the payload back in its own frame. Exercises accept, nonblocking
//! framing across partial writes, inline execution, reply coalescing,
//! per-connection ordering, corrupt-prefix handling, graceful drain,
//! parked continuations (resume handles and deadlines), and the drain
//! deadline.

use nt_reactor::{
    spawn, BadFrame, Drainer, ReactorConfig, ReplySink, ResumeHandle, Service, ServiceFactory,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Read one `len u32le | payload` frame off a blocking socket.
fn read_frame(s: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).ok()?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut body).ok()?;
    Some(body)
}

struct Echo {
    sink: ReplySink,
    /// Buffered replies, emitted on flush (exercises the group-commit
    /// path: a pipelined burst produces one coalesced send).
    pending: Vec<u8>,
    pending_frames: u64,
    hangups: Arc<AtomicU64>,
}

impl Service for Echo {
    fn frame(&mut self, frame: Vec<u8>, _enqueued: std::time::Instant) {
        if frame == b"DRAIN" {
            // Through the same pending buffer as every other reply, so
            // the drain ack cannot overtake earlier buffered replies.
            self.pending.extend_from_slice(&framed(b"draining"));
            self.pending_frames += 1;
            self.sink.drain();
            return;
        }
        self.pending.extend_from_slice(&framed(&frame));
        self.pending_frames += 1;
    }

    fn flush(&mut self) {
        if self.pending_frames > 0 {
            self.sink
                .send(std::mem::take(&mut self.pending), self.pending_frames);
            self.pending_frames = 0;
        }
    }

    fn corrupt(&mut self, bad: BadFrame) {
        self.flush();
        self.sink
            .send(framed(format!("bad frame len {}", bad.len).as_bytes()), 1);
        self.sink.close();
    }

    fn hangup(&mut self, _frames: u64) {
        self.hangups.fetch_add(1, Ordering::Relaxed);
    }
}

struct EchoFactory {
    hangups: Arc<AtomicU64>,
}

impl ServiceFactory for EchoFactory {
    fn open(&self, _conn: u64, sink: ReplySink) -> Box<dyn Service> {
        Box::new(Echo {
            sink,
            pending: Vec::new(),
            pending_frames: 0,
            hangups: Arc::clone(&self.hangups),
        })
    }
}

fn start(
    max_frame: usize,
) -> (
    std::net::SocketAddr,
    nt_reactor::ReactorHandle,
    Arc<AtomicU64>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hangups = Arc::new(AtomicU64::new(0));
    let factory = Arc::new(EchoFactory {
        hangups: Arc::clone(&hangups),
    });
    let cfg = ReactorConfig {
        min_frame_len: 1,
        max_frame_len: max_frame,
        checksum_len: 0,
        queue_depth: 16,
        phase: None,
    };
    let handle = spawn(listener, cfg, factory, Drainer::new()).expect("spawn");
    (addr, handle, hangups)
}

#[test]
fn echoes_across_many_connections_in_order() {
    let (addr, handle, hangups) = start(1 << 20);
    let mut clients: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Pipeline a burst per client, then read every reply back in order.
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..10 {
            let msg = format!("conn{i}-frame{k}");
            c.write_all(&framed(msg.as_bytes())).expect("write");
        }
    }
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..10 {
            let got = read_frame(c).expect("reply");
            assert_eq!(got, format!("conn{i}-frame{k}").into_bytes());
        }
    }
    drop(clients);
    handle.drainer().drain();
    handle.join();
    assert_eq!(hangups.load(Ordering::Relaxed), 8);
}

#[test]
fn partial_and_split_writes_still_frame() {
    let (addr, handle, _) = start(1 << 20);
    let mut c = TcpStream::connect(addr).expect("connect");
    let wire = framed(b"split-me");
    c.write_all(&wire[..3]).expect("write");
    c.flush().expect("flush");
    std::thread::sleep(std::time::Duration::from_millis(20));
    c.write_all(&wire[3..]).expect("write");
    assert_eq!(read_frame(&mut c).expect("reply"), b"split-me".to_vec());
    handle.drainer().drain();
    handle.join();
}

#[test]
fn corrupt_length_prefix_gets_an_error_then_close() {
    let (addr, handle, hangups) = start(64);
    let mut c = TcpStream::connect(addr).expect("connect");
    // A valid frame first, then a prefix past the 64-byte cap.
    c.write_all(&framed(b"ok")).expect("write");
    c.write_all(&u32::MAX.to_le_bytes()).expect("write");
    assert_eq!(read_frame(&mut c).expect("reply"), b"ok".to_vec());
    let err = read_frame(&mut c).expect("error reply");
    assert_eq!(err, format!("bad frame len {}", u32::MAX).into_bytes());
    // Server closes after the error: EOF.
    let mut rest = Vec::new();
    assert_eq!(c.read_to_end(&mut rest).unwrap_or(0), 0);
    // The service's hangup ran even though the client never disconnected.
    for _ in 0..200 {
        if hangups.load(Ordering::Relaxed) == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(hangups.load(Ordering::Relaxed), 1);
    handle.drainer().drain();
    handle.join();
}

#[test]
fn drain_answers_everything_already_dispatched() {
    let (addr, handle, _) = start(1 << 20);
    let mut c = TcpStream::connect(addr).expect("connect");
    for k in 0..5 {
        c.write_all(&framed(format!("work{k}").as_bytes()))
            .expect("write");
    }
    c.write_all(&framed(b"DRAIN")).expect("write");
    for k in 0..5 {
        assert_eq!(
            read_frame(&mut c).expect("reply"),
            format!("work{k}").into_bytes()
        );
    }
    assert_eq!(read_frame(&mut c).expect("reply"), b"draining".to_vec());
    // After the drain reply the server closes cleanly.
    let mut rest = Vec::new();
    assert_eq!(c.read_to_end(&mut rest).unwrap_or(0), 0);
    handle.join();
}

#[test]
fn external_drainer_stops_an_idle_reactor() {
    let (addr, handle, _) = start(1 << 20);
    let drainer = handle.drainer();
    assert!(!drainer.is_draining());
    // A connected-but-idle client must not hold the drain open.
    let _idle = TcpStream::connect(addr).expect("connect");
    drainer.drain();
    assert!(drainer.is_draining());
    handle.join();
}

// --- Parked continuations ---------------------------------------------------

/// An echo service whose `PARK` frame cannot finish until something
/// outside fires its resume handle: the reactor-level shape of a lock
/// wait. Frames behind a parked one queue in the service.
struct Parker {
    sink: ReplySink,
    resume: ResumeHandle,
    /// Hands the resume handle of a `PARK` frame to the test.
    parked_tx: mpsc::Sender<ResumeHandle>,
    /// Set by the test before it fires the handle.
    released: Arc<AtomicU64>,
    waiting: Option<Vec<u8>>,
    backlog: VecDeque<Vec<u8>>,
    pending: Vec<u8>,
    pending_frames: u64,
}

impl Parker {
    fn run(&mut self, frame: Vec<u8>) {
        if frame == b"PARK" {
            self.parked_tx
                .send(self.resume.clone())
                .expect("test listens");
            self.waiting = Some(frame);
        } else {
            self.reply(&frame);
        }
    }

    fn reply(&mut self, body: &[u8]) {
        self.pending.extend_from_slice(&framed(body));
        self.pending_frames += 1;
    }
}

impl Service for Parker {
    fn frame(&mut self, frame: Vec<u8>, _enqueued: Instant) {
        if self.waiting.is_some() {
            self.backlog.push_back(frame);
        } else {
            self.run(frame);
        }
    }

    fn resume(&mut self) {
        match self.waiting.take() {
            Some(frame) if self.released.load(Ordering::SeqCst) == 0 => {
                self.waiting = Some(frame); // spurious
            }
            Some(frame) => self.reply(&frame),
            None => {}
        }
        while self.waiting.is_none() {
            match self.backlog.pop_front() {
                Some(frame) => self.run(frame),
                None => break,
            }
        }
    }

    fn flush(&mut self) {
        if self.pending_frames > 0 {
            self.sink
                .send(std::mem::take(&mut self.pending), self.pending_frames);
            self.pending_frames = 0;
        }
    }
}

struct ParkerFactory {
    parked_tx: mpsc::Sender<ResumeHandle>,
    released: Arc<AtomicU64>,
    drain_deadline: Option<Duration>,
    /// When `drain_overdue` was called.
    overdue: Arc<Mutex<Vec<Instant>>>,
}

impl ServiceFactory for ParkerFactory {
    fn open(&self, _conn: u64, sink: ReplySink) -> Box<dyn Service> {
        Box::new(Parker {
            resume: sink.resume_handle(),
            sink,
            parked_tx: self.parked_tx.clone(),
            released: Arc::clone(&self.released),
            waiting: None,
            backlog: VecDeque::new(),
            pending: Vec::new(),
            pending_frames: 0,
        })
    }

    fn drain_deadline(&self) -> Option<Duration> {
        self.drain_deadline
    }

    fn drain_overdue(&self) {
        self.overdue.lock().expect("overdue").push(Instant::now());
    }
}

struct ParkerRig {
    addr: std::net::SocketAddr,
    handle: nt_reactor::ReactorHandle,
    parked_rx: mpsc::Receiver<ResumeHandle>,
    released: Arc<AtomicU64>,
    overdue: Arc<Mutex<Vec<Instant>>>,
}

fn start_parker(drain_deadline: Option<Duration>) -> ParkerRig {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (parked_tx, parked_rx) = mpsc::channel();
    let released = Arc::new(AtomicU64::new(0));
    let overdue = Arc::new(Mutex::new(Vec::new()));
    let factory = Arc::new(ParkerFactory {
        parked_tx,
        released: Arc::clone(&released),
        drain_deadline,
        overdue: Arc::clone(&overdue),
    });
    let handle = spawn(listener, ReactorConfig::default(), factory, Drainer::new()).expect("spawn");
    ParkerRig {
        addr,
        handle,
        parked_rx,
        released,
        overdue,
    }
}

/// A parked frame holds back the pipelined frames behind it — and only
/// them: a second connection is served while the first is parked, and
/// after the (off-thread) resume the first connection's replies come back
/// in request order.
#[test]
fn parked_frame_keeps_order_and_does_not_stall_other_connections() {
    let ParkerRig {
        addr,
        handle,
        parked_rx,
        released,
        ..
    } = start_parker(None);
    let mut a = TcpStream::connect(addr).expect("connect");
    let mut b = TcpStream::connect(addr).expect("connect");
    for msg in [&b"before"[..], b"PARK", b"after-1", b"after-2"] {
        a.write_all(&framed(msg)).expect("write");
    }
    assert_eq!(read_frame(&mut a).expect("reply"), b"before".to_vec());
    let resume = parked_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the PARK frame parked");
    // The poll thread is not waiting on anything: b gets its answers.
    for k in 0..3 {
        let msg = format!("ping-{k}");
        b.write_all(&framed(msg.as_bytes())).expect("write");
        assert_eq!(read_frame(&mut b).expect("pong"), msg.into_bytes());
    }
    assert_eq!(handle.probe().stats().parked_now, 1);
    // Nothing of a's came back past the parked frame.
    a.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    assert!(
        read_frame(&mut a).is_none(),
        "replies overtook a parked frame"
    );
    a.set_read_timeout(None).expect("timeout");
    // A spurious resume changes nothing; the real one releases the queue.
    resume.resume();
    released.store(1, Ordering::SeqCst);
    resume.resume();
    for want in [&b"PARK"[..], b"after-1", b"after-2"] {
        assert_eq!(read_frame(&mut a).expect("reply"), want.to_vec());
    }
    let stats = handle.probe().stats();
    assert!(stats.resumes >= 2, "{stats:?}");
    assert_eq!(stats.frames, 7, "{stats:?}");
    handle.drainer().drain();
    handle.join();
}

/// A continuation nobody resumes holds the drain open. The factory's
/// overdue hook fires once, no earlier than the deadline, on a poll thread
/// that keeps running; the drain completes when the handle finally fires.
#[test]
fn drain_deadline_fires_once_and_the_drain_still_completes() {
    let deadline = Duration::from_millis(80);
    let rig = start_parker(Some(deadline));
    let mut a = TcpStream::connect(rig.addr).expect("connect");
    a.write_all(&framed(b"PARK")).expect("write");
    let resume = rig
        .parked_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the PARK frame parked");
    let drain_at = Instant::now();
    rig.handle.drainer().drain();
    let fired = |n: usize| rig.overdue.lock().expect("overdue").get(n).copied();
    let give_up = drain_at + Duration::from_secs(5);
    while fired(0).is_none() && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
    }
    let at = fired(0).expect("the overdue hook fires");
    assert!(
        at - drain_at >= deadline,
        "fired early: {:?}",
        at - drain_at
    );
    // Once: the drain stays open for several more deadlines, silently.
    std::thread::sleep(deadline * 3);
    assert!(fired(1).is_none(), "the overdue hook fired twice");
    rig.released.store(1, Ordering::SeqCst);
    resume.resume();
    assert_eq!(read_frame(&mut a).expect("reply"), b"PARK".to_vec());
    rig.handle.join();
    assert!(fired(1).is_none());
}
