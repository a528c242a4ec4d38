//! Everything the benchmark asks of the host, through `std` alone: CPU
//! pinning, the reference operation every timing is divided by, the CPU
//! kernel recovery time is divided by, the `/proc` readers, and the
//! fingerprint line.
//!
//! Nothing here touches a repository crate. The reference operations must
//! move with the host and with nothing else, or dividing by them would
//! hide a change to the code under test.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the affinity mask handed to the kernel (1 024 CPUs).
const MASK_WORDS: usize = 16;

/// Online CPUs as the kernel lists them (`0-1`, `0,2-3`, …), highest last.
fn online_cpus() -> Vec<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    let mut cpus = Vec::new();
    for part in text.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus.sort_unstable();
    cpus
}

/// Pin the whole process (this thread, and every thread spawned after) to
/// the highest online CPU. Returns the CPU, or `None` when the host
/// refused — the caller then reports the run as unpinned.
pub fn pin_to_highest_cpu() -> Option<usize> {
    let cpu = *online_cpus().last()?;
    if cpu >= MASK_WORDS * 64 {
        return None;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of `MASK_WORDS` u64s and
    // the size passed is exactly its size in bytes; the kernel only reads
    // it. pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Ping-pongs per reading of the reference.
const ECHO_ROUNDS: usize = 2000;
/// Chunks a reference measurement is split into; the median chunk is
/// reported, so a blip shorter than a few chunks does not move it.
const REF_CHUNKS: usize = 10;
/// Bytes per ping and per pong.
const ECHO_BYTES: usize = 32;

/// The reference op: a 32-byte ping-pong between two benchmark threads over
/// a loopback `TcpStream` with `TCP_NODELAY`. It costs what a socket round
/// trip and two thread switches cost on this host right now.
pub struct EchoRef {
    client: TcpStream,
    server: Option<JoinHandle<()>>,
}

impl EchoRef {
    /// Start the echo thread and connect to it.
    pub fn start() -> std::io::Result<EchoRef> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; ECHO_BYTES];
            while s.read_exact(&mut buf).is_ok() {
                if s.write_all(&buf).is_err() {
                    break;
                }
            }
        });
        let client = TcpStream::connect(addr)?;
        client.set_nodelay(true)?;
        Ok(EchoRef {
            client,
            server: Some(server),
        })
    }

    /// One reading of the reference, `ref_us`: [`ECHO_ROUNDS`] ping-pongs
    /// in [`REF_CHUNKS`] chunks, the median chunk's mean round trip in
    /// microseconds.
    pub fn take(&mut self) -> std::io::Result<f64> {
        let mut buf = [0x5au8; ECHO_BYTES];
        let per = ECHO_ROUNDS / REF_CHUNKS;
        let mut chunks = [0.0f64; REF_CHUNKS];
        for c in chunks.iter_mut() {
            let start = Instant::now();
            for _ in 0..per {
                self.client.write_all(&buf)?;
                self.client.read_exact(&mut buf)?;
            }
            *c = start.elapsed().as_nanos() as f64 / 1e3 / per as f64;
        }
        Ok(crate::stats::median(&chunks))
    }
}

impl Drop for EchoRef {
    fn drop(&mut self) {
        let _ = self.client.shutdown(Shutdown::Both);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Iterations of the CPU kernel per measurement.
const CPU_ITERS: u64 = 400_000;

/// The CPU kernel: a fixed integer-mix + `HashMap` loop, timed in
/// [`REF_CHUNKS`] chunks and reported as the median chunk's wall
/// microseconds scaled to the whole loop (about 6.4 ms on the builder's
/// host). It costs what plain single-thread compute and cache traffic cost
/// on this host right now, with no syscall in it; recovery, which is
/// compute and one file read, is divided by it.
pub fn cpu_kernel_us() -> f64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let per = CPU_ITERS / REF_CHUNKS as u64;
    let mut chunks = [0.0f64; REF_CHUNKS];
    for c in chunks.iter_mut() {
        let start = Instant::now();
        for _ in 0..per {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let slot = map.entry(x & 4095).or_insert(0);
            *slot = slot.wrapping_add(x >> 7);
        }
        *c = start.elapsed().as_nanos() as f64 / 1e3;
    }
    black_box(&map);
    crate::stats::median(&chunks) * REF_CHUNKS as f64
}

/// Mean wall time of `rounds` 4 KiB write + `sync_data` pairs on a scratch
/// file under `dir`, µs. Informational: device sync time does not repeat
/// on a sandbox disk.
pub fn fsync_us(dir: &std::path::Path, rounds: usize) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe.tmp");
    let mut file = std::fs::File::create(&path)?;
    let block = [0u8; 4096];
    let start = Instant::now();
    for _ in 0..rounds {
        file.write_all(&block)?;
        file.sync_data()?;
    }
    let us = start.elapsed().as_nanos() as f64 / 1e3 / rounds.max(1) as f64;
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(us)
}

fn status_field_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field_kb(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary + involuntary context switches summed over every thread of
/// this process.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field_kb(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field_kb(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// User + system CPU time of this process so far, µs (`/proc/self/stat`
/// fields 14 and 15, at the kernel's fixed 100 ticks per second).
pub fn cpu_time_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `after` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (tick(11) + tick(12)) * 10_000
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the host looked like when the run started.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Online CPUs.
    pub nproc: usize,
    /// The CPU the process is pinned to (`None`: unpinned).
    pub pinned_cpu: Option<usize>,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Short git revision of the checkout (`unknown` outside a repository).
    pub git_rev: String,
    /// The reference op at start, µs.
    pub echo_us: f64,
    /// The CPU kernel at start, µs.
    pub cpu_us: f64,
}

impl Fingerprint {
    /// Read the host. `pinned_cpu` is what [`pin_to_highest_cpu`] returned.
    pub fn read(pinned_cpu: Option<usize>, echo_us: f64, cpu_us: f64) -> Fingerprint {
        Fingerprint {
            nproc: online_cpus().len().max(1),
            pinned_cpu,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
            echo_us,
            cpu_us,
        }
    }

    /// The one-line human form.
    pub fn line(&self, durability: &str) -> String {
        format!(
            "host nproc={} pinned_cpu={} kernel={} rustc=\"{}\" git={} durability={} echo_us={:.3} cpu_us={:.1}",
            self.nproc,
            self.pinned_cpu
                .map_or_else(|| "none".to_string(), |c| c.to_string()),
            self.kernel,
            self.rustc,
            self.git_rev,
            durability,
            self.echo_us,
            self.cpu_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  12345 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field_kb(s, "VmHWM"), Some(12345));
        assert_eq!(status_field_kb(s, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field_kb(s, "VmPeak"), None);
    }

    #[test]
    fn references_are_positive() {
        let mut echo = EchoRef::start().unwrap();
        assert!(echo.take().unwrap() > 0.0);
        assert!(cpu_kernel_us() > 0.0);
        assert!(vm_hwm_mb() > 0.0);
    }
}
