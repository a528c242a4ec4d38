//! Epochs and trials: a fresh server, persistent connections, a warm-up,
//! then short trials each bracketed by the host reference.

use crate::drive::{Driver, Samples};
use crate::host::EchoRef;
use crate::spans::Spans;
use crate::stats::{fast_level, fast_state_ref, iqr_share, median, percentile_sorted, tail_rank};
use crate::workloads::{Template, Workload, EPOCHS, SERVER_CAPACITY, TOPS_PER_TRIAL};
use nt_engine::DurabilityMode;
use nt_net::{Conn, ConnConfig, LoadConfig, NetServer, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Why a run could not be completed.
pub type BenchError = String;

fn err(context: &str, e: impl std::fmt::Debug) -> BenchError {
    format!("{context}: {e:?}")
}

/// A serving benchmark server with its client connections.
pub struct Rig {
    /// The server.
    pub handle: ServerHandle,
    /// `host:port` it listens on.
    pub addr: String,
    /// The persistent closed-loop connections.
    pub conns: Vec<Conn>,
    samples: Vec<Samples>,
}

impl Rig {
    /// Bind, serve and connect `connections` clients.
    pub fn start(
        cfg: ServerConfig,
        connections: usize,
        load: &LoadConfig,
    ) -> Result<Rig, BenchError> {
        let server = NetServer::bind(cfg).map_err(|e| err("bind", e))?;
        let addr = server.local_addr().to_string();
        let handle = server.serve();
        let mut conns = Vec::with_capacity(connections);
        for c in 0..connections {
            conns.push(
                Conn::connect(&addr, c as u64 + 1, ConnConfig::from(load))
                    .map_err(|e| err("connect", e))?,
            );
        }
        let samples = (0..connections)
            .map(|_| Samples::with_capacity(TOPS_PER_TRIAL.div_ceil(connections)))
            .collect();
        Ok(Rig {
            handle,
            addr,
            conns,
            samples,
        })
    }

    /// Run `templates` to completion, striped round-robin over the
    /// connections, each connection closed-loop on its own thread (inline
    /// with one connection). Returns the wall time and the merged samples.
    /// `spans`, when given, holds one recorder per connection.
    pub fn run(
        &mut self,
        templates: &[Template],
        load: &LoadConfig,
        spans: Option<&mut [Spans]>,
        first_trace: u32,
    ) -> (u64, Samples) {
        let n = self.conns.len();
        for s in &mut self.samples {
            s.clear();
        }
        let start = Instant::now();
        std::thread::scope(|scope| {
            let mut lanes = spans.map(|s| s.iter_mut());
            let mut workers = Vec::with_capacity(n);
            for (c, (conn, samples)) in self.conns.iter_mut().zip(&mut self.samples).enumerate() {
                let lane = lanes.as_mut().and_then(Iterator::next);
                let work = move || {
                    let mut driver = Driver {
                        conn,
                        samples,
                        spans: lane,
                        load,
                    };
                    for (k, template) in templates.iter().enumerate().skip(c).step_by(n) {
                        driver.run_top(template, first_trace + k as u32);
                    }
                };
                if n == 1 {
                    work();
                } else {
                    workers.push(scope.spawn(work));
                }
            }
            for w in workers {
                w.join().expect("client thread panicked");
            }
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let mut merged = Samples::with_capacity(templates.len());
        for s in &self.samples {
            merged.absorb(s);
        }
        (wall_ns, merged)
    }

    /// Close the connections, drain the server and wait for it.
    pub fn stop(self) -> nt_net::DrainReport {
        drop(self.conns);
        self.handle.wait()
    }
}

/// One timed trial, reduced to what the metrics need.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Reference before the trial, µs.
    pub before: f64,
    /// Reference after the trial, µs.
    pub after: f64,
    /// Wall time of the trial, ns.
    pub wall_ns: u64,
    /// Tops that committed.
    pub committed: u64,
    /// Tops that failed.
    pub failed: u64,
    /// Top attempts that aborted and were retried.
    pub aborted_attempts: u64,
    /// Top latency p50, ns.
    pub top_p50_ns: u64,
    /// Top latency at the highest percentile with ten samples beyond, ns.
    pub top_tail_ns: u64,
    /// That percentile's label.
    pub tail_label: &'static str,
    /// Frame round trip p50, ns.
    pub req_p50_ns: u64,
    /// Wire frames' worth of round trips.
    pub frames: u64,
    /// Bytes written + read (traced trials only).
    pub bytes: u64,
    /// Backoff sleep, µs.
    pub retry_sleep_us: u64,
}

impl Trial {
    /// Reduce one trial's samples.
    pub fn reduce(before: f64, after: f64, wall_ns: u64, mut s: Samples) -> Trial {
        s.top_ns.sort_unstable();
        s.req_ns.sort_unstable();
        let (tail_label, tail_idx) = tail_rank(s.top_ns.len()).unwrap_or(("max", 0));
        Trial {
            before,
            after,
            wall_ns,
            committed: s.committed,
            failed: s.failed,
            aborted_attempts: s.aborted_attempts,
            top_p50_ns: percentile_sorted(&s.top_ns, 0.5),
            top_tail_ns: s.top_ns.get(tail_idx).copied().unwrap_or(0),
            tail_label,
            req_p50_ns: percentile_sorted(&s.req_ns, 0.5),
            frames: s.req_ns.len() as u64,
            bytes: s.bytes,
            retry_sleep_us: s.retry_sleep_us,
        }
    }
}

/// One epoch's set-up, timed.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Reference before, µs.
    pub before: f64,
    /// Reference after, µs.
    pub after: f64,
    /// Store open + bind + serve + connect + warm-up, ns.
    pub wall_ns: u64,
}

/// Everything the timed part of a run measured.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Per-epoch set-up.
    pub setups: Vec<Setup>,
    /// Every timed trial, kept or not.
    pub trials: Vec<Trial>,
    /// `VmHWM` at the end of the first epoch's trials, server still up; MiB.
    pub rss_peak_mb: f64,
}

/// What the timed epochs need besides the workload.
pub struct RunCtx<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Its load shape (batching, retries, backoff).
    pub load: &'a LoadConfig,
    /// The echo reference pair.
    pub echo: &'a mut EchoRef,
    /// Template pool of the gates and the traced run; the timed epochs
    /// draw their own.
    pub pool: &'a [Template],
    /// Scratch directory for WAL data (inside the checkout).
    pub out_dir: &'a Path,
}

impl<'a> RunCtx<'a> {
    /// The slice of the pool for the `k`-th block of `TOPS_PER_TRIAL`
    /// tops, wrapping around a pool that is shorter than asked for.
    pub fn block(&self, k: usize) -> &'a [Template] {
        block_of(self.pool, k)
    }

    /// A fresh, empty data directory for one server life.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, BenchError> {
        let dir = self
            .out_dir
            .join(format!("data-{}-{tag}", self.workload.name));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| err("clear data dir", e))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| err("create data dir", e))?;
        Ok(dir)
    }

    /// One reading of the reference, µs.
    pub fn take_ref(&mut self) -> Result<f64, BenchError> {
        self.echo.take().map_err(|e| err("reference op", e))
    }

    /// Set an epoch up: fresh server with `cfg`, connections, and the
    /// `warm_up` tops. Returns the rig and the timed set-up.
    pub fn setup_epoch(
        &mut self,
        cfg: ServerConfig,
        warm_up: &[Template],
    ) -> Result<(Rig, Setup), BenchError> {
        let before = self.take_ref()?;
        let start = Instant::now();
        let mut rig = Rig::start(cfg, self.workload.connections, self.load)?;
        let (_, warm) = rig.run(warm_up, self.load, None, 0);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let after = self.take_ref()?;
        if warm.failed > 0 {
            return Err(format!("{} warm-up tops failed", warm.failed));
        }
        Ok((
            rig,
            Setup {
                before,
                after,
                wall_ns,
            },
        ))
    }

    /// The timed part of an end-to-end run: [`EPOCHS`] epochs of `trials`
    /// trials each, tracing off.
    pub fn measure(&mut self, trials: usize) -> Result<Measured, BenchError> {
        let mut out = Measured::default();
        let mut hwm_before_mb = 0.0;
        for epoch in 0..EPOCHS {
            // Each epoch draws its own tops from the seed — a block to warm
            // up on and one per trial — so a run averages over six times
            // the inputs that are resident at once, and the pool stays
            // small beside the server whose memory `rss_peak_mb` reads.
            let seed = self
                .load
                .seed
                .wrapping_mul(EPOCHS as u64 + 1)
                .wrapping_add(epoch as u64 + 1);
            let pool = self.workload.templates(seed, (trials + 1) * TOPS_PER_TRIAL);
            // Worst case a trial adds: every template at its full size,
            // twice over for retried attempts.
            let trial_tx: usize =
                2 * pool.iter().map(Template::tx_count).max().unwrap_or(1) * TOPS_PER_TRIAL;
            if epoch == 0 {
                hwm_before_mb = crate::host::vm_hwm_mb();
            }
            let dir = match self.workload.wal {
                true => Some(self.fresh_dir(&format!("epoch{epoch}"))?),
                false => None,
            };
            let cfg = self.workload.server_config(
                dir.as_ref().map(|d| d.display().to_string()),
                DurabilityMode::None,
            );
            let (mut rig, setup) = self.setup_epoch(cfg, block_of(&pool, 0))?;
            out.setups.push(setup);
            let mut before = setup.after;
            for block in 1..=trials {
                if rig.handle.engine().tx_count() + trial_tx >= SERVER_CAPACITY {
                    break;
                }
                let (wall_ns, samples) = rig.run(block_of(&pool, block), self.load, None, 0);
                let after = self.take_ref()?;
                out.trials
                    .push(Trial::reduce(before, after, wall_ns, samples));
                before = after;
            }
            if epoch == 0 {
                // Read before anything is freed. Later epochs reuse what
                // the allocator kept of this one, and how much it keeps
                // does not repeat.
                out.rss_peak_mb = crate::host::vm_hwm_mb();
                if out.rss_peak_mb <= hwm_before_mb {
                    return Err(format!(
                        "peak RSS {hwm_before_mb} MiB was reached before the first server started: it measures the template pool, not the server"
                    ));
                }
            }
            rig.stop();
            if let Some(dir) = dir {
                std::fs::remove_dir_all(&dir).map_err(|e| err("remove data dir", e))?;
            }
        }
        Ok(out)
    }
}

/// The `k`-th block of `TOPS_PER_TRIAL` tops of `pool`, wrapping around.
fn block_of(pool: &[Template], k: usize) -> &[Template] {
    let blocks = (pool.len() / TOPS_PER_TRIAL).max(1);
    let at = (k % blocks) * TOPS_PER_TRIAL;
    &pool[at..(at + TOPS_PER_TRIAL).min(pool.len())]
}

/// The end-to-end numbers of one run, before they are named as metrics.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Trial wall ÷ committed tops ÷ ref.
    pub top_cost_x: f64,
    /// Top latency p50 ÷ ref.
    pub top_p50_x: f64,
    /// Top latency tail ÷ ref.
    pub top_p99_x: f64,
    /// Frame round trip p50 ÷ ref.
    pub req_p50_x: f64,
    /// Set-up wall ÷ ref × 10 µs, median over epochs; s.
    pub setup_s: f64,
    /// Trials the host was not in its fast state for.
    pub trials_dropped: usize,
    /// Trials run.
    pub trials_run: usize,
    /// Tops attempted in timed trials.
    pub attempted: u64,
    /// Tops failed in timed trials.
    pub failed: u64,
    /// Raw (un-normalised) values of the same trials, for humans.
    pub raw: Raw,
    /// Set-up wall, median over epochs; s.
    pub raw_setup_s: f64,
    /// Median reference over all brackets, µs.
    pub echo_us: f64,
    /// IQR ÷ median of the reference over all brackets, percent.
    pub ref_spread_pct: f64,
    /// Label of the tail percentile `top_p99_x` was read at.
    pub tail_label: &'static str,
}

impl EndToEnd {
    /// Too many trials were dropped for the run to resolve its bounds.
    pub fn unresolved(&self) -> bool {
        self.trials_dropped as f64 > MAX_DROPPED_SHARE * self.trials_run as f64
    }
}

/// Largest share of a run's trials that may be dropped before the run is
/// reported as unresolved: the host was out of its fast state for so much
/// of it that the kept trials are no longer a sample of the whole.
pub const MAX_DROPPED_SHARE: f64 = 0.25;

/// Un-normalised medians over kept trials.
#[derive(Clone, Copy, Debug, Default)]
pub struct Raw {
    /// Committed tops per second.
    pub tops_per_s: f64,
    /// Top latency p50, µs.
    pub top_us_p50: f64,
    /// Top latency tail, µs.
    pub top_us_p99: f64,
    /// Frame round trip p50, µs.
    pub req_us_p50: f64,
}

impl Raw {
    /// Of the trials `kept`.
    pub fn of(kept: &[(&Trial, f64)]) -> Raw {
        Raw {
            tops_per_s: 1e9 / median_of(kept, |t, _| cost_ns(t)),
            top_us_p50: median_of(kept, |t, _| t.top_p50_ns as f64 / 1e3),
            top_us_p99: median_of(kept, |t, _| t.top_tail_ns as f64 / 1e3),
            req_us_p50: median_of(kept, |t, _| t.req_p50_ns as f64 / 1e3),
        }
    }
}

/// Seconds a set-up would take on a nominal host whose reference op takes
/// this long, µs.
pub const NOMINAL_REF_US: f64 = 10.0;

/// The host's fast level over `trials`, µs.
pub fn fast_level_us(trials: &[Trial]) -> f64 {
    let readings: Vec<f64> = trials.iter().flat_map(|t| [t.before, t.after]).collect();
    fast_level(&readings)
}

/// The trials that count against fast level `level_us` — each committed
/// something and the host was in its fast state at both its ends — with
/// their reference in ns.
pub fn kept_trials_at(trials: &[Trial], level_us: f64) -> Vec<(&Trial, f64)> {
    trials
        .iter()
        .filter(|t| t.committed > 0)
        .filter_map(|t| fast_state_ref(t.before, t.after, level_us).map(|r| (t, r * 1e3)))
        .collect()
}

/// [`kept_trials_at`] the trials' own fast level.
pub fn kept_trials(trials: &[Trial]) -> Vec<(&Trial, f64)> {
    kept_trials_at(trials, fast_level_us(trials))
}

/// Median over `kept` of `f(trial, its reference in ns)`.
pub fn median_of(kept: &[(&Trial, f64)], f: impl Fn(&Trial, f64) -> f64) -> f64 {
    median(&kept.iter().map(|(t, r)| f(t, *r)).collect::<Vec<_>>())
}

/// Trial wall ÷ committed tops, ns.
pub fn cost_ns(t: &Trial) -> f64 {
    t.wall_ns as f64 / t.committed as f64
}

impl Measured {
    /// Reduce to the end-to-end numbers.
    pub fn end_to_end(&self) -> EndToEnd {
        let kept = kept_trials(&self.trials);
        let brackets: Vec<f64> = self
            .trials
            .iter()
            .flat_map(|t| [t.before, t.after])
            .collect();
        let total = |f: fn(&Trial) -> u64| self.trials.iter().map(f).sum::<u64>();
        let (committed, failed) = (total(|t| t.committed), total(|t| t.failed));
        // A set-up lasts long enough for the host to move under it; its
        // reference is the bracket mean either way, since dropping one of
        // a handful of epochs would cost more than it saves.
        let setup_s: Vec<f64> = self.setups.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
        let setup_x: Vec<f64> = self
            .setups
            .iter()
            .zip(&setup_s)
            .map(|(s, wall)| wall / ((s.before + s.after) / 2.0) * NOMINAL_REF_US)
            .collect();
        EndToEnd {
            top_cost_x: median_of(&kept, |t, r| cost_ns(t) / r),
            top_p50_x: median_of(&kept, |t, r| t.top_p50_ns as f64 / r),
            top_p99_x: median_of(&kept, |t, r| t.top_tail_ns as f64 / r),
            req_p50_x: median_of(&kept, |t, r| t.req_p50_ns as f64 / r),
            setup_s: median(&setup_x),
            trials_dropped: self.trials.len() - kept.len(),
            trials_run: self.trials.len(),
            attempted: committed + failed,
            failed,
            raw: Raw::of(&kept),
            raw_setup_s: median(&setup_s),
            echo_us: median(&brackets),
            ref_spread_pct: 100.0 * iqr_share(&brackets),
            tail_label: self.trials.first().map_or("p99", |t| t.tail_label),
        }
    }
}
