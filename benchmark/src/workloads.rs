//! The four workloads: what traffic each sends and which server it sends
//! it to.

use nt_engine::DurabilityMode;
use nt_model::{Op, TxId, TxTree};
use nt_net::{workload_spec, LoadConfig, ServerConfig};

/// Transaction arena of every benchmark server: room for one epoch's tops
/// with their subtransactions and accesses.
pub const SERVER_CAPACITY: usize = 1 << 19;

/// Committed-or-given-up tops per trial, and per warm-up.
pub const TOPS_PER_TRIAL: usize = 1000;

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One sentence on why it exists.
    pub why: &'static str,
    /// Closed-loop client connections.
    pub connections: usize,
    /// Ops per `BATCH` frame (1: every op is its own round trip).
    pub batch: usize,
    objects: usize,
    hotspot: f64,
    read_ratio: f64,
    max_depth: u32,
    /// The server runs the live SG(β) certifier.
    pub live_certify: bool,
    /// The server mounts a WAL (`DurabilityMode::None` in timed trials).
    pub wal: bool,
}

/// Trials per epoch at the run length `BENCHMARK.json` fixes, and the
/// fewest an epoch is cut to.
pub const MIN_TRIALS: usize = 15;
/// The `run_seconds` of `BENCHMARK.json`: [`EPOCHS`] x [`MIN_TRIALS`]
/// trials take 18 to 27 s on the builder's host.
pub const NOMINAL_SECONDS: u64 = 24;
/// Epochs (fresh server + connections + warm-up) per run: six set-ups for
/// `setup_s` to take its median over.
pub const EPOCHS: usize = 6;

/// The workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "rpc-1c",
            why: "1 connection, batch 1, 4096 cold objects: every op is its own round trip, so wire codec, reactor and executor hand-off do the work and locks do none",
            connections: 1,
            batch: 1,
            objects: 4096,
            hotspot: 0.0,
            read_ratio: 0.5,
            max_depth: 2,
            live_certify: false,
            wal: false,
        },
        Workload {
            name: "hot-2c",
            why: "2 connections, batch 16, 8 objects, hotspot 0.5, 80% writes, depth 3: exclusive Moss locks, inheritance, deadlock victims and retry dominate; wire amortised 16:1",
            connections: 2,
            batch: 16,
            objects: 8,
            hotspot: 0.5,
            read_ratio: 0.2,
            max_depth: 3,
            live_certify: false,
            wal: false,
        },
        Workload {
            name: "cert-2c",
            why: "2 connections, batch 16, 64 objects, hotspot 0.1, live certifier on: conflict edges form continuously, so feed tee, Pearce-Kelly inserts and watermark GC carry load",
            connections: 2,
            batch: 16,
            objects: 64,
            hotspot: 0.1,
            read_ratio: 0.5,
            max_depth: 2,
            live_certify: true,
            wal: false,
        },
        Workload {
            name: "wal-1c",
            why: "1 connection, batch 16, 4096 cold objects, all writes, WAL mounted without fsync waits: every access appends a log record, so recorder tee and WAL append carry load",
            connections: 1,
            batch: 16,
            objects: 4096,
            hotspot: 0.0,
            read_ratio: 0.0,
            max_depth: 2,
            live_certify: false,
            wal: true,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Trials per epoch for a run asked to measure for `seconds`.
pub fn trials_for(seconds: u64) -> usize {
    let scaled = MIN_TRIALS as u64 * seconds / NOMINAL_SECONDS;
    (scaled as usize).max(MIN_TRIALS)
}

impl Workload {
    /// The load shape handed to the repository's workload generator.
    pub fn load_config(&self, seed: u64, tops: usize) -> LoadConfig {
        LoadConfig {
            connections: 1,
            tops_per_conn: tops,
            objects: self.objects,
            hotspot: self.hotspot,
            read_ratio: self.read_ratio,
            max_depth: self.max_depth,
            seed,
            top_retries: 20,
            batch: self.batch,
            ..LoadConfig::default()
        }
    }

    /// The server this workload's traffic goes to. A WAL workload passes
    /// its data directory; the others pass `None`.
    pub fn server_config(
        &self,
        data_dir: Option<String>,
        durability: DurabilityMode,
    ) -> ServerConfig {
        ServerConfig {
            capacity: SERVER_CAPACITY,
            live_certify: self.live_certify,
            durability: match data_dir {
                Some(_) => durability,
                None => DurabilityMode::None,
            },
            data_dir,
            ..ServerConfig::default()
        }
    }

    /// `tops` top-level transaction templates, the same for the same seed.
    pub fn templates(&self, seed: u64, tops: usize) -> Vec<Template> {
        let workload = workload_spec(&self.load_config(seed, tops)).generate();
        templates_of(&workload.tree)
    }
}

/// One node of a top-level transaction template.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// An inner transaction and its child slots, in order.
    Sub(Vec<Node>),
    /// A read or write of an object.
    Access(u32, Op),
}

/// A top-level transaction: its child slots.
#[derive(Clone, Debug, PartialEq)]
pub struct Template(pub Vec<Node>);

fn node_of(tree: &TxTree, t: TxId) -> Node {
    if tree.is_access(t) {
        let obj = tree.object_of(t).expect("access has an object").0;
        let op = tree.op_of(t).expect("access has an op").clone();
        Node::Access(obj, op)
    } else {
        Node::Sub(tree.children(t).iter().map(|&c| node_of(tree, c)).collect())
    }
}

fn templates_of(tree: &TxTree) -> Vec<Template> {
    tree.children(TxId::ROOT)
        .iter()
        .map(|&t| match node_of(tree, t) {
            Node::Sub(kids) => Template(kids),
            Node::Access(..) => unreachable!("top-level transactions are inner nodes"),
        })
        .collect()
}

impl Template {
    /// Transactions one clean run of this template creates (the top, its
    /// subtransactions and its accesses).
    pub fn tx_count(&self) -> usize {
        fn count(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::Sub(kids) => 1 + count(kids),
                    Node::Access(..) => 1,
                })
                .sum()
        }
        1 + count(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_templates() {
        for w in all() {
            let a = w.templates(11, 64);
            let b = w.templates(11, 64);
            let c = w.templates(12, 64);
            assert_eq!(a.len(), 64);
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
        }
    }

    #[test]
    fn trials_scale_with_seconds_but_keep_the_floor() {
        assert_eq!(trials_for(NOMINAL_SECONDS), MIN_TRIALS);
        assert_eq!(trials_for(1), MIN_TRIALS);
        assert_eq!(trials_for(2 * NOMINAL_SECONDS), 2 * MIN_TRIALS);
    }

    #[test]
    fn durability_needs_a_data_dir() {
        for w in all() {
            let cfg = w.server_config(None, DurabilityMode::FsyncPerCommit);
            assert_eq!(cfg.durability, DurabilityMode::None, "{}", w.name);
            assert_eq!(cfg.capacity, SERVER_CAPACITY);
            assert_eq!(cfg.live_certify, w.live_certify);
            let cfg = w.server_config(Some("d".into()), DurabilityMode::FsyncPerCommit);
            assert_eq!(cfg.durability, DurabilityMode::FsyncPerCommit);
        }
    }
}
