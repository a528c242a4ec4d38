//! `nt-serve --config` on documents that are refused at parse: the server
//! exits 2 with the key and the reason on stderr, before it binds — never
//! a panic.

use std::path::PathBuf;
use std::process::Command;

/// A `*.net.json` in a fresh temp directory, removed on drop.
struct Doc(PathBuf);

impl Doc {
    fn new(name: &str, body: &str) -> Doc {
        let dir = std::env::temp_dir().join(format!("nt-net-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}.net.json"));
        std::fs::write(&path, body).expect("write document");
        Doc(path)
    }
}

impl Drop for Doc {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The lock table is one engine lock: `"shards": 12` used to pass every
/// check and then panic in the lock table's power-of-two assert at bind.
#[test]
fn nt_serve_refuses_a_shards_document_at_parse_with_exit_2() {
    for (name, body, names) in [
        (
            "shards",
            r#"{"role":"server","shards":12}"#,
            "\"shards\" was removed: the lock table is one engine lock, not shards",
        ),
        (
            "fraction",
            r#"{"role":"server","queue_depth":1.5}"#,
            "\"queue_depth\" must be a non-negative integer",
        ),
    ] {
        let doc = Doc::new(name, body);
        let out = Command::new(env!("CARGO_BIN_EXE_nt-serve"))
            .arg("--config")
            .arg(&doc.0)
            .output()
            .expect("spawn nt-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(names), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: nothing listened");
    }
}
