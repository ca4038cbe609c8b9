//! Stamps the binary with the toolchain and source it was built from:
//! the `rustc` version, the git revision when the tree is a git checkout,
//! and a content hash of the engine's sources (which also identifies a
//! checkout that is not a git repository).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rev = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".into());
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");

    let crates = root.join("crates");
    let mut files = Vec::new();
    collect(&crates, &mut files);
    files.sort();
    // FNV-1a over (relative path, contents) of every engine source file.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(body.iter()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SRC_HASH={h:016x}");
    println!("cargo:rerun-if-changed=../crates");
    if root.join(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}
