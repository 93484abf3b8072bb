//! Bakes the toolchain version and the source commit into the binary for
//! the host fingerprint. The commit is read from `../.git` when the
//! benchmark is built inside a git checkout and is "unknown" otherwise.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=HOSTBENCH_COMMIT={}",
        commit().unwrap_or_else(|| "unknown".into())
    );
}

fn commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head_path = git.join("HEAD");
    let head = std::fs::read_to_string(&head_path).ok()?;
    println!("cargo:rerun-if-changed={}", head_path.display());
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    let ref_path = git.join(reference);
    if let Ok(id) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}
