//! Where a number came from: the host, the toolchain and the source tree.

use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The `host` block of `results.json`. A checkout that is not a git
/// repository records `null` for the commit and the dirty flag.
pub fn host_block() -> Json {
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", text(cpu_model())),
        ("kernel", text(command_line("uname", &["-sr"]))),
        ("rustc", text(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
    ])
}
