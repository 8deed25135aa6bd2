//! Process, filesystem and build facts the benchmark records or checks:
//! its scratch directory, child processes and their memory from
//! `/proc`, the git revision, and a fingerprint of the binaries under
//! test.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The benchmark's scratch directory: `perfbench-run/` beside the
/// profile directory its executable was built into, i.e. inside the
/// build directory of the checkout.
pub fn state_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("executable sits in <target>/<profile>/");
    target.join("perfbench-run")
}

/// A sibling binary of this executable (the repository's `autofp` and
/// `evald` are built into the same directory).
pub fn sibling_binary(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    exe.with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX))
}

/// Processes whose parent is `pid`, from `/proc/*/stat`.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(child) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // Fields after the parenthesised command name: state, ppid, ...
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            continue;
        };
        let ppid = rest
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(pid) {
            out.push(child);
        }
    }
    out.sort_unstable();
    out
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak RSS of this process plus every live child, in MiB. Call it
/// before the children are shut down.
pub fn family_peak_rss_mb() -> f64 {
    let me = std::process::id();
    peak_rss_mb(me) + children_of(me).into_iter().map(peak_rss_mb).sum::<f64>()
}

/// Nothing is left behind: no child process (running or unreaped) and
/// no listener on any of `addrs`. Returns the problems found.
pub fn leftovers(addrs: &[String]) -> Vec<String> {
    let mut problems: Vec<String> = children_of(std::process::id())
        .into_iter()
        .map(|pid| format!("child process {pid} still exists"))
        .collect();
    for addr in addrs {
        let Ok(sock) = addr.parse::<std::net::SocketAddr>() else {
            continue;
        };
        if std::net::TcpStream::connect_timeout(&sock, Duration::from_millis(200)).is_ok() {
            problems.push(format!("{addr} still accepts connections"));
        }
    }
    problems
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Build profile of this executable.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// FNV-1a over the bytes of `files`: identifies the build under test,
/// so results recorded by one build are never compared with another's.
pub fn fingerprint(files: &[PathBuf]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for &b in &fs::read(f).unwrap_or_default() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A fresh, empty directory under the scratch directory, named for this
/// process and `tag`.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = state_dir()
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
