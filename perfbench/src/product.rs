//! Running the product: the `xbar` binary, its state directories, seeds,
//! and the peak memory of every product process.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// No single product invocation in any workload may run longer than
/// this; a hung process is killed so the benchmark still ends in time.
pub const PROCESS_LIMIT: Duration = Duration::from_secs(120);

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The product binary.
    pub xbar: PathBuf,
    /// This run's state root (empty at start, removed at the end).
    pub state: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
}

impl Ctx {
    /// A fresh, empty directory under the state root.
    ///
    /// # Errors
    ///
    /// Reports a directory that cannot be created.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.state.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// A product command whose temp files stay inside the state root.
    #[must_use]
    pub fn xbar(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.xbar);
        cmd.args(args).env("TMPDIR", self.state.join("tmp"));
        cmd
    }
}

/// SplitMix64: the benchmark's only source of generated inputs.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for `seed` and a purpose label, so workloads drawing for
    /// different purposes never share values.
    #[must_use]
    pub fn new(seed: u64, purpose: u64) -> Self {
        Self(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A product seed: small enough to read in logs, large enough that
    /// two draws practically never collide.
    pub fn product_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_000
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Waits for `child`, killing it once [`PROCESS_LIMIT`] has passed.
fn wait_limited(child: Child) -> std::io::Result<Output> {
    let pid = child.id();
    let (done, deadline) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = deadline.recv_timeout(PROCESS_LIMIT) {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
    });
    let out = child.wait_with_output();
    let _ = done.send(());
    let _ = watchdog.join();
    out
}

/// Runs a product command to completion, timing it from spawn to exit.
///
/// # Errors
///
/// Reports a spawn failure or a non-zero exit with its stderr tail.
pub fn run_timed(mut cmd: Command) -> Result<(Output, f64), String> {
    let t0 = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let out = wait_limited(child).map_err(|e| format!("wait failed: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    check_status(out.status, &out.stderr)?;
    Ok((out, secs))
}

fn check_status(status: ExitStatus, stderr: &[u8]) -> Result<(), String> {
    if status.success() {
        return Ok(());
    }
    let text = String::from_utf8_lossy(stderr);
    let tail: Vec<&str> = text.lines().rev().take(3).collect();
    Err(format!(
        "product exited with {status}: {}",
        tail.join(" | ")
    ))
}

/// Reads a file the product wrote.
///
/// # Errors
///
/// Reports a missing or unreadable file.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident memory (MiB) of the largest product process this
/// benchmark has waited for so far, including the processes those
/// spawned and waited for themselves (shard workers of a daemon).
#[must_use]
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable, properly aligned `struct rusage`
    // (two `timeval`s followed by fourteen `long`s on 64-bit Linux), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}
