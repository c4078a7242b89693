//! Running one CLI process: wall clock from spawn to exit, and peak memory
//! from the kernel's high-water mark (`VmHWM` in `/proc/<pid>/status`),
//! polled by a side thread while the main thread blocks in `wait`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Poll period of the memory sampler. `VmHWM` is a high-water mark, so a
/// sample misses only growth in the last period before the process exits.
const RSS_POLL: Duration = Duration::from_millis(4);

pub struct Outcome {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Run `program args…` to completion. Fails only if the process cannot be
/// started; a non-zero exit is reported through `Outcome::ok`.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<Outcome> {
    let t0 = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let peak_kb = AtomicU64::new(0);
    let output = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak_kb.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        let output = child.wait_with_output();
        done.store(true, Ordering::Relaxed);
        output
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Outcome {
        wall_s,
        peak_rss_mb: peak_kb.load(Ordering::Relaxed) as f64 / 1024.0,
        ok: output.status.success(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}
