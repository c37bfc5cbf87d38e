//! Process accounting for the system under test: `acmr serve` children
//! spawned straight from the release binary, their port read from the
//! `LISTENING` line, their CPU time and peak RSS read from `/proc`.

use acmr_serve::LISTENING_PREFIX;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};

/// One spawned `acmr serve --reactor-threads 1` process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server's later stderr lines land in the pipe
    /// instead of failing with a broken pipe; never read again.
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--reactor-threads", "1"])
            // A fixed glibc mmap threshold: large buffers are always
            // mapped (and grown with mremap), so peak RSS does not depend
            // on the heap history the dynamic threshold would follow.
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix(LISTENING_PREFIX)
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                _stderr: stderr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "acmr serve did not announce its port (got {line:?})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Seconds the server's threads have run on a CPU so far.
    pub fn exec_seconds(&self) -> f64 {
        exec_seconds(&format!("/proc/{}/task", self.pid()))
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Kill the process and wait until it has exited.
    pub fn stop(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// Seconds this process's live threads have run on a CPU so far.
pub fn own_exec_seconds() -> f64 {
    exec_seconds("/proc/self/task")
}

/// Sum of the scheduler's per-thread run time (`schedstat`, first
/// field, nanoseconds) over a task directory. Time stolen by the
/// hypervisor or spent waiting in a run queue is not included.
fn exec_seconds(task_dir: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir(task_dir) else {
        return 0.0;
    };
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
