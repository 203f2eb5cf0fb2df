//! Spawning, timing and stopping a `dsud serve` daemon, and reading its
//! resource use from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture the benchmark targets).
const CLK_TCK: f64 = 100.0;

/// How long a daemon may take to start or to stop before the run fails.
const PATIENCE: Duration = Duration::from_secs(60);

/// Seconds of CPU time the hypervisor gave other guests instead of this
/// machine, summed over its CPUs (the `steal` column of `/proc/stat`).
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let steal: f64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / CLK_TCK)
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's final summary line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Address it listens on.
    pub addr: SocketAddr,
    /// Seconds from spawn to its `listening on` line.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawns `dsud serve --input <data> --port 0 <flags>` and waits for it
    /// to listen.
    pub fn spawn(dsud: &Path, data: &Path, flags: &[String]) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(dsud)
            .arg("serve")
            .arg("--input")
            .arg(data)
            .args(["--port", "0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dsud.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup_s = start.elapsed().as_secs_f64();
        let addr = match read {
            Ok(n) if n > 0 => line
                .split_whitespace()
                .skip_while(|w| *w != "on")
                .nth(1)
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Daemon { child, _stdout: stdout, addr, setup_s }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not start listening: {:?}", line.trim()))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// User plus system CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / CLK_TCK)
    }

    /// Asks the daemon to shut down over the protocol and waits for it to
    /// exit, killing it if it does not.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = (|| -> std::io::Result<()> {
            let mut s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(PATIENCE))?;
            s.write_all(b"{\"shutdown\":true}\n")?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply)?;
            Ok(())
        })();
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not stop after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon abandoned on an error path must not outlive the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
