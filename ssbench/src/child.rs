//! The system under test as child processes: building the `experiments`
//! binary, timing CLI invocations, and driving `experiments serve`.
//!
//! Children are reaped with `wait4`, which hands back the kernel's record
//! of the child's peak resident set (`ru_maxrss`) — exact, where polling
//! `/proc/<pid>/status` could miss a late peak.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s (user and system
/// time), then fourteen longs of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const EINTR: i32 = 4;

/// Children not yet reaped, so a run that gives up can kill them.
static LIVE: Mutex<Vec<i32>> = Mutex::new(Vec::new());

fn track(pid: i32) {
    LIVE.lock().expect("child registry lock").push(pid);
}

fn untrack(pid: i32) {
    LIVE.lock()
        .expect("child registry lock")
        .retain(|&p| p != pid);
}

/// Kills every child still running (the run's watchdog calls this before
/// it exits).
pub fn kill_all() {
    for pid in LIVE.lock().map(|v| v.clone()).unwrap_or_default() {
        // SAFETY: `kill` takes plain integers; the pid belongs to a child
        // this process spawned and has not reaped, so it cannot have been
        // recycled for an unrelated process.
        unsafe { kill(pid, SIGKILL) };
        let _ = reap(pid);
    }
}

/// How a reaped child ended.
pub struct Reaped {
    /// Exit code, or `None` when a signal ended it.
    code: Option<i32>,
    /// Peak resident set, KiB.
    pub maxrss_kb: u64,
    /// User plus system CPU time.
    cpu: Duration,
}

/// Waits for child `pid` and collects its resource usage.
fn reap(pid: i32) -> std::io::Result<Reaped> {
    let mut status = 0i32;
    let mut ru = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers refer to live, writable locals of the
        // exact C layouts `wait4` fills (`int` and `struct rusage` on
        // 64-bit Linux); the call blocks until `pid`, our own child,
        // changes state.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
    untrack(pid);
    let [us, uus, ss, sus] = ru.times.map(|t| t.max(0) as u64);
    Ok(Reaped {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        maxrss_kb: ru.maxrss.max(0) as u64,
        cpu: Duration::from_secs(us + ss) + Duration::from_micros(uus + sus),
    })
}

/// Spawns `cmd`, registering the child for [`kill_all`].
fn spawn(cmd: &mut Command) -> std::io::Result<Child> {
    let child = cmd.spawn()?;
    track(child.id() as i32);
    Ok(child)
}

/// Reaps `child` (never through `Child::wait`: `wait4` already did).
fn finish(child: Child) -> std::io::Result<Reaped> {
    reap(child.id() as i32)
}

/// Builds the `experiments` binary from the checkout at `root` and
/// returns its path. A plain `cargo build --release` at the root builds
/// only the root package, so the harness package is named explicitly.
pub fn build_experiments(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "ss-harness",
            "--bin",
            "experiments",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building experiments failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => root.join(t),
        None => root.join("target"),
    };
    let exe = target.join("release").join("experiments");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("no binary at {}", exe.display()))
    }
}

/// One finished CLI invocation.
pub struct CliRun {
    pub wall: Duration,
    pub code: Option<i32>,
    pub maxrss_kb: u64,
    pub cpu: Duration,
    pub stdout: String,
    pub stderr: String,
}

impl CliRun {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Runs `exe args…` to completion, timing it from spawn to reap. The
/// child writes its output to files under `scratch`, so no reader thread
/// runs beside it while it is timed.
pub fn run_cli(exe: &Path, args: &[String], scratch: &Path) -> Result<CliRun, String> {
    let (out_path, err_path) = (scratch.join("cli.stdout"), scratch.join("cli.stderr"));
    let file = |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(file(&out_path)?)
        .stderr(file(&err_path)?);
    let t0 = Instant::now();
    let child = spawn(&mut cmd).map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let reaped = finish(child).map_err(|e| format!("wait failed: {e}"))?;
    let wall = t0.elapsed();
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    Ok(CliRun {
        wall,
        code: reaped.code,
        maxrss_kb: reaped.maxrss_kb,
        cpu: reaped.cpu,
        stdout: read(&out_path)?,
        stderr: read(&err_path)?,
    })
}

/// A running `experiments serve`.
pub struct Server {
    child: Child,
    socket: PathBuf,
    /// Spawn → first `pong`.
    pub ready_after: Duration,
}

impl Server {
    /// Starts `experiments serve` on `socket` and waits for its first
    /// `pong`; the server answers once its checkpoint preload is done.
    pub fn start(exe: &Path, socket: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        let t0 = Instant::now();
        let child = spawn(&mut cmd).map_err(|e| format!("cannot start server: {e}"))?;
        let mut server = Server {
            child,
            socket: socket.to_path_buf(),
            ready_after: Duration::ZERO,
        };
        let conn = loop {
            match UnixStream::connect(socket) {
                Ok(c) => break c,
                Err(_) if t0.elapsed() < Duration::from_secs(30) => {
                    if let Ok(Some(_)) = server.child.try_wait() {
                        untrack(server.child.id() as i32);
                        return Err("server exited before listening".into());
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => {
                    server.kill();
                    return Err(format!("server never listened: {e}"));
                }
            }
        };
        let mut lines = Conn::new(conn)?;
        lines.send("ping")?;
        let reply = lines.recv()?;
        server.ready_after = t0.elapsed();
        if reply != "pong" {
            server.kill();
            return Err(format!("expected pong, got `{reply}`"));
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown`, waits for the drain, and reaps the process.
    pub fn shutdown(self) -> Result<Reaped, String> {
        let said_bye = UnixStream::connect(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|c| {
                let mut c = Conn::new(c)?;
                c.send("shutdown")?;
                c.recv()
            });
        match said_bye {
            Ok(bye) if bye == "bye" => finish(self.child).map_err(|e| e.to_string()),
            other => {
                self.kill();
                Err(format!("server did not shut down cleanly: {other:?}"))
            }
        }
    }

    fn kill(self) {
        let pid = self.child.id() as i32;
        // SAFETY: see `kill_all`; the child is ours and unreaped.
        unsafe { kill(pid, SIGKILL) };
        let _ = reap(pid);
    }
}

/// Peak resident set of a live process so far (`VmHWM`), KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A line-oriented protocol connection with a read timeout, so a wedged
/// server fails the run instead of hanging it.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    pub fn new(stream: UnixStream) -> Result<Conn, String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}
