//! The load generator's plumbing: the `soc serve` child process,
//! nonblocking connections with incremental line framing, and one
//! `ppoll(2)` wait that wakes on readable data or on the next send's due
//! time, whichever comes first. Socket read timeouts are never used:
//! Linux rounds them to scheduler ticks, which would add milliseconds
//! to sub-millisecond replies.

use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const PR_SET_PDEATHSIG: c_int = 1;
const SIGTERM: c_int = 15;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// A running `soc serve --port 0 --threads 2`, killed on drop if it is
/// still alive.
pub struct ServerProc {
    child: Child,
    /// Held open so the server's exit report never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(soc: &Path) -> io::Result<ServerProc> {
        let mut cmd = Command::new(soc);
        cmd.args(["serve", "--port", "0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs in the forked child before exec and
        // makes one async-signal-safe system call, `prctl(PR_SET_PDEATHSIG,
        // SIGTERM)`, on no shared state. It makes the server exit if this
        // process dies without reaching the kill in `Drop`.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGTERM) == 0 {
                    Ok(())
                } else {
                    Err(io::Error::last_os_error())
                }
            });
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("soc-serve listening on ")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "soc serve did not announce an address: {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `limit` for the process to exit after a `shutdown`
    /// frame, then kills it. Returns whether it exited on its own with
    /// status 0.
    pub fn finish(mut self, limit: Duration) -> bool {
        let end = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A memory figure of process `pid` (`VmRSS`, `VmHWM`, …) in MiB, read
/// from `/proc/<pid>/status`.
pub fn proc_status_mb(pid: u32, key: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no {key} line in /proc/{pid}/status")))
}

/// Nanoseconds since a fixed origin, for every timestamp of one run.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A frame in flight on one connection, answered in send order.
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    /// Frame index in the workload (`usize::MAX` for set-up frames).
    pub op: usize,
    /// When the frame was due to be sent; latencies count from here.
    pub due: u64,
}

/// One nonblocking client connection with buffered writes and
/// newline framing that scans each received byte once.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inb: Vec<u8>,
    start: usize,
    scanned: usize,
    pub pending: VecDeque<Pending>,
    closed: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inb: Vec::new(),
            start: 0,
            scanned: 0,
            pending: VecDeque::new(),
            closed: false,
        })
    }

    /// Queues one frame and writes as much of it as the socket takes.
    pub fn send(&mut self, text: &str, pending: Pending) -> io::Result<()> {
        self.out.extend_from_slice(text.as_bytes());
        self.out.push(b'\n');
        self.pending.push_back(pending);
        self.flush()
    }

    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads everything the socket holds now, noting an orderly close
    /// by the server (lines received before it stay readable).
    pub fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(());
                }
                Ok(n) => self.inb.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Fails once the server has closed the connection and every line
    /// it sent is consumed while frames are still unanswered.
    pub fn check_open(&self) -> io::Result<()> {
        if self.closed && !self.pending.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection with frames unanswered",
            ));
        }
        Ok(())
    }

    /// The next complete received line, if any. Bytes already scanned
    /// for a newline are not scanned again.
    pub fn next_line(&mut self) -> Option<String> {
        let from = self.scanned.max(self.start);
        match self.inb[from..].iter().position(|&b| b == b'\n') {
            Some(p) => {
                let end = from + p;
                let line = String::from_utf8_lossy(&self.inb[self.start..end]).into_owned();
                self.start = end + 1;
                self.scanned = self.start;
                if self.start == self.inb.len() {
                    self.inb.clear();
                    self.start = 0;
                    self.scanned = 0;
                }
                Some(line)
            }
            None => {
                self.scanned = self.inb.len();
                None
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a connection is readable (or writable while it has
/// queued output) or `timeout_ns` passes. Returns per connection
/// whether it may have data to read.
pub fn wait(conns: &[Conn], timeout_ns: u64) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            // A negative descriptor is skipped, so a closed peer cannot
            // keep waking the loop with POLLHUP.
            fd: if c.closed { -1 } else { c.stream.as_raw_fd() },
            events: if c.wants_write() {
                POLLIN | POLLOUT
            } else {
                POLLIN
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout_ns / 1_000_000_000).unwrap_or(c_long::MAX),
        tv_nsec: c_long::try_from(timeout_ns % 1_000_000_000).expect("below one second"),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of exactly
    // `fds.len()` `pollfd` records laid out as the C struct (`repr(C)`,
    // int + short + short); `ts` is a valid `timespec` that outlives the
    // call; a null signal mask leaves the mask unchanged. `ppoll` writes
    // only the `revents` fields of those records.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(vec![true; conns.len()])
        } else {
            Err(err)
        };
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// `struct sched_attr` up to `sched_period` (`SCHED_ATTR_SIZE_VER0`).
#[repr(C)]
struct SchedAttr {
    size: u32,
    sched_policy: u32,
    sched_flags: u64,
    sched_nice: i32,
    sched_priority: u32,
    sched_runtime: u64,
    sched_deadline: u64,
    sched_period: u64,
}

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
}

#[cfg(target_arch = "x86_64")]
const SYS_SCHED_SETATTR: Option<c_long> = Some(314);
#[cfg(target_arch = "aarch64")]
const SYS_SCHED_SETATTR: Option<c_long> = Some(274);
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const SYS_SCHED_SETATTR: Option<c_long> = None;

/// Asks the kernel for a 0.1 ms time slice for the calling thread,
/// keeping its normal policy and nice value. Under EEVDF (Linux 6.12
/// and later) a thread with a shorter slice preempts a running one on
/// wake-up instead of waiting for that thread's slice to end; without
/// it, a send due while both CPUs run solver threads leaves up to a
/// whole slice (several ms) late. Best effort: older kernels accept the
/// request and ignore the slice, and a refusal changes nothing else.
pub fn request_short_slice() {
    let Some(nr) = SYS_SCHED_SETATTR else {
        return;
    };
    let attr = SchedAttr {
        size: std::mem::size_of::<SchedAttr>() as u32,
        sched_policy: 0, // SCHED_OTHER
        sched_flags: 0,
        sched_nice: 0,
        sched_priority: 0,
        sched_runtime: 100_000,
        sched_deadline: 0,
        sched_period: 0,
    };
    // SAFETY: `sched_setattr(pid = 0, attr, flags = 0)` reads exactly
    // `attr.size` bytes from a live, properly aligned `repr(C)` struct
    // matching the kernel's `sched_attr` layout up to `sched_period`,
    // and changes only the calling thread's scheduling parameters.
    unsafe { syscall(nr, 0 as c_long, &attr as *const SchedAttr, 0 as c_long) };
}

/// Sends one set-up frame on `conn` and waits for its single reply.
/// Returns the reply line.
pub fn roundtrip(conn: &mut Conn, text: &str, limit: Duration) -> io::Result<String> {
    let end = Instant::now() + limit;
    conn.send(
        text,
        Pending {
            op: usize::MAX,
            due: 0,
        },
    )?;
    loop {
        if let Some(line) = conn.next_line() {
            conn.pending.pop_front();
            return Ok(line);
        }
        conn.check_open()?;
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply to a set-up frame",
            ));
        }
        let ready = wait(
            std::slice::from_ref(conn),
            left.as_nanos().min(u128::from(u64::MAX)) as u64,
        )?;
        conn.flush()?;
        if ready[0] {
            conn.fill()?;
        }
    }
}
