//! Child processes measured from outside: wall clock from spawn to exit,
//! and CPU time plus peak resident memory from the kernel's `wait4`
//! resource usage of that one child.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("spinbench reads wait4 resource usage with the 64-bit Linux struct layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mib: f64,
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
}

impl Usage {
    /// Whether the child exited with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Runs `program args`, sending its standard output to the file `stdout`
/// (created or truncated) and inheriting standard error, and waits for it.
pub fn run(program: &Path, args: &[String], stdout: &Path) -> io::Result<Usage> {
    let out = File::create(stdout)?;
    // The child starts on this process's address space (vfork) and the
    // kernel folds that space's peak RSS into the child's `ru_maxrss` when
    // it execs. Resetting the peak to the current RSS first leaves the
    // child's own peak in `ru_maxrss` whenever it exceeds this process's
    // resident size (a few MiB to about 20 MiB).
    std::fs::write("/proc/self/clear_refs", "5")?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("child pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is this process's own child, spawned above and not
        // yet reaped (`child` is never waited on through std). `status` and
        // `usage` are live, aligned locals whose layouts match the C types
        // `wait4` writes on 64-bit Linux (checked by the compile_error gate).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    // Exit status encoding: low 7 bits are the terminating signal (0 for
    // a normal exit), bits 8..16 the exit code.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Usage {
        wall_s,
        cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        peak_rss_mib: usage.ru_maxrss as f64 / 1024.0,
        code,
    })
}
