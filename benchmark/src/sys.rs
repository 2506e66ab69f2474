//! The two things the harness needs from the OS that `std` has no call
//! for: waiting on many sockets at once, and the process's peak RSS.
//! Linux only, like the `/proc` file the second one reads.

use std::os::fd::RawFd;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

/// `POLLIN`: data to read (a closed peer also reports readable/`POLLHUP`,
/// which the following `read` turns into EOF or an error).
pub const POLLIN: i16 = 0x001;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // int ppoll(struct pollfd *fds, nfds_t nfds,
    //           const struct timespec *tmo, const sigset_t *sigmask);
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes, with the
/// nanosecond timeout `poll(2)`'s milliseconds cannot express — an open
/// loop that wakes a millisecond late would add that millisecond to every
/// sub-millisecond latency it reports.  Returns how many entries have
/// `revents` set; an interrupted wait reads as 0 (the caller loops).
pub fn wait_readable(fds: &mut [PollFd], timeout: Duration) -> usize {
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and its length is passed as
    // `nfds`, so the kernel reads and writes only inside it; `timeout`
    // points at a live `struct timespec`-shaped value for the whole call;
    // a null `sigmask` is documented as "do not change the signal mask".
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    ready.max(0) as usize
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wait_readable_times_out_then_sees_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        let mut fds = [PollFd {
            fd: client.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        assert_eq!(wait_readable(&mut fds, Duration::from_millis(5)), 0);
        served.write_all(b"x").unwrap();
        assert_eq!(wait_readable(&mut fds, Duration::from_secs(5)), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
