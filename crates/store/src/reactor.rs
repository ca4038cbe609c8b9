//! Dependency-free readiness polling for the event-driven server.
//!
//! `std` gives us nonblocking sockets but no readiness API, and pulling
//! in `mio`/`libc` is off the table — the engine is dependency-free. On
//! Unix this module declares the one C symbol it needs, `poll(2)` (POSIX
//! since 2001), against the C runtime Rust already links, with the
//! `pollfd` layout transcribed from the ABI. `poll` over `epoll` is a
//! deliberate trade: the reactor rebuilds its fd array every tick, which
//! is O(n) per iteration — immaterial at the ~1k-connection scale the
//! soak test pins, and it keeps the unsafe surface to a single foreign
//! function. On non-Unix targets a portable fallback sleeps a short tick
//! and reports every descriptor ready, letting the nonblocking I/O
//! discover the truth (correct, merely busier).
//!
//! The wake token is the classic self-pipe trick: an anonymous pipe
//! (`std::io::pipe`) whose read end sits in the poll set, plus a dirty
//! flag so that an idle notifier writes at most one byte per wakeup —
//! which is why the pipe can never fill up and block a committer. This
//! replaces the old loopback self-connect shutdown hack: waking the
//! reactor is a flag flip and (at most) a one-byte pipe write.

use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Readiness: data to read (or a pending accept).
pub const POLLIN: i16 = 0x001;
/// Readiness: writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Condition: error on the descriptor (reported even when unrequested).
pub const POLLERR: i16 = 0x008;
/// Condition: peer hung up (reported even when unrequested).
pub const POLLHUP: i16 = 0x010;

/// Raw descriptor type registered with the poller.
#[cfg(unix)]
pub type OsFd = std::os::fd::RawFd;
/// Raw descriptor type registered with the poller (ignored by the
/// non-Unix fallback, which reports readiness without asking the OS).
#[cfg(not(unix))]
pub type OsFd = i64;

/// One descriptor's registration — ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// Descriptor to watch.
    pub fd: OsFd,
    /// Requested readiness events (`POLLIN | POLLOUT`).
    pub events: i16,
    /// Kernel-reported events; valid after [`poll`] returns.
    pub revents: i16,
}

impl PollFd {
    /// Registration for `fd` with `events` requested.
    pub fn new(fd: OsFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel flagged any event in `mask`.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

#[cfg(unix)]
mod sys {
    // `nfds_t` is `unsigned long` on Linux, `unsigned int` elsewhere.
    #[cfg(target_os = "linux")]
    pub type NFds = u64;
    #[cfg(not(target_os = "linux"))]
    pub type NFds = u32;

    extern "C" {
        pub fn poll(fds: *mut super::PollFd, nfds: NFds, timeout: i32) -> i32;
    }
}

/// Wait until a registered descriptor is ready or `timeout_ms` elapses
/// (`-1` = forever). Signal interruptions are retried internally.
/// Returns the number of descriptors with nonzero `revents`.
#[cfg(unix)]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NFds, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Portable fallback: sleep a short tick and report every requested
/// event as ready. The reactor's I/O is nonblocking and tolerates
/// spurious readiness (`WouldBlock` is a no-op), so this is correct —
/// it only trades CPU for the missing readiness API.
#[cfg(not(unix))]
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    let tick = if timeout_ms < 0 { 5 } else { timeout_ms.min(5) };
    std::thread::sleep(std::time::Duration::from_millis(tick.max(1) as u64));
    for fd in fds.iter_mut() {
        fd.revents = fd.events;
    }
    Ok(fds.len())
}

/// The notifying side of a reactor wakeup: shared with committers,
/// worker threads, and the shutdown handle. See [`wake_pair`].
pub struct WakeToken {
    dirty: AtomicBool,
    tx: Mutex<PipeWriter>,
}

impl WakeToken {
    /// Wake the poll loop. Cheap and idempotent between wakeups: the
    /// first notifier after a drain writes one byte into the pipe;
    /// everyone else just sees the dirty flag already set.
    pub fn notify(&self) {
        if !self.dirty.swap(true, Ordering::SeqCst) {
            let mut tx = self.tx.lock().unwrap_or_else(|p| p.into_inner());
            let _ = tx.write(&[1]);
        }
    }
}

impl std::fmt::Debug for WakeToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakeToken")
            .field("dirty", &self.dirty.load(Ordering::Relaxed))
            .finish()
    }
}

/// The pollable side of a [`WakeToken`]: owned by the reactor thread,
/// its fd sits in the poll set.
#[derive(Debug)]
pub struct WakeReader {
    rx: PipeReader,
}

impl WakeReader {
    /// The fd to register with `POLLIN`.
    #[cfg(unix)]
    pub fn fd(&self) -> OsFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// The fd to register with `POLLIN` (dummy on non-Unix: the fallback
    /// poller never inspects descriptors).
    #[cfg(not(unix))]
    pub fn fd(&self) -> OsFd {
        -1
    }

    /// Consume one pending wakeup; call only when `POLLIN` reports the
    /// pipe readable. Every false→true flip of the dirty flag writes
    /// exactly one byte, so clearing the flag and reading exactly one
    /// byte keeps "bytes in pipe = undrained flips". A notify racing
    /// with the drain — landing between the clear and the read — sets
    /// the flag again and leaves its own byte in the pipe, so the next
    /// poll wakes at once instead of the wakeup being swallowed (which
    /// would leave the flag set over an empty pipe and mute every later
    /// notify). With a byte known to be present the read never blocks.
    pub fn drain(&mut self, token: &WakeToken) {
        if token.dirty.swap(false, Ordering::SeqCst) {
            let mut byte = [0u8; 1];
            let _ = self.rx.read(&mut byte);
        }
    }
}

/// Create a connected wake token + pollable reader pair.
pub fn wake_pair() -> io::Result<(Arc<WakeToken>, WakeReader)> {
    let (rx, tx) = io::pipe()?;
    Ok((
        Arc::new(WakeToken {
            dirty: AtomicBool::new(false),
            tx: Mutex::new(tx),
        }),
        WakeReader { rx },
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn wake_token_rouses_a_poller() {
        let (token, mut reader) = wake_pair().unwrap();
        let notifier = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.notify();
                token.notify(); // coalesces: still one byte in the pipe
            })
        };
        let mut fds = [PollFd::new(reader.fd(), POLLIN)];
        let n = poll(&mut fds, 5_000).unwrap();
        assert!(n >= 1, "poll must wake on the pipe byte");
        reader.drain(&token);
        notifier.join().unwrap();
        // Drained: an immediate re-poll times out instead of spinning.
        let mut fds = [PollFd::new(reader.fd(), POLLIN)];
        #[cfg(unix)]
        assert_eq!(poll(&mut fds, 50).unwrap(), 0);
    }

    /// A notify landing between the drain's clear and its read must not
    /// be swallowed: the drain runs as one call here, so the racing
    /// notifier's two steps are placed around it — its byte is in the
    /// pipe when the drain reads, and its flag flip lands after the
    /// drain's clear.
    #[cfg(unix)]
    #[test]
    fn notify_racing_a_drain_is_not_lost() {
        let (token, mut reader) = wake_pair().unwrap();
        let readable = |reader: &WakeReader| {
            let mut fds = [PollFd::new(reader.fd(), POLLIN)];
            poll(&mut fds, 50).unwrap() == 1
        };
        token.notify();
        assert!(readable(&reader));
        token.tx.lock().unwrap().write_all(&[1]).unwrap(); // racer's byte
        reader.drain(&token); // clear, then read
        token.dirty.store(true, Ordering::SeqCst); // racer's flip, after the clear
                                                   // The racer's wakeup is still pending.
        assert!(readable(&reader), "racing wakeup was swallowed");
        reader.drain(&token);
        assert!(!readable(&reader));
        // And the token still works afterwards.
        token.notify();
        assert!(
            readable(&reader),
            "notify after the race must wake the poller"
        );
    }

    #[test]
    fn poll_times_out_on_a_silent_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let mut fds = [PollFd::new(stream.as_raw_fd(), POLLIN)];
            assert_eq!(poll(&mut fds, 50).unwrap(), 0, "no data: timeout");
            let mut fds = [PollFd::new(stream.as_raw_fd(), POLLOUT)];
            assert!(poll(&mut fds, 1_000).unwrap() >= 1, "fresh socket writable");
            assert!(fds[0].ready(POLLOUT));
        }
    }
}
