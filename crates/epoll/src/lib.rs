//! Minimal safe wrapper over the Linux `epoll` readiness API.
//!
//! The rest of the workspace forbids `unsafe`; this crate exists so the
//! handful of syscall declarations the `tt-net` reactor engine needs
//! stay in one auditable place behind a safe surface. There is no
//! external dependency: `std` already links `libc`, so plain
//! `extern "C"` declarations of the four syscall wrappers resolve at
//! link time.
//!
//! Only Linux is supported — the crate compiles to an empty shell on
//! other targets, where `tt-net`'s server refuses to run.

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
mod imp {
    use std::io;
    use std::os::unix::io::RawFd;

    // Event bits and control ops from <sys/epoll.h>. Values are part of
    // the stable kernel ABI.
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0x80000;

    /// The kernel's `struct epoll_event`. On x86-64 glibc declares it
    /// `__attribute__((packed))`, so the Rust mirror must be packed too
    /// or the `data` field lands at the wrong offset.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct RawEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut RawEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// One readiness notification, decoded from the raw event mask.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// The caller-chosen token the fd was registered with.
        pub token: u64,
        /// Data can be read without blocking.
        pub readable: bool,
        /// Data can be written without blocking.
        pub writable: bool,
        /// Error, hang-up, or peer shutdown — the connection is dead or
        /// dying and should be torn down after draining.
        pub closed: bool,
    }

    /// A level-triggered epoll instance.
    ///
    /// Registrations map an fd to a caller token; [`Poller::wait`]
    /// reports which tokens are ready. The fd itself stays owned by the
    /// caller — dropping the `Poller` only closes the epoll fd.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Create a new epoll instance (close-on-exec).
        ///
        /// # Errors
        ///
        /// Returns the OS error if `epoll_create1` fails (fd limits).
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flags word and returns a new
            // fd or -1; no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            let mut raw = RawEvent {
                events: mask,
                data: token,
            };
            // SAFETY: `raw` outlives the call and the kernel copies the
            // struct before returning; fd validity is the caller's
            // responsibility and an invalid fd yields EBADF, not UB.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut raw) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn mask(readable: bool, writable: bool) -> u32 {
            // ERR and HUP are always reported; RDHUP must be requested
            // so half-closed peers surface as `closed` instead of a
            // permanent readable-with-zero-bytes loop.
            let mut mask = EPOLLRDHUP;
            if readable {
                mask |= EPOLLIN;
            }
            if writable {
                mask |= EPOLLOUT;
            }
            mask
        }

        /// Register `fd` with the given interest set under `token`.
        ///
        /// # Errors
        ///
        /// Returns the OS error (`EEXIST` if already registered).
        pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::mask(readable, writable), token)
        }

        /// Replace the interest set of an already-registered `fd`.
        ///
        /// # Errors
        ///
        /// Returns the OS error (`ENOENT` if not registered).
        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::mask(readable, writable), token)
        }

        /// Remove `fd` from the interest list.
        ///
        /// # Errors
        ///
        /// Returns the OS error (`ENOENT` if not registered).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block for up to `timeout_ms` (`-1` = forever) and append the
        /// ready events to `events` (cleared first). A signal landing
        /// mid-wait is reported as zero events, not an error.
        ///
        /// # Errors
        ///
        /// Returns the OS error for genuine failures (`EBADF`, `EFAULT`).
        pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            const CAP: usize = 256;
            let mut raw = [RawEvent { events: 0, data: 0 }; CAP];
            // SAFETY: `raw` is a valid writable buffer of CAP entries
            // for the duration of the call; the kernel writes at most
            // `maxevents` entries and returns how many.
            let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in raw.iter().take(n as usize) {
                // Copy out of the packed struct before use: references
                // into packed fields are unaligned.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd was returned by epoll_create1 and is closed
            // exactly once, here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
pub use imp::{Event, Poller};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::Poller;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_round_trip() {
        let poller = Poller::new().expect("epoll_create1");
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        poller.add(b.as_raw_fd(), 7, true, false).expect("add");

        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "no data yet, nothing should be ready");

        a.write_all(b"x").expect("write");
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].closed);

        let mut buf = [0u8; 1];
        b.read_exact(&mut buf).expect("read");

        // Writable interest: a fresh socket has buffer space.
        poller.modify(b.as_raw_fd(), 9, false, true).expect("mod");
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].writable);

        // Peer hang-up surfaces as closed.
        poller.modify(b.as_raw_fd(), 11, true, false).expect("mod");
        drop(a);
        poller.wait(&mut events, 1000).expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 11);
        assert!(events[0].closed);

        poller.delete(b.as_raw_fd()).expect("del");
    }
}
