//! Readiness polling for the reactor: a thin `epoll` wrapper on Linux
//! plus a portable fallback, both std-only.
//!
//! The build environment bakes in no external crates (same spirit as the
//! `rand`/`proptest` shims), so the Linux backend declares the four
//! syscalls it needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`) as direct `extern "C"` bindings against the libc that std
//! already links. Everything platform-specific stays inside this module;
//! the reactor sees only [`Poller`], [`Event`], and [`Interest`].
//!
//! The portable backend ([`Poller::new`] with `portable = true`, and the
//! automatic fallback on every non-Linux target) emulates readiness by
//! reporting every registered token ready each tick: all sockets are
//! non-blocking, so a spurious `WouldBlock` costs one syscall and no
//! correctness. It exists so non-Linux builds work and so Linux CI can
//! exercise the exact code path those builds will run.

use std::io;
use std::time::Duration;

/// Token of the accept listener in reactor event streams.
pub(crate) const TOKEN_LISTENER: u64 = u64::MAX;
/// Token reserved for the wake channel (never surfaced as an [`Event`]).
pub(crate) const TOKEN_WAKE: u64 = u64::MAX - 1;

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Readiness to read (or accept).
    pub read: bool,
    /// Readiness to write.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Self = Self {
        read: true,
        write: false,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the source was registered under.
    pub token: u64,
    /// The source is (probably) readable; includes peer hangup, which a
    /// subsequent `read` surfaces as EOF.
    pub readable: bool,
    /// The source is (probably) writable.
    pub writable: bool,
}

/// Something the poller can watch. On Unix this exposes the raw fd; the
/// portable backend tracks tokens only, so elsewhere the trait is empty.
pub(crate) trait Pollable {
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd;
}

impl Pollable for std::net::TcpStream {
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

impl Pollable for std::net::TcpListener {
    #[cfg(unix)]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

/// The readiness facade: epoll on Linux (unless the portable backend is
/// forced), the tick-based portable backend everywhere else.
pub(crate) enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Portable(portable::Portable),
}

impl Poller {
    /// Opens a poller. `portable` forces the fallback backend (used by
    /// tests to exercise the non-Linux path on Linux CI); `tick` bounds
    /// how long the portable backend sleeps between readiness sweeps.
    pub(crate) fn new(portable: bool, tick: Duration) -> Self {
        #[cfg(target_os = "linux")]
        if !portable {
            if let Ok(ep) = epoll::Epoll::new() {
                return Self::Epoll(ep);
            }
        }
        let _ = portable;
        Self::Portable(portable::Portable::new(tick))
    }

    /// Starts watching `src` under `token`.
    pub(crate) fn register(
        &self,
        src: &impl Pollable,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Self::Epoll(ep) => ep.ctl(epoll::CTL_ADD, src.raw_fd(), token, interest),
            Self::Portable(p) => {
                p.register(token, interest);
                Ok(())
            }
        }
    }

    /// Changes the interest set of an already-registered source.
    pub(crate) fn reregister(
        &self,
        src: &impl Pollable,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Self::Epoll(ep) => ep.ctl(epoll::CTL_MOD, src.raw_fd(), token, interest),
            Self::Portable(p) => {
                p.register(token, interest);
                Ok(())
            }
        }
    }

    /// Stops watching a source. Dropping the socket afterwards closes it;
    /// the explicit deregistration keeps the portable backend's token map
    /// in sync with the kernel's view.
    pub(crate) fn deregister(&self, src: &impl Pollable, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Self::Epoll(ep) => {
                let _ = ep.ctl(
                    epoll::CTL_DEL,
                    src.raw_fd(),
                    token,
                    Interest {
                        read: false,
                        write: false,
                    },
                );
            }
            Self::Portable(p) => p.deregister(token),
        }
    }

    /// Blocks until at least one source is ready, the timeout elapses, or
    /// [`Poller::wake`] is called, appending notifications to `out`
    /// (cleared first). `None` means "no deadline" — the epoll backend
    /// waits indefinitely, the portable backend sweeps every tick.
    pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Self::Epoll(ep) => ep.wait(out, timeout),
            Self::Portable(p) => p.wait(out, timeout),
        }
    }

    /// Interrupts a concurrent [`Poller::wait`] from any thread.
    pub(crate) fn wake(&self) {
        match self {
            #[cfg(target_os = "linux")]
            Self::Epoll(ep) => ep.wake(),
            Self::Portable(p) => p.wake(),
        }
    }
}

/// Raises this process's soft open-file limit to its hard limit (Linux
/// only), returning the resulting soft limit. The event loops make the
/// session ceiling the file-descriptor count, not a thread count, so
/// high-concurrency harnesses (the `net_concurrency` benchmark) call this
/// first; elsewhere it returns `None` and changes nothing.
#[must_use]
pub fn raise_nofile_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::c_int;

        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
            fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        }
        const RLIMIT_NOFILE: c_int = 7;

        let mut rl = RLimit { cur: 0, max: 0 };
        // SAFETY: `rl` outlives both calls and matches the kernel's
        // 64-bit rlimit layout on Linux.
        unsafe {
            if getrlimit(RLIMIT_NOFILE, &mut rl) != 0 {
                return None;
            }
            if rl.cur < rl.max {
                let want = RLimit {
                    cur: rl.max,
                    max: rl.max,
                };
                if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                    rl.cur = rl.max;
                }
            }
        }
        Some(rl.cur)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    //! The Linux backend: `epoll` in level-triggered mode plus an
    //! `eventfd` wake channel, bound directly against libc.

    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    use super::{Event, Interest, TOKEN_WAKE};

    // `struct epoll_event` is packed on x86 so the 64-bit data field
    // sits at offset 4; other architectures use natural alignment.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    pub(crate) const CTL_ADD: c_int = 1;
    pub(crate) const CTL_DEL: c_int = 2;
    pub(crate) const CTL_MOD: c_int = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    pub(crate) struct Epoll {
        ep: OwnedFd,
        wakefd: OwnedFd,
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: plain syscalls; negative returns are checked before
            // the fds are adopted.
            let ep = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if ep < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `ep` is a freshly returned, owned descriptor.
            let ep = unsafe { OwnedFd::from_raw_fd(ep) };
            // SAFETY: as above.
            let wfd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if wfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `wfd` is a freshly returned, owned descriptor.
            let wakefd = unsafe { OwnedFd::from_raw_fd(wfd) };
            let this = Self { ep, wakefd };
            this.ctl(CTL_ADD, this.wakefd.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
            Ok(this)
        }

        pub(crate) fn ctl(
            &self,
            op: c_int,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut mask = 0;
            if interest.read {
                mask |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.write {
                mask |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: mask,
                data: token,
            };
            // SAFETY: `ev` is a valid epoll_event for the duration of the
            // call (DEL ignores it entirely on modern kernels).
            let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) {
            const MAX_EVENTS: usize = 1024;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round up so a 100µs deadline does not busy-spin at 0ms.
                Some(d) => c_int::try_from(d.as_millis().clamp(1, 60_000)).unwrap_or(60_000),
            };
            // SAFETY: the buffer outlives the call and its length bounds
            // `maxevents`.
            let n = unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    buf.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            };
            // EINTR and transient failures surface as an empty sweep; the
            // reactor re-waits.
            for ev in buf.iter().take(usize::try_from(n).unwrap_or(0)) {
                let (bits, token) = (ev.events, ev.data);
                if token == TOKEN_WAKE {
                    self.drain_wake();
                    continue;
                }
                out.push(Event {
                    token,
                    // Errors and hangups count as readable so the next
                    // read observes the failure/EOF and tears down.
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
        }

        pub(crate) fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: valid 8-byte buffer; an EAGAIN (counter saturated)
            // still leaves the fd readable, which is all wake needs.
            let _ = unsafe { write(self.wakefd.as_raw_fd(), one.as_ptr().cast(), one.len()) };
        }

        fn drain_wake(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: valid 8-byte buffer; the fd is non-blocking, so
            // this never hangs and one read resets the counter.
            let _ = unsafe { read(self.wakefd.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len()) };
        }
    }
}

pub(crate) mod portable {
    //! The fallback backend: no kernel readiness at all. Every registered
    //! token is reported ready each sweep; the sweep rate is bounded by
    //! the tick, and [`Portable::wake`] interrupts the sleep early. All
    //! reactor sockets are non-blocking, so spurious readiness costs a
    //! `WouldBlock` and nothing else.

    use std::collections::BTreeMap;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    use super::{Event, Interest};

    struct State {
        interests: BTreeMap<u64, Interest>,
        woken: bool,
    }

    pub(crate) struct Portable {
        state: Mutex<State>,
        cv: Condvar,
        tick: Duration,
    }

    impl Portable {
        pub(crate) fn new(tick: Duration) -> Self {
            Self {
                state: Mutex::new(State {
                    interests: BTreeMap::new(),
                    woken: false,
                }),
                cv: Condvar::new(),
                tick: tick.max(Duration::from_micros(100)),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, State> {
            self.state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        pub(crate) fn register(&self, token: u64, interest: Interest) {
            self.lock().interests.insert(token, interest);
        }

        pub(crate) fn deregister(&self, token: u64) {
            self.lock().interests.remove(&token);
        }

        pub(crate) fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) {
            let mut s = self.lock();
            if !s.woken {
                let sleep = timeout.unwrap_or(self.tick).min(self.tick);
                let (guard, _) = self
                    .cv
                    .wait_timeout(s, sleep)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                s = guard;
            }
            s.woken = false;
            for (&token, &interest) in &s.interests {
                if interest.read || interest.write {
                    out.push(Event {
                        token,
                        readable: interest.read,
                        writable: interest.write,
                    });
                }
            }
        }

        pub(crate) fn wake(&self) {
            self.lock().woken = true;
            // notify_all, not notify_one: today only the loop's thread
            // waits, but a single lost notification here would stall a
            // non-Linux event loop for a full tick — broadcast is free and
            // immune to a second waiter ever being added.
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// The Linux backend reports accept-readiness and wake interrupts.
    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_reports_listener_readiness() {
        let poller = Poller::new(false, Duration::from_millis(1));
        assert!(matches!(poller, Poller::Epoll(_)), "epoll must be chosen");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(&listener, 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait returns empty.
        poller.wait(&mut events, Some(Duration::from_millis(1)));
        assert!(events.iter().all(|e| e.token != 7));

        let _conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(500)));
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "pending connection not reported readable: {events:?}"
        );
        poller.deregister(&listener, 7);
    }

    /// Wake interrupts an indefinite wait (both backends).
    #[test]
    fn wake_interrupts_wait() {
        for portable in [false, true] {
            let poller = std::sync::Arc::new(Poller::new(portable, Duration::from_millis(50)));
            let waker = std::sync::Arc::clone(&poller);
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            });
            let mut events = Vec::new();
            let started = std::time::Instant::now();
            poller.wait(&mut events, Some(Duration::from_secs(5)));
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "wake did not interrupt the wait"
            );
            handle.join().unwrap();
        }
    }

    /// The portable backend reports every registered token each sweep and
    /// drops deregistered ones.
    #[test]
    fn portable_backend_sweeps_registered_tokens() {
        let poller = Poller::new(true, Duration::from_millis(1));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        poller.register(&listener, 3, Interest::READ).unwrap();
        poller
            .register(
                &listener,
                4,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, None);
        let three = events.iter().find(|e| e.token == 3).unwrap();
        assert!(three.readable && !three.writable);
        let four = events.iter().find(|e| e.token == 4).unwrap();
        assert!(four.readable && four.writable);

        poller.deregister(&listener, 3);
        poller.wait(&mut events, None);
        assert!(events.iter().all(|e| e.token != 3));
    }
}
