//! Minimal vendored syscall shim for the event-driven I/O layer.
//!
//! The offline build has no `libc` crate, so the handful of syscalls the
//! epoll reactor needs — `epoll_create1`/`epoll_ctl`/`epoll_pwait`,
//! `accept4`, nonblocking `SO_REUSEPORT` listeners and raw `read`/`write` —
//! are issued directly via inline assembly, in the same spirit as the
//! `vendor/` stand-in for rand. Only Linux on x86_64/aarch64 is
//! covered; everything in this module is compiled out on other targets,
//! where [`crate::Server::bind`] reports the server unsupported.
//!
//! The surface is deliberately tiny and RAII-safe: every descriptor lives in
//! an owning [`Fd`] that closes on drop, and every call returns
//! `std::io::Result` with the errno folded into `std::io::Error`, so callers
//! use ordinary `ErrorKind::WouldBlock`/`Interrupted` matching.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

// ---------------------------------------------------------------------------
// Raw syscall entry (per-arch) and numbers.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const SOCKET: usize = 41;
    pub const BIND: usize = 49;
    pub const LISTEN: usize = 50;
    pub const GETSOCKNAME: usize = 51;
    pub const SETSOCKOPT: usize = 54;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const ACCEPT4: usize = 288;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const CLOSE: usize = 57;
    pub const SOCKET: usize = 198;
    pub const BIND: usize = 200;
    pub const LISTEN: usize = 201;
    pub const GETSOCKNAME: usize = 204;
    pub const SETSOCKOPT: usize = 208;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const ACCEPT4: usize = 242;
    pub const EPOLL_CREATE1: usize = 20;
}

/// Issues a raw syscall; returns the kernel's value (negative = `-errno`).
///
/// # Safety
/// The caller must uphold the kernel contract of syscall `n` for every
/// argument (valid pointers, correct lengths, owned descriptors).
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

/// Issues a raw syscall; returns the kernel's value (negative = `-errno`).
///
/// # Safety
/// The caller must uphold the kernel contract of syscall `n` for every
/// argument (valid pointers, correct lengths, owned descriptors).
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a1 => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        in("x5") a6,
        options(nostack),
    );
    ret
}

/// Folds a raw return value into `io::Result`, mapping `-errno` onto
/// `io::Error::from_raw_os_error` (so `WouldBlock`/`Interrupted` matching
/// works exactly as with `std` I/O).
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret as usize)
    }
}

// ---------------------------------------------------------------------------
// Constants (Linux UAPI).
// ---------------------------------------------------------------------------

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: usize = 1;
const SOCK_NONBLOCK: usize = 0o4000;
const SOCK_CLOEXEC: usize = 0o2000000;
const SOL_SOCKET: usize = 1;
const SO_REUSEADDR: usize = 2;
const SO_REUSEPORT: usize = 15;
const IPPROTO_TCP: usize = 6;
const TCP_NODELAY: usize = 1;
const EPOLL_CLOEXEC: usize = 0o2000000;

/// `epoll_ctl` op: register a new descriptor.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: deregister a descriptor.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change a registered descriptor's interest set.
pub const EPOLL_CTL_MOD: i32 = 3;

/// Readiness: the descriptor is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the descriptor is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Readiness: an error condition is pending.
pub const EPOLLERR: u32 = 0x008;
/// Readiness: hang-up (both directions closed).
pub const EPOLLHUP: u32 = 0x010;
/// Readiness: the peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Flag: edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

/// One `epoll` readiness record. On x86_64 the kernel ABI packs the struct;
/// on every other architecture it is naturally aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token, handed back verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// Copies out the readiness bits (safe on the packed layout).
    pub fn readiness(&self) -> u32 {
        self.events
    }

    /// Copies out the token (safe on the packed layout).
    pub fn token(&self) -> u64 {
        self.data
    }
}

// ---------------------------------------------------------------------------
// Owning descriptor.
// ---------------------------------------------------------------------------

/// An owned file descriptor, closed on drop.
#[derive(Debug)]
pub struct Fd(i32);

impl Fd {
    /// The raw descriptor number.
    pub fn raw(&self) -> i32 {
        self.0
    }
}

impl Drop for Fd {
    fn drop(&mut self) {
        // Closing also deregisters the fd from any epoll instance it was
        // watched by (there are no dup'd copies in this crate).
        unsafe {
            let _ = syscall6(nr::CLOSE, self.0 as usize, 0, 0, 0, 0, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// epoll.
// ---------------------------------------------------------------------------

/// Creates a close-on-exec epoll instance.
pub fn epoll_create() -> io::Result<Fd> {
    let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
    Ok(Fd(fd as i32))
}

/// Adds, modifies or removes `fd` on the epoll instance with the given
/// interest bits and token.
pub fn epoll_ctl(epoll: &Fd, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
    let event = EpollEvent {
        events,
        data: token,
    };
    check(unsafe {
        syscall6(
            nr::EPOLL_CTL,
            epoll.raw() as usize,
            op as usize,
            fd as usize,
            std::ptr::addr_of!(event) as usize,
            0,
            0,
        )
    })?;
    Ok(())
}

/// Waits for readiness, filling `events`; returns how many fired. A negative
/// `timeout_ms` blocks indefinitely; `0` polls. `EINTR` is retried here so
/// callers never see it.
pub fn epoll_wait(epoll: &Fd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epoll.raw() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0, // no sigmask
                8, // sigsetsize (ignored with a null mask)
            )
        };
        match check(ret) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Raw I/O.
// ---------------------------------------------------------------------------

/// Reads into `buf`; `Ok(0)` is end-of-stream, `WouldBlock` means the edge is
/// drained.
pub fn read(fd: &Fd, buf: &mut [u8]) -> io::Result<usize> {
    check(unsafe {
        syscall6(
            nr::READ,
            fd.raw() as usize,
            buf.as_mut_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    })
}

/// Writes from `buf`, returning how many bytes the kernel took.
pub fn write(fd: &Fd, buf: &[u8]) -> io::Result<usize> {
    check(unsafe {
        syscall6(
            nr::WRITE,
            fd.raw() as usize,
            buf.as_ptr() as usize,
            buf.len(),
            0,
            0,
            0,
        )
    })
}

// ---------------------------------------------------------------------------
// Sockets: SO_REUSEPORT listeners and nonblocking accept.
// ---------------------------------------------------------------------------

/// `struct sockaddr_in` (IPv4).
#[repr(C)]
struct SockAddrV4 {
    family: u16,
    port_be: u16,
    addr_be: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6` (IPv6).
#[repr(C)]
struct SockAddrV6 {
    family: u16,
    port_be: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

fn setsockopt(fd: &Fd, level: usize, name: usize, value: i32) -> io::Result<()> {
    check(unsafe {
        syscall6(
            nr::SETSOCKOPT,
            fd.raw() as usize,
            level,
            name,
            std::ptr::addr_of!(value) as usize,
            std::mem::size_of::<i32>(),
            0,
        )
    })?;
    Ok(())
}

/// Disables Nagle on a connected socket, so a small response goes out as
/// soon as it is written.
pub fn set_nodelay(fd: &Fd) -> io::Result<()> {
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, 1)
}

fn bind_fd(fd: &Fd, addr: SocketAddr) -> io::Result<()> {
    match addr {
        SocketAddr::V4(v4) => {
            let raw = SockAddrV4 {
                family: AF_INET,
                port_be: v4.port().to_be(),
                addr_be: v4.ip().octets(),
                zero: [0; 8],
            };
            check(unsafe {
                syscall6(
                    nr::BIND,
                    fd.raw() as usize,
                    std::ptr::addr_of!(raw) as usize,
                    std::mem::size_of::<SockAddrV4>(),
                    0,
                    0,
                    0,
                )
            })?;
        }
        SocketAddr::V6(v6) => {
            let raw = SockAddrV6 {
                family: AF_INET6,
                port_be: v6.port().to_be(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            check(unsafe {
                syscall6(
                    nr::BIND,
                    fd.raw() as usize,
                    std::ptr::addr_of!(raw) as usize,
                    std::mem::size_of::<SockAddrV6>(),
                    0,
                    0,
                    0,
                )
            })?;
        }
    }
    Ok(())
}

/// The socket's locally bound address (resolves `:0` ephemeral ports).
pub fn local_addr(fd: &Fd) -> io::Result<SocketAddr> {
    // Large enough for sockaddr_in6.
    let mut buf = [0u8; 28];
    let mut len: u32 = buf.len() as u32;
    check(unsafe {
        syscall6(
            nr::GETSOCKNAME,
            fd.raw() as usize,
            buf.as_mut_ptr() as usize,
            std::ptr::addr_of_mut!(len) as usize,
            0,
            0,
            0,
        )
    })?;
    let family = u16::from_ne_bytes([buf[0], buf[1]]);
    let port = u16::from_be_bytes([buf[2], buf[3]]);
    if family == AF_INET {
        let ip = std::net::Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]);
        Ok(SocketAddr::from((ip, port)))
    } else if family == AF_INET6 {
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&buf[8..24]);
        Ok(SocketAddr::from((std::net::Ipv6Addr::from(octets), port)))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("getsockname returned unknown address family {family}"),
        ))
    }
}

/// Binds one nonblocking `SO_REUSEPORT` listener on `addr`.
fn listen_one(addr: SocketAddr) -> io::Result<Fd> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET as usize,
        SocketAddr::V6(_) => AF_INET6 as usize,
    };
    let fd = Fd(check(unsafe {
        syscall6(
            nr::SOCKET,
            domain,
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })? as i32);
    setsockopt(&fd, SOL_SOCKET, SO_REUSEADDR, 1)?;
    setsockopt(&fd, SOL_SOCKET, SO_REUSEPORT, 1)?;
    bind_fd(&fd, addr)?;
    check(unsafe { syscall6(nr::LISTEN, fd.raw() as usize, 1024, 0, 0, 0, 0) })?;
    Ok(fd)
}

/// Binds `count` nonblocking `SO_REUSEPORT` listeners on `addr` — one per
/// reactor, so the kernel shards incoming connections across them. A `:0`
/// port is resolved by the first bind and shared by the rest. Returns the
/// listeners and the concrete bound address.
pub fn listen_reuseport(addr: &str, count: usize) -> io::Result<(Vec<Fd>, SocketAddr)> {
    let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?;
    let first = listen_one(addr)?;
    let bound = local_addr(&first)?;
    let mut fds = vec![first];
    for _ in 1..count.max(1) {
        fds.push(listen_one(bound)?);
    }
    Ok((fds, bound))
}

/// Accepts one pending connection as a nonblocking close-on-exec socket.
/// `WouldBlock` means the accept queue is drained.
pub fn accept(listener: &Fd) -> io::Result<Fd> {
    let fd = check(unsafe {
        syscall6(
            nr::ACCEPT4,
            listener.raw() as usize,
            0,
            0,
            SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
            0,
        )
    })?;
    Ok(Fd(fd as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn epoll_reports_readiness_under_the_registered_token() {
        let (listeners, addr) = listen_reuseport("127.0.0.1:0", 1).unwrap();
        let epoll = epoll_create().unwrap();
        epoll_ctl(&epoll, EPOLL_CTL_ADD, listeners[0].raw(), EPOLLIN, 3).unwrap();
        // Nothing pending: a zero-timeout wait sees nothing.
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll_wait(&epoll, &mut events, 0).unwrap(), 0);
        // A connection makes the listener readable under its token.
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        assert_eq!(epoll_wait(&epoll, &mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token(), 3);
        let conn = accept(&listeners[0]).unwrap();
        epoll_ctl(
            &epoll,
            EPOLL_CTL_ADD,
            conn.raw(),
            EPOLLIN | EPOLLRDHUP | EPOLLET,
            7,
        )
        .unwrap();
        assert_eq!(epoll_wait(&epoll, &mut events, 0).unwrap(), 0);
        // Bytes arriving fire one edge; reading to `WouldBlock` consumes it.
        client.write_all(b"ping").unwrap();
        assert_eq!(epoll_wait(&epoll, &mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);
        let mut buf = [0u8; 16];
        assert_eq!(read(&conn, &mut buf).unwrap(), 4);
        assert_eq!(
            read(&conn, &mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(epoll_wait(&epoll, &mut events, 0).unwrap(), 0);
    }

    #[test]
    fn reuseport_listeners_accept_nonblocking_sockets() {
        let (listeners, addr) = listen_reuseport("127.0.0.1:0", 2).unwrap();
        assert_eq!(listeners.len(), 2);
        assert_ne!(addr.port(), 0, "ephemeral port resolved");
        for listener in &listeners {
            assert_eq!(local_addr(listener).unwrap(), addr);
            // Accept queue is empty: nonblocking accept must not hang.
            let err = accept(listener).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }
        // A client connection lands on exactly one of the sharded listeners.
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        client.write_all(b"ping").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut accepted = None;
        for listener in &listeners {
            match accept(listener) {
                Ok(fd) => {
                    assert!(accepted.is_none(), "one connection, one accept");
                    accepted = Some(fd);
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        let conn = accepted.expect("the connection landed on a shard");
        set_nodelay(&conn).unwrap();
        let mut buf = [0u8; 16];
        let n = read(&conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(write(&conn, b"pong").unwrap(), 4);
        let mut echo = [0u8; 4];
        std::io::Read::read_exact(&mut client, &mut echo).unwrap();
        assert_eq!(&echo, b"pong");
    }
}
