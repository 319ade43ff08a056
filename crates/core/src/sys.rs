//! The instrumented syscall layer (§4.4).
//!
//! Every function here is the analogue of a glibc wrapper interception:
//! a visible operation (scheduling point) that executes against the
//! virtual OS and participates in sparse record/replay. For a *recorded*
//! kind, the return value, errno and output buffers are stored in the
//! SYSCALL stream during recording and enforced during replay — the call
//! is still re-issued against the live world (so unrecorded state, like
//! the display driver of §5.4, keeps advancing), but its results are
//! overwritten by the demo, exactly as the paper describes.
//!
//! Unrecorded syscalls run natively in both directions; that is the
//! sparse bet, and the reason replay does not need a live server
//! (Figure 2's motivation).

use srr_vos::{Errno, Fd, PollFd, SysResult};

use crate::ids::Tid;
use crate::runtime::{current_rt, with_ctx, ReplayedSyscall, Runtime};
use srr_obs::ObsOp;
use std::sync::Arc;

enum Plan {
    Passthrough,
    Record,
    Replay(ReplayedSyscall),
}

fn ctx(kind: &str) -> (Arc<Runtime>, Tid) {
    current_rt().unwrap_or_else(|| panic!("sys::{kind} outside an execution"))
}

fn plan(rt: &Arc<Runtime>, tid: Tid, kind: &str, fd: Option<Fd>) -> Plan {
    if !rt.should_record_syscall(kind, fd) {
        return Plan::Passthrough;
    }
    match rt.replay_syscall(tid, kind) {
        Some(rec) => Plan::Replay(rec),
        None => Plan::Record,
    }
}

fn encode(res: SysResult) -> (i64, i32) {
    match res {
        Ok(v) => (v, 0),
        Err(e) => (-1, e.code()),
    }
}

fn decode(ret: i64, errno: i32) -> SysResult {
    if errno != 0 {
        Err(Errno::from_code(errno).unwrap_or(Errno::EINVAL))
    } else {
        Ok(ret)
    }
}

/// Shared flow for syscalls whose single output buffer is a filled prefix
/// of `buf` (read/recv/recvmsg).
fn bufferful_in(
    kind: &'static str,
    fd: Fd,
    buf: &mut [u8],
    live: impl FnOnce(&Arc<Runtime>, &mut [u8]) -> SysResult,
) -> SysResult {
    let (rt, tid) = ctx(kind);
    rt.enter(tid);
    with_ctx(|ctx| ctx.view.tick());
    let live_res = live(&rt, buf);
    let res = match plan(&rt, tid, kind, Some(fd)) {
        Plan::Passthrough => live_res,
        Plan::Record => {
            let (ret, errno) = encode(live_res);
            let filled = usize::try_from(ret.max(0)).unwrap_or(0).min(buf.len());
            rt.record_syscall(tid, kind, ret, errno, vec![buf[..filled].to_vec()]);
            live_res
        }
        Plan::Replay(rec) => {
            let n = rec.buf.len().min(buf.len());
            buf[..n].copy_from_slice(&rec.buf[..n]);
            decode(rec.ret, rec.errno)
        }
    };
    rt.exit_op(tid, ObsOp::Syscall);
    res
}

/// Shared flow for syscalls with no output buffers.
fn bufferless(
    kind: &'static str,
    fd: Option<Fd>,
    live: impl FnOnce(&Arc<Runtime>) -> SysResult,
) -> SysResult {
    let (rt, tid) = ctx(kind);
    rt.enter(tid);
    with_ctx(|ctx| ctx.view.tick());
    let live_res = live(&rt);
    let res = match plan(&rt, tid, kind, fd) {
        Plan::Passthrough => live_res,
        Plan::Record => {
            let (ret, errno) = encode(live_res);
            rt.record_syscall(tid, kind, ret, errno, vec![]);
            live_res
        }
        Plan::Replay(rec) => decode(rec.ret, rec.errno),
    };
    rt.exit_op(tid, ObsOp::Syscall);
    res
}

/// `read(2)`.
pub fn read(fd: Fd, buf: &mut [u8]) -> SysResult {
    bufferful_in("read", fd, buf, |rt, b| rt.vos.read(fd, b))
}

/// `recv(2)`.
pub fn recv(fd: Fd, buf: &mut [u8]) -> SysResult {
    bufferful_in("recv", fd, buf, |rt, b| rt.vos.recv(fd, b))
}

/// `recvmsg(2)` (flags are modelled as always zero).
pub fn recvmsg(fd: Fd, buf: &mut [u8]) -> SysResult {
    bufferful_in("recvmsg", fd, buf, |rt, b| {
        let mut flags = [0u8; 4];
        rt.vos.recvmsg(fd, b, &mut flags)
    })
}

/// `write(2)`.
pub fn write(fd: Fd, data: &[u8]) -> SysResult {
    bufferless("write", Some(fd), |rt| rt.vos.write(fd, data))
}

/// `send(2)`.
pub fn send(fd: Fd, data: &[u8]) -> SysResult {
    bufferless("send", Some(fd), |rt| rt.vos.send(fd, data))
}

/// `sendmsg(2)`.
pub fn sendmsg(fd: Fd, data: &[u8]) -> SysResult {
    bufferless("sendmsg", Some(fd), |rt| rt.vos.sendmsg(fd, data))
}

/// `bind(2)` against a pre-installed listener port; returns the
/// listener fd.
pub fn bind(port: u16) -> SysResult {
    bufferless("bind", None, |rt| rt.vos.bind(port))
}

/// `accept(2)`; returns the connection fd, or `EAGAIN`.
pub fn accept(fd: Fd) -> SysResult {
    bufferless("accept", Some(fd), |rt| rt.vos.accept(fd))
}

/// `accept4(2)`.
pub fn accept4(fd: Fd) -> SysResult {
    bufferless("accept4", Some(fd), |rt| rt.vos.accept4(fd))
}

/// `clock_gettime(2)`: nanoseconds of virtual time.
pub fn clock_gettime() -> SysResult {
    bufferless("clock_gettime", None, |rt| rt.vos.clock_gettime())
}

/// `open(2)`.
pub fn open(path: &str, create: bool) -> SysResult {
    bufferless("open", None, |rt| rt.vos.open(path, create))
}

/// `close(2)`.
pub fn close(fd: Fd) -> SysResult {
    bufferless("close", Some(fd), |rt| rt.vos.close(fd))
}

/// `poll(2)`: fills `revents`; never blocks (callers loop, as the paper's
/// clients do — Figure 2).
pub fn poll(fds: &mut [PollFd]) -> SysResult {
    poll_like("poll", fds)
}

/// `select(2)`, modelled as readability-oriented poll (§5.2's httpd
/// workaround path).
pub fn select(fds: &mut [PollFd]) -> SysResult {
    poll_like("select", fds)
}

fn poll_like(kind: &'static str, fds: &mut [PollFd]) -> SysResult {
    let (rt, tid) = ctx(kind);
    rt.enter(tid);
    with_ctx(|ctx| ctx.view.tick());
    let live_res = if kind == "select" {
        rt.vos.select(fds)
    } else {
        rt.vos.poll(fds)
    };
    let res = match plan(&rt, tid, kind, None) {
        Plan::Passthrough => live_res,
        Plan::Record => {
            let (ret, errno) = encode(live_res);
            let revents: Vec<u8> = fds.iter().map(|p| p.revents.to_bits()).collect();
            rt.record_syscall(tid, kind, ret, errno, vec![revents]);
            live_res
        }
        Plan::Replay(rec) => {
            for (p, &b) in fds.iter_mut().zip(&rec.buf) {
                p.revents = srr_vos::PollEvents::from_bits(b);
            }
            decode(rec.ret, rec.errno)
        }
    };
    rt.exit_op(tid, ObsOp::Syscall);
    res
}

/// `epoll_wait(2)`: unsupported by the sparse recorder (§5.2 — its
/// union-returning interface cannot be captured); always `ENOTSUP` so
/// applications switch to `poll`, exactly as httpd was configured.
pub fn epoll_wait() -> SysResult {
    bufferless("epoll_wait", None, |rt| rt.vos.epoll_wait())
}

/// `ioctl(2)` on a device fd. Under `SparseConfig::games()` this runs
/// natively in both record and replay (§5.4's workaround for the
/// proprietary display driver).
pub fn ioctl(fd: Fd, request: u64, arg: &mut [u8]) -> SysResult {
    let (rt, tid) = ctx("ioctl");
    rt.enter(tid);
    with_ctx(|ctx| ctx.view.tick());
    let live_res = rt.vos.ioctl(fd, request, arg);
    let res = match plan(&rt, tid, "ioctl", Some(fd)) {
        Plan::Passthrough => live_res,
        Plan::Record | Plan::Replay(_) if rt.vos.fd_is_opaque_device(fd) => {
            // The §5.4 situation: a proprietary device whose ioctl
            // traffic cannot be captured. A comprehensive recorder (rr)
            // must give up here; the sparse answer is
            // `SparseConfig::games()`, which never reaches this arm.
            rt.hard_desync_at(
                "unsupported-ioctl",
                "ioctl on an opaque (proprietary) device",
                "a recordable device",
                "SYSCALL",
                rt.replay_cursor(),
            )
        }
        Plan::Record => {
            let (ret, errno) = encode(live_res);
            rt.record_syscall(tid, "ioctl", ret, errno, vec![arg.to_vec()]);
            live_res
        }
        Plan::Replay(rec) => {
            let n = rec.buf.len().min(arg.len());
            arg[..n].copy_from_slice(&rec.buf[..n]);
            decode(rec.ret, rec.errno)
        }
    };
    rt.exit_op(tid, ObsOp::Syscall);
    res
}

/// `pipe(2)`: returns `(read_end, write_end)`.
pub fn pipe() -> (Fd, Fd) {
    let (rt, tid) = ctx("pipe");
    rt.enter(tid);
    with_ctx(|ctx| ctx.view.tick());
    let fds = rt.vos.pipe();
    rt.exit_op(tid, ObsOp::Syscall);
    fds
}

/// Opens a connection to a peer (the `connect(2)` analogue). Not
/// recorded: fd numbering is deterministic given the schedule, and all
/// subsequent traffic on the socket is covered by recv/send recording.
pub fn connect(peer: Box<dyn srr_vos::Peer>) -> Fd {
    let (rt, tid) = ctx("connect");
    rt.enter(tid);
    with_ctx(|ctx| ctx.view.tick());
    let fd = rt.vos.connect(peer);
    rt.exit_op(tid, ObsOp::Syscall);
    fd
}

/// Sleeps (invisible operation — no scheduling point; §3.3's liveness
/// rescheduler exists precisely because threads may do this).
///
/// The physical sleep is bounded at 50ms per call to keep pathological
/// test programs from stalling the suite.
pub fn sleep_ms(ms: u64) {
    if let Some((rt, _)) = current_rt() {
        rt.vos.advance_time(ms * 1_000_000);
    }
    std::thread::sleep(std::time::Duration::from_millis(ms.min(50)));
}

/// Allocates `size` bytes of virtual memory, returning the address
/// (the `malloc` analogue; invisible operation). Under sparse recording
/// addresses are *not* recorded — the §5.5 limitation; the comprehensive
/// rr baseline records them via the ALLOC stream.
pub fn valloc(size: u64) -> u64 {
    let (rt, _) = ctx("valloc");
    rt.vos.valloc(size)
}

/// Writes a line to the console (fd 1) — the observable output used for
/// soft-desynchronisation comparison.
pub fn println(line: &str) {
    let mut data = line.as_bytes().to_vec();
    data.push(b'\n');
    let _ = write(Fd(1), &data);
}
