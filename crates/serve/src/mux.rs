//! The connection multiplexer: one thread, many sockets.
//!
//! The pre-sharding server spent one OS thread per accepted
//! connection, almost all of it blocked in `read` — thousands of idle
//! pipelined connections meant thousands of idle stacks. The
//! multiplexer replaces them with a single readiness loop over
//! nonblocking sockets (std only — no `epoll`/`kqueue` binding, so
//! readiness is discovered by scanning):
//!
//! * **Accept** — the listener is nonblocking; every tick drains the
//!   pending backlog.
//! * **Read** — each connection owns a growing frame buffer; every
//!   tick reads until `WouldBlock`, slices complete NDJSON frames out
//!   and hands them to the protocol layer. Control-plane requests
//!   (`stats`, `resize`, `shutdown`) are answered inline; evaluation
//!   requests are admitted to their shard.
//! * **Write** — executors never touch the socket: they append rendered
//!   responses to the connection's outbox ([`Conn::send`]) and wake
//!   the loop, which flushes as much as each socket accepts. Pipelined
//!   responses cannot interleave because only the multiplexer writes.
//! * **Park** — a tick that made no progress parks on a condvar with
//!   a short timeout (`poll_interval`), so an idle server burns a few
//!   wakeups per millisecond instead of a thread per connection, and
//!   an executor finishing a response wakes it immediately.
//!
//! A connection is reaped once its peer closed (or broke framing) and
//! every in-flight response has been flushed — in-flight is tracked by
//! the job-held `Arc<Conn>` count, so a response computed after the
//! peer stopped sending is still delivered, exactly like the
//! thread-per-connection server did.

use crate::protocol::{ErrorCode, Response};
use crate::server::Inner;
use crate::telemetry::MuxObs;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Wakes the multiplexer when an executor queues a response (or exits
/// during a drain).
#[derive(Debug, Default)]
pub(crate) struct MuxWaker {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl MuxWaker {
    pub fn wake(&self) {
        *self.pending.lock().expect("mux waker poisoned") = true;
        self.cv.notify_one();
    }

    /// Park until woken or `timeout`, consuming the pending flag.
    fn park(&self, timeout: Duration) {
        let mut pending = self.pending.lock().expect("mux waker poisoned");
        if !*pending {
            let (guard, _) = self
                .cv
                .wait_timeout(pending, timeout)
                .expect("mux waker poisoned");
            pending = guard;
        }
        *pending = false;
    }
}

/// The write half of one connection, shared with the executors:
/// responses are rendered into the outbox under its lock and the
/// multiplexer flushes them to the socket.
#[derive(Debug, Default)]
pub(crate) struct Conn {
    outbox: Mutex<Outbox>,
    waker: Arc<MuxWaker>,
}

#[derive(Debug, Default)]
struct Outbox {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    flushed: usize,
}

impl Conn {
    fn new(waker: Arc<MuxWaker>) -> Self {
        Self {
            outbox: Mutex::new(Outbox::default()),
            waker,
        }
    }

    /// Queue one response frame for delivery and wake the multiplexer.
    pub fn send(&self, response: &Response) {
        let line = response.to_line();
        {
            let mut outbox = self.outbox.lock().expect("connection outbox poisoned");
            outbox.buf.extend_from_slice(line.as_bytes());
        }
        self.waker.wake();
    }

    fn is_drained(&self) -> bool {
        let outbox = self.outbox.lock().expect("connection outbox poisoned");
        outbox.flushed == outbox.buf.len()
    }
}

/// One multiplexed connection: the socket, its partial-frame read
/// buffer, and the executor-shared write half.
struct MuxConn {
    stream: TcpStream,
    conn: Arc<Conn>,
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline (so a slowly
    /// arriving huge frame is not re-scanned from byte 0 every tick).
    scanned: usize,
    /// The peer closed, errored or broke framing: stop reading, flush
    /// what remains, then reap.
    read_closed: bool,
    /// The socket broke while writing: reap immediately.
    write_closed: bool,
}

/// Run the readiness loop until shutdown completes. Returns when the
/// drain is finished: no admissions, every executor exited, every
/// queued response flushed (or its connection gone).
pub(crate) fn mux_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    let mut conns: Vec<MuxConn> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let obs = MuxObs::register();
    loop {
        let mut progress = false;

        // Accept the pending backlog (stop admitting once draining —
        // a late connection would never be read again).
        if !inner.shutdown.load(Ordering::SeqCst) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        conns.push(MuxConn {
                            stream,
                            conn: Arc::new(Conn::new(Arc::clone(&inner.waker))),
                            read_buf: Vec::new(),
                            scanned: 0,
                            read_closed: false,
                            write_closed: false,
                        });
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Transient accept failure; keep serving.
                    Err(_) => break,
                }
            }
        }

        // Latency histograms record only ticks that made progress:
        // idle WouldBlock scans would otherwise drown the signal.
        for mc in &mut conns {
            if !mc.read_closed {
                let start = Instant::now();
                if pump_read(inner, &obs, mc, &mut chunk) {
                    obs.read.record_duration(start.elapsed());
                    progress = true;
                }
            }
            let start = Instant::now();
            if pump_write(mc) {
                obs.write.record_duration(start.elapsed());
                progress = true;
            }
        }

        // Reap: broken writers immediately; finished readers once the
        // outbox is flushed and no evaluation job still holds the
        // connection (each job owns an `Arc<Conn>` clone).
        conns.retain(|mc| {
            if mc.write_closed {
                return false;
            }
            !(mc.read_closed && mc.conn.is_drained() && Arc::strong_count(&mc.conn) == 1)
        });

        if inner.shutdown.load(Ordering::SeqCst)
            && inner.pool.active_executors() == 0
            && conns.iter().all(|mc| mc.conn.is_drained())
        {
            return;
        }
        if !progress {
            inner.waker.park(inner.poll_interval);
        }
    }
}

/// Read whatever the socket has, slice complete frames out of the
/// buffer and handle them. Returns whether any bytes arrived.
fn pump_read(inner: &Arc<Inner>, obs: &MuxObs, mc: &mut MuxConn, chunk: &mut [u8]) -> bool {
    let mut progress = false;
    loop {
        match mc.stream.read(chunk) {
            Ok(0) => {
                // Clean EOF; a partial frame left behind is the peer's
                // truncation.
                if !mc.read_buf.is_empty() {
                    mc.conn.send(&Response::err(
                        None,
                        ErrorCode::BadRequest,
                        "truncated frame: stream ended before the terminating newline",
                    ));
                }
                mc.read_closed = true;
                break;
            }
            Ok(n) => {
                progress = true;
                mc.read_buf.extend_from_slice(&chunk[..n]);
                drain_frames(inner, obs, mc);
                if mc.read_closed {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                mc.read_closed = true;
                break;
            }
        }
    }
    progress
}

/// Slice complete newline-terminated frames out of the read buffer and
/// hand each to the protocol layer. Oversized frames (with or without
/// their newline in sight) lose framing: answer `line_too_long`, then
/// stop reading.
fn drain_frames(inner: &Arc<Inner>, obs: &MuxObs, mc: &mut MuxConn) {
    loop {
        match mc.read_buf[mc.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|at| mc.scanned + at)
        {
            Some(newline) => {
                if newline > inner.max_line_bytes {
                    // The frame's content (everything before the
                    // newline) exceeds the cap.
                    too_long(inner, mc);
                    return;
                }
                let mut frame: Vec<u8> = mc.read_buf.drain(..=newline).collect();
                mc.scanned = 0;
                frame.pop();
                if frame.last() == Some(&b'\r') {
                    frame.pop();
                }
                let line = String::from_utf8_lossy(&frame).into_owned();
                if !line.trim().is_empty() {
                    // Dispatch latency: parse + inline answer (control
                    // plane) or parse + admission (evaluation).
                    let start = Instant::now();
                    crate::server::handle_line(inner, &mc.conn, &line);
                    obs.dispatch.record_duration(start.elapsed());
                }
            }
            None => {
                mc.scanned = mc.read_buf.len();
                if mc.read_buf.len() > inner.max_line_bytes {
                    too_long(inner, mc);
                }
                return;
            }
        }
    }
}

fn too_long(inner: &Arc<Inner>, mc: &mut MuxConn) {
    mc.conn.send(&Response::err(
        None,
        ErrorCode::LineTooLong,
        format!("frame exceeds the {} byte cap", inner.max_line_bytes),
    ));
    mc.read_buf.clear();
    mc.scanned = 0;
    mc.read_closed = true;
}

/// Flush as much of the outbox as the socket accepts. Returns whether
/// any bytes left.
fn pump_write(mc: &mut MuxConn) -> bool {
    let mut progress = false;
    let mut outbox = mc.conn.outbox.lock().expect("connection outbox poisoned");
    while outbox.flushed < outbox.buf.len() {
        match mc.stream.write(&outbox.buf[outbox.flushed..]) {
            Ok(0) => {
                mc.write_closed = true;
                break;
            }
            Ok(n) => {
                outbox.flushed += n;
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                mc.write_closed = true;
                break;
            }
        }
    }
    if outbox.flushed == outbox.buf.len() {
        outbox.buf.clear();
        outbox.flushed = 0;
    }
    progress
}
