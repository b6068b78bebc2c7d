//! Serving rounds through the real `ReplayServer`: a fresh server per
//! round, one closed-loop client thread per session, the library client
//! (`replay_stream`) over socket halves that timestamp what crosses
//! them.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use codic_server::client::{
    connect_tcp_with_retry, connect_with_retry, replay_stream, ClientError, ClientReport,
};
use codic_server::server::ReplayServer;

use crate::spans::{ns_since_origin, Span, Spans};
use crate::workload::{Session, Transport, Workload};

/// A connected client socket of either transport.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A syscall the client made, for the traced run.
#[derive(Debug, Clone, Copy)]
struct Call {
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// The read half: counts bytes, notes when the first byte (the
/// `HelloAck`) arrived, and in traced mode logs each read.
struct TimedRead {
    inner: Stream,
    bytes: u64,
    first: Option<Instant>,
    calls: Option<Vec<Call>>,
}

impl Read for TimedRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = self.calls.is_some().then(Instant::now);
        let n = self.inner.read(buf)?;
        let end = Instant::now();
        if n > 0 && self.first.is_none() {
            self.first = Some(end);
        }
        self.bytes += n as u64;
        if let (Some(calls), Some(start)) = (&mut self.calls, start) {
            calls.push(Call {
                name: "transport.read",
                start,
                end,
            });
        }
        Ok(n)
    }
}

/// The write half: counts bytes and timestamps each flush. The client
/// flushes once per frame — `Hello`, every `Batch`, `Bye` — so flush
/// `k` marks batch `k` leaving the client.
struct TimedWrite {
    inner: Stream,
    bytes: u64,
    flushes: Vec<Instant>,
    calls: Option<Vec<Call>>,
}

impl Write for TimedWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.calls.is_some().then(Instant::now);
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        if let (Some(calls), Some(start)) = (&mut self.calls, start) {
            calls.push(Call {
                name: "transport.write",
                start,
                end: Instant::now(),
            });
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        self.flushes.push(Instant::now());
        Ok(())
    }
}

/// What one client session produced.
#[derive(Debug)]
pub struct SessionRun {
    pub result: Result<ClientReport, ClientError>,
    pub ops: u64,
    /// When the `HelloAck` arrived.
    pub acked: Option<Instant>,
    /// Rows per host second from the `HelloAck` to the `Summary`.
    pub rows_per_s: f64,
    /// The whole client call, `Hello` to `Summary`, in seconds.
    pub host_s: f64,
    /// Client round trip of every batch, in seconds: from the end of
    /// writing the batch to the end of writing the next frame, which the
    /// client sends as soon as it has read the batch's `Batched` ack.
    pub batch_s: Vec<f64>,
    /// Bytes on the wire, both directions.
    pub wire_bytes: u64,
    /// Client-side spans (traced rounds only).
    pub spans: Spans,
}

/// One serving round: a fresh server and every session of the workload.
#[derive(Debug)]
pub struct Round {
    /// From server bind to the first `HelloAck`.
    pub setup_s: Option<f64>,
    pub sessions: Vec<SessionRun>,
}

fn connect(transport: Transport, server: &ReplayServer) -> io::Result<Stream> {
    Ok(match transport {
        Transport::Unix => {
            let path = server.path().expect("a Unix-socket server has a path");
            Stream::Unix(connect_with_retry(path, 0, Duration::ZERO)?)
        }
        Transport::Tcp => {
            let addr = server.tcp_addr().expect("a TCP server has an address");
            Stream::Tcp(connect_tcp_with_retry(addr, 0, Duration::ZERO)?)
        }
    })
}

/// Serves one round of `workload`. The clients connect before the
/// accept loop starts (the listen backlog holds them), so setup time is
/// bind, accept and session construction, not the accept loop's polling
/// interval.
///
/// # Errors
///
/// A bind or connect failure; session failures are in the sessions.
pub fn round(workload: &Workload, socket: &Path, traced: bool) -> io::Result<Round> {
    let bound = Instant::now();
    let server = match workload.transport {
        Transport::Unix => ReplayServer::bind(socket, workload.config.clone())?,
        Transport::Tcp => ReplayServer::bind_tcp("127.0.0.1:0", workload.config.clone())?,
    };
    let streams = workload
        .sessions
        .iter()
        .map(|_| connect(workload.transport, &server))
        .collect::<io::Result<Vec<_>>>()?;
    let connections = streams.len();
    let (served, sessions) = thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_connections(connections));
        let clients: Vec<_> = streams
            .into_iter()
            .zip(&workload.sessions)
            .map(|(stream, session)| scope.spawn(move || client(stream, session, traced)))
            .collect();
        let sessions: Vec<SessionRun> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (serving.join().expect("server thread panicked"), sessions)
    });
    served?;
    let setup_s = sessions
        .iter()
        .filter_map(|s| s.acked)
        .min()
        .map(|t| t.duration_since(bound).as_secs_f64());
    Ok(Round { setup_s, sessions })
}

fn client(stream: Stream, session: &Session, traced: bool) -> SessionRun {
    let read_half = stream.try_clone();
    let ops = session.ops.len() as u64;
    let failed = |e: io::Error| SessionRun {
        result: Err(ClientError::Io(e)),
        ops,
        acked: None,
        rows_per_s: 0.0,
        host_s: 0.0,
        batch_s: Vec::new(),
        wire_bytes: 0,
        spans: Spans::default(),
    };
    let read_half = match read_half {
        Ok(r) => r,
        Err(e) => return failed(e),
    };
    let mut reader = BufReader::new(TimedRead {
        inner: read_half,
        bytes: 0,
        first: None,
        calls: traced.then(Vec::new),
    });
    let mut writer = BufWriter::new(TimedWrite {
        inner: stream,
        bytes: 0,
        flushes: Vec::with_capacity(session.ops.len() / session.batch + 3),
        calls: traced.then(Vec::new),
    });
    let started = Instant::now();
    let result = replay_stream(
        &mut reader,
        &mut writer,
        &session.hello,
        &session.ops,
        session.batch,
    );
    let ended = Instant::now();
    let read = reader.into_inner();
    let write = match writer.into_inner() {
        Ok(w) => w,
        Err(e) => return failed(e.into_error()),
    };
    // Flushes are [Hello, Batch 1..=n, Bye]: batch k's round trip ends
    // when frame k + 1 leaves.
    let batch_s: Vec<f64> = write
        .flushes
        .windows(2)
        .skip(1)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();
    let acked = read.first;
    let rows_per_s = match acked {
        Some(t) => ops as f64 / ended.duration_since(t).as_secs_f64().max(1e-9),
        None => 0.0,
    };
    let spans = if traced {
        client_spans(started, ended, &write.flushes, read.calls, write.calls)
    } else {
        Spans::default()
    };
    SessionRun {
        result,
        ops,
        acked,
        rows_per_s,
        host_s: ended.duration_since(started).as_secs_f64(),
        batch_s,
        wire_bytes: read.bytes + write.bytes,
        spans,
    }
}

/// Builds the traced session's span tree: the session, one span per
/// batch round trip under it, and each socket call under the batch (or
/// the session) whose interval it started in.
fn client_spans(
    started: Instant,
    ended: Instant,
    flushes: &[Instant],
    reads: Option<Vec<Call>>,
    writes: Option<Vec<Call>>,
) -> Spans {
    let mut spans = Spans::default();
    let root = spans.push(Span {
        name: "client.session",
        start: ns_since_origin(started),
        end: ns_since_origin(ended),
        parent: None,
        batch: None,
    });
    let batches: Vec<(Instant, Instant)> =
        flushes.windows(2).skip(1).map(|w| (w[0], w[1])).collect();
    let ids: Vec<usize> = batches
        .iter()
        .enumerate()
        .map(|(k, &(start, end))| {
            spans.push(Span {
                name: "client.batch",
                start: ns_since_origin(start),
                end: ns_since_origin(end),
                parent: Some(root),
                batch: Some(k as u64),
            })
        })
        .collect();
    let mut calls: Vec<Call> = reads.into_iter().chain(writes).flatten().collect();
    calls.sort_by_key(|c| c.start);
    for call in calls {
        let k = batches.partition_point(|&(start, _)| start <= call.start);
        let owner = k
            .checked_sub(1)
            .filter(|&k| call.start < batches[k].1)
            .map(|k| (ids[k], k as u64));
        spans.push(Span {
            name: call.name,
            start: ns_since_origin(call.start),
            end: ns_since_origin(call.end),
            parent: Some(owner.map_or(root, |(id, _)| id)),
            batch: owner.map(|(_, k)| k),
        });
    }
    spans
}
