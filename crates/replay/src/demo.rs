//! The demo container: header plus the five streams, stored as a
//! directory of framed binary stream files ([`crate::codec`]), with a
//! line-oriented text rendering for export.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, CodecError, Packing, StreamId};
use crate::rle;
use crate::streams::{AsyncEvent, QueueStream, SignalEvent, SyscallRecord};

/// Demo format version understood by this crate.
pub const FORMAT_VERSION: u32 = 1;

/// Metadata identifying how a demo was recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoHeader {
    /// Format version.
    pub version: u32,
    /// Recording tool (`tsan11rec` or `rr-baseline`).
    pub tool: String,
    /// Scheduling strategy (`random`, `queue`, `pct`, `slice`).
    pub strategy: String,
    /// The two PRNG seeds (§4: "seeded by two calls to rdtsc()").
    pub seeds: [u64; 2],
}

impl DemoHeader {
    /// Creates a v1 header.
    #[must_use]
    pub fn new(tool: impl Into<String>, strategy: impl Into<String>, seeds: [u64; 2]) -> Self {
        DemoHeader {
            version: FORMAT_VERSION,
            tool: tool.into(),
            strategy: strategy.into(),
            seeds,
        }
    }

    fn to_text(&self) -> String {
        format!(
            "tsan11rec-demo v{}\ntool {}\nstrategy {}\nseed {} {}\n",
            self.version, self.tool, self.strategy, self.seeds[0], self.seeds[1]
        )
    }
}

/// A recorded execution: the constraints replay must satisfy.
///
/// The three streams that grow with the run (QUEUE per tick, SYSCALL
/// per recorded call, ALLOC per allocation) sit behind [`Arc`]: a
/// replay shares them with the scheduler, the syscall cursor and the
/// scripted allocator instead of copying them, and cloning a demo
/// copies none of them. Mutate one with [`Arc::make_mut`], which copies
/// only a stream that is shared at that moment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Demo {
    /// Recording metadata.
    pub header: DemoHeader,
    /// Queue-strategy interleaving (empty for the random strategy, whose
    /// interleaving is fully captured by the seeds).
    pub queue: Arc<QueueStream>,
    /// Asynchronous signals.
    pub signals: Vec<SignalEvent>,
    /// Recorded syscalls, in global order.
    pub syscalls: Arc<Vec<SyscallRecord>>,
    /// Asynchronous events (reschedules, signal wakeups).
    pub async_events: Vec<AsyncEvent>,
    /// Allocator address stream (comprehensive recorders only).
    pub alloc: Arc<Vec<u64>>,
}

impl Demo {
    /// An empty demo under the given header.
    #[must_use]
    pub fn new(header: DemoHeader) -> Self {
        Demo {
            header,
            queue: Arc::default(),
            signals: Vec::new(),
            syscalls: Arc::default(),
            async_events: Vec::new(),
            alloc: Arc::default(),
        }
    }

    /// Builds a queue-strategy demo from an explicit schedule — `(tid,
    /// tick)` pairs in tick order, ticks dense from 1 — instead of from
    /// a recording. Witness synthesis uses this to turn a reordered
    /// interleaving into a replayable demo; syscall records (whose global
    /// order replay matches by cursor) and other streams can then be
    /// filled in by the caller.
    #[must_use]
    pub fn from_schedule(header: DemoHeader, order: &[(u32, u64)], nthreads: usize) -> Self {
        let mut demo = Demo::new(header);
        demo.queue = Arc::new(QueueStream::from_order(order, nthreads));
        demo
    }

    /// Renders the demo as the per-file text map (`HEADER`, `QUEUE`,
    /// ...): the line-oriented export `srr demo export` writes, for
    /// reading and diffing. Nothing loads it back; the binary codec is
    /// the one on-disk format.
    #[must_use]
    pub fn to_string_map(&self) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        map.insert("HEADER".to_owned(), self.header.to_text());
        map.insert("QUEUE".to_owned(), self.queue.to_text());
        map.insert(
            "SIGNAL".to_owned(),
            self.signals.iter().map(|s| s.to_line() + "\n").collect(),
        );
        map.insert(
            "SYSCALL".to_owned(),
            self.syscalls.iter().map(SyscallRecord::to_lines).collect(),
        );
        map.insert(
            "ASYNC".to_owned(),
            self.async_events
                .iter()
                .map(|e| e.to_line() + "\n")
                .collect(),
        );
        map.insert(
            "ALLOC".to_owned(),
            rle::encode_u64s(self.alloc.iter().copied()) + "\n",
        );
        map
    }

    /// Serializes into the per-file binary map: each non-empty stream as
    /// one framed, checksummed file image ([`crate::codec`]). Empty
    /// streams are omitted (sparsity — a recording that captured no
    /// signals writes no `SIGNAL` file); the `HEADER` is always present.
    #[must_use]
    pub fn to_bytes_map(&self) -> BTreeMap<String, Vec<u8>> {
        let mut map = BTreeMap::new();
        self.encode_streams(|id, _, frame, _| {
            map.insert(id.file_name().to_owned(), frame);
        });
        map
    }

    /// Encodes each stream the demo writes, `HEADER` first, handing
    /// `each` the stream, its raw payload length, its frame and how the
    /// frame stores the payload.
    fn encode_streams(&self, mut each: impl FnMut(StreamId, usize, Vec<u8>, Packing)) {
        let mut put = |id: StreamId, payload: Vec<u8>| {
            let (frame, packing) = codec::frame_with_packing(id, &payload);
            each(id, payload.len(), frame, packing);
        };
        put(StreamId::Header, codec::encode_header(&self.header));
        if !self.queue.is_empty() {
            put(StreamId::Queue, codec::encode_queue(&self.queue));
        }
        if !self.signals.is_empty() {
            put(StreamId::Signal, codec::encode_signals(&self.signals));
        }
        if !self.syscalls.is_empty() {
            put(StreamId::Syscall, codec::encode_syscalls(&self.syscalls));
        }
        if !self.async_events.is_empty() {
            put(StreamId::Async, codec::encode_asyncs(&self.async_events));
        }
        if !self.alloc.is_empty() {
            put(StreamId::Alloc, codec::encode_alloc(&self.alloc));
        }
    }

    /// Decodes a per-file byte map of binary stream frames, `HEADER`
    /// first. A missing or zero-length stream file is an empty stream;
    /// files that are not streams (a `CONSOLE` beside them) are ignored.
    ///
    /// # Errors
    ///
    /// [`DemoLoadError::Codec`] naming the first file that does not
    /// decode ([`CodecError::BadMagic`] for one that is not a frame at
    /// all, such as a text export), or [`DemoLoadError::MissingHeader`].
    pub fn from_bytes_map(map: &BTreeMap<String, Vec<u8>>) -> Result<Self, DemoLoadError> {
        let mut header = None;
        let mut queue = QueueStream::default();
        let mut signals = Vec::new();
        let mut syscalls = Vec::new();
        let mut async_events = Vec::new();
        let mut alloc = Vec::new();
        for id in StreamId::ALL {
            let file = id.file_name();
            let Some(bytes) = map.get(file).filter(|b| !b.is_empty()) else {
                continue;
            };
            let codec_err = |err| DemoLoadError::Codec {
                file: file.to_owned(),
                err,
            };
            let frame = codec::parse_frame(bytes).map_err(codec_err)?;
            if frame.stream != id {
                return Err(codec_err(CodecError::WrongStream {
                    expected: id,
                    found: frame.stream,
                }));
            }
            let payload = &frame.payload;
            match id {
                StreamId::Header => {
                    header = Some(codec::decode_header(payload).map_err(codec_err)?);
                }
                StreamId::Queue => queue = codec::decode_queue(payload).map_err(codec_err)?,
                StreamId::Signal => signals = codec::decode_signals(payload).map_err(codec_err)?,
                StreamId::Syscall => {
                    syscalls = codec::decode_syscalls(payload).map_err(codec_err)?;
                }
                StreamId::Async => {
                    async_events = codec::decode_asyncs(payload).map_err(codec_err)?;
                }
                StreamId::Alloc => alloc = codec::decode_alloc(payload).map_err(codec_err)?,
            }
        }
        let header = header.ok_or(DemoLoadError::MissingHeader)?;
        Ok(Demo {
            header,
            queue: Arc::new(queue),
            signals,
            syscalls: Arc::new(syscalls),
            async_events,
            alloc: Arc::new(alloc),
        })
    }

    /// Writes the demo as a directory of binary stream files. Stream
    /// files it does not produce (empty streams) are deleted if present,
    /// so saving over an older demo never leaves stale streams behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let files = self.to_bytes_map();
        for id in StreamId::ALL {
            let path = dir.join(id.file_name());
            match files.get(id.file_name()) {
                Some(bytes) => fs::write(path, bytes)?,
                None => match fs::remove_file(path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
        }
        Ok(())
    }

    /// Loads a demo from a directory written by [`Demo::save_dir`].
    ///
    /// # Errors
    ///
    /// Returns [`DemoLoadError`] on IO failure or a stream that does not
    /// decode.
    pub fn load_dir(dir: &Path) -> Result<Self, DemoLoadError> {
        let mut map = BTreeMap::new();
        for id in StreamId::ALL {
            let name = id.file_name();
            match fs::read(dir.join(name)) {
                Ok(bytes) => {
                    map.insert(name.to_owned(), bytes);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(DemoLoadError::Io {
                        file: name.into(),
                        source: e,
                    })
                }
            }
        }
        Demo::from_bytes_map(&map)
    }

    /// Total serialized size in bytes — the paper's "demo file size"
    /// metric (§5.2).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.stats().total_bytes()
    }

    /// Entries in `stream`: one HEADER; for QUEUE, each thread's first
    /// tick and a next tick per critical section; otherwise one per
    /// event, record or address.
    #[must_use]
    pub fn entries(&self, stream: StreamId) -> u64 {
        match stream {
            StreamId::Header => 1,
            StreamId::Queue => self.queue.first_tick.len() as u64 + self.queue.ticks(),
            StreamId::Signal => self.signals.len() as u64,
            StreamId::Syscall => self.syscalls.len() as u64,
            StreamId::Async => self.async_events.len() as u64,
            StreamId::Alloc => self.alloc.len() as u64,
        }
    }

    /// Where the demo's bytes go, stream by stream (one binary encode,
    /// one frame held at a time).
    #[must_use]
    pub fn stats(&self) -> DemoStats {
        let mut streams = Vec::new();
        self.encode_streams(|stream, raw_bytes, frame, packing| {
            streams.push(StreamStats {
                stream,
                entries: self.entries(stream),
                raw_bytes,
                stored_bytes: frame.len(),
                packing,
            });
        });
        DemoStats {
            strategy: self.header.strategy.clone(),
            streams,
        }
    }
}

/// One stream's share of an encoded demo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// The stream.
    pub stream: StreamId,
    /// Its entries ([`Demo::entries`]).
    pub entries: u64,
    /// Bytes of its payload before packing.
    pub raw_bytes: usize,
    /// Bytes of its frame on disk.
    pub stored_bytes: usize,
    /// How the frame stores the payload.
    pub packing: Packing,
}

/// Summary of a demo's contents (what each stream captured and how much
/// it costs on disk) — the §5 discussions quote exactly these numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoStats {
    /// Recording strategy.
    pub strategy: String,
    /// Each stream the demo writes, `HEADER` first; an empty stream
    /// writes no file and has no row.
    pub streams: Vec<StreamStats>,
}

impl DemoStats {
    /// Total serialized bytes.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.streams.iter().map(|s| s.stored_bytes).sum()
    }

    /// The row of `stream`, if it writes a file.
    #[must_use]
    pub fn stream(&self, stream: StreamId) -> Option<&StreamStats> {
        self.streams.iter().find(|s| s.stream == stream)
    }

    /// Bytes `stream` takes on disk (0 when it writes no file).
    #[must_use]
    pub fn stored_bytes(&self, stream: StreamId) -> usize {
        self.stream(stream).map_or(0, |s| s.stored_bytes)
    }

    /// One row per stream the demo writes: entries, raw payload bytes,
    /// stored bytes, stored bytes per entry and the packing, then the
    /// totals.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<8} {:>9} {:>9} {:>9} {:>9}  packing\n",
            "stream", "entries", "raw", "stored", "B/entry"
        );
        for s in &self.streams {
            out += &format!(
                "{:<8} {:>9} {:>9} {:>9} {:>9.3}  {}\n",
                s.stream.file_name(),
                s.entries,
                s.raw_bytes,
                s.stored_bytes,
                s.stored_bytes as f64 / s.entries.max(1) as f64,
                s.packing
            );
        }
        out += &format!(
            "{:<8} {:>9} {:>9} {:>9}\n",
            "total",
            "",
            self.streams.iter().map(|s| s.raw_bytes).sum::<usize>(),
            self.total_bytes()
        );
        out
    }
}

impl fmt::Display for DemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = |id: StreamId| self.stream(id).map_or(0, |s| s.entries);
        write!(
            f,
            "{} demo: {} bytes ({} syscall bytes); {} syscalls, {} signals, \
             {} async events, {} queue entries, {} alloc entries",
            self.strategy,
            self.total_bytes(),
            self.stored_bytes(StreamId::Syscall),
            entries(StreamId::Syscall),
            entries(StreamId::Signal),
            entries(StreamId::Async),
            entries(StreamId::Queue),
            entries(StreamId::Alloc)
        )
    }
}

/// Failure to load a demo.
#[derive(Debug)]
pub enum DemoLoadError {
    /// The `HEADER` file is absent.
    MissingHeader,
    /// A stream's bytes are not what its source promised (a
    /// [`crate::DemoStore`] blob that no longer matches its hash).
    Malformed {
        /// The stream file name.
        file: String,
        /// What is wrong.
        err: String,
    },
    /// A stream file exists but does not decode.
    Codec {
        /// The stream file name.
        file: String,
        /// The typed decode failure.
        err: CodecError,
    },
    /// Filesystem error.
    Io {
        /// The stream file name.
        file: String,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for DemoLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemoLoadError::MissingHeader => write!(f, "demo has no HEADER file"),
            DemoLoadError::Malformed { file, err } => write!(f, "malformed {file}: {err}"),
            DemoLoadError::Codec { file, err } => write!(f, "cannot decode {file}: {err}"),
            DemoLoadError::Io { file, source } => write!(f, "cannot read {file}: {source}"),
        }
    }
}

impl Error for DemoLoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DemoLoadError::Io { source, .. } => Some(source),
            DemoLoadError::Codec { err, .. } => Some(err),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_demo() -> Demo {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", "queue", [7, 9]));
        d.queue = Arc::new(QueueStream::new(vec![1, 2], vec![3, 4, 0, 0]));
        d.signals.push(SignalEvent {
            tid: 2,
            tick: 5,
            signo: 15,
        });
        Arc::make_mut(&mut d.syscalls).push(SyscallRecord {
            seq: 0,
            tid: 1,
            tick: 3,
            kind: "recv".into(),
            ret: 10,
            errno: 0,
            bufs: vec![b"helloworld".to_vec()],
        });
        d.async_events.push(AsyncEvent::Reschedule { tick: 2 });
        d.async_events
            .push(AsyncEvent::SignalWakeup { tid: 0, tick: 4 });
        d.alloc = Arc::new(vec![4096, 8192, 12288]);
        d
    }

    #[test]
    fn string_map_is_the_text_export() {
        let map = sample_demo().to_string_map();
        let files: Vec<(&str, &str)> = map.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(
            files,
            [
                ("ALLOC", "4096 8192 12288\n"),
                ("ASYNC", "reschedule 2\nsigwakeup 0 4\n"),
                (
                    "HEADER",
                    "tsan11rec-demo v1\ntool tsan11rec\nstrategy queue\nseed 7 9\n"
                ),
                ("QUEUE", "first 1+1\nticks 3+1 0*2\n"),
                ("SIGNAL", "2 5 15\n"),
                (
                    "SYSCALL",
                    "syscall 0 1 3 recv ret=10 errno=0 nbufs=1\nbuf 10 010a68656c6c6f776f726c64\n"
                ),
            ]
        );
    }

    #[test]
    fn missing_and_empty_stream_files_mean_empty_streams() {
        let full = sample_demo().to_bytes_map();
        let mut map = BTreeMap::new();
        map.insert("HEADER".to_owned(), full["HEADER"].clone());
        // A zero-length file is an absent stream too.
        map.insert("SIGNAL".to_owned(), Vec::new());
        let back = Demo::from_bytes_map(&map).unwrap();
        assert_eq!(back, Demo::new(sample_demo().header));
    }

    #[test]
    fn missing_header_is_an_error() {
        let map = BTreeMap::new();
        assert!(matches!(
            Demo::from_bytes_map(&map),
            Err(DemoLoadError::MissingHeader)
        ));
    }

    #[test]
    fn text_stream_files_are_bad_magic_naming_the_file() {
        let d = sample_demo();
        let text = d.to_string_map();
        let mut map = d.to_bytes_map();
        map.insert("SYSCALL".into(), text["SYSCALL"].clone().into_bytes());
        match Demo::from_bytes_map(&map) {
            Err(DemoLoadError::Codec {
                file,
                err: CodecError::BadMagic { found },
            }) => {
                assert_eq!(file, "SYSCALL");
                assert_eq!(&found, b"sysc");
            }
            other => panic!("expected BadMagic on SYSCALL, got {other:?}"),
        }
        // A whole text export fails at its HEADER, the first stream read.
        let map = text.into_iter().map(|(k, v)| (k, v.into_bytes())).collect();
        match Demo::from_bytes_map(&map) {
            Err(DemoLoadError::Codec {
                file,
                err: CodecError::BadMagic { .. },
            }) => assert_eq!(file, "HEADER"),
            other => panic!("expected BadMagic on HEADER, got {other:?}"),
        }
    }

    #[test]
    fn dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("srr-demo-test-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir(&dir).unwrap();
        let back = Demo::load_dir(&dir).unwrap();
        assert_eq!(back, d);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_missing_header_errors() {
        let dir = std::env::temp_dir().join(format!("srr-demo-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Demo::load_dir(&dir),
            Err(DemoLoadError::MissingHeader)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_bytes_reflects_content() {
        let empty = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        let full = sample_demo();
        assert!(full.size_bytes() > empty.size_bytes());
        let stats = full.stats();
        assert_eq!(stats.total_bytes(), full.size_bytes());
        assert!(stats.stored_bytes(StreamId::Syscall) > 0);
        assert!(stats.stored_bytes(StreamId::Syscall) < full.size_bytes());
    }

    #[test]
    fn stats_show_where_the_bytes_go() {
        let mut d = sample_demo();
        Arc::make_mut(&mut d.syscalls)[0].bufs = vec![b"GET /index.html HTTP/1.1\n".repeat(40)];
        let stats = d.stats();
        let files = d.to_bytes_map();
        let mut written: Vec<StreamId> = files
            .keys()
            .map(|f| StreamId::from_file_name(f).unwrap())
            .collect();
        written.sort();
        assert_eq!(
            stats.streams.iter().map(|s| s.stream).collect::<Vec<_>>(),
            written,
            "a row per written stream, in stream order"
        );
        for s in &stats.streams {
            assert_eq!(s.stored_bytes, files[s.stream.file_name()].len());
            assert_eq!(s.entries, d.entries(s.stream));
        }
        let syscall = stats.stream(StreamId::Syscall).expect("a SYSCALL row");
        assert_ne!(syscall.packing, Packing::Plain);
        assert!(
            syscall.raw_bytes > 1000 && syscall.stored_bytes < 100,
            "{syscall:?}"
        );
        assert_eq!(stats.streams[0].packing, Packing::Plain);
        let table = stats.table();
        assert_eq!(table.lines().count(), 2 + stats.streams.len(), "{table}");
        assert!(table.contains("SYSCALL"), "{table}");
        assert!(table.contains(&syscall.packing.to_string()), "{table}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = DemoLoadError::Malformed {
            file: "QUEUE".into(),
            err: "boom".into(),
        };
        assert_eq!(e.to_string(), "malformed QUEUE: boom");
        let e = DemoLoadError::Codec {
            file: "SIGNAL".into(),
            err: CodecError::UnsupportedVersion(9),
        };
        assert!(e.to_string().contains("SIGNAL"));
        assert!(e.to_string().contains("version 9"));
        assert!(DemoLoadError::MissingHeader.to_string().contains("HEADER"));
    }

    #[test]
    fn bytes_map_roundtrips() {
        let d = sample_demo();
        let back = Demo::from_bytes_map(&d.to_bytes_map()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn bytes_map_omits_empty_streams() {
        let d = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        let map = d.to_bytes_map();
        assert_eq!(map.keys().collect::<Vec<_>>(), vec!["HEADER"]);
        assert_eq!(Demo::from_bytes_map(&map).unwrap(), d);
    }

    #[test]
    fn misnamed_stream_file_is_rejected() {
        let d = sample_demo();
        let mut map = d.to_bytes_map();
        let signal = map["SIGNAL"].clone();
        map.insert("ASYNC".into(), signal);
        match Demo::from_bytes_map(&map) {
            Err(DemoLoadError::Codec {
                file,
                err: CodecError::WrongStream { .. },
            }) => assert_eq!(file, "ASYNC"),
            other => panic!("expected WrongStream on ASYNC, got {other:?}"),
        }
    }

    #[test]
    fn save_dir_leaves_no_stale_streams() {
        let dir = std::env::temp_dir().join(format!("srr-demo-resave-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir(&dir).unwrap();
        assert!(dir.join("SIGNAL").exists());
        // Saving a demo whose signal stream is empty over it must
        // delete the old SIGNAL file.
        let mut sparse = d.clone();
        sparse.signals.clear();
        sparse.save_dir(&dir).unwrap();
        assert!(!dir.join("SIGNAL").exists());
        assert_eq!(Demo::load_dir(&dir).unwrap(), sparse);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let mut d = sample_demo();
        // Pad with a realistic syscall load so the comparison is not
        // dominated by the header.
        for i in 0..50 {
            Arc::make_mut(&mut d.syscalls).push(SyscallRecord {
                seq: i + 1,
                tid: 1,
                tick: 10 + i,
                kind: "recv".into(),
                ret: 64,
                errno: 0,
                bufs: vec![vec![0x61; 64]],
            });
        }
        let text: usize = d.to_string_map().values().map(String::len).sum();
        assert!(d.size_bytes() < text);
    }
}
