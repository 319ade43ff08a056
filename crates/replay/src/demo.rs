//! The demo container: header plus the five streams, with directory and
//! in-memory serialization in two on-disk formats (compact framed
//! binary, the default; line-oriented text for fixtures and diffing).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::codec::{self, CodecError, StreamId};
use crate::rle;
use crate::streams::{parse_syscalls, AsyncEvent, QueueStream, SignalEvent, SyscallRecord};

/// Demo format version understood by this crate.
pub const FORMAT_VERSION: u32 = 1;

/// The two on-disk representations of a demo directory. Loading always
/// auto-detects per file (by the `SRRB` magic), so directories of either
/// format — or mixed ones — load transparently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DemoFormat {
    /// Line-oriented text streams: human-diffable, the import/export and
    /// fixture format.
    Text,
    /// Framed binary streams ([`crate::codec`]): compact, checksummed,
    /// decoded zero-copy. The default for everything written at runtime.
    #[default]
    Binary,
}

impl DemoFormat {
    /// The CLI spelling (`srr demo convert --to <name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DemoFormat::Text => "text",
            DemoFormat::Binary => "bin",
        }
    }

    /// Parses the CLI spelling.
    #[must_use]
    pub fn from_name(name: &str) -> Option<DemoFormat> {
        match name {
            "text" => Some(DemoFormat::Text),
            "bin" | "binary" => Some(DemoFormat::Binary),
            _ => None,
        }
    }
}

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

    fn from_text(text: &str) -> Result<Self, String> {
        let mut version = None;
        let mut tool = None;
        let mut strategy = None;
        let mut seeds = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(v) = line.strip_prefix("tsan11rec-demo v") {
                version = Some(v.parse().map_err(|_| format!("bad version `{v}`"))?);
            } else if let Some(t) = line.strip_prefix("tool ") {
                tool = Some(t.to_owned());
            } else if let Some(s) = line.strip_prefix("strategy ") {
                strategy = Some(s.to_owned());
            } else if let Some(s) = line.strip_prefix("seed ") {
                let mut it = s.split_whitespace();
                let a = it
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| format!("bad seed line `{line}`"))?;
                let b = it
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| format!("bad seed line `{line}`"))?;
                seeds = Some([a, b]);
            } else {
                return Err(format!("unknown HEADER line `{line}`"));
            }
        }
        let version = version.ok_or("missing version line")?;
        if version != FORMAT_VERSION {
            return Err(format!("unsupported demo version {version}"));
        }
        Ok(DemoHeader {
            version,
            tool: tool.ok_or("missing tool line")?,
            strategy: strategy.ok_or("missing strategy line")?,
            seeds: seeds.ok_or("missing seed line")?,
        })
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

    /// Serializes into the per-file text map (`HEADER`, `QUEUE`, ...).
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
        let mut put = |id: StreamId, payload: Vec<u8>| {
            map.insert(id.file_name().to_owned(), codec::encode_frame(id, &payload));
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
        map
    }

    /// Parses a per-file byte map, auto-detecting the format of each
    /// file: files starting with the `SRRB` magic decode through the
    /// binary codec, anything else parses as text. Mixed directories are
    /// fine. Missing stream files are treated as empty.
    ///
    /// # Errors
    ///
    /// [`DemoLoadError`] naming the offending file (with a line number
    /// for text streams, a typed [`CodecError`] for binary ones).
    pub fn from_bytes_map(map: &BTreeMap<String, Vec<u8>>) -> Result<Self, DemoLoadError> {
        let mut header = None;
        let mut queue = QueueStream::default();
        let mut signals = Vec::new();
        let mut syscalls = Vec::new();
        let mut async_events = Vec::new();
        let mut alloc = Vec::new();
        for (name, bytes) in map {
            let Some(id) = StreamId::from_file_name(name) else {
                continue; // side files (e.g. CONSOLE) are not streams
            };
            let file = name.clone();
            if codec::is_binary(bytes) {
                let frame = codec::parse_frame(bytes).map_err(|err| DemoLoadError::Codec {
                    file: file.clone(),
                    err,
                })?;
                if frame.stream != id {
                    return Err(DemoLoadError::Codec {
                        file,
                        err: CodecError::WrongStream {
                            expected: id,
                            found: frame.stream,
                        },
                    });
                }
                let codec_err = |err| DemoLoadError::Codec {
                    file: file.clone(),
                    err,
                };
                match id {
                    StreamId::Header => {
                        header = Some(codec::decode_header(&frame.payload).map_err(codec_err)?);
                    }
                    StreamId::Queue => {
                        queue = codec::decode_queue(&frame.payload).map_err(codec_err)?;
                    }
                    StreamId::Signal => {
                        signals = codec::decode_signals(&frame.payload).map_err(codec_err)?;
                    }
                    StreamId::Syscall => {
                        syscalls = codec::decode_syscalls(&frame.payload).map_err(codec_err)?;
                    }
                    StreamId::Async => {
                        async_events = codec::decode_asyncs(&frame.payload).map_err(codec_err)?;
                    }
                    StreamId::Alloc => {
                        alloc = codec::decode_alloc(&frame.payload).map_err(codec_err)?;
                    }
                }
            } else {
                let text = std::str::from_utf8(bytes).map_err(|_| DemoLoadError::Malformed {
                    file: file.clone(),
                    line: None,
                    err: "not UTF-8 and not a binary frame".into(),
                })?;
                let bad = |err: String| DemoLoadError::Malformed {
                    file: file.clone(),
                    line: None,
                    err,
                };
                match id {
                    StreamId::Header => {
                        header = Some(DemoHeader::from_text(text).map_err(bad)?);
                    }
                    StreamId::Queue => queue = QueueStream::from_text(text).map_err(bad)?,
                    StreamId::Signal => {
                        signals = parse_lines(text, &file, SignalEvent::from_line)?;
                    }
                    StreamId::Syscall => syscalls = parse_syscalls(text)?,
                    StreamId::Async => {
                        async_events = parse_lines(text, &file, AsyncEvent::from_line)?;
                    }
                    StreamId::Alloc => alloc = rle::decode_u64s(text).map_err(bad)?,
                }
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

    /// Parses the per-file text map produced by [`Demo::to_string_map`].
    ///
    /// Missing stream files are treated as empty (sparsity: a recording
    /// that captured no signals simply has no `SIGNAL` content).
    ///
    /// # Errors
    ///
    /// Returns [`DemoLoadError::Malformed`] naming the offending file.
    pub fn from_string_map(map: &BTreeMap<String, String>) -> Result<Self, DemoLoadError> {
        let bytes = map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone().into_bytes()))
            .collect();
        Demo::from_bytes_map(&bytes)
    }

    /// Writes the demo as a directory of stream files in the default
    /// (binary) format.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_dir(&self, dir: &Path) -> io::Result<()> {
        self.save_dir_as(dir, DemoFormat::default())
    }

    /// Writes the demo as a directory of stream files in the given
    /// format. Stream files the chosen serialization does not produce
    /// (empty streams in binary form) are deleted if present, so an
    /// in-place convert never leaves stale streams behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_dir_as(&self, dir: &Path, format: DemoFormat) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let files: BTreeMap<String, Vec<u8>> = match format {
            DemoFormat::Text => self
                .to_string_map()
                .into_iter()
                .map(|(k, v)| (k, v.into_bytes()))
                .collect(),
            DemoFormat::Binary => self.to_bytes_map(),
        };
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

    /// Loads a demo from a directory written by [`Demo::save_dir`] or
    /// [`Demo::save_dir_as`], auto-detecting each file's format.
    ///
    /// # Errors
    ///
    /// Returns [`DemoLoadError`] on IO failure or malformed content.
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

    /// Total serialized size in bytes in the default (binary) format —
    /// the paper's "demo file size" metric (§5.2).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes_as(DemoFormat::default())
    }

    /// Total serialized size in bytes in the given format.
    #[must_use]
    pub fn size_bytes_as(&self, format: DemoFormat) -> usize {
        match format {
            DemoFormat::Text => self.to_string_map().values().map(String::len).sum(),
            DemoFormat::Binary => self.to_bytes_map().values().map(Vec::len).sum(),
        }
    }

    /// Size in bytes of the `SYSCALL` stream alone, in the default
    /// (binary) format (§5.4 reports the syscall share of the game
    /// demos).
    #[must_use]
    pub fn syscall_bytes(&self) -> usize {
        self.to_bytes_map()
            .get(StreamId::Syscall.file_name())
            .map_or(0, Vec::len)
    }

    /// Per-stream summary statistics (one binary encode).
    #[must_use]
    pub fn stats(&self) -> DemoStats {
        let files = self.to_bytes_map();
        DemoStats {
            strategy: self.header.strategy.clone(),
            queue_entries: usize::try_from(self.queue.ticks()).unwrap_or(usize::MAX),
            signals: self.signals.len(),
            syscalls: self.syscalls.len(),
            async_events: self.async_events.len(),
            alloc_entries: self.alloc.len(),
            total_bytes: files.values().map(Vec::len).sum(),
            syscall_bytes: files.get(StreamId::Syscall.file_name()).map_or(0, Vec::len),
        }
    }
}

/// Summary of a demo's contents (what each stream captured and how much
/// it costs on disk) — the §5 discussions quote exactly these numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemoStats {
    /// Recording strategy.
    pub strategy: String,
    /// Critical sections the QUEUE stream schedules, one next tick each
    /// (0 for the random strategy).
    pub queue_entries: usize,
    /// SIGNAL events.
    pub signals: usize,
    /// SYSCALL records.
    pub syscalls: usize,
    /// ASYNC events.
    pub async_events: usize,
    /// ALLOC addresses (comprehensive recorders only).
    pub alloc_entries: usize,
    /// Total serialized bytes.
    pub total_bytes: usize,
    /// Bytes of the SYSCALL stream.
    pub syscall_bytes: usize,
}

impl fmt::Display for DemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} demo: {} bytes ({} syscall bytes); {} syscalls, {} signals, \
             {} async events, {} queue entries, {} alloc entries",
            self.strategy,
            self.total_bytes,
            self.syscall_bytes,
            self.syscalls,
            self.signals,
            self.async_events,
            self.queue_entries,
            self.alloc_entries
        )
    }
}

/// Parses a line-oriented text stream, attaching 1-based line numbers
/// to failures.
fn parse_lines<T>(
    text: &str,
    file: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, DemoLoadError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            parse(l).map_err(|err| DemoLoadError::Malformed {
                file: file.into(),
                line: Some(i + 1),
                err,
            })
        })
        .collect()
}

/// Failure to load a demo.
#[derive(Debug)]
pub enum DemoLoadError {
    /// The `HEADER` file is absent.
    MissingHeader,
    /// A text stream file exists but cannot be parsed.
    Malformed {
        /// The stream file name.
        file: String,
        /// 1-based line number of the offending line, when known.
        line: Option<usize>,
        /// Parse error description.
        err: String,
    },
    /// A binary stream file exists but cannot be decoded.
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
            DemoLoadError::Malformed {
                file,
                line: Some(line),
                err,
            } => write!(f, "malformed {file} line {line}: {err}"),
            DemoLoadError::Malformed {
                file,
                line: None,
                err,
            } => write!(f, "malformed {file}: {err}"),
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
    fn header_roundtrips() {
        let h = DemoHeader::new("tsan11rec", "random", [123, 456]);
        assert_eq!(DemoHeader::from_text(&h.to_text()).unwrap(), h);
    }

    #[test]
    fn header_rejects_wrong_version() {
        let text = "tsan11rec-demo v99\ntool t\nstrategy s\nseed 0 0\n";
        assert!(DemoHeader::from_text(text).is_err());
    }

    #[test]
    fn header_rejects_missing_fields() {
        assert!(DemoHeader::from_text("tsan11rec-demo v1\n").is_err());
        assert!(DemoHeader::from_text("tool t\nstrategy s\nseed 0 0\n").is_err());
    }

    #[test]
    fn string_map_roundtrips() {
        let d = sample_demo();
        let map = d.to_string_map();
        let back = Demo::from_string_map(&map).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn missing_stream_files_mean_empty_streams() {
        let d = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
        let mut map = d.to_string_map();
        map.remove("SIGNAL");
        map.remove("QUEUE");
        map.remove("ASYNC");
        map.remove("SYSCALL");
        map.remove("ALLOC");
        let back = Demo::from_string_map(&map).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn missing_header_is_an_error() {
        let map = BTreeMap::new();
        assert!(matches!(
            Demo::from_string_map(&map),
            Err(DemoLoadError::MissingHeader)
        ));
    }

    #[test]
    fn malformed_stream_names_the_file() {
        let d = sample_demo();
        let mut map = d.to_string_map();
        map.insert("SIGNAL".into(), "not a signal line\n".into());
        match Demo::from_string_map(&map) {
            Err(DemoLoadError::Malformed { file, .. }) => assert_eq!(file, "SIGNAL"),
            other => panic!("expected malformed SIGNAL, got {other:?}"),
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
        assert!(full.syscall_bytes() > 0);
        assert!(full.syscall_bytes() < full.size_bytes());
    }

    #[test]
    fn error_display_is_informative() {
        let e = DemoLoadError::Malformed {
            file: "QUEUE".into(),
            line: None,
            err: "boom".into(),
        };
        assert_eq!(e.to_string(), "malformed QUEUE: boom");
        let e = DemoLoadError::Malformed {
            file: "SYSCALL".into(),
            line: Some(12),
            err: "boom".into(),
        };
        assert_eq!(e.to_string(), "malformed SYSCALL line 12: boom");
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
    fn mixed_format_dir_loads() {
        let d = sample_demo();
        let mut map = d.to_bytes_map();
        // Replace two streams with their text form: auto-detect is per
        // file, so a half-converted directory still loads.
        let text = d.to_string_map();
        map.insert("HEADER".into(), text["HEADER"].clone().into_bytes());
        map.insert("SYSCALL".into(), text["SYSCALL"].clone().into_bytes());
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
    fn save_dir_as_converts_in_place_without_stale_streams() {
        let dir = std::env::temp_dir().join(format!("srr-demo-convert-{}", std::process::id()));
        let d = sample_demo();
        d.save_dir_as(&dir, DemoFormat::Text).unwrap();
        assert!(dir.join("SIGNAL").exists());
        // Text always writes all six files; converting a demo whose
        // signal stream is empty must delete the stale text SIGNAL.
        let mut sparse = d.clone();
        sparse.signals.clear();
        sparse.save_dir_as(&dir, DemoFormat::Binary).unwrap();
        assert!(!dir.join("SIGNAL").exists());
        assert_eq!(Demo::load_dir(&dir).unwrap(), sparse);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_line_errors_carry_line_numbers() {
        let d = sample_demo();
        let mut map = d.to_string_map();
        map.insert("SIGNAL".into(), "2 5 15\nnot a signal line\n".into());
        match Demo::from_string_map(&map) {
            Err(DemoLoadError::Malformed { file, line, .. }) => {
                assert_eq!(file, "SIGNAL");
                assert_eq!(line, Some(2));
            }
            other => panic!("expected malformed SIGNAL line 2, got {other:?}"),
        }
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
        assert!(d.size_bytes_as(DemoFormat::Binary) < d.size_bytes_as(DemoFormat::Text));
        assert_eq!(d.size_bytes(), d.size_bytes_as(DemoFormat::Binary));
    }

    #[test]
    fn demo_format_names_roundtrip() {
        assert_eq!(DemoFormat::from_name("text"), Some(DemoFormat::Text));
        assert_eq!(DemoFormat::from_name("bin"), Some(DemoFormat::Binary));
        assert_eq!(DemoFormat::from_name("binary"), Some(DemoFormat::Binary));
        assert_eq!(DemoFormat::from_name("nope"), None);
        for f in [DemoFormat::Text, DemoFormat::Binary] {
            assert_eq!(DemoFormat::from_name(f.name()), Some(f));
        }
    }
}
