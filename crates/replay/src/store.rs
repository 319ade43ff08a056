//! A content-addressed store for demos.
//!
//! Explore corpora and CI failure archives accumulate many
//! near-identical demos: shards of the same workload differ in one
//! stream (usually QUEUE) while HEADER, SYSCALL and the rest are
//! byte-identical. The store deduplicates at stream granularity — each
//! encoded stream file is one blob named by its FNV-1a/128 content hash,
//! and a demo is just an `INDEX` line mapping its id to the hashes of
//! its streams, beside any labels its caller keeps with it:
//!
//! ```text
//! store/
//!   INDEX                 # demo=<id> <key>=<value>… HEADER=<hash> QUEUE=<hash> …
//!   blobs/<32 hex chars>  # one framed stream file each
//! ```
//!
//! The store keeps labels and never interprets them; an entry may hold
//! labels and no streams at all.
//!
//! Two demos sharing a stream share the blob. Reference counts are
//! derived from the index (no separate refcount file to corrupt);
//! [`DemoStore::remove`] garbage-collects blobs no entry references.
//! [`DemoStore::materialize`] rebuilds an ordinary demo directory by
//! hard-linking blobs under their stream names (copying when the
//! filesystem refuses links), so stored demos stay directly replayable.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec::fnv1a128;
use crate::demo::{Demo, DemoLoadError};

/// The content address of one encoded stream: FNV-1a/128 of the stream
/// file's bytes, rendered as 32 lowercase hex characters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamHash(pub u128);

impl StreamHash {
    /// Hashes an encoded stream file.
    #[must_use]
    pub fn of(bytes: &[u8]) -> StreamHash {
        StreamHash(fnv1a128(bytes))
    }

    /// Parses the 32-hex-character rendering.
    #[must_use]
    pub fn parse(s: &str) -> Option<StreamHash> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(StreamHash)
    }
}

impl fmt::Display for StreamHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A demo's index entry: stream file name → blob hash.
pub type StreamHashes = BTreeMap<String, StreamHash>;

/// What a caller keeps beside a stored demo: key → value. Neither may
/// contain whitespace or `=`, and a key may not be a stream name.
pub type Labels = BTreeMap<String, String>;

#[derive(Debug, Default)]
struct Entry {
    labels: Labels,
    streams: StreamHashes,
}

/// A content-addressed demo store rooted at one directory.
#[derive(Debug)]
pub struct DemoStore {
    root: PathBuf,
    entries: BTreeMap<String, Entry>,
}

impl DemoStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Filesystem errors; a malformed `INDEX` reports as
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(root: &Path) -> io::Result<DemoStore> {
        fs::create_dir_all(root.join("blobs"))?;
        let mut entries = BTreeMap::new();
        let index = root.join("INDEX");
        if index.exists() {
            let text = fs::read_to_string(&index)?;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (id, entry) = parse_index_line(line).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed store INDEX line {}: `{line}`", lineno + 1),
                    )
                })?;
                entries.insert(id, entry);
            }
        }
        Ok(DemoStore {
            root: root.to_owned(),
            entries,
        })
    }

    /// Inserts (or replaces) a demo under `id`, writing only the blobs
    /// not already present, and returns its stream hashes.
    ///
    /// # Errors
    ///
    /// Filesystem errors; an id that is not filesystem-safe reports as
    /// [`io::ErrorKind::InvalidInput`].
    pub fn insert(&mut self, id: &str, demo: &Demo) -> io::Result<StreamHashes> {
        self.insert_labeled(id, &Labels::new(), Some(demo))
    }

    /// Inserts (or replaces) the entry `id`: `labels`, plus the streams of
    /// `demo` when there is one. Returns the stream hashes.
    ///
    /// # Errors
    ///
    /// Filesystem errors; an id that is not filesystem-safe, or a label
    /// breaking the rules of [`Labels`], reports as
    /// [`io::ErrorKind::InvalidInput`].
    pub fn insert_labeled(
        &mut self,
        id: &str,
        labels: &Labels,
        demo: Option<&Demo>,
    ) -> io::Result<StreamHashes> {
        validate_id(id)?;
        validate_labels(labels)?;
        let mut streams = StreamHashes::new();
        for (name, bytes) in demo.map(Demo::to_bytes_map).unwrap_or_default() {
            let hash = StreamHash::of(&bytes);
            let blob = self.blob_path(hash);
            if !blob.exists() {
                fs::write(&blob, &bytes)?;
            }
            streams.insert(name, hash);
        }
        let entry = Entry {
            labels: labels.clone(),
            streams: streams.clone(),
        };
        self.entries.insert(id.to_owned(), entry);
        self.save_index()?;
        self.gc()?;
        Ok(streams)
    }

    /// Loads the demo stored under `id`, verifying each blob against its
    /// content hash.
    ///
    /// # Errors
    ///
    /// [`DemoLoadError`]; a missing id or corrupted blob reports as
    /// [`DemoLoadError::Io`] / [`DemoLoadError::Malformed`].
    pub fn load(&self, id: &str) -> Result<Demo, DemoLoadError> {
        let entry = self.entries.get(id).ok_or_else(|| DemoLoadError::Io {
            file: id.into(),
            source: io::Error::new(io::ErrorKind::NotFound, "no such demo in store"),
        })?;
        let mut map = BTreeMap::new();
        for (name, &hash) in &entry.streams {
            let bytes = fs::read(self.blob_path(hash)).map_err(|source| DemoLoadError::Io {
                file: name.clone(),
                source,
            })?;
            let actual = StreamHash::of(&bytes);
            if actual != hash {
                return Err(DemoLoadError::Malformed {
                    file: name.clone(),
                    err: format!("store blob corrupted: indexed {hash}, found {actual}"),
                });
            }
            map.insert(name.clone(), bytes);
        }
        Demo::from_bytes_map(&map)
    }

    /// Rebuilds an ordinary demo directory for `id` at `dest` by
    /// hard-linking blobs under their stream names (copying when the
    /// filesystem refuses the link). Stale stream files already in
    /// `dest` are removed.
    ///
    /// # Errors
    ///
    /// Filesystem errors; a missing id reports as
    /// [`io::ErrorKind::NotFound`].
    pub fn materialize(&self, id: &str, dest: &Path) -> io::Result<()> {
        let entry = self
            .entries
            .get(id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such demo in store"))?;
        fs::create_dir_all(dest)?;
        for name in crate::codec::StreamId::ALL.map(|s| s.file_name()) {
            let target = dest.join(name);
            match fs::remove_file(&target) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            if let Some(&hash) = entry.streams.get(name) {
                let blob = self.blob_path(hash);
                if fs::hard_link(&blob, &target).is_err() {
                    fs::copy(&blob, &target)?;
                }
            }
        }
        Ok(())
    }

    /// Removes the entry for `id` (if present) and garbage-collects
    /// blobs no remaining entry references. Returns whether the id
    /// existed.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn remove(&mut self, id: &str) -> io::Result<bool> {
        if self.entries.remove(id).is_none() {
            return Ok(false);
        }
        self.save_index()?;
        self.gc()?;
        Ok(true)
    }

    /// The stream hashes of the demo stored under `id`.
    #[must_use]
    pub fn streams(&self, id: &str) -> Option<&StreamHashes> {
        self.entries.get(id).map(|e| &e.streams)
    }

    /// The labels stored with `id`.
    #[must_use]
    pub fn labels(&self, id: &str) -> Option<&Labels> {
        self.entries.get(id).map(|e| &e.labels)
    }

    /// The directory the store is rooted at.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All stored demo ids, sorted.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of stored demos.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no demos.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries reference the blob `hash`.
    #[must_use]
    pub fn refcount(&self, hash: StreamHash) -> usize {
        self.entries
            .values()
            .flat_map(|e| e.streams.values())
            .filter(|&&h| h == hash)
            .count()
    }

    /// Number of distinct blobs on disk.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn blob_count(&self) -> io::Result<usize> {
        Ok(fs::read_dir(self.root.join("blobs"))?.count())
    }

    /// Total bytes of blob storage — what the store actually costs on
    /// disk, across all sharing.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for entry in fs::read_dir(self.root.join("blobs"))? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    }

    fn blob_path(&self, hash: StreamHash) -> PathBuf {
        self.root.join("blobs").join(hash.to_string())
    }

    fn save_index(&self) -> io::Result<()> {
        let mut out = String::new();
        for (id, entry) in &self.entries {
            out.push_str("demo=");
            out.push_str(id);
            for (key, value) in &entry.labels {
                out.push_str(&format!(" {key}={value}"));
            }
            for (name, hash) in &entry.streams {
                out.push_str(&format!(" {name}={hash}"));
            }
            out.push('\n');
        }
        fs::write(self.root.join("INDEX"), out)
    }

    /// Unlinks blobs no entry references.
    fn gc(&self) -> io::Result<()> {
        let live: BTreeSet<String> = self
            .entries
            .values()
            .flat_map(|e| e.streams.values())
            .map(StreamHash::to_string)
            .collect();
        for entry in fs::read_dir(self.root.join("blobs"))? {
            let entry = entry?;
            if !live.contains(&entry.file_name().to_string_lossy().into_owned()) {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

fn parse_index_line(line: &str) -> Option<(String, Entry)> {
    let mut it = line.split_whitespace();
    let id = it.next()?.strip_prefix("demo=")?.to_owned();
    let mut entry = Entry::default();
    for field in it {
        let (key, value) = field.split_once('=')?;
        if crate::codec::StreamId::from_file_name(key).is_some() {
            let hash = StreamHash::parse(value)?;
            entry.streams.insert(key.to_owned(), hash);
        } else if !key.is_empty() && !value.contains('=') {
            entry.labels.insert(key.to_owned(), value.to_owned());
        } else {
            return None;
        }
    }
    Some((id, entry))
}

fn validate_labels(labels: &Labels) -> io::Result<()> {
    let token = |s: &str| !s.contains(|c: char| c.is_whitespace() || c == '=');
    for (key, value) in labels {
        let ok = !key.is_empty()
            && token(key)
            && token(value)
            && crate::codec::StreamId::from_file_name(key).is_none();
        if !ok {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store label `{key}` = `{value}` is not a key=value token"),
            ));
        }
    }
    Ok(())
}

fn validate_id(id: &str) -> io::Result<()> {
    let ok = !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ','))
        && id != "."
        && id != "..";
    if ok {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("demo id `{id}` is not filesystem-safe"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoHeader;
    use crate::streams::{QueueStream, SyscallRecord};
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srr-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_with_syscall(strategy: &str, payload: &[u8]) -> Demo {
        let mut d = Demo::new(DemoHeader::new("tsan11rec", strategy, [7, 9]));
        d.queue = Arc::new(QueueStream::new(vec![1], vec![0]));
        Arc::make_mut(&mut d.syscalls).push(SyscallRecord {
            seq: 0,
            tid: 0,
            tick: 1,
            kind: "recv".into(),
            ret: payload.len() as i64,
            errno: 0,
            bufs: vec![payload.to_vec()],
        });
        d
    }

    #[test]
    fn insert_load_roundtrips() {
        let root = tmp("roundtrip");
        let mut store = DemoStore::open(&root).unwrap();
        let d = demo_with_syscall("queue", b"hello");
        store.insert("a", &d).unwrap();
        assert_eq!(store.load("a").unwrap(), d);
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn identical_streams_share_blobs() {
        let root = tmp("dedup");
        let mut store = DemoStore::open(&root).unwrap();
        let d = demo_with_syscall("queue", b"hello");
        let h1 = store.insert("a", &d).unwrap();
        let h2 = store.insert("b", &d).unwrap();
        assert_eq!(h1, h2, "identical demos must share every hash");
        // 3 streams (HEADER, QUEUE, SYSCALL), stored once each.
        assert_eq!(store.blob_count().unwrap(), 3);
        assert_eq!(store.refcount(h1["SYSCALL"]), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn near_identical_demos_share_common_streams() {
        let root = tmp("partial");
        let mut store = DemoStore::open(&root).unwrap();
        let a = demo_with_syscall("queue", b"hello");
        let mut b = a.clone();
        // Only the QUEUE differs.
        b.queue = Arc::new(QueueStream::new(vec![1, 2], vec![2, 0]));
        let ha = store.insert("a", &a).unwrap();
        let hb = store.insert("b", &b).unwrap();
        assert_eq!(ha["HEADER"], hb["HEADER"]);
        assert_eq!(ha["SYSCALL"], hb["SYSCALL"]);
        assert_ne!(ha["QUEUE"], hb["QUEUE"]);
        assert_eq!(store.blob_count().unwrap(), 4);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remove_gcs_unreferenced_blobs_only() {
        let root = tmp("gc");
        let mut store = DemoStore::open(&root).unwrap();
        let a = demo_with_syscall("queue", b"hello");
        let mut b = a.clone();
        b.queue = Arc::new(QueueStream::new(vec![1, 2], vec![2, 0]));
        store.insert("a", &a).unwrap();
        store.insert("b", &b).unwrap();
        assert!(store.remove("a").unwrap());
        assert!(!store.remove("a").unwrap(), "double remove is a no-op");
        // b's three blobs survive; a's unique QUEUE blob is gone.
        assert_eq!(store.blob_count().unwrap(), 3);
        assert_eq!(store.load("b").unwrap(), b);
        assert!(store.load("a").is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn index_persists_across_reopen() {
        let root = tmp("reopen");
        let d = demo_with_syscall("queue", b"hello");
        {
            let mut store = DemoStore::open(&root).unwrap();
            store.insert("a", &d).unwrap();
        }
        let store = DemoStore::open(&root).unwrap();
        assert_eq!(store.ids().collect::<Vec<_>>(), vec!["a"]);
        assert_eq!(store.load("a").unwrap(), d);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn materialized_dir_is_a_loadable_demo() {
        let root = tmp("mat");
        let mut store = DemoStore::open(&root).unwrap();
        let d = demo_with_syscall("queue", b"hello");
        store.insert("a", &d).unwrap();
        let dest = root.join("out");
        store.materialize("a", &dest).unwrap();
        assert_eq!(Demo::load_dir(&dest).unwrap(), d);
        assert!(store.materialize("missing", &dest).is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_blob_is_detected_on_load() {
        let root = tmp("corrupt");
        let mut store = DemoStore::open(&root).unwrap();
        let d = demo_with_syscall("queue", b"hello");
        let hashes = store.insert("a", &d).unwrap();
        let blob = root.join("blobs").join(hashes["SYSCALL"].to_string());
        let mut bytes = fs::read(&blob).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&blob, bytes).unwrap();
        match store.load("a") {
            Err(DemoLoadError::Malformed { file, err }) => {
                assert_eq!(file, "SYSCALL");
                assert!(err.contains("corrupted"), "err: {err}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsafe_ids_are_rejected() {
        let root = tmp("ids");
        let mut store = DemoStore::open(&root).unwrap();
        let d = demo_with_syscall("queue", b"x");
        for bad in ["", "..", "a/b", "a b", "a\\b"] {
            assert!(store.insert(bad, &d).is_err(), "id `{bad}` accepted");
        }
        store.insert("ok-id_0.9", &d).unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stream_hash_parses_its_rendering() {
        let h = StreamHash::of(b"bytes");
        assert_eq!(StreamHash::parse(&h.to_string()), Some(h));
        assert_eq!(StreamHash::parse("xyz"), None);
        assert_eq!(StreamHash::parse(&"a".repeat(31)), None);
    }

    #[test]
    fn labels_persist_beside_streams_and_alone() {
        let root = tmp("labels");
        let d = demo_with_syscall("queue", b"hello");
        let labels: Labels = [("seed", "7"), ("sig", "race:x%20y")]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        {
            let mut store = DemoStore::open(&root).unwrap();
            let hashes = store.insert_labeled("a", &labels, Some(&d)).unwrap();
            assert_eq!(store.streams("a"), Some(&hashes), "streams only");
            store.insert_labeled("recipe", &labels, None).unwrap();
        }
        let index = fs::read_to_string(root.join("INDEX")).unwrap();
        assert!(
            index.contains("demo=recipe seed=7 sig=race:x%20y\n"),
            "{index}"
        );
        let store = DemoStore::open(&root).unwrap();
        assert_eq!(store.labels("a"), Some(&labels));
        assert_eq!(store.load("a").unwrap(), d);
        assert_eq!(store.labels("recipe"), Some(&labels));
        assert!(store.streams("recipe").unwrap().is_empty());
        assert_eq!(store.blob_count().unwrap(), 3, "a recipe stores no blobs");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn labels_that_would_not_parse_back_are_refused() {
        let root = tmp("badlabels");
        let mut store = DemoStore::open(&root).unwrap();
        for (key, value) in [
            ("QUEUE", "x"),
            ("a b", "x"),
            ("a=b", "x"),
            ("k", "x y"),
            ("k", "x=y"),
            ("", "x"),
        ] {
            let labels = Labels::from([(key.to_owned(), value.to_owned())]);
            let err = store.insert_labeled("a", &labels, None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "`{key}`=`{value}`");
        }
        assert!(store.is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn malformed_index_is_invalid_data() {
        let root = tmp("badindex");
        fs::create_dir_all(root.join("blobs")).unwrap();
        fs::write(root.join("INDEX"), "not an index line\n").unwrap();
        let err = DemoStore::open(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&root).unwrap();
    }
}
