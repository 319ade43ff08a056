//! The deduplicated, minimized finding corpus.
//!
//! One entry per [`Signature`]; each entry keeps the *smallest* known
//! reproduction — ordered by `(demo bytes, seed, strategy)`, with
//! demo-less recipes (strategies that cannot record) sorting last — and
//! evicts superseded demos from disk. Winner selection is a total order
//! over findings, so the corpus contents are independent of the order in
//! which workers race to report: the determinism half of the farm's
//! worker-count invariance.
//!
//! On disk, a corpus directory is a content-addressed [`DemoStore`]:
//! one store `INDEX` line per entry carries the entry's fields as
//! percent-escaped labels beside its stream hashes, the blobs are shared
//! across entries, and each entry that has a demo is materialized as a
//! subdirectory (stream files hard-linked out of the store, so entries
//! stay directly replayable with `srr replay --demo`). A recipe-only
//! entry (a strategy that cannot record) has labels and no streams.
//!
//! ```text
//! corpus/
//!   INDEX                           # demo=<id> seed=3 sig=… … QUEUE=<hash> …
//!   blobs/<hash>                    # shared across entries
//!   race_counter_0,1_ww-a1b2c3d4/   # sanitized signature + fnv tag
//!     HEADER QUEUE SYSCALL ...      # links into blobs/
//!   .spool/                         # the farm workers' finding demos
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use srr_replay::{Demo, DemoStore, Labels};

use crate::protocol::Finding;
use crate::signature::{escape, unescape, Signature};

/// The retained reproduction for one signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Workload that produced the finding.
    pub workload: String,
    /// Strategy of the winning reproduction.
    pub strategy: String,
    /// Seed of the winning reproduction.
    pub seed: u64,
    /// Demo size in bytes (`None` for recipe-only entries).
    pub demo_bytes: Option<u64>,
    /// Subdirectory (relative to the corpus dir) holding the demo.
    pub demo_subdir: Option<String>,
}

impl CorpusEntry {
    /// The minimization key: smaller is better, demo-less sorts last.
    fn rank(&self) -> (u64, u64, String) {
        (
            self.demo_bytes.unwrap_or(u64::MAX),
            self.seed,
            self.strategy.clone(),
        )
    }
}

/// What [`Corpus::offer`] did with a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offered {
    /// First reproduction of a new signature.
    Inserted,
    /// Smaller than the retained reproduction; the old one was evicted.
    Replaced,
    /// Not better than the retained reproduction; dropped.
    Kept,
}

/// The deduplicated corpus, optionally persisted to a directory.
#[derive(Debug, Default)]
pub struct Corpus {
    store: Option<DemoStore>,
    entries: BTreeMap<Signature, CorpusEntry>,
}

impl Corpus {
    /// An unpersisted corpus (dedup and minimization only).
    #[must_use]
    pub fn in_memory() -> Corpus {
        Corpus::default()
    }

    /// Opens (or creates) an on-disk corpus, loading any existing
    /// entries so repeated farm sessions accumulate.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or its store INDEX is
    /// unreadable; a malformed INDEX line or entry reports as
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(dir: &Path) -> io::Result<Corpus> {
        let store = DemoStore::open(dir)?;
        let mut entries = BTreeMap::new();
        for id in store.ids() {
            let (sig, entry) = entry_from_store(&store, id).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corpus entry `{id}`: {e}"),
                )
            })?;
            entries.insert(sig, entry);
        }
        Ok(Corpus {
            store: Some(store),
            entries,
        })
    }

    /// Offers a finding; keeps it only when it is the first or the
    /// smallest reproduction of its signature. The winning demo (if any)
    /// is imported from the worker's spool path into the corpus store
    /// and a superseded demo is deleted.
    ///
    /// # Errors
    ///
    /// Filesystem errors while importing or evicting demos; a spooled
    /// demo that does not load reports as [`io::ErrorKind::InvalidData`].
    pub fn offer(&mut self, workload: &str, finding: &Finding) -> io::Result<Offered> {
        let candidate = CorpusEntry {
            workload: workload.to_owned(),
            strategy: finding.strategy.clone(),
            seed: finding.seed,
            demo_bytes: finding.demo_bytes,
            demo_subdir: None,
        };
        let verdict = match self.entries.get(&finding.signature) {
            None => Offered::Inserted,
            Some(cur) if candidate.rank() < cur.rank() => Offered::Replaced,
            Some(_) => Offered::Kept,
        };
        if verdict == Offered::Kept {
            return Ok(Offered::Kept);
        }
        let mut winner = candidate;
        if let Some(store) = self.store.as_mut() {
            let demo = match &finding.demo_path {
                Some(spool) => Some(Demo::load_dir(Path::new(spool)).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("spool {spool}: {e}"))
                })?),
                None => None,
            };
            // One signature, one id: the new winner replaces the entry
            // and its demo directory, and the store drops blobs only the
            // superseded demo used.
            let id = entry_dir_name(&finding.signature);
            let dest = store.root().join(&id);
            let _ = std::fs::remove_dir_all(&dest);
            store.insert_labeled(&id, &labels(&finding.signature, &winner), demo.as_ref())?;
            if demo.is_some() {
                store.materialize(&id, &dest)?;
                winner.demo_subdir = Some(id);
            }
        }
        self.entries.insert(finding.signature.clone(), winner);
        Ok(verdict)
    }

    /// The content-addressed demo store backing an on-disk corpus
    /// (`None` for in-memory corpora).
    #[must_use]
    pub fn store(&self) -> Option<&DemoStore> {
        self.store.as_ref()
    }

    /// All signatures, sorted.
    #[must_use]
    pub fn signatures(&self) -> Vec<Signature> {
        self.entries.keys().cloned().collect()
    }

    /// Entry for a signature.
    #[must_use]
    pub fn entry(&self, sig: &Signature) -> Option<&CorpusEntry> {
        self.entries.get(sig)
    }

    /// All `(signature, entry)` pairs, sorted by signature.
    pub fn iter(&self) -> impl Iterator<Item = (&Signature, &CorpusEntry)> {
        self.entries.iter()
    }

    /// Number of distinct signatures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Percent-escapes `s` into a store label value: [`escape`], plus `=`.
fn label(s: &str) -> String {
    escape(s).replace('=', "%3D")
}

/// An entry's fields as store labels.
fn labels(sig: &Signature, e: &CorpusEntry) -> Labels {
    let mut labels = Labels::from([
        ("sig".to_owned(), label(&sig.encode())),
        ("workload".to_owned(), label(&e.workload)),
        ("strategy".to_owned(), label(&e.strategy)),
        ("seed".to_owned(), e.seed.to_string()),
    ]);
    if let Some(b) = e.demo_bytes {
        labels.insert("demo_bytes".to_owned(), b.to_string());
    }
    labels
}

/// The corpus entry stored under `id`; it has a demo directory when the
/// store holds streams for it.
fn entry_from_store(store: &DemoStore, id: &str) -> Result<(Signature, CorpusEntry), String> {
    let labels = store.labels(id).cloned().unwrap_or_default();
    let get = |k: &str| labels.get(k).ok_or_else(|| format!("no `{k}` label"));
    let number = |v: &String| v.parse().map_err(|_| format!("bad number `{v}`"));
    let has_demo = store.streams(id).is_some_and(|s| !s.is_empty());
    Ok((
        Signature::decode(&unescape(get("sig")?)?)?,
        CorpusEntry {
            workload: unescape(get("workload")?)?,
            strategy: unescape(get("strategy")?)?,
            seed: number(get("seed")?)?,
            demo_bytes: labels.get("demo_bytes").map(number).transpose()?,
            demo_subdir: has_demo.then(|| id.to_owned()),
        },
    ))
}

/// Deterministic, filesystem-safe directory name for a signature:
/// sanitized prefix for readability plus an FNV-1a tag for uniqueness.
fn entry_dir_name(sig: &Signature) -> String {
    let encoded = sig.encode();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in encoded.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let safe: String = encoded
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | ',' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{:08x}", hash as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureKind;
    use srr_replay::QueueStream;
    use std::sync::Arc;

    fn sig(detail: &str) -> Signature {
        Signature {
            kind: SignatureKind::Race,
            detail: detail.to_owned(),
        }
    }

    fn finding(detail: &str, seed: u64, bytes: Option<u64>, path: Option<&str>) -> Finding {
        Finding {
            task_id: 0,
            signature: sig(detail),
            strategy: "rnd".into(),
            seed,
            demo_bytes: bytes,
            demo_path: path.map(str::to_owned),
        }
    }

    #[test]
    fn keeps_the_smallest_reproduction() {
        let mut c = Corpus::in_memory();
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 9, Some(500), None))
                .unwrap(),
            Offered::Inserted
        );
        // Bigger demo: dropped.
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 1, Some(900), None))
                .unwrap(),
            Offered::Kept
        );
        // Smaller demo: replaces.
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 30, Some(200), None))
                .unwrap(),
            Offered::Replaced
        );
        // Equal bytes, smaller seed: replaces (total order, no ties by
        // arrival).
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 4, Some(200), None))
                .unwrap(),
            Offered::Replaced
        );
        assert_eq!(c.len(), 1);
        let e = c.entry(&sig("x|0,1|ww")).unwrap();
        assert_eq!((e.seed, e.demo_bytes), (4, Some(200)));
        // A recipe-only finding never beats a demo.
        assert_eq!(
            c.offer("w", &finding("x|0,1|ww", 0, None, None)).unwrap(),
            Offered::Kept
        );
    }

    #[test]
    fn winner_is_arrival_order_independent() {
        let findings = [
            finding("a|0,1|rw", 7, Some(300), None),
            finding("a|0,1|rw", 2, Some(300), None),
            finding("a|0,1|rw", 5, Some(100), None),
            finding("b|1,2|ww", 1, None, None),
        ];
        let mut orders = vec![findings.to_vec()];
        orders.push({
            let mut r = findings.to_vec();
            r.reverse();
            r
        });
        let mut winners = Vec::new();
        for order in orders {
            let mut c = Corpus::in_memory();
            for f in &order {
                c.offer("w", f).unwrap();
            }
            winners.push((c.signatures(), c.entry(&sig("a|0,1|rw")).cloned()));
        }
        assert_eq!(winners[0], winners[1]);
        assert_eq!(winners[0].1.as_ref().unwrap().seed, 5);
    }

    fn demo_with_queue(first: Vec<u64>, next: Vec<u64>) -> Demo {
        let mut demo = Demo::new(srr_replay::DemoHeader::new("tsan11rec", "queue", [3, 5]));
        demo.queue = Arc::new(QueueStream::new(first, next));
        demo
    }

    #[test]
    fn on_disk_corpus_imports_demos_and_evicts_losers() {
        let root = std::env::temp_dir().join(format!("srr-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let big = demo_with_queue(vec![1, 2, 3], vec![4, 5, 6, 0, 0, 0]);
        let small = demo_with_queue(vec![1], vec![0]);
        let (spool_a, spool_b) = (root.join("spool-a"), root.join("spool-b"));
        big.save_dir(&spool_a).unwrap();
        small.save_dir(&spool_b).unwrap();

        let dir = root.join("corpus");
        let mut c = Corpus::open(&dir).unwrap();
        c.offer("w", &finding("x|0,1|ww", 3, Some(17), spool_a.to_str()))
            .unwrap();
        let first_sub = c
            .entry(&sig("x|0,1|ww"))
            .unwrap()
            .demo_subdir
            .clone()
            .unwrap();
        assert_eq!(Demo::load_dir(&dir.join(&first_sub)).unwrap(), big);

        // Smaller demo replaces; the entry keeps its directory (one
        // signature, one name) and holds the new demo.
        c.offer("w", &finding("x|0,1|ww", 8, Some(5), spool_b.to_str()))
            .unwrap();
        let e = c.entry(&sig("x|0,1|ww")).unwrap().clone();
        assert_eq!(e.demo_bytes, Some(5));
        assert_eq!(e.demo_subdir.as_deref(), Some(first_sub.as_str()));
        assert_eq!(Demo::load_dir(&dir.join(&first_sub)).unwrap(), small);
        assert_eq!(
            c.store().unwrap().blob_count().unwrap(),
            small.to_bytes_map().len(),
            "the loser's blobs are gone"
        );
        // A recipe-only finding keeps its fields and no demo.
        c.offer("w", &finding("y|1,2|rw", 4, None, None)).unwrap();

        // Reopening loads every entry back from the store INDEX.
        let reopened = Corpus::open(&dir).unwrap();
        assert_eq!(reopened.signatures(), c.signatures());
        assert_eq!(reopened.entry(&sig("x|0,1|ww")), Some(&e));
        assert_eq!(reopened.entry(&sig("y|1,2|rw")), c.entry(&sig("y|1,2|rw")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fields_round_trip_through_labels_whatever_they_hold() {
        let root = std::env::temp_dir().join(format!("srr-corpus-labels-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut c = Corpus::open(&root).unwrap();
        let panic = Signature::panic("assertion `left == right` failed: a=1");
        let mut f = finding("_", 2, None, None);
        f.signature = panic.clone();
        f.strategy = "pct delay=3".into();
        c.offer("work load", &f).unwrap();
        let reopened = Corpus::open(&root).unwrap();
        assert_eq!(reopened.entry(&panic), c.entry(&panic));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_spool_that_does_not_load_is_an_error() {
        let root = std::env::temp_dir().join(format!("srr-corpus-badspool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spool = root.join("spool");
        std::fs::create_dir_all(&spool).unwrap();
        std::fs::write(spool.join("HEADER"), "not a frame").unwrap();
        let mut c = Corpus::open(&root.join("corpus")).unwrap();
        let err = c
            .offer("w", &finding("x|0,1|ww", 3, Some(17), spool.to_str()))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(c.is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_corpus_index_of_the_old_format_does_not_open() {
        let root = std::env::temp_dir().join(format!("srr-corpus-oldidx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let line = "sig=race:x|0,1|ww workload=w strategy=rnd seed=3 demo_bytes=- demo=-";
        std::fs::write(root.join("INDEX"), format!("{line}\n")).unwrap();
        let err = Corpus::open(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(line), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_spooled_demos_share_store_blobs() {
        let root = std::env::temp_dir().join(format!("srr-corpus-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // Two shards record byte-identical demos into separate spools.
        let demo = demo_with_queue(vec![1, 2], vec![3, 4, 0, 0]);
        let spool_a = root.join("t0_s3");
        let spool_b = root.join("t1_s3");
        demo.save_dir(&spool_a).unwrap();
        demo.save_dir(&spool_b).unwrap();

        let dir = root.join("corpus");
        let mut c = Corpus::open(&dir).unwrap();
        c.offer("w", &finding("x|0,1|ww", 3, Some(17), spool_a.to_str()))
            .unwrap();
        c.offer("w", &finding("y|1,2|rw", 3, Some(17), spool_b.to_str()))
            .unwrap();
        assert_eq!(c.len(), 2);

        // Two entries, one set of blobs: every stream hash is shared.
        let hb = {
            let store = c.store().expect("on-disk corpus has a store");
            assert_eq!(store.len(), 2);
            let ids: Vec<String> = store.ids().map(str::to_owned).collect();
            let ha = store.streams(&ids[0]).unwrap().clone();
            let hb = store.streams(&ids[1]).unwrap().clone();
            assert_eq!(ha, hb, "identical streams must share hashes");
            assert_eq!(store.blob_count().unwrap(), ha.len());
            for hash in ha.values() {
                assert_eq!(store.refcount(*hash), 2);
            }
            hb
        };

        // Both materialized entries still load as the original demo.
        for (sig_detail, _) in [("x|0,1|ww", ()), ("y|1,2|rw", ())] {
            let sub = c
                .entry(&sig(sig_detail))
                .unwrap()
                .demo_subdir
                .clone()
                .unwrap();
            assert_eq!(Demo::load_dir(&dir.join(sub)).unwrap(), demo);
        }

        // Evicting one entry keeps the shared blobs alive for the other.
        let spool_c = root.join("t2_s1");
        let mut smaller = demo.clone();
        smaller.queue = Default::default();
        smaller.save_dir(&spool_c).unwrap();
        c.offer("w", &finding("x|0,1|ww", 1, Some(5), spool_c.to_str()))
            .unwrap();
        let store = c.store().unwrap();
        let sub_b = c.entry(&sig("y|1,2|rw")).unwrap().demo_subdir.clone();
        assert_eq!(store.refcount(hb["QUEUE"]), 1, "y still references QUEUE");
        assert_eq!(
            Demo::load_dir(&dir.join(sub_b.unwrap())).unwrap(),
            demo,
            "surviving entry is intact after the shared-blob eviction"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn entry_dir_names_are_safe_and_distinct() {
        let a = entry_dir_name(&sig("counter cell|0,1|rw"));
        let b = entry_dir_name(&sig("counter cell|0,2|rw"));
        assert_ne!(a, b);
        for name in [&a, &b] {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | ',' | '-' | '_')),
                "{name}"
            );
        }
    }
}
