//! Typed events for the demo streams, with their text export lines.

use std::collections::VecDeque;
use std::fmt;

use crate::rle;

/// An asynchronous signal pinned to logical time (§4.3).
///
/// Export line (the paper's own example): `2 5 15` — thread 2 receives
/// signal 15 at tick 5. On replay the thread raises the signal itself at
/// the end of its `Tick()` for that tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignalEvent {
    /// Receiving thread.
    pub tid: u32,
    /// The tick value seen at the thread's most recent `Tick()`.
    pub tick: u64,
    /// Signal number.
    pub signo: i32,
}

impl SignalEvent {
    pub(crate) fn to_line(self) -> String {
        format!("{} {} {}", self.tid, self.tick, self.signo)
    }
}

/// One recorded system call (§4.4) as an owned value: return value,
/// errno and every output buffer the call filled. A [`SyscallStream`]
/// holds records in a layout of its own; this is what a caller builds
/// one from ([`SyscallStream::extend`]) or copies one out as
/// ([`Syscall::to_record`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallRecord {
    /// Global sequence number among recorded syscalls.
    pub seq: u64,
    /// Issuing thread.
    pub tid: u32,
    /// Tick of the syscall's critical section.
    pub tick: u64,
    /// Syscall kind name (e.g. `recv`, `poll`), at most
    /// [`crate::codec::MAX_KIND_LEN`] bytes: a demo holding a longer one
    /// does not load.
    pub kind: String,
    /// The return value to enforce on replay.
    pub ret: i64,
    /// The errno value to enforce on replay.
    pub errno: i32,
    /// Output buffers, in the syscall's argument order.
    pub bufs: Vec<Vec<u8>>,
}

impl SyscallRecord {
    /// Every field but the buffers, borrowed.
    pub(crate) fn head(&self) -> SyscallHead<'_> {
        SyscallHead {
            seq: self.seq,
            tid: self.tid,
            tick: self.tick,
            kind: &self.kind,
            ret: self.ret,
            errno: self.errno,
        }
    }
}

/// A recorded syscall's fields other than its buffers, with its kind
/// name borrowed: what [`SyscallStream::push`] takes beside the buffers,
/// and what a [`Syscall`] read back carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyscallHead<'a> {
    /// Global sequence number among recorded syscalls.
    pub seq: u64,
    /// Issuing thread.
    pub tid: u32,
    /// Tick of the syscall's critical section.
    pub tick: u64,
    /// Syscall kind name.
    pub kind: &'a str,
    /// The return value to enforce on replay.
    pub ret: i64,
    /// The errno value to enforce on replay.
    pub errno: i32,
}

/// The fixed-width part of one [`SyscallStream`] record: 40 bytes.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SyscallRow {
    pub(crate) seq: u64,
    pub(crate) tick: u64,
    pub(crate) ret: i64,
    pub(crate) tid: u32,
    pub(crate) errno: i32,
    /// Index into the stream's kind table.
    pub(crate) kind: u32,
    /// End of the record's buffers in the stream's buffer table: its
    /// buffers follow the previous record's.
    pub(crate) bufs_end: u32,
}

const _: () = assert!(std::mem::size_of::<SyscallRow>() == 40);

/// The SYSCALL stream (§4.4): every recorded syscall, in global order.
///
/// Each record is one fixed-width 40-byte row (seq, tick, ret, tid,
/// errno, an index into the stream's kind table and the end of its
/// buffers), and its output buffers are ranges of one byte arena. A kind
/// name is held once per stream however many records use it, and a
/// buffer costs its bytes and a 4-byte end offset, so no record owns an
/// allocation. A recording appends with [`SyscallStream::push`],
/// borrowing the kind and buffers, and is trimmed to length
/// ([`SyscallStream::shrink_to_fit`]) when it ends; replay reads records
/// in place with [`SyscallStream::get`]. An empty stream is one null
/// pointer and holds no heap. The arena and the buffer table are
/// indexed by `u32`: a stream holds at most 4 GiB of buffer bytes.
///
/// Equality is record by record, whatever order the kind tables list
/// the kinds in.
#[derive(Clone, Default, Eq)]
pub struct SyscallStream {
    /// `None` until the first record.
    tables: Option<Box<Tables>>,
}

/// The arrays of a non-empty [`SyscallStream`].
#[derive(Clone, Default, PartialEq, Eq)]
struct Tables {
    rows: Vec<SyscallRow>,
    /// The kind names, back to back; kind `i` ends at `kind_ends[i]`.
    kind_names: String,
    kind_ends: Vec<u32>,
    /// Buffer `j` of the stream ends at `buf_ends[j]` in `arena`.
    buf_ends: Vec<u32>,
    arena: Vec<u8>,
}

/// What an empty [`SyscallStream`] reads.
static EMPTY: Tables = Tables {
    rows: Vec::new(),
    kind_names: String::new(),
    kind_ends: Vec::new(),
    buf_ends: Vec::new(),
    arena: Vec::new(),
};

/// `len` as a `u32` offset of a [`SyscallStream`] table.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a SYSCALL stream indexes its tables by u32")
}

/// The range `ends[i - 1]..ends[i]` (from 0 for `i == 0`).
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

impl Tables {
    fn kind_name(&self, kind: usize) -> &str {
        &self.kind_names[span(&self.kind_ends, kind)]
    }
}

impl SyscallStream {
    fn tables(&self) -> &Tables {
        self.tables.as_deref().unwrap_or(&EMPTY)
    }

    /// Recorded syscalls in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables().rows.len()
    }

    /// Whether no syscall was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one record: `head.kind` is interned into the kind table,
    /// and each of `bufs` is copied into the arena.
    pub fn push<'b>(&mut self, head: SyscallHead<'_>, bufs: impl IntoIterator<Item = &'b [u8]>) {
        let t = self.tables.get_or_insert_with(Box::default);
        let kind = match (0..t.kind_ends.len()).find(|&i| t.kind_name(i) == head.kind) {
            Some(i) => i,
            None => {
                t.kind_names.push_str(head.kind);
                t.kind_ends.push(offset(t.kind_names.len()));
                t.kind_ends.len() - 1
            }
        };
        for buf in bufs {
            t.arena.extend_from_slice(buf);
            t.buf_ends.push(offset(t.arena.len()));
        }
        t.rows.push(SyscallRow {
            seq: head.seq,
            tick: head.tick,
            ret: head.ret,
            tid: head.tid,
            errno: head.errno,
            kind: offset(kind),
            bufs_end: offset(t.buf_ends.len()),
        });
    }

    /// The record at `index`, borrowed from the stream.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Syscall<'_>> {
        let t = self.tables();
        let row = t.rows.get(index)?;
        let first = match index {
            0 => 0,
            _ => t.rows[index - 1].bufs_end as usize,
        };
        Some(Syscall {
            head: SyscallHead {
                seq: row.seq,
                tid: row.tid,
                tick: row.tick,
                kind: t.kind_name(row.kind as usize),
                ret: row.ret,
                errno: row.errno,
            },
            ends: &t.buf_ends[first..row.bufs_end as usize],
            start: match first {
                0 => 0,
                _ => t.buf_ends[first - 1],
            },
            arena: &t.arena,
        })
    }

    /// Every record, in stream order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Syscall<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("an index below len"))
    }

    /// Drops the spare capacity a recording grew: the stream then holds
    /// exactly its rows, kinds and bytes.
    pub fn shrink_to_fit(&mut self) {
        if let Some(t) = &mut self.tables {
            t.rows.shrink_to_fit();
            t.kind_names.shrink_to_fit();
            t.kind_ends.shrink_to_fit();
            t.buf_ends.shrink_to_fit();
            t.arena.shrink_to_fit();
        }
    }

    /// The kind table, in table order.
    pub(crate) fn kinds(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let t = self.tables();
        (0..t.kind_ends.len()).map(|i| t.kind_name(i))
    }

    /// The rows, in stream order.
    pub(crate) fn rows(&self) -> &[SyscallRow] {
        &self.tables().rows
    }

    /// Every buffer of the stream, in stream order.
    pub(crate) fn all_bufs(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let t = self.tables();
        (0..t.buf_ends.len()).map(|j| &t.arena[span(&t.buf_ends, j)])
    }

    /// A stream from its parts, which the caller has checked: every
    /// kind index names a table entry, `bufs_end` never decreases and
    /// stays within `buf_ends`, and `buf_ends` never decreases and stays
    /// within `arena`.
    pub(crate) fn from_parts(
        rows: Vec<SyscallRow>,
        kind_names: String,
        kind_ends: Vec<u32>,
        buf_ends: Vec<u32>,
        arena: Vec<u8>,
    ) -> Self {
        SyscallStream {
            tables: Some(Box::new(Tables {
                rows,
                kind_names,
                kind_ends,
                buf_ends,
                arena,
            })),
        }
    }
}

impl PartialEq for SyscallStream {
    fn eq(&self, other: &Self) -> bool {
        // Streams pushed or decoded alike share one layout; otherwise
        // (kind tables in another order, say) compare record by record.
        self.tables() == other.tables()
            || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl fmt::Debug for SyscallStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Extend<SyscallRecord> for SyscallStream {
    fn extend<I: IntoIterator<Item = SyscallRecord>>(&mut self, records: I) {
        for rec in records {
            self.push(rec.head(), rec.bufs.iter().map(Vec::as_slice));
        }
    }
}

impl FromIterator<SyscallRecord> for SyscallStream {
    fn from_iter<I: IntoIterator<Item = SyscallRecord>>(records: I) -> Self {
        let mut stream = SyscallStream::default();
        stream.extend(records);
        stream
    }
}

/// One record of a [`SyscallStream`], borrowed from it.
#[derive(Clone, Copy)]
pub struct Syscall<'a> {
    /// Every field but the buffers.
    pub head: SyscallHead<'a>,
    /// Where each of the record's buffers ends in `arena`.
    ends: &'a [u32],
    /// Where its first buffer starts.
    start: u32,
    arena: &'a [u8],
}

impl<'a> Syscall<'a> {
    /// The output buffers, in the syscall's argument order.
    pub fn bufs(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + Clone + 'a {
        let arena = self.arena;
        let mut start = self.start as usize;
        self.ends.iter().map(move |&end| {
            let buf = &arena[start..end as usize];
            start = end as usize;
            buf
        })
    }

    /// The record as an owned value.
    #[must_use]
    pub fn to_record(self) -> SyscallRecord {
        let h = self.head;
        SyscallRecord {
            seq: h.seq,
            tid: h.tid,
            tick: h.tick,
            kind: h.kind.to_owned(),
            ret: h.ret,
            errno: h.errno,
            bufs: self.bufs().map(<[u8]>::to_vec).collect(),
        }
    }

    pub(crate) fn to_lines(self) -> String {
        let h = self.head;
        let mut out = format!(
            "syscall {} {} {} {} ret={} errno={} nbufs={}\n",
            h.seq,
            h.tid,
            h.tick,
            h.kind,
            h.ret,
            h.errno,
            self.ends.len()
        );
        for b in self.bufs() {
            out.push_str("buf ");
            out.push_str(&b.len().to_string());
            out.push(' ');
            out.push_str(&rle::encode_bytes(b));
            out.push('\n');
        }
        out
    }
}

impl PartialEq for Syscall<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.bufs().eq(other.bufs())
    }
}

impl fmt::Debug for Syscall<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Syscall")
            .field("head", &self.head)
            .field("bufs", &self.bufs().collect::<Vec<_>>())
            .finish()
    }
}

/// An asynchronous event (§4.5): not wrapped in `Wait()`/`Tick()`, floated
/// to the preceding tick on replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AsyncEvent {
    /// A liveness-forced reschedule (§3.3) at the given tick.
    Reschedule {
        /// The tick whose critical section the reschedule followed.
        tick: u64,
    },
    /// A disabled thread re-enabled by signal arrival (§4.5) at the
    /// given tick.
    SignalWakeup {
        /// The woken thread.
        tid: u32,
        /// The tick at which the wakeup was applied.
        tick: u64,
    },
}

impl AsyncEvent {
    /// The tick this event is floated to.
    #[must_use]
    pub fn tick(self) -> u64 {
        match self {
            AsyncEvent::Reschedule { tick } | AsyncEvent::SignalWakeup { tick, .. } => tick,
        }
    }

    pub(crate) fn to_line(self) -> String {
        match self {
            AsyncEvent::Reschedule { tick } => format!("reschedule {tick}"),
            AsyncEvent::SignalWakeup { tid, tick } => format!("sigwakeup {tid} {tick}"),
        }
    }
}

/// The queue-strategy interleaving (§4.2), as runs.
///
/// `first_tick[i]` holds, for each thread in creation order, the first tick
/// at which the thread is scheduled (0 = never scheduled). Every critical
/// section then has a *next tick*: whichever thread leaves the section of
/// tick `k` is next scheduled at that tick (0 = never again). Critical
/// sections are totally ordered, so "order of leaving" equals tick order,
/// and the next ticks form one sequence indexed by tick.
///
/// That sequence is held as maximal [`QueueRun`]s of equal *step*, the
/// next tick minus the section's own tick: a thread that runs ten times
/// in a row is one run of step 1, and so is a whole round robin of
/// threads with step n. In memory a stream costs 16 bytes a run, not 8
/// a tick, and on disk a few bytes a run. Runs are canonical (no zero
/// count, no two adjacent runs of one step), so one schedule has one
/// stream and one encoding.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStream {
    /// First scheduled tick per thread id (index = tid).
    pub first_tick: Vec<u64>,
    /// The next ticks, as maximal runs of equal step.
    runs: Vec<QueueRun>,
    /// Critical sections, the sum of the run counts.
    ticks: u64,
}

/// `count` consecutive critical sections of a [`QueueStream`] whose
/// threads all run next `step` ticks after their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueRun {
    /// The next tick minus the section's own tick: 1 when the thread
    /// runs again at once, [`QueueRun::NEVER`] when it never does.
    pub step: u64,
    /// Sections in the run, at least 1.
    pub count: u64,
}

impl QueueRun {
    /// The step of a section whose thread is never scheduled again.
    pub const NEVER: u64 = 0;

    /// The next tick of a section of this run whose own tick is `own`
    /// (0 = never again).
    #[must_use]
    pub fn next_tick(self, own: u64) -> u64 {
        next_of(own, self.step)
    }
}

/// The step of the section of tick `own` whose thread next runs at
/// `next`. For each `own` this is a bijection on `u64`: "never" (0)
/// keeps step 0, and `own` itself, which no valid stream names, takes
/// the step 0 would otherwise get, so any sequence round-trips.
fn step_of(own: u64, next: u64) -> u64 {
    if next == 0 {
        QueueRun::NEVER
    } else if next == own {
        own.wrapping_neg()
    } else {
        next.wrapping_sub(own)
    }
}

/// Inverts [`step_of`].
fn next_of(own: u64, step: u64) -> u64 {
    if step == QueueRun::NEVER {
        return 0;
    }
    match own.wrapping_add(step) {
        0 => own,
        next => next,
    }
}

/// Appends one section of `step` to `runs`, merging it into the last
/// run when that has the same step.
fn push_step(runs: &mut Vec<QueueRun>, step: u64) {
    match runs.last_mut() {
        Some(last) if last.step == step => last.count += 1,
        _ => runs.push(QueueRun { step, count: 1 }),
    }
}

impl QueueStream {
    /// The stream whose critical section of tick `k` has next tick
    /// `next_ticks[k - 1]`.
    #[must_use]
    pub fn new(first_tick: Vec<u64>, next_ticks: impl IntoIterator<Item = u64>) -> Self {
        let mut runs = Vec::new();
        let mut ticks = 0;
        for next in next_ticks {
            ticks += 1;
            push_step(&mut runs, step_of(ticks, next));
        }
        QueueStream {
            first_tick,
            runs,
            ticks,
        }
    }

    /// A stream from runs the caller has checked to be canonical,
    /// with `ticks` their total count.
    pub(crate) fn from_canonical_runs(
        first_tick: Vec<u64>,
        runs: Vec<QueueRun>,
        ticks: u64,
    ) -> Self {
        QueueStream {
            first_tick,
            runs,
            ticks,
        }
    }

    /// The critical sections the stream schedules.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The next ticks as maximal runs, in tick order.
    #[must_use]
    pub fn runs(&self) -> &[QueueRun] {
        &self.runs
    }

    /// The next tick of every critical section, in tick order.
    pub fn next_ticks(&self) -> impl Iterator<Item = u64> + '_ {
        let mut own = 0u64;
        self.runs.iter().flat_map(move |run| {
            let start = own;
            own += run.count;
            (1..=run.count).map(move |i| next_of(start + i, run.step))
        })
    }

    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("first ");
        out.push_str(&rle::encode_u64s(self.first_tick.iter().copied()));
        out.push('\n');
        out.push_str("ticks ");
        out.push_str(&rle::encode_u64s(self.next_ticks()));
        out.push('\n');
        out
    }

    /// Builds the stream from an explicit schedule: `(tid, tick)` pairs
    /// in tick order, ticks dense from 1. The inverse of
    /// [`QueueStream::schedule_order`] — `from_order(&s.schedule_order(),
    /// n)` reproduces `s` for any well-formed stream. This is how
    /// synthesized (rather than recorded) interleavings become demos.
    ///
    /// `nthreads` sizes the `first_tick` table; threads never scheduled
    /// keep the 0 ("never") sentinel.
    #[must_use]
    pub fn from_order(order: &[(u32, u64)], nthreads: usize) -> Self {
        let mut builder = QueueBuilder::default();
        for &(tid, tick) in order {
            builder.push(tid, tick);
        }
        builder.finish(nthreads)
    }

    /// Returns `true` if no scheduling information was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first_tick.is_empty() && self.runs.is_empty()
    }

    /// The recorded schedule as `(tid, tick)` pairs in tick order, found
    /// by walking the per-thread due ticks the way replay does: the
    /// thread due at tick `k` runs section `k` and then takes that
    /// section's next tick as its next due tick. Stops at the first tick
    /// no thread is due for (a corrupt or truncated stream ends the walk
    /// early rather than erroring — diagnostics compare against whatever
    /// prefix is reconstructible).
    pub fn schedule(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let mut due = self.first_tick.clone();
        let mut next_ticks = self.next_ticks();
        let mut k = 0u64;
        std::iter::from_fn(move || {
            let next = next_ticks.next()?;
            k += 1;
            let tid = due.iter().position(|&d| d == k)?;
            due[tid] = next;
            Some((tid as u32, k))
        })
    }

    /// [`QueueStream::schedule`], collected.
    #[must_use]
    pub fn schedule_order(&self) -> Vec<(u32, u64)> {
        self.schedule().collect()
    }
}

/// Reads a [`QueueStream`]'s next ticks in tick order a run at a time,
/// for the replaying scheduler: O(1) per tick, with no allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueCursor {
    /// Index of the run holding the last section read.
    run: usize,
    /// Sections before that run.
    start: u64,
}

impl QueueCursor {
    /// The next tick of the critical section of tick `k` (from 1), or
    /// `None` past the end of `stream`. Reading ticks in increasing
    /// order costs O(1) each; an earlier tick restarts the walk.
    pub fn next_tick(&mut self, stream: &QueueStream, k: u64) -> Option<u64> {
        let idx = k.checked_sub(1)?;
        if idx < self.start {
            *self = QueueCursor::default();
        }
        loop {
            let run = stream.runs.get(self.run)?;
            if idx - self.start < run.count {
                return Some(next_of(k, run.step));
            }
            self.start += run.count;
            self.run += 1;
        }
    }
}

/// Sections a [`QueueBuilder`] keeps individually while their threads
/// may still run again, at the least; an older section whose thread has
/// not becomes a run of its own.
const OPEN_WINDOW: usize = 16;

/// A section in the builder's window.
#[derive(Clone, Copy, Debug)]
enum Section {
    /// Its thread has not run since: the next tick is not known yet.
    Open(u32),
    /// Its step is known.
    Closed(u64),
}

/// Where a thread's newest section is.
#[derive(Clone, Copy, Debug, Default)]
enum Newest {
    /// The thread has not run yet.
    #[default]
    Nowhere,
    /// In the window, at this section index (from 0).
    Window(u64),
    /// A one-section run of its own at this index, for the section of
    /// tick `own`.
    Run { run: usize, own: u64 },
}

/// Writes a [`QueueStream`] as runs, one critical section at a time in
/// tick order. The recorder feeds it as the run goes, so the QUEUE
/// stream is the only per-tick record a recording keeps, and it costs a
/// run, not a tick.
///
/// A section's step is known only when its thread next runs. Sections
/// wait in a window of [`OPEN_WINDOW`] sections or two per thread,
/// whichever is more, so a round robin of all threads closes each
/// section inside it. Each thread's newest section is found through a
/// per-thread index and closed in O(1), and closed sections at the
/// window's front merge into the last run. A section still open when it
/// leaves the window (a thread parked in `join`, say) becomes a
/// one-section run, patched in place when its thread runs. So the
/// builder holds O(runs + threads) entries, and
/// [`QueueBuilder::finish`] merges it to canonical maximal runs.
#[derive(Clone, Debug, Default)]
pub struct QueueBuilder {
    first_tick: Vec<u64>,
    runs: Vec<QueueRun>,
    /// Whether the last run is an open section evicted from the window.
    tail_open: bool,
    window: VecDeque<Section>,
    /// Sections before the window's front.
    base: u64,
    /// Per thread id: its newest section.
    newest: Vec<Newest>,
}

impl QueueBuilder {
    /// Appends the critical section of `tick`, run by thread `tid`.
    pub fn push(&mut self, tid: u32, tick: u64) {
        let t = tid as usize;
        if t >= self.newest.len() {
            self.newest.resize(t + 1, Newest::Nowhere);
            self.first_tick.resize(t + 1, 0);
        }
        match self.newest[t] {
            Newest::Nowhere => self.first_tick[t] = tick,
            Newest::Window(idx) => {
                self.window[(idx - self.base) as usize] = Section::Closed(step_of(idx + 1, tick));
            }
            Newest::Run { run, own } => {
                self.runs[run].step = step_of(own, tick);
                if run + 1 == self.runs.len() {
                    self.tail_open = false;
                }
            }
        }
        self.newest[t] = Newest::Window(self.base + self.window.len() as u64);
        self.window.push_back(Section::Open(tid));
        self.settle();
    }

    /// Moves closed sections off the window's front into the runs, and
    /// an open one too once the window is full.
    fn settle(&mut self) {
        loop {
            match self.window.front() {
                Some(&Section::Closed(step)) => {
                    self.window.pop_front();
                    self.base += 1;
                    self.close_into_tail(step);
                }
                Some(&Section::Open(tid))
                    if self.window.len() > OPEN_WINDOW.max(2 * self.newest.len()) =>
                {
                    self.window.pop_front();
                    self.base += 1;
                    self.newest[tid as usize] = Newest::Run {
                        run: self.runs.len(),
                        own: self.base,
                    };
                    // "Never again" until its thread runs.
                    self.runs.push(QueueRun {
                        step: QueueRun::NEVER,
                        count: 1,
                    });
                    self.tail_open = true;
                }
                _ => return,
            }
        }
    }

    fn close_into_tail(&mut self, step: u64) {
        if self.tail_open {
            self.runs.push(QueueRun { step, count: 1 });
            self.tail_open = false;
        } else {
            push_step(&mut self.runs, step);
        }
    }

    /// The finished stream: `first_tick` sized for `nthreads` threads,
    /// every section still open marked "never again", and the runs
    /// merged to maximal ones and trimmed to their length.
    #[must_use]
    pub fn finish(mut self, nthreads: usize) -> QueueStream {
        // Evicted sections already say "never"; the tail is closed now.
        self.tail_open = false;
        while let Some(section) = self.window.pop_front() {
            let step = match section {
                Section::Open(_) => QueueRun::NEVER,
                Section::Closed(step) => step,
            };
            self.close_into_tail(step);
        }
        // A patched one-section run may equal its neighbours.
        self.runs.dedup_by(|run, prev| {
            let same = run.step == prev.step;
            if same {
                prev.count += run.count;
            }
            same
        });
        self.runs.shrink_to_fit();
        self.first_tick.resize(nthreads, 0);
        let ticks = self.runs.iter().map(|r| r.count).sum();
        QueueStream {
            first_tick: self.first_tick,
            runs: self.runs,
            ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_lines_follow_the_paper() {
        let e = SignalEvent {
            tid: 2,
            tick: 5,
            signo: 15,
        };
        assert_eq!(e.to_line(), "2 5 15");
        assert_eq!(AsyncEvent::Reschedule { tick: 9 }.to_line(), "reschedule 9");
        let wakeup = AsyncEvent::SignalWakeup { tid: 3, tick: 12 };
        assert_eq!(wakeup.to_line(), "sigwakeup 3 12");
        assert_eq!(AsyncEvent::Reschedule { tick: 9 }.tick(), 9);
        assert_eq!(wakeup.tick(), 12);
    }

    #[test]
    fn queue_stream_exports_its_next_ticks() {
        let q = QueueStream::new(vec![1, 2, 9], [3, 4, 5, 0, 0]);
        assert_eq!(q.to_text(), "first 1+1 9\nticks 3+2 0*2\n");
        assert!(!q.is_empty());
        assert!(QueueStream::default().is_empty());
        assert_eq!(QueueStream::default().to_text(), "first \nticks \n");
    }

    #[test]
    fn queue_stream_holds_maximal_runs() {
        // T0 runs ticks 1-4, T1 tick 5, T0 tick 6, then both retire.
        let q = QueueStream::new(vec![1, 5], [2, 3, 4, 6, 0, 0]);
        let run = |step, count| QueueRun { step, count };
        assert_eq!(q.runs(), [run(1, 3), run(2, 1), run(QueueRun::NEVER, 2)]);
        assert_eq!(q.ticks(), 6);
        assert_eq!(q.next_ticks().collect::<Vec<_>>(), vec![2, 3, 4, 6, 0, 0]);
        // A round robin of three threads is one run of step 3.
        let q = QueueStream::new(vec![1, 2, 3], (4..=30).chain([0, 0, 0]));
        assert_eq!(q.runs(), [run(3, 27), run(QueueRun::NEVER, 3)]);
    }

    #[test]
    fn every_next_tick_round_trips_through_its_step() {
        for own in [1, 2, 7, u64::MAX - 1, u64::MAX] {
            for next in [
                0,
                1,
                own - 1,
                own,
                own.wrapping_add(1),
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(
                    next_of(own, step_of(own, next)),
                    next,
                    "own {own} next {next}"
                );
            }
        }
        assert_eq!(step_of(5, 0), QueueRun::NEVER);
        assert_eq!(step_of(5, 6), 1);
        // The never-valid self reference keeps its own symbol.
        assert_ne!(step_of(5, 5), QueueRun::NEVER);
    }

    #[test]
    fn cursor_walks_the_runs_in_tick_order() {
        let next = [2, 3, 4, 6, 0, 0, 9, 0, 0];
        let q = QueueStream::new(vec![1, 5, 8], next);
        let mut cursor = QueueCursor::default();
        for (k, &want) in (1..).zip(&next) {
            assert_eq!(cursor.next_tick(&q, k), Some(want), "tick {k}");
        }
        assert_eq!(cursor.next_tick(&q, 10), None);
        assert_eq!(cursor.next_tick(&q, 0), None);
        // An earlier tick restarts the walk.
        assert_eq!(cursor.next_tick(&q, 4), Some(6));
    }

    #[test]
    fn queue_stream_schedule_order() {
        // T0 runs ticks 1,3; T1 runs ticks 2,4; then both retire (0).
        let q = QueueStream::new(vec![1, 2], [3, 4, 0, 0]);
        assert_eq!(q.schedule_order(), vec![(0, 1), (1, 2), (0, 3), (1, 4)]);
        // Truncating the stream truncates the reconstructible prefix.
        let cut = QueueStream::new(vec![1, 2], [3, 4]);
        assert_eq!(cut.schedule_order(), vec![(0, 1), (1, 2)]);
        assert!(QueueStream::default().schedule_order().is_empty());
    }

    #[test]
    fn from_order_inverts_schedule_order() {
        // Dense ticks 1..=8: T0 runs 1,3,5; T1 runs 2,4,6; T2 runs 7,8.
        let q = QueueStream::new(vec![1, 2, 7], [3, 4, 5, 6, 0, 0, 8, 0]);
        let order = q.schedule_order();
        assert_eq!(QueueStream::from_order(&order, 3), q);
        // Unscheduled threads keep the 0 sentinel.
        let q = QueueStream::from_order(&[(0, 1), (2, 2)], 4);
        assert_eq!(q.first_tick, vec![1, 0, 2, 0]);
        assert_eq!(q.next_ticks().collect::<Vec<_>>(), vec![0, 0]);
        assert_eq!(QueueStream::from_order(&[], 0), QueueStream::default());
    }

    #[test]
    fn builder_closes_each_threads_newest_section() {
        let mut b = QueueBuilder::default();
        b.push(1, 1);
        b.push(0, 2);
        b.push(1, 3);
        // T1's first section is closed (step 2) and, at the window's
        // front, already a run; the newest section of each thread waits.
        assert_eq!(b.runs, [QueueRun { step: 2, count: 1 }]);
        assert_eq!(b.window.len(), 2);
        assert_eq!(b.first_tick, vec![2, 1]);
        let q = b.finish(3);
        assert_eq!(q.first_tick, vec![2, 1, 0]);
        assert_eq!(q.runs.capacity(), q.runs.len());
        assert_eq!(q.schedule_order(), vec![(1, 1), (0, 2), (1, 3)]);
        assert_eq!(q, QueueStream::new(vec![2, 1, 0], [3, 0, 0]));
    }

    #[test]
    fn builder_evicts_a_section_left_open_and_patches_it() {
        // T0 runs tick 1, T1 runs alone far past the window, then T0
        // runs once more: its first section is a run patched in place.
        let solo = 10 * OPEN_WINDOW as u64;
        let mut order = vec![(0, 1)];
        order.extend((2..2 + solo).map(|k| (1, k)));
        order.push((0, 2 + solo));
        let mut b = QueueBuilder::default();
        for &(tid, tick) in &order[..order.len() - 1] {
            b.push(tid, tick);
            assert!(b.window.len() <= OPEN_WINDOW, "{} open", b.window.len());
        }
        assert!(b.tail_open || b.runs.len() == 2, "{:?}", b.runs);
        b.push(0, 2 + solo);
        let q = b.finish(2);
        let next: Vec<u64> = std::iter::once(2 + solo)
            .chain(3..2 + solo)
            .chain([0, 0])
            .collect();
        assert_eq!(q, QueueStream::new(vec![1, 2], next));
        assert_eq!(q.schedule_order(), order);
    }

    #[test]
    fn builder_holds_runs_not_ticks() {
        // 1M sections over three threads taking turns, beside a fourth
        // that runs once and then stays parked for the whole run.
        const TICKS: u64 = 1_000_000;
        let tid_of = |k: u64| if k == 1 { 3 } else { (k % 3) as u32 };
        let mut b = QueueBuilder::default();
        let mut most = 0;
        for k in 1..=TICKS {
            b.push(tid_of(k), k);
            most = most.max(b.runs.len() + b.window.len() + b.newest.len());
        }
        assert!(most <= OPEN_WINDOW + 8, "held {most} entries");
        let q = b.finish(4);
        let order: Vec<(u32, u64)> = (1..=TICKS).map(|k| (tid_of(k), k)).collect();
        // The reference: next ticks linked once the whole schedule is known.
        let mut first = vec![0; 4];
        let mut next = vec![0; TICKS as usize];
        let mut last: Vec<Option<usize>> = vec![None; 4];
        for (idx, &(tid, tick)) in order.iter().enumerate() {
            match last[tid as usize] {
                None => first[tid as usize] = tick,
                Some(prev) => next[prev] = tick,
            }
            last[tid as usize] = Some(idx);
        }
        assert_eq!(q, QueueStream::new(first, next));
        assert!(q.runs().len() <= 4, "{:?}", q.runs());
        assert_eq!(q.ticks(), TICKS);
    }

    #[test]
    fn builder_keeps_a_round_robin_of_many_threads_in_one_run() {
        // More threads than the window's floor, taking turns: each
        // section closes inside the window, two sections per thread.
        const THREADS: u64 = 3 * OPEN_WINDOW as u64;
        let mut b = QueueBuilder::default();
        let mut most = 0;
        for k in 1..=100 * THREADS {
            b.push((k % THREADS) as u32, k);
            most = most.max(b.runs.len());
        }
        assert!(most <= 2, "held {most} runs");
        let q = b.finish(THREADS as usize);
        let run = |step, count| QueueRun { step, count };
        assert_eq!(
            q.runs(),
            [run(THREADS, 99 * THREADS), run(QueueRun::NEVER, THREADS)]
        );
    }

    #[test]
    fn queue_stream_uses_rle() {
        let q = QueueStream::new(vec![1], 2..1000);
        let text = q.to_text();
        assert!(text.len() < 40, "RLE should collapse the run: {text}");
    }

    #[test]
    fn syscall_records_export_a_line_per_buffer() {
        let rec = SyscallRecord {
            seq: 7,
            tid: 0,
            tick: 3,
            kind: "recv".into(),
            ret: -1,
            errno: 11, // EAGAIN
            bufs: vec![vec![b'x'; 100], vec![]],
        };
        let stream: SyscallStream = [rec].into_iter().collect();
        assert_eq!(
            stream.get(0).unwrap().to_lines(),
            "syscall 7 0 3 recv ret=-1 errno=11 nbufs=2\nbuf 100 006478\nbuf 0 \n"
        );
    }

    fn call(seq: u64, kind: &str, bufs: &[&[u8]]) -> SyscallRecord {
        SyscallRecord {
            seq,
            tid: (seq % 3) as u32,
            tick: 10 * seq,
            kind: kind.into(),
            ret: seq as i64 - 2,
            errno: (seq % 2) as i32,
            bufs: bufs.iter().map(|b| b.to_vec()).collect(),
        }
    }

    #[test]
    fn syscall_stream_reads_back_what_was_pushed() {
        let recs = [
            call(0, "recv", &[b"hello"]),
            call(1, "poll", &[]),
            call(2, "recv", &[b"", b"world"]),
            call(3, "", &[b""]),
        ];
        let stream: SyscallStream = recs.iter().cloned().collect();
        assert_eq!(stream.len(), 4);
        let back: Vec<SyscallRecord> = stream.iter().map(|c| c.to_record()).collect();
        assert_eq!(back, recs);
        assert_eq!(stream.get(4), None);
        // One table entry per kind, one arena for every buffer.
        assert_eq!(stream.kinds().collect::<Vec<_>>(), ["recv", "poll", ""]);
        assert_eq!(stream.tables().arena, b"helloworld");
        assert_eq!(stream.tables().buf_ends, [5, 5, 10, 10]);
        let third = stream.get(2).unwrap();
        assert_eq!(third.bufs().len(), 2);
        assert_eq!(third.bufs().nth(1), Some(&b"world"[..]));
        assert_eq!(stream.get(1).unwrap().bufs().next(), None);
    }

    #[test]
    fn syscall_streams_compare_record_by_record() {
        let a: SyscallStream = [call(0, "recv", &[b"x"]), call(1, "send", &[])]
            .into_iter()
            .collect();
        // The same records over a kind table in another order.
        let mut b = SyscallStream::from_parts(
            Vec::new(),
            "sendrecv".into(),
            vec![4, 8],
            Vec::new(),
            Vec::new(),
        );
        b.extend([call(0, "recv", &[b"x"]), call(1, "send", &[])]);
        assert_ne!(a.tables().kind_names, b.tables().kind_names);
        assert_eq!(a, b);
        let c: SyscallStream = [call(0, "recv", &[b"y"]), call(1, "send", &[])]
            .into_iter()
            .collect();
        assert_ne!(a, c);
        // No buffer and one empty buffer differ.
        let none: SyscallStream = [call(0, "recv", &[])].into_iter().collect();
        let empty: SyscallStream = [call(0, "recv", &[b""])].into_iter().collect();
        assert_ne!(none, empty);
        assert_eq!(format!("{none:?}").matches("Syscall {").count(), 1);
    }

    #[test]
    fn trimmed_syscall_stream_holds_its_length() {
        let mut stream = SyscallStream::default();
        for seq in 0..100 {
            stream.push(
                SyscallHead {
                    seq,
                    tid: 0,
                    tick: seq,
                    kind: "recv",
                    ret: 3,
                    errno: 0,
                },
                [&b"abc"[..]],
            );
        }
        stream.shrink_to_fit();
        let t = stream.tables();
        assert_eq!(t.rows.capacity(), 100);
        assert_eq!(t.buf_ends.capacity(), 100);
        assert_eq!(t.arena.capacity(), 300);
        assert_eq!(t.kind_names, "recv");
        // An empty stream holds no heap, and is no larger than a `Vec`.
        assert!(SyscallStream::default().tables.is_none());
        assert!(std::mem::size_of::<SyscallStream>() <= std::mem::size_of::<Vec<u8>>());
    }
}
