//! The demo model for sparse record and replay.
//!
//! A *demo* (§4 of the paper) is the recording of one execution: a set of
//! constraints the replay must satisfy. It is stored as a directory of
//! stream files mirroring the paper's streams:
//!
//! | File      | Contents |
//! |-----------|----------|
//! | `HEADER`  | tool, strategy, PRNG seeds, format version |
//! | `QUEUE`   | queue-strategy interleaving: first tick per thread + next-tick runs |
//! | `SIGNAL`  | `tid tick signo` per asynchronous signal |
//! | `SYSCALL` | per recorded syscall: kind, return value, errno, output buffers |
//! | `ASYNC`   | reschedule / signal-wakeup events floated to their tick |
//! | `ALLOC`   | (comprehensive tools only) the allocator's address stream |
//!
//! Each stream file is one framed, checksummed binary image ([`codec`]:
//! delta-coded varint payloads, DEFLATE-packed when that is smaller), and
//! the codec is the only reader: a file that is not such a frame fails
//! to load with a typed error naming it. A line-oriented text rendering
//! with run-length coded integers and buffers ([`Demo::to_string_map`],
//! [`rle`]) is written for reading and diffing, never loaded back.
//! [`DemoStore`] layers content-addressed, stream-deduplicated storage
//! on top for corpora and archives.
//!
//! The crate provides the typed event model ([`SignalEvent`],
//! [`SyscallRecord`], [`AsyncEvent`], [`QueueStream`]), serialization
//! ([`Demo::save_dir`] / [`Demo::load_dir`] and in-memory byte maps),
//! the text export, and the desynchronisation taxonomy ([`HardDesync`],
//! [`SoftDesync`]).
//!
//! # Example
//!
//! ```
//! use srr_replay::{Demo, DemoHeader, SignalEvent};
//!
//! let mut demo = Demo::new(DemoHeader::new("tsan11rec", "random", [1, 2]));
//! demo.signals.push(SignalEvent { tid: 2, tick: 5, signo: 15 });
//! let back = Demo::from_bytes_map(&demo.to_bytes_map()).unwrap();
//! assert_eq!(back, demo);
//! let text = demo.to_string_map();
//! assert_eq!(text["SIGNAL"], "2 5 15\n"); // the paper's own example line
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod demo;
mod desync;
mod lz;
pub mod rle;
mod store;
mod streams;

pub use codec::{CodecError, Packing, StreamId};
pub use demo::{Demo, DemoHeader, DemoLoadError, DemoStats, StreamStats, FORMAT_VERSION};
pub use desync::{DesyncKind, HardDesync, SoftDesync};
pub use store::{DemoStore, StreamHash, StreamHashes};
pub use streams::{
    AsyncEvent, QueueBuilder, QueueCursor, QueueRun, QueueStream, SignalEvent, SyscallRecord,
};
