//! The virtual address allocator.
//!
//! Real programs observe allocator nondeterminism through pointer values
//! (ASLR, allocation order, freelist reuse). The paper's §5.5 shows this is
//! exactly the nondeterminism tsan11rec's sparse recording does *not*
//! capture — SQLite and SpiderMonkey desynchronise on it — while rr records
//! it wholesale. This allocator reproduces that axis:
//!
//! * [`AllocMode::Randomized`] — the base address is derived from the
//!   environment seed *and per-run entropy*, so two record/replay runs see
//!   different pointer values (the SQLite failure mode);
//! * [`AllocMode::Deterministic`] — a fixed base, modelling the paper's
//!   suggested mitigation of swapping in a deterministic allocator;
//! * [`AllocMode::Scripted`] — replays a previously recorded address
//!   stream (what the rr baseline does).

use std::sync::Arc;

use crate::rng::EnvRng;

/// Allocation address policy.
#[derive(Debug, Clone)]
pub enum AllocMode {
    /// ASLR-like: base differs between runs.
    Randomized {
        /// Per-run entropy (e.g. sampled from wall time at startup).
        entropy: u64,
    },
    /// Fixed base: identical addresses in every run.
    Deterministic,
    /// Replay a recorded address stream; falls back to deterministic
    /// when the stream runs out.
    Scripted {
        /// The recorded addresses, consumed in order. Shared, not
        /// copied, with the demo that holds them.
        addresses: Arc<Vec<u64>>,
    },
}

const DETERMINISTIC_BASE: u64 = 0x5555_0000_0000;
const ALIGN: u64 = 16;

/// A bump allocator over a virtual address space.
///
/// In randomized mode each allocation also gets a per-allocation jitter
/// gap, modelling freelist/pool nondeterminism: real allocators do not
/// hand out monotone addresses, and programs like SQLite observe that
/// through pointer comparisons (§5.5).
#[derive(Debug)]
pub struct Allocator {
    next: u64,
    jitter: Option<EnvRng>,
    scripted: Option<(Arc<Vec<u64>>, usize)>,
    /// Every address handed out, in order (the ALLOC stream for
    /// comprehensive recorders).
    log: Vec<u64>,
}

impl Allocator {
    /// Creates an allocator under the given mode and environment seed.
    #[must_use]
    pub fn new(mode: AllocMode, env_seed: u64) -> Self {
        match mode {
            AllocMode::Randomized { entropy } => {
                let mut rng = EnvRng::new(env_seed ^ entropy);
                // A page-aligned base somewhere in a 2^40 region, like mmap
                // under ASLR.
                let base = 0x1000_0000_0000 + (rng.next_u64() % (1 << 40)) / 4096 * 4096;
                Allocator {
                    next: base,
                    jitter: Some(rng),
                    scripted: None,
                    log: Vec::new(),
                }
            }
            AllocMode::Deterministic => Allocator {
                next: DETERMINISTIC_BASE,
                jitter: None,
                scripted: None,
                log: Vec::new(),
            },
            AllocMode::Scripted { addresses } => Allocator {
                next: DETERMINISTIC_BASE,
                jitter: None,
                scripted: Some((addresses, 0)),
                log: Vec::new(),
            },
        }
    }

    /// Allocates `size` bytes; returns the virtual address.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let addr = if let Some((stream, at)) = &mut self.scripted {
            if let Some(&a) = stream.get(*at) {
                *at += 1;
                a
            } else {
                let a = self.next;
                self.next += size.max(1).next_multiple_of(ALIGN);
                a
            }
        } else {
            if let Some(rng) = &mut self.jitter {
                // Freelist/pool placement nondeterminism.
                self.next += rng.below(8) * ALIGN;
            }
            let a = self.next;
            self.next += size.max(1).next_multiple_of(ALIGN);
            a
        };
        self.log.push(addr);
        addr
    }

    /// The addresses handed out so far, in order.
    #[must_use]
    pub fn log(&self) -> &[u64] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_mode_is_reproducible() {
        let mut a = Allocator::new(AllocMode::Deterministic, 1);
        let mut b = Allocator::new(AllocMode::Deterministic, 999);
        for size in [8, 100, 1, 4096] {
            assert_eq!(a.alloc(size), b.alloc(size));
        }
    }

    #[test]
    fn randomized_mode_depends_on_entropy() {
        let mut a = Allocator::new(AllocMode::Randomized { entropy: 1 }, 42);
        let mut b = Allocator::new(AllocMode::Randomized { entropy: 2 }, 42);
        assert_ne!(a.alloc(8), b.alloc(8), "different runs, different bases");
    }

    #[test]
    fn randomized_mode_same_entropy_reproduces() {
        let mut a = Allocator::new(AllocMode::Randomized { entropy: 5 }, 42);
        let mut b = Allocator::new(AllocMode::Randomized { entropy: 5 }, 42);
        assert_eq!(a.alloc(8), b.alloc(8));
    }

    #[test]
    fn addresses_are_aligned_and_disjoint() {
        let mut a = Allocator::new(AllocMode::Deterministic, 0);
        let x = a.alloc(10);
        let y = a.alloc(1);
        let z = a.alloc(100);
        assert_eq!(x % ALIGN, 0);
        assert!(y >= x + 10);
        assert!(z > y);
    }

    #[test]
    fn scripted_mode_replays_then_falls_back() {
        let mut rec = Allocator::new(AllocMode::Randomized { entropy: 3 }, 42);
        let a1 = rec.alloc(8);
        let a2 = rec.alloc(8);
        let mut rep = Allocator::new(
            AllocMode::Scripted {
                addresses: Arc::new(rec.log().to_vec()),
            },
            42,
        );
        assert_eq!(rep.alloc(8), a1);
        assert_eq!(rep.alloc(8), a2);
        // Stream exhausted: still functional.
        let extra = rep.alloc(8);
        assert!(extra >= DETERMINISTIC_BASE);
    }

    #[test]
    fn log_records_every_allocation() {
        let mut a = Allocator::new(AllocMode::Deterministic, 0);
        let x = a.alloc(8);
        let y = a.alloc(8);
        assert_eq!(a.log(), &[x, y]);
    }
}
