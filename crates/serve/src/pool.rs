//! The concurrent query front-end: an [`IndexedSession`] pool sharing
//! one customized index read-only across worker threads.
//!
//! Determinism contract: a batch's results — and therefore its
//! fingerprint — depend only on `(customized index, queries,
//! batch_seed)`. Worker count and scheduling are invisible: every
//! query's randomness comes from [`per_query_seed`], workers pull
//! query *indices* from a shared cursor, and results are reassembled
//! in submission order. CI gates on exactly this (pool sizes {1,4}
//! must fingerprint identically in `serve_throughput`).

use crate::customize::CustomizedIndex;
use crate::query::{answer, Query, QueryResult};
use lcs_congest::hash::{splitmix64, Fnv};
use lcs_shortcut::ShortcutIndex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The deterministic seed of the `i`-th query of a batch.
pub fn per_query_seed(batch_seed: u64, i: usize) -> u64 {
    splitmix64(batch_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One worker's handle on the shared customized index. Sessions are
/// cheap (`Arc` clone) and answer queries independently; all of them
/// read the same frozen structure.
#[derive(Debug, Clone)]
pub struct IndexedSession {
    cx: Arc<CustomizedIndex>,
}

impl IndexedSession {
    /// Answers one query under an explicit seed.
    pub fn answer(&self, query: &Query, seed: u64) -> QueryResult {
        answer(&self.cx, query, seed)
    }

    /// The customized index this session reads.
    pub fn customized(&self) -> &Arc<CustomizedIndex> {
        &self.cx
    }
}

/// A completed batch: results in submission order plus the batch
/// fingerprint (fold of every result's fingerprint, in order).
#[derive(Debug, Clone)]
pub struct ServedBatch {
    /// One result per query, in submission order.
    pub results: Vec<QueryResult>,
    /// FNV-1a fold of all result fingerprints — pool-size invariant.
    pub fingerprint: u64,
}

/// A fixed-size pool of [`IndexedSession`] workers over one customized
/// index.
#[derive(Debug)]
pub struct ServePool {
    cx: Arc<CustomizedIndex>,
    workers: usize,
}

impl ServePool {
    /// Pool over the index's baseline weights. `workers == 0` is
    /// clamped to 1.
    pub fn new(index: Arc<ShortcutIndex>, workers: usize) -> Self {
        Self::with_customization(Arc::new(CustomizedIndex::baseline(index)), workers)
    }

    /// Pool over an explicit customization (e.g. re-weighted edges).
    pub fn with_customization(cx: Arc<CustomizedIndex>, workers: usize) -> Self {
        ServePool {
            cx,
            workers: workers.max(1),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A fresh session on this pool's customized index.
    pub fn session(&self) -> IndexedSession {
        IndexedSession {
            cx: Arc::clone(&self.cx),
        }
    }

    /// Serves a batch of mixed queries. Results (and the batch
    /// fingerprint) are independent of the pool size.
    pub fn serve(&self, queries: &[Query], batch_seed: u64) -> ServedBatch {
        let n = queries.len();
        let workers = self.workers.min(n.max(1));
        let mut results: Vec<QueryResult> = if workers <= 1 {
            let session = self.session();
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| session.answer(q, per_query_seed(batch_seed, i)))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, QueryResult)>> = Mutex::new(Vec::with_capacity(n));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let session = self.session();
                    let cursor = &cursor;
                    let collected = &collected;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, QueryResult)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((
                                i,
                                session.answer(&queries[i], per_query_seed(batch_seed, i)),
                            ));
                        }
                        collected.lock().expect("no poisoned workers").extend(local);
                    });
                }
            });
            let mut got = collected.into_inner().expect("workers joined");
            got.sort_by_key(|&(i, _)| i);
            got.into_iter().map(|(_, r)| r).collect()
        };
        let mut f = Fnv::new();
        for r in &results {
            f.u64(r.fingerprint());
        }
        let fingerprint = f.finish();
        results.shrink_to_fit();
        ServedBatch {
            results,
            fingerprint,
        }
    }
}
