//! Message sizing for the CONGEST bandwidth model.
//!
//! In the CONGEST model a node may send one `O(log n)`-bit message per
//! neighbor per round. We account message sizes in **words**, where one
//! word stands for one `⌈log₂ n⌉`-bit quantity (a node id, an edge id, a
//! hop counter, a weight of polynomial magnitude). The simulator enforces
//! a per-message cap of [`BANDWIDTH_WORDS`] words, i.e. messages stay
//! `O(log n)` bits with an explicit constant.

use crate::hash::splitmix64;

/// Per-message budget, in `⌈log₂ n⌉`-bit words.
pub const BANDWIDTH_WORDS: u32 = 4;

/// A CONGEST message: cloneable payload with a declared size in words.
///
/// Implementations must report an honest upper bound on their wire size
/// counted in `⌈log₂ n⌉`-bit words. The simulator rejects messages whose
/// declared size exceeds [`BANDWIDTH_WORDS`].
pub trait Message: Clone + std::fmt::Debug {
    /// Size of this message in `⌈log₂ n⌉`-bit words.
    fn size_words(&self) -> u32;

    /// Return a corrupted copy of this message, deterministically derived
    /// from `stream` (a splitmix64 draw). The Byzantine corruption tier of
    /// [`FaultPlan`](crate::sim::FaultPlan) calls this on in-flight
    /// messages; the same `(fault_seed, round, arc)` fate always yields the
    /// same `stream`, so corrupted runs stay bit-identical at every shard
    /// count.
    ///
    /// Implementations must flip at least one observable bit for every
    /// `stream` value (the adversary never wastes a corruption), and must
    /// not panic. The default keeps the message unchanged — protocols whose
    /// payloads carry no overridable bits (e.g. `()`) are immune by
    /// construction.
    #[must_use]
    fn corrupted(self, stream: u64) -> Self {
        let _ = stream;
        self
    }

    /// A deterministic 64-bit digest of the payload, used by integrity
    /// tags (e.g. [`Reliable`](crate::reliable::Reliable) frames) to
    /// detect corruption. The default hashes the `Debug` rendering with
    /// FNV-1a — valid for any `Message` since `Debug` is a supertrait,
    /// and stable because `Debug` output is deterministic for the plain
    /// data types used as CONGEST payloads. Override with a cheaper
    /// field-wise hash where throughput matters.
    fn digest(&self) -> u64 {
        use std::fmt::Write;
        let mut h = crate::hash::Fnv::new();
        write!(h, "{self:?}").expect("Debug formatting never fails");
        h.finish()
    }
}

/// The field-wise digest of the messages that [`Reliable`] frames on
/// the fault path (BFS tokens and tree aggregation values): a
/// splitmix64 chain that starts from the variant's index and folds in
/// each field.
///
/// [`Reliable`]: crate::reliable::Reliable
#[inline]
pub(crate) fn digest_fields(variant: u64, fields: &[u64]) -> u64 {
    fields
        .iter()
        .fold(splitmix64(variant), |h, &x| splitmix64(h ^ x))
}

impl Message for () {
    fn size_words(&self) -> u32 {
        0
    }

    // A unit payload has no bits to flip: immune to corruption.

    fn digest(&self) -> u64 {
        0
    }
}

impl Message for u32 {
    fn size_words(&self) -> u32 {
        1
    }

    fn corrupted(self, stream: u64) -> Self {
        // `| 1` guarantees at least one flipped bit for every stream.
        self ^ ((stream as u32) | 1)
    }

    fn digest(&self) -> u64 {
        u64::from(*self)
    }
}

impl Message for u64 {
    /// A `u64` carries e.g. a polynomially-bounded weight: 2 words.
    fn size_words(&self) -> u32 {
        2
    }

    fn corrupted(self, stream: u64) -> Self {
        self ^ (stream | 1)
    }

    fn digest(&self) -> u64 {
        *self
    }
}

impl<A: Message, B: Message> Message for (A, B) {
    fn size_words(&self) -> u32 {
        self.0.size_words() + self.1.size_words()
    }

    fn corrupted(self, stream: u64) -> Self {
        // Corrupt one component, chosen by the low bit; re-derive the
        // component's stream so the flipped bits differ from the chooser.
        let next = splitmix64(stream);
        if stream & 1 == 0 {
            (self.0.corrupted(next), self.1)
        } else {
            (self.0, self.1.corrupted(next))
        }
    }

    fn digest(&self) -> u64 {
        self.0
            .digest()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            ^ self.1.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{BfsMsg, MultiAggMsg, MultiBfsMsg, TreeMsg};
    use std::collections::HashSet;

    /// Asserts that no two of `msgs` share a digest.
    fn assert_distinct<M: Message>(msgs: &[M]) {
        let digests: HashSet<u64> = msgs.iter().map(Message::digest).collect();
        assert_eq!(digests.len(), msgs.len(), "{msgs:?}");
    }

    /// The field-wise digests tell apart every variant and every value
    /// of every field, on small and extreme values alike.
    #[test]
    fn distinct_messages_get_distinct_digests() {
        let values = [0u32, 1, 2, 7, u32::MAX - 1, u32::MAX];
        let wide = [0u64, 1, 7, 1 << 32, 1 << 63, u64::MAX - 1, u64::MAX];
        let mut bfs = vec![BfsMsg::Child];
        bfs.extend(values.map(|dist| BfsMsg::Token { dist }));
        let tree: Vec<TreeMsg> = wide
            .iter()
            .flat_map(|&v| [TreeMsg::Up(v), TreeMsg::Down(v)])
            .collect();
        assert_distinct(&bfs);
        assert_distinct(&tree);
    }

    /// Every corruption of a multi-instance message changes it, on each
    /// variant and 1,000 streams, and keeps its instance id.
    #[test]
    fn multi_instance_corruptions_change_the_message_and_keep_its_instance() {
        let inst = 3;
        let bfs = [
            MultiBfsMsg::Token {
                inst,
                root: 7,
                dist: 2,
            },
            MultiBfsMsg::Child { inst },
        ];
        let agg = [
            MultiAggMsg::Up { inst, value: 11 },
            MultiAggMsg::Down { inst, value: 11 },
        ];
        for stream in (0..1000).map(splitmix64) {
            for msg in bfs {
                let bad = msg.corrupted(stream);
                assert_ne!(bad, msg, "stream {stream:#x}");
                let (MultiBfsMsg::Token { inst: kept, .. } | MultiBfsMsg::Child { inst: kept }) =
                    bad;
                assert_eq!(kept, inst, "{msg:?}, stream {stream:#x}");
            }
            for msg in &agg {
                let bad = msg.clone().corrupted(stream);
                assert_ne!(&bad, msg, "stream {stream:#x}");
                let (MultiAggMsg::Up { inst: kept, .. } | MultiAggMsg::Down { inst: kept, .. }) =
                    bad;
                assert_eq!(kept, inst, "{msg:?}, stream {stream:#x}");
            }
        }
    }

    #[test]
    fn primitive_sizes() {
        assert_eq!(().size_words(), 0);
        assert_eq!(7u32.size_words(), 1);
        assert_eq!(7u64.size_words(), 2);
        assert_eq!((1u32, 2u64).size_words(), 3);
    }
}
