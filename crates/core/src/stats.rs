//! Run statistics for the RCJ algorithms.

/// Counters reported by an RCJ run.
///
/// `candidate_pairs` is the paper's Table 4 metric: the total number of
/// `⟨p, q⟩` pairs that survive the filter step and must be verified. The
/// other counters support the cost decomposition of Figures 13–18 (I/O
/// statistics live in [`ringjoin_storage::IoStats`], captured by the
/// caller around the join).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct RcjStats {
    /// Pairs produced by the filter step (Table 4's "number of candidate
    /// pairs").
    pub candidate_pairs: u64,
    /// Pairs that survived verification — the RCJ result cardinality.
    pub result_pairs: u64,
    /// Entries taken off the filter heap, or discarded when their node is
    /// expanded, across all filter invocations (CPU-side filter effort).
    /// A traversal drains its heap, so this is one (the root) plus every
    /// entry its expansions produce.
    pub filter_heap_pops: u64,
    /// Index nodes expanded (= pages read) by the filter step. Together
    /// with [`RcjStats::verify_node_visits`] this splits the total node
    /// accesses by phase — the per-phase unit costs the
    /// [`planner`](crate::planner) calibrates.
    pub filter_node_reads: u64,
    /// Nodes visited by the verification step (CPU-side verify effort,
    /// and the verify-phase share of node accesses).
    pub verify_node_visits: u64,
}

impl RcjStats {
    /// Component-wise sum — aggregates per-leaf runs, and per-worker
    /// counters of a parallel run into the same totals a sequential run
    /// reports (every counter is a plain sum over leaf groups, so the
    /// merge of any partition equals the sequential figure).
    pub fn merge(&mut self, other: RcjStats) {
        self.candidate_pairs += other.candidate_pairs;
        self.result_pairs += other.result_pairs;
        self.filter_heap_pops += other.filter_heap_pops;
        self.filter_node_reads += other.filter_node_reads;
        self.verify_node_visits += other.verify_node_visits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_of_any_partition_equals_the_total() {
        // Chunked counters merged in any order sum to the same totals —
        // the invariant the parallel executor's aggregation rests on.
        let parts = [
            RcjStats {
                candidate_pairs: 5,
                result_pairs: 1,
                filter_heap_pops: 100,
                filter_node_reads: 20,
                verify_node_visits: 7,
            },
            RcjStats::default(),
            RcjStats {
                candidate_pairs: 3,
                result_pairs: 2,
                filter_heap_pops: 50,
                filter_node_reads: 10,
                verify_node_visits: 11,
            },
        ];
        let mut fwd = RcjStats::default();
        let mut rev = RcjStats::default();
        for s in parts {
            fwd.merge(s);
        }
        for s in parts.iter().rev() {
            rev.merge(*s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.candidate_pairs, 8);
        assert_eq!(fwd.filter_heap_pops, 150);
        assert_eq!(fwd.filter_node_reads, 30);
        assert_eq!(fwd.verify_node_visits, 18);
    }

    #[test]
    fn merge_accumulates_every_counter() {
        let mut a = RcjStats {
            candidate_pairs: 1,
            result_pairs: 2,
            filter_heap_pops: 3,
            filter_node_reads: 5,
            verify_node_visits: 4,
        };
        a.merge(RcjStats {
            candidate_pairs: 10,
            result_pairs: 20,
            filter_heap_pops: 30,
            filter_node_reads: 50,
            verify_node_visits: 40,
        });
        assert_eq!(a.candidate_pairs, 11);
        assert_eq!(a.result_pairs, 22);
        assert_eq!(a.filter_heap_pops, 33);
        assert_eq!(a.filter_node_reads, 55);
        assert_eq!(a.verify_node_visits, 44);
    }
}
