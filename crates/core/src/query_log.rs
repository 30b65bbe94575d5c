//! Query-log-aware pattern weighting — the extension sketched in §3.5.
//!
//! > "Observe that our framework is query log-oblivious as most
//! > publicly-available graph repositories do not make such data available.
//! > Nevertheless, MIDAS can be easily extended to accommodate query logs
//! > by considering the weight of a pattern based on its frequency in the
//! > log during multi-scan swapping."
//!
//! A [`QueryLog`] records formulated queries; a pattern's *log weight* is
//! the smoothed fraction of logged queries it embeds in. The swap phase
//! can multiply `s'_p` by this weight (see
//! [`crate::swap::multi_scan_swap_weighted`]), which biases maintenance
//! toward keeping patterns users actually reach for.

use midas_graph::{Csr, LabeledGraph, MatchPlan};
use std::collections::VecDeque;

/// A bounded log of recently formulated queries, each kept as the CSR view
/// the weight's containment tests match against.
#[derive(Debug, Clone)]
pub struct QueryLog {
    queries: VecDeque<Csr>,
    capacity: usize,
    /// Additive smoothing so unlogged patterns keep a positive weight
    /// (otherwise one empty log would zero every score).
    smoothing: f64,
}

impl QueryLog {
    /// Creates a log holding at most `capacity` recent queries.
    pub fn new(capacity: usize) -> Self {
        QueryLog {
            queries: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            smoothing: 0.1,
        }
    }

    /// Records one formulated query, evicting the oldest beyond capacity.
    pub fn record(&mut self, query: LabeledGraph) {
        if self.queries.len() == self.capacity {
            self.queries.pop_front();
        }
        self.queries.push_back(Csr::from_graph(&query));
    }

    /// Records a batch of queries.
    pub fn record_all<I: IntoIterator<Item = LabeledGraph>>(&mut self, queries: I) {
        for q in queries {
            self.record(q);
        }
    }

    /// Number of logged queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The pattern's log weight: `(hits + s) / (|log| + s)` where `hits`
    /// is the number of logged queries containing the pattern and `s` the
    /// smoothing constant. An empty log yields the neutral weight 1. The
    /// pattern is compiled once per call.
    pub fn weight(&self, pattern: &LabeledGraph) -> f64 {
        if self.queries.is_empty() {
            return 1.0;
        }
        let plan = MatchPlan::compile(pattern);
        let hits = self
            .queries
            .iter()
            .filter(|q| plan.is_subgraph_of(q))
            .count();
        (hits as f64 + self.smoothing) / (self.queries.len() as f64 + self.smoothing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    #[test]
    fn empty_log_is_neutral() {
        let log = QueryLog::new(10);
        assert_eq!(log.weight(&path(&[0, 1])), 1.0);
        assert!(log.is_empty());
    }

    #[test]
    fn popular_patterns_weigh_more() {
        let mut log = QueryLog::new(10);
        log.record_all(vec![path(&[0, 1, 2]), path(&[0, 1, 0]), path(&[3, 3])]);
        let popular = path(&[0, 1]); // embeds in 2 of 3 queries
        let rare = path(&[3, 3]); // embeds in 1
        let absent = path(&[7, 7]);
        assert!(log.weight(&popular) > log.weight(&rare));
        assert!(log.weight(&rare) > log.weight(&absent));
        assert!(
            log.weight(&absent) > 0.0,
            "smoothing keeps weights positive"
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = QueryLog::new(2);
        log.record(path(&[0, 1]));
        log.record(path(&[0, 2]));
        log.record(path(&[0, 3]));
        assert_eq!(log.len(), 2);
        // The first query left the window.
        let old = path(&[0, 1]);
        let hits_weight = log.weight(&old);
        assert!(
            hits_weight < 0.5,
            "evicted query no longer counts: {hits_weight}"
        );
    }
}
