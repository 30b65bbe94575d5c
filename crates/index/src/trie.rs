//! The canonical-string token trie of the FCT-Index (Def. 5.1, Fig. 5(d)).
//!
//! Trie vertices correspond to tokens of the canonical strings of the
//! indexed FCTs; an edge exists between adjacent tokens. Terminal tokens
//! carry the feature id whose TG-matrix row plays the role of the paper's
//! *graph pointer*; the *pattern pointer* side is computed on demand by
//! [`crate::FctIndex::pattern_counts`].

use crate::fct_index::FeatureId;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
struct TrieNode {
    children: BTreeMap<u32, usize>,
    terminal: Option<FeatureId>,
}

/// A token trie mapping canonical strings to feature ids.
#[derive(Debug, Clone)]
pub struct Trie {
    nodes: Vec<TrieNode>,
}

impl Default for Trie {
    fn default() -> Self {
        Trie {
            nodes: vec![TrieNode::default()],
        }
    }
}

impl Trie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `tokens`, marking the terminal with `feature`. Returns the
    /// previous feature id if the string was already present.
    pub fn insert(&mut self, tokens: &[u32], feature: FeatureId) -> Option<FeatureId> {
        let mut at = 0usize;
        for &t in tokens {
            at = match self.nodes[at].children.get(&t) {
                Some(&next) => next,
                None => {
                    self.nodes.push(TrieNode::default());
                    let next = self.nodes.len() - 1;
                    self.nodes[at].children.insert(t, next);
                    next
                }
            };
        }
        self.nodes[at].terminal.replace(feature)
    }

    /// Looks up the feature id of `tokens`.
    pub fn lookup(&self, tokens: &[u32]) -> Option<FeatureId> {
        let mut at = 0usize;
        for &t in tokens {
            at = *self.nodes[at].children.get(&t)?;
        }
        self.nodes[at].terminal
    }

    /// Removes the terminal marker of `tokens`, returning its feature id.
    /// (Nodes are kept; the trie is small and ids dominate storage.)
    pub fn remove(&mut self, tokens: &[u32]) -> Option<FeatureId> {
        let mut at = 0usize;
        for &t in tokens {
            at = *self.nodes[at].children.get(&t)?;
        }
        self.nodes[at].terminal.take()
    }

    /// Number of trie nodes (the `n` of Lemma 5.3's space bound).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut trie = Trie::new();
        assert_eq!(trie.insert(&[1, 2, 3], FeatureId(7)), None);
        assert_eq!(trie.lookup(&[1, 2, 3]), Some(FeatureId(7)));
        assert_eq!(trie.lookup(&[1, 2]), None);
        assert_eq!(trie.lookup(&[1, 2, 3, 4]), None);
        assert_eq!(trie.lookup(&[9]), None);
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut trie = Trie::new();
        trie.insert(&[1, 2, 3], FeatureId(0));
        let after_first = trie.node_count();
        trie.insert(&[1, 2, 4], FeatureId(1));
        // Only one new node for the diverging token.
        assert_eq!(trie.node_count(), after_first + 1);
        assert_eq!(trie.lookup(&[1, 2, 3]), Some(FeatureId(0)));
        assert_eq!(trie.lookup(&[1, 2, 4]), Some(FeatureId(1)));
    }

    #[test]
    fn prefix_terminals_coexist() {
        let mut trie = Trie::new();
        trie.insert(&[1, 2], FeatureId(0));
        trie.insert(&[1, 2, 3], FeatureId(1));
        assert_eq!(trie.lookup(&[1, 2]), Some(FeatureId(0)));
        assert_eq!(trie.lookup(&[1, 2, 3]), Some(FeatureId(1)));
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut trie = Trie::new();
        trie.insert(&[5], FeatureId(1));
        assert_eq!(trie.insert(&[5], FeatureId(2)), Some(FeatureId(1)));
        assert_eq!(trie.lookup(&[5]), Some(FeatureId(2)));
    }

    #[test]
    fn remove_clears_terminal_only() {
        let mut trie = Trie::new();
        trie.insert(&[1, 2], FeatureId(0));
        trie.insert(&[1, 2, 3], FeatureId(1));
        assert_eq!(trie.remove(&[1, 2]), Some(FeatureId(0)));
        assert_eq!(trie.lookup(&[1, 2]), None);
        assert_eq!(trie.lookup(&[1, 2, 3]), Some(FeatureId(1)));
        assert_eq!(trie.remove(&[7, 7]), None);
    }

    #[test]
    fn depth_and_counts() {
        // A string adds one node per token below the root; a stored
        // prefix of it adds a terminal, not a node.
        let mut trie = Trie::new();
        assert_eq!(trie.node_count(), 1);
        trie.insert(&[1, 2, 3, 4], FeatureId(0));
        trie.insert(&[1], FeatureId(1));
        assert_eq!(trie.node_count(), 5);
        assert_eq!(trie.lookup(&[1]), Some(FeatureId(1)));
        assert_eq!(trie.lookup(&[1, 2, 3, 4]), Some(FeatureId(0)));
    }

    #[test]
    fn empty_string_is_the_root() {
        let mut trie = Trie::new();
        trie.insert(&[], FeatureId(3));
        assert_eq!(trie.lookup(&[]), Some(FeatureId(3)));
    }
}
