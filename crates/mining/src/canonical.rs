//! Canonical form and canonical string of labeled free trees (§4.2, Fig. 5c).
//!
//! CATAPULT represents frequent trees by *canonical strings*: the tree is
//! normalized (rooted at its center with children in canonical order) and
//! serialized by a top-down, level-by-level breadth-first scan in which the
//! symbol `$` separates families of siblings. The FCT-Index trie (§5.1) is
//! built over exactly these token sequences, so this module is shared by the
//! miner and the index.

use midas_graph::{LabelId, LabeledGraph, VertexId};

/// The `$` sibling-family separator token.
pub const SEPARATOR: u32 = u32::MAX;

/// Canonical token sequence of a tree — the paper's canonical string.
///
/// Tokens are vertex labels, with [`SEPARATOR`] closing each family of
/// siblings. Equal keys ⇔ isomorphic labeled trees.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeKey(pub Box<[u32]>);

impl TreeKey {
    /// The raw token sequence.
    pub fn tokens(&self) -> &[u32] {
        &self.0
    }

    /// Renders the key with an interner, e.g. `"C O $ S $ $ $"`.
    pub fn display(&self, interner: &midas_graph::Interner) -> String {
        self.0
            .iter()
            .map(|&t| {
                if t == SEPARATOR {
                    "$".to_owned()
                } else {
                    interner.name_or_placeholder(t)
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Number of labels (non-separator tokens) = number of tree vertices.
    pub fn vertex_count(&self) -> usize {
        self.0.iter().filter(|&&t| t != SEPARATOR).count()
    }

    /// A 64-bit digest of the key — equal for isomorphic trees, compact
    /// enough to tag telemetry exemplars with.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Returns whether `g` is a tree: connected with `|E| = |V| − 1` (the empty
/// graph is not a tree; a single vertex is).
pub fn is_tree(g: &LabeledGraph) -> bool {
    g.vertex_count() >= 1 && g.edge_count() == g.vertex_count() - 1 && g.is_connected()
}

/// Finds the 1 or 2 center vertices of a tree by iterative leaf stripping.
fn centers(tree: &LabeledGraph) -> Vec<VertexId> {
    let n = tree.vertex_count();
    if n <= 2 {
        return (0..n as VertexId).collect();
    }
    let mut degree: Vec<usize> = (0..n as VertexId).map(|v| tree.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut remaining = n;
    let mut leaves: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| degree[v as usize] <= 1)
        .collect();
    while remaining > 2 {
        remaining -= leaves.len();
        let mut next = Vec::new();
        for &leaf in &leaves {
            removed[leaf as usize] = true;
            for &w in tree.neighbors(leaf) {
                if !removed[w as usize] {
                    degree[w as usize] -= 1;
                    if degree[w as usize] == 1 {
                        next.push(w);
                    }
                }
            }
        }
        leaves = next;
    }
    (0..n as VertexId)
        .filter(|&v| !removed[v as usize])
        .collect()
}

/// Every vertex's rooted code for the tree rooted at `root`, and each
/// vertex's children in canonical order.
///
/// A vertex's code is its label, then its children's codes in sorted order,
/// closed by a sentinel; labels are shifted by 2 so the sentinels 0/1 never
/// collide. Codes are built bottom-up in one pass, so each subtree's code is
/// computed once and reused by its parent and by [`bfs_string`]. All codes
/// share one buffer, and all child lists another.
struct Rooted {
    codes: Vec<u64>,
    code_of: Vec<std::ops::Range<usize>>,
    children: Vec<VertexId>,
    children_of: Vec<std::ops::Range<usize>>,
}

impl Rooted {
    fn new(tree: &LabeledGraph, root: VertexId) -> Self {
        let n = tree.vertex_count();
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        let mut order = Vec::with_capacity(n);
        order.push(root);
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            next += 1;
            for &w in tree.neighbors(v) {
                if Some(w) != parent[v as usize] {
                    parent[w as usize] = Some(v);
                    order.push(w);
                }
            }
        }
        let mut codes = Vec::with_capacity(2 * n);
        let mut code_of = vec![0..0; n];
        let mut children = Vec::with_capacity(n);
        let mut children_of = vec![0..0; n];
        for &v in order.iter().rev() {
            let first = children.len();
            children.extend(
                tree.neighbors(v)
                    .iter()
                    .filter(|&&w| Some(w) != parent[v as usize]),
            );
            children[first..].sort_by(|&a: &VertexId, &b: &VertexId| {
                codes[code_of[a as usize].clone()]
                    .cmp(&codes[code_of[b as usize].clone()])
                    .then(a.cmp(&b))
            });
            children_of[v as usize] = first..children.len();
            let start = codes.len();
            codes.push(tree.label(v) as u64 + 2);
            for &w in &children[first..] {
                codes.extend_from_within(code_of[w as usize].clone());
            }
            codes.push(1); // end-of-children sentinel
            code_of[v as usize] = start..codes.len();
        }
        Rooted {
            codes,
            code_of,
            children,
            children_of,
        }
    }

    /// The rooted code of `v`.
    fn code(&self, v: VertexId) -> &[u64] {
        &self.codes[self.code_of[v as usize].clone()]
    }

    /// The children of `v`, in canonical order.
    fn children(&self, v: VertexId) -> &[VertexId] {
        &self.children[self.children_of[v as usize].clone()]
    }
}

/// The BFS canonical-string tokens of the tree rooted at `root`: the root's
/// label, then each vertex's children (in canonical order) as one
/// `$`-terminated family, vertices taken in BFS order.
fn bfs_string(tree: &LabeledGraph, root: VertexId, rooted: &Rooted) -> Vec<u32> {
    // One label per vertex and one separator per family, root's included.
    let mut tokens = Vec::with_capacity(2 * tree.vertex_count() + 1);
    tokens.extend([tree.label(root), SEPARATOR]);
    let mut queue = vec![root];
    let mut next = 0;
    while let Some(&v) = queue.get(next) {
        next += 1;
        for &w in rooted.children(v) {
            tokens.push(tree.label(w));
            queue.push(w);
        }
        tokens.push(SEPARATOR);
    }
    tokens
}

/// Computes the canonical string key of a labeled free tree.
///
/// # Panics
///
/// Panics if `g` is not a tree.
pub fn tree_key(g: &LabeledGraph) -> TreeKey {
    assert!(is_tree(g), "tree_key requires a tree, got {g:?}");
    // Root at the center with the smaller rooted code (ties: smaller id),
    // and reuse that rooting's codes for the BFS string.
    let (root, rooted) = centers(g)
        .into_iter()
        .map(|c| (c, Rooted::new(g, c)))
        .min_by(|(a, ra), (b, rb)| ra.code(*a).cmp(rb.code(*b)).then(a.cmp(b)))
        .expect("a tree has at least one center");
    TreeKey(bfs_string(g, root, &rooted).into_boxed_slice())
}

/// Builds the 2-vertex tree for an edge label — the level-1 mining seed.
pub fn edge_tree(a: LabelId, b: LabelId) -> LabeledGraph {
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    let mut g = LabeledGraph::new();
    g.add_vertex(a);
    g.add_vertex(b);
    g.add_edge(0, 1);
    g
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
    fn is_tree_checks() {
        assert!(is_tree(&path(&[0, 1, 2])));
        assert!(!is_tree(&LabeledGraph::new()));
        let triangle = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build();
        assert!(!is_tree(&triangle));
        let forest = GraphBuilder::new().vertices(&[0, 0]).build();
        assert!(!is_tree(&forest));
        let single = GraphBuilder::new().vertex(0).build();
        assert!(is_tree(&single));
    }

    #[test]
    fn isomorphic_trees_share_keys() {
        let a = path(&[0, 1, 2]);
        let b = GraphBuilder::new()
            .vertices(&[2, 1, 0])
            .edge(0, 1)
            .edge(1, 2)
            .build();
        assert_eq!(tree_key(&a), tree_key(&b));
    }

    #[test]
    fn different_trees_differ() {
        // Claw vs path, same labels.
        let claw = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        let p = path(&[0, 0, 0, 0]);
        assert_ne!(tree_key(&claw), tree_key(&p));
        // Same structure, different labels.
        assert_ne!(tree_key(&path(&[0, 1, 0])), tree_key(&path(&[0, 1, 1])));
    }

    #[test]
    fn child_order_does_not_matter() {
        let a = GraphBuilder::new()
            .vertices(&[0, 1, 3])
            .edge(0, 1)
            .edge(0, 2)
            .build();
        let b = GraphBuilder::new()
            .vertices(&[0, 3, 1])
            .edge(0, 1)
            .edge(0, 2)
            .build();
        assert_eq!(tree_key(&a), tree_key(&b));
    }

    #[test]
    fn key_encodes_vertex_count() {
        assert_eq!(tree_key(&path(&[0, 1, 2])).vertex_count(), 3);
        assert_eq!(tree_key(&edge_tree(0, 5)).vertex_count(), 2);
    }

    #[test]
    fn edge_tree_is_normalized() {
        assert_eq!(tree_key(&edge_tree(5, 0)), tree_key(&edge_tree(0, 5)));
    }

    #[test]
    fn bicentral_paths_are_stable() {
        // Even path: two centers; both rootings must resolve to one key.
        let a = path(&[0, 1, 1, 0]);
        let b = GraphBuilder::new()
            .vertices(&[0, 1, 1, 0])
            .edge(3, 2)
            .edge(2, 1)
            .edge(1, 0)
            .build();
        assert_eq!(tree_key(&a), tree_key(&b));
    }

    #[test]
    fn asymmetric_bicentral_path() {
        // C-O-N-S: centers are O and N; the rooted codes differ, and the
        // canonical key must be direction-independent.
        let a = path(&[0, 1, 2, 3]);
        let b = path(&[3, 2, 1, 0]);
        assert_eq!(tree_key(&a), tree_key(&b));
    }

    #[test]
    fn display_uses_dollar_separators() {
        let interner = midas_graph::Interner::with_labels(["C", "O", "S"]);
        // Star: C with children O, S (paper's f2).
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 2])
            .edge(0, 1)
            .edge(0, 2)
            .build();
        let key = tree_key(&star);
        let shown = key.display(&interner);
        assert!(shown.starts_with("C $ O S $"), "got: {shown}");
    }

    #[test]
    fn star_centers() {
        // Star center is the hub regardless of size.
        let star = GraphBuilder::new()
            .vertices(&[7, 0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(0, 4)
            .build();
        let key = tree_key(&star);
        assert_eq!(key.tokens()[0], 7, "hub label leads the canonical string");
    }

    /// The recursive `tree_key` that the one-pass [`Rooted`] replaced, kept
    /// only as the reference the proptest below pins the tokens to. It
    /// recomputes every subtree's code for each center, and twice more per
    /// vertex while ordering children for the BFS string.
    mod recursive {
        use super::super::{centers, SEPARATOR};
        use midas_graph::{LabeledGraph, VertexId};

        fn subtree_code(
            tree: &LabeledGraph,
            v: VertexId,
            parent: Option<VertexId>,
            out: &mut Vec<u64>,
        ) {
            out.push(tree.label(v) as u64 + 2);
            let mut child_codes: Vec<Vec<u64>> = tree
                .neighbors(v)
                .iter()
                .filter(|&&w| Some(w) != parent)
                .map(|&w| {
                    let mut code = Vec::new();
                    subtree_code(tree, w, Some(v), &mut code);
                    code
                })
                .collect();
            child_codes.sort();
            for code in child_codes {
                out.extend_from_slice(&code);
            }
            out.push(1);
        }

        fn ordered_children(
            tree: &LabeledGraph,
            v: VertexId,
            parent: Option<VertexId>,
        ) -> Vec<VertexId> {
            let mut kids: Vec<(Vec<u64>, VertexId)> = tree
                .neighbors(v)
                .iter()
                .filter(|&&w| Some(w) != parent)
                .map(|&w| {
                    let mut code = Vec::new();
                    subtree_code(tree, w, Some(v), &mut code);
                    (code, w)
                })
                .collect();
            kids.sort();
            kids.into_iter().map(|(_, w)| w).collect()
        }

        fn bfs_string(tree: &LabeledGraph, root: VertexId) -> Vec<u32> {
            let mut tokens = vec![tree.label(root), SEPARATOR];
            let mut queue: std::collections::VecDeque<(VertexId, Option<VertexId>)> =
                [(root, None)].into();
            let mut order: Vec<(VertexId, Option<VertexId>)> = Vec::new();
            while let Some((v, parent)) = queue.pop_front() {
                order.push((v, parent));
                for w in ordered_children(tree, v, parent) {
                    queue.push_back((w, Some(v)));
                }
            }
            for &(v, parent) in &order {
                for w in ordered_children(tree, v, parent) {
                    tokens.push(tree.label(w));
                }
                tokens.push(SEPARATOR);
            }
            tokens
        }

        pub(super) fn tree_key(g: &LabeledGraph) -> Vec<u32> {
            let best = centers(g)
                .iter()
                .map(|&c| {
                    let mut code = Vec::new();
                    subtree_code(g, c, None, &mut code);
                    (code, c)
                })
                .min()
                .expect("a tree has at least one center");
            bfs_string(g, best.1)
        }
    }

    /// A random labeled tree on `n` (1–9) vertices with labels from `0..3`:
    /// vertex `i` hangs off an earlier vertex, then the ids are permuted so
    /// that neither the root nor the child order follows the build order.
    fn random_tree() -> impl proptest::strategy::Strategy<Value = LabeledGraph> {
        use proptest::prelude::*;
        (
            1..10usize,
            proptest::collection::vec(0..3u32, 9),
            proptest::collection::vec(proptest::num::usize::ANY, 9),
            proptest::collection::vec(proptest::num::usize::ANY, 9),
        )
            .prop_map(|(n, labels, parents, swaps)| {
                let mut ids: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    ids.swap(i, swaps[i] % (i + 1));
                }
                let mut vertex_labels = vec![0; n];
                for (v, &id) in ids.iter().enumerate() {
                    vertex_labels[id as usize] = labels[v];
                }
                let mut b = GraphBuilder::new().vertices(&vertex_labels);
                for v in 1..n {
                    b = b.edge(ids[v], ids[parents[v] % v]);
                }
                b.build()
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The one-pass key emits exactly the recursive key's tokens.
        #[test]
        fn one_pass_key_matches_the_recursive_key(tree in random_tree()) {
            let key = tree_key(&tree);
            proptest::prop_assert_eq!(key.tokens(), &recursive::tree_key(&tree)[..]);
        }
    }

    #[test]
    fn random_trees_have_one_and_two_centers() {
        use proptest::prelude::*;
        let mut runner = TestRunner::new_for("canonical::random_trees");
        let mut seen = [0usize; 3];
        for _ in 0..512 {
            seen[centers(&random_tree().generate(&mut runner)).len()] += 1;
        }
        assert!(seen[1] > 50 && seen[2] > 50, "center counts: {seen:?}");
    }

    #[test]
    fn deep_tree_roundtrip_stability() {
        // A 7-vertex caterpillar relabeled under several permutations.
        let base = GraphBuilder::new()
            .vertices(&[0, 1, 0, 2, 0, 1, 3])
            .path(&[0, 1, 2, 3, 4])
            .edge(1, 5)
            .edge(3, 6)
            .build();
        let perm = GraphBuilder::new()
            .vertices(&[3, 1, 0, 2, 0, 1, 0])
            .path(&[6, 5, 4, 3, 2])
            .edge(5, 1)
            .edge(3, 0)
            .build();
        assert_eq!(tree_key(&base), tree_key(&perm));
    }
}
