//! Subgraph isomorphism (VF2-style backtracking, Cordella et al. \[17\]):
//! the reference matcher.
//!
//! The paper uses subgraph isomorphism in three places:
//!
//! * coverage — "a pattern `p` covers `G` if `G` contains a subgraph
//!   isomorphic to `p`" (§2.2), i.e. a *monomorphism* from `p` into `G`;
//! * embedding counts for the TG/TP/EG/EP matrices (§5.1);
//! * the formulation simulator, which needs the actual embeddings.
//!
//! Every production containment and embedding question runs on the
//! plan-compiled matcher ([`midas_graph::plan`]). This module is its
//! yardstick: label- and degree-pruned backtracking that re-derives
//! everything per call, searching in the order of
//! [`matching_order`], the one ordering rule of `midas-graph`. It lives in
//! the oracle crate, which no production crate depends on, so only the
//! oracle's checks (and the reference TG builder the kernel bench times),
//! the tests and the micro benches can run it. Pattern graphs here are
//! small (≤ `η_max` = 12 edges), so worst-case exponential behaviour never
//! materializes in practice — exactly the observation the paper makes
//! after Lemma 5.3.

use midas_graph::plan::{matching_order, Control};
use midas_graph::{EdgeLabel, LabelId, LabeledGraph, VertexId};
use std::collections::BTreeMap;

/// A cheap necessary-condition summary of a graph for subgraph-isomorphism
/// quick rejection.
///
/// For `pattern ⊆ target` (non-induced) to hold, all of the following must:
///
/// * **label multiset** — the target has at least as many vertices of every
///   label as the pattern;
/// * **degree sequences** — within each label class, the descending degree
///   sequences are pairwise dominated (`p_i ≤ t_i`). Any embedding maps a
///   pattern vertex of degree `d` to a same-labeled target vertex of degree
///   `≥ d`, injectively, and a greedy/Hall argument shows such an injection
///   exists only under pairwise dominance of the sorted sequences;
/// * **edge-label multiset** — every pattern edge label occurs in the target
///   at least as often.
///
/// These checks are sound (they never reject a true embedding) and run in
/// `O(V + E)` after construction, skipping the VF2 search entirely for most
/// incompatible `(pattern, graph)` pairs in a matrix scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSignature {
    /// Per vertex label: degrees of that label class, sorted descending.
    label_degrees: BTreeMap<LabelId, Vec<u32>>,
    /// Edge-label multiset as counts.
    edge_labels: BTreeMap<EdgeLabel, u32>,
}

impl GraphSignature {
    /// Builds the signature of `g`.
    pub fn of(g: &LabeledGraph) -> Self {
        let mut label_degrees: BTreeMap<LabelId, Vec<u32>> = BTreeMap::new();
        for v in g.vertices() {
            label_degrees
                .entry(g.label(v))
                .or_default()
                .push(g.degree(v) as u32);
        }
        for degs in label_degrees.values_mut() {
            degs.sort_unstable_by(|a, b| b.cmp(a));
        }
        let mut edge_labels: BTreeMap<EdgeLabel, u32> = BTreeMap::new();
        for el in g.edge_labels() {
            *edge_labels.entry(el).or_insert(0) += 1;
        }
        GraphSignature {
            label_degrees,
            edge_labels,
        }
    }

    /// Whether a graph with signature `self` **may** embed into one with
    /// signature `target` — `false` guarantees there is no embedding; `true`
    /// is inconclusive.
    pub fn may_embed_in(&self, target: &GraphSignature) -> bool {
        for (label, pdegs) in &self.label_degrees {
            let Some(tdegs) = target.label_degrees.get(label) else {
                return false;
            };
            if pdegs.len() > tdegs.len() {
                return false;
            }
            // Both sorted descending: pairwise dominance.
            if pdegs.iter().zip(tdegs).any(|(p, t)| p > t) {
                return false;
            }
        }
        for (el, pcount) in &self.edge_labels {
            if target.edge_labels.get(el).copied().unwrap_or(0) < *pcount {
                return false;
            }
        }
        true
    }
}

/// Returns `true` if `pattern` is subgraph-isomorphic to `target`
/// (`pattern ⊆ target` in the paper's notation).
///
/// Matching is *non-induced*: every pattern edge must be present between the
/// mapped images, but extra target edges are allowed.
pub fn is_subgraph_of(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    let mut found = false;
    search(pattern, target, &mut |_| {
        found = true;
        Control::Stop
    });
    found
}

/// Counts embeddings (distinct injective mappings) of `pattern` in `target`,
/// saturating at `cap`.
///
/// Embeddings are counted per *mapping*, so a pattern with automorphisms is
/// counted once per automorphic image — this matches the "number of
/// embeddings" stored in the paper's TG/TP matrices (Def. 5.1).
pub fn count_embeddings(pattern: &LabeledGraph, target: &LabeledGraph, cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let mut count = 0;
    search(pattern, target, &mut |_| {
        count += 1;
        if count >= cap {
            Control::Stop
        } else {
            Control::Continue
        }
    });
    count
}

/// Collects up to `limit` embeddings of `pattern` in `target`.
pub fn find_embeddings(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    limit: usize,
) -> Vec<Vec<VertexId>> {
    let mut result = Vec::new();
    if limit == 0 {
        return result;
    }
    search(pattern, target, &mut |mapping| {
        result.push(mapping.to_vec());
        if result.len() >= limit {
            Control::Stop
        } else {
            Control::Continue
        }
    });
    result
}

/// Invokes `visit` with each embedding (`pattern vertex -> target vertex`)
/// until exhaustion or until the visitor returns [`Control::Stop`].
pub fn for_each_embedding<F>(pattern: &LabeledGraph, target: &LabeledGraph, visit: &mut F)
where
    F: FnMut(&[VertexId]) -> Control,
{
    search(pattern, target, visit);
}

fn search<F>(pattern: &LabeledGraph, target: &LabeledGraph, visit: &mut F)
where
    F: FnMut(&[VertexId]) -> Control,
{
    let pn = pattern.vertex_count();
    if pn == 0 {
        // The empty pattern has exactly one (empty) embedding everywhere.
        visit(&[]);
        return;
    }
    if pn > target.vertex_count() || pattern.edge_count() > target.edge_count() {
        midas_obs::counter_add!("vf2.size_rejects", 1);
        return;
    }
    if !GraphSignature::of(pattern).may_embed_in(&GraphSignature::of(target)) {
        midas_obs::counter_add!("vf2.prefilter_rejects", 1);
        return;
    }
    let order = matching_order(pattern);
    let mut mapping = vec![u32::MAX; pn]; // pattern -> target
    let mut used = vec![false; target.vertex_count()];
    let mut nodes = 0u64;
    // Wall-clock probe for the latency percentiles; the `Instant` reads
    // only happen when telemetry is on, so the disabled path stays at one
    // relaxed atomic load per probe.
    let timed = midas_obs::enabled();
    let start = timed.then(std::time::Instant::now);
    backtrack(
        pattern,
        target,
        &order,
        0,
        &mut mapping,
        &mut used,
        &mut nodes,
        visit,
    );
    if let Some(start) = start {
        // VF2 is the reference matcher, so it offers no tail exemplars;
        // the production matcher's attributed series is `plan.search_ns`.
        midas_obs::histogram_record!("vf2.search_ns", start.elapsed().as_nanos() as u64);
    }
    midas_obs::counter_add!("vf2.searches", 1);
    midas_obs::counter_add!("vf2.nodes", nodes);
    midas_obs::histogram_record!("vf2.nodes_per_search", nodes);
}

#[allow(clippy::too_many_arguments)]
fn backtrack<F>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    order: &[(VertexId, Vec<VertexId>)],
    depth: usize,
    mapping: &mut [u32],
    used: &mut [bool],
    nodes: &mut u64,
    visit: &mut F,
) -> Control
where
    F: FnMut(&[VertexId]) -> Control,
{
    *nodes += 1;
    if depth == order.len() {
        return visit(mapping);
    }
    let (pv, anchors) = &order[depth];
    let plabel = pattern.label(*pv);
    let pdeg = pattern.degree(*pv);

    // Candidate targets: neighbors of an anchor image if anchored, else all.
    let run = |cand: VertexId,
               mapping: &mut [u32],
               used: &mut [bool],
               nodes: &mut u64,
               visit: &mut F|
     -> Control {
        if used[cand as usize] || target.label(cand) != plabel || target.degree(cand) < pdeg {
            return Control::Continue;
        }
        // Every already-mapped pattern neighbor must be a target neighbor.
        for &a in anchors {
            let image = mapping[a as usize];
            if !target.has_edge(image, cand) {
                return Control::Continue;
            }
        }
        mapping[*pv as usize] = cand;
        used[cand as usize] = true;
        let ctl = backtrack(
            pattern,
            target,
            order,
            depth + 1,
            mapping,
            used,
            nodes,
            visit,
        );
        mapping[*pv as usize] = u32::MAX;
        used[cand as usize] = false;
        ctl
    };

    if let Some(&first_anchor) = anchors.first() {
        let image = mapping[first_anchor as usize];
        // Clone-free iteration: neighbors() borrows target immutably only.
        for i in 0..target.neighbors(image).len() {
            let cand = target.neighbors(image)[i];
            if run(cand, mapping, used, nodes, visit) == Control::Stop {
                return Control::Stop;
            }
        }
    } else {
        for cand in 0..target.vertex_count() as VertexId {
            if run(cand, mapping, used, nodes, visit) == Control::Stop {
                return Control::Stop;
            }
        }
    }
    Control::Continue
}

/// Brute-force embedding count for testing: tries every injective mapping.
///
/// Exponential; only usable on graphs with ≤ ~8 vertices. Public so the
/// workspace's property tests can cross-check VF2.
pub fn count_embeddings_brute_force(pattern: &LabeledGraph, target: &LabeledGraph) -> u64 {
    let pn = pattern.vertex_count();
    let tn = target.vertex_count();
    if pn > tn {
        return 0;
    }
    let mut count = 0;
    let mut mapping = vec![u32::MAX; pn];
    let mut used = vec![false; tn];
    fn rec(
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        depth: usize,
        mapping: &mut [u32],
        used: &mut [bool],
        count: &mut u64,
    ) {
        let pn = pattern.vertex_count();
        if depth == pn {
            *count += 1;
            return;
        }
        let pv = depth as VertexId;
        for tv in 0..target.vertex_count() as VertexId {
            if used[tv as usize] || target.label(tv) != pattern.label(pv) {
                continue;
            }
            let ok = pattern.neighbors(pv).iter().all(|&w| {
                let wi = mapping[w as usize];
                wi == u32::MAX || target.has_edge(wi, tv)
            });
            if !ok {
                continue;
            }
            mapping[pv as usize] = tv;
            used[tv as usize] = true;
            rec(pattern, target, depth + 1, mapping, used, count);
            mapping[pv as usize] = u32::MAX;
            used[tv as usize] = false;
        }
    }
    rec(pattern, target, 0, &mut mapping, &mut used, &mut count);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn triangle(l: u32) -> LabeledGraph {
        GraphBuilder::new()
            .vertices(&[l, l, l])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
    }

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    #[test]
    fn path_in_triangle() {
        let p = path(&[0, 0, 0]);
        let t = triangle(0);
        assert!(is_subgraph_of(&p, &t));
        // 3 choices of middle vertex × 2 orientations.
        assert_eq!(count_embeddings(&p, &t, u64::MAX), 6);
    }

    #[test]
    fn triangle_not_in_path() {
        assert!(!is_subgraph_of(&triangle(0), &path(&[0, 0, 0, 0])));
    }

    #[test]
    fn labels_must_match() {
        let p = path(&[0, 1]);
        let t = path(&[0, 0]);
        assert!(!is_subgraph_of(&p, &t));
        assert!(is_subgraph_of(&p, &path(&[1, 0])));
    }

    #[test]
    fn non_induced_matching_allows_extra_edges() {
        // A 3-path embeds in a triangle even though the triangle has a chord
        // (the closing edge) the path lacks.
        assert!(is_subgraph_of(&path(&[0, 0, 0]), &triangle(0)));
    }

    #[test]
    fn empty_pattern_has_one_embedding() {
        let t = triangle(0);
        assert_eq!(count_embeddings(&LabeledGraph::new(), &t, u64::MAX), 1);
        assert!(is_subgraph_of(&LabeledGraph::new(), &t));
    }

    #[test]
    fn count_saturates_at_cap() {
        let p = path(&[0, 0]);
        let t = triangle(0);
        assert_eq!(count_embeddings(&p, &t, 4), 4);
        assert_eq!(count_embeddings(&p, &t, u64::MAX), 6);
        assert_eq!(count_embeddings(&p, &t, 0), 0);
    }

    #[test]
    fn find_embedding_returns_valid_mapping() {
        let p = path(&[0, 1, 0]);
        let t = GraphBuilder::new()
            .vertices(&[0, 1, 0, 2])
            .path(&[0, 1, 2, 3])
            .build();
        let m = find_embeddings(&p, &t, 1).pop().expect("embedding exists");
        for &(u, v) in p.edges() {
            assert!(t.has_edge(m[u as usize], m[v as usize]));
        }
        for (pv, &tv) in m.iter().enumerate() {
            assert_eq!(p.label(pv as u32), t.label(tv));
        }
    }

    #[test]
    fn find_embeddings_respects_limit() {
        let p = path(&[0, 0]);
        let t = triangle(0);
        assert_eq!(find_embeddings(&p, &t, 3).len(), 3);
        assert_eq!(find_embeddings(&p, &t, 100).len(), 6);
        assert!(find_embeddings(&p, &t, 0).is_empty());
    }

    #[test]
    fn disconnected_pattern() {
        // Two isolated labeled vertices must map to distinct target vertices.
        let p = GraphBuilder::new().vertices(&[0, 0]).build();
        let t = path(&[0, 1, 0]);
        assert_eq!(count_embeddings(&p, &t, u64::MAX), 2); // (0,2) and (2,0)
        let one = GraphBuilder::new().vertices(&[0, 0, 0]).build();
        let t2 = path(&[0, 0]);
        assert!(!is_subgraph_of(&one, &t2)); // needs 3 distinct vertices
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let patterns = vec![
            path(&[0, 0]),
            path(&[0, 1, 0]),
            triangle(0),
            GraphBuilder::new()
                .vertices(&[0, 0, 1, 1])
                .edge(0, 1)
                .edge(1, 2)
                .edge(2, 3)
                .edge(3, 0)
                .build(),
        ];
        let targets = vec![
            triangle(0),
            GraphBuilder::new()
                .vertices(&[0, 0, 1, 1, 0])
                .edge(0, 1)
                .edge(1, 2)
                .edge(2, 3)
                .edge(3, 0)
                .edge(3, 4)
                .build(),
            path(&[0, 1, 0, 1, 0]),
        ];
        for p in &patterns {
            for t in &targets {
                assert_eq!(
                    count_embeddings(p, t, u64::MAX),
                    count_embeddings_brute_force(p, t),
                    "mismatch for pattern {p:?} in target {t:?}"
                );
            }
        }
    }

    #[test]
    fn signature_rejects_obvious_mismatches() {
        let sig = |g: &LabeledGraph| GraphSignature::of(g);
        // Label missing in target.
        assert!(!sig(&path(&[0, 7])).may_embed_in(&sig(&path(&[0, 1, 0]))));
        // Too many vertices of one label.
        assert!(!sig(&path(&[0, 0, 0])).may_embed_in(&sig(&path(&[0, 0]))));
        // Degree sequence not dominated: star hub needs degree 3.
        let star = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        assert!(!sig(&star).may_embed_in(&sig(&path(&[0, 0, 0, 0]))));
        // Edge label absent from target (labels and degrees all compatible:
        // the target has a 0- and a 1-labeled vertex of degree ≥ 1, but its
        // edges are 0-2 and 1-2, never 0-1).
        assert!(!sig(&path(&[0, 1])).may_embed_in(&sig(&path(&[0, 2, 1]))));
    }

    #[test]
    fn signature_never_rejects_true_embeddings() {
        // Exhaustive mini-check: whenever VF2 finds an embedding, the
        // signature prefilter must say "maybe".
        let graphs = vec![
            path(&[0, 0]),
            path(&[0, 1, 0]),
            path(&[0, 1, 0, 1]),
            triangle(0),
            GraphBuilder::new()
                .vertices(&[0, 0, 1, 1, 0])
                .edge(0, 1)
                .edge(1, 2)
                .edge(2, 3)
                .edge(3, 0)
                .edge(3, 4)
                .build(),
        ];
        for p in &graphs {
            for t in &graphs {
                if is_subgraph_of(p, t) {
                    assert!(
                        GraphSignature::of(p).may_embed_in(&GraphSignature::of(t)),
                        "prefilter rejected a true embedding: {p:?} ⊆ {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn star_pattern_degree_pruning() {
        // A 4-star needs a degree-4 hub.
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 1, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(0, 4)
            .build();
        let small_hub = GraphBuilder::new()
            .vertices(&[0, 1, 1, 1])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build();
        assert!(!is_subgraph_of(&star, &small_hub));
    }
}
