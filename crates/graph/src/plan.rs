//! Plan-compiled subgraph matching over [`Csr`] graphs: the one
//! production matcher.
//!
//! MIDAS matches the *same* small patterns against thousands of data
//! graphs per batch (§5.1, Algorithm 1), so almost all per-call work —
//! the vertex order, the per-level filters, the label demand — is
//! amortizable. Following the GraphMini direction, this module compiles a
//! pattern once into a [`MatchPlan`] — a static vertex order plus
//! per-level candidate filters — and interprets it over the [`Csr`] label
//! slices:
//!
//! * **root level** — candidates come from [`Csr::vertices_with_label`],
//!   not a scan over all vertices;
//! * **anchored levels** — candidates are the sorted-merge intersection of
//!   the already-bound neighbors' per-label adjacency slices
//!   ([`Csr::neighbors_with_label`]), so connectivity *is* the candidate
//!   generator instead of a post-hoc feasibility check;
//! * **early exit** — the embedding visitor returns [`Control`], so
//!   boolean coverage queries stop at the first embedding.
//!
//! A plan belongs to the pattern it was compiled from: a prepared
//! pattern ([`crate::CachedPattern`]) compiles its own on its first memo
//! miss, and an FCT-Index feature row keeps its prepared pattern for the
//! row's lifetime. No plan is shared across patterns, tenants or kernels,
//! so the matching path holds no lock.
//!
//! Semantics are pinned to the VF2 reference in `midas-oracle`: the same
//! non-induced monomorphism definition, the same saturating caps, and the
//! same embeddings in the same enumeration order (both matchers search in
//! [`matching_order`]). The oracle's `plan_vs_vf2` check (check 6) and
//! the workspace property tests enforce this.

use crate::csr::Csr;
use crate::graph::{LabeledGraph, VertexId};
use crate::labels::LabelId;
use std::sync::OnceLock;

/// Visitor control for the embedding enumerators:
/// [`MatchPlan::for_each_embedding`] here, and the VF2 reference's
/// `for_each_embedding` in `midas-oracle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep enumerating embeddings.
    Continue,
    /// Stop the search immediately.
    Stop,
}

/// One level of a compiled plan: the pattern vertex bound at this depth
/// and the static filters its candidates must pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanLevel {
    /// The pattern vertex this level binds.
    vertex: VertexId,
    /// Required candidate label.
    label: LabelId,
    /// Required minimum candidate degree (the pattern vertex's degree).
    min_degree: u32,
    /// Pattern neighbors of `vertex` bound at earlier levels; candidate
    /// generation intersects their images' per-label adjacency slices.
    anchors: Vec<VertexId>,
}

/// A pattern shape whose embedding count has a closed form over CSR
/// label-range sizes — no enumeration. Detected once at compile time.
///
/// Both forms count *ordered* injective mappings, exactly like the
/// interpreter and the VF2 reference, and both rely on data graphs being
/// simple (no self-loops — [`LabeledGraph::add_edge`] enforces this), so
/// a vertex never appears in its own neighbor slice.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClosedForm {
    /// A star `K_{1,m}` (this includes the single edge, `m = 1`): count
    /// `Σ_v Π_ℓ ff(|N_ℓ(v)|, need_ℓ)` over center candidates `v`, where
    /// `ff` is the falling factorial — leaves of one label are assigned
    /// injectively within that label's neighbor slice, and slices of
    /// different labels are disjoint by construction.
    Star {
        /// Center label.
        center: LabelId,
        /// Per-leaf-label demand `(label, count)`, ascending by label.
        leaf_needs: Vec<(LabelId, u32)>,
    },
    /// A double star — two adjacent centers `b – c`, each carrying leaves
    /// (every tree of diameter 3: 4-paths, brooms, spiders). For each
    /// ordered adjacent pair `(x, y)` with labels `(b, c)`, leaves of one
    /// label assign injectively into `A_ℓ = N_ℓ(x) \ {y}` on the `b` side
    /// and `B_ℓ = N_ℓ(y) \ {x}` on the `c` side; cross-side collisions in
    /// `A_ℓ ∩ B_ℓ` are removed by inclusion–exclusion over the number of
    /// shared vertices (see `double_star_ways`).
    DoubleStar {
        /// Center labels `[b, c]`.
        mids: [LabelId; 2],
        /// Per-leaf-label demand `(label, b-side count, c-side count)`,
        /// ascending by label.
        needs: Vec<(LabelId, u32, u32)>,
    },
    /// The 5-vertex path `a – b – c – d – e` (the one 5-vertex tree that
    /// is neither a star nor a double star): enumerate the middle triple
    /// `(x, z, w)` over adjacency, then count end pairs
    /// `|A|·|E| − |A ∩ E|` with `A = N_a(x) \ {z, w}`,
    /// `E = N_e(w) \ {z, x}`.
    Path5 {
        /// Path labels `[a, b, c, d, e]`.
        labels: [LabelId; 5],
    },
}

/// A pattern compiled for repeated matching: static vertex order plus
/// per-level candidate filters. Immutable and cheap to share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchPlan {
    levels: Vec<PlanLevel>,
    /// Pattern vertex count (== `levels.len()`, kept for clarity).
    vertex_count: usize,
    /// Pattern edge count, for the size quick-reject.
    edge_count: usize,
    /// Per-label vertex demand `(label, count)`, ascending by label — the
    /// cheap prefilter against [`Csr::label_counts`].
    label_needs: Vec<(LabelId, u32)>,
    /// Closed-form counting shape, when the pattern has one.
    closed_form: Option<ClosedForm>,
}

/// Computes a matching order over the pattern vertices: each vertex (after
/// the first of its connected component) is adjacent to at least one earlier
/// vertex, and high-degree vertices come first. Returns, for each position,
/// the vertex and its already-ordered neighbors.
///
/// This is the crate's one ordering rule: [`MatchPlan`] compiles its
/// levels from it, and the reference searches in it (VF2, in
/// `midas-oracle`). Both matchers then try candidates in ascending
/// target-vertex order at every level, so they enumerate the same
/// embeddings in the same sequence — which the formulation simulator's
/// first-fit packing depends on.
pub fn matching_order(pattern: &LabeledGraph) -> Vec<(VertexId, Vec<VertexId>)> {
    let n = pattern.vertex_count();
    let mut order: Vec<(VertexId, Vec<VertexId>)> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut placed_count = 0;
    while placed_count < n {
        // Pick the best next vertex: prefer most already-placed neighbors
        // (never start a fresh component while an anchored vertex exists),
        // then highest degree, then lowest id (determinism).
        let v = (0..n as VertexId)
            .filter(|&v| !placed[v as usize])
            .max_by_key(|&v| {
                let anchored = pattern
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| placed[w as usize])
                    .count();
                (anchored, pattern.degree(v), std::cmp::Reverse(v))
            })
            .expect("unplaced vertex must exist");
        let anchors: Vec<VertexId> = pattern
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| placed[w as usize])
            .collect();
        placed[v as usize] = true;
        placed_count += 1;
        order.push((v, anchors));
    }
    order
}

impl MatchPlan {
    /// Compiles `pattern` into a plan.
    ///
    /// The vertex order is `matching_order`'s, which VF2 shares: most
    /// already-bound pattern neighbors first (connectivity ⇒ smallest
    /// candidate sets and never a fresh component while an anchored
    /// vertex exists), then highest degree, then lowest id. Both matchers
    /// try candidates in ascending target-vertex order, so with one order
    /// they enumerate embeddings in the same sequence.
    pub fn compile(pattern: &LabeledGraph) -> Self {
        let timed = midas_obs::enabled();
        let start = timed.then(std::time::Instant::now);

        let levels: Vec<PlanLevel> = matching_order(pattern)
            .into_iter()
            .map(|(v, anchors)| {
                // An anchored candidate is some vertex's neighbor, so its
                // degree is at least 1 for free — a floor of 1 never
                // prunes there. Storing 0 lets the interpreter skip the
                // degree load.
                let min_degree = match pattern.degree(v) as u32 {
                    1 if !anchors.is_empty() => 0,
                    d => d,
                };
                PlanLevel {
                    vertex: v,
                    label: pattern.label(v),
                    min_degree,
                    anchors,
                }
            })
            .collect();
        let mut label_needs: Vec<(LabelId, u32)> = Vec::new();
        for label in pattern.sorted_labels() {
            match label_needs.last_mut() {
                Some((last, need)) if *last == label => *need += 1,
                _ => label_needs.push((label, 1)),
            }
        }

        if let Some(start) = start {
            midas_obs::histogram_record!("plan.compile_ns", start.elapsed().as_nanos() as u64);
        }
        midas_obs::counter_add!("plan.compiles", 1);
        MatchPlan {
            levels,
            vertex_count: pattern.vertex_count(),
            edge_count: pattern.edge_count(),
            label_needs,
            closed_form: detect_closed_form(pattern),
        }
    }

    /// Number of pattern vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of pattern edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Invokes `visit` with each embedding (`pattern vertex → target
    /// vertex`) until exhaustion or [`Control::Stop`], in the order oracle
    /// check 6 (`plan_vs_vf2`) pins.
    pub fn for_each_embedding<F>(&self, target: &Csr, visit: &mut F)
    where
        F: FnMut(&[VertexId]) -> Control,
    {
        self.search::<false, F>(target, visit);
    }

    /// The shared search body. With `COUNTING` the last level is scanned
    /// in bulk — candidates are filtered but never bound, and `visit` is
    /// invoked with the leaf vertex still unmapped — so `COUNTING` callers
    /// must ignore the mapping argument (the public counting entry points
    /// do; [`Self::for_each_embedding`] always passes `false`).
    fn search<const COUNTING: bool, F>(&self, target: &Csr, visit: &mut F)
    where
        F: FnMut(&[VertexId]) -> Control,
    {
        if self.vertex_count == 0 {
            // The empty pattern has exactly one (empty) embedding.
            visit(&[]);
            return;
        }
        if self.vertex_count > target.vertex_count() || self.edge_count > target.edge_count() {
            midas_obs::counter_add!("plan.size_rejects", 1);
            return;
        }
        // Label-demand prefilter: every pattern label must be stocked.
        for &(label, need) in &self.label_needs {
            if (target.vertices_with_label(label).len() as u32) < need {
                midas_obs::counter_add!("plan.prefilter_rejects", 1);
                return;
            }
        }
        let timed = midas_obs::enabled();
        let start = timed.then(std::time::Instant::now);
        // Per-thread scratch: the hot loop runs one search per
        // (pattern, graph) pair, so allocating the mapping, the used
        // bitset and the intersection buffers per call would dominate
        // small searches. `Cell::take` leaves a default in the slot, so a
        // re-entrant search (a visit callback that itself matches) simply
        // allocates fresh scratch instead of aliasing.
        let mut scratch = SCRATCH.with(std::cell::Cell::take);
        scratch.mapping.clear();
        scratch.mapping.resize(self.vertex_count, u32::MAX);
        scratch.used.clear();
        scratch.used.resize(target.vertex_count().div_ceil(64), 0);
        if scratch.bufs.len() < self.levels.len() {
            scratch.bufs.resize_with(self.levels.len(), Vec::new);
        }
        let (nodes, intersections, pruned) = {
            let mut search = Search {
                plan: self,
                target,
                visit,
                mapping: &mut scratch.mapping,
                used: &mut scratch.used,
                bufs: &mut scratch.bufs,
                nodes: 0,
                intersections: 0,
                pruned: 0,
            };
            search.recurse::<COUNTING>(0);
            (search.nodes, search.intersections, search.pruned)
        };
        SCRATCH.with(|cell| cell.set(scratch));
        if let Some(start) = start {
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            midas_obs::histogram_record!("plan.search_ns", elapsed_ns);
            static SLOW: OnceLock<&'static midas_obs::exemplar::Series> = OnceLock::new();
            SLOW.get_or_init(|| midas_obs::exemplar::series("plan.search_ns", "ns"))
                .offer(elapsed_ns);
        }
        midas_obs::counter_add!("plan.searches", 1);
        midas_obs::counter_add!("plan.nodes", nodes);
        midas_obs::counter_add!("plan.intersections", intersections);
        midas_obs::counter_add!("plan.candidates_pruned", pruned);
    }

    /// Counts embeddings in `target`, saturating at `cap`: one per
    /// injective mapping, as the VF2 reference counts them (oracle check
    /// 6, `plan_vs_vf2`, pins the two equal).
    pub fn count_embeddings(&self, target: &Csr, cap: u64) -> u64 {
        if cap == 0 {
            return 0;
        }
        // Stars and 4-paths — together the bulk of the FCT tree-feature
        // set — count in closed form over label-range sizes instead of
        // enumerating embeddings.
        if let Some(form) = &self.closed_form {
            return self.count_closed_form(form, target, cap);
        }
        let mut count = 0;
        self.search::<true, _>(target, &mut |_| {
            count += 1;
            if count >= cap {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        count
    }

    /// Evaluates a [`ClosedForm`] count, saturating at `cap`, behind the
    /// same size and label-demand prefilters as the interpreter.
    fn count_closed_form(&self, form: &ClosedForm, target: &Csr, cap: u64) -> u64 {
        if self.vertex_count > target.vertex_count() || self.edge_count > target.edge_count() {
            midas_obs::counter_add!("plan.size_rejects", 1);
            return 0;
        }
        for &(label, need) in &self.label_needs {
            if (target.vertices_with_label(label).len() as u32) < need {
                midas_obs::counter_add!("plan.prefilter_rejects", 1);
                return 0;
            }
        }
        let timed = midas_obs::enabled();
        let start = timed.then(std::time::Instant::now);
        let count = match form {
            ClosedForm::Star { center, leaf_needs } => {
                let mut count = 0u64;
                for &v in target.vertices_with_label(*center) {
                    let mut ways = 1u64;
                    for &(label, need) in leaf_needs {
                        let k = target.neighbors_with_label(v, label).len() as u64;
                        if k < need as u64 {
                            ways = 0;
                            break;
                        }
                        for taken in 0..need as u64 {
                            ways = ways.saturating_mul(k - taken);
                        }
                    }
                    count = count.saturating_add(ways);
                    if count >= cap {
                        break;
                    }
                }
                count
            }
            ClosedForm::DoubleStar {
                mids: [b, c],
                needs,
            } => {
                let mut count = 0u64;
                'outer: for &x in target.vertices_with_label(*b) {
                    for &y in target.neighbors_with_label(x, *c) {
                        let mut pair_ways = 1i128;
                        for &(label, pb, pc) in needs {
                            // `y` sits in `N_ℓ(x)` iff it carries label ℓ
                            // (it is adjacent to `x` by construction);
                            // symmetrically for `x` on the other side.
                            let slice_x = target.neighbors_with_label(x, label);
                            let slice_y = target.neighbors_with_label(y, label);
                            let alpha = slice_x.len() as i128 - i128::from(label == *c);
                            let beta = slice_y.len() as i128 - i128::from(label == *b);
                            if alpha < pb as i128 || beta < pc as i128 {
                                pair_ways = 0;
                                break;
                            }
                            let ways = if pc == 0 {
                                falling(alpha, pb)
                            } else if pb == 0 {
                                falling(beta, pc)
                            } else {
                                // Neither `x` nor `y` is in the common
                                // slice (simple graph), so it equals
                                // `A_ℓ ∩ B_ℓ` with no further exclusions.
                                let common = sorted_common(slice_x, slice_y) as i128;
                                if pb == 1 && pc == 1 {
                                    alpha * beta - common
                                } else {
                                    double_star_ways(alpha, beta, common, pb, pc)
                                }
                            };
                            if ways <= 0 {
                                pair_ways = 0;
                                break;
                            }
                            pair_ways = pair_ways.saturating_mul(ways);
                        }
                        count = count.saturating_add(u64::try_from(pair_ways).unwrap_or(u64::MAX));
                        if count >= cap {
                            break 'outer;
                        }
                    }
                }
                count
            }
            ClosedForm::Path5 {
                labels: [a, b, c, d, e],
            } => {
                let mut count = 0u64;
                'outer: for &z in target.vertices_with_label(*c) {
                    for &x in target.neighbors_with_label(z, *b) {
                        for &w in target.neighbors_with_label(z, *d) {
                            if w == x {
                                continue;
                            }
                            // `A = N_a(x) \ {z, w}`: `z` is adjacent to
                            // `x` by construction, `w` only sometimes.
                            let in_a = (target.neighbors_with_label(x, *a).len() as u64)
                                - u64::from(a == c)
                                - u64::from(a == d && target.has_edge(x, w));
                            let in_e = (target.neighbors_with_label(w, *e).len() as u64)
                                - u64::from(e == c)
                                - u64::from(e == b && target.has_edge(w, x));
                            let mut ways = in_a.saturating_mul(in_e);
                            if a == e && ways != 0 {
                                // Common end candidates collide; `z` is in
                                // both slices iff it carries the end label,
                                // `x` and `w` are in neither (simple graph).
                                ways -= sorted_common(
                                    target.neighbors_with_label(x, *a),
                                    target.neighbors_with_label(w, *a),
                                ) - u64::from(a == c);
                            }
                            count = count.saturating_add(ways);
                            if count >= cap {
                                break 'outer;
                            }
                        }
                    }
                }
                count
            }
        };
        if let Some(start) = start {
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            midas_obs::histogram_record!("plan.search_ns", elapsed_ns);
            static SLOW: OnceLock<&'static midas_obs::exemplar::Series> = OnceLock::new();
            SLOW.get_or_init(|| midas_obs::exemplar::series("plan.search_ns", "ns"))
                .offer(elapsed_ns);
        }
        midas_obs::counter_add!("plan.searches", 1);
        midas_obs::counter_add!("plan.closed_forms", 1);
        count.min(cap)
    }

    /// Whether the pattern embeds in `target` — the early-exit boolean
    /// coverage query (a saturating cap-1 count, so single-edge patterns
    /// take the closed form).
    pub fn is_subgraph_of(&self, target: &Csr) -> bool {
        self.count_embeddings(target, 1) > 0
    }

    /// Collects up to `limit` embeddings, each indexed by pattern vertex.
    pub fn find_embeddings(&self, target: &Csr, limit: usize) -> Vec<Vec<VertexId>> {
        let mut result = Vec::new();
        if limit == 0 {
            return result;
        }
        self.for_each_embedding(target, &mut |mapping| {
            result.push(mapping.to_vec());
            if result.len() >= limit {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        result
    }
}

/// Detects a [`ClosedForm`] counting shape in `pattern`, if any.
///
/// Stars are recognized by a vertex adjacent to every other one (with a
/// tree's edge count, that forces all others to be leaves); double stars
/// by exactly two adjacent vertices of degree ≥ 2 (with a tree's edge
/// count that rules out cycles, so everything else is a leaf on one of
/// them); 5-paths by walking a 5-vertex shape end to end. Everything
/// else — including disconnected shapes like a triangle plus an isolated
/// vertex, which share the tree edge count — falls through to the
/// interpreter.
fn detect_closed_form(pattern: &LabeledGraph) -> Option<ClosedForm> {
    let n = pattern.vertex_count();
    if n < 2 || pattern.edge_count() != n - 1 {
        return None;
    }
    if let Some(center) = pattern.vertices().find(|&v| pattern.degree(v) == n - 1) {
        let mut leaf_needs: Vec<(LabelId, u32)> = Vec::new();
        for v in pattern.vertices().filter(|&v| v != center) {
            let label = pattern.label(v);
            match leaf_needs.iter_mut().find(|(l, _)| *l == label) {
                Some((_, need)) => *need += 1,
                None => leaf_needs.push((label, 1)),
            }
        }
        leaf_needs.sort_unstable();
        return Some(ClosedForm::Star {
            center: pattern.label(center),
            leaf_needs,
        });
    }
    let internal: Vec<VertexId> = pattern
        .vertices()
        .filter(|&v| pattern.degree(v) >= 2)
        .collect();
    if let [b, c] = internal[..] {
        if pattern.neighbors(b).contains(&c) {
            let mut needs: Vec<(LabelId, u32, u32)> = Vec::new();
            for (center, other, b_side) in [(b, c, true), (c, b, false)] {
                for &v in pattern.neighbors(center).iter().filter(|&&v| v != other) {
                    let label = pattern.label(v);
                    let slot = match needs.iter_mut().find(|(l, _, _)| *l == label) {
                        Some(slot) => slot,
                        None => {
                            needs.push((label, 0, 0));
                            needs.last_mut().expect("just pushed")
                        }
                    };
                    if b_side {
                        slot.1 += 1;
                    } else {
                        slot.2 += 1;
                    }
                }
            }
            needs.sort_unstable();
            return Some(ClosedForm::DoubleStar {
                mids: [pattern.label(b), pattern.label(c)],
                needs,
            });
        }
    }
    if n == 5 {
        let a = pattern.vertices().find(|&v| pattern.degree(v) == 1)?;
        let mut seq = vec![a];
        while seq.len() < 5 {
            let cur = *seq.last().expect("non-empty");
            match pattern
                .neighbors(cur)
                .iter()
                .copied()
                .find(|w| !seq.contains(w))
            {
                Some(next) => seq.push(next),
                None => return None,
            }
        }
        // Five distinct vertices reached over four walk edges — with the
        // tree edge count, that is the whole pattern, so it is the 5-path.
        let labels: [LabelId; 5] = std::array::from_fn(|i| pattern.label(seq[i]));
        return Some(ClosedForm::Path5 { labels });
    }
    None
}

/// Reusable per-thread search buffers (see `SCRATCH`).
#[derive(Default)]
struct Scratch {
    mapping: Vec<VertexId>,
    used: Vec<u64>,
    bufs: Vec<Vec<VertexId>>,
}

thread_local! {
    static SCRATCH: std::cell::Cell<Scratch> = std::cell::Cell::new(Scratch::default());
}

/// Recursive interpreter state for one search.
struct Search<'a, F> {
    plan: &'a MatchPlan,
    target: &'a Csr,
    visit: &'a mut F,
    /// `pattern vertex → target vertex` (u32::MAX = unbound).
    mapping: &'a mut Vec<VertexId>,
    /// Bitset over target vertices already used by the partial embedding.
    used: &'a mut Vec<u64>,
    /// One intersection buffer per level, reused across candidates.
    bufs: &'a mut Vec<Vec<VertexId>>,
    nodes: u64,
    intersections: u64,
    pruned: u64,
}

impl<F> Search<'_, F>
where
    F: FnMut(&[VertexId]) -> Control,
{
    fn recurse<const COUNTING: bool>(&mut self, depth: usize) -> Control {
        self.nodes += 1;
        if depth == self.plan.levels.len() {
            return (self.visit)(self.mapping);
        }
        let level = &self.plan.levels[depth];
        let target = self.target;
        match level.anchors.len() {
            0 => {
                // Root of a (possibly disconnected) component: all
                // same-labeled vertices.
                let slice = target.vertices_with_label(level.label);
                self.run_slice::<COUNTING>(depth, slice)
            }
            1 => {
                let image = self.mapping[level.anchors[0] as usize];
                let slice = target.neighbors_with_label(image, level.label);
                self.run_slice::<COUNTING>(depth, slice)
            }
            _ => {
                // Sorted-merge intersection of every anchor image's
                // per-label slice, smallest first.
                let mut slices: Vec<&[VertexId]> = level
                    .anchors
                    .iter()
                    .map(|&a| target.neighbors_with_label(self.mapping[a as usize], level.label))
                    .collect();
                slices.sort_unstable_by_key(|s| s.len());
                let mut buf = std::mem::take(&mut self.bufs[depth]);
                buf.clear();
                buf.extend_from_slice(slices[0]);
                let before = buf.len();
                for other in &slices[1..] {
                    intersect_in_place(&mut buf, other);
                    self.intersections += 1;
                    if buf.is_empty() {
                        break;
                    }
                }
                self.pruned += (before - buf.len()) as u64;
                let ctl = self.run_buf::<COUNTING>(depth, &buf);
                self.bufs[depth] = buf;
                ctl
            }
        }
    }

    /// Tries every candidate in a CSR-owned slice.
    fn run_slice<const COUNTING: bool>(&mut self, depth: usize, slice: &[VertexId]) -> Control {
        if COUNTING && depth + 1 == self.plan.levels.len() {
            return self.leaf_scan(depth, slice);
        }
        for &cand in slice {
            if self.try_candidate::<COUNTING>(depth, cand) == Control::Stop {
                return Control::Stop;
            }
        }
        Control::Continue
    }

    /// Tries every candidate in an intersection buffer (not borrowed from
    /// `self` — the caller took it out of `bufs`).
    fn run_buf<const COUNTING: bool>(&mut self, depth: usize, buf: &[VertexId]) -> Control {
        if COUNTING && depth + 1 == self.plan.levels.len() {
            return self.leaf_scan(depth, buf);
        }
        for &cand in buf {
            if self.try_candidate::<COUNTING>(depth, cand) == Control::Stop {
                return Control::Stop;
            }
        }
        Control::Continue
    }

    /// Counting-mode fast path for the last level: each surviving
    /// candidate completes exactly one embedding, so filter and visit
    /// without binding or recursing. The leaf stays unmapped — counting
    /// visitors ignore the mapping (see [`MatchPlan::search`]).
    fn leaf_scan(&mut self, depth: usize, slice: &[VertexId]) -> Control {
        let level = &self.plan.levels[depth];
        for &cand in slice {
            let (word, bit) = (cand as usize / 64, 1u64 << (cand as usize % 64));
            if self.used[word] & bit != 0
                || (level.min_degree != 0 && (self.target.degree(cand) as u32) < level.min_degree)
            {
                self.pruned += 1;
                continue;
            }
            self.nodes += 1;
            if (self.visit)(self.mapping) == Control::Stop {
                return Control::Stop;
            }
        }
        Control::Continue
    }

    fn try_candidate<const COUNTING: bool>(&mut self, depth: usize, cand: VertexId) -> Control {
        let level = &self.plan.levels[depth];
        let (word, bit) = (cand as usize / 64, 1u64 << (cand as usize % 64));
        if self.used[word] & bit != 0
            || (level.min_degree != 0 && (self.target.degree(cand) as u32) < level.min_degree)
        {
            self.pruned += 1;
            return Control::Continue;
        }
        let vertex = level.vertex as usize;
        self.mapping[vertex] = cand;
        self.used[word] |= bit;
        let ctl = self.recurse::<COUNTING>(depth + 1);
        self.mapping[vertex] = u32::MAX;
        self.used[word] &= !bit;
        ctl
    }
}

/// Falling factorial `k · (k−1) · … · (k−m+1)` — the number of injective
/// assignments of `m` distinguishable leaves into `k` candidates; 0 when
/// `k < m`. Saturating: exactness past `i128::MAX` would need a target
/// with ≳2³² same-label vertices, unreachable with `u32` vertex ids.
#[inline]
fn falling(k: i128, m: u32) -> i128 {
    let m = m as i128;
    if k < m {
        return 0;
    }
    let mut product = 1i128;
    for taken in 0..m {
        product = product.saturating_mul(k - taken);
    }
    product
}

/// Inclusion–exclusion for one leaf label of a double star: the number of
/// ways to assign `pb` leaves into an `alpha`-sized pool and `pc` leaves
/// into a `beta`-sized pool, injectively and disjointly, where the pools
/// share `common` vertices:
///
/// `Σ_j (−1)^j C(pb,j) · C(pc,j) · j! · ff(common,j) · ff(alpha−j, pb−j)
///  · ff(beta−j, pc−j)`
///
/// (choose the `j` colliding leaves on each side, pair them up, place the
/// pairs on shared vertices, assign the rest freely).
fn double_star_ways(alpha: i128, beta: i128, common: i128, pb: u32, pc: u32) -> i128 {
    let mut ways = 0i128;
    for j in 0..=pb.min(pc).min(common.max(0).min(u32::MAX as i128) as u32) {
        let mut term = falling(common, j)
            .saturating_mul(falling(alpha - j as i128, pb - j))
            .saturating_mul(falling(beta - j as i128, pc - j));
        // C(pb,j) · C(pc,j) · j!  =  ff(pb,j) · ff(pc,j) / j!
        term = term
            .saturating_mul(falling(pb as i128, j))
            .saturating_mul(falling(pc as i128, j))
            / falling(j as i128, j).max(1);
        if j % 2 == 0 {
            ways = ways.saturating_add(term);
        } else {
            ways = ways.saturating_sub(term);
        }
    }
    ways
}

/// Counts elements common to two sorted slices (two-pointer merge).
#[inline]
fn sorted_common(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Intersects sorted `buf` with sorted `other` in place (two-pointer
/// merge), keeping only common elements.
fn intersect_in_place(buf: &mut Vec<VertexId>, other: &[VertexId]) {
    let mut write = 0;
    let mut j = 0;
    for i in 0..buf.len() {
        let x = buf[i];
        while j < other.len() && other[j] < x {
            j += 1;
        }
        if j == other.len() {
            break;
        }
        if other[j] == x {
            buf[write] = x;
            write += 1;
            j += 1;
        }
    }
    buf.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn triangle(l: u32) -> LabeledGraph {
        GraphBuilder::new()
            .vertices(&[l, l, l])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
    }

    /// Spider / broom on 5 vertices: center 0 with leaves 1, 2 and the
    /// 2-path 0–3–4 — a double star on centers (0, 3).
    fn spider(labels: &[u32; 5]) -> LabeledGraph {
        GraphBuilder::new()
            .vertices(labels)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(3, 4)
            .build()
    }

    #[test]
    fn closed_form_detection() {
        let form = |p: &LabeledGraph| MatchPlan::compile(p).closed_form;
        let star = |p: &LabeledGraph| matches!(form(p), Some(ClosedForm::Star { .. }));
        let double = |p: &LabeledGraph| matches!(form(p), Some(ClosedForm::DoubleStar { .. }));
        assert!(star(&path(&[0, 1])), "single edge is a star");
        assert!(star(&path(&[0, 1, 2])), "2-edge path is a star");
        assert!(star(
            &GraphBuilder::new()
                .vertices(&[0, 1, 1, 2])
                .edge(0, 1)
                .edge(0, 2)
                .edge(0, 3)
                .build()
        ));
        assert!(double(&path(&[0, 1, 2, 3])), "4-path is a double star");
        assert!(double(&spider(&[0, 1, 1, 2, 3])));
        assert!(matches!(
            form(&path(&[0, 1, 2, 3, 4])),
            Some(ClosedForm::Path5 { .. })
        ));
        assert!(form(&triangle(0)).is_none());
        assert!(
            form(&GraphBuilder::new().vertices(&[0, 0]).build()).is_none(),
            "edgeless pattern is not a tree"
        );
        // Tree edge counts without being trees: no closed form.
        let triangle_plus = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build();
        assert!(form(&triangle_plus).is_none());
        let triangle_plus_edge = GraphBuilder::new()
            .vertices(&[0, 0, 0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(3, 4)
            .build();
        assert!(form(&triangle_plus_edge).is_none());
    }

    #[test]
    fn empty_pattern_has_one_embedding() {
        let plan = MatchPlan::compile(&LabeledGraph::new());
        let t = Csr::from_graph(&triangle(0));
        assert_eq!(plan.count_embeddings(&t, u64::MAX), 1);
        assert!(plan.is_subgraph_of(&t));
        assert_eq!(plan.find_embeddings(&t, 10), vec![Vec::<VertexId>::new()]);
    }

    #[test]
    fn cap_saturates_and_limit_respected() {
        let plan = MatchPlan::compile(&path(&[0, 0]));
        let t = Csr::from_graph(&triangle(0));
        assert_eq!(plan.count_embeddings(&t, 0), 0);
        assert_eq!(plan.count_embeddings(&t, 4), 4);
        assert_eq!(plan.count_embeddings(&t, u64::MAX), 6);
        assert_eq!(plan.find_embeddings(&t, 3).len(), 3);
        assert!(plan.find_embeddings(&t, 0).is_empty());
    }
}
