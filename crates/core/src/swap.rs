//! Swap-based pattern maintenance: the multi-scan swap of §6.2.
//!
//! Candidates (descending `s'_p`) are matched against existing patterns
//! (ascending `s'_p`). A swap happens only when **all** criteria hold:
//!
//! * **sw1** `S_B(p_c) ≥ (1 + κ) · S_L(p)` — benefit beats loss
//!   (Def. 6.2 reduces both to the respective subgraph coverages);
//! * **sw2** `s'_{p_c} ≥ (1 + λ) · s'_p` — score dominance; a failure here
//!   terminates the scan (candidates are sorted, nothing later can pass);
//! * **sw3** diversity does not drop; **sw4** cognitive load does not rise;
//!   **sw5** label coverage does not drop;
//! * the pattern-size distributions of `P` and `P'` pass the KS guard.
//!
//! Scans repeat with the `SWAP_α` κ-schedule (Lemma 6.3): starting from
//! `σ₀ = 0.25`, scan `t` uses `κ_t = 1 − 2σ_{t−1}` and improves the bound
//! to `σ_t = 0.25 / (1 − σ_{t−1})`, stopping once `σ ≥ 0.5`, candidates run
//! out, or a scan makes no swap. The first scan uses the configured `κ`.
//!
//! The swap is query-log oblivious, as the paper's framework is (§3.5): a
//! score depends on the database and the pattern set alone, and sw3–sw5
//! compare the set measures of `P` and `P'` with no extra margin.
//!
//! Swap decides against a read-only [`ScovContext`] and mutates only the
//! [`PatternStore`]: the indices hold graph-side rows only, so no index
//! state follows the pattern set.
//!
//! Every measure is read from tables built once per call. Only `div` in
//! `s'_p = scov × lcov × div / cog` depends on the current set, so `scov`
//! (from the covered counts carried in), `lcov` and `cog` form one
//! `ScoreRow` per pattern and candidate. Diversity and sw3's
//! `f_div` are minima over one table of `ged_tight_lower_bound`s: one per
//! ordered pair of patterns, and each candidate's bounds to and from every
//! pattern. A swap adds one pattern, so it adds one pair per remaining
//! candidate. sw5's `f_lcov` is the popcount of label bitsets (OR-ed
//! [`Bounds`] rows) over the sample, and sw4's `f_cog` the maximum of the
//! rows' `cog`. Each is the same min, max or integer ratio that
//! `diversity` and `set_measures` compute, so the swap decides exactly as
//! re-scoring through them would (DESIGN §5).
//!
//! A candidate may arrive unverified, with its dominance-filter survivors
//! ([`crate::candidate_gen::Coverage`]). Every factor of `s'_p` is
//! non-negative, so its score at `scov = |survivors| / |D_s|` bounds its
//! exact score from above. Each scan ranks the candidates by that key and
//! verifies one only when it reaches the front, then ranks it again by its
//! exact score. A candidate below the scan's sw2 stop is never verified,
//! and the verified ones come off the front in the order that ranking
//! every candidate by its exact score gives (`rank` has the tie rule).

use crate::candidate_gen::{Candidate, CoverageState};
use crate::ks::distributions_similar;
use crate::metrics::ScovContext;
use crate::patterns::{PatternId, PatternStore};
use midas_catapult::score::{pattern_score, PatternScoreParts, SetMeasures};
use midas_graph::ged::ged_tight_lower_bound;
use midas_graph::LabeledGraph;
use midas_mining::edges::{Bounds, GraphSet};
use std::cmp::Ordering;

/// KS significance level of the size-distribution guard (§6.2).
pub const KS_ALPHA: f64 = 0.05;

/// Swap parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwapParams {
    /// Benefit/loss threshold `κ` (sw1) for the first scan, and the score
    /// threshold `λ` (sw2): the paper sets `λ = κ` (§7.1).
    pub kappa: f64,
}

impl Default for SwapParams {
    /// Paper default: `κ = λ = 0.1`.
    fn default() -> Self {
        SwapParams { kappa: 0.1 }
    }
}

/// Outcome of a multi-scan swap run.
#[derive(Debug, Clone, Default)]
pub struct SwapOutcome {
    /// Number of swaps performed.
    pub swaps: usize,
    /// Number of scans executed.
    pub scans: usize,
    /// The ids removed and added, in order.
    pub replaced: Vec<(PatternId, PatternId)>,
    /// Candidates whose coverage the swap verified.
    pub verified: usize,
}

/// The set-independent parts of a pattern's score: everything in `s'_p`
/// but `div`, and the label bits behind `lcov`.
#[derive(Debug, Clone)]
struct ScoreRow {
    scov: f64,
    lcov: f64,
    cog: f64,
    /// The database graphs holding at least one of the pattern's edge
    /// labels: the union `lcov_pattern` counts.
    labels: GraphSet,
}

impl ScoreRow {
    fn new(
        ctx: &ScovContext<'_>,
        bounds: &mut Bounds<'_>,
        pattern: &LabeledGraph,
        covered: usize,
    ) -> Self {
        let labels = pattern
            .edge_labels()
            .fold(bounds.set_of([]), |set, label| set.or(bounds.row(label, 1)));
        ScoreRow {
            scov: ctx.scov_of(covered),
            lcov: labels.len() as f64 / ctx.db.len().max(1) as f64,
            cog: pattern.cognitive_load(),
            labels,
        }
    }

    /// `s'_p` at diversity `div`.
    fn score(&self, div: f64) -> f64 {
        pattern_score(PatternScoreParts {
            coverage: self.scov,
            lcov: self.lcov,
            div,
            cog: self.cog,
        })
    }
}

/// `div` from the minimum bound to the other patterns: the neutral 1.0
/// when there is no other pattern, as `catapult::score::diversity` has it.
fn diversity(min: Option<u32>) -> f64 {
    min.map_or(1.0, f64::from)
}

/// A pooled candidate with its bounds against the current patterns, in
/// the [`Table`]'s order.
struct Pooled {
    candidate: Candidate,
    /// The candidate's place in the input: the last tie-break of the rank
    /// order.
    index: usize,
    /// The candidate's row; its `scov` is the bound until the candidate
    /// is verified.
    row: ScoreRow,
    /// `ged_tight_lower_bound(graph, p)` for each pattern `p`.
    to: Vec<u32>,
    /// `ged_tight_lower_bound(p, graph)` for each pattern `p`.
    from: Vec<u32>,
    /// `div(c, P)` at the start of each scan so far.
    divs: Vec<f64>,
}

impl Pooled {
    /// `div(c, P)`: the minimum of the candidate's bounds to the patterns.
    fn diversity(&self) -> f64 {
        diversity(self.to.iter().copied().min())
    }

    /// The rank key in the current scan: `s'_p` at the scan's starting
    /// diversity, from the exact count or its bound.
    fn key(&self) -> f64 {
        self.row
            .score(*self.divs.last().expect("keyed within a scan"))
    }

    /// `s'_p` at the start of each earlier scan, the latest first.
    fn earlier_scores(&self) -> impl Iterator<Item = f64> + '_ {
        let (_, earlier) = self.divs.split_last().expect("ranked within a scan");
        earlier.iter().rev().map(|&div| self.row.score(div))
    }

    /// Verifies the candidate's coverage and scores its row from it.
    fn verify(&mut self, ctx: &ScovContext<'_>) {
        self.row.scov = ctx.scov_of(self.candidate.verify(ctx));
    }

    /// Drops the bounds to the pattern at `victim` and adds those to
    /// `added`, the pattern that replaced it at the end of the table.
    fn replace(&mut self, victim: usize, added: &LabeledGraph) {
        let graph = &self.candidate.graph;
        self.to.remove(victim);
        self.from.remove(victim);
        self.to.push(ged_tight_lower_bound(graph, added));
        self.from.push(ged_tight_lower_bound(added, graph));
    }
}

/// The rank order of a scan, as a sort key: `Greater` when `a` ranks
/// ahead of `b`. Higher keys rank first, and on equal keys an unverified
/// candidate goes first, so a verified candidate reaches the front only
/// when no unverified one could still outrank it. Two verified
/// candidates with equal keys compare by their scores in the previous
/// scan, then the one before, and so on, then by input order: the order
/// in which a stable sort per scan, fed the previous scan's order, puts
/// them.
fn rank(a: &Pooled, b: &Pooled) -> Ordering {
    compare(a.key(), b.key())
        .then_with(|| b.candidate.is_verified().cmp(&a.candidate.is_verified()))
        .then_with(|| {
            a.earlier_scores()
                .zip(b.earlier_scores())
                .map(|(x, y)| compare(x, y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
        .then_with(|| b.index.cmp(&a.index))
}

/// Orders two finite scores.
fn compare(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("finite scores")
}

/// The current pattern set as the swap scores it, in store (id) order: a
/// swapped-in pattern has the largest id, so it goes last.
struct Table {
    ids: Vec<PatternId>,
    rows: Vec<ScoreRow>,
    /// `bounds[i][j]` is `ged_tight_lower_bound(p_i, p_j)`; the bound is
    /// not symmetric, so both orders are kept. The diagonal is unused.
    bounds: Vec<Vec<u32>>,
    /// The sample's graphs, over the same universe as the label bits.
    sample: GraphSet,
    sample_len: usize,
}

impl Table {
    /// Scores the store and the candidates against it.
    fn new(
        store: &PatternStore,
        candidates: Vec<Candidate>,
        coverage: &CoverageState,
        ctx: &ScovContext<'_>,
    ) -> (Table, Vec<Pooled>) {
        // The catalog is the database's, so every row fits this universe.
        let mut bounds = Bounds::new(ctx.catalog, ctx.db.ids().collect());
        let patterns: Vec<(PatternId, &LabeledGraph)> = store.iter().collect();
        let table = Table {
            ids: patterns.iter().map(|&(id, _)| id).collect(),
            rows: patterns
                .iter()
                .map(|&(id, p)| {
                    let covered = *coverage
                        .covered
                        .get(&id)
                        .expect("the coverage state is the store's");
                    ScoreRow::new(ctx, &mut bounds, p, covered)
                })
                .collect(),
            bounds: patterns
                .iter()
                .enumerate()
                .map(|(i, &(_, p))| {
                    patterns
                        .iter()
                        .enumerate()
                        .map(|(j, &(_, q))| {
                            if i == j {
                                0
                            } else {
                                ged_tight_lower_bound(p, q)
                            }
                        })
                        .collect()
                })
                .collect(),
            sample: bounds.set_of(ctx.sample.iter().copied()),
            sample_len: ctx.sample.len(),
        };
        let pool = candidates
            .into_iter()
            .enumerate()
            .map(|(index, c)| Pooled {
                row: ScoreRow::new(ctx, &mut bounds, &c.graph, c.bound()),
                to: patterns
                    .iter()
                    .map(|&(_, p)| ged_tight_lower_bound(&c.graph, p))
                    .collect(),
                from: patterns
                    .iter()
                    .map(|&(_, p)| ged_tight_lower_bound(p, &c.graph))
                    .collect(),
                candidate: c,
                index,
                divs: Vec::new(),
            })
            .collect();
        (table, pool)
    }

    /// The position of pattern `id`.
    fn index(&self, id: PatternId) -> usize {
        self.ids
            .iter()
            .position(|&p| p == id)
            .expect("live pattern")
    }

    /// The patterns by `s'_p` ascending, ties in store order.
    fn ranked(&self) -> Vec<(f64, PatternId)> {
        let mut ranked: Vec<(f64, PatternId)> = (0..self.ids.len())
            .map(|i| {
                let others = self.bounds[i]
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &b)| b);
                (self.rows[i].score(diversity(others.min())), self.ids[i])
            })
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
        ranked
    }

    /// `f_lcov`, `f_div` and `f_cog` of the set, or of `P'` when `swap`
    /// puts a candidate in the place of the pattern at its index. A swap
    /// keeps the set's size and the store is never empty, so the set has a
    /// member and `set_measures`' 0 for an empty set never applies.
    fn measures(&self, swap: Option<(usize, &Pooled)>) -> SetMeasures {
        let victim = swap.map(|(v, _)| v);
        let kept: Vec<usize> = (0..self.ids.len()).filter(|&i| Some(i) != victim).collect();
        let members = || {
            kept.iter()
                .map(|&i| &self.rows[i])
                .chain(swap.map(|(_, c)| &c.row))
        };
        let pattern_pairs = kept.iter().flat_map(|&i| {
            kept.iter()
                .filter(move |&&j| j != i)
                .map(move |&j| self.bounds[i][j])
        });
        let candidate_pairs = swap
            .into_iter()
            .flat_map(|(_, c)| kept.iter().flat_map(move |&j| [c.to[j], c.from[j]]));
        let mut rows = members();
        let first = rows.next().expect("a non-empty set");
        let labels = rows.fold(first.labels.clone(), |set, r| set.or(&r.labels));
        SetMeasures {
            lcov: labels.and(&self.sample).len() as f64 / self.sample_len.max(1) as f64,
            div: diversity(pattern_pairs.chain(candidate_pairs).min()),
            cog: members().map(|r| r.cog).fold(0.0, f64::max),
        }
    }

    /// Puts the candidate in the place of the pattern at `victim`: its row
    /// and its bounds become the new pattern's, under `id`.
    fn replace(&mut self, victim: usize, id: PatternId, candidate: Pooled) {
        let Pooled {
            row,
            mut to,
            mut from,
            ..
        } = candidate;
        self.ids.remove(victim);
        self.rows.remove(victim);
        self.bounds.remove(victim);
        to.remove(victim);
        from.remove(victim);
        for (bounds, b) in self.bounds.iter_mut().zip(from) {
            bounds.remove(victim);
            bounds.push(b);
        }
        to.push(0); // the diagonal
        self.bounds.push(to);
        self.ids.push(id);
        self.rows.push(row);
    }
}

/// Runs the multi-scan swap, mutating only `store`. `coverage` is the
/// store's [`CoverageState`] over `ctx.sample`.
pub fn multi_scan_swap(
    store: &mut PatternStore,
    candidates: Vec<Candidate>,
    coverage: &CoverageState,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
) -> SwapOutcome {
    let mut outcome = SwapOutcome::default();
    if candidates.is_empty() || store.is_empty() {
        return outcome;
    }
    // The pool holds the remaining candidates across scans.
    let (mut table, mut pool) = Table::new(store, candidates, coverage, ctx);
    let mut m_before = table.measures(None);
    let mut sigma = 0.25f64;
    let mut kappa = params.kappa;
    loop {
        let _scan_span = midas_obs::span!("batch.swap.scan");
        outcome.scans += 1;
        let rank_span = midas_obs::span!("batch.swap.rank");
        // Rank candidates by s' descending against the current set, the
        // front last so that it pops.
        for c in &mut pool {
            c.divs.push(c.diversity());
        }
        let mut queue = pool;
        queue.sort_by(rank);
        let ranked = queue.len();
        // Rank patterns by s' ascending.
        let pq_patterns = table.ranked();
        drop(rank_span);

        let _check_span = midas_obs::span!("batch.swap.check");
        // Candidates taken off the queue and not swapped in.
        let mut passed = Vec::new();
        let mut swaps_this_scan = 0;
        let mut examined = 0u64;
        let mut victim_idx = 0usize;
        while let Some(front) = queue.last() {
            if victim_idx >= pq_patterns.len() {
                break;
            }
            let (victim_score, victim_id) = pq_patterns[victim_idx];
            // sw2 failure terminates the scan. The front's key is the
            // highest, and an unverified key bounds the exact score, so no
            // candidate can pass.
            if front.key() < (1.0 + params.kappa) * victim_score {
                break;
            }
            let mut candidate = queue.pop().expect("the front");
            if !candidate.candidate.is_verified() {
                candidate.verify(ctx);
                outcome.verified += 1;
                let at = queue.partition_point(|c| rank(c, &candidate).is_lt());
                queue.insert(at, candidate);
                continue;
            }
            // sw1: benefit vs loss (Def. 6.2 — the coverage delta).
            let victim = table.index(victim_id);
            if candidate.row.scov < (1.0 + kappa) * table.rows[victim].scov {
                passed.push(candidate);
                continue; // try the next candidate against the same victim
            }
            // sw3–sw5 and the KS guard on the hypothetical P'.
            examined += 1;
            let m_after = table.measures(Some((victim, &candidate)));
            let sw3 = m_after.div >= m_before.div;
            let sw4 = m_before.cog >= m_after.cog;
            let sw5 = m_after.lcov >= m_before.lcov;
            let victim_size = store.get(victim_id).expect("live pattern").edge_count();
            let sizes_before = store.sizes();
            let mut sizes_after = sizes_before.clone();
            // Replace the victim's size by the candidate's.
            if let Some(pos) = sizes_after.iter().position(|&s| s == victim_size) {
                sizes_after[pos] = candidate.candidate.graph.edge_count();
            }
            let ks_ok = distributions_similar(&sizes_before, &sizes_after, KS_ALPHA);
            if !(sw3 && sw4 && sw5 && ks_ok) {
                passed.push(candidate);
                continue; // candidate unusable against this victim
            }
            // Swap.
            store.remove(victim_id);
            let new_id = store
                .insert(candidate.candidate.graph.clone())
                .expect("candidates were deduplicated against the store");
            table.replace(victim, new_id, candidate);
            let added = store.get(new_id).expect("just inserted");
            for c in queue.iter_mut().chain(&mut passed) {
                c.replace(victim, added);
            }
            m_before = table.measures(None);
            outcome.replaced.push((victim_id, new_id));
            outcome.swaps += 1;
            swaps_this_scan += 1;
            victim_idx += 1;
        }
        midas_obs::counter_add!("swap.ranked", ranked as u64);
        midas_obs::counter_add!("swap.examined", examined);
        pool = queue;
        pool.append(&mut passed);
        // SWAP_α schedule (Lemma 6.3).
        if swaps_this_scan == 0 || pool.is_empty() || sigma >= 0.5 {
            break;
        }
        kappa = (1.0 - 2.0 * sigma).max(0.0);
        sigma = 0.25 / (1.0 - sigma);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_catapult::score::set_quality;
    use midas_graph::canonical::canonical_code;
    use midas_graph::{GraphBuilder, GraphDb, GraphId, MatchKernel};
    use midas_index::FctIndex;
    use midas_mining::EdgeCatalog;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    struct World {
        db: GraphDb,
        catalog: EdgeCatalog,
        sample: BTreeSet<GraphId>,
        fct: FctIndex,
        kernel: MatchKernel,
    }

    impl World {
        fn ctx(&self) -> ScovContext<'_> {
            ScovContext {
                fct: &self.fct,
                db: &self.db,
                sample: &self.sample,
                catalog: &self.catalog,
                kernel: &self.kernel,
            }
        }
    }

    /// A world with no FCT-Index rows: the dominance filter keeps the
    /// graphs with enough edges of each of a pattern's labels.
    fn world(graphs: Vec<LabeledGraph>) -> World {
        let db = GraphDb::from_graphs(graphs);
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        let sample: BTreeSet<GraphId> = db.ids().collect();
        World {
            db,
            catalog,
            sample,
            fct: FctIndex::new(),
            kernel: MatchKernel::new(),
        }
    }

    /// Scores `graphs` and the store through `ctx`, then swaps.
    fn swap(
        store: &mut PatternStore,
        graphs: Vec<LabeledGraph>,
        ctx: &ScovContext<'_>,
    ) -> SwapOutcome {
        let coverage = crate::candidate_gen::coverage_state(store, ctx);
        let candidates = Candidate::scored(ctx, graphs);
        multi_scan_swap(store, candidates, &coverage, ctx, &SwapParams::default())
    }

    /// Whether the store holds a pattern isomorphic to `pattern`.
    fn holds(store: &PatternStore, pattern: &LabeledGraph) -> bool {
        store.contains_code(&canonical_code(pattern))
    }

    /// The table and pool the swap starts from.
    fn table(
        store: &PatternStore,
        graphs: Vec<LabeledGraph>,
        ctx: &ScovContext<'_>,
    ) -> (Table, Vec<Pooled>) {
        let coverage = crate::candidate_gen::coverage_state(store, ctx);
        Table::new(store, Candidate::scored(ctx, graphs), &coverage, ctx)
    }

    /// `set_measures` on an explicit set, over the context's sample.
    fn explicit(set: &[LabeledGraph], ctx: &ScovContext<'_>) -> SetMeasures {
        midas_catapult::score::set_measures(set, ctx.catalog, ctx.sample)
    }

    #[test]
    fn patterns_tied_on_diversity_rank_in_store_order() {
        // Two families with disjoint labels cover two graphs each; a third
        // covers six.
        let mut graphs = vec![path(&[0, 1, 2]); 2];
        graphs.extend(vec![path(&[3, 4, 5]); 2]);
        graphs.extend(vec![path(&[7, 7, 7]); 6]);
        let w = world(graphs);
        let ctx = w.ctx();
        let mut store = PatternStore::new();
        let first = store.insert(path(&[0, 1, 2])).unwrap();
        let second = store.insert(path(&[3, 4, 5])).unwrap();
        let (table, _) = table(&store, vec![], &ctx);
        assert_eq!(table.bounds[0][1], table.bounds[1][0], "tied diversity");
        let ranked = table.ranked();
        assert_eq!(ranked[0].0, ranked[1].0, "tied scores");
        assert_eq!([ranked[0].1, ranked[1].1], [first, second]);
        // The first of the tied patterns is the one swapped out.
        let outcome = swap(&mut store, vec![path(&[7, 7, 7])], &ctx);
        assert_eq!(outcome.replaced.len(), 1);
        assert_eq!(outcome.replaced[0].0, first);
        assert!(holds(&store, &path(&[3, 4, 5])));
    }

    #[test]
    fn directed_bounds_give_the_explicit_f_div() {
        // A star and two paths over the same five labels, four edges each.
        // On equal edge counts the bound takes its max degree from its
        // first argument, so a star-path pair differs by direction.
        let star = GraphBuilder::new()
            .vertices(&[0, 1, 2, 3, 4])
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(0, 4)
            .build();
        let chain = path(&[1, 2, 3, 4, 0]);
        let other_chain = path(&[2, 3, 4, 1, 0]);
        for p in [&chain, &other_chain] {
            assert_ne!(
                ged_tight_lower_bound(&star, p),
                ged_tight_lower_bound(p, &star)
            );
        }
        let w = world(vec![star.clone(), chain.clone(), other_chain.clone()]);
        let ctx = w.ctx();
        let store = PatternStore::from_patterns([star.clone(), chain.clone()]);
        let (table, pool) = table(&store, vec![other_chain.clone()], &ctx);
        assert_eq!(table.measures(None), explicit(&store.graphs(), &ctx));
        let replacing = |victim: usize| table.measures(Some((victim, &pool[0])));
        assert_eq!(replacing(1), explicit(&[star, other_chain.clone()], &ctx));
        assert_eq!(replacing(0), explicit(&[chain, other_chain], &ctx));
    }

    #[test]
    fn a_lone_pattern_has_diversity_one() {
        let w = world(vec![path(&[0, 1, 2]), path(&[3, 3, 3])]);
        let ctx = w.ctx();
        let store = PatternStore::from_patterns([path(&[0, 1, 2])]);
        let (table, pool) = table(&store, vec![path(&[3, 3, 3])], &ctx);
        assert_eq!(table.ranked()[0].0, table.rows[0].score(1.0));
        let (before, after) = (table.measures(None), table.measures(Some((0, &pool[0]))));
        assert_eq!((before.div, after.div), (1.0, 1.0));
        assert_eq!(before, explicit(&store.graphs(), &ctx));
        assert_eq!(after, explicit(&[path(&[3, 3, 3])], &ctx));
    }

    #[test]
    fn an_empty_sample_has_no_label_coverage() {
        let mut w = world(vec![path(&[0, 1, 2]), path(&[3, 3, 3])]);
        w.sample.clear();
        let ctx = w.ctx();
        let store = PatternStore::from_patterns([path(&[0, 1, 2])]);
        let (table, pool) = table(&store, vec![path(&[3, 3, 3])], &ctx);
        let (before, after) = (table.measures(None), table.measures(Some((0, &pool[0]))));
        assert_eq!((before.lcov, after.lcov), (0.0, 0.0));
        assert_eq!(before, explicit(&store.graphs(), &ctx));
        // `s'_p`'s own lcov is over the database, not the sample.
        assert_eq!(table.rows[0].lcov, 0.5);
    }

    #[test]
    fn beneficial_swap_happens() {
        // DB dominated by S-S-S chains; current pattern is a stale C-O-N
        // (covers 1 graph), candidate S-S-S covers 5.
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 5]);
        let w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let ctx = w.ctx();
        let outcome = swap(&mut store, vec![path(&[3, 3, 3])], &ctx);
        assert_eq!(outcome.swaps, 1);
        assert_eq!(store.len(), 1);
        assert!(holds(&store, &path(&[3, 3, 3])));
    }

    #[test]
    fn quality_never_degrades_under_swaps() {
        let mut graphs = vec![path(&[0, 1, 2]); 2];
        graphs.extend(vec![path(&[3, 3, 3]); 6]);
        graphs.extend(vec![path(&[0, 1]); 2]);
        let w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        store.insert(path(&[0, 1, 0])).unwrap();
        let ctx = w.ctx();
        let quality = |store: &PatternStore| {
            set_quality(&w.kernel, &store.graphs(), &w.db, &w.catalog, &w.sample)
        };
        let before = quality(&store);
        swap(&mut store, vec![path(&[3, 3, 3]), path(&[3, 3])], &ctx);
        let after = quality(&store);
        assert!(after.scov >= before.scov, "sw1 guarantees coverage gain");
        assert!(after.div >= before.div, "sw3");
        assert!(after.cog <= before.cog + 1e-9, "sw4");
        assert!(after.lcov >= before.lcov - 1e-9, "sw5");
    }

    #[test]
    fn useless_candidates_cause_no_swaps() {
        let graphs = vec![path(&[0, 1, 2]); 5];
        let w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let ctx = w.ctx();
        // Candidate covering nothing.
        let outcome = swap(&mut store, vec![path(&[7, 7, 7])], &ctx);
        assert_eq!(outcome.swaps, 0);
        assert!(holds(&store, &path(&[0, 1, 2])));
    }

    #[test]
    fn empty_inputs_are_noops() {
        let w = world(vec![path(&[0, 1])]);
        let mut store = PatternStore::new();
        let ctx = w.ctx();
        let outcome = swap(&mut store, vec![path(&[0, 1])], &ctx);
        assert_eq!(outcome.swaps, 0, "empty store: nothing to swap");
        store.insert(path(&[0, 1])).unwrap();
        let outcome2 = swap(&mut store, vec![], &ctx);
        assert_eq!(outcome2.swaps, 0, "no candidates: nothing to do");
    }

    #[test]
    fn a_candidate_below_the_sw2_stop_is_never_verified() {
        // S-S-S covers five graphs and replaces C-O-N, which covers one. A
        // 4-4-4 path passes the filter on a graph of two disjoint 4-4
        // edges, but its bound scores below the sw2 stop of scan 2.
        let mut graphs = vec![path(&[3, 3, 3]); 5];
        graphs.push(path(&[0, 1, 2]));
        graphs.push(
            GraphBuilder::new()
                .vertices(&[4, 4, 4, 4])
                .edge(0, 1)
                .edge(2, 3)
                .build(),
        );
        let w = world(graphs);
        let ctx = w.ctx();
        let mut store = PatternStore::from_patterns([path(&[0, 1, 2])]);
        let coverage = crate::candidate_gen::coverage_state(&store, &ctx);
        let candidates = Candidate::filtered(&ctx, vec![path(&[3, 3, 3]), path(&[4, 4, 4])]);
        assert_eq!(
            candidates.iter().map(Candidate::bound).collect::<Vec<_>>(),
            [5, 1]
        );
        let misses = || w.kernel.cache().stats().misses;
        let before = misses();
        let outcome = multi_scan_swap(
            &mut store,
            candidates,
            &coverage,
            &ctx,
            &SwapParams::default(),
        );
        assert_eq!((outcome.swaps, outcome.scans, outcome.verified), (1, 2, 1));
        assert!(holds(&store, &path(&[3, 3, 3])));
        assert_eq!(misses() - before, 5, "only S-S-S's survivors were verified");
    }

    #[test]
    fn equal_scores_keep_the_previous_scans_order() {
        let w = world(vec![path(&[0, 1, 2]), path(&[3, 3, 3]), path(&[4, 4, 4])]);
        let ctx = w.ctx();
        let store = PatternStore::from_patterns([path(&[0, 1, 2])]);
        let (_, mut pool) = table(&store, vec![path(&[3, 3, 3]), path(&[4, 4, 4])], &ctx);
        // The same row, so the scores differ only by diversity: the second
        // candidate ranks ahead in scan 1, and the two tie in scan 2.
        pool[1].row = pool[0].row.clone();
        pool[0].divs = vec![1.0, 2.0];
        pool[1].divs = vec![1.5, 2.0];
        assert_eq!(pool[0].key(), pool[1].key(), "tied in scan 2");
        let want = per_scan_stable_sort(&pool);
        assert_eq!(want, [1, 0], "not input order");
        assert_eq!(rank_order(&pool), want);
    }

    /// The input indices of `pool` as a stable sort by exact score per
    /// scan, fed the previous scan's order, puts them: the order the swap
    /// had when it ranked every candidate exactly.
    fn per_scan_stable_sort(pool: &[Pooled]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for scan in 0..pool[0].divs.len() {
            order.sort_by(|&a, &b| {
                let score = |i: usize| pool[i].row.score(pool[i].divs[scan]);
                compare(score(b), score(a))
            });
        }
        order
    }

    /// The input indices of `pool` front first, as [`rank`] orders them.
    fn rank_order(pool: &[Pooled]) -> Vec<usize> {
        let mut queue: Vec<&Pooled> = pool.iter().collect();
        queue.sort_by(|a, b| rank(a, b));
        queue.iter().rev().map(|c| c.index).collect()
    }

    /// A random tree on 2–5 vertices over three labels, so that patterns
    /// and graphs share labels in different shapes.
    fn small_tree() -> impl Strategy<Value = LabeledGraph> {
        (
            proptest::collection::vec(0u32..3, 2..6),
            proptest::collection::vec(0usize..8, 4),
        )
            .prop_map(|(labels, parents)| {
                let mut g = LabeledGraph::new();
                for &l in &labels {
                    g.add_vertex(l);
                }
                for v in 1..labels.len() {
                    g.add_edge((parents[v - 1] % v) as u32, v as u32);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// With every candidate verified, `rank` puts the pool in the
        /// per-scan stable sort's order. Scores drawn from three coverages
        /// and two diversities tie often, within a scan and across scans.
        #[test]
        fn rank_is_the_per_scan_stable_sort(
            covered in proptest::collection::vec(0usize..3, 2..9),
            divs in proptest::collection::vec(proptest::collection::vec(1u32..3, 4), 9),
            scans in 1usize..5,
        ) {
            let w = world(vec![path(&[0, 1, 2]), path(&[3, 3, 3])]);
            let ctx = w.ctx();
            let store = PatternStore::from_patterns([path(&[0, 1, 2])]);
            let (_, mut pool) = table(&store, vec![path(&[3, 3, 3]); covered.len()], &ctx);
            for (c, (&n, d)) in pool.iter_mut().zip(covered.iter().zip(&divs)) {
                c.row.scov = n as f64 / 4.0;
                c.divs = d[..scans].iter().map(|&x| f64::from(x)).collect();
            }
            prop_assert_eq!(rank_order(&pool), per_scan_stable_sort(&pool));
        }

        /// Filtered candidates, verified only when they reach the front of
        /// a scan, make the swaps that the same candidates scored up front
        /// make: tight and loose bounds, ties on small label sets, and
        /// several scans.
        #[test]
        fn lazy_candidates_swap_as_scored_ones(
            graphs in proptest::collection::vec(small_tree(), 4..14),
            initial in proptest::collection::vec(small_tree(), 1..4),
            grown in proptest::collection::vec(small_tree(), 1..10),
            kappa in 0usize..2,
        ) {
            let store = PatternStore::from_patterns(initial);
            let mut codes: BTreeSet<_> = store.iter().map(|(_, p)| canonical_code(p)).collect();
            let grown: Vec<LabeledGraph> =
                grown.into_iter().filter(|g| codes.insert(canonical_code(g))).collect();
            prop_assume!(!grown.is_empty());
            let params = SwapParams {
                kappa: 0.1 * kappa as f64,
            };
            let run = |make: fn(&ScovContext<'_>, Vec<LabeledGraph>) -> Vec<Candidate>| {
                let w = world(graphs.clone());
                let ctx = w.ctx();
                let mut store = store.clone();
                let coverage = crate::candidate_gen::coverage_state(&store, &ctx);
                let candidates = make(&ctx, grown.clone());
                let outcome = multi_scan_swap(&mut store, candidates, &coverage, &ctx, &params);
                (outcome, store.graphs())
            };
            let (lazy, lazy_set) = run(Candidate::filtered);
            let (eager, eager_set) = run(Candidate::scored);
            prop_assert_eq!(
                (lazy.swaps, lazy.scans, &lazy.replaced),
                (eager.swaps, eager.scans, &eager.replaced)
            );
            prop_assert_eq!(lazy_set, eager_set);
            prop_assert_eq!(eager.verified, 0);
            prop_assert!(lazy.verified <= grown.len());
        }
    }
}
