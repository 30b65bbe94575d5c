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
//! Swap decides against a read-only [`ScovContext`] and mutates only the
//! [`PatternStore`]: the indices hold graph-side rows only, so no index
//! state follows the pattern set.
//!
//! Each side is scored once per call: only `div` in `s'_p = scov × lcov ×
//! div / cog` depends on the current set, so `scov` (from the covered
//! counts candidate generation already computed), `lcov`, `cog` and the
//! log weight form one table, and each scan recomputes only diversity.
//! sw3–sw5's measures of the current set are recomputed only when a swap
//! changes it.

use crate::candidate_gen::{Candidate, CoverageState};
use crate::ks::distributions_similar;
use crate::metrics::ScovContext;
use crate::patterns::{PatternId, PatternStore};
use crate::query_log::QueryLog;
use midas_catapult::score::{
    diversity, lcov_pattern, pattern_score, set_measures, PatternScoreParts,
};
use midas_graph::LabeledGraph;
use std::collections::{BTreeMap, BTreeSet};

/// Swap parameters.
#[derive(Debug, Clone, Copy)]
pub struct SwapParams {
    /// Benefit/loss threshold `κ` (sw1) for the first scan.
    pub kappa: f64,
    /// Score threshold `λ` (sw2); the paper sets `λ = κ`.
    pub lambda: f64,
    /// KS significance level for the size-distribution guard.
    pub ks_alpha: f64,
    /// Optional stricter user requirement on diversity (§6.2):
    /// `f_div(P') ≥ (1 + α₁) · f_div(P)`. Zero recovers sw3.
    pub alpha_div: f64,
    /// Optional stricter requirement on cognitive load:
    /// `f_cog(P) · (1 + α₂) ≥ f_cog(P')`. Zero recovers sw4.
    pub alpha_cog: f64,
    /// Optional stricter requirement on label coverage:
    /// `f_lcov(P') ≥ (1 + α₃) · f_lcov(P)`. Zero recovers sw5.
    pub alpha_lcov: f64,
}

impl Default for SwapParams {
    /// Paper defaults: `κ = λ = 0.1`, KS at 5%, no extra α requirements.
    fn default() -> Self {
        SwapParams {
            kappa: 0.1,
            lambda: 0.1,
            ks_alpha: 0.05,
            alpha_div: 0.0,
            alpha_cog: 0.0,
            alpha_lcov: 0.0,
        }
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
}

/// The set-independent parts of a pattern's score: everything in `s'_p`
/// but `div`, and the query-log weight.
#[derive(Debug, Clone, Copy)]
struct ScoreRow {
    scov: f64,
    lcov: f64,
    cog: f64,
    weight: f64,
}

impl ScoreRow {
    fn new(
        ctx: &ScovContext<'_>,
        pattern: &LabeledGraph,
        covered: usize,
        log: Option<&QueryLog>,
    ) -> Self {
        ScoreRow {
            scov: ctx.scov_of(covered),
            lcov: lcov_pattern(pattern, ctx.catalog, ctx.db.len()),
            cog: pattern.cognitive_load(),
            weight: log.map_or(1.0, |l| l.weight(pattern)),
        }
    }

    /// The (log-weighted) `s'_p` at diversity `div`.
    fn score(&self, div: f64) -> f64 {
        pattern_score(PatternScoreParts {
            coverage: self.scov,
            lcov: self.lcov,
            div,
            cog: self.cog,
        }) * self.weight
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
    multi_scan_swap_weighted(store, candidates, coverage, ctx, params, None)
}

/// The query-log-aware variant (§3.5's extension): pattern and candidate
/// scores are multiplied by their log weight, biasing swaps toward
/// structures users actually formulate. `log = None` is the log-oblivious
/// default.
pub fn multi_scan_swap_weighted(
    store: &mut PatternStore,
    candidates: Vec<Candidate>,
    coverage: &CoverageState,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
    log: Option<&QueryLog>,
) -> SwapOutcome {
    let mut outcome = SwapOutcome::default();
    if candidates.is_empty() || store.is_empty() {
        return outcome;
    }
    // The score table; a swapped-in candidate carries its row over.
    let mut pattern_rows: BTreeMap<PatternId, ScoreRow> = store
        .iter()
        .map(|(id, p)| {
            let covered = *coverage
                .covered
                .get(&id)
                .expect("the coverage state is the store's");
            (id, ScoreRow::new(ctx, p, covered, log))
        })
        .collect();
    // Remaining candidate pool across scans, in the last scan's rank order.
    let mut pool: Vec<(ScoreRow, LabeledGraph)> = candidates
        .into_iter()
        .map(|c| (ScoreRow::new(ctx, &c.graph, c.covered, log), c.graph))
        .collect();
    let mut m_before = set_measures(&store.graphs(), ctx.catalog, ctx.sample);
    let mut sigma = 0.25f64;
    let mut kappa = params.kappa;
    loop {
        let _scan_span = midas_obs::span!("batch.swap.scan");
        outcome.scans += 1;
        let rank_span = midas_obs::span!("batch.swap.rank");
        // Rank candidates by s' descending against the current set.
        let current = store.graphs();
        let mut ranked: Vec<(f64, (ScoreRow, LabeledGraph))> = pool
            .into_iter()
            .map(|(row, c)| (row.score(diversity(&c, &current)), (row, c)))
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        // Rank patterns by s' ascending.
        let mut pq_patterns: Vec<(f64, PatternId)> = store
            .iter()
            .map(|(id, p)| {
                let others: Vec<LabeledGraph> = store
                    .iter()
                    .filter(|(other, _)| *other != id)
                    .map(|(_, q)| q.clone())
                    .collect();
                (pattern_rows[&id].score(diversity(p, &others)), id)
            })
            .collect();
        pq_patterns.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
        drop(rank_span);

        let _check_span = midas_obs::span!("batch.swap.check");
        let mut swaps_this_scan = 0;
        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut victim_idx = 0usize;
        'candidates: for (ci, (cand_score, (cand_row, candidate))) in ranked.iter().enumerate() {
            if victim_idx >= pq_patterns.len() {
                break;
            }
            let (victim_score, victim_id) = pq_patterns[victim_idx];
            // sw2 failure terminates the scan (sorted candidates).
            if *cand_score < (1.0 + params.lambda) * victim_score {
                break 'candidates;
            }
            // sw1: benefit vs loss (Def. 6.2 — the coverage delta).
            if cand_row.scov < (1.0 + kappa) * pattern_rows[&victim_id].scov {
                continue; // try the next candidate against the same victim
            }
            // sw3–sw5 and the KS guard on the hypothetical P'.
            let victim_size = store.get(victim_id).expect("live pattern").edge_count();
            let mut after: Vec<LabeledGraph> = store
                .iter()
                .filter(|(id, _)| *id != victim_id)
                .map(|(_, p)| p.clone())
                .collect();
            after.push(candidate.clone());
            let m_after = set_measures(&after, ctx.catalog, ctx.sample);
            let sw3 = m_after.div >= (1.0 + params.alpha_div) * m_before.div;
            let sw4 = m_before.cog * (1.0 + params.alpha_cog) >= m_after.cog;
            let sw5 = m_after.lcov >= (1.0 + params.alpha_lcov) * m_before.lcov;
            let sizes_before = store.sizes();
            let mut sizes_after = sizes_before.clone();
            // Replace the victim's size by the candidate's.
            if let Some(pos) = sizes_after.iter().position(|&s| s == victim_size) {
                sizes_after[pos] = candidate.edge_count();
            }
            let ks_ok = distributions_similar(&sizes_before, &sizes_after, params.ks_alpha);
            if !(sw3 && sw4 && sw5 && ks_ok) {
                continue; // candidate unusable against this victim
            }
            // Swap.
            store.remove(victim_id);
            let new_id = store
                .insert(candidate.clone())
                .expect("candidates were deduplicated against the store");
            pattern_rows.remove(&victim_id);
            pattern_rows.insert(new_id, *cand_row);
            m_before = set_measures(&store.graphs(), ctx.catalog, ctx.sample);
            outcome.replaced.push((victim_id, new_id));
            outcome.swaps += 1;
            swaps_this_scan += 1;
            consumed.insert(ci);
            victim_idx += 1;
        }
        // Remove consumed candidates from the pool.
        pool = ranked
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, (_, c))| c)
            .collect();
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
    use midas_graph::{GraphBuilder, GraphDb, GraphId, MatchKernel};
    use midas_index::{FctIndex, IfeIndex};
    use midas_mining::EdgeCatalog;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    struct World {
        db: GraphDb,
        catalog: EdgeCatalog,
        sample: BTreeSet<GraphId>,
        fct: FctIndex,
        ife: IfeIndex,
    }

    fn world(graphs: Vec<LabeledGraph>) -> World {
        let db = GraphDb::from_graphs(graphs);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let fct = FctIndex::build(
            std::iter::empty::<(midas_mining::TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
        );
        let ife = IfeIndex::build(BTreeSet::new(), refs.iter().copied());
        World {
            db,
            catalog,
            sample,
            fct,
            ife,
        }
    }

    fn params() -> SwapParams {
        SwapParams {
            kappa: 0.1,
            lambda: 0.1,
            ks_alpha: 0.05,
            ..Default::default()
        }
    }

    /// Scores `graphs` and the store through `ctx`, then swaps.
    fn swap(
        store: &mut PatternStore,
        graphs: Vec<LabeledGraph>,
        ctx: &ScovContext<'_>,
        log: Option<&QueryLog>,
    ) -> SwapOutcome {
        let coverage = crate::candidate_gen::coverage_state(store, ctx);
        let candidates = Candidate::scored(ctx, graphs);
        multi_scan_swap_weighted(store, candidates, &coverage, ctx, &params(), log)
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
        let ctx = ScovContext {
            fct: &w.fct,
            ife: &w.ife,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(),
        };
        let outcome = swap(&mut store, vec![path(&[3, 3, 3])], &ctx, None);
        assert_eq!(outcome.swaps, 1);
        assert_eq!(store.len(), 1);
        assert!(store.contains_isomorphic(&path(&[3, 3, 3])));
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
        let ctx = ScovContext {
            fct: &w.fct,
            ife: &w.ife,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(),
        };
        let before = crate::metrics::quality_of(&store.graphs(), &w.db, &w.catalog, &w.sample);
        swap(
            &mut store,
            vec![path(&[3, 3, 3]), path(&[3, 3])],
            &ctx,
            None,
        );
        let after = crate::metrics::quality_of(&store.graphs(), &w.db, &w.catalog, &w.sample);
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
        let ctx = ScovContext {
            fct: &w.fct,
            ife: &w.ife,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(),
        };
        // Candidate covering nothing.
        let outcome = swap(&mut store, vec![path(&[7, 7, 7])], &ctx, None);
        assert_eq!(outcome.swaps, 0);
        assert!(store.contains_isomorphic(&path(&[0, 1, 2])));
    }

    #[test]
    fn empty_inputs_are_noops() {
        let w = world(vec![path(&[0, 1])]);
        let mut store = PatternStore::new();
        let ctx = ScovContext {
            fct: &w.fct,
            ife: &w.ife,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(),
        };
        let outcome = swap(&mut store, vec![path(&[0, 1])], &ctx, None);
        assert_eq!(outcome.swaps, 0, "empty store: nothing to swap");
        store.insert(path(&[0, 1])).unwrap();
        let outcome2 = swap(&mut store, vec![], &ctx, None);
        assert_eq!(outcome2.swaps, 0, "no candidates: nothing to do");
    }

    #[test]
    fn query_log_weighting_changes_priorities() {
        // Two candidates with similar coverage; the log favours one.
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 4]);
        graphs.extend(vec![path(&[4, 4, 4]); 4]);
        let w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let ctx = ScovContext {
            fct: &w.fct,
            ife: &w.ife,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(),
        };
        let mut log = QueryLog::new(16);
        for _ in 0..5 {
            log.record(path(&[4, 4, 4, 4]));
        }
        let outcome = swap(
            &mut store,
            vec![path(&[3, 3, 3]), path(&[4, 4, 4])],
            &ctx,
            Some(&log),
        );
        assert!(outcome.swaps >= 1);
        // The single slot must have gone to the logged family.
        assert!(
            store.contains_isomorphic(&path(&[4, 4, 4])),
            "log-weighted swap should prefer the formulated family"
        );
    }
}
