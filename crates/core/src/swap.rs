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

use crate::ks::distributions_similar;
use crate::metrics::ScovContext;
use crate::patterns::PatternStore;
use midas_catapult::score::diversity;
use midas_graph::{GraphId, LabeledGraph};
use midas_index::{FctIndex, IfeIndex, PatternId};
use std::collections::BTreeSet;

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

/// Set-level measures needed by sw3–sw5, computed over the sample.
fn set_measures(patterns: &[LabeledGraph], ctx: &ScovContext<'_>) -> (f64, f64, f64) {
    let div = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let others: Vec<LabeledGraph> = patterns
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| q.clone())
                .collect();
            diversity(p, &others)
        })
        .fold(f64::INFINITY, f64::min);
    let div = if div.is_finite() { div } else { 0.0 };
    let cog = patterns
        .iter()
        .map(|p| p.cognitive_load())
        .fold(0.0, f64::max);
    // f_lcov over the sample: fraction of sampled graphs containing at
    // least one pattern edge label.
    let mut union: BTreeSet<GraphId> = BTreeSet::new();
    for p in patterns {
        for label in p.edge_labels() {
            if let Some(stats) = ctx.catalog.get(label) {
                union.extend(stats.support.intersection(ctx.sample).copied());
            }
        }
    }
    let lcov = if ctx.sample.is_empty() {
        0.0
    } else {
        union.len() as f64 / ctx.sample.len() as f64
    };
    (div, cog, lcov)
}

/// Runs the multi-scan swap, mutating `store` and keeping the TP/EP matrix
/// columns of both indices in sync.
pub fn multi_scan_swap(
    store: &mut PatternStore,
    candidates: Vec<LabeledGraph>,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
    fct_index: &mut FctIndex,
    ife_index: &mut IfeIndex,
) -> SwapOutcome {
    multi_scan_swap_weighted(store, candidates, ctx, params, fct_index, ife_index, None)
}

/// The query-log-aware variant (§3.5's extension): pattern and candidate
/// scores are multiplied by their log weight, biasing swaps toward
/// structures users actually formulate. `log = None` is the log-oblivious
/// default.
pub fn multi_scan_swap_weighted(
    store: &mut PatternStore,
    candidates: Vec<LabeledGraph>,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
    fct_index: &mut FctIndex,
    ife_index: &mut IfeIndex,
    log: Option<&crate::query_log::QueryLog>,
) -> SwapOutcome {
    let log_weight = |p: &LabeledGraph| log.map_or(1.0, |l| l.weight(p));
    let mut outcome = SwapOutcome::default();
    if candidates.is_empty() || store.is_empty() {
        return outcome;
    }
    // Remaining candidate pool across scans, with cached coverage/score.
    let mut pool: Vec<LabeledGraph> = candidates;
    let mut sigma = 0.25f64;
    let mut kappa = params.kappa;
    loop {
        let _scan_span = midas_obs::span!("batch.swap.scan");
        outcome.scans += 1;
        // Rank candidates by s' descending against the current set.
        let current = store.graphs();
        let mut ranked: Vec<(f64, f64, LabeledGraph)> = pool
            .iter()
            .map(|c| {
                let score = ctx.midas_score(c, &current) * log_weight(c);
                (score, ctx.scov(c), c.clone())
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        // Rank patterns by s' ascending.
        let mut pq_patterns: Vec<(f64, f64, PatternId)> = store
            .iter()
            .map(|(id, p)| {
                let others: Vec<LabeledGraph> = store
                    .iter()
                    .filter(|(other, _)| *other != id)
                    .map(|(_, q)| q.clone())
                    .collect();
                (ctx.midas_score(p, &others) * log_weight(p), ctx.scov(p), id)
            })
            .collect();
        pq_patterns.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));

        let mut swaps_this_scan = 0;
        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut victim_idx = 0usize;
        'candidates: for (ci, (cand_score, cand_scov, candidate)) in ranked.iter().enumerate() {
            if victim_idx >= pq_patterns.len() {
                break;
            }
            let (victim_score, victim_scov, victim_id) = pq_patterns[victim_idx];
            // sw2 failure terminates the scan (sorted candidates).
            if *cand_score < (1.0 + params.lambda) * victim_score {
                break 'candidates;
            }
            // sw1: benefit vs loss (Def. 6.2 — the coverage delta).
            if *cand_scov < (1.0 + kappa) * victim_scov {
                continue; // try the next candidate against the same victim
            }
            // sw3–sw5 and the KS guard on the hypothetical P'.
            let victim_graph = store.get(victim_id).expect("live pattern").clone();
            let before: Vec<LabeledGraph> = store.graphs();
            let mut after: Vec<LabeledGraph> = store
                .iter()
                .filter(|(id, _)| *id != victim_id)
                .map(|(_, p)| p.clone())
                .collect();
            after.push(candidate.clone());
            let (div_before, cog_before, lcov_before) = set_measures(&before, ctx);
            let (div_after, cog_after, lcov_after) = set_measures(&after, ctx);
            let sw3 = div_after >= (1.0 + params.alpha_div) * div_before;
            let sw4 = cog_before * (1.0 + params.alpha_cog) >= cog_after;
            let sw5 = lcov_after >= (1.0 + params.alpha_lcov) * lcov_before;
            let sizes_before = store.sizes();
            let mut sizes_after: Vec<usize> = before.iter().map(|p| p.edge_count()).collect();
            // Replace the victim's size by the candidate's.
            if let Some(pos) = sizes_after
                .iter()
                .position(|&s| s == victim_graph.edge_count())
            {
                sizes_after[pos] = candidate.edge_count();
            }
            let ks_ok = distributions_similar(&sizes_before, &sizes_after, params.ks_alpha);
            if !(sw3 && sw4 && sw5 && ks_ok) {
                continue; // candidate unusable against this victim
            }
            // Swap.
            store.remove(victim_id);
            fct_index.remove_pattern(victim_id);
            ife_index.remove_pattern(victim_id);
            let new_id = store
                .insert(candidate.clone())
                .expect("candidates were deduplicated against the store");
            fct_index.add_pattern(new_id, candidate);
            ife_index.add_pattern(new_id, candidate);
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
            .map(|(_, (_, _, c))| c)
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
    use midas_graph::{GraphBuilder, GraphDb, MatchKernel};
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
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
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

    #[test]
    fn beneficial_swap_happens() {
        // DB dominated by S-S-S chains; current pattern is a stale C-O-N
        // (covers 1 graph), candidate S-S-S covers 5.
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 5]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let ctx = ScovContext {
            fct: &w.fct.clone(),
            ife: &w.ife.clone(),
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(1),
        };
        let outcome = multi_scan_swap(
            &mut store,
            vec![path(&[3, 3, 3])],
            &ctx,
            &params(),
            &mut w.fct,
            &mut w.ife,
        );
        assert_eq!(outcome.swaps, 1);
        assert_eq!(store.len(), 1);
        assert!(store.contains_isomorphic(&path(&[3, 3, 3])));
    }

    #[test]
    fn quality_never_degrades_under_swaps() {
        let mut graphs = vec![path(&[0, 1, 2]); 2];
        graphs.extend(vec![path(&[3, 3, 3]); 6]);
        graphs.extend(vec![path(&[0, 1]); 2]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        store.insert(path(&[0, 1, 0])).unwrap();
        let fct_snapshot = w.fct.clone();
        let ife_snapshot = w.ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(1),
        };
        let before = crate::metrics::quality_of(&store.graphs(), &w.db, &w.catalog, &w.sample);
        multi_scan_swap(
            &mut store,
            vec![path(&[3, 3, 3]), path(&[3, 3])],
            &ctx,
            &params(),
            &mut w.fct,
            &mut w.ife,
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
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let fct_snapshot = w.fct.clone();
        let ife_snapshot = w.ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(1),
        };
        // Candidate covering nothing.
        let outcome = multi_scan_swap(
            &mut store,
            vec![path(&[7, 7, 7])],
            &ctx,
            &params(),
            &mut w.fct,
            &mut w.ife,
        );
        assert_eq!(outcome.swaps, 0);
        assert!(store.contains_isomorphic(&path(&[0, 1, 2])));
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut w = world(vec![path(&[0, 1])]);
        let mut store = PatternStore::new();
        let fct_snapshot = w.fct.clone();
        let ife_snapshot = w.ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(1),
        };
        let outcome = multi_scan_swap(
            &mut store,
            vec![path(&[0, 1])],
            &ctx,
            &params(),
            &mut w.fct,
            &mut w.ife,
        );
        assert_eq!(outcome.swaps, 0, "empty store: nothing to swap");
        store.insert(path(&[0, 1])).unwrap();
        let outcome2 = multi_scan_swap(&mut store, vec![], &ctx, &params(), &mut w.fct, &mut w.ife);
        assert_eq!(outcome2.swaps, 0, "no candidates: nothing to do");
    }

    #[test]
    fn query_log_weighting_changes_priorities() {
        use crate::query_log::QueryLog;
        // Two candidates with similar coverage; the log favours one.
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 4]);
        graphs.extend(vec![path(&[4, 4, 4]); 4]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        store.insert(path(&[0, 1, 2])).unwrap();
        let fct_snapshot = w.fct.clone();
        let ife_snapshot = w.ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(1),
        };
        let mut log = QueryLog::new(16);
        for _ in 0..5 {
            log.record(path(&[4, 4, 4, 4]));
        }
        let outcome = crate::swap::multi_scan_swap_weighted(
            &mut store,
            vec![path(&[3, 3, 3]), path(&[4, 4, 4])],
            &ctx,
            &params(),
            &mut w.fct,
            &mut w.ife,
            Some(&log),
        );
        assert!(outcome.swaps >= 1);
        // The single slot must have gone to the logged family.
        assert!(
            store.contains_isomorphic(&path(&[4, 4, 4])),
            "log-weighted swap should prefer the formulated family"
        );
    }

    #[test]
    fn indices_track_pattern_columns() {
        let mut graphs = vec![path(&[0, 1, 2])];
        graphs.extend(vec![path(&[3, 3, 3]); 5]);
        let mut w = world(graphs);
        let mut store = PatternStore::new();
        let old_id = store.insert(path(&[0, 1, 2])).unwrap();
        w.fct.add_pattern(old_id, &path(&[0, 1, 2]));
        w.ife.add_pattern(old_id, &path(&[0, 1, 2]));
        let fct_snapshot = w.fct.clone();
        let ife_snapshot = w.ife.clone();
        let ctx = ScovContext {
            fct: &fct_snapshot,
            ife: &ife_snapshot,
            db: &w.db,
            sample: &w.sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(1),
        };
        let outcome = multi_scan_swap(
            &mut store,
            vec![path(&[3, 3, 3])],
            &ctx,
            &params(),
            &mut w.fct,
            &mut w.ife,
        );
        assert_eq!(outcome.swaps, 1);
        let (removed, added) = outcome.replaced[0];
        assert_eq!(removed, old_id);
        assert!(w.fct.tp().col(removed).next().is_none());
        // The new pattern's column may be empty (no features), but the
        // store must hold it.
        assert!(store.get(added).is_some());
    }
}
