//! Sketch-and-refine solving: cluster-compressed instances with a
//! verified objective-bound bracket.
//!
//! The exact paths (ILP, MFI, even the greedies) all scale in the
//! number of distinct queries, so million-query logs price them out.
//! This module ports the **SketchRefine** recipe of Brucato et al.
//! (*Scalable Package Queries*) to SOC-CB-QL:
//!
//! 1. **Project** the instance onto the tuple's universe
//!    ([`SocInstance::reduced`]) — the refine pass composes with the
//!    existing `project_onto` machinery rather than reinventing it.
//!    **Then search exactly**: a branch-and-bound over the projected
//!    log (§IV.B's search with a fractional charging bound in place of
//!    the LP relaxation) runs under a fixed work budget. When it
//!    finishes, its answer is the optimum with a closed bracket and the
//!    phases below are skipped; they run only when the budget fires
//!    ([`SketchSolver::sketch_and_refine`] runs them alone). This is the
//!    certify-then-stop split of the same paper: solve exactly while
//!    that is cheap, and sketch only what is not.
//! 2. **Cluster** the compact log's queries into `k` groups of similar
//!    attribute sets ([`soc_data::cluster_log`], deterministic
//!    k-centers seeded from `soc-rng`).
//! 3. **Sketch**: collapse each cluster to one representative query —
//!    the **union** of its members' attribute sets — weighted by the
//!    aggregate cluster weight. The result is an ordinary
//!    [`QueryLog`]/[`SocInstance`], solvable by any existing solver
//!    unchanged. A retained set satisfying a union representative
//!    satisfies *every* member, so the sketch objective of a retained
//!    set never overstates its true objective.
//! 4. **Refine**: re-solve a restricted instance built under a query
//!    budget of a few multiples of `k`. Clusters the sketch solution
//!    *touched* — those whose **intersection** representative the
//!    sketch's retained set satisfies (a member can only be satisfied
//!    if the intersection is) — are admitted first, heaviest first;
//!    the remaining budget fills with the heaviest untouched clusters.
//!    Below the budget the refine pass converges to the full projected
//!    solve; past it, the cap keeps the refine instance within a
//!    constant factor of the sketch instance instead of degenerating
//!    into a full re-solve (at scale most intersection representatives
//!    are empty and hence trivially satisfied). The refined retained
//!    set is re-scored against the whole compact log, so the reported
//!    objective is always a true, feasible objective of the original
//!    instance.
//!
//! **Bound bracket.** Callers get `[lower, upper]` certified to contain
//! the exact optimum without ground truth:
//!
//! - `lower` is the true objective of the best retained set found —
//!   feasible by construction, hence a valid lower bound on OPT.
//! - `upper` combines two sound overestimates. *Structural*: a cluster
//!   can only contribute if its intersection representative fits the
//!   budget (`|∩Cᵢ| ≤ m`), because every member contains the
//!   intersection; summing those clusters' weights bounds any retained
//!   set's objective. *Optimistic*: for any retained set `R`, if some
//!   member of `Cᵢ` is satisfied then `∩Cᵢ ⊆ R`, so the true objective
//!   is at most the objective of the **intersection sketch** (each
//!   cluster collapsed to its intersection, full cluster weight) at the
//!   same `R`; maximizing the intersection sketch with an *exact* inner
//!   solver therefore bounds OPT from above. The optimistic bound is
//!   taken only when [`SocAlgorithm::is_exact`] holds for the inner
//!   solver.
//!
//! With `clusters ≥ #queries` the clustering is the identity, union and
//! intersection representatives both degenerate to the queries
//! themselves, and the sketch solve *is* the exact (projected) solve —
//! the exactness anchor of `tests/sketch_diff.rs`.

use soc_data::{cluster_log, AttrSet, ClusterConfig, ClusterDistance, Query, QueryLog, Tuple};
use soc_obs::{counter, gauge, histogram};

use crate::{MfiSolver, ReducedInstance, SocAlgorithm, SocInstance, Solution};

/// Default cluster count for a log of `len` queries: `8·√len`, clamped
/// to `[16, 8192]` (and never above `len`). Grows slowly enough that
/// the sketch instance stays orders of magnitude smaller than the log
/// while giving the refine pass usefully tight clusters; on the topical
/// benchmark workload, doubling the multiplier from 4 to 8 recovered
/// most of the residual objective gap for pennies of extra solve time
/// (the sketch solve is mining-dominated, and mining cost grows far
/// slower than linearly in the cluster count).
pub fn default_clusters(len: usize) -> usize {
    let root = (len as f64).sqrt() as usize;
    (8 * root).clamp(16, 8192).min(len.max(1))
}

/// Refine-pass query budget for a `k`-cluster solve over a compact log
/// of `len` queries: `k`, at least 1024, never above `len`. Keeps the
/// refine instance no bigger than the sketch instance — the dominant
/// solver cost is the per-candidate support counting inside the MFI
/// attempt scan, which is linear in the instance's rows, so a refine
/// instance of sketch size keeps refine within a constant factor of the
/// sketch solve. Without a cap, the empty intersection representatives
/// that dominate at scale would mark nearly every cluster as touched
/// and the refine pass would re-solve the entire log. Small instances
/// sit entirely under the floor, so there the refine pass converges to
/// the full projected solve.
fn refine_cap(k: usize, len: usize) -> usize {
    k.max(1024).min(len)
}

/// A sketch-and-refine solve with its certified objective bracket.
#[derive(Clone, Debug)]
pub struct SketchOutcome {
    /// The best feasible solution found (refined, re-scored on the full
    /// instance).
    pub solution: Solution,
    /// `solution.satisfied` — a true lower bound on the exact optimum.
    pub lower: usize,
    /// Certified upper bound on the exact optimum (see module docs).
    pub upper: usize,
    /// Clusters actually formed (≤ requested; identity when the log is
    /// smaller than the request).
    pub clusters: usize,
    /// Queries of the compact log re-solved by the refine pass.
    pub refine_queries: usize,
}

impl SketchOutcome {
    /// The relative approximation gap certified by the bracket,
    /// `(upper − lower) / upper` — `0.0` when the bracket is tight or
    /// the instance is trivially empty.
    pub fn gap(&self) -> f64 {
        if self.upper == 0 {
            0.0
        } else {
            (self.upper - self.lower) as f64 / self.upper as f64
        }
    }
}

/// Sketch-and-refine wrapper around any inner solver.
///
/// The inner solver runs (unchanged) on the sketch, refine, and
/// optimistic-bound instances; an exact inner solver yields the
/// tightest brackets, a greedy inner yields the fastest sketches with
/// the structural upper bound only.
#[derive(Clone, Debug)]
pub struct SketchSolver<A> {
    /// Requested cluster count (effective count is capped at the
    /// compact log's length). Must be ≥ 1.
    pub clusters: usize,
    /// Clustering distance.
    pub distance: ClusterDistance,
    /// Clustering seed.
    pub seed: u64,
    /// Solver for the sketch/refine/bound instances.
    pub inner: A,
}

impl SketchSolver<MfiSolver> {
    /// A sketch solver with the paper's random-walk MFI solver inside —
    /// the configuration the CLI and serve layers expose. The walk's
    /// adaptive threshold makes it exact (in the walk budget, the
    /// paper's own guarantee); the provably-exact backtracking miner is
    /// deliberately *not* used here because refine instances carry raw
    /// short queries whose dense complements it cannot enumerate
    /// (EXPERIMENTS.md, "Miner comparison").
    pub fn new(clusters: usize) -> Self {
        Self {
            clusters,
            distance: ClusterDistance::default(),
            seed: ClusterConfig::default().seed,
            inner: MfiSolver::default(),
        }
    }
}

impl<A: SocAlgorithm> SketchSolver<A> {
    /// A sketch solver with a custom inner solver.
    pub fn with_inner(clusters: usize, inner: A) -> Self {
        Self {
            clusters,
            distance: ClusterDistance::default(),
            seed: ClusterConfig::default().seed,
            inner,
        }
    }

    /// Solves the instance and returns the full bracketed outcome: the
    /// proven optimum with a closed bracket when the exact search
    /// finishes within [`SEARCH_BUDGET`], otherwise the better of the
    /// search's incumbent and [`SketchSolver::sketch_and_refine`]'s
    /// answer, bracketed by the tighter of their upper bounds.
    ///
    /// # Panics
    /// Panics if `clusters == 0`; the CLI and serve layers reject such
    /// requests with typed errors before reaching this point.
    pub fn solve_bracketed(&self, instance: &SocInstance<'_>) -> SketchOutcome {
        self.solve_within(instance, SEARCH_BUDGET)
    }

    /// [`SketchSolver::solve_bracketed`] under a search budget of
    /// `budget` row visits.
    fn solve_within(&self, instance: &SocInstance<'_>, budget: u64) -> SketchOutcome {
        assert!(self.clusters > 0, "cluster count must be at least 1");
        counter!("sketch.solves").inc();
        let _span = soc_obs::span("sketch_solve");

        // Phase 1: project onto the tuple's universe.
        let reduced = instance.reduced();
        let width = reduced.log().num_attrs();
        if width > MAX_SEARCH_WIDTH {
            return self.sketch_reduced(instance, &reduced);
        }
        let found = {
            let _span = soc_obs::span("sketch_search");
            search(
                reduced.log(),
                reduced.instance().effective_m(),
                budget,
                |_, _| {},
            )
        };
        counter!("sketch.search_nodes").add(found.nodes);
        counter!("sketch.search_visits").add(found.visits);
        counter!("sketch.search_cut").add(u64::from(found.open_bound.is_some()));
        let retained = || {
            reduced
                .mapping()
                .to_original(&mask_to_set(found.best, width))
        };
        let Some(open_bound) = found.open_bound else {
            record_gap(found.value, found.value);
            return SketchOutcome {
                solution: instance.solution_with_known_objective(retained(), found.value),
                lower: found.value,
                upper: found.value,
                clusters: 0,
                refine_queries: 0,
            };
        };

        // The budget fired: sketch, keep the better feasible answer, and
        // bracket with the tighter of the two sound upper bounds.
        let mut out = self.sketch_reduced(instance, &reduced);
        if found.value > out.lower {
            out.solution = instance.solution_with_known_objective(retained(), found.value);
            out.lower = found.value;
        }
        out.upper = out.upper.min(open_bound).max(out.lower);
        record_gap(out.lower, out.upper);
        out
    }

    /// Sketch-and-refine alone, without the exact search: phases 2–6 of
    /// the module docs on the projected instance.
    ///
    /// # Panics
    /// Panics if `clusters == 0`.
    pub fn sketch_and_refine(&self, instance: &SocInstance<'_>) -> SketchOutcome {
        assert!(self.clusters > 0, "cluster count must be at least 1");
        self.sketch_reduced(instance, &instance.reduced())
    }

    /// Phases 2–6 on `reduced`, the projection of `instance`.
    fn sketch_reduced(
        &self,
        instance: &SocInstance<'_>,
        reduced: &ReducedInstance,
    ) -> SketchOutcome {
        let rlog = reduced.log();
        let compact = reduced.instance();
        if rlog.is_empty() {
            // No query a compression could ever satisfy: the empty
            // retained set is optimal and the bracket is [0, 0].
            let retained = AttrSet::empty(instance.log.num_attrs());
            record_gap(0, 0);
            return SketchOutcome {
                solution: instance.solution_with_known_objective(retained, 0),
                lower: 0,
                upper: 0,
                clusters: 0,
                refine_queries: 0,
            };
        }

        // Phase 2: cluster the compact log.
        let t0 = soc_obs::metrics_then_now();
        let clustering = {
            let _span = soc_obs::span("sketch_cluster");
            cluster_log(
                rlog,
                &ClusterConfig {
                    k: self.clusters,
                    distance: self.distance,
                    seed: self.seed,
                    // A union representative wider than the retention
                    // budget can never be satisfied by any feasible t′,
                    // so an uncapped wide cluster turns its whole weight
                    // into dead rows and drags the sketch lower bound
                    // toward 0. Capping at `effective_m` splits such
                    // clusters until every representative is at least
                    // potentially satisfiable.
                    union_width_cap: Some(compact.effective_m().max(1)),
                    ..ClusterConfig::default()
                },
            )
        };
        let k = clustering.num_clusters();
        if std::env::var_os("SOC_MFI_TRACE").is_some() {
            eprintln!("sketch trace: clustered rows={} k={}", rlog.len(), k);
        }
        gauge!("sketch.clusters").set(k as i64);
        if let Some(t0) = t0 {
            histogram!("sketch.cluster_us").record(soc_obs::clock::elapsed_us(t0));
        }

        // Phase 3: per-cluster envelopes — union and intersection of the
        // members' attribute sets, plus aggregate weight. One pass.
        let universe = rlog.num_attrs();
        let mut union_rep = vec![AttrSet::empty(universe); k];
        let mut inter_rep: Vec<Option<AttrSet>> = vec![None; k];
        let mut weight = vec![0usize; k];
        for (id, q) in rlog.iter() {
            let c = clustering.cluster_of(id);
            union_rep[c].union_with(q.attrs());
            inter_rep[c] = Some(match inter_rep[c].take() {
                None => q.attrs().clone(),
                Some(acc) => acc.intersection(q.attrs()),
            });
            weight[c] += rlog.weight(id);
        }
        let inter_rep: Vec<AttrSet> = inter_rep
            .into_iter()
            .map(|r| r.expect("k-centers clusters are non-empty"))
            .collect();

        // Phase 4: solve the (pessimistic, union-representative) sketch.
        let t0 = soc_obs::metrics_then_now();
        let sketch_log = QueryLog::new_weighted(
            std::sync::Arc::clone(rlog.schema()),
            union_rep.iter().cloned().map(Query::new).collect(),
            weight.clone(),
        );
        let sketch_inst = SocInstance::new(&sketch_log, compact.tuple, instance.m);
        if std::env::var_os("SOC_MFI_TRACE").is_some() {
            eprintln!(
                "sketch trace: sketch solve rows={} weight={}",
                sketch_log.len(),
                sketch_log.total_weight()
            );
        }
        // Presolve the sketch with the cumulative greedy heuristic: its
        // objective is a feasible lower bound on the sketch optimum, so
        // a hint-aware inner solver starts its threshold schedule near
        // the optimum instead of at half the sketch's weight — on dense
        // sketch instances that removes most mining rounds.
        let presolve = crate::ConsumeAttrCumul.solve(&sketch_inst).satisfied;
        let sketch_sol = self.inner.solve_with_hint(&sketch_inst, presolve);
        let sketch_true = rlog.satisfied_count(&Tuple::new(sketch_sol.retained.clone()));
        if let Some(t0) = t0 {
            histogram!("sketch.sketch_us").record(soc_obs::clock::elapsed_us(t0));
        }

        // Phase 5: refine under the `refine_cap` query budget. Clusters
        // the sketch solution *touched* — those whose intersection
        // representative the retained set satisfies — are admitted
        // first (heaviest first; they are where improvements near the
        // sketch solution live), then the remaining budget is filled
        // with the heaviest untouched clusters. On instances smaller
        // than the budget the refine pass therefore converges to the
        // full projected solve; past it, the cap keeps the instance
        // within a constant factor of the sketch. Dropping clusters
        // never endangers soundness — the refine result is only ever
        // used as a feasible lower bound.
        let t0 = soc_obs::metrics_then_now();
        let mut members = vec![0usize; k];
        for (id, _) in rlog.iter() {
            members[clustering.cluster_of(id)] += 1;
        }
        let touched: Vec<bool> = inter_rep
            .iter()
            .map(|r| r.is_subset(&sketch_sol.retained))
            .collect();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&c| (!touched[c], std::cmp::Reverse(weight[c]), c));
        let mut budget = refine_cap(k, rlog.len());
        let mut selected = vec![false; k];
        let mut dropped = 0usize;
        for &c in &order {
            if members[c] <= budget {
                selected[c] = true;
                budget -= members[c];
            } else {
                dropped += 1;
            }
        }
        gauge!("sketch.refine_dropped_clusters").set(dropped as i64);
        let mut refine_queries = Vec::new();
        let mut refine_weights = Vec::new();
        for (id, q) in rlog.iter() {
            if selected[clustering.cluster_of(id)] {
                refine_queries.push(q.clone());
                refine_weights.push(rlog.weight(id));
            }
        }
        let refine_len = refine_queries.len();
        gauge!("sketch.refine_queries").set(refine_len as i64);
        let (mut best_retained, mut best_val) = (sketch_sol.retained, sketch_true);
        if refine_len > 0 {
            let _span = soc_obs::span("sketch_refine");
            let refine_log = QueryLog::new_weighted(
                std::sync::Arc::clone(rlog.schema()),
                refine_queries,
                refine_weights,
            );
            let refine_inst = SocInstance::new(&refine_log, compact.tuple, instance.m);
            // Warm-start: the sketch solution is feasible on the refine
            // instance too, so its objective there lower-bounds the
            // refine optimum — the adaptive-threshold walk can skip its
            // expensive low-threshold rounds.
            let hint = refine_log.satisfied_count(&Tuple::new(best_retained.clone()));
            let refine_sol = self.inner.solve_with_hint(&refine_inst, hint);
            let refine_true = rlog.satisfied_count(&Tuple::new(refine_sol.retained.clone()));
            if refine_true > best_val {
                best_retained = refine_sol.retained;
                best_val = refine_true;
            }
        }
        if let Some(t0) = t0 {
            histogram!("sketch.refine_us").record(soc_obs::clock::elapsed_us(t0));
        }

        // Phase 6: the upper bound. Structural: only clusters whose
        // intersection fits the budget can contribute. Optimistic: the
        // exact optimum of the intersection sketch dominates OPT.
        let m_eff = compact.effective_m();
        let structural: usize = inter_rep
            .iter()
            .zip(&weight)
            .filter(|(r, _)| r.count() <= m_eff)
            .map(|(_, &w)| w)
            .sum();
        let mut upper = structural;
        if self.inner.is_exact() && k < rlog.len() {
            // With identity clustering the sketch solve already was
            // exact, so the optimistic solve would just repeat it.
            let inter_log = QueryLog::new_weighted(
                std::sync::Arc::clone(rlog.schema()),
                inter_rep.into_iter().map(Query::new).collect(),
                weight,
            );
            let inter_inst = SocInstance::new(&inter_log, compact.tuple, instance.m);
            // `best_val` lower-bounds the true optimum, which the
            // intersection sketch's optimum dominates — a valid
            // warm-start for the same halving shortcut as the refine
            // pass.
            let optimistic = self.inner.solve_with_hint(&inter_inst, best_val).satisfied;
            upper = upper.min(optimistic);
        }
        if self.inner.is_exact() && k >= rlog.len() {
            // Identity clustering + exact inner: the sketch solve is the
            // exact projected solve, so the bracket is tight.
            upper = upper.min(best_val);
        }
        // The bracket is mathematically guaranteed; the clamp only
        // defends against an inner solver that overclaims exactness.
        debug_assert!(upper >= best_val, "bound bracket inverted");
        let upper = upper.max(best_val);
        record_gap(best_val, upper);

        // Map back to the original universe; the compact objective
        // equals the original objective by projection equivalence.
        let retained = reduced.mapping().to_original(&best_retained);
        SketchOutcome {
            solution: instance.solution_with_known_objective(retained, best_val),
            lower: best_val,
            upper,
            clusters: k,
            refine_queries: refine_len,
        }
    }
}

/// Publishes a bracket's gap in permille; a zero upper bound means a
/// zero-width bracket, gap 0.
fn record_gap(lower: usize, upper: usize) {
    let permille = ((upper - lower) * 1000).checked_div(upper).unwrap_or(0);
    gauge!("sketch.gap_permille").set(permille as i64);
}

/// Work budget of the exact-first search, in row visits: the live rows
/// summed over expanded nodes. Deterministic by construction, unlike a
/// wall-clock limit, so repeated solves and a traced replay of a served
/// solve return identical answers.
const SEARCH_BUDGET: u64 = 1 << 20;

/// Widest compact universe the search handles: one `u128` mask per row.
const MAX_SEARCH_WIDTH: usize = 128;

/// Relative slack on a fractional bound before it is rounded down to
/// the largest objective it admits. Float sums of the charges can land
/// a few ulps below the real bound; the slack keeps pruning sound.
const BOUND_SLACK: f64 = 1e-6;

/// The largest integer objective a fractional node bound admits.
fn admitted(bound: f64) -> usize {
    (bound * (1.0 + BOUND_SLACK)).floor() as usize
}

/// A search node: the retained attributes chosen so far, the ones ruled
/// out, and the rows still in play.
struct Node {
    chosen: u128,
    excluded: u128,
    /// Weight of the rows `chosen` already satisfies.
    satisfied: usize,
    /// Live rows, as indices: neither satisfied, nor hit by `excluded`,
    /// nor needing more attributes than the budget has room for.
    live: Vec<u32>,
    /// Upper bound on every completion below this node (the parent's).
    bound: usize,
}

/// What [`search`] found.
struct Found {
    /// Best retained set, as a mask over the compact universe.
    best: u128,
    /// Its objective.
    value: usize,
    /// `None` when the search finished, so `value` is optimal; else the
    /// largest bound of a node left open when the budget fired.
    open_bound: Option<usize>,
    nodes: u64,
    visits: u64,
}

/// Exact depth-first branch-and-bound for retaining at most `m` of the
/// compact log's attributes (§IV.B's search, with a charging bound in
/// place of the LP relaxation). Every live row `q` hands
/// `w_q / |q \ chosen|` to each of its undecided attributes; a node's
/// bound is its satisfied weight plus its top `m − k` charges (DESIGN.md
/// proves it sound). The search branches include-first on the attribute
/// with the largest charge and stops once `budget` row visits are spent.
/// `on_expand` sees each expanded node with its own bound.
fn search(log: &QueryLog, m: usize, budget: u64, mut on_expand: impl FnMut(&Node, f64)) -> Found {
    let width = log.num_attrs();
    assert!(width <= MAX_SEARCH_WIDTH, "search needs a u128 per row");
    let mut base = 0usize;
    let mut rows: Vec<(u128, usize)> = Vec::new();
    for (id, q) in log.iter() {
        let len = q.attrs().count();
        if len == 0 {
            base += log.weight(id);
        } else if len <= m {
            let mask = q.attrs().iter().fold(0u128, |acc, a| acc | 1 << a);
            rows.push((mask, log.weight(id)));
        }
    }

    let mut found = Found {
        best: 0,
        value: base,
        open_bound: None,
        nodes: 0,
        visits: 0,
    };
    let mut stack = vec![Node {
        chosen: 0,
        excluded: 0,
        satisfied: base,
        live: (0..rows.len() as u32).collect(),
        bound: usize::MAX,
    }];
    let mut charge = vec![0f64; width];
    let mut ranked = Vec::with_capacity(width);
    while let Some(node) = stack.pop() {
        if node.bound <= found.value || node.live.is_empty() {
            continue;
        }
        if found.visits >= budget {
            // Pending nodes that could still beat the incumbent bound
            // every answer not yet explored; this node is one of them.
            let open = stack
                .iter()
                .filter(|n| n.bound > found.value && !n.live.is_empty());
            found.open_bound = open.map(|n| n.bound).max().max(Some(node.bound));
            break;
        }
        found.nodes += 1;
        found.visits += node.live.len() as u64;

        charge.fill(0.0);
        for &r in &node.live {
            let (q, w) = rows[r as usize];
            let open = q & !node.chosen;
            let share = w as f64 / open.count_ones() as f64;
            for_each_bit(open, |a| charge[a] += share);
        }
        ranked.clear();
        ranked.extend(charge.iter().copied().filter(|&c| c > 0.0));
        ranked.sort_unstable_by(|a, b| b.total_cmp(a));
        let room = m - node.chosen.count_ones() as usize;
        let fractional = node.satisfied as f64 + ranked.iter().take(room).sum::<f64>();
        on_expand(&node, fractional);
        let bound = admitted(fractional);
        if bound <= found.value {
            continue;
        }

        // Branch on the largest charge, lowest attribute on ties.
        let pick = (0..width)
            .max_by(|&a, &b| charge[a].total_cmp(&charge[b]).then(b.cmp(&a)))
            .expect("live rows charge some attribute");
        let bit = 1u128 << pick;
        let mut with = Node {
            chosen: node.chosen | bit,
            excluded: node.excluded,
            satisfied: node.satisfied,
            live: Vec::with_capacity(node.live.len()),
            bound,
        };
        for &r in &node.live {
            let (q, w) = rows[r as usize];
            let open = (q & !with.chosen).count_ones() as usize;
            if open == 0 {
                with.satisfied += w;
            } else if open < room {
                with.live.push(r);
            }
        }
        let without = Node {
            chosen: node.chosen,
            excluded: node.excluded | bit,
            satisfied: node.satisfied,
            live: node
                .live
                .into_iter()
                .filter(|&r| rows[r as usize].0 & bit == 0)
                .collect(),
            bound,
        };
        if with.satisfied > found.value {
            found.value = with.satisfied;
            found.best = with.chosen;
        }
        stack.push(without);
        stack.push(with);
    }
    found
}

/// Calls `f` with the index of every set bit of `mask`, lowest first.
fn for_each_bit(mut mask: u128, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// A compact-universe mask as an [`AttrSet`].
fn mask_to_set(mask: u128, universe: usize) -> AttrSet {
    let mut set = AttrSet::empty(universe);
    for_each_bit(mask, |a| set.insert(a));
    set
}

impl<A: SocAlgorithm> SocAlgorithm for SketchSolver<A> {
    fn name(&self) -> &'static str {
        "SketchRefine"
    }

    fn is_exact(&self) -> bool {
        // Exact whenever the search finishes within its budget, but that
        // depends on the instance; conservatively heuristic.
        false
    }

    fn solve(&self, instance: &SocInstance<'_>) -> Solution {
        self.solve_bracketed(instance).solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForce;

    fn fig1() -> (QueryLog, Tuple) {
        let log =
            QueryLog::from_bitstrings(&["110000", "100100", "010100", "000101", "001010"]).unwrap();
        let t = Tuple::from_bitstring("110111").unwrap();
        (log, t)
    }

    #[test]
    fn identity_clustering_is_exact_on_fig1() {
        let (log, t) = fig1();
        for m in 0..=5 {
            let inst = SocInstance::new(&log, &t, m);
            let exact = BruteForce.solve(&inst).satisfied;
            let out = SketchSolver::with_inner(log.len(), BruteForce).solve_bracketed(&inst);
            assert_eq!(out.lower, exact, "m = {m}");
            assert_eq!(out.upper, exact, "m = {m}");
            assert_eq!(out.solution.satisfied, exact, "m = {m}");
        }
    }

    #[test]
    fn coarse_sketch_brackets_the_optimum_on_fig1() {
        let (log, t) = fig1();
        for k in 1..=4 {
            for m in 1..=4 {
                let inst = SocInstance::new(&log, &t, m);
                let exact = BruteForce.solve(&inst).satisfied;
                let out = SketchSolver::with_inner(k, BruteForce).solve_bracketed(&inst);
                assert!(out.lower <= exact, "k {k} m {m}");
                assert!(out.upper >= exact, "k {k} m {m}");
                assert_eq!(out.solution.satisfied, out.lower);
                assert!(out.solution.retained.is_subset(t.attrs()));
                assert!(out.solution.retained.count() <= m);
            }
        }
    }

    #[test]
    fn empty_projection_short_circuits() {
        let log = QueryLog::from_bitstrings(&["1100", "0100"]).unwrap();
        let t = Tuple::from_bitstring("0011").unwrap();
        let inst = SocInstance::new(&log, &t, 2);
        let out = SketchSolver::new(4).solve_bracketed(&inst);
        assert_eq!(out.solution.satisfied, 0);
        assert_eq!((out.lower, out.upper), (0, 0));
        assert_eq!(out.clusters, 0);
        assert_eq!(out.gap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_clusters_panics() {
        let (log, t) = fig1();
        let inst = SocInstance::new(&log, &t, 2);
        let _ = SketchSolver::with_inner(0, BruteForce).solve_bracketed(&inst);
    }

    /// A random weighted compact log over `width` attributes: rows of
    /// 0..=4 attributes (one may be empty), duplicates merged.
    fn random_log(rng: &mut soc_rng::StdRng, width: usize, rows: usize) -> QueryLog {
        let sets = (0..rows)
            .map(|_| {
                let len = rng.random_range(0..=4usize);
                AttrSet::from_indices(width, (0..len).map(|_| rng.random_range(0..width)))
            })
            .collect();
        QueryLog::from_attr_sets(width, sets).deduplicate()
    }

    /// The mask-form objective of retaining `set`.
    fn objective(log: &QueryLog, set: u128) -> usize {
        log.iter()
            .filter(|(_, q)| q.attrs().iter().all(|a| set >> a & 1 == 1))
            .map(|(id, _)| log.weight(id))
            .sum()
    }

    #[test]
    fn every_node_bound_dominates_its_subtree() {
        let mut rng = soc_rng::StdRng::seed_from_u64(7);
        for case in 0..60 {
            let width = rng.random_range(1..=9usize);
            let log = random_log(&mut rng, width, 18);
            let scores: Vec<(u128, usize)> = (0..1u128 << width)
                .map(|s| (s, objective(&log, s)))
                .collect();
            for m in 0..=width {
                let mut nodes = Vec::new();
                let found = search(&log, m, u64::MAX, |n, bound| {
                    nodes.push((n.chosen, n.excluded, bound));
                });
                let opt = scores
                    .iter()
                    .filter(|(s, _)| s.count_ones() as usize <= m)
                    .map(|&(_, v)| v)
                    .max()
                    .unwrap();
                assert_eq!(
                    (found.value, found.open_bound),
                    (opt, None),
                    "case {case} m {m}"
                );
                assert_eq!(objective(&log, found.best), opt);
                assert!(found.best.count_ones() as usize <= m);
                for (chosen, excluded, bound) in nodes {
                    let below = scores
                        .iter()
                        .filter(|(s, _)| s & chosen == chosen && s & excluded == 0)
                        .filter(|(s, _)| s.count_ones() as usize <= m)
                        .map(|&(_, v)| v)
                        .max()
                        .unwrap();
                    assert!(
                        bound + 1e-9 >= below as f64,
                        "case {case} m {m}: bound {bound} < subtree optimum {below}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_cut_search_still_brackets_the_optimum() {
        let mut rng = soc_rng::StdRng::seed_from_u64(11);
        let mut cut = 0;
        for case in 0..40 {
            let log = random_log(&mut rng, 10, 40);
            let t = Tuple::new(AttrSet::full(10));
            for m in [1, 3, 5] {
                let inst = SocInstance::new(&log, &t, m);
                let exact = BruteForce.solve(&inst).satisfied;
                for budget in [0, 1, 20, 60] {
                    let found = search(&log, m, budget, |_, _| {});
                    if let Some(open) = found.open_bound {
                        cut += 1;
                        assert!(found.value <= exact && exact <= open, "case {case} m {m}");
                    }
                    for k in [2, 5] {
                        let out =
                            SketchSolver::with_inner(k, BruteForce).solve_within(&inst, budget);
                        assert!(out.lower <= exact, "case {case} m {m} budget {budget}");
                        assert!(out.upper >= exact, "case {case} m {m} budget {budget}");
                        assert_eq!(out.solution.satisfied, out.lower);
                        assert_eq!(inst.objective(&out.solution.retained), out.lower);
                    }
                }
            }
        }
        assert!(cut > 100, "only {cut} searches were cut");
    }

    #[test]
    fn repeated_solves_are_identical() {
        let mut rng = soc_rng::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let log = random_log(&mut rng, 12, 60);
            let t = Tuple::new(AttrSet::full(12));
            let inst = SocInstance::new(&log, &t, 4);
            for budget in [5, SEARCH_BUDGET] {
                let solver = SketchSolver::new(6);
                let a = solver.solve_within(&inst, budget);
                let b = solver.solve_within(&inst, budget);
                assert_eq!(a.solution, b.solution, "budget {budget}");
                assert_eq!((a.lower, a.upper), (b.lower, b.upper), "budget {budget}");
            }
        }
    }

    #[test]
    fn default_clusters_scales_gently() {
        assert_eq!(default_clusters(0), 1);
        assert_eq!(default_clusters(10), 10); // capped at len
        assert_eq!(default_clusters(100), 80);
        assert_eq!(default_clusters(1_000_000), 8000);
        assert!(default_clusters(usize::MAX / 2) <= 8192);
    }
}
