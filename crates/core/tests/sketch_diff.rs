//! Differential tests for sketch-and-refine solving (`SketchSolver`).
//!
//! Two contracts, checked against brute-force ground truth on small
//! random logs:
//!
//! 1. **Exactness anchor** — with `clusters = #queries` the clustering
//!    is the identity, the sketch instance degenerates to the
//!    (projected, deduplicated) log, and an exact inner solver must
//!    return the exact objective with a tight bracket.
//! 2. **Bracket soundness** — with *any* coarser cluster count the
//!    returned `[lower, upper]` bracket must contain the exact
//!    objective, `lower` must equal the (feasible) returned solution's
//!    true objective, and the retained set must respect the tuple and
//!    budget.
//! 3. **Exact first** — `solve_bracketed` proves the optimum by search
//!    on instances this small, so the clustering and refine cases also
//!    run `sketch_and_refine`, which sketches without searching.

use soc_core::{
    BruteForce, MfiSolver, Projected, SketchOutcome, SketchSolver, SocAlgorithm, SocInstance,
};
use soc_data::{AttrSet, ClusterDistance, Query, QueryLog, Tuple};
use soc_rng::StdRng;

const M: usize = 9;

/// A reproducible random instance (same shape as `projection_diff.rs`):
/// random queries over `M` attributes, lengths 1..=4 skewed toward low
/// indices so duplicates and mergeable clusters arise, plus a random
/// tuple with roughly `density` ones.
fn random_instance(seed: u64, num_queries: usize, density: f64) -> (QueryLog, Tuple) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        let len = rng.random_range(1..=4usize);
        let mut attrs = AttrSet::empty(M);
        while attrs.count() < len {
            let x: f64 = rng.random();
            attrs.insert(((x * x * M as f64) as usize).min(M - 1));
        }
        sets.push(attrs);
    }
    let tuple = Tuple::new(AttrSet::from_indices(
        M,
        (0..M).filter(|_| rng.random_bool(density)),
    ));
    (QueryLog::from_attr_sets(M, sets), tuple)
}

#[test]
fn identity_clustering_matches_exact_with_tight_bracket() {
    for seed in 0..15u64 {
        let (log, t) = random_instance(seed, 20, 0.6);
        for m in [0, 1, 2, 3, 5, M] {
            let inst = SocInstance::new(&log, &t, m);
            let exact = BruteForce.solve(&inst).satisfied;
            let out = SketchSolver::with_inner(log.len(), BruteForce).solve_bracketed(&inst);
            assert_eq!(
                out.solution.satisfied, exact,
                "seed {seed} m {m}: identity sketch diverged from exact"
            );
            assert_eq!(out.lower, exact, "seed {seed} m {m}");
            assert_eq!(out.upper, exact, "seed {seed} m {m}: bracket not tight");
            assert!(out.solution.retained.is_subset(t.attrs()));
            assert!(out.solution.retained.count() <= m);
            assert_eq!(out.solution.retained.universe(), M);
        }
    }
}

#[test]
fn coarse_brackets_always_contain_the_exact_objective() {
    for seed in 20..35u64 {
        let (log, t) = random_instance(seed, 24, 0.55);
        for k in [1, 2, 3, 5, 8, 12] {
            for m in [1, 2, 4] {
                let inst = SocInstance::new(&log, &t, m);
                let exact = BruteForce.solve(&inst).satisfied;
                let solver = SketchSolver::with_inner(k, BruteForce);
                for out in [
                    solver.solve_bracketed(&inst),
                    solver.sketch_and_refine(&inst),
                ] {
                    assert!(
                        out.lower <= exact,
                        "seed {seed} k {k} m {m}: lower {} > exact {exact}",
                        out.lower
                    );
                    assert!(
                        out.upper >= exact,
                        "seed {seed} k {k} m {m}: upper {} < exact {exact}",
                        out.upper
                    );
                    assert_eq!(
                        out.solution.satisfied, out.lower,
                        "lower must be the returned solution's objective"
                    );
                    // The reported objective must be truthful on the
                    // original instance, not just the compact one.
                    assert_eq!(
                        out.solution.satisfied,
                        inst.objective(&out.solution.retained)
                    );
                    assert!(out.solution.retained.is_subset(t.attrs()));
                    assert!(out.solution.retained.count() <= m);
                }
            }
        }
    }
}

#[test]
fn brackets_hold_under_jaccard_and_mfi_inner() {
    // Both MFI engines inside — the production random-walk solver and
    // the backtracking miner (viable at this small scale) — with both
    // distance metrics outside.
    for seed in 40..46u64 {
        let (log, t) = random_instance(seed, 22, 0.6);
        for inner in [MfiSolver::default(), MfiSolver::deterministic()] {
            for distance in [ClusterDistance::Hamming, ClusterDistance::Jaccard] {
                for k in [3, 7] {
                    let inst = SocInstance::new(&log, &t, 3);
                    let exact = BruteForce.solve(&inst).satisfied;
                    let solver = SketchSolver {
                        distance,
                        ..SketchSolver::with_inner(k, inner.clone())
                    };
                    for out in [
                        solver.solve_bracketed(&inst),
                        solver.sketch_and_refine(&inst),
                    ] {
                        assert!(out.lower <= exact, "seed {seed} k {k} {distance:?}");
                        assert!(out.upper >= exact, "seed {seed} k {k} {distance:?}");
                        assert!(out.gap() >= 0.0);
                    }
                }
            }
        }
    }
}

#[test]
fn brackets_hold_on_weighted_logs() {
    for seed in 50..56u64 {
        let (log, t) = random_instance(seed, 30, 0.6);
        let weighted = log.deduplicate(); // merges duplicates into weights
        for k in [2, 4, weighted.len()] {
            let inst = SocInstance::new(&weighted, &t, 3);
            let exact = BruteForce.solve(&inst).satisfied;
            let solver = SketchSolver::with_inner(k, BruteForce);
            for out in [
                solver.solve_bracketed(&inst),
                solver.sketch_and_refine(&inst),
            ] {
                assert!(out.lower <= exact, "seed {seed} k {k}");
                assert!(out.upper >= exact, "seed {seed} k {k}");
                if k >= weighted.len() {
                    assert_eq!(out.lower, exact);
                    assert_eq!(out.upper, exact);
                }
            }
        }
    }
}

#[test]
fn sketch_solver_trait_surface() {
    let (log, t) = random_instance(99, 15, 0.6);
    let inst = SocInstance::new(&log, &t, 3);
    let solver = SketchSolver::new(4);
    assert_eq!(solver.name(), "SketchRefine");
    assert!(!solver.is_exact());
    let sol = solver.solve(&inst);
    let out = solver.solve_bracketed(&inst);
    assert_eq!(sol.satisfied, out.solution.satisfied);
    assert!(sol.retained.is_subset(t.attrs()));
}

#[test]
fn sketch_and_refine_clusters_and_refines() {
    // The sketch path proper: coarse clusterings form clusters, and the
    // refine pass re-solves a subset of the compact log.
    let (log, t) = random_instance(60, 40, 0.7);
    let inst = SocInstance::new(&log, &t, 3);
    let out = SketchSolver::with_inner(4, BruteForce).sketch_and_refine(&inst);
    assert!((1..=4).contains(&out.clusters), "clusters {}", out.clusters);
    assert!(out.refine_queries > 0);
    assert_eq!(
        out.solution.satisfied,
        inst.objective(&out.solution.retained)
    );
}

const TOPIC_ATTRS: usize = 16;

/// A reproducible 16-attribute topic instance: queries are 1–4
/// attributes of one of four topics (with an occasional off-topic
/// attribute), carry weights 1–6, and every third instance adds an
/// empty query. The tuple holds about three quarters of the attributes.
fn topic_instance(rng: &mut StdRng, case: usize) -> (QueryLog, Tuple) {
    let topics: Vec<Vec<usize>> = (0..4)
        .map(|_| {
            let mut attrs: Vec<usize> = (0..TOPIC_ATTRS).collect();
            rng.shuffle(&mut attrs);
            attrs.truncate(rng.random_range(4..=7usize));
            attrs
        })
        .collect();
    let mut sets = Vec::new();
    for _ in 0..rng.random_range(10..=40usize) {
        let topic = &topics[rng.random_range(0..topics.len())];
        let len = rng.random_range(1..=4usize).min(topic.len());
        let mut attrs = AttrSet::empty(TOPIC_ATTRS);
        while attrs.count() < len {
            attrs.insert(topic[rng.random_range(0..topic.len())]);
        }
        if rng.random_bool(0.1) {
            attrs.insert(rng.random_range(0..TOPIC_ATTRS));
        }
        sets.push(attrs);
    }
    if case % 3 == 0 {
        sets.push(AttrSet::empty(TOPIC_ATTRS));
    }
    let weights = sets.iter().map(|_| rng.random_range(1..=6usize)).collect();
    let schema = QueryLog::from_attr_sets(TOPIC_ATTRS, Vec::new())
        .schema()
        .clone();
    let log = QueryLog::new_weighted(schema, sets.into_iter().map(Query::new).collect(), weights);
    let tuple = Tuple::new(AttrSet::from_indices(
        TOPIC_ATTRS,
        (0..TOPIC_ATTRS).filter(|_| rng.random_bool(0.75)),
    ));
    (log, tuple)
}

/// Asserts `out` is a proven optimum equal to `exact`.
fn assert_proven(out: &SketchOutcome, exact: usize, inst: &SocInstance<'_>, what: &str) {
    assert_eq!(out.solution.satisfied, exact, "{what}");
    assert_eq!((out.lower, out.upper), (exact, exact), "{what}");
    assert_eq!((out.clusters, out.refine_queries), (0, 0), "{what}");
    assert_eq!(inst.objective(&out.solution.retained), exact, "{what}");
    assert!(
        out.solution.retained.is_subset(inst.tuple.attrs()),
        "{what}"
    );
    assert!(out.solution.retained.count() <= inst.m, "{what}");
}

#[test]
fn search_equals_projected_brute_force_at_every_m() {
    let solver = SketchSolver::new(8);
    let mut instances = 0;
    for seed in [1u64, 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..340 {
            let (log, t) = topic_instance(&mut rng, case);
            instances += 1;
            for m in 0..=TOPIC_ATTRS + 1 {
                let inst = SocInstance::new(&log, &t, m);
                let exact = Projected(BruteForce).solve(&inst).satisfied;
                let out = solver.solve_bracketed(&inst);
                assert_proven(
                    &out,
                    exact,
                    &inst,
                    &format!("seed {seed} case {case} m {m}"),
                );
            }
        }
    }
    assert!(instances >= 600);
}
