//! Answer checking after the window: every requested tuple is answered
//! once, `retained ⊆ tuple`, `|retained| ≤ m`, and `satisfied` equals the
//! client's own recount on a mirror of the session log (for
//! `ingest_mix`, the mirror applies the ingests in frame order). Where
//! affordable, the exact optimum comes from `Projected(BruteForce)`.

use std::collections::{BTreeMap, HashMap};

use soc_core::{BruteForce, Projected, SocAlgorithm, SocInstance};
use soc_data::{AttrSet, QueryLog, Tuple};

use crate::e2e::Window;
use crate::workload::{Op, Workload};

#[derive(Default, Debug)]
pub struct Verdict {
    /// Tuples requested plus ingests sent.
    pub attempted: usize,
    /// Tuples or ingests that errored, went unanswered or failed a check.
    pub failed: usize,
    pub answered: usize,
    pub satisfied_total: u64,
    /// Σ exact optimum over the answered tuples (when checked).
    pub optimum_total: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn optimality_ratio(&self) -> Option<f64> {
        (self.optimum_total > 0).then(|| self.satisfied_total as f64 / self.optimum_total as f64)
    }
}

/// Exact optima of `tuples` on `log`, computed on two threads.
fn exact_optima(log: &QueryLog, w: &Workload, tuples: &[usize]) -> HashMap<usize, u64> {
    let half = tuples.len().div_ceil(2);
    let solve = |part: &[usize]| -> Vec<(usize, u64)> {
        part.iter()
            .map(|&t| {
                let inst = SocInstance::new(log, &w.tuples[t], w.m);
                (t, Projected(BruteForce).solve(&inst).satisfied as u64)
            })
            .collect()
    };
    std::thread::scope(|s| {
        let (a, b) = tuples.split_at(half);
        let other = s.spawn(|| solve(b));
        let mut all = solve(a);
        all.extend(other.join().expect("exact-optimum thread panicked"));
        all.into_iter().collect()
    })
}

pub fn verify(w: &Workload, win: &Window) -> Verdict {
    let mut v = Verdict::default();
    let mut by_key: HashMap<(usize, usize), usize> = HashMap::new();
    for (i, a) in win.answers.iter().enumerate() {
        if by_key.insert((a.op, a.slot), i).is_some() {
            v.fail(format!("frame {} slot {} answered twice", a.op, a.slot));
        }
    }

    // Answered tuples grouped by the log version they were solved on.
    let mut versions: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    let mut errored = win.errors;
    for &op in &win.issued {
        match w.op(op) {
            Op::Ingest(_) => v.attempted += 1,
            Op::Solve(_) | Op::Batch(_) => {
                for (slot, t) in w.op_tuples(op).into_iter().enumerate() {
                    v.attempted += 1;
                    match by_key.get(&(op, slot)) {
                        Some(&i) => versions
                            .entry(w.ingests_before(op))
                            .or_default()
                            .push((i, t)),
                        // An error frame already counted this tuple.
                        None if errored > 0 => errored -= 1,
                        None => v.fail(format!("frame {op} slot {slot} never answered")),
                    }
                }
            }
        }
    }
    v.failed += win.errors;
    v.notes.extend(win.notes.iter().take(8).cloned());
    let ingests_answered = win.ingest_lat_ms.len();
    let ingests_sent = win
        .issued
        .iter()
        .filter(|&&op| matches!(w.op(op), Op::Ingest(_)))
        .count();
    if ingests_answered != ingests_sent {
        v.fail(format!(
            "{ingests_sent} ingests sent, {ingests_answered} acknowledged"
        ));
    }

    let m = w.m;
    for (version, items) in versions {
        let mirror = w.mirror(version);
        let optima = if w.exact_check {
            let mut tuples: Vec<usize> = items.iter().map(|&(_, t)| t).collect();
            tuples.sort_unstable();
            tuples.dedup();
            exact_optima(&mirror, w, &tuples)
        } else {
            HashMap::new()
        };
        for (i, t) in items {
            let a = &win.answers[i];
            let tuple = &w.tuples[t];
            let Some(retained) = AttrSet::from_bitstring(&a.retained) else {
                v.fail(format!(
                    "frame {} slot {}: bad retained {:?}",
                    a.op, a.slot, a.retained
                ));
                continue;
            };
            if retained.universe() != tuple.universe()
                || !retained.is_subset(tuple.attrs())
                || retained.count() > m
            {
                v.fail(format!(
                    "frame {} slot {}: retained {} is not an m-subset of the tuple",
                    a.op, a.slot, a.retained
                ));
                continue;
            }
            let recount = mirror.satisfied_count(&Tuple::new(retained)) as u64;
            if recount != a.satisfied {
                v.fail(format!(
                    "frame {} slot {}: satisfied {} but the recount is {recount}",
                    a.op, a.slot, a.satisfied
                ));
                continue;
            }
            if let Some(&opt) = optima.get(&t) {
                if a.satisfied > opt {
                    v.fail(format!(
                        "frame {} slot {}: satisfied {} beats the optimum {opt}",
                        a.op, a.slot, a.satisfied
                    ));
                    continue;
                }
                v.optimum_total += opt;
            }
            v.answered += 1;
            v.satisfied_total += a.satisfied;
        }
    }
    v
}
