//! The four workloads: seeded query logs, seeded tuples, and the exact
//! request stream each one sends. The server only ever sees the text
//! built here; the traced replay parses the very same frames.

use std::sync::Arc;

use soc_data::{io, AttrSet, Query, QueryLog, Schema, Tuple};
use soc_rng::StdRng;
use soc_serve::json;
use soc_workload::{
    generate_cars, generate_synthetic_workload, CarClass, CarsConfig, CarsDataset, SyntheticConfig,
    TopicStructure,
};

/// The session every workload loads its log into.
const SESSION: &str = "bench";

/// The handshake every connection opens with.
pub const HELLO: &str = "{\"type\":\"hello\",\"version\":1}";

/// Workload names, in the order an all-workload run executes them.
pub const NAMES: [&str; 4] = ["interactive", "catalog_batch", "ingest_mix", "wide_sketch"];

/// How requests are released.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// A fixed schedule of `per_s` frames a second, round-robin over the
    /// connections, regardless of replies.
    Open { per_s: f64 },
    /// Each connection sends its next frame when the previous one is
    /// fully answered.
    Closed,
}

/// What one frame asks for.
#[derive(Clone, Debug)]
pub enum Op {
    /// One tuple (index into [`Workload::tuples`]).
    Solve(usize),
    /// Several tuples in one `solve_batch` frame.
    Batch(Vec<usize>),
    /// Append ingest chunk `k` to the session log.
    Ingest(usize),
}

/// Input sizes; the smoke run shrinks every log.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub synthetic_queries: usize,
    pub cars: usize,
    pub batch: usize,
    pub ingest_base: usize,
    pub ingest_chunk: usize,
    pub wide_queries: usize,
    pub wide_topics: usize,
    pub wide_tuples: usize,
}

pub const FULL: Sizes = Sizes {
    synthetic_queries: 100_000,
    cars: 2000,
    batch: 128,
    ingest_base: 50_000,
    ingest_chunk: 200,
    wide_queries: 20_000,
    wide_topics: 400,
    wide_tuples: 512,
};

pub const SMOKE: Sizes = Sizes {
    synthetic_queries: 3_000,
    cars: 200,
    batch: 16,
    ingest_base: 2_000,
    ingest_chunk: 20,
    wide_queries: 1_500,
    wide_topics: 40,
    wide_tuples: 32,
};

#[derive(Clone, Copy, Debug)]
enum Kind {
    Interactive,
    CatalogBatch,
    IngestMix,
    WideSketch,
}

/// Frames per `ingest_mix` block: 49 solves, then one ingest.
const INGEST_BLOCK: usize = 50;

/// A fully generated workload.
pub struct Workload {
    kind: Kind,
    /// The log `load`ed at set-up.
    pub base: QueryLog,
    base_text: String,
    pub tuples: Vec<Tuple>,
    bits: Vec<String>,
    pub m: usize,
    pub algo: &'static str,
    project: bool,
    pub conns: usize,
    pub pacing: Pacing,
    /// Per-frame tuple draws of the open-loop workloads.
    draws: Vec<usize>,
    batch: usize,
    /// Rows appended by successive `ingest` frames.
    chunks: Vec<Vec<Query>>,
    chunk_texts: Vec<String>,
    /// Whether every answer's exact optimum is affordable to recompute.
    pub exact_check: bool,
}

/// Seed of the fixed stream of requested cars.
const DRAW_SEED: u64 = 0x5EED_CA85;

/// Seed of one independent input stream.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    StdRng::stream(seed, stream).next_u64()
}

/// The first `n` Zipf(1.0) draws over `items` ranks. The stream is a
/// fixture, the same for every `--seed`: at 60 requests a second only a
/// few dozen draws per run land in the catalogue's tail, and which wide
/// cars they hit moved the p99 of solve times between 23 and 57 ms
/// across ten draw seeds. The seed varies the query logs instead.
fn zipf_draws(n: usize, items: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(items);
    let mut acc = 0.0;
    for r in 1..=items {
        acc += 1.0 / r as f64;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(DRAW_SEED);
    (0..n)
        .map(|_| {
            let u = rng.random::<f64>() * acc;
            cdf.partition_point(|&c| c <= u).min(items - 1)
        })
        .collect()
}

fn synthetic(queries: usize, seed: u64) -> QueryLog {
    generate_synthetic_workload(&SyntheticConfig {
        num_queries: queries,
        num_attrs: 32,
        seed,
        ..SyntheticConfig::default()
    })
}

/// The car catalogue: a fixture, the same cars for every seed, as the
/// paper's car dataset is fixed.
fn catalogue(n: usize) -> CarsDataset {
    generate_cars(&CarsConfig {
        num_cars: n,
        ..CarsConfig::default()
    })
}

/// The catalogue's cars, most popular first: ranked by how common their
/// market segment is in the catalogue (catalogue order within a
/// segment), so popular requests are for everyday economy and family
/// cars and the loaded luxury and sport cars sit in the tail. The Zipf
/// head carries the median (rank 1 draws 12% of requests), and solve
/// cost grows steeply with a car's width, so ranking by catalogue order
/// alone would let one or two wide cars set it.
fn popular_first(data: &CarsDataset) -> Vec<Tuple> {
    let mut shares: Vec<(CarClass, usize)> = Vec::new();
    for &c in &data.classes {
        match shares.iter_mut().find(|(k, _)| *k == c) {
            Some((_, count)) => *count += 1,
            None => shares.push((c, 1)),
        }
    }
    let share = |c: CarClass| shares.iter().find(|(k, _)| *k == c).map_or(0, |&(_, n)| n);
    let mut order: Vec<usize> = (0..data.classes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(share(data.classes[i])));
    order
        .into_iter()
        .map(|i| data.db.tuples()[i].clone())
        .collect()
}

impl Workload {
    /// Builds workload `name` for a run of `seconds` seconds.
    pub fn build(name: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Option<Workload> {
        let open_frames = |per_s: f64| (per_s * seconds).floor().max(1.0) as usize;
        let w =
            match name {
                "interactive" => {
                    // 1800 requests in a 20 s window.
                    let per_s = 90.0;
                    let base = synthetic(sizes.synthetic_queries, sub_seed(seed, 1));
                    let tuples = popular_first(&catalogue(sizes.cars));
                    let draws = zipf_draws(open_frames(per_s), tuples.len());
                    Workload::new(Kind::Interactive, base, tuples, 5, "mfi", true).paced(
                        2,
                        Pacing::Open { per_s },
                        draws,
                    )
                }
                "catalog_batch" => {
                    let base = synthetic(sizes.synthetic_queries, sub_seed(seed, 1));
                    // Inventory order spreads the wide luxury and sport
                    // cars across batches; popularity order would put
                    // them all in the same few.
                    let tuples = catalogue(sizes.cars).db.tuples().to_vec();
                    let mut w = Workload::new(Kind::CatalogBatch, base, tuples, 5, "mfi", true)
                        .paced(1, Pacing::Closed, Vec::new());
                    w.batch = sizes.batch;
                    w
                }
                "ingest_mix" => {
                    let per_s = 200.0;
                    let frames = open_frames(per_s);
                    let base = synthetic(sizes.ingest_base, sub_seed(seed, 1));
                    let tuples = popular_first(&catalogue(sizes.cars));
                    let draws = zipf_draws(frames, tuples.len());
                    let blocks = frames.div_ceil(INGEST_BLOCK);
                    let fresh = synthetic(blocks * sizes.ingest_chunk, sub_seed(seed, 4));
                    let mut w = Workload::new(Kind::IngestMix, base, tuples, 5, "cumul", false)
                        .paced(1, Pacing::Open { per_s }, draws);
                    for rows in fresh.queries().chunks(sizes.ingest_chunk) {
                        let chunk = QueryLog::new(Arc::clone(fresh.schema()), rows.to_vec());
                        w.chunk_texts.push(io::write_query_log(&chunk));
                        w.chunks.push(rows.to_vec());
                    }
                    w
                }
                "wide_sketch" => {
                    let base = generate_synthetic_workload(&SyntheticConfig {
                        num_queries: sizes.wide_queries,
                        num_attrs: 48,
                        popularity_skew: 1.0,
                        topics: Some(TopicStructure {
                            count: sizes.wide_topics,
                            width: 12,
                            noise: 0.05,
                        }),
                        seed: sub_seed(seed, 1),
                        ..SyntheticConfig::default()
                    });
                    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
                    let tuples = (0..sizes.wide_tuples)
                        .map(|_| {
                            let mut attrs: Vec<usize> = (0..48).collect();
                            rng.shuffle(&mut attrs);
                            Tuple::new(AttrSet::from_indices(48, attrs[..36].iter().copied()))
                        })
                        .collect();
                    let mut w = Workload::new(Kind::WideSketch, base, tuples, 8, "sketch", false)
                        .paced(2, Pacing::Closed, Vec::new());
                    w.exact_check = false;
                    w
                }
                _ => return None,
            };
        Some(w)
    }

    fn new(
        kind: Kind,
        base: QueryLog,
        tuples: Vec<Tuple>,
        m: usize,
        algo: &'static str,
        project: bool,
    ) -> Self {
        let bits = tuples.iter().map(|t| t.attrs().to_bitstring()).collect();
        Self {
            kind,
            base_text: io::write_query_log(&base),
            base,
            tuples,
            bits,
            m,
            algo,
            project,
            conns: 1,
            pacing: Pacing::Closed,
            draws: Vec::new(),
            batch: 1,
            chunks: Vec::new(),
            chunk_texts: Vec::new(),
            exact_check: true,
        }
    }

    fn paced(mut self, conns: usize, pacing: Pacing, draws: Vec<usize>) -> Self {
        self.conns = conns;
        self.pacing = pacing;
        self.draws = draws;
        self
    }

    /// Frames an open-loop workload sends (closed loops have no fixed
    /// count).
    pub fn open_frames(&self) -> usize {
        self.draws.len()
    }

    /// Seconds between scheduled frames of an open loop.
    pub fn period_s(&self) -> f64 {
        match self.pacing {
            Pacing::Open { per_s } => 1.0 / per_s,
            Pacing::Closed => 0.0,
        }
    }

    /// What frame `i` asks for.
    pub fn op(&self, i: usize) -> Op {
        match self.kind {
            Kind::Interactive => Op::Solve(self.draws[i]),
            Kind::CatalogBatch => {
                let n = self.tuples.len();
                Op::Batch((0..self.batch).map(|k| (i * self.batch + k) % n).collect())
            }
            Kind::IngestMix if i % INGEST_BLOCK == INGEST_BLOCK - 1 => Op::Ingest(i / INGEST_BLOCK),
            Kind::IngestMix => Op::Solve(self.draws[i]),
            Kind::WideSketch => Op::Solve(i % self.tuples.len()),
        }
    }

    /// Ingests the server has applied when it reaches frame `i`: frames
    /// run in order on `ingest_mix`'s single connection.
    pub fn ingests_before(&self, i: usize) -> usize {
        match self.kind {
            Kind::IngestMix => i / INGEST_BLOCK,
            _ => 0,
        }
    }

    /// The tuples frame `i` solves (empty for an ingest).
    pub fn op_tuples(&self, i: usize) -> Vec<usize> {
        match self.op(i) {
            Op::Solve(t) => vec![t],
            Op::Batch(ts) => ts,
            Op::Ingest(_) => Vec::new(),
        }
    }

    fn solve_fields(&self) -> String {
        format!(
            "\"session\":\"{SESSION}\",\"m\":{},\"algo\":\"{}\",\"project\":{}",
            self.m, self.algo, self.project
        )
    }

    /// The wire text of frame `i` (no trailing newline).
    pub fn frame(&self, i: usize) -> String {
        match self.op(i) {
            Op::Solve(t) => format!(
                "{{\"type\":\"solve\",\"id\":{i},{},\"tuple\":\"{}\"}}",
                self.solve_fields(),
                self.bits[t]
            ),
            Op::Batch(ts) => {
                let list: Vec<String> = ts
                    .iter()
                    .map(|&t| format!("\"{}\"", self.bits[t]))
                    .collect();
                format!(
                    "{{\"type\":\"solve_batch\",\"id\":{i},{},\"tuples\":[{}]}}",
                    self.solve_fields(),
                    list.join(",")
                )
            }
            Op::Ingest(k) => format!(
                "{{\"type\":\"ingest\",\"id\":{i},\"session\":\"{SESSION}\",\"data\":{}}}",
                json::s(self.chunk_texts[k].as_str()).render()
            ),
        }
    }

    pub fn load_frame(&self) -> String {
        format!(
            "{{\"type\":\"load\",\"session\":\"{SESSION}\",\"data\":{}}}",
            json::s(self.base_text.as_str()).render()
        )
    }

    /// The solve that ends set-up: the first tuple, outside the window.
    pub fn warmup_frame(&self) -> String {
        format!(
            "{{\"type\":\"solve\",\"id\":\"warmup\",{},\"tuple\":\"{}\"}}",
            self.solve_fields(),
            self.bits[0]
        )
    }

    /// The session log as the server holds it after `ingests` ingests.
    pub fn mirror(&self, ingests: usize) -> QueryLog {
        let mut queries = self.base.queries().to_vec();
        for chunk in &self.chunks[..ingests] {
            queries.extend_from_slice(chunk);
        }
        QueryLog::new(Arc::new(Schema::anonymous(self.base.num_attrs())), queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames() {
        let a = Workload::build("ingest_mix", 7, 1.0, &SMOKE).unwrap();
        let b = Workload::build("ingest_mix", 7, 1.0, &SMOKE).unwrap();
        let c = Workload::build("ingest_mix", 8, 1.0, &SMOKE).unwrap();
        let frames = |w: &Workload| (0..w.open_frames()).map(|i| w.frame(i)).collect::<Vec<_>>();
        assert_eq!(frames(&a), frames(&b));
        assert_ne!(frames(&a), frames(&c));
        assert_eq!(a.base_text, b.base_text);
    }

    #[test]
    fn ingest_mix_blocks_end_in_an_ingest() {
        let w = Workload::build("ingest_mix", 1, 1.0, &SMOKE).unwrap();
        assert_eq!(w.open_frames(), 200);
        assert!(matches!(w.op(49), Op::Ingest(0)));
        assert!(matches!(w.op(99), Op::Ingest(1)));
        assert!(matches!(w.op(50), Op::Solve(_)));
        assert_eq!(w.mirror(2).len(), w.base.len() + 2 * SMOKE.ingest_chunk);
    }

    #[test]
    fn batches_cycle_distinct_cars() {
        let w = Workload::build("catalog_batch", 1, 1.0, &SMOKE).unwrap();
        let ts = w.op_tuples(w.tuples.len() / SMOKE.batch);
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ts.len());
    }

    #[test]
    fn frames_parse_as_the_server_parses_them() {
        for name in NAMES {
            let w = Workload::build(name, 3, 1.0, &SMOKE).unwrap();
            for text in [
                HELLO.to_string(),
                w.load_frame(),
                w.warmup_frame(),
                w.frame(0),
                w.frame(49),
            ] {
                let frame = soc_serve::proto::parse_frame(&text);
                assert!(frame.body.is_ok(), "{name}: {:?}", frame.body);
            }
        }
    }
}
