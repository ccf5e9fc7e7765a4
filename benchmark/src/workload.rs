//! The four workloads: what each one sends, in which order, and why.
//!
//! Everything here is a constant of the benchmark's definition, not a
//! flag. Traffic is **synthetic** — no production trace of an expert
//! search service exists — and shaped after the paper's own setup: a
//! collaboration network (`graph::generate::collaboration`), 3–5-node
//! patterns with hop bounds 1–3 (`pattern::generate::random_pattern`)
//! plus the Example-1 team pattern, and unit edge updates
//! (`graph::generate::random_updates`, insert ratio 0.5).
//!
//! The **query pools are fixed** ([`POOL_SEED`]): which queries are
//! asked decides what an expert-finding system scores (Brochier et al.,
//! arXiv 1806.10813), so the pools belong to the definition. `--seed`
//! varies everything else — the graph instance, the update stream, the
//! order the cold pool is walked in and the zipf draws over the hot
//! pool.

use crate::http;
use expfinder_graph::generate::{collaboration, random_updates, CollabConfig};
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate};
use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
use expfinder_pattern::Pattern;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Name the one graph is uploaded under.
pub const GRAPH_NAME: &str = "bench";
/// People in the collaboration network (teams of 8).
pub const PEOPLE: usize = 8000;
/// `top_k` of every query.
pub const TOP_K: usize = 10;
/// Queries per `POST /batch`.
pub const BATCH_SLOTS: usize = 16;
/// Edge updates per `POST /updates`.
pub const UPDATES_PER_BATCH: usize = 4;
/// Distinct patterns in the cold pool: 8× the engine's 64-entry LRU, so
/// a round-robin walk never finds its own earlier entry.
pub const COLD_POOL: usize = 512;
/// Patterns in the hot pool; the first [`REGISTERED`] are registered.
pub const HOT_POOL: usize = 16;
/// Registered (incrementally maintained) queries on every workload.
pub const REGISTERED: usize = 8;
/// Measured laps per run, each about a second long with a reading of
/// the host speed index on either side; every reported value is the
/// median of its host-adjusted per-lap values. Many short laps, because
/// the reference host changes speed within seconds (noisy neighbours):
/// the index is read close to the ops it adjusts, and a median over
/// twenty windows shrugs off a burst that would own one lap of three.
pub const LAPS: usize = 20;
/// Unmeasured ops sent after the subscriber attaches (part of set-up).
pub const WARMUP_OPS: usize = 500;
/// Seed of the two query pools (ICDE 2013, Brisbane, April 8).
pub const POOL_SEED: u64 = 20_130_408;
/// Zipf exponent of the hot-pool draws.
pub const ZIPF_S: f64 = 1.0;
/// `--seconds` value the op counts below are sized for; another value
/// scales them in proportion, never below the floors.
pub const NOMINAL_SECONDS: u64 = 20;

/// Floors of the measured list (summed over all laps).
pub const MIN_QUERIES: usize = 1500;
pub const MIN_UPDATES: usize = 500;
pub const MIN_BATCHES: usize = 150;

/// Which pool a workload's reads come from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pool {
    /// Round-robin over the 512 cold patterns: every read misses.
    Cold,
    /// Zipf over the 16 hot patterns: cache and registered short-circuits.
    Hot,
    /// Uniform over the 8 registered patterns only.
    Registered,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Slot {
    Update,
    Query,
    Batch,
}

/// The op order of one lap.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// `segments` × (a burst of `burst` updates, then `reads` reads of
    /// which every `batch_every`-th is a batch): many reads per graph
    /// version, so per-version precomputation amortises.
    Bursts {
        segments: usize,
        burst: usize,
        reads: usize,
        batch_every: usize,
    },
    /// `groups` × (`updates` updates, then one read; every
    /// `batch_every`-th read is a batch): every read sees a fresh
    /// version.
    Interleaved {
        groups: usize,
        updates: usize,
        batch_every: usize,
    },
}

impl Schedule {
    /// (queries, batches, updates) of one lap.
    pub fn counts(self) -> (usize, usize, usize) {
        let slots = self.slots();
        let count = |kind: Slot| slots.iter().filter(|s| **s == kind).count();
        (count(Slot::Query), count(Slot::Batch), count(Slot::Update))
    }

    /// The op kinds of one lap, in send order.
    fn slots(self) -> Vec<Slot> {
        let read = |nth: usize, batch_every: usize| {
            if (nth + 1) % batch_every == 0 {
                Slot::Batch
            } else {
                Slot::Query
            }
        };
        let mut out = Vec::new();
        match self {
            Schedule::Bursts {
                segments,
                burst,
                reads,
                batch_every,
            } => {
                for _ in 0..segments {
                    out.extend(std::iter::repeat_n(Slot::Update, burst));
                    out.extend((0..reads).map(|r| read(r, batch_every)));
                }
            }
            Schedule::Interleaved {
                groups,
                updates,
                batch_every,
            } => {
                for g in 0..groups {
                    out.extend(std::iter::repeat_n(Slot::Update, updates));
                    out.push(read(g, batch_every));
                }
            }
        }
        out
    }

    /// The same shape with `factor` times the repetitions.
    fn scaled(self, factor: f64) -> Schedule {
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        match self {
            Schedule::Bursts {
                segments,
                burst,
                reads,
                batch_every,
            } => Schedule::Bursts {
                segments: scale(segments),
                burst,
                reads,
                batch_every,
            },
            Schedule::Interleaved {
                groups,
                updates,
                batch_every,
            } => Schedule::Interleaved {
                groups: scale(groups).max(batch_every),
                updates,
                batch_every,
            },
        }
    }
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line: which layers it stresses and why it exists.
    pub why: &'static str,
    /// `serve --data-dir` (fsync always) instead of the in-memory engine.
    pub durable: bool,
    pub pool: Pool,
    /// One lap at [`NOMINAL_SECONDS`].
    pub schedule: Schedule,
    /// Every `verify_stride`-th query op and batch slot is checked
    /// against the naive oracle, off the clock.
    pub verify_stride: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "read_cold",
        why: "in-memory; 512 distinct patterns round-robin, so every read misses and is evaluated, ~350 reads per graph version: core and graph (CSR, reach index, fixpoint, result graph, rank) do the work",
        durable: false,
        pool: Pool::Cold,
        schedule: Schedule::Bursts {
            segments: 2,
            burst: 45,
            reads: 140,
            batch_every: 10,
        },
        verify_stride: 25,
    },
    Spec {
        name: "read_hot",
        why: "in-memory; 16 zipf-skewed patterns, 8 of them registered, so >95% of reads are cache or registered hits: server framing, wire codecs, json, DSL parser, engine cache and ranking do the work",
        durable: false,
        pool: Pool::Hot,
        schedule: Schedule::Bursts {
            segments: 1,
            burst: 45,
            reads: 330,
            batch_every: 10,
        },
        verify_stride: 25,
    },
    Spec {
        name: "write_durable",
        why: "serve --data-dir, fsync always; 2 updates per read, reads only of the 8 registered patterns: runtime (mailbox, WAL, fsync, snapshot publish), incremental and server subscribe do the work",
        durable: true,
        pool: Pool::Registered,
        schedule: Schedule::Interleaved {
            groups: 140,
            updates: 2,
            batch_every: 10,
        },
        verify_stride: 25,
    },
    Spec {
        name: "mixed_churn",
        why: "durable; update and cold-pool read strictly alternate, so every read sees a fresh version: whatever buys read speed with per-version precomputation (CSR, index, publish) pays for it here",
        durable: true,
        pool: Pool::Cold,
        schedule: Schedule::Interleaved {
            groups: 140,
            updates: 1,
            batch_every: 10,
        },
        verify_stride: 25,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// How large a run is.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Profile {
    /// The real thing, sized for `seconds` of measured traffic.
    Full { seconds: u64 },
    /// A few hundred ops on a small graph: exercises every code path of
    /// the harness in seconds; its numbers mean nothing.
    Smoke,
}

impl Profile {
    fn people(self) -> usize {
        match self {
            Profile::Full { .. } => PEOPLE,
            Profile::Smoke => 800,
        }
    }

    fn warmup(self) -> usize {
        match self {
            Profile::Full { .. } => WARMUP_OPS,
            Profile::Smoke => 40,
        }
    }

    /// The lap schedule of `spec` under this profile.
    pub fn schedule(self, spec: &Spec) -> Schedule {
        match self {
            Profile::Full { seconds } => {
                let scaled = spec
                    .schedule
                    .scaled(seconds as f64 / NOMINAL_SECONDS as f64);
                // never below the floors: grow the repetition count
                // until all three hold
                let mut factor = 1.0;
                loop {
                    let s = scaled.scaled(factor);
                    let (q, b, u) = s.counts();
                    if q * LAPS >= MIN_QUERIES && b * LAPS >= MIN_BATCHES && u * LAPS >= MIN_UPDATES
                    {
                        return s;
                    }
                    factor *= 1.1;
                }
            }
            Profile::Smoke => match spec.schedule {
                Schedule::Bursts { batch_every, .. } => Schedule::Bursts {
                    segments: 2,
                    burst: 6,
                    reads: 40,
                    batch_every,
                },
                Schedule::Interleaved {
                    updates,
                    batch_every,
                    ..
                } => Schedule::Interleaved {
                    groups: 40,
                    updates,
                    batch_every,
                },
            },
        }
    }
}

/// One pattern of a pool, with everything derived from it that the
/// clocked loop must not compute.
#[derive(Debug)]
pub struct PoolPattern {
    pub pattern: Pattern,
    pub dsl: String,
    /// `{"pattern": ..., "top_k": 10}`, compact.
    pub body: String,
    /// The complete `POST /query` request.
    pub request: Vec<u8>,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Batch,
    Update,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Query, OpKind::Batch, OpKind::Update];

    /// Position in [`OpKind::ALL`], for per-kind counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Batch => "batch",
            OpKind::Update => "update",
        }
    }
}

/// One request of the op list.
#[derive(Debug)]
pub struct Op {
    pub kind: OpKind,
    /// The bytes put on the socket.
    pub request: Vec<u8>,
    /// Indexes into [`Inputs::patterns`]: one for a query, 16 for a batch.
    pub patterns: Vec<u32>,
    /// The edge updates of an update op.
    pub updates: Vec<EdgeUpdate>,
}

/// Everything one run sends, generated before any clock starts.
#[derive(Debug)]
pub struct Inputs {
    pub spec: &'static Spec,
    pub profile: Profile,
    pub seed: u64,
    /// The graph as the server decodes it from [`Inputs::upload`].
    pub graph: DiGraph,
    /// The `POST /graphs` request.
    pub upload: Vec<u8>,
    /// Hot pool (indexes `0..HOT_POOL`, the first [`REGISTERED`] are
    /// registered as `q0..q7`), then the cold pool.
    pub patterns: Vec<PoolPattern>,
    /// The `POST /register` requests, one per registered query.
    pub registers: Vec<Vec<u8>>,
    pub warmup: Vec<Op>,
    /// The measured list: [`LAPS`] laps of `lap_len` ops each, all of
    /// the same structure.
    pub measured: Vec<Op>,
    pub lap_len: usize,
    /// FNV-1a over every request byte in send order: the same seed must
    /// print the same hash on every run.
    pub hash: u64,
}

impl Inputs {
    /// The measured list lap by lap.
    pub fn laps(&self) -> std::slice::Chunks<'_, Op> {
        self.measured.chunks(self.lap_len)
    }

    /// Ops of the measured list, all laps.
    pub fn measured_ops(&self) -> usize {
        self.measured.len()
    }
}

/// Name of the `i`-th registered query.
pub fn registered_name(i: usize) -> String {
    format!("q{i}")
}

fn labels() -> Vec<String> {
    ["SA", "SD", "BA", "ST", "QA", "PM", "GD"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
}

/// A JSON object from its fields.
pub(crate) fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn pool_pattern(pattern: Pattern) -> PoolPattern {
    let dsl = pattern.to_string();
    let reparsed = expfinder_pattern::parser::parse(&dsl).expect("a printed pattern parses back");
    assert_eq!(
        reparsed.fingerprint(),
        pattern.fingerprint(),
        "the DSL round trip must keep the pattern"
    );
    let body = object(vec![
        ("pattern", Value::Str(dsl.clone())),
        ("top_k", Value::Int(TOP_K as i64)),
    ])
    .to_string_compact();
    let request = http::encode_request("POST", &format!("/graphs/{GRAPH_NAME}/query"), &body);
    PoolPattern {
        pattern,
        dsl,
        body,
        request,
    }
}

/// `count` distinct random patterns (3–5 nodes, hop bounds 1–3, all five
/// shapes), none with a fingerprint in `taken`.
fn random_pool(rng: &mut StdRng, count: usize, taken: &mut HashSet<String>) -> Vec<Pattern> {
    const SHAPES: [PatternShape; 5] = [
        PatternShape::Chain,
        PatternShape::Star,
        PatternShape::Tree,
        PatternShape::Dag,
        PatternShape::Cycle,
    ];
    let mut out = Vec::with_capacity(count);
    let mut i = 0usize;
    while out.len() < count {
        let cfg = PatternConfig::new(SHAPES[i % SHAPES.len()], 3 + i % 3, labels());
        i += 1;
        let p = random_pattern(rng, &cfg);
        if taken.insert(p.fingerprint()) {
            out.push(p);
        }
    }
    out
}

/// The two fixed pools: hot (Example-1 team pattern first) then cold.
pub fn pools() -> Vec<PoolPattern> {
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let mut taken = HashSet::new();
    let team = expfinder_pattern::fixtures::fig1_pattern();
    taken.insert(team.fingerprint());
    let mut patterns = vec![team];
    patterns.extend(random_pool(&mut rng, HOT_POOL - 1, &mut taken));
    patterns.extend(random_pool(&mut rng, COLD_POOL, &mut taken));
    patterns.into_iter().map(pool_pattern).collect()
}

/// Draws pattern indexes for the reads of one workload.
struct Reader {
    pool: Pool,
    /// Cold pool walk order (a seed-dependent permutation).
    cold_order: Vec<u32>,
    cursor: usize,
    /// Cumulative zipf weights over popularity ranks.
    zipf_cdf: Vec<f64>,
}

impl Reader {
    fn new(pool: Pool, rng: &mut StdRng) -> Reader {
        let mut cold_order: Vec<u32> = (HOT_POOL..HOT_POOL + COLD_POOL).map(|i| i as u32).collect();
        cold_order.shuffle(rng);
        let weights: Vec<f64> = (1..=HOT_POOL)
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Reader {
            pool,
            cold_order,
            cursor: 0,
            zipf_cdf,
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> u32 {
        match self.pool {
            Pool::Cold => {
                let p = self.cold_order[self.cursor % self.cold_order.len()];
                self.cursor += 1;
                p
            }
            Pool::Hot => {
                let x: f64 = rng.gen_range(0.0..1.0);
                let rank = self
                    .zipf_cdf
                    .iter()
                    .position(|&c| x < c)
                    .unwrap_or(HOT_POOL - 1);
                // popularity ranks alternate registered / unregistered,
                // so both short-circuits carry a real share
                let half = (rank / 2) as u32;
                if rank % 2 == 0 {
                    half
                } else {
                    REGISTERED as u32 + half
                }
            }
            Pool::Registered => rng.gen_range(0..REGISTERED as u32),
        }
    }
}

/// Builds ops in send order, consuming one shared update stream.
struct OpBuilder<'a> {
    patterns: &'a [PoolPattern],
    reader: Reader,
    updates: std::vec::IntoIter<EdgeUpdate>,
    rng: StdRng,
}

impl OpBuilder<'_> {
    fn update(&mut self) -> Op {
        let updates: Vec<EdgeUpdate> = self.updates.by_ref().take(UPDATES_PER_BATCH).collect();
        assert_eq!(
            updates.len(),
            UPDATES_PER_BATCH,
            "the update stream covers every update op"
        );
        let body = object(vec![(
            "updates",
            Value::Array(
                updates
                    .iter()
                    .map(|&u| expfinder_graph::io::update_to_json(u))
                    .collect(),
            ),
        )])
        .to_string_compact();
        Op {
            kind: OpKind::Update,
            request: http::encode_request("POST", &format!("/graphs/{GRAPH_NAME}/updates"), &body),
            patterns: Vec::new(),
            updates,
        }
    }

    fn query(&mut self) -> Op {
        let p = self.reader.next(&mut self.rng);
        Op {
            kind: OpKind::Query,
            request: self.patterns[p as usize].request.clone(),
            patterns: vec![p],
            updates: Vec::new(),
        }
    }

    fn batch(&mut self) -> Op {
        let slots: Vec<u32> = (0..BATCH_SLOTS)
            .map(|_| self.reader.next(&mut self.rng))
            .collect();
        let bodies: Vec<&str> = slots
            .iter()
            .map(|&p| self.patterns[p as usize].body.as_str())
            .collect();
        let body = format!("{{\"queries\":[{}]}}", bodies.join(","));
        Op {
            kind: OpKind::Batch,
            request: http::encode_request("POST", &format!("/graphs/{GRAPH_NAME}/batch"), &body),
            patterns: slots,
            updates: Vec::new(),
        }
    }

    fn build(&mut self, slots: &[Slot]) -> Vec<Op> {
        slots
            .iter()
            .map(|slot| match slot {
                Slot::Update => self.update(),
                Slot::Query => self.query(),
                Slot::Batch => self.batch(),
            })
            .collect()
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Generate everything `spec` sends under `profile` from `seed`.
pub fn generate(spec: &'static Spec, profile: Profile, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let team_size = 8;
    let generated = collaboration(
        &mut rng,
        &CollabConfig {
            teams: profile.people() / team_size,
            team_size,
            ..CollabConfig::default()
        },
    );
    let upload_body =
        expfinder_server::wire::encode_add_graph(GRAPH_NAME, &generated).to_string_compact();
    // the mirror starts from the document the server decodes, so graph
    // versions agree from the first response on
    let (_, graph) = expfinder_server::wire::decode_add_graph(
        &expfinder_graph::json::parse(&upload_body).expect("own document parses"),
    )
    .expect("own document decodes");
    let upload = http::encode_request("POST", "/graphs", &upload_body);

    let patterns = pools();
    let registers: Vec<Vec<u8>> = (0..REGISTERED)
        .map(|i| {
            let body = object(vec![
                ("name", Value::Str(registered_name(i))),
                ("pattern", Value::Str(patterns[i].dsl.clone())),
            ])
            .to_string_compact();
            http::encode_request("POST", &format!("/graphs/{GRAPH_NAME}/register"), &body)
        })
        .collect();

    let schedule = profile.schedule(spec);
    let lap_slots = schedule.slots();
    // the warm-up has the laps' own shape, repeated up to its length
    let warmup_slots: Vec<Slot> = lap_slots
        .iter()
        .copied()
        .cycle()
        .take(profile.warmup())
        .collect();
    let updates_in = |slots: &[Slot]| slots.iter().filter(|s| **s == Slot::Update).count();
    let update_ops = updates_in(&warmup_slots) + updates_in(&lap_slots) * LAPS;
    let stream = random_updates(&mut rng, &graph, update_ops * UPDATES_PER_BATCH, 0.5);
    let reader = Reader::new(spec.pool, &mut rng);
    let mut builder = OpBuilder {
        patterns: &patterns,
        reader,
        updates: stream.into_iter(),
        rng,
    };
    let warmup = builder.build(&warmup_slots);
    let measured: Vec<Op> = (0..LAPS).flat_map(|_| builder.build(&lap_slots)).collect();

    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut hash, &upload);
    for r in &registers {
        fnv1a(&mut hash, r);
    }
    for op in warmup.iter().chain(&measured) {
        fnv1a(&mut hash, &op.request);
    }
    Inputs {
        spec,
        profile,
        seed,
        graph,
        upload,
        patterns,
        registers,
        warmup,
        measured,
        lap_len: lap_slots.len(),
        hash,
    }
}
