//! The compressed graph `G_c` and result expansion.

use crate::partition::{Partition, SignaturePolicy};
use crate::{CompressError, CompressionMethod};
use expfinder_core::MatchRelation;
use expfinder_graph::{BitSet, ClassMemo, DiGraph, GraphView, Interner, NodeId, Sym, VertexData};
use expfinder_pattern::Pattern;

/// Reduction statistics, matching the paper's reporting style ("graphs
/// reduced by 57% in average").
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CompressStats {
    pub original_nodes: usize,
    pub original_edges: usize,
    pub compressed_nodes: usize,
    pub compressed_edges: usize,
}

impl CompressStats {
    /// Fraction of nodes removed (0..1).
    pub fn node_reduction(&self) -> f64 {
        reduction(self.original_nodes, self.compressed_nodes)
    }

    /// Fraction of edges removed (0..1).
    pub fn edge_reduction(&self) -> f64 {
        reduction(self.original_edges, self.compressed_edges)
    }

    /// Fraction of |G| = |V|+|E| removed — the paper's headline metric.
    pub fn size_reduction(&self) -> f64 {
        reduction(
            self.original_nodes + self.original_edges,
            self.compressed_nodes + self.compressed_edges,
        )
    }
}

fn reduction(orig: usize, comp: usize) -> f64 {
    if orig == 0 {
        0.0
    } else {
        1.0 - comp as f64 / orig as f64
    }
}

/// A query-preserving compressed graph: the quotient of `G` under a stable
/// partition. Implements [`GraphView`], so every matcher in
/// `expfinder-core` runs on it unchanged; [`CompressedGraph::expand`]
/// recovers `M(Q,G)` from `M(Q,G_c)` in linear time.
#[derive(Clone, Debug)]
pub struct CompressedGraph {
    quotient: DiGraph,
    partition: Partition,
    method: CompressionMethod,
    policy: SignaturePolicy,
    original_nodes: usize,
    original_edges: usize,
}

impl CompressedGraph {
    /// Build the quotient of `g` under `partition` (which must be stable —
    /// guaranteed by the constructors in this crate).
    pub fn from_partition(
        g: &DiGraph,
        partition: Partition,
        method: CompressionMethod,
        policy: SignaturePolicy,
    ) -> CompressedGraph {
        CompressedGraph {
            quotient: build_quotient(g, &partition, &policy),
            partition,
            method,
            policy,
            original_nodes: g.node_count(),
            original_edges: g.edge_count(),
        }
    }

    /// The compression method used.
    pub fn method(&self) -> CompressionMethod {
        self.method
    }

    /// The signature policy used.
    pub fn policy(&self) -> &SignaturePolicy {
        &self.policy
    }

    /// The underlying partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The quotient graph itself.
    pub fn quotient(&self) -> &DiGraph {
        &self.quotient
    }

    /// Reduction statistics.
    pub fn stats(&self) -> CompressStats {
        CompressStats {
            original_nodes: self.original_nodes,
            original_edges: self.original_edges,
            compressed_nodes: self.quotient.node_count(),
            compressed_edges: self.quotient.edge_count(),
        }
    }

    /// Verify a pattern can be answered on the compressed graph: every
    /// attribute its predicates mention must be part of the signature.
    pub fn validate_pattern(&self, q: &Pattern) -> Result<(), CompressError> {
        for attr in q.mentioned_attrs() {
            if !self.policy.in_signature(&attr) {
                return Err(CompressError::NonSignatureAttr(attr));
            }
        }
        Ok(())
    }

    /// Expand a match relation over `G_c` back to one over `G`: each
    /// matched block is replaced by its members. Linear in the output —
    /// the paper's "linear time post-processing".
    pub fn expand(&self, m: &MatchRelation) -> MatchRelation {
        let n = self.original_nodes;
        let sets: Vec<BitSet> = m
            .sets()
            .iter()
            .map(|blocks| {
                let mut out = BitSet::new(n);
                for b in blocks.iter() {
                    for &v in self.partition.members(b.0) {
                        out.insert(v);
                    }
                }
                out
            })
            .collect();
        MatchRelation::from_sets(sets, n)
    }

    /// Rebuild the quotient adjacency + representatives after the
    /// partition changed (used by incremental maintenance).
    pub(crate) fn rebuild_from(&mut self, g: &DiGraph, partition: Partition) {
        self.quotient = build_quotient(g, &partition, &self.policy);
        self.partition = partition;
        self.original_nodes = g.node_count();
        self.original_edges = g.edge_count();
    }
}

/// One quotient node per block, carrying the block's shared signature
/// content (identity attributes are dropped — they differ across members
/// and are not query-safe). Edge `(B1, B2)` iff some member of `B1` has an
/// edge into `B2`; by stability, *every* member then does.
fn build_quotient(g: &DiGraph, partition: &Partition, policy: &SignaturePolicy) -> DiGraph {
    let mut q = DiGraph::with_capacity(partition.block_count());
    for block in partition.blocks() {
        let rep = block[0];
        let data = g.vertex(rep);
        let label = g.interner().resolve(data.label()).to_owned();
        let attrs: Vec<(String, expfinder_graph::AttrValue)> = data
            .attrs()
            .iter()
            .filter(|(k, _)| policy.in_signature(g.interner().resolve(*k)))
            .map(|(k, v)| (g.interner().resolve(*k).to_owned(), v.clone()))
            .collect();
        q.add_node(&label, attrs.iter().map(|(k, v)| (k.as_str(), v.clone())));
    }
    for (a, b) in g.edges() {
        q.add_edge(NodeId(partition.block_of(a)), NodeId(partition.block_of(b)));
    }
    q
}

impl GraphView for CompressedGraph {
    fn node_count(&self) -> usize {
        self.quotient.node_count()
    }

    fn edge_count(&self) -> usize {
        self.quotient.edge_count()
    }

    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.quotient.out_neighbors(v)
    }

    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.quotient.in_neighbors(v)
    }

    fn vertex(&self, v: NodeId) -> &VertexData {
        self.quotient.vertex(v)
    }

    fn interner(&self) -> &Interner {
        self.quotient.interner()
    }

    /// The quotient's own label index: block classes, so the compressed
    /// route gets the same class seeding and reach-index eligibility as
    /// the direct one.
    fn nodes_with_label(&self, label: Sym) -> Option<&BitSet> {
        self.quotient.nodes_with_label(label)
    }

    fn has_label_index(&self) -> bool {
        true
    }

    /// The quotient's own class memo: block classes of each condition,
    /// dropped with the quotient when maintenance rebuilds it.
    fn class_memo(&self) -> Option<&ClassMemo> {
        self.quotient.class_memo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress_graph, CompressionMethod};
    use expfinder_core::{bounded_simulation, graph_simulation};
    use expfinder_graph::generate::{collaboration, twitter_like, CollabConfig, TwitterConfig};
    use expfinder_graph::AttrValue;
    use expfinder_pattern::generate::{random_pattern, PatternConfig, PatternShape};
    use expfinder_pattern::{Bound, PatternBuilder, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hub_and_leaves_compress() {
        let mut g = DiGraph::new();
        let hub = g.add_node("HUB", [("experience", AttrValue::Int(5))]);
        for i in 0..20 {
            let leaf = g.add_node(
                "LEAF",
                [
                    ("experience", AttrValue::Int(1)),
                    ("name", AttrValue::Str(format!("leaf{i}"))),
                ],
            );
            g.add_edge(hub, leaf);
        }
        let c = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        let stats = c.stats();
        assert_eq!(stats.compressed_nodes, 2);
        assert_eq!(stats.compressed_edges, 1);
        assert!(stats.size_reduction() > 0.9);
        assert!(c.partition().is_stable(&g));
    }

    #[test]
    fn expansion_recovers_exact_matches() {
        let mut g = DiGraph::new();
        let hub = g.add_node("SA", [("experience", AttrValue::Int(7))]);
        let mut leaves = Vec::new();
        for _ in 0..8 {
            let leaf = g.add_node("SD", [("experience", AttrValue::Int(3))]);
            g.add_edge(hub, leaf);
            leaves.push(leaf);
        }
        let q = PatternBuilder::new()
            .node_output("sa", Predicate::label("SA"))
            .node("sd", Predicate::label("SD"))
            .edge("sa", "sd", Bound::hops(2))
            .build()
            .unwrap();
        let direct = bounded_simulation(&g, &q).unwrap();
        let c = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        c.validate_pattern(&q).unwrap();
        let on_compressed = bounded_simulation(&c, &q).unwrap();
        assert_eq!(
            on_compressed.total_pairs(),
            2,
            "compressed graph has 2 nodes"
        );
        let expanded = c.expand(&on_compressed);
        assert_eq!(expanded, direct);
        assert_eq!(expanded.total_pairs(), 9);
    }

    /// A label may hold any character. One node labelled like another's
    /// label-and-attribute content once shared its signature, and with it a
    /// quotient block, so the compressed route lost the `A` node.
    #[test]
    fn nodes_whose_content_only_prints_alike_keep_two_blocks() {
        let mut g = DiGraph::new();
        g.add_node("A\u{1}k\u{2}i5", []);
        let a = g.add_node("A", [("k", AttrValue::Int(5))]);
        let c = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        assert_eq!(c.stats().compressed_nodes, 2);
        let q = PatternBuilder::new()
            .node_output("x", Predicate::label("A"))
            .build()
            .unwrap();
        let direct = bounded_simulation(&g, &q).unwrap();
        let compressed = c.expand(&bounded_simulation(&c, &q).unwrap());
        assert_eq!(direct.total_pairs(), 1);
        assert_eq!(compressed, direct);
        assert!(compressed.contains(q.output().unwrap(), a));
    }

    #[test]
    fn identity_attr_queries_rejected() {
        let mut g = DiGraph::new();
        g.add_node("SA", [("name", AttrValue::Str("Bob".into()))]);
        let c = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        let q = PatternBuilder::new()
            .node("x", Predicate::attr_eq("name", "Bob"))
            .build()
            .unwrap();
        assert_eq!(
            c.validate_pattern(&q).unwrap_err(),
            CompressError::NonSignatureAttr("name".into())
        );
    }

    fn differential_check(
        g: &DiGraph,
        method: CompressionMethod,
        seed: u64,
        label_pool: Vec<String>,
    ) {
        let c = compress_graph(g, method).unwrap();
        assert!(c.partition().is_stable(g) || method == CompressionMethod::SimulationEquivalence);
        let mut rng = StdRng::seed_from_u64(seed);
        for shape in [PatternShape::Chain, PatternShape::Star, PatternShape::Cycle] {
            let mut cfg = PatternConfig::new(shape, 3, label_pool.clone());
            cfg.bound_range = (1, 3);
            let q = random_pattern(&mut rng, &cfg);
            c.validate_pattern(&q).unwrap();
            let direct = bounded_simulation(g, &q).unwrap();
            let expanded = c.expand(&bounded_simulation(&c, &q).unwrap());
            assert_eq!(expanded, direct, "{method:?} {shape:?} bounded diverged");

            let qs = q.as_simulation();
            let direct = graph_simulation(g, &qs).unwrap();
            let expanded = c.expand(&graph_simulation(&c, &qs).unwrap());
            assert_eq!(expanded, direct, "{method:?} {shape:?} simulation diverged");
        }
    }

    #[test]
    fn differential_bisim_collaboration() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = collaboration(
            &mut rng,
            &CollabConfig {
                teams: 20,
                team_size: 6,
                ..CollabConfig::default()
            },
        );
        let labels = vec!["SA".into(), "SD".into(), "BA".into(), "ST".into()];
        differential_check(&g, CompressionMethod::Bisimulation, 17, labels);
    }

    #[test]
    fn differential_simeq_collaboration() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = collaboration(
            &mut rng,
            &CollabConfig {
                teams: 15,
                team_size: 5,
                ..CollabConfig::default()
            },
        );
        let labels = vec!["SA".into(), "SD".into(), "BA".into(), "ST".into()];
        differential_check(&g, CompressionMethod::SimulationEquivalence, 23, labels);
    }

    #[test]
    fn differential_twitter() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = twitter_like(
            &mut rng,
            &TwitterConfig {
                n: 800,
                avg_out: 4,
                hub_fraction: 0.02,
                buckets: 3,
            },
        );
        let labels = vec!["celebrity".into(), "media".into(), "user".into()];
        differential_check(&g, CompressionMethod::Bisimulation, 29, labels);
    }

    #[test]
    fn twitter_compression_is_substantial() {
        // the property the paper's 57% claim rests on: social graphs have
        // many structurally equivalent leaf users
        let mut rng = StdRng::seed_from_u64(11);
        let g = twitter_like(
            &mut rng,
            &TwitterConfig {
                n: 5000,
                avg_out: 3,
                hub_fraction: 0.01,
                buckets: 3,
            },
        );
        let c = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        let stats = c.stats();
        assert!(
            stats.node_reduction() > 0.3,
            "expected substantial reduction, got {:.1}%",
            stats.node_reduction() * 100.0
        );
    }

    #[test]
    fn simeq_never_worse_than_bisim_ratio() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = collaboration(
            &mut rng,
            &CollabConfig {
                teams: 10,
                team_size: 5,
                ..CollabConfig::default()
            },
        );
        let bi = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        let se = compress_graph(&g, CompressionMethod::SimulationEquivalence).unwrap();
        assert!(se.stats().compressed_nodes <= bi.stats().compressed_nodes);
    }

    #[test]
    fn quotient_label_index_matches_scan() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = twitter_like(
            &mut rng,
            &TwitterConfig {
                n: 600,
                avg_out: 4,
                hub_fraction: 0.02,
                buckets: 3,
            },
        );
        let c = compress_graph(&g, CompressionMethod::Bisimulation).unwrap();
        assert!(c.has_label_index());
        // for every label present in the quotient, the index equals a scan
        for label in ["celebrity", "media", "user"] {
            let sym = match c.interner().get(label) {
                Some(s) => s,
                None => continue,
            };
            let indexed = c.nodes_with_label(sym).expect("label present");
            let mut scanned = BitSet::new(c.node_count());
            for v in c.ids() {
                if c.vertex(v).label() == sym {
                    scanned.insert(v);
                }
            }
            assert_eq!(indexed, &scanned, "label {label}");
            assert!(indexed.count() > 0, "label {label} has blocks");
        }
        // a label the quotient never saw has no class
        assert!(c
            .interner()
            .get("no-such-label")
            .and_then(|s| c.nodes_with_label(s))
            .is_none());
    }

    #[test]
    fn label_index_survives_incremental_rebuild() {
        // maintained compression rebuilds the quotient via rebuild_from;
        // the class index must follow
        use crate::maintain::MaintainedCompression;
        let mut rng = StdRng::seed_from_u64(37);
        let mut g = collaboration(
            &mut rng,
            &CollabConfig {
                teams: 6,
                team_size: 5,
                ..CollabConfig::default()
            },
        );
        let mut mc = MaintainedCompression::new(&g, CompressionMethod::Bisimulation).unwrap();
        let ups = expfinder_graph::generate::random_updates(&mut rng, &g, 25, 0.5);
        for up in ups {
            if g.apply(up) {
                mc.on_update(&g, up);
            }
        }
        mc.refresh(&g);
        let c = mc.compressed();
        for v in c.ids() {
            let sym = c.vertex(v).label();
            let class = c.nodes_with_label(sym).expect("every node's label indexed");
            assert!(class.contains(v), "block {v} in its own class");
        }
    }

    #[test]
    fn stats_reductions() {
        let s = CompressStats {
            original_nodes: 100,
            original_edges: 100,
            compressed_nodes: 40,
            compressed_edges: 60,
        };
        assert!((s.node_reduction() - 0.6).abs() < 1e-12);
        assert!((s.edge_reduction() - 0.4).abs() < 1e-12);
        assert!((s.size_reduction() - 0.5).abs() < 1e-12);
    }
}
