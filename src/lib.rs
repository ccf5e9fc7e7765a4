//! # ExpFinder
//!
//! A production-quality Rust reproduction of **"ExpFinder: Finding Experts
//! by Graph Pattern Matching"** (W. Fan, X. Wang, Y. Wu — ICDE 2013).
//!
//! ExpFinder identifies top-K experts in social networks by **bounded
//! graph simulation**: pattern queries whose nodes carry search conditions
//! and whose edges carry hop bounds, matched in cubic time against data
//! graphs — catching teams that subgraph isomorphism and plain simulation
//! both miss. The system copes with real-world scale through
//! **incremental query maintenance** under edge updates and
//! **query-preserving graph compression**.
//!
//! The engine is a **shareable service**: every query-side method takes
//! `&self`, graphs are addressed by cheap [`GraphHandle`]s, and an
//! `Arc<ExpFinder>` serves many threads at once (reads on different
//! graphs run fully in parallel; updates lock only their own graph).
//!
//! This crate is the facade: it re-exports the workspace crates under
//! stable module names.
//!
//! ```
//! use expfinder::prelude::*;
//! use std::sync::Arc;
//!
//! // build a tiny collaboration graph
//! let mut g = DiGraph::new();
//! let lead = g.add_node("SA", [("experience", AttrValue::Int(7))]);
//! let dev = g.add_node("SD", [("experience", AttrValue::Int(3))]);
//! g.add_edge(lead, dev);
//!
//! // pattern: an experienced architect within 2 hops of a developer
//! let pattern = PatternBuilder::new()
//!     .node_output("sa", Predicate::label("SA").and(Predicate::attr_ge("experience", 5)))
//!     .node("sd", Predicate::label("SD"))
//!     .edge("sa", "sd", Bound::hops(2))
//!     .build()
//!     .unwrap();
//!
//! // a shareable engine: add_graph returns a handle, queries are &self
//! let engine = Arc::new(ExpFinder::default());
//! let team = engine.add_graph("team", g).unwrap();
//! let spec = QuerySpec::pattern(pattern.clone()).top_k(1).prefer(Route::Auto);
//! let resp = engine.query(&team, &spec).unwrap();
//! assert_eq!(resp.experts[0].node, lead);
//! assert!(resp.matches.contains(pattern.node_id("sa").unwrap(), lead));
//!
//! // the matching layer is also usable directly, without an engine
//! let g2 = engine.snapshot(&team).unwrap();
//! let m = bounded_simulation(&g2, &pattern).unwrap();
//! assert_eq!(*resp.matches, m);
//! ```

pub use expfinder_compress as compress;
pub use expfinder_core as core;
pub use expfinder_engine as engine;
pub use expfinder_graph as graph;
pub use expfinder_incremental as incremental;
pub use expfinder_pattern as pattern;
pub use expfinder_runtime as runtime;
pub use expfinder_server as server;

#[doc(inline)]
pub use expfinder_engine::{Catalog, ExpFinder, ExpFinderError, GraphHandle};

/// Commonly used items, importable with `use expfinder::prelude::*`.
pub mod prelude {
    pub use expfinder_compress::{compress_graph, CompressedGraph, CompressionMethod, ReachIndex};
    pub use expfinder_core::{
        bounded_simulation, dual_simulation, graph_simulation, rank_matches_top_k,
        subgraph_isomorphism, top_k, MatchRelation, ResultGraph,
    };
    pub use expfinder_engine::{
        Catalog, EngineConfig, ExpFinder, ExpFinderError, GraphHandle, PlanRoute, QueryResponse,
        QuerySpec, QueryTimings, Route,
    };
    pub use expfinder_graph::{AttrValue, CsrGraph, DiGraph, EdgeUpdate, GraphView, NodeId};
    pub use expfinder_incremental::IncrementalBoundedSim;
    pub use expfinder_pattern::{Bound, Pattern, PatternBuilder, Predicate};
    pub use expfinder_runtime::{DurableExpFinder, FsyncPolicy, RuntimeConfig};
    pub use expfinder_server::{Client, ServedShell, Server, ServerConfig, ServerHandle};
}
