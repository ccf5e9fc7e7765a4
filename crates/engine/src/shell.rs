//! The interactive shell — the line-oriented substitute for the paper's
//! GUI (Figs. 3–5; see DESIGN.md §3, substitution 2).
//!
//! Every operation named in the paper's GUI walkthrough has a command:
//! graph management (`gen`, `load`, `save`, `graphs`, `use`, `info`),
//! query construction via the pattern DSL (`query`, `experts`,
//! `register`), result browsing at both granularities (`rollup`,
//! `drill`), updates (`update`), and the compression module (`compress`,
//! `decompress`). The shell is a pure function from command lines to
//! output strings, so it is fully testable; `examples/expfinder_shell.rs`
//! wires it to stdin.
//!
//! The shell holds an `Arc<ExpFinder>` and a current [`GraphHandle`] —
//! the same shareable engine any other consumer would hold, exercised
//! through the handle-based `&self` API.

use crate::{
    report, EngineConfig, ExpFinder, ExpFinderError, GraphHandle, QueryResponse, QuerySpec,
};
use expfinder_compress::CompressionMethod;
use expfinder_core::ResultGraph;
use expfinder_graph::generate::{
    collaboration, erdos_renyi, preferential_attachment, random_updates, twitter_like,
    CollabConfig, NodeSpec, TwitterConfig,
};
use expfinder_graph::{EdgeUpdate, GraphView, NodeId};
use expfinder_pattern::{parser, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// The shell's outcome for one line.
pub type ShellResult = Result<String, String>;

/// Interactive session state.
pub struct Shell {
    engine: Arc<ExpFinder>,
    current: Option<GraphHandle>,
    seed: u64,
    last_query: Option<(Pattern, QueryResponse)>,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new(EngineConfig::default())
    }
}

const HELP: &str = "\
ExpFinder shell — expert search by graph pattern matching
  graphs                         list managed graphs
  gen <name> <kind> [k=v ...]    generate: collab | twitter | er | pa
                                 (teams=, size=, n=, m=, k=, seed=)
  load <name> <path>             load a .efg graph file
  save <name> <path>             save a graph to a .efg file
  use <name>                     select the current graph
  info                           current graph summary
  query <pattern-dsl>            evaluate a pattern (one line, ';'-separated)
  batch <file>                   run one query DSL per line, in parallel,
                                 printing per-query timings
  dual <pattern-dsl>             evaluate under dual simulation (extension)
  experts <k> <pattern-dsl>      evaluate + rank, print the top-k experts
  rollup                         summary of the last result
  drill <node-id|name>           detail view of one match
  dot <path>                     export the last result graph as Graphviz DOT
  reach <a> <b>                  O(1) reachability query (extension index)
  update insert <a> <b>          single edge insertion
  update delete <a> <b>          single edge deletion
  update random <count> [ratio]  random batch (ratio = insert fraction)
  register <qname> <pattern-dsl> register a query for incremental upkeep
  registered                     list registered queries
  result <qname>                 maintained result of a registered query
  compress [bisim|simeq]         build the compressed graph
  decompress                     drop the compressed graph
  cache                          cache statistics
  seed <n>                       set the RNG seed for gen/update random
  help                           this text";

impl Shell {
    pub fn new(config: EngineConfig) -> Shell {
        Shell {
            engine: Arc::new(ExpFinder::new(config)),
            current: None,
            seed: 42,
            last_query: None,
        }
    }

    /// The underlying shareable engine (used by examples to preload
    /// graphs — `add_graph` takes `&self`, so no mutable access needed).
    pub fn engine(&self) -> &Arc<ExpFinder> {
        &self.engine
    }

    /// Select a graph programmatically.
    pub fn select(&mut self, name: &str) -> ShellResult {
        self.exec(&format!("use {name}"))
    }

    fn current(&self) -> Result<GraphHandle, String> {
        self.current
            .clone()
            .ok_or_else(|| "no graph selected; `use <name>` first".to_owned())
    }

    fn err(e: ExpFinderError) -> String {
        e.to_string()
    }

    /// Execute one command line.
    pub fn exec(&mut self, line: &str) -> ShellResult {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "help" => Ok(HELP.to_owned()),
            "graphs" => {
                let names = self.engine.graph_names();
                if names.is_empty() {
                    Ok("(no graphs)".to_owned())
                } else {
                    Ok(names.join("\n"))
                }
            }
            "gen" => self.cmd_gen(rest),
            "load" => self.cmd_load(rest),
            "save" => self.cmd_save(rest),
            "use" => {
                let h = self.engine.handle(rest).map_err(Self::err)?;
                self.current = Some(h);
                Ok(format!("using {rest}"))
            }
            "info" => self.cmd_info(),
            "query" => self.cmd_query(rest),
            "batch" => self.cmd_batch(rest),
            "dual" => self.cmd_dual(rest),
            "experts" => self.cmd_experts(rest),
            "rollup" => self.cmd_rollup(),
            "drill" => self.cmd_drill(rest),
            "dot" => self.cmd_dot(rest),
            "reach" => self.cmd_reach(rest),
            "update" => self.cmd_update(rest),
            "register" => self.cmd_register(rest),
            "registered" => {
                let h = self.current()?;
                let qs = self.engine.registered_queries(&h).map_err(Self::err)?;
                if qs.is_empty() {
                    Ok("(no registered queries)".to_owned())
                } else {
                    Ok(qs.join("\n"))
                }
            }
            "result" => {
                let h = self.current()?;
                let m = self.engine.registered_result(&h, rest).map_err(Self::err)?;
                Ok(format!("{} pairs maintained for {rest}", m.total_pairs()))
            }
            "compress" => self.cmd_compress(rest),
            "decompress" => {
                let h = self.current()?;
                self.engine.drop_compression(&h).map_err(Self::err)?;
                Ok("compression dropped".to_owned())
            }
            "cache" => {
                let s = self.engine.read_path().cache_stats();
                Ok(format!(
                    "cache: {} hits, {} misses, {} evictions",
                    s.get("hits"),
                    s.get("misses"),
                    self.engine.index_totals().cache_evictions
                ))
            }
            "seed" => {
                self.seed = rest.parse().map_err(|e| format!("bad seed: {e}"))?;
                Ok(format!("seed = {}", self.seed))
            }
            other => Err(format!("unknown command {other:?}; try `help`")),
        }
    }

    fn cmd_gen(&mut self, rest: &str) -> ShellResult {
        let mut parts = rest.split_whitespace();
        let name = parts.next().ok_or("usage: gen <name> <kind> [k=v ...]")?;
        let kind = parts.next().ok_or("usage: gen <name> <kind> [k=v ...]")?;
        let mut params: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad parameter {kv:?}"))?;
            params.insert(k, v.parse().map_err(|e| format!("bad value {v:?}: {e}"))?);
        }
        let seed = params.get("seed").copied().unwrap_or(self.seed as i64) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let get = |k: &str, d: i64| params.get(k).copied().unwrap_or(d);
        let g = match kind {
            "collab" => collaboration(
                &mut rng,
                &CollabConfig {
                    teams: get("teams", 100) as usize,
                    team_size: get("size", 8) as usize,
                    ..CollabConfig::default()
                },
            ),
            "twitter" => twitter_like(
                &mut rng,
                &TwitterConfig {
                    n: get("n", 10_000) as usize,
                    avg_out: get("avg_out", 5) as usize,
                    ..TwitterConfig::default()
                },
            ),
            "er" => erdos_renyi(
                &mut rng,
                get("n", 1000) as usize,
                get("m", 5000) as usize,
                &NodeSpec::expert_fields(),
            ),
            "pa" => preferential_attachment(
                &mut rng,
                get("n", 1000) as usize,
                get("k", 3) as usize,
                &NodeSpec::expert_fields(),
            ),
            other => return Err(format!("unknown generator {other:?}")),
        };
        let summary = format!(
            "generated {name}: {} nodes, {} edges ({kind}, seed {seed})",
            g.node_count(),
            g.edge_count()
        );
        let h = self.engine.add_graph(name, g).map_err(Self::err)?;
        self.current = Some(h);
        Ok(summary)
    }

    fn cmd_load(&mut self, rest: &str) -> ShellResult {
        let (name, path) = rest.split_once(' ').ok_or("usage: load <name> <path>")?;
        let g = expfinder_graph::io::load_text(path.trim()).map_err(|e| e.to_string())?;
        let summary = format!(
            "loaded {name}: {} nodes, {} edges",
            g.node_count(),
            g.edge_count()
        );
        let h = self.engine.add_graph(name, g).map_err(Self::err)?;
        self.current = Some(h);
        Ok(summary)
    }

    fn cmd_save(&mut self, rest: &str) -> ShellResult {
        let (name, path) = rest.split_once(' ').ok_or("usage: save <name> <path>")?;
        let h = self.engine.handle(name).map_err(Self::err)?;
        self.engine
            .read_graph(&h, |g| expfinder_graph::io::save_text(g, path.trim()))
            .map_err(Self::err)?
            .map_err(|e| e.to_string())?;
        Ok(format!("saved {name} to {}", path.trim()))
    }

    fn cmd_info(&mut self) -> ShellResult {
        let h = self.current()?;
        let mut out = self
            .engine
            .read_graph(&h, |g| {
                format!(
                    "{}: {} nodes, {} edges (version {})\n",
                    h.name(),
                    g.node_count(),
                    g.edge_count(),
                    g.version()
                )
            })
            .map_err(Self::err)?;
        if let Some(stats) = self.engine.compression_stats(&h).map_err(Self::err)? {
            let _ = write!(
                out,
                "compressed: {} nodes, {} edges ({:.1}% size reduction)",
                stats.compressed_nodes,
                stats.compressed_edges,
                stats.size_reduction() * 100.0
            );
        } else {
            out.push_str("not compressed");
        }
        Ok(out)
    }

    fn parse_pattern(dsl: &str) -> Result<Pattern, String> {
        parser::parse(dsl).map_err(|e| format!("pattern error: {e}"))
    }

    fn cmd_query(&mut self, dsl: &str) -> ShellResult {
        let h = self.current()?;
        let q = Self::parse_pattern(dsl)?;
        let outcome = self
            .engine
            .query(&h, &QuerySpec::pattern(q.clone()))
            .map_err(Self::err)?;
        let mut out = format!(
            "{} pairs via {}\n",
            outcome.matches.total_pairs(),
            outcome.plan.chosen.as_str()
        );
        let body = self
            .engine
            .read_graph(&h, |g| {
                let rg = ResultGraph::build(g, &q, &outcome.matches);
                report::roll_up(g, &q, &outcome.matches, &rg)
            })
            .map_err(Self::err)?;
        out.push_str(&body);
        self.last_query = Some((q, outcome));
        Ok(out)
    }

    /// `batch <file>`: one query DSL per line (blank lines and `#`
    /// comments skipped), executed through [`Catalog::query_batch`] —
    /// the whole file drains across the engine's batch worker pool.
    fn cmd_batch(&mut self, path: &str) -> ShellResult {
        if path.is_empty() {
            return Err("usage: batch <file>".into());
        }
        let h = self.current()?;
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect();
        if lines.is_empty() {
            return Err(format!("{path}: no queries (one DSL per line)"));
        }
        let specs: Vec<QuerySpec> = lines.iter().map(|(_, l)| QuerySpec::dsl(*l)).collect();
        let started = std::time::Instant::now();
        let results = self.engine.query_batch(&h, specs, None);
        let wall = started.elapsed();

        let mut out = String::new();
        let mut failed = 0usize;
        for ((lineno, _), result) in lines.iter().zip(&results) {
            match result {
                Ok(resp) => {
                    let _ = writeln!(
                        out,
                        "line {lineno}: {} pairs via {} in {:.2}ms (v{})",
                        resp.matches.total_pairs(),
                        resp.plan.chosen.as_str(),
                        resp.timings.total.as_secs_f64() * 1e3,
                        resp.graph_version
                    );
                }
                Err(e) => {
                    failed += 1;
                    // same error→status mapping the HTTP server uses, so a
                    // slot that fails here reads exactly like one that
                    // fails over the wire
                    let _ = writeln!(out, "line {lineno}: error {}: {e}", e.http_status());
                }
            }
        }
        let _ = write!(
            out,
            "batch: {} queries ({} failed) in {:.2}ms, {} workers",
            results.len(),
            failed,
            wall.as_secs_f64() * 1e3,
            // mirror query_batch's clamp: never more workers than queries
            self.engine.config().threads.clamp(1, results.len())
        );
        Ok(out)
    }

    fn cmd_dual(&mut self, dsl: &str) -> ShellResult {
        let h = self.current()?;
        let q = Self::parse_pattern(dsl)?;
        self.engine
            .read_graph(&h, |g| {
                let plain =
                    expfinder_core::bounded_simulation(g, &q).map_err(|e| e.to_string())?;
                let dual = expfinder_core::dual_simulation(g, &q);
                Ok(format!(
                    "bounded simulation: {} pairs; dual simulation: {} pairs ({} pruned by parent constraints)",
                    plain.total_pairs(),
                    dual.total_pairs(),
                    plain.total_pairs() - dual.total_pairs()
                ))
            })
            .map_err(Self::err)?
    }

    fn cmd_experts(&mut self, rest: &str) -> ShellResult {
        let (k_str, dsl) = rest
            .split_once(char::is_whitespace)
            .ok_or("usage: experts <k> <pattern-dsl>")?;
        let k: usize = k_str.parse().map_err(|e| format!("bad k: {e}"))?;
        let h = self.current()?;
        let q = Self::parse_pattern(dsl)?;
        // one read: one consistent snapshot of evaluation + ranking
        let resp = self
            .engine
            .query(&h, &QuerySpec::pattern(q.clone()).top_k(k))
            .map_err(Self::err)?;
        let mut out = format!(
            "{} pairs via {}; top {} of output node:\n",
            resp.matches.total_pairs(),
            resp.plan.chosen.as_str(),
            resp.experts.len()
        );
        let table = self
            .engine
            .read_graph(&h, |g| report::expert_table(g, &resp.experts))
            .map_err(Self::err)?;
        out.push_str(&table);
        self.last_query = Some((q, resp));
        Ok(out)
    }

    fn cmd_rollup(&mut self) -> ShellResult {
        let h = self.current()?;
        let (q, outcome) = self
            .last_query
            .as_ref()
            .ok_or("no previous query; run `query` first")?;
        self.engine
            .read_graph(&h, |g| {
                let rg = ResultGraph::build(g, q, &outcome.matches);
                report::roll_up(g, q, &outcome.matches, &rg)
            })
            .map_err(Self::err)
    }

    fn cmd_drill(&mut self, rest: &str) -> ShellResult {
        let h = self.current()?;
        let (q, outcome) = self
            .last_query
            .as_ref()
            .ok_or("no previous query; run `query` first")?;
        self.engine
            .read_graph(&h, |g| {
                // accept either a numeric node id or a `name` attribute value
                let v = match rest.parse::<u32>() {
                    Ok(i) => NodeId(i),
                    Err(_) => g
                        .ids()
                        .find(|&v| g.attr_of(v, "name").and_then(|a| a.as_str()) == Some(rest))
                        .ok_or_else(|| format!("no node named {rest:?}"))?,
                };
                let rg = ResultGraph::build(g, q, &outcome.matches);
                Ok(report::drill_down(g, q, &rg, v))
            })
            .map_err(Self::err)?
    }

    fn cmd_dot(&mut self, path: &str) -> ShellResult {
        if path.is_empty() {
            return Err("usage: dot <path>".into());
        }
        let h = self.current()?;
        let (q, outcome) = self
            .last_query
            .as_ref()
            .ok_or("no previous query; run `query` first")?;
        let (dot, nodes, edges) = self
            .engine
            .read_graph(&h, |g| {
                let rg = ResultGraph::build(g, q, &outcome.matches);
                let dot = report::to_dot(g, q, &outcome.matches, &rg);
                (dot, rg.node_count(), rg.edges().len())
            })
            .map_err(Self::err)?;
        std::fs::write(path, &dot).map_err(|e| e.to_string())?;
        Ok(format!("wrote {nodes} nodes / {edges} edges to {path}"))
    }

    fn cmd_reach(&mut self, rest: &str) -> ShellResult {
        let h = self.current()?;
        let mut parts = rest.split_whitespace();
        let a: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("usage: reach <a> <b>")?;
        let b: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("usage: reach <a> <b>")?;
        self.engine
            .read_graph(&h, |g| {
                let n = g.node_count() as u32;
                if a >= n || b >= n {
                    return Err(format!("node ids must be < {n}"));
                }
                let idx = expfinder_compress::ReachIndex::build(g);
                Ok(format!(
                    "reachable({a}, {b}) = {} ({} classes)",
                    idx.reachable(NodeId(a), NodeId(b)),
                    idx.class_count()
                ))
            })
            .map_err(Self::err)?
    }

    fn cmd_update(&mut self, rest: &str) -> ShellResult {
        let h = self.current()?;
        let mut parts = rest.split_whitespace();
        let op = parts
            .next()
            .ok_or("usage: update insert|delete|random ...")?;
        let updates: Vec<EdgeUpdate> = match op {
            "insert" | "delete" => {
                let a: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad source id")?;
                let b: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad target id")?;
                let up = if op == "insert" {
                    EdgeUpdate::Insert(NodeId(a), NodeId(b))
                } else {
                    EdgeUpdate::Delete(NodeId(a), NodeId(b))
                };
                vec![up]
            }
            "random" => {
                let count: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: update random <count> [insert_ratio]")?;
                let ratio: f64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0.5);
                let mut rng = StdRng::seed_from_u64(self.seed);
                self.seed = self.seed.wrapping_add(1);
                self.engine
                    .read_graph(&h, |g| random_updates(&mut rng, g, count, ratio))
                    .map_err(Self::err)?
            }
            other => return Err(format!("unknown update op {other:?}")),
        };
        let report = self.engine.apply_updates(&h, &updates).map_err(Self::err)?;
        Ok(format!(
            "applied {}/{} updates",
            report.applied,
            updates.len()
        ))
    }

    fn cmd_register(&mut self, rest: &str) -> ShellResult {
        let (qname, dsl) = rest
            .split_once(char::is_whitespace)
            .ok_or("usage: register <qname> <pattern-dsl>")?;
        let h = self.current()?;
        let q = Self::parse_pattern(dsl)?;
        self.engine
            .register_query(&h, qname, q)
            .map_err(Self::err)?;
        Ok(format!("registered {qname} for incremental maintenance"))
    }

    fn cmd_compress(&mut self, rest: &str) -> ShellResult {
        let h = self.current()?;
        let method = match rest {
            "" | "bisim" => CompressionMethod::Bisimulation,
            "simeq" => CompressionMethod::SimulationEquivalence,
            other => return Err(format!("unknown method {other:?} (bisim|simeq)")),
        };
        let stats = self.engine.compress(&h, method).map_err(Self::err)?;
        Ok(format!(
            "compressed: {} → {} nodes, {} → {} edges ({:.1}% size reduction)",
            stats.original_nodes,
            stats.compressed_nodes,
            stats.original_edges,
            stats.compressed_edges,
            stats.size_reduction() * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;

    const FIG1_DSL: &str = "node sa* where label = \"SA\" and experience >= 5; \
        node sd where label = \"SD\" and experience >= 2; \
        node ba where label = \"BA\" and experience >= 3; \
        node st where label = \"ST\" and experience >= 2; \
        edge sa -> sd within 2; edge sa -> ba within 3; \
        edge sd -> st within 2; edge ba -> st within 1;";

    fn fig1_shell() -> Shell {
        let mut sh = Shell::default();
        sh.engine()
            .add_graph("fig1", collaboration_fig1().graph)
            .unwrap();
        sh.exec("use fig1").unwrap();
        sh
    }

    #[test]
    fn help_and_unknown() {
        let mut sh = Shell::default();
        assert!(sh.exec("help").unwrap().contains("experts"));
        assert!(sh.exec("bogus").is_err());
        assert_eq!(sh.exec("").unwrap(), "");
        assert_eq!(sh.exec("# comment").unwrap(), "");
    }

    #[test]
    fn full_demo_session() {
        let mut sh = fig1_shell();
        let out = sh.exec(&format!("experts 1 {FIG1_DSL}")).unwrap();
        assert!(out.contains("7 pairs"), "{out}");
        assert!(out.contains("Bob"), "{out}");
        assert!(out.contains("1.8000"), "{out}");

        let out = sh.exec("rollup").unwrap();
        assert!(out.contains("sa*"), "{out}");

        let out = sh.exec("drill Bob").unwrap();
        assert!(out.contains("Bob [SA]"), "{out}");

        // Example 3 through the shell: insert e1 = Fred → Dan (ids 8 → 3)
        let out = sh.exec("update insert 8 3").unwrap();
        assert!(out.contains("applied 1/1"), "{out}");
        let out = sh.exec(&format!("query {FIG1_DSL}")).unwrap();
        assert!(out.contains("8 pairs"), "{out}");
        assert!(out.contains("Fred"), "{out}");
    }

    #[test]
    fn gen_use_info_compress() {
        let mut sh = Shell::default();
        let out = sh.exec("gen t twitter n=500 seed=7").unwrap();
        assert!(out.contains("generated t"), "{out}");
        let out = sh.exec("info").unwrap();
        assert!(out.contains("not compressed"), "{out}");
        let out = sh.exec("compress").unwrap();
        assert!(out.contains("size reduction"), "{out}");
        let out = sh.exec("info").unwrap();
        assert!(out.contains("compressed:"), "{out}");
        let out = sh.exec("decompress").unwrap();
        assert!(out.contains("dropped"), "{out}");
    }

    /// `compress <method>` installs the quotient whose numbers it prints.
    #[test]
    fn compress_installs_the_method_it_reports() {
        // a1 → {b1 → c1, b2}, a2 → b3 → c2: a1 and a2 simulate each other,
        // but nothing of a2's answers a1's dead-end b2 in a bisimulation
        let mut g = expfinder_graph::DiGraph::new();
        let [a1, b1, c1, b2, a2, b3, c2] =
            ["A", "B", "C", "B", "A", "B", "C"].map(|label| g.add_node(label, []));
        for (x, y) in [(a1, b1), (b1, c1), (a1, b2), (a2, b3), (b3, c2)] {
            g.add_edge(x, y);
        }
        let mut sh = Shell::default();
        let h = sh.engine().add_graph("g", g).unwrap();
        sh.exec("use g").unwrap();
        let mut installed = Vec::new();
        for method in ["bisim", "simeq"] {
            let out = sh.exec(&format!("compress {method}")).unwrap();
            let stats = sh.engine().compression_stats(&h).unwrap().unwrap();
            let printed = format!(
                "compressed: {} → {} nodes, {} → {} edges",
                stats.original_nodes,
                stats.compressed_nodes,
                stats.original_edges,
                stats.compressed_edges
            );
            assert!(out.starts_with(&printed), "{method}: {out} vs {stats:?}");
            installed.push(stats);
        }
        assert_ne!(
            installed[0], installed[1],
            "simulation equivalence merges a1 and a2, bisimulation cannot"
        );
        assert!(sh.exec("compress nope").is_err());
    }

    #[test]
    fn register_and_maintain() {
        let mut sh = fig1_shell();
        sh.exec(&format!("register team {FIG1_DSL}")).unwrap();
        assert_eq!(sh.exec("registered").unwrap(), "team");
        let out = sh.exec("result team").unwrap();
        assert!(out.contains("7 pairs"), "{out}");
        sh.exec("update insert 8 3").unwrap();
        let out = sh.exec("result team").unwrap();
        assert!(out.contains("8 pairs"), "{out}");
    }

    #[test]
    fn random_updates_and_cache() {
        let mut sh = Shell::default();
        sh.exec("gen g er n=100 m=400 seed=3").unwrap();
        let out = sh.exec("update random 10 0.5").unwrap();
        assert!(out.contains("applied"), "{out}");
        // er graphs use the expert-field alphabet
        let first = sh.exec("query node a where label = \"SA\";").unwrap();
        assert!(first.contains("via snapshot"), "{first}");
        let second = sh.exec("query node a where label = \"SA\";").unwrap();
        assert!(second.contains("via cache"), "{second}");
        let out = sh.exec("cache").unwrap();
        assert!(out.contains("1 hits"), "{out}");
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("expfinder_shell_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.efg");
        let mut sh = fig1_shell();
        sh.exec(&format!("save fig1 {}", path.display())).unwrap();
        let out = sh.exec(&format!("load fig1b {}", path.display())).unwrap();
        assert!(out.contains("9 nodes"), "{out}");
        let out = sh.exec(&format!("query {FIG1_DSL}")).unwrap();
        assert!(out.contains("7 pairs"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dot_and_reach_commands() {
        let dir = std::env::temp_dir().join(format!("expfinder_dot_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("result.dot");
        let mut sh = fig1_shell();
        sh.exec(&format!("query {FIG1_DSL}")).unwrap();
        let out = sh.exec(&format!("dot {}", path.display())).unwrap();
        assert!(out.contains("7 nodes"), "{out}");
        let dot = std::fs::read_to_string(&path).unwrap();
        assert!(dot.contains("digraph result"));
        // Bob (6) reaches Eva (5); Eva does not reach Bob
        let out = sh.exec("reach 6 5").unwrap();
        assert!(out.contains("= true"), "{out}");
        let out = sh.exec("reach 5 6").unwrap();
        assert!(out.contains("= false"), "{out}");
        assert!(sh.exec("reach 6 99").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_command_runs_file() {
        let dir = std::env::temp_dir().join(format!("expfinder_batch_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("queries.txt");
        std::fs::write(
            &path,
            format!("# demo batch\n{FIG1_DSL}\nnode sa* where label = \"SA\";\n\nnode oops\n"),
        )
        .unwrap();
        let mut sh = fig1_shell();
        let out = sh.exec(&format!("batch {}", path.display())).unwrap();
        assert!(out.contains("line 2: 7 pairs"), "{out}");
        assert!(out.contains("line 3: 2 pairs"), "{out}");
        // per-slot failures carry the shared error→status mapping and the
        // full ExpFinderError display string, not a generic line
        assert!(
            out.contains("line 5: error 400: pattern parse error"),
            "{out}"
        );
        assert!(out.contains("3 queries (1 failed)"), "{out}");
        assert!(sh.exec("batch").is_err());
        assert!(sh.exec("batch /nonexistent/queries.txt").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dual_command() {
        let mut sh = fig1_shell();
        let out = sh.exec(&format!("dual {FIG1_DSL}")).unwrap();
        assert!(out.contains("bounded simulation: 7 pairs"), "{out}");
        assert!(out.contains("dual simulation: 7 pairs"), "{out}");
    }

    /// A whole catalog persists by serving a durable data dir (`serve
    /// durable <dir>` in the served shell); the bare shell keeps only the
    /// single-graph `save` / `load`, and the old catalog commands are
    /// unknown rather than half-working.
    #[test]
    fn catalog_persistence_is_the_durable_runtime() {
        let mut sh = fig1_shell();
        let help = sh.exec("help").unwrap();
        assert!(help.contains("save <name> <path>"), "{help}");
        assert!(!help.contains("savecat"), "{help}");
        for cmd in ["savecat some/dir", "loadcat some/dir"] {
            let err = sh.exec(cmd).unwrap_err();
            assert!(err.contains("unknown command"), "{cmd}: {err}");
        }
        // the session is untouched
        let out = sh.exec(&format!("query {FIG1_DSL}")).unwrap();
        assert!(out.contains("7 pairs via snapshot"), "{out}");
    }

    #[test]
    fn errors_are_friendly() {
        let mut sh = Shell::default();
        assert!(sh
            .exec("query node a;")
            .unwrap_err()
            .contains("no graph selected"));
        assert!(sh.exec("use ghost").is_err());
        assert!(sh.exec("gen x unknown").is_err());
        assert!(sh.exec("experts nope node a;").is_err());
        sh.exec("gen g er n=10 m=10").unwrap();
        assert!(sh
            .exec("drill 5")
            .unwrap_err()
            .contains("no previous query"));
        assert!(sh.exec("query node a where label =;").is_err());
    }
}
