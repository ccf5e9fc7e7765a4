//! Textual result presentation — the substitute for the GUI's result
//! browser (paper Figs. 3 and 5).
//!
//! Two granularities, mirroring the paper's "Drill Down and Roll Up"
//! analysis: [`roll_up`] summarises the result graph (match counts per
//! pattern node, top experts), [`drill_down`] shows one match's detail —
//! its attributes and its weighted result-graph edges.

use expfinder_core::{MatchRelation, RankedMatch, ResultGraph};
use expfinder_graph::{DiGraph, GraphView, NodeId};
use expfinder_pattern::Pattern;
use std::fmt::Write;

/// A short human name for a node: the `name` attribute when present,
/// otherwise the node id.
pub fn display_name(g: &DiGraph, v: NodeId) -> String {
    match g.attr_of(v, "name").and_then(|a| a.as_str()) {
        Some(n) => n.to_owned(),
        None => v.to_string(),
    }
}

/// The global view: per-pattern-node match counts and the result graph's
/// size — what the paper calls "roll up ... to view its global structure".
pub fn roll_up(g: &DiGraph, q: &Pattern, m: &MatchRelation, rg: &ResultGraph) -> String {
    let mut out = String::new();
    if m.is_empty() {
        out.push_str("no matches: some pattern node has no valid match\n");
        return out;
    }
    let _ = writeln!(
        out,
        "result graph: {} nodes, {} edges",
        rg.node_count(),
        rg.edges().len()
    );
    for u in q.ids() {
        let members = m.matches_vec(u);
        let names: Vec<String> = members
            .iter()
            .take(8)
            .map(|&v| display_name(g, v))
            .collect();
        let suffix = if members.len() > 8 {
            format!(" … (+{})", members.len() - 8)
        } else {
            String::new()
        };
        let star = if q.output() == Some(u) { "*" } else { " " };
        let _ = writeln!(
            out,
            "  {}{} ({} matches): {}{}",
            q.node(u).name,
            star,
            members.len(),
            names.join(", "),
            suffix
        );
    }
    out
}

/// One match in detail: content plus incident result-graph edges with
/// their shortest-path weights — the paper's "drill down to see detailed
/// information in a result graph".
pub fn drill_down(g: &DiGraph, q: &Pattern, rg: &ResultGraph, v: NodeId) -> String {
    let mut out = String::new();
    if rg.nodes().binary_search(&v).is_err() {
        let _ = writeln!(out, "{} is not part of the result", display_name(g, v));
        return out;
    }
    let data = g.vertex(v);
    let _ = writeln!(out, "{} [{}] ({})", display_name(g, v), g.label_str(v), v);
    for (k, val) in data.attrs() {
        let _ = writeln!(out, "  {} = {}", g.interner().resolve(*k), val);
    }
    let mut outgoing: Vec<String> = Vec::new();
    let mut incoming: Vec<String> = Vec::new();
    for e in rg.edges() {
        let pe = &q.edges()[e.pattern_edge as usize];
        let label = format!("{}→{}", q.node(pe.from).name, q.node(pe.to).name);
        if e.from == v {
            outgoing.push(format!(
                "  --{}({})--> {}",
                label,
                e.weight,
                display_name(g, e.to)
            ));
        }
        if e.to == v {
            incoming.push(format!(
                "  <--{}({})-- {}",
                label,
                e.weight,
                display_name(g, e.from)
            ));
        }
    }
    if !outgoing.is_empty() {
        let _ = writeln!(out, "collaborates with:");
        for l in outgoing {
            let _ = writeln!(out, "{l}");
        }
    }
    if !incoming.is_empty() {
        let _ = writeln!(out, "collaborated under:");
        for l in incoming {
            let _ = writeln!(out, "{l}");
        }
    }
    out
}

/// Render the top-K expert list.
pub fn expert_table(g: &DiGraph, experts: &[RankedMatch]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "rank  score      expert");
    for (i, e) in experts.iter().enumerate() {
        let score = if e.rank.is_finite() {
            format!("{:<9.4}", e.rank)
        } else {
            "isolated ".to_owned()
        };
        let _ = writeln!(out, "{:>4}  {}  {}", i + 1, score, display_name(g, e.node));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_core::{bounded_simulation, rank_matches_top_k};
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::fig1_pattern;

    #[test]
    fn roll_up_mentions_all_pattern_nodes() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let text = roll_up(&f.graph, &q, &m, &rg);
        for name in ["sa*", "sd ", "ba ", "st "] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
        assert!(text.contains("Bob"));
        assert!(text.contains("2 matches"), "{text}");
    }

    #[test]
    fn drill_down_shows_weighted_edges() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let text = drill_down(&f.graph, &q, &rg, f.bob);
        assert!(text.contains("Bob [SA]"), "{text}");
        assert!(text.contains("experience = 7"), "{text}");
        assert!(text.contains("--sa→sd(1)--> Dan"), "{text}");
        assert!(text.contains("--sa→ba(3)--> Jean"), "{text}");
    }

    #[test]
    fn drill_down_non_member() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let text = drill_down(&f.graph, &q, &rg, f.bill);
        assert!(text.contains("not part of the result"), "{text}");
    }

    #[test]
    fn expert_table_format() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let ranked = rank_matches_top_k(&rg, &q, &m, usize::MAX).unwrap();
        let text = expert_table(&f.graph, &ranked);
        let bob_line = text.lines().find(|l| l.contains("Bob")).unwrap();
        assert!(
            bob_line.trim_start().starts_with('1'),
            "Bob is top-1: {text}"
        );
        assert!(bob_line.contains("1.8000"), "{text}");
    }

    #[test]
    fn roll_up_empty_result() {
        let f = collaboration_fig1();
        let q = fig1_pattern().as_simulation();
        let m = expfinder_core::graph_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let text = roll_up(&f.graph, &q, &m, &rg);
        assert!(text.contains("no matches"), "{text}");
    }
}

/// Export a result graph as Graphviz DOT — the file-based substitute for
/// the GUI's visual result browser. Nodes are grouped (colored) by the
/// pattern node they match; the designated output node's matches are
/// double-circled; edges carry the shortest-path length `d` as their
/// label, exactly like the paper's result-graph figures.
pub fn to_dot(g: &DiGraph, q: &Pattern, m: &MatchRelation, rg: &ResultGraph) -> String {
    const PALETTE: [&str; 8] = [
        "lightblue",
        "palegreen",
        "lightsalmon",
        "khaki",
        "plum",
        "lightcyan",
        "mistyrose",
        "lavender",
    ];
    let mut out = String::from("digraph result {\n  rankdir=LR;\n  node [style=filled];\n");
    for u in q.ids() {
        let color = PALETTE[u.index() % PALETTE.len()];
        let shape = if q.output() == Some(u) {
            "doublecircle"
        } else {
            "ellipse"
        };
        for v in m.matches(u).iter() {
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n({})\" fillcolor={} shape={}];",
                v.0,
                display_name(g, v).replace('"', "'"),
                q.node(u).name,
                color,
                shape
            );
        }
    }
    for e in rg.edges() {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\"];",
            e.from.0, e.to.0, e.weight
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use expfinder_core::bounded_simulation;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_pattern::fixtures::fig1_pattern;

    #[test]
    fn dot_export_structure() {
        let f = collaboration_fig1();
        let q = fig1_pattern();
        let m = bounded_simulation(&f.graph, &q).unwrap();
        let rg = ResultGraph::build(&f.graph, &q, &m);
        let dot = to_dot(&f.graph, &q, &m, &rg);
        assert!(dot.starts_with("digraph result {"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("Bob"), "{dot}");
        assert!(dot.contains("doublecircle"), "output node marked");
        // the Bob→Jean match edge carries its distance label 3
        let bob = format!("n{}", f.bob.0);
        let jean = format!("n{}", f.jean.0);
        assert!(
            dot.contains(&format!("{bob} -> {jean} [label=\"3\"]")),
            "{dot}"
        );
        // every result node declared exactly once (anchor at line start
        // so edge lines like "n0 -> n2 [label=..." do not collide)
        for &v in rg.nodes() {
            let decl = format!("\n  n{} [label=", v.0);
            assert_eq!(dot.matches(&decl).count(), 1, "{decl}");
        }
    }

    #[test]
    fn dot_escapes_quotes() {
        let mut g = DiGraph::new();
        g.add_node(
            "SA",
            [("name", expfinder_graph::AttrValue::Str("O\"Brien".into()))],
        );
        let q = expfinder_pattern::PatternBuilder::new()
            .node("a", expfinder_pattern::Predicate::label("SA"))
            .build()
            .unwrap();
        let m = bounded_simulation(&g, &q).unwrap();
        let rg = ResultGraph::build(&g, &q, &m);
        let dot = to_dot(&g, &q, &m, &rg);
        assert!(dot.contains("O'Brien"), "quotes sanitized: {dot}");
    }
}
