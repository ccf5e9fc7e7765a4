//! File-based persistence for the engine catalog.
//!
//! Paper §II: "all the graphs and query results are stored and managed as
//! files". A catalog directory contains a JSON manifest plus one `.efg`
//! text file per graph; query results serialize to JSON documents. JSON
//! goes through the hand-rolled `expfinder_graph::json` module (the
//! offline build has no serde).

use crate::{ExpFinder, ExpFinderError};
use expfinder_core::MatchRelation;
use expfinder_graph::json::{self, Value};
use expfinder_graph::{io as gio, BitSet, NodeId};
use std::fs;
use std::path::Path;

const FORMAT: &str = "expfinder-catalog-v1";

fn storage_err(e: impl std::fmt::Display) -> ExpFinderError {
    ExpFinderError::Storage(e.to_string())
}

/// Persist every graph of the engine into `dir` (created if missing).
///
/// Incremental: the manifest records each graph's version at save time,
/// and a later save skips rewriting any `.efg` whose version is
/// unchanged and whose file still exists — so periodic snapshotting
/// does not rewrite cold graphs.
/// Versions only compare within one process lifetime (a reloaded graph
/// restarts its version counter), which errs on the safe side: a
/// mismatch just rewrites.
pub fn save_catalog(engine: &ExpFinder, dir: impl AsRef<Path>) -> Result<(), ExpFinderError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let prior = saved_versions(dir);
    let names = engine.graph_names();
    let mut versions: Vec<(String, Value)> = Vec::with_capacity(names.len());
    for name in &names {
        let handle = engine.handle(name)?;
        let version = engine.read_graph(&handle, |g| g.version())?;
        let unchanged =
            prior.get(name.as_str()) == Some(&version) && dir.join(format!("{name}.efg")).is_file();
        if !unchanged {
            engine
                .read_graph(&handle, |g| {
                    gio::save_text(g, dir.join(format!("{name}.efg")))
                })?
                .map_err(storage_err)?;
        }
        versions.push((name.clone(), Value::Int(version as i64)));
    }
    let manifest = Value::Object(
        [
            ("format".to_owned(), Value::Str(FORMAT.to_owned())),
            (
                "graphs".to_owned(),
                Value::Array(names.into_iter().map(Value::Str).collect()),
            ),
            (
                "versions".to_owned(),
                Value::Object(versions.into_iter().collect()),
            ),
        ]
        .into_iter()
        .collect(),
    );
    fs::write(dir.join("manifest.json"), manifest.to_string_pretty())?;
    Ok(())
}

/// The per-graph versions recorded by the last [`save_catalog`] into
/// `dir`, if a manifest with a `versions` map is present (older
/// manifests simply yield an empty map, so every graph rewrites once).
fn saved_versions(dir: &Path) -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    let Ok(text) = fs::read_to_string(dir.join("manifest.json")) else {
        return out;
    };
    let Ok(manifest) = json::parse(&text) else {
        return out;
    };
    if manifest.field("format").and_then(|f| f.as_str()).ok() != Some(FORMAT) {
        return out;
    }
    if let Ok(versions) = manifest.field("versions").and_then(|v| v.as_object()) {
        for (name, v) in versions {
            if let Ok(version) = v.as_i64() {
                out.insert(name.clone(), version as u64);
            }
        }
    }
    out
}

/// Load a catalog directory into a fresh engine (default configuration).
pub fn load_catalog(dir: impl AsRef<Path>) -> Result<ExpFinder, ExpFinderError> {
    let text = fs::read_to_string(dir.as_ref().join("manifest.json"))?;
    let manifest = json::parse(&text).map_err(storage_err)?;
    let format = manifest
        .field("format")
        .and_then(|f| f.as_str())
        .map_err(storage_err)?;
    if format != FORMAT {
        return Err(ExpFinderError::Storage(format!(
            "unknown catalog format {format:?}"
        )));
    }
    let engine = ExpFinder::default();
    for name in manifest
        .field("graphs")
        .and_then(|g| g.as_array())
        .map_err(storage_err)?
    {
        let name = name.as_str().map_err(storage_err)?;
        // a crafted manifest must not be able to read outside `dir`
        crate::validate_graph_name(name)?;
        let g = gio::load_text(dir.as_ref().join(format!("{name}.efg"))).map_err(storage_err)?;
        engine.add_graph(name, g)?;
    }
    Ok(engine)
}

/// Serializable form of a match relation.
pub struct ResultDoc {
    /// Number of data-graph nodes the relation ranges over.
    pub data_nodes: usize,
    /// Per pattern node (in id order), the matched data node ids.
    pub matches: Vec<Vec<u32>>,
}

impl ResultDoc {
    pub fn from_relation(m: &MatchRelation) -> ResultDoc {
        ResultDoc {
            data_nodes: m.data_nodes(),
            matches: (0..m.pattern_nodes())
                .map(|i| {
                    m.matches(expfinder_pattern::PNodeId(i as u32))
                        .iter()
                        .map(|v| v.0)
                        .collect()
                })
                .collect(),
        }
    }

    pub fn into_relation(self) -> MatchRelation {
        let sets: Vec<BitSet> = self
            .matches
            .iter()
            .map(|ids| {
                let mut s = BitSet::new(self.data_nodes);
                for &i in ids {
                    s.insert(NodeId(i));
                }
                s
            })
            .collect();
        MatchRelation::from_sets(sets, self.data_nodes)
    }

    fn to_json_value(&self) -> Value {
        Value::Object(
            [
                ("data_nodes".to_owned(), Value::Int(self.data_nodes as i64)),
                (
                    "matches".to_owned(),
                    Value::Array(
                        self.matches
                            .iter()
                            .map(|ids| {
                                Value::Array(ids.iter().map(|&i| Value::Int(i as i64)).collect())
                            })
                            .collect(),
                    ),
                ),
            ]
            .into_iter()
            .collect(),
        )
    }

    fn from_json_value(v: &Value) -> Result<ResultDoc, json::JsonError> {
        let matches = v
            .field("matches")?
            .as_array()?
            .iter()
            .map(|ids| ids.as_array()?.iter().map(|i| i.as_u32()).collect())
            .collect::<Result<Vec<Vec<u32>>, _>>()?;
        Ok(ResultDoc {
            data_nodes: v.field("data_nodes")?.as_usize()?,
            matches,
        })
    }
}

/// Save a query result as JSON.
pub fn save_result(m: &MatchRelation, path: impl AsRef<Path>) -> Result<(), ExpFinderError> {
    fs::write(
        path,
        ResultDoc::from_relation(m)
            .to_json_value()
            .to_string_compact(),
    )?;
    Ok(())
}

/// Load a query result from JSON.
pub fn load_result(path: impl AsRef<Path>) -> Result<MatchRelation, ExpFinderError> {
    let text = fs::read_to_string(path)?;
    let doc = json::parse(&text)
        .and_then(|v| ResultDoc::from_json_value(&v))
        .map_err(storage_err)?;
    Ok(doc.into_relation())
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_core::bounded_simulation;
    use expfinder_graph::fixtures::collaboration_fig1;
    use expfinder_graph::GraphView;
    use expfinder_pattern::fixtures::fig1_pattern;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("expfinder_storage_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn catalog_roundtrip() {
        let dir = tmpdir("catalog");
        let f = collaboration_fig1();
        let e = ExpFinder::default();
        e.add_graph("fig1", f.graph.clone()).unwrap();
        e.add_graph("empty", expfinder_graph::DiGraph::new())
            .unwrap();
        save_catalog(&e, &dir).unwrap();

        let loaded = load_catalog(&dir).unwrap();
        assert_eq!(loaded.graph_names(), vec!["empty", "fig1"]);
        let h = loaded.handle("fig1").unwrap();
        loaded
            .read_graph(&h, |g| {
                assert_eq!(g.node_count(), 9);
                assert_eq!(g.edge_count(), 11);
            })
            .unwrap();
        // loaded graph answers the paper query identically
        let m = loaded.evaluate(&h, &fig1_pattern()).unwrap();
        assert_eq!(m.matches.total_pairs(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_graphs_skip_rewrite() {
        let dir = tmpdir("skip");
        let e = ExpFinder::default();
        e.add_graph("fig1", collaboration_fig1().graph).unwrap();
        e.add_graph("other", collaboration_fig1().graph).unwrap();
        save_catalog(&e, &dir).unwrap();

        // plant a sentinel comment: the text format ignores it on load,
        // and it only survives a re-save if the file was NOT rewritten
        let fig1_path = dir.join("fig1.efg");
        let mut text = fs::read_to_string(&fig1_path).unwrap();
        text.push_str("# sentinel\n");
        fs::write(&fig1_path, &text).unwrap();

        // nothing changed ⇒ second save keeps the sentinel
        save_catalog(&e, &dir).unwrap();
        assert!(
            fs::read_to_string(&fig1_path)
                .unwrap()
                .contains("# sentinel"),
            "unchanged graph was rewritten"
        );

        // bump one graph's version ⇒ only that file rewrites
        let other_path = dir.join("other.efg");
        let mut other_text = fs::read_to_string(&other_path).unwrap();
        other_text.push_str("# sentinel\n");
        fs::write(&other_path, &other_text).unwrap();
        let h = e.handle("fig1").unwrap();
        let f = collaboration_fig1();
        e.apply_updates(&h, &[expfinder_graph::EdgeUpdate::Insert(f.e1.0, f.e1.1)])
            .unwrap();
        save_catalog(&e, &dir).unwrap();
        assert!(
            !fs::read_to_string(&fig1_path)
                .unwrap()
                .contains("# sentinel"),
            "updated graph must be rewritten"
        );
        assert!(
            fs::read_to_string(&other_path)
                .unwrap()
                .contains("# sentinel"),
            "untouched graph must not be rewritten"
        );

        // a deleted .efg is restored even at an unchanged version
        fs::remove_file(&other_path).unwrap();
        save_catalog(&e, &dir).unwrap();
        assert!(other_path.is_file(), "missing file must be rewritten");

        // and the catalog still loads with the updated edge present
        let loaded = load_catalog(&dir).unwrap();
        let h = loaded.handle("fig1").unwrap();
        loaded
            .read_graph(&h, |g| assert_eq!(g.edge_count(), 12))
            .unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_roundtrip() {
        let dir = tmpdir("result");
        fs::create_dir_all(&dir).unwrap();
        let f = collaboration_fig1();
        let m = bounded_simulation(&f.graph, &fig1_pattern()).unwrap();
        let p = dir.join("team.json");
        save_result(&m, &p).unwrap();
        let loaded = load_result(&p).unwrap();
        assert_eq!(loaded, m);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_manifest_rejected() {
        let dir = tmpdir("bad");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.json"),
            r#"{"format":"something-else","graphs":[]}"#,
        )
        .unwrap();
        assert!(matches!(
            load_catalog(&dir),
            Err(ExpFinderError::Storage(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn traversal_manifest_rejected() {
        let dir = tmpdir("traversal");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.json"),
            r#"{"format":"expfinder-catalog-v1","graphs":["../../outside"]}"#,
        )
        .unwrap();
        assert!(matches!(
            load_catalog(&dir),
            Err(ExpFinderError::InvalidGraphName(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_io_error() {
        assert!(matches!(
            load_catalog("/definitely/not/here"),
            Err(ExpFinderError::Io(_))
        ));
    }
}
