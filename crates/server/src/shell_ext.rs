//! Serving commands for the interactive shell.
//!
//! The engine crate's [`Shell`] cannot know about HTTP (the server crate
//! depends on the engine, not the other way around), so this wrapper
//! intercepts the serving commands and delegates everything else:
//!
//! * `serve [addr]` — boot an HTTP server **on the shell's own engine**
//!   (default `127.0.0.1:0`); graphs generated or loaded in the shell are
//!   immediately queryable over the wire.
//! * `serve durable <dir> [addr]` — boot a server on a **durable
//!   runtime** rooted at `<dir>` instead: graphs already in the
//!   directory are recovered (snapshot + WAL replay) and updates
//!   accepted over the wire are WAL-logged. Separate from the shell's
//!   in-memory engine by design — durability is a property of the data
//!   dir, not of the shell session.
//! * `serve stop` — graceful drain; prints how many requests were served.
//! * `connect <addr>` — attach the blocking client to a remote server.
//! * `remote <graph> <pattern-dsl>` — run one query over the connection.
//! * `disconnect` — drop the connection.
//!
//! `examples/expfinder_shell.rs` wires this wrapper (not the bare
//! `Shell`) to stdin.

use crate::backend::Backend;
use crate::client::{query_body, Client};
use crate::server::{Server, ServerConfig, ServerHandle};
use expfinder_engine::shell::{Shell, ShellResult};
use expfinder_engine::EngineConfig;
use expfinder_runtime::{DurableExpFinder, RuntimeConfig};
use std::sync::Arc;

const SERVE_HELP: &str = "\
  serve [addr]                   serve this shell's engine over HTTP
  serve durable <dir> [addr]     serve a durable (WAL-backed) data dir
  serve stop                     drain and stop the server
  connect <addr>                 attach to a remote expfinder-server
  remote <graph> <pattern-dsl>   run a query over the connection
  disconnect                     drop the connection";

/// [`Shell`] plus the serving layer.
pub struct ServedShell {
    shell: Shell,
    server: Option<ServerHandle>,
    client: Option<(String, Client)>,
}

impl Default for ServedShell {
    fn default() -> Self {
        ServedShell::new(EngineConfig::default())
    }
}

impl ServedShell {
    pub fn new(config: EngineConfig) -> ServedShell {
        ServedShell {
            shell: Shell::new(config),
            server: None,
            client: None,
        }
    }

    /// The wrapped shell (for preloading graphs, as the examples do).
    pub fn shell(&mut self) -> &mut Shell {
        &mut self.shell
    }

    /// Address of the in-shell server, when one is running.
    pub fn serving_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|h| h.addr())
    }

    /// Execute one command line (serving commands here, the rest in the
    /// wrapped shell).
    pub fn exec(&mut self, line: &str) -> ShellResult {
        let trimmed = line.trim();
        let (cmd, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (trimmed, ""),
        };
        match cmd {
            "serve" => self.cmd_serve(rest),
            "connect" => self.cmd_connect(rest),
            "remote" => self.cmd_remote(rest),
            "disconnect" => {
                if self.client.take().is_some() {
                    Ok("disconnected".to_owned())
                } else {
                    Err("not connected".to_owned())
                }
            }
            "help" => Ok(format!("{}\n{SERVE_HELP}", self.shell.exec(line)?)),
            _ => self.shell.exec(line),
        }
    }

    fn cmd_serve(&mut self, rest: &str) -> ShellResult {
        if rest == "stop" {
            return match self.server.take() {
                Some(handle) => {
                    let served = handle.shutdown();
                    Ok(format!(
                        "server drained and stopped ({served} requests served)"
                    ))
                }
                None => Err("no server running".to_owned()),
            };
        }
        if self.server.is_some() {
            return Err(format!(
                "already serving on {}; `serve stop` first",
                self.serving_addr().expect("server is running")
            ));
        }
        let (backend, addr, recovered) = match rest.strip_prefix("durable") {
            Some(durable_rest) => {
                let mut parts = durable_rest.split_whitespace();
                let dir = parts.next().ok_or("usage: serve durable <dir> [addr]")?;
                let addr = parts.next().unwrap_or("127.0.0.1:0").to_owned();
                let rt = DurableExpFinder::open(dir, RuntimeConfig::default())
                    .map_err(|e| format!("open data dir {dir}: {e}"))?;
                let recovered = rt.graph_names().len();
                (Backend::Durable(Arc::new(rt)), addr, Some(recovered))
            }
            None => {
                let addr = if rest.is_empty() { "127.0.0.1:0" } else { rest };
                (
                    Backend::Local(Arc::clone(self.shell.engine())),
                    addr.to_owned(),
                    None,
                )
            }
        };
        let config = ServerConfig::default();
        let workers = config.workers;
        let server = Server::bind(backend, addr.as_str(), config)
            .map_err(|e| format!("bind {addr}: {e}"))?;
        let handle = server.spawn();
        let out = match recovered {
            Some(n) => format!(
                "serving durable on {} ({workers} workers, {n} graphs recovered)",
                handle.addr()
            ),
            None => format!("serving on {} ({workers} workers)", handle.addr()),
        };
        self.server = Some(handle);
        Ok(out)
    }

    fn cmd_connect(&mut self, rest: &str) -> ShellResult {
        if rest.is_empty() {
            return Err("usage: connect <addr>".to_owned());
        }
        let mut client = Client::for_addr(rest).map_err(|e| e.to_string())?;
        let health = client.health().map_err(|e| e.to_string())?;
        let graphs = client.graphs().map_err(|e| e.to_string())?;
        let names: Vec<String> = graphs
            .field("graphs")
            .and_then(|g| g.as_array())
            .map_err(|e| e.to_string())?
            .iter()
            .filter_map(|g| {
                g.field("name")
                    .and_then(|n| n.as_str())
                    .ok()
                    .map(str::to_owned)
            })
            .collect();
        let n = health
            .field("graphs")
            .and_then(|g| g.as_i64())
            .unwrap_or(names.len() as i64);
        self.client = Some((rest.to_owned(), client));
        Ok(format!(
            "connected to {rest}: {n} graphs{}{}",
            if names.is_empty() { "" } else { ": " },
            names.join(", ")
        ))
    }

    fn cmd_remote(&mut self, rest: &str) -> ShellResult {
        let (graph, dsl) = rest
            .split_once(char::is_whitespace)
            .ok_or("usage: remote <graph> <pattern-dsl>")?;
        let (addr, client) = self
            .client
            .as_mut()
            .ok_or("not connected; `connect <addr>` first")?;
        let resp = client
            .query(graph, &query_body(dsl.trim(), Some(3), "auto", false))
            .map_err(|e| e.to_string())?;
        let pairs = resp.field("pairs").and_then(|p| p.as_i64()).unwrap_or(0);
        let route = resp
            .field("route")
            .and_then(|r| r.as_str())
            .unwrap_or("?")
            .to_owned();
        let version = resp
            .field("graph_version")
            .and_then(|v| v.as_i64())
            .unwrap_or(-1);
        Ok(format!(
            "{addr}/{graph}: {pairs} pairs via {route} (v{version})"
        ))
    }
}

impl Drop for ServedShell {
    fn drop(&mut self) {
        // ServerHandle's own Drop drains and joins; taking it here just
        // makes the order explicit
        drop(self.server.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::fixtures::collaboration_fig1;

    fn fig1_shell() -> ServedShell {
        let mut sh = ServedShell::default();
        sh.shell()
            .engine()
            .add_graph("fig1", collaboration_fig1().graph)
            .unwrap();
        sh.exec("use fig1").unwrap();
        sh
    }

    #[test]
    fn serve_connect_remote_roundtrip() {
        let mut sh = fig1_shell();
        let out = sh.exec("serve").unwrap();
        assert!(out.starts_with("serving on 127.0.0.1:"), "{out}");
        let addr = sh.serving_addr().unwrap().to_string();

        let out = sh.exec(&format!("connect {addr}")).unwrap();
        assert!(out.contains("1 graphs"), "{out}");
        assert!(out.contains("fig1"), "{out}");

        let out = sh
            .exec("remote fig1 node sa* where label = \"SA\";")
            .unwrap();
        assert!(out.contains("2 pairs"), "{out}");
        assert!(out.contains("via snapshot"), "{out}");

        // local commands still flow through to the wrapped shell
        let out = sh.exec("graphs").unwrap();
        assert_eq!(out, "fig1");

        let out = sh.exec("disconnect").unwrap();
        assert_eq!(out, "disconnected");
        let out = sh.exec("serve stop").unwrap();
        assert!(out.contains("server drained and stopped"), "{out}");
        assert!(out.contains("requests served"), "{out}");
    }

    #[test]
    fn serve_durable_recovers_graphs_across_serve_sessions() {
        let dir =
            std::env::temp_dir().join(format!("expfinder_shell_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_string_lossy().into_owned();

        let mut sh = ServedShell::default();
        let out = sh.exec(&format!("serve durable {dir_arg}")).unwrap();
        assert!(out.contains("serving durable"), "{out}");
        assert!(out.contains("0 graphs recovered"), "{out}");

        // upload over the wire; the durable backend snapshots + WALs it
        let mut client = Client::new(sh.serving_addr().unwrap());
        client
            .add_graph("persisted", &collaboration_fig1().graph)
            .unwrap();
        sh.exec("serve stop").unwrap();

        // a second durable session on the same dir recovers the graph
        let out = sh.exec(&format!("serve durable {dir_arg}")).unwrap();
        assert!(out.contains("1 graphs recovered"), "{out}");
        let addr = sh.serving_addr().unwrap().to_string();
        let out = sh.exec(&format!("connect {addr}")).unwrap();
        assert!(out.contains("persisted"), "{out}");
        let out = sh
            .exec("remote persisted node sa* where label = \"SA\";")
            .unwrap();
        assert!(out.contains("2 pairs"), "{out}");
        sh.exec("serve stop").unwrap();

        assert!(sh.exec("serve durable").is_err(), "dir is required");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_errors_are_friendly() {
        let mut sh = fig1_shell();
        assert!(sh.exec("serve stop").is_err(), "nothing to stop");
        assert!(sh.exec("disconnect").is_err(), "nothing to disconnect");
        assert!(sh
            .exec("remote fig1 node a;")
            .unwrap_err()
            .contains("not connected"));
        assert!(sh.exec("connect").is_err());
        assert!(sh.exec("connect not-an-addr").is_err());

        sh.exec("serve").unwrap();
        let err = sh.exec("serve").unwrap_err();
        assert!(err.contains("already serving"), "{err}");
        sh.exec("serve stop").unwrap();

        // help includes the serving section
        let help = sh.exec("help").unwrap();
        assert!(help.contains("serve [addr]"), "{help}");
        assert!(help.contains("experts"), "{help}");
    }
}
