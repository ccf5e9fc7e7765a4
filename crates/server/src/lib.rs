//! `expfinder-server` — the HTTP serving layer of the ExpFinder system.
//!
//! The paper frames ExpFinder as an *interactive system*: analysts issue
//! expert-finding pattern queries against a live collaboration graph.
//! This crate puts the shareable, handle-based engine of
//! `expfinder-engine` on the network: a hand-rolled multi-threaded
//! HTTP/1.1 server (`std::net` only — the build is offline, so no
//! tokio/hyper; see [`http`]) speaking a JSON wire protocol built on the
//! same hand-rolled `expfinder_graph::json` module the on-disk formats
//! use (see [`wire`]).
//!
//! * [`backend`] — the engine behind the routes: an in-memory
//!   `Arc<ExpFinder>`, or the same engine inside an
//!   `Arc<DurableExpFinder>` (WAL-logged writes, replay on restart);
//!   both are read through the one `expfinder_engine::Catalog`.
//! * [`server`] — one thread per connection (capped, past the cap
//!   shed with 503) sharing one [`Backend`], keep-alive connections, graceful drain, and the `/subscribe` push
//!   loop (one chunked ΔM frame per committed update batch, fed by the
//!   backend's update hook through a per-subscriber bounded queue).
//! * [`routes`] — the endpoint table; `ExpFinderError`s map to statuses
//!   through [`expfinder_engine::ExpFinderError::http_status`].
//! * [`metrics`] — lock-free request counters, per-route latency
//!   histograms, in-flight gauge; exported on `GET /metrics`.
//! * [`client`] — a tiny blocking client (tests, shell).
//! * [`shell_ext`] — wraps the engine shell with `serve`/`connect`
//!   commands.
//!
//! ```
//! use expfinder_engine::ExpFinder;
//! use expfinder_server::{client::Client, Backend, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(ExpFinder::default());
//! engine
//!     .add_graph("fig1", expfinder_graph::fixtures::collaboration_fig1().graph)
//!     .unwrap();
//! let backend = Backend::Local(engine);
//! let server = Server::bind(backend, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let handle = server.spawn();
//!
//! let mut client = Client::new(handle.addr());
//! let health = client.health().unwrap();
//! assert_eq!(health.field("status").unwrap().as_str().unwrap(), "ok");
//! let resp = client
//!     .query(
//!         "fig1",
//!         &expfinder_server::client::query_body(
//!             "node sa* where label = \"SA\";",
//!             None,
//!             "auto",
//!             false,
//!         ),
//!     )
//!     .unwrap();
//! assert_eq!(resp.field("pairs").unwrap().as_i64().unwrap(), 2);
//!
//! handle.shutdown();
//! ```

pub mod backend;
pub mod client;
pub mod http;
pub mod metrics;
pub mod routes;
pub mod server;
pub mod shell_ext;
pub(crate) mod subscribe;
pub mod wire;

pub use backend::Backend;
pub use client::{Client, ClientError, Subscription};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shell_ext::ServedShell;
