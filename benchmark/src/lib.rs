//! The repo benchmark of the ExpFinder reproduction: four closed-loop
//! workloads against a separately spawned `serve`, eight end-to-end
//! metrics, and a per-layer trace taken from outside the program. See
//! `README.md` next to this package for the definition and how to read
//! the output.

pub mod affinity;
pub mod calibrate;
pub mod drive;
pub mod host;
pub mod http;
pub mod metrics;
pub mod process;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod verify;
pub mod workload;
