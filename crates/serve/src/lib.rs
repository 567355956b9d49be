//! `rppm serve` — the profile-once workflow as a long-lived service.
//!
//! A hand-rolled HTTP/1.1 server over [`std::net::TcpListener`] (no
//! external dependencies) exposing the [`rppm::Session`] facade:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | cache hit/miss/eviction counters, job counts |
//! | `POST /traces` | upload an `RPT1` or JSON trace (format sniffed by magic bytes, streamed — the binary path never buffers the body); returns a profiling job id |
//! | `POST /machines` | upload a `.machine` description; registered under its `[machine] name` for the `machine=` query parameter (a preset's name is refused) |
//! | `GET /jobs/<id>` | poll a profiling job |
//! | `GET /predict?workload=…&design=…` | one prediction (synchronous when the profile is resident; `202` + job id otherwise); `machine=<name>` predicts a registered machine instead |
//! | `GET /sweep?…` | all five Table IV design points, or `machine=<a,b,…>` registered machines |
//! | `GET /dse?…` | design-space exploration (`tiny`, `best_only`, `bound`, `max_area`, `max_power`); byte-identical to `rppm dse --json`; `machine=<name>` rebases the space |
//! | `POST /shutdown` | drain and exit |
//!
//! `/predict`, `/sweep` and `/dse` name their workload with
//! `workload=NAME[&scale=S][&seed=N]` or `trace=FP` (an uploaded trace
//! takes no `scale` or `seed`); the other endpoints take no query. A key
//! an endpoint does not read (misspelt, foreign or repeated) is a `400`
//! naming it, before any lookup or profiling job.
//!
//! The machine registry is seeded with the five Table IV presets
//! (`smallest` … `biggest`), so `machine=base` works on a fresh service
//! and always means the same machine as `design=base`: uploads may not
//! take a preset's name, and are FIFO-capped like trace uploads (presets
//! are never evicted).
//!
//! Predictions from a resident profile take microseconds; collecting a
//! profile takes seconds. The service keeps those on different threads:
//! HTTP workers serve resident-profile requests synchronously and turn
//! everything else into queued jobs ([`jobs::JobQueue`]) handled by
//! dedicated runners. The session's [`rppm::CacheBudget`] bounds resident
//! profiles with LRU eviction, so memory stays flat under workload churn
//! — the `profile-once` contract still holds for everything resident and
//! for concurrent requests to the same key (in-flight profiling runs are
//! never evicted and always coalesce).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod server;

pub use client::{Client, ClientResponse};
pub use server::{ServeConfig, Server};
