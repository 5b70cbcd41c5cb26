//! `ipe-service` — the long-lived disambiguation server.
//!
//! The one-shot CLI re-parses the schema and re-runs the full search on
//! every invocation; interactive conceptual-query front-ends (the paper's
//! CUPID loop) instead issue many small, highly repetitive requests
//! against a slowly-changing schema. This crate makes `ipe` resident:
//!
//! * a [`SchemaRegistry`] of named, versioned schemas behind `Arc` with
//!   atomic hot-swap on reload;
//! * a sharded LRU [`ReplyCache`](cache::ReplyCache) memoizing
//!   [`Completer::complete_with_stats`](ipe_core::Completer) results
//!   together with their encoded reply fragment, keyed by `(schema id,
//!   generation, normalized query, config fingerprint)` so schema
//!   reloads invalidate by construction;
//! * a std-only HTTP/1.1 front end ([`Server`]) — per-core epoll
//!   reactors over `SO_REUSEPORT` acceptor shards, per-connection state
//!   machines with pipelining-safe framing, bounded live connections
//!   (`503` beyond), per-request deadlines (`408` on expiry), graceful
//!   drain — serving `POST /v1/complete`, `GET /v1/schemas`,
//!   `GET`/`PUT`/`DELETE /v1/schemas/:name`, `GET /healthz`,
//!   `GET /metrics`, and `POST /v1/shutdown`;
//! * optional durability via `ipe-store`: with
//!   [`ServiceConfig::data_dir`] set, registry mutations are
//!   write-through to a checksummed WAL with periodic snapshots, startup
//!   recovers the registry (ids and generations restored exactly, so
//!   pre-crash cache keys never alias new entries), and a best-effort
//!   warmup journal pre-warms the completion cache.
//!
//! Start one from the CLI with `ipe serve --addr 127.0.0.1:7474
//! [--data-dir DIR]`; see the workspace README's *Service* and
//! *Persistence* sections for the HTTP API and a curl quick-start,
//! DESIGN.md §9 for the cache keying and shutdown protocol, and
//! DESIGN.md §11 for the store format and recovery invariants.

// `deny`, not `forbid`: the epoll shim is the one module allowed to
// override it — all unsafe in this crate lives behind its safe surface.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod data;
#[allow(unsafe_code)]
pub mod epoll;
pub mod http;
pub(crate) mod reactor;
pub mod registry;
pub mod repl;
pub(crate) mod route;
pub mod server;
pub(crate) mod sync;

pub use api::{
    AnswerView, CompleteRequest, CompleteResponse, CompletionView, DataPutRequest, DataPutResponse,
    QueryRequest, QueryResponse,
};
pub use cache::{
    config_fingerprint, entry_weight, CacheKey, CachePartitions, CacheStats, CompletionCache,
    ShardedLru,
};
pub use data::{DataEntry, DataRegistry};
pub use http::{Client, ClientResponse};
pub use registry::{SchemaEntry, SchemaInfo, SchemaRegistry};
pub use repl::FollowerStatus;
pub use server::{metrics_prometheus, Server, ServiceConfig, ServiceState, WarmupTracker};

// The durability knobs callers need to fill a `ServiceConfig`.
pub use ipe_store::FsyncPolicy;
