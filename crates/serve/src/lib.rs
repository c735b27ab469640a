//! # factorhd-serve — the network front end
//!
//! A hand-rolled threaded TCP serving layer over the engine's typed op
//! API — no external dependencies, in the same spirit as the vendored
//! shims. Three pieces (docs/SERVING.md, "Network front end"):
//!
//! * **Wire protocol** ([`protocol`]): length-prefixed frames carrying
//!   magic/version/request-id/kind payloads with an FNV-1a checksum
//!   trailer, mirroring the `.fhd` artifact codec's corruption
//!   discipline — every malformed input decodes to a typed
//!   [`WireError`], never a panic. Requests map 1:1 onto
//!   [`AnyOp`](factorhd_engine::AnyOp); responses are bit-identical
//!   round trips of [`AnyOutput`](factorhd_engine::AnyOutput) (floats
//!   travel as IEEE-754 bit patterns).
//! * **Work-conserving batcher** ([`BatcherConfig`]): in-flight requests
//!   from all connections coalesce into one queue. Whenever the engine
//!   lane is idle, everything queued (up to `max_batch`) is dispatched
//!   at once to
//!   [`ModelRegistry::execute_batch`](factorhd_engine::ModelRegistry::execute_batch);
//!   under load, batches grow from the requests that queue up while the
//!   previous batch runs. Responses scatter back to their connections by
//!   request id.
//! * **Server & client** ([`Server`], [`Client`]): one reader and one
//!   writer thread per connection; `Stats` and `Ping` ops answered
//!   inline; graceful shutdown that answers every accepted request.
//!   Per-server telemetry ([`ServingStats`]) rides on the engine's
//!   metrics machinery and is exposed over the wire via the `Stats` op.
//! * **Robustness** (docs/ROBUSTNESS.md): bounded admission with typed
//!   `Overloaded` shedding, optional per-request wire deadlines
//!   enforced at dequeue, slowloris read budgets on the server,
//!   reconnect + bounded jittered retry on the client
//!   ([`ClientConfig`] / [`RetryPolicy`]), and a fault-injection
//!   [`chaos`] proxy for the test battery.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use factorhd_core::TaxonomyBuilder;
//! use factorhd_engine::{AnyOp, EncodeScene, EngineConfig, ModelRegistry, ModelState};
//! use factorhd_serve::{Client, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = Arc::new(ModelRegistry::new());
//! let taxonomy = TaxonomyBuilder::new(512).class("animal", &[4]).build()?;
//! registry.install("zoo", ModelState::new(taxonomy, EngineConfig::default())?);
//!
//! let server = Server::start(Arc::clone(&registry), "127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//!
//! let mut rng = hdc::rng_from_seed(1);
//! let object = registry.get("zoo")?.state().taxonomy().sample_object(&mut rng);
//! let op = AnyOp::Encode(EncodeScene { scene: factorhd_core::Scene::single(object) });
//! let output = client.run("zoo", &op)?;
//! assert_eq!(output.kind(), factorhd_engine::OpKind::Encode);
//!
//! client.ping()?;
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
pub mod chaos;
mod client;
mod error;
pub mod metrics;
pub mod protocol;
mod server;

pub use batcher::BatcherConfig;
pub use chaos::{ChaosFault, ChaosProxy};
pub use client::{Client, ClientConfig, RetryPolicy};
pub use error::{ErrorCode, ServeError, WireError, MAX_ERROR_MESSAGE_BYTES};
pub use metrics::{HistogramSummary, ServeMetrics, ServingStats};
pub use protocol::{Request, Response};
pub use server::{Server, ServerConfig};

/// Convenient glob import of the serving front-end types.
pub mod prelude {
    pub use crate::{
        BatcherConfig, ChaosFault, ChaosProxy, Client, ClientConfig, ErrorCode, HistogramSummary,
        Request, Response, RetryPolicy, ServeError, ServeMetrics, Server, ServerConfig,
        ServingStats, WireError,
    };
}
