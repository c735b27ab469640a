//! # factorhd — facade crate for the FactorHD reproduction
//!
//! This crate re-exports the whole public API of the workspace so that
//! downstream users (and the `examples/` binaries) can depend on a single
//! crate:
//!
//! * [`hdc`] — the hyperdimensional-computing substrate (hypervectors,
//!   operators, codebooks).
//! * [`core`] — the paper's contribution: the FactorHD taxonomy encoder and
//!   factorization algorithm.
//! * [`engine`] — the serving layer: typed operations (`FactorizeRep1/2/3`,
//!   `PartialDecode`, `MembershipProbe`, `EncodeScene`) planned into
//!   batches over named, hot-swappable models (`ModelRegistry`), with
//!   memoized label-elimination masks and reconstructions and the
//!   persisted `.fhd` model-artifact format.
//! * [`learn`] — the online learning subsystem: per-class prototype
//!   accumulators ([`learn::PrototypeModel`]), misclassification-driven
//!   retraining, and immutable ternary/packed snapshots
//!   ([`learn::PrototypeSnapshot`]) served through the engine's
//!   `Train`/`Retrain`/`Classify` ops (docs/LEARNING.md).
//! * [`serve`] — the network front end: a threaded TCP server speaking a
//!   length-prefixed, checksummed binary protocol over the typed op API,
//!   with a work-conserving batcher coalescing requests from many
//!   connections into engine batches (docs/SERVING.md, "Network
//!   front end").
//! * [`baselines`] — the comparison systems from the paper's evaluation
//!   (resonator network, IMC stochastic factorizer, class-instance model).
//! * [`neural`] — the simulated ResNet-18 front-end, synthetic RAVEN /
//!   CIFAR datasets, and the end-to-end neuro-symbolic pipeline.
//!
//! # Quickstart
//!
//! ```
//! use factorhd::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A taxonomy with 3 classes, each with 8 top-level items.
//! let taxonomy = TaxonomyBuilder::new(2048)
//!     .class("animal", &[8])
//!     .class("color", &[8])
//!     .class("size", &[8])
//!     .build()?;
//!
//! // Encode one object: animal #3, color #1, size #5.
//! let object = ObjectSpec::new(vec![
//!     Some(ItemPath::new(vec![3])),
//!     Some(ItemPath::new(vec![1])),
//!     Some(ItemPath::new(vec![5])),
//! ]);
//! let encoder = Encoder::new(&taxonomy);
//! let scene = encoder.encode_scene(&Scene::single(object.clone()))?;
//!
//! // Factorize it back.
//! let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
//! let decoded = factorizer.factorize_single(&scene)?;
//! assert_eq!(decoded.object(), &object);
//! # Ok(())
//! # }
//! ```

pub use factorhd_baselines as baselines;
pub use factorhd_core as core;
pub use factorhd_engine as engine;
/// The engine telemetry layer (counters, histograms, stage timing);
/// see docs/OBSERVABILITY.md.
pub use factorhd_engine::metrics;
pub use factorhd_learn as learn;
pub use factorhd_neural as neural;
pub use factorhd_serve as serve;
pub use hdc;

/// One-stop import for the types used in typical FactorHD workflows.
pub mod prelude {
    pub use factorhd_core::{
        ClassDecode, DecodedObject, DecodedScene, Encoder, FactorHdError, FactorizeConfig,
        Factorizer, ItemPath, ObjectSpec, Scene, SceneQuery, Taxonomy, TaxonomyBuilder,
        ThresholdPolicy,
    };
    pub use factorhd_engine::{
        AnyOp, AnyOutput, Classify, EncodeScene, EngineConfig, EngineError, FactorEngine,
        FactorizeRep1, FactorizeRep2, FactorizeRep3, LearnConfig, MembershipProbe, MetricsSnapshot,
        ModelHandle, ModelId, ModelInfo, ModelRegistry, ModelState, Op, OpKind, PartialDecode,
        Retrain, Stage, StageTimer, Train,
    };
    pub use factorhd_serve::{
        BatcherConfig, Client, ServeError, Server, ServerConfig, ServingStats,
    };
    pub use hdc::prelude::*;
}
