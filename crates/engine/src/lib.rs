//! # factorhd-engine — typed, multi-model factorization serving
//!
//! The FactorHD reproduction's serving layer: typed operations over
//! named, hot-swappable models, with per-model setup paid once and
//! batches planned for contiguous packed-shard scans.
//!
//! * **Typed ops** ([`ops`]): one request type per query shape —
//!   [`FactorizeRep1`] / [`FactorizeRep2`] / [`FactorizeRep3`] for the
//!   paper's three representations, [`PartialDecode`],
//!   [`MembershipProbe`], [`EncodeScene`] — each carrying its own output
//!   type, so `engine.run(op)` returns exactly what the op produces
//!   instead of an enum to destructure. Heterogeneous batches travel as
//!   [`AnyOp`] / [`AnyOutput`].
//! * **Online learning** ([`Train`] / [`Retrain`] / [`Classify`], built
//!   on `factorhd-learn`): learnable models carry per-class prototype
//!   accumulators; `Train` bundles labelled examples in, `Retrain` runs
//!   misclassification-driven correction epochs over the replay buffer,
//!   and `Classify` scans a ternary/packed snapshot published
//!   atomically by the registry after every successful training op —
//!   readers never block on a retrain (see docs/LEARNING.md).
//! * **Models** ([`ModelState`] / [`ModelRegistry`]): a model bundles a
//!   taxonomy with its memoized parts (label-elimination masks, shared
//!   codebooks and clauses, the Rep-3 reconstruction memo). A registry
//!   maps [`ModelId`]s to models behind generation-stamped
//!   [`ModelHandle`]s, loaded and **hot-swapped** from `.fhd` artifacts
//!   at runtime — in-flight batches finish on the model they started on.
//! * **The batch planner** ([`FactorEngine::run_mixed`] /
//!   [`ModelRegistry::execute_batch`]): groups heterogeneous ops by
//!   `(model, op kind)` so same-shape work scans each codebook's packed
//!   shard table contiguously (Rep-1/Rep-2 chunks share one table
//!   traversal via `Factorizer::factorize_single_many`), fans the groups
//!   out across the rayon pool, and returns results in request order,
//!   **bit-identical** to a sequential loop.
//! * **Model artifacts** ([`artifact`]): a versioned, checksummed binary
//!   format (`.fhd`) persisting a `Taxonomy` and its codebooks, with
//!   round-trip equality guaranteed — save → load → factorize is
//!   bit-identical to the in-memory model. Version 2 also round-trips
//!   the packed shard tables of installed codebooks, so loaded models
//!   serve word-level scans warm from the first request.
//!
//! # Quickstart
//!
//! ```
//! use factorhd_core::{Encoder, Scene, TaxonomyBuilder};
//! use factorhd_engine::{EngineConfig, FactorEngine, FactorizeRep2};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let taxonomy = TaxonomyBuilder::new(2048)
//!     .class("animal", &[8])
//!     .class("color", &[8])
//!     .build()?;
//! let engine = FactorEngine::new(taxonomy, EngineConfig::default())?;
//!
//! // Persist the model and load it back — bit-identical serving.
//! let mut artifact = Vec::new();
//! engine.save_to(&mut artifact)?;
//! let restored = FactorEngine::load_from(&mut &artifact[..], EngineConfig::default())?;
//!
//! // Typed in, typed out: a Rep-2 factorization returns a DecodedObject.
//! let mut rng = hdc::rng_from_seed(7);
//! let object = engine.taxonomy().sample_object(&mut rng);
//! let hv = Encoder::new(engine.taxonomy()).encode_scene(&Scene::single(object.clone()))?;
//! let decoded = restored.run(&FactorizeRep2 { scene: hv })?;
//! assert_eq!(decoded.object(), &object);
//! # Ok(())
//! # }
//! ```
//!
//! Multiple models side by side, hot-swapped at runtime:
//!
//! ```
//! use factorhd_core::TaxonomyBuilder;
//! use factorhd_engine::{EngineConfig, ModelRegistry, ModelState};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = ModelRegistry::new();
//! let fruit = TaxonomyBuilder::new(1024).seed(1).class("fruit", &[8]).build()?;
//! registry.install("fruit", ModelState::new(fruit, EngineConfig::default())?);
//!
//! let handle = registry.get("fruit")?; // generation-stamped
//! let retrained = TaxonomyBuilder::new(1024).seed(2).class("fruit", &[8]).build()?;
//! registry.install("fruit", ModelState::new(retrained, EngineConfig::default())?); // hot swap
//!
//! // The old handle still serves the model it resolved; new lookups see
//! // the swap.
//! assert_eq!(handle.state().taxonomy().seed(), 1);
//! assert_eq!(registry.get("fruit")?.state().taxonomy().seed(), 2);
//! assert!(registry.get("fruit")?.generation() > handle.generation());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
mod engine;
mod error;
pub mod failpoint;
pub mod metrics;
mod model;
pub mod ops;
mod plan;
mod registry;

pub use cache::{CacheStats, LruCache, ReconCache};
pub use engine::FactorEngine;
pub use error::EngineError;
pub use metrics::{
    set_metrics_recording, HistogramSnapshot, LogHistogram, MetricsSnapshot, ModelMetrics,
    OpKindMetrics, Stage, StageTimer, StageTotal,
};
pub use model::{EngineConfig, ModelState};
pub use ops::{
    AnyOp, AnyOutput, Classify, EncodeScene, FactorizeRep1, FactorizeRep2, FactorizeRep3,
    MembershipProbe, Op, OpKind, PartialDecode, Retrain, Train,
};
pub use registry::{ModelHandle, ModelId, ModelInfo, ModelRegistry};

pub use factorhd_learn::{
    ClassHit, Classification, LearnConfig, LearnError, Learner, PrototypeModel, PrototypeSnapshot,
    RetrainReport, TrainAck,
};

/// Convenient glob import of the serving-engine types.
pub mod prelude {
    pub use crate::{
        AnyOp, AnyOutput, CacheStats, Classify, EncodeScene, EngineConfig, EngineError,
        FactorEngine, FactorizeRep1, FactorizeRep2, FactorizeRep3, LearnConfig, MembershipProbe,
        MetricsSnapshot, ModelHandle, ModelId, ModelInfo, ModelRegistry, ModelState, Op, OpKind,
        PartialDecode, Retrain, Stage, StageTimer, Train,
    };
}
