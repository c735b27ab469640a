//! The multi-model registry: named models, loaded and hot-swapped from
//! `.fhd` artifacts at runtime, served through the typed op API.
//!
//! A [`ModelRegistry`] maps [`ModelId`]s to [`ModelState`]s behind
//! generation-stamped handles. Installing over an existing id is a
//! **hot swap**: the registry's clock advances and new lookups see the
//! new state, while in-flight work keeps its [`ModelHandle`]'s `Arc` to
//! the old state alive until it finishes — no lock is held during
//! serving, so a swap never blocks or corrupts a running batch.

use crate::metrics::{self, MetricsSnapshot};
use crate::ops::{AnyOp, AnyOutput, Op, OpKind};
use crate::plan::execute_batch_planned;
use crate::{EngineConfig, EngineError, ModelState};
use std::collections::HashMap;
use std::fmt;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The name of a registered model — a cheap-to-clone interned string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(Arc<str>);

impl ModelId {
    /// Creates an id from any string-like value.
    pub fn new(id: impl AsRef<str>) -> Self {
        ModelId(Arc::from(id.as_ref()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ModelId {
    fn from(id: &str) -> Self {
        ModelId::new(id)
    }
}

impl From<String> for ModelId {
    fn from(id: String) -> Self {
        ModelId::new(id)
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A generation-stamped reference to one registered model.
///
/// The handle owns an `Arc` to the state it resolved, so it keeps
/// serving that exact model even if the registry hot-swaps the id —
/// in-flight batches finish on the model they started on. Compare
/// [`ModelHandle::generation`] against
/// [`ModelRegistry::generation_of`] to detect that a newer model has
/// been installed.
#[derive(Debug, Clone)]
pub struct ModelHandle {
    id: ModelId,
    state: Arc<ModelState>,
    generation: u64,
}

impl ModelHandle {
    /// The id this handle resolved.
    pub fn id(&self) -> &ModelId {
        &self.id
    }

    /// The resolved model state.
    pub fn state(&self) -> &ModelState {
        &self.state
    }

    /// The resolved state's shared pointer (e.g. to build a
    /// [`crate::FactorEngine`] pinned to this generation).
    pub fn state_arc(&self) -> &Arc<ModelState> {
        &self.state
    }

    /// The registry generation at which this handle's state was
    /// installed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Runs a typed op against this handle's (possibly superseded) state.
    ///
    /// # Errors
    ///
    /// The conditions of [`Op::run`].
    pub fn run<O: Op>(&self, op: &O) -> Result<O::Output, EngineError> {
        let kind = op.kind();
        metrics::record_submitted(kind, 1);
        let started = metrics::now();
        let result = op.run(&self.state);
        if let Some(started) = started {
            metrics::record_op_nanos(kind, started.elapsed().as_nanos() as u64);
        }
        metrics::record_outcomes(kind, result.is_ok() as u64, result.is_err() as u64);
        metrics::record_model_ops(self.generation, 1);
        match kind {
            OpKind::Train | OpKind::Retrain => {
                metrics::record_model_train_ops(self.generation, 1);
            }
            OpKind::Classify => metrics::record_model_classify_ops(self.generation, 1),
            _ => {}
        }
        result
    }
}

/// One row of [`ModelRegistry::models_info`]: a registered model's name
/// and the generation currently installed under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The model's registered id.
    pub name: String,
    /// The generation stamp of the currently-installed state.
    pub generation: u64,
}

struct Entry {
    state: Arc<ModelState>,
    generation: u64,
}

/// Named, hot-swappable models served through the typed op API.
///
/// ```
/// use factorhd_core::TaxonomyBuilder;
/// use factorhd_engine::{EncodeScene, EngineConfig, ModelRegistry, ModelState};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = ModelRegistry::new();
/// let taxonomy = TaxonomyBuilder::new(512).class("shape", &[4]).build()?;
/// registry.install("shapes", ModelState::new(taxonomy, EngineConfig::default())?);
///
/// let mut rng = hdc::rng_from_seed(3);
/// let scene = registry.get("shapes")?.state().taxonomy().sample_scene(1, true, &mut rng);
/// let hv = registry.run("shapes", &EncodeScene { scene })?;
/// assert_eq!(hv.dim(), 512);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<ModelId, Entry>>,
    clock: AtomicU64,
}

impl ModelRegistry {
    /// Shared access to the model table. Each writer changes the table
    /// with a single map operation, so a poisoned lock is recovered.
    fn table(&self) -> RwLockReadGuard<'_, HashMap<ModelId, Entry>> {
        self.models.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the model table (poisoning recovered, as in
    /// [`ModelRegistry::table`]).
    fn table_mut(&self) -> RwLockWriteGuard<'_, HashMap<ModelId, Entry>> {
        self.models.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Installs (or hot-swaps) `state` under `id`, returning the new
    /// generation. Handles resolved before the swap keep serving the old
    /// state; lookups after it see the new one.
    pub fn install(&self, id: impl Into<ModelId>, state: ModelState) -> u64 {
        self.install_shared(id, Arc::new(state))
    }

    /// [`ModelRegistry::install`] for an already-shared state.
    pub fn install_shared(&self, id: impl Into<ModelId>, state: Arc<ModelState>) -> u64 {
        let id = id.into();
        // Stamp and insert under the same write lock: concurrent installs
        // of one id must commit in generation order, or `generation_of`
        // could move backwards while an older state wins the slot.
        let mut guard = self.table_mut();
        let generation = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        guard.insert(id, Entry { state, generation });
        generation
    }

    /// Loads a `.fhd` artifact at `path` and installs it under `id`.
    ///
    /// # Errors
    ///
    /// The conditions of [`ModelState::load`]; on error the registry is
    /// unchanged (a failed load never evicts the model it would have
    /// replaced).
    pub fn load(
        &self,
        id: impl Into<ModelId>,
        path: impl AsRef<Path>,
        config: EngineConfig,
    ) -> Result<u64, EngineError> {
        Ok(self.install(id, ModelState::load(path, config)?))
    }

    /// Loads `.fhd` bytes from `reader` and installs them under `id`.
    ///
    /// # Errors
    ///
    /// The conditions of [`ModelState::load_from`]; on error the registry
    /// is unchanged.
    pub fn load_from<R: Read>(
        &self,
        id: impl Into<ModelId>,
        reader: &mut R,
        config: EngineConfig,
    ) -> Result<u64, EngineError> {
        Ok(self.install(id, ModelState::load_from(reader, config)?))
    }

    /// Removes `id`, returning whether it was present. In-flight handles
    /// keep their state alive; only new lookups fail.
    pub fn remove(&self, id: &str) -> bool {
        self.table_mut().remove(&ModelId::new(id)).is_some()
    }

    /// Resolves `id` to a generation-stamped handle.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] when `id` is not installed.
    pub fn get(&self, id: &str) -> Result<ModelHandle, EngineError> {
        let key = ModelId::new(id);
        let guard = self.table();
        match guard.get(&key) {
            Some(entry) => Ok(ModelHandle {
                id: key,
                state: Arc::clone(&entry.state),
                generation: entry.generation,
            }),
            None => {
                let mut registered: Vec<String> =
                    guard.keys().map(|k| k.as_str().to_owned()).collect();
                registered.sort();
                Err(EngineError::UnknownModel {
                    name: id.to_owned(),
                    registered,
                })
            }
        }
    }

    /// Re-snapshots `id`'s staged prototypes and hot-swaps the published
    /// state, returning the generation now installed. Readers keep
    /// scanning the old snapshot until the swap commits — they never
    /// block on an in-progress snapshot build. If a concurrent install
    /// replaced the model while the snapshot was being built, the newer
    /// install wins and its generation is returned unchanged.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] when `id` is not installed,
    /// [`EngineError::NotTrainable`] when it has no learner, or the
    /// conditions of building a snapshot from the staged model.
    pub fn publish_prototypes(&self, id: &str) -> Result<u64, EngineError> {
        // Build the snapshot outside the write lock: binarizing every
        // accumulator is the expensive part and must not stall readers.
        let handle = self.get(id)?;
        let published = match handle.state().publish_prototypes() {
            None => return Err(EngineError::NotTrainable),
            Some(result) => Arc::new(result?),
        };
        let mut guard = self.table_mut();
        match guard.get_mut(&ModelId::new(id)) {
            Some(entry) if Arc::ptr_eq(&entry.state, handle.state_arc()) => {
                let generation = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                entry.state = published;
                entry.generation = generation;
                Ok(generation)
            }
            // A concurrent install won the slot while we snapshotted;
            // the learner is shared, so its next publish will carry any
            // training this snapshot saw — drop ours.
            Some(entry) => Ok(entry.generation),
            None => {
                let mut registered: Vec<String> =
                    guard.keys().map(|k| k.as_str().to_owned()).collect();
                registered.sort();
                Err(EngineError::UnknownModel {
                    name: id.to_owned(),
                    registered,
                })
            }
        }
    }

    /// The generation currently installed under `id`, if any.
    pub fn generation_of(&self, id: &str) -> Option<u64> {
        self.table().get(&ModelId::new(id)).map(|e| e.generation)
    }

    /// The installed ids, sorted.
    pub fn ids(&self) -> Vec<ModelId> {
        let mut ids: Vec<ModelId> = self.table().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Every installed model's name and current generation, sorted by
    /// name — the payload of the wire protocol's `ListModels` op.
    pub fn models_info(&self) -> Vec<ModelInfo> {
        let mut infos: Vec<ModelInfo> = self
            .table()
            .iter()
            .map(|(id, entry)| ModelInfo {
                name: id.as_str().to_owned(),
                generation: entry.generation,
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Number of installed models.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// `true` when no model is installed.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// Runs one typed op against the model currently installed under
    /// `id`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`], or the conditions of [`Op::run`].
    ///
    /// A successful `Train`/`Retrain` auto-publishes a fresh prototype
    /// snapshot under a new generation, so classification lookups that
    /// follow the ack observe the training.
    pub fn run<O: Op>(&self, id: &str, op: &O) -> Result<O::Output, EngineError> {
        let result = self.get(id)?.run(op);
        if result.is_ok() && matches!(op.kind(), OpKind::Train | OpKind::Retrain) {
            // Best-effort: a concurrent remove between run and publish
            // only skips the snapshot, it never fails the op itself.
            let _ = self.publish_prototypes(id);
        }
        result
    }

    /// Executes a heterogeneous multi-model batch: ops are grouped by
    /// `(model, op kind)` so same-shape work scans each model's packed
    /// shards contiguously, then fanned out across the worker pool.
    /// Results come back in input order, **bit-identical** to
    /// [`ModelRegistry::execute_sequential`]. Model resolution is
    /// snapshotted once at entry, so a hot swap mid-batch cannot mix
    /// generations within the batch; ops naming an unknown model fail
    /// individually with [`EngineError::UnknownModel`].
    pub fn execute_batch(&self, ops: &[(ModelId, AnyOp)]) -> Vec<Result<AnyOutput, EngineError>> {
        // Snapshot every distinct id under one read lock.
        let mut slot_of: HashMap<&ModelId, usize> = HashMap::new();
        let mut states: Vec<Option<Arc<ModelState>>> = Vec::new();
        let mut slot_names: Vec<String> = Vec::new();
        let mut slot_generations: Vec<Option<u64>> = Vec::new();
        let mut registered: Vec<String> = Vec::new();
        {
            let guard = self.table();
            for (id, _) in ops {
                if !slot_of.contains_key(id) {
                    slot_of.insert(id, states.len());
                    let entry = guard.get(id);
                    states.push(entry.map(|e| Arc::clone(&e.state)));
                    slot_generations.push(entry.map(|e| e.generation));
                    slot_names.push(id.to_string());
                }
            }
            // Only unknown-model errors name the registered set; snapshot
            // it under the same lock so the error list matches the batch's
            // resolution view.
            if states.iter().any(|s| s.is_none()) {
                registered = guard.keys().map(|k| k.as_str().to_owned()).collect();
                registered.sort();
            }
        }
        let tagged: Vec<(usize, &AnyOp)> = ops.iter().map(|(id, op)| (slot_of[id], op)).collect();
        if metrics::metrics_recording() {
            let mut counts = vec![(0u64, 0u64, 0u64); states.len()];
            for &(slot, op) in &tagged {
                let entry = &mut counts[slot];
                entry.0 += 1;
                match op.kind() {
                    OpKind::Train | OpKind::Retrain => entry.1 += 1,
                    OpKind::Classify => entry.2 += 1,
                    _ => {}
                }
            }
            for (slot, (total, train, classify)) in counts.into_iter().enumerate() {
                if let Some(generation) = slot_generations[slot] {
                    metrics::record_model_ops(generation, total);
                    if train > 0 {
                        metrics::record_model_train_ops(generation, train);
                    }
                    if classify > 0 {
                        metrics::record_model_classify_ops(generation, classify);
                    }
                }
            }
        }
        let results = execute_batch_planned(&tagged, &states, &slot_names, &registered);
        // Auto-publish: every model that absorbed at least one successful
        // Train/Retrain gets a fresh snapshot under a new generation.
        let mut trained = vec![false; states.len()];
        for (&(slot, op), result) in tagged.iter().zip(&results) {
            if matches!(op.kind(), OpKind::Train | OpKind::Retrain) && result.is_ok() {
                trained[slot] = true;
            }
        }
        for (slot, trained) in trained.into_iter().enumerate() {
            if trained {
                let _ = self.publish_prototypes(&slot_names[slot]);
            }
        }
        results
    }

    /// The determinism reference for [`ModelRegistry::execute_batch`]:
    /// one op at a time, each resolved and run on the calling thread.
    pub fn execute_sequential(
        &self,
        ops: &[(ModelId, AnyOp)],
    ) -> Vec<Result<AnyOutput, EngineError>> {
        ops.iter()
            .map(|(id, op)| self.run(id.as_str(), op))
            .collect()
    }

    /// A copy-out of the process-global telemetry tables; the `models`
    /// rows are keyed by the generation stamps this registry issued. See
    /// [`crate::metrics`] and docs/OBSERVABILITY.md.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        metrics::snapshot()
    }
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.ids())
            .field("clock", &self.clock.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{FactorizeRep2, FactorizeRep3};
    use factorhd_core::{Encoder, Scene, Taxonomy, TaxonomyBuilder};

    fn taxonomy(seed: u64) -> Taxonomy {
        TaxonomyBuilder::new(1024)
            .seed(seed)
            .class("animal", &[8, 4])
            .class("color", &[8])
            .build()
            .expect("valid taxonomy")
    }

    fn state(seed: u64) -> ModelState {
        ModelState::new(taxonomy(seed), EngineConfig::default()).expect("valid config")
    }

    #[test]
    fn install_get_remove_round_trip() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        let gen1 = registry.install("a", state(1));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.generation_of("a"), Some(gen1));
        assert_eq!(registry.get("a").unwrap().generation(), gen1);
        assert!(matches!(
            registry.get("missing"),
            Err(EngineError::UnknownModel { name, registered })
                if name == "missing" && registered == vec!["a".to_owned()]
        ));
        assert!(registry.remove("a"));
        assert!(!registry.remove("a"));
        assert!(registry.get("a").is_err());
    }

    #[test]
    fn hot_swap_bumps_generation_and_preserves_old_handles() {
        let registry = ModelRegistry::new();
        let gen1 = registry.install("m", state(10));
        let handle = registry.get("m").expect("installed");
        let old_seed = handle.state().taxonomy().seed();

        let gen2 = registry.install("m", state(11));
        assert!(gen2 > gen1);
        assert_eq!(registry.generation_of("m"), Some(gen2));
        // The pre-swap handle still serves the model it resolved…
        assert_eq!(handle.generation(), gen1);
        assert_eq!(handle.state().taxonomy().seed(), old_seed);
        // …and a fresh lookup sees the new one.
        let fresh = registry.get("m").expect("installed");
        assert_eq!(fresh.state().taxonomy().seed(), 11);
    }

    #[test]
    fn multi_model_batch_matches_sequential_and_isolates_unknowns() {
        let registry = ModelRegistry::new();
        registry.install("left", state(20));
        registry.install("right", state(21));

        let mut ops: Vec<(ModelId, AnyOp)> = Vec::new();
        for (which, seed) in [("left", 30u64), ("right", 31), ("left", 32), ("gone", 33)] {
            let model_taxonomy = taxonomy(if which == "right" { 21 } else { 20 });
            let encoder = Encoder::new(&model_taxonomy);
            let mut rng = hdc::rng_from_seed(seed);
            let object = model_taxonomy.sample_object(&mut rng);
            let hv = encoder.encode_scene(&Scene::single(object)).unwrap();
            ops.push((
                ModelId::new(which),
                AnyOp::Rep2(FactorizeRep2 { scene: hv }),
            ));
        }
        let mut rng = hdc::rng_from_seed(34);
        let scene_taxonomy = taxonomy(21);
        let scene = scene_taxonomy.sample_scene(2, true, &mut rng);
        let hv = Encoder::new(&scene_taxonomy).encode_scene(&scene).unwrap();
        ops.push((
            ModelId::new("right"),
            AnyOp::Rep3(FactorizeRep3 { scene: hv }),
        ));

        let batched = registry.execute_batch(&ops);
        let sequential = registry.execute_sequential(&ops);
        assert_eq!(batched.len(), sequential.len());
        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            match (b, s) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "op {i}"),
                (
                    Err(EngineError::UnknownModel {
                        name: x,
                        registered: rx,
                    }),
                    Err(EngineError::UnknownModel { name: y, .. }),
                ) => {
                    assert_eq!(x, y, "op {i}");
                    assert_eq!(x, "gone");
                    assert_eq!(rx, &["left".to_owned(), "right".to_owned()]);
                }
                other => panic!("op {i}: mismatched results {other:?}"),
            }
        }
        // Exactly the op routed at the missing model failed.
        assert!(batched[3].is_err());
        assert_eq!(batched.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn models_info_lists_names_and_generations_sorted() {
        let registry = ModelRegistry::new();
        let gen_b = registry.install("beta", state(60));
        let gen_a = registry.install("alpha", state(61));
        assert_eq!(
            registry.models_info(),
            vec![
                ModelInfo {
                    name: "alpha".to_owned(),
                    generation: gen_a
                },
                ModelInfo {
                    name: "beta".to_owned(),
                    generation: gen_b
                },
            ]
        );
    }

    #[test]
    fn train_auto_publishes_a_fresh_snapshot_generation() {
        use crate::ops::{Classify, Train};
        use factorhd_learn::LearnConfig;

        let registry = ModelRegistry::new();
        let learnable = ModelState::new_learnable(
            taxonomy(70),
            EngineConfig::default(),
            LearnConfig::new(2, 64),
        )
        .expect("valid learnable state");
        let gen1 = registry.install("tenant", learnable);

        let mut rng = hdc::rng_from_seed(71);
        let mut example = hdc::AccumHv::zeros(64);
        example.add_bipolar(&hdc::BipolarHv::random(64, &mut rng), 1);
        let ack = registry
            .run(
                "tenant",
                &Train {
                    class: 1,
                    sample: 0,
                    example: example.clone(),
                    retain: true,
                },
            )
            .expect("train succeeds");
        assert_eq!(ack.class, 1);
        // The successful Train hot-swapped a republished snapshot…
        let gen2 = registry.generation_of("tenant").expect("still installed");
        assert!(gen2 > gen1);
        // …and a fresh Classify sees the trained prototype.
        let classified = registry
            .run(
                "tenant",
                &Classify {
                    query: example,
                    top_k: 1,
                },
            )
            .expect("classify succeeds");
        assert_eq!(classified.hits[0].class, 1);

        // Untrainable models reject publishing with a typed error.
        registry.install("plain", state(72));
        assert!(matches!(
            registry.publish_prototypes("plain"),
            Err(EngineError::NotTrainable)
        ));
    }

    #[test]
    fn failed_load_leaves_registry_unchanged() {
        let registry = ModelRegistry::new();
        registry.install("m", state(40));
        let before = registry.generation_of("m");
        let garbage = b"not an artifact".to_vec();
        assert!(registry
            .load_from("m", &mut &garbage[..], EngineConfig::default())
            .is_err());
        assert_eq!(registry.generation_of("m"), before);
    }
}
