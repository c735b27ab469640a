//! The FactorHD factorization algorithm (§III-B, Algorithm 1).
//!
//! Factorization works by *label elimination*: binding the scene hypervector
//! with `LABEL_j` for every unselected class `j` collapses those clauses to
//! near-constant masks, leaving a vector still correlated with the selected
//! class's bundled items (Eq. 1 of the paper). From there:
//!
//! * **Rep 1 / Rep 2** (single object): pick the arg-max item per class,
//!   then descend level by level, searching only the children codebook of
//!   each chosen item — `O(Σ M_ℓ)` similarity checks per class instead of
//!   the `M^F` combination scans class–class models need.
//! * **Rep 3** (multiple objects, count unknown): keep every item whose
//!   similarity clears a threshold `TH`, bind candidate items across
//!   classes (one per class), accept combinations whose product similarity
//!   to the scene clears `TH`, reconstruct each accepted object's full
//!   hypervector, subtract it, and loop until nothing clears `TH`. The
//!   subtraction step resolves both the "superposition catastrophe" and
//!   "the problem of 2".

use crate::{Encoder, FactorHdError, ItemPath, ObjectSpec, Scene, Taxonomy, ThresholdPolicy};
use hdc::stage::{Stage, StageTimer};
use hdc::{AccumHv, Bind, BipolarHv, Codebook, CodebookScan, PackedHv, Similarity, TernaryHv};
use std::ops::Range;
use std::sync::Arc;

/// Builds the per-class label-elimination masks
/// `unbind_keys[i] = ⊙_{j≠i} LABEL_j`.
///
/// The masks depend only on the taxonomy, so callers that serve many
/// requests against one taxonomy (e.g. `factorhd-engine`) build them once
/// and hand them to every [`Factorizer::with_parts`] instead of paying the
/// `O(C·D)` rebuild per request.
pub fn build_unbind_keys(taxonomy: &Taxonomy) -> Vec<BipolarHv> {
    let f = taxonomy.num_classes();
    let mut all = BipolarHv::ones(taxonomy.dim());
    for i in 0..f {
        all.bind_assign(taxonomy.label(i));
    }
    (0..f)
        .map(|i| {
            // ⊙_{j≠i} L_j = (⊙_j L_j) ⊙ L_i  (labels are self-inverse).
            all.bind(taxonomy.label(i))
        })
        .collect()
}

/// A pluggable memo for the Rep-3 reconstruct-and-exclude step.
///
/// `factorize_multi` encodes each candidate object for its acceptance
/// test, and subtracts the accepted candidate's encoding from the
/// residual; the encoding depends only on `(taxonomy, object)`, so a
/// serving layer can memoize it across requests. Implementations must
/// return exactly what [`Encoder::encode_object`] would (the factorizer's
/// outputs stay bit-identical with or without a cache). The `Arc` return
/// lets cache hits stay allocation-free.
pub trait ReconstructionCache: Send + Sync {
    /// Returns the clause-product hypervector of `object`, encoding it on
    /// a cache miss.
    ///
    /// # Errors
    ///
    /// Propagates [`Encoder::encode_object`] errors.
    fn get_or_encode(
        &self,
        encoder: &Encoder<'_>,
        object: &ObjectSpec,
    ) -> Result<Arc<TernaryHv>, FactorHdError>;
}

/// Tuning knobs for [`Factorizer`].
///
/// The defaults factorize the paper's Rep-1..Rep-3 settings; construct with
/// struct-update syntax for overrides:
///
/// ```
/// use factorhd_core::{FactorizeConfig, ThresholdPolicy};
/// let config = FactorizeConfig {
///     threshold: ThresholdPolicy::Fixed(0.06),
///     max_objects: 4,
///     ..FactorizeConfig::default()
/// };
/// assert_eq!(config.max_objects, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorizeConfig {
    /// Threshold-similarity policy for multi-object factorization.
    pub threshold: ThresholdPolicy,
    /// Upper bound on objects extracted from one scene (cycle guard).
    pub max_objects: usize,
    /// Beam width for the level-descent over accepted combinations.
    pub beam_width: usize,
    /// Cap on candidate combinations tested per level (guards pathological
    /// threshold settings; exceeding it sets
    /// [`FactorizeStats::truncated_combinations`]).
    pub max_combinations: usize,
    /// Whether to test the global NULL vector as an "absent class"
    /// candidate.
    pub detect_null: bool,
    /// Factorize only this many subclass levels (`None` = all levels).
    pub max_depth: Option<usize>,
    /// Single-object hierarchy refinement width: the top-`refine_width`
    /// level candidates are kept and re-scored with their children's
    /// evidence (cumulative similarity). `1` reproduces the plain greedy
    /// arg-max descent; the default of 4 combines evidence across levels,
    /// which roughly halves the dimension needed for a given Rep-2
    /// accuracy at a cost of `refine_width × M_child` extra similarity
    /// checks per level.
    pub refine_width: usize,
    /// Final acceptance bar for multi-object extraction: a candidate
    /// object is emitted only if its **full clause reconstruction**
    /// explains at least this fraction of one object's expected
    /// self-similarity in the residual. The reconstruction signal is `ρ`
    /// (the clause-density product) for a true object versus at most
    /// `ρ/2` when any single item is wrong, so the default of `0.75`
    /// sits in the middle of a ~16σ margin at the paper's dimensions.
    pub accept_threshold: f64,
}

impl Default for FactorizeConfig {
    fn default() -> Self {
        FactorizeConfig {
            threshold: ThresholdPolicy::default(),
            max_objects: 16,
            beam_width: 8,
            max_combinations: 4096,
            detect_null: true,
            max_depth: None,
            refine_width: 4,
            accept_threshold: 0.75,
        }
    }
}

/// Operation counters collected during factorization; the efficiency
/// comparisons of Fig. 4 report these alongside wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorizeStats {
    /// Item-similarity measurements performed.
    pub similarity_checks: u64,
    /// Candidate combinations bound and tested against the scene.
    pub combination_tests: u64,
    /// Label-unbinding operations on the scene vector.
    pub unbind_ops: u64,
    /// Objects extracted (multi-object factorization only).
    pub objects_found: usize,
    /// Set when the per-level combination cap was hit.
    pub truncated_combinations: bool,
}

/// The factorization of one class: the recovered path (or `None` for an
/// absent class) and the similarity that selected it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecode {
    /// The class index.
    pub class: usize,
    /// Recovered subclass path, `None` when the NULL vector won.
    pub path: Option<ItemPath>,
    /// The winning similarity at the deepest decoded level.
    pub sim: f64,
}

/// A fully factorized object plus its acceptance confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedObject {
    object: ObjectSpec,
    confidence: f64,
}

impl DecodedObject {
    /// The recovered object.
    pub fn object(&self) -> &ObjectSpec {
        &self.object
    }

    /// Consumes the decode, returning the recovered object.
    pub fn into_object(self) -> ObjectSpec {
        self.object
    }

    /// The similarity that accepted this object (combination similarity for
    /// Rep 3, minimum per-class winning similarity for Rep 1/2).
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Reassembles a decode from its parts. Factorization is the only
    /// producer of decodes inside this crate; this constructor exists
    /// for transport layers (e.g. the network protocol) that serialize
    /// a decode on one side and must rebuild the identical value on the
    /// other.
    pub fn from_parts(object: ObjectSpec, confidence: f64) -> Self {
        DecodedObject { object, confidence }
    }
}

/// The result of multi-object factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedScene {
    /// Objects in extraction order (strongest first).
    pub objects: Vec<DecodedObject>,
    /// Operation counters.
    pub stats: FactorizeStats,
    /// Euclidean norm of the residual after all subtractions (≈ 0 when the
    /// scene was fully explained).
    pub residual_norm: f64,
}

impl DecodedScene {
    /// The recovered objects as a [`Scene`].
    pub fn to_scene(&self) -> Scene {
        self.objects.iter().map(|d| d.object.clone()).collect()
    }
}

/// Per-class candidate during Rep-3 combination search.
struct Candidate {
    /// The codebook holding the candidate's current deepest item, and the
    /// item's path as a range of [`Search::paths`]; `None` is the NULL
    /// vector (class absent). The item is borrowed, never copied.
    item: Option<(Arc<Codebook>, Range<usize>)>,
    sim: f64,
}

/// One beam entry: a partial object and its latest combination
/// similarity. Its per-class candidate ids are `f` consecutive entries of
/// [`Search::slots`] from `slots` on.
#[derive(Debug, Clone, Copy)]
struct Combo {
    slots: usize,
    sim: f64,
}

/// The candidates and beam entries of one Algorithm-1 step, kept in flat
/// arenas: a candidate, a child path or an accepted combination is an
/// append, not an allocation of its own. A class's choices in a
/// combination test are a range of candidate ids.
#[derive(Default)]
struct Search {
    /// Every candidate of the step.
    cands: Vec<Candidate>,
    /// The candidates' item paths, back to back.
    paths: Vec<u16>,
    /// The combinations' candidate ids, one per class each.
    slots: Vec<usize>,
}

impl Search {
    /// Appends a candidate for item `index` of `codebook`, one level below
    /// candidate `parent` (`None` at level 1).
    fn push_item(
        &mut self,
        parent: Option<usize>,
        codebook: &Arc<Codebook>,
        index: usize,
        sim: f64,
    ) {
        let start = self.paths.len();
        if let Some(range) = parent.and_then(|id| self.path_range(id)) {
            self.paths.extend_from_within(range);
        }
        self.paths.push(index as u16);
        let item = Some((Arc::clone(codebook), start..self.paths.len()));
        self.cands.push(Candidate { item, sim });
    }

    /// Appends a NULL candidate.
    fn push_null(&mut self, sim: f64) {
        self.cands.push(Candidate { item: None, sim });
    }

    /// Where candidate `id`'s item path sits in `paths` (`None` for NULL).
    fn path_range(&self, id: usize) -> Option<Range<usize>> {
        self.cands[id].item.as_ref().map(|(_, range)| range.clone())
    }

    /// Candidate `id`'s item path (`None` for NULL).
    fn path(&self, id: usize) -> Option<&[u16]> {
        self.path_range(id).map(|range| &self.paths[range])
    }

    /// Candidate `id`'s item vector (`null` for NULL).
    fn item<'s>(&'s self, id: usize, null: &'s BipolarHv) -> &'s BipolarHv {
        match &self.cands[id].item {
            Some((codebook, range)) => codebook.item(self.paths[range.end - 1] as usize),
            None => null,
        }
    }

    /// The candidate ids of `combo`, one per class.
    fn combo_slots(&self, combo: Combo, classes: usize) -> &[usize] {
        &self.slots[combo.slots..combo.slots + classes]
    }
}

/// Factorizes FactorHD scene hypervectors back into objects.
///
/// Borrows the [`Taxonomy`]; cheap to construct (precomputes one label
/// unbind key per class, or reuses keys supplied via
/// [`Factorizer::with_parts`]).
///
/// Every codebook scan — the level-1 arg-max, the hierarchy descent, and
/// the Rep-3 threshold selection — runs on the query packed once into
/// sign-plus-magnitude-planes form ([`hdc::PackedHv::from_accum`], exact
/// for any accumulator) and routes through the codebooks' packed shard
/// tables ([`hdc::CodebookScan`]), with results bit-identical to the
/// scalar reference scans.
///
/// ```
/// use factorhd_core::{Encoder, FactorizeConfig, Factorizer, Scene, TaxonomyBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let taxonomy = TaxonomyBuilder::new(2048)
///     .uniform_classes(3, &[8])
///     .build()?;
/// let mut rng = hdc::rng_from_seed(5);
/// let object = taxonomy.sample_object(&mut rng);
/// let hv = Encoder::new(&taxonomy).encode_scene(&Scene::single(object.clone()))?;
///
/// let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
/// let decoded = factorizer.factorize_single(&hv)?;
/// assert_eq!(decoded.object(), &object);
/// # Ok(())
/// # }
/// ```
pub struct Factorizer<'a> {
    taxonomy: &'a Taxonomy,
    encoder: Encoder<'a>,
    config: FactorizeConfig,
    /// `unbind_keys[i] = ⊙_{j≠i} LABEL_j`.
    unbind_keys: Arc<Vec<BipolarHv>>,
    /// Optional memo for Rep-3 object reconstructions.
    reconstruction: Option<Arc<dyn ReconstructionCache>>,
}

impl<'a> Factorizer<'a> {
    /// Creates a factorizer over `taxonomy` with the given configuration,
    /// building the label-elimination masks from scratch.
    pub fn new(taxonomy: &'a Taxonomy, config: FactorizeConfig) -> Self {
        Factorizer::with_parts(
            taxonomy,
            config,
            Arc::new(build_unbind_keys(taxonomy)),
            None,
        )
        .expect("freshly built keys match the taxonomy")
    }

    /// Creates a factorizer from pre-built parts: memoized label-
    /// elimination masks ([`build_unbind_keys`]) and an optional
    /// [`ReconstructionCache`]. This is the cache-injection entry point
    /// serving layers use to amortize per-taxonomy setup across requests.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::InvalidConfig`] when `unbind_keys` does not match
    /// the taxonomy's class count, or
    /// [`FactorHdError::DimensionMismatch`] when a key has the wrong
    /// dimension.
    pub fn with_parts(
        taxonomy: &'a Taxonomy,
        config: FactorizeConfig,
        unbind_keys: Arc<Vec<BipolarHv>>,
        reconstruction: Option<Arc<dyn ReconstructionCache>>,
    ) -> Result<Self, FactorHdError> {
        if unbind_keys.len() != taxonomy.num_classes() {
            return Err(FactorHdError::InvalidConfig(format!(
                "{} unbind keys supplied for {} classes",
                unbind_keys.len(),
                taxonomy.num_classes()
            )));
        }
        if let Some(bad) = unbind_keys.iter().find(|k| k.dim() != taxonomy.dim()) {
            return Err(FactorHdError::DimensionMismatch {
                expected: taxonomy.dim(),
                actual: bad.dim(),
            });
        }
        Ok(Factorizer {
            taxonomy,
            encoder: Encoder::new(taxonomy),
            config,
            unbind_keys,
            reconstruction,
        })
    }

    /// Encodes `object`'s reconstruction, via the injected cache when one
    /// is present.
    fn reconstruct(&self, object: &ObjectSpec) -> Result<Arc<TernaryHv>, FactorHdError> {
        match &self.reconstruction {
            Some(cache) => cache.get_or_encode(&self.encoder, object),
            None => Ok(Arc::new(self.encoder.encode_object(object)?)),
        }
    }

    /// The taxonomy this factorizer decodes against.
    pub fn taxonomy(&self) -> &'a Taxonomy {
        self.taxonomy
    }

    /// The active configuration.
    pub fn config(&self) -> &FactorizeConfig {
        &self.config
    }

    /// The threshold the configured policy resolves to for this taxonomy.
    pub fn resolved_threshold(&self) -> f64 {
        self.config.threshold.resolve(self.taxonomy)
    }

    fn check_dim(&self, dim: usize) -> Result<(), FactorHdError> {
        if dim != self.taxonomy.dim() {
            return Err(FactorHdError::DimensionMismatch {
                expected: self.taxonomy.dim(),
                actual: dim,
            });
        }
        Ok(())
    }

    fn depth_limit(&self, class: usize) -> usize {
        let levels = self.taxonomy.levels(class);
        self.config.max_depth.map_or(levels, |d| d.min(levels))
    }

    // ------------------------------------------------------------------
    // Single-object factorization (Rep 1 / Rep 2)
    // ------------------------------------------------------------------

    /// Factorizes a single-object hypervector: arg-max item per class, then
    /// hierarchical descent through the subclass levels.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query.
    pub fn factorize_single(&self, hv: &AccumHv) -> Result<DecodedObject, FactorHdError> {
        self.factorize_single_traced(hv).map(|(obj, _)| obj)
    }

    /// [`Factorizer::factorize_single`] plus operation counters.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query.
    pub fn factorize_single_traced(
        &self,
        hv: &AccumHv,
    ) -> Result<(DecodedObject, FactorizeStats), FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        self.check_dim(hv.dim())?;
        let mut stats = FactorizeStats::default();
        let classes: Vec<usize> = (0..self.taxonomy.num_classes()).collect();
        let decodes = self.decode_classes(hv, &classes, &mut stats)?;
        let mut confidence = f64::INFINITY;
        let assignments = decodes
            .into_iter()
            .map(|d| {
                confidence = confidence.min(d.sim);
                d.path
            })
            .collect();
        Ok((
            DecodedObject {
                object: ObjectSpec::new(assignments),
                confidence,
            },
            stats,
        ))
    }

    /// Convenience wrapper factorizing a clipped single-object vector.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query.
    pub fn factorize_ternary(&self, hv: &TernaryHv) -> Result<DecodedObject, FactorHdError> {
        self.factorize_single(&hv.to_accum())
    }

    /// [`Factorizer::factorize_single`] for a whole batch of scenes in one
    /// call, per-query results **bit-identical** to the one-at-a-time
    /// loop.
    ///
    /// The level-1 codebook scans run grouped through
    /// [`hdc::CodebookScan::scan_top_k_many`]: each codebook's packed
    /// shard table is traversed once per batch instead of once per query,
    /// which is what a serving planner buys by grouping requests of the
    /// same kind. A dimension mismatch anywhere in the batch falls back to
    /// the per-query path, still returning one `Result` per input in
    /// input order.
    pub fn factorize_single_many(
        &self,
        hvs: &[&AccumHv],
    ) -> Vec<Result<DecodedObject, FactorHdError>> {
        if hvs.iter().any(|hv| hv.dim() != self.taxonomy.dim()) {
            return self.factorize_single_fallback(hvs);
        }
        let packed: Vec<PackedHv> = hvs.iter().map(|hv| PackedHv::from_accum(hv)).collect();
        match self.decode_singles_grouped(&packed) {
            Ok(decoded) => decoded.into_iter().map(Ok).collect(),
            // Structurally unreachable for a built taxonomy; fall back so
            // the error lands on the query that caused it.
            Err(_) => self.factorize_single_fallback(hvs),
        }
    }

    /// The per-query reference path of [`Factorizer::factorize_single_many`].
    fn factorize_single_fallback(
        &self,
        hvs: &[&AccumHv],
    ) -> Vec<Result<DecodedObject, FactorHdError>> {
        hvs.iter().map(|hv| self.factorize_single(hv)).collect()
    }

    /// Grouped decode over packed queries: classes in the outer loop, so
    /// each level-1 codebook is scanned once for the whole batch
    /// ([`hdc::CodebookScan::scan_top_k_many`]); the NULL check and the
    /// per-query beam descent reuse the exact per-query code path.
    fn decode_singles_grouped(
        &self,
        queries: &[PackedHv],
    ) -> Result<Vec<DecodedObject>, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        let width = self.config.refine_width.max(1);
        let mut stats = FactorizeStats::default();
        let mut per_query: Vec<Vec<ClassDecode>> = queries
            .iter()
            .map(|_| Vec::with_capacity(self.taxonomy.num_classes()))
            .collect();
        for class in 0..self.taxonomy.num_classes() {
            let unbound: Vec<PackedHv> = queries
                .iter()
                .map(|q| q.bind(&self.unbind_keys[class]))
                .collect();
            let top = self.taxonomy.codebook(class, &[])?;
            let hits_many = PackedHv::scan_top_k_many(&top, &unbound, width);
            for ((q, hits), decodes) in unbound.iter().zip(&hits_many).zip(&mut per_query) {
                decodes.push(self.decode_class_from_hits(q, class, hits, &mut stats)?);
            }
        }
        Ok(per_query
            .into_iter()
            .map(|decodes| {
                let mut confidence = f64::INFINITY;
                let assignments = decodes
                    .into_iter()
                    .map(|d| {
                        confidence = confidence.min(d.sim);
                        d.path
                    })
                    .collect();
                DecodedObject {
                    object: ObjectSpec::new(assignments),
                    confidence,
                }
            })
            .collect())
    }

    /// Membership probe entry point: "does the scene contain an object
    /// with these `(class, item path)` constraints, with `absent` classes
    /// NULL?" — a [`crate::SceneQuery`] built and evaluated in one call,
    /// so serving layers have a single factorizer-level entry per query
    /// shape.
    ///
    /// # Errors
    ///
    /// The conditions of [`crate::SceneQuery::with_item`] /
    /// [`crate::SceneQuery::with_absent`] / [`crate::SceneQuery::evaluate`].
    pub fn evaluate_membership(
        &self,
        scene: &AccumHv,
        items: &[(usize, ItemPath)],
        absent: &[usize],
    ) -> Result<crate::QueryAnswer, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        let mut query = crate::SceneQuery::new(self.taxonomy);
        for (class, path) in items {
            query = query.with_item(*class, path.clone())?;
        }
        for &class in absent {
            query = query.with_absent(class)?;
        }
        query.evaluate(scene)
    }

    /// **Partial factorization**: decodes only `classes`, skipping all
    /// similarity work for the rest — the capability the paper contrasts
    /// with C-C models' mandatory full factorization.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] or
    /// [`FactorHdError::ClassOutOfBounds`].
    pub fn factorize_classes(
        &self,
        hv: &AccumHv,
        classes: &[usize],
    ) -> Result<Vec<ClassDecode>, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        self.check_dim(hv.dim())?;
        for &c in classes {
            if c >= self.taxonomy.num_classes() {
                return Err(FactorHdError::ClassOutOfBounds {
                    index: c,
                    len: self.taxonomy.num_classes(),
                });
            }
        }
        let mut stats = FactorizeStats::default();
        self.decode_classes(hv, classes, &mut stats)
    }

    /// Per-class decode: top-`refine_width` candidates at each level,
    /// re-scored by cumulative similarity down the hierarchy (a width-1
    /// beam is the paper's plain greedy arg-max descent; wider beams
    /// combine evidence across levels).
    ///
    /// `hv` is packed once ([`PackedHv::from_accum`]; a single-object
    /// scene packs to one magnitude plane) and every codebook scan runs
    /// on the packed shard tables ([`hdc::CodebookScan`]) — bit-identical
    /// results at popcount speed. Scan hits land in buffers reused across
    /// classes and levels ([`hdc::CodebookScan::scan_top_k_into`]), so a
    /// warm decode's scans allocate nothing.
    fn decode_classes(
        &self,
        hv: &AccumHv,
        classes: &[usize],
        stats: &mut FactorizeStats,
    ) -> Result<Vec<ClassDecode>, FactorHdError> {
        let hv = PackedHv::from_accum(hv);
        let width = self.config.refine_width.max(1);
        let mut result = Vec::with_capacity(classes.len());
        let mut top_hits: Vec<hdc::SearchHit> = Vec::new();
        for &class in classes {
            let unbound = hv.bind(&self.unbind_keys[class]);
            stats.unbind_ops += 1;

            let top = self.taxonomy.codebook(class, &[])?;
            unbound.scan_top_k_into(&top, width, &mut top_hits);
            stats.similarity_checks += top.len() as u64;
            result.push(self.decode_class_from_hits(&unbound, class, &top_hits, stats)?);
        }
        Ok(result)
    }

    /// The per-class decode tail shared by the one-at-a-time and grouped
    /// paths: NULL detection against the level-1 winners, then the beam
    /// descent through the subclass levels. `top_hits` are the query's
    /// level-1 scan results for `class` (already counted in `stats`).
    fn decode_class_from_hits(
        &self,
        unbound: &PackedHv,
        class: usize,
        top_hits: &[hdc::SearchHit],
        stats: &mut FactorizeStats,
    ) -> Result<ClassDecode, FactorHdError> {
        let width = self.config.refine_width.max(1);
        let best_sim = top_hits.first().expect("non-empty codebook").sim;

        if self.config.detect_null {
            let null_sim = unbound.sim_to(self.taxonomy.null_hv());
            stats.similarity_checks += 1;
            if null_sim > best_sim {
                return Ok(ClassDecode {
                    class,
                    path: None,
                    sim: null_sim,
                });
            }
        }

        // Beam over (path, cumulative sim). The beam's paths all have the
        // current depth and sit back to back in one buffer; a level's
        // expansions are (beam entry, child, cumulative sim) triples, and
        // only the survivors' paths are written out. The subclass scans
        // reuse one hits buffer across levels and beam nodes
        // (zero-allocation scans once the thread's scratch is warm).
        let mut depth = 1;
        let mut paths: Vec<u16> = top_hits.iter().map(|hit| hit.index as u16).collect();
        let mut cums: Vec<f64> = top_hits.iter().map(|hit| hit.sim).collect();
        let mut next: Vec<(usize, u16, f64)> = Vec::new();
        let mut child_hits: Vec<hdc::SearchHit> = Vec::new();
        for _level in 1..self.depth_limit(class) {
            next.clear();
            for (entry, (path, cum)) in paths.chunks_exact(depth).zip(&cums).enumerate() {
                let children = self.taxonomy.codebook(class, path)?;
                unbound.scan_top_k_into(&children, width, &mut child_hits);
                stats.similarity_checks += children.len() as u64;
                next.extend(
                    child_hits
                        .iter()
                        .map(|hit| (entry, hit.index as u16, cum + hit.sim)),
                );
            }
            next.sort_by(|a, b| b.2.total_cmp(&a.2));
            next.truncate(width);
            let mut survivors = Vec::with_capacity(next.len() * (depth + 1));
            for &(entry, child, _) in &next {
                survivors.extend_from_slice(&paths[entry * depth..(entry + 1) * depth]);
                survivors.push(child);
            }
            paths = survivors;
            cums.clear();
            cums.extend(next.iter().map(|&(_, _, cum)| cum));
            depth += 1;
        }
        Ok(ClassDecode {
            class,
            sim: cums[0] / depth as f64,
            path: Some(ItemPath::new(paths[..depth].to_vec())),
        })
    }

    // ------------------------------------------------------------------
    // Multi-object factorization (Rep 3)
    // ------------------------------------------------------------------

    /// Factorizes a scene with an unknown number of objects: threshold
    /// candidate selection, combination testing, level descent, and the
    /// reconstruct-and-exclude loop of Algorithm 1.
    ///
    /// The scene is packed once into sign-plus-magnitude-planes form
    /// ([`PackedHv::from_accum`]) and the residual never leaves it: each
    /// accepted object's reconstruction is subtracted word-parallel on
    /// the planes ([`PackedHv::sub_ternary`]), and the residual norm is
    /// read from plane popcounts ([`PackedHv::norm`]).
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query. An empty
    /// result (no object cleared `TH`) is returned as a [`DecodedScene`]
    /// with no objects, not as an error.
    pub fn factorize_multi(&self, hv: &AccumHv) -> Result<DecodedScene, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        self.check_dim(hv.dim())?;
        let th = self.resolved_threshold();
        let mut stats = FactorizeStats::default();
        let mut residual = PackedHv::from_accum(hv);
        let mut objects = Vec::new();

        while objects.len() < self.config.max_objects {
            match self.find_one_object(&residual, th, &mut stats)? {
                None => break,
                Some((decoded, reconstruction)) => {
                    residual.sub_ternary(&reconstruction);
                    objects.push(decoded);
                    stats.objects_found += 1;
                }
            }
        }

        Ok(DecodedScene {
            objects,
            stats,
            residual_norm: residual.norm(),
        })
    }

    /// One iteration of the Algorithm-1 loop: find the strongest object in
    /// the packed residual `query`, or `None` when nothing clears `th`.
    /// The accepted object comes back with the reconstruction its
    /// acceptance test scored, ready to subtract.
    ///
    /// The residual holds two planes for a two- or three-object bundle,
    /// one once it is ternary, none once it is fully peeled; the level-1
    /// scans, NULL checks, descent scans, combination tests and the final
    /// acceptance test all run on it directly.
    fn find_one_object(
        &self,
        query: &PackedHv,
        th: f64,
        stats: &mut FactorizeStats,
    ) -> Result<Option<(DecodedObject, Arc<TernaryHv>)>, FactorHdError> {
        let f = self.taxonomy.num_classes();

        // Per-class label elimination (computed once per loop iteration).
        let unbound: Vec<PackedHv> = (0..f)
            .map(|i| {
                stats.unbind_ops += 1;
                query.bind(&self.unbind_keys[i])
            })
            .collect();

        // Level-1 candidate selection per class. Scan hits land in one
        // buffer reused across classes, through the explicitly sequential
        // `_into` route — a planned batch may already be running this
        // whole decode inside a parallel region, and the scan must not
        // fork again under it.
        let mut search = Search::default();
        let mut per_class: Vec<Range<usize>> = Vec::with_capacity(f);
        let mut hits: Vec<hdc::SearchHit> = Vec::new();
        for (class, unbound_class) in unbound.iter().enumerate() {
            let top = self.taxonomy.codebook(class, &[])?;
            unbound_class.scan_above_threshold_into(&top, th, &mut hits);
            stats.similarity_checks += top.len() as u64;
            let first = search.cands.len();
            for hit in &hits {
                search.push_item(None, &top, hit.index, hit.sim);
            }
            if self.config.detect_null {
                let null_sim = unbound_class.sim_to(self.taxonomy.null_hv());
                stats.similarity_checks += 1;
                if null_sim > th {
                    search.push_null(null_sim);
                }
            }
            if search.cands.len() == first {
                return Ok(None);
            }
            search.cands[first..].sort_by(|a, b| b.sim.total_cmp(&a.sim));
            per_class.push(first..search.cands.len());
        }

        // Level-1 combination tests.
        let mut beam = Vec::new();
        self.test_combinations(query, &per_class, th, stats, &mut search, &mut beam);
        if beam.is_empty() {
            return Ok(None);
        }
        beam.truncate(self.config.beam_width);

        // Level descent: refine every refinable class of every beam entry,
        // re-testing combinations at each level.
        let max_depth = (0..f).map(|c| self.depth_limit(c)).max().unwrap_or(1);
        let mut next_beam = Vec::new();
        for level in 1..max_depth {
            next_beam.clear();
            for &combo in &beam {
                if let Some(choices) =
                    self.refine_combo(&unbound, combo, level, th, stats, &mut search)?
                {
                    self.test_combinations(query, &choices, th, stats, &mut search, &mut next_beam);
                }
            }
            if next_beam.is_empty() {
                return Ok(None);
            }
            next_beam.sort_by(|a, b| b.sim.total_cmp(&a.sim));
            next_beam.truncate(self.config.beam_width);
            std::mem::swap(&mut beam, &mut next_beam);
        }

        // Final acceptance: the candidate's full clause reconstruction must
        // explain one object's worth of the residual. A true object scores
        // ~ρ (its density product); any single-item miss scores ≤ ρ/2.
        for combo in beam {
            let assignments: Vec<Option<ItemPath>> = search
                .combo_slots(combo, f)
                .iter()
                .map(|&id| search.path(id).map(|path| ItemPath::new(path.to_vec())))
                .collect();
            let object = ObjectSpec::new(assignments);
            let reconstruction = self.reconstruct(&object)?;
            let rho = reconstruction.density().max(f64::MIN_POSITIVE);
            let accept_sim = query.sim(&PackedHv::from_ternary(&reconstruction)) / rho;
            stats.combination_tests += 1;
            if accept_sim >= self.config.accept_threshold {
                let decoded = DecodedObject {
                    object,
                    confidence: accept_sim,
                };
                return Ok(Some((decoded, reconstruction)));
            }
        }
        Ok(None)
    }

    /// Expands one beam entry one level deeper: the candidate children
    /// of each refinable class (similarity > `th` against that class's
    /// unbound vector), as per-class choices for a combination test, or
    /// `None` when a refinable class has no child above `th`. A class is
    /// refinable when its candidate is an item at depth `level` and the
    /// class has a level below it; any other class keeps its candidate.
    fn refine_combo(
        &self,
        unbound: &[PackedHv],
        combo: Combo,
        level: usize,
        th: f64,
        stats: &mut FactorizeStats,
        search: &mut Search,
    ) -> Result<Option<Vec<Range<usize>>>, FactorHdError> {
        let f = unbound.len();
        let mut choices: Vec<Range<usize>> = Vec::with_capacity(f);
        // One hits buffer reused across classes, scanned through the
        // explicitly sequential `_into` route (see `find_one_object`).
        let mut hits: Vec<hdc::SearchHit> = Vec::new();
        for (class, unbound_class) in unbound.iter().enumerate() {
            let id = search.combo_slots(combo, f)[class];
            let children = match search.path(id) {
                Some(path) if path.len() == level && level < self.depth_limit(class) => {
                    self.taxonomy.codebook(class, path)?
                }
                _ => {
                    // Already at its final level for this class.
                    choices.push(id..id + 1);
                    continue;
                }
            };
            unbound_class.scan_above_threshold_into(&children, th, &mut hits);
            stats.similarity_checks += children.len() as u64;
            if hits.is_empty() {
                return Ok(None);
            }
            let first = search.cands.len();
            for hit in &hits {
                search.push_item(Some(id), &children, hit.index, hit.sim);
            }
            choices.push(first..search.cands.len());
        }
        Ok(Some(choices))
    }

    /// Binds one candidate per class (`per_class[c]` holds class `c`'s
    /// candidate ids) and appends the combinations whose product
    /// similarity to `residual` clears `th` to `out`, sorted by
    /// similarity.
    ///
    /// Each combination is scored in place
    /// ([`PackedHv::sim_to_product`]): the candidates' items are borrowed
    /// from their codebooks and their product is never built, so a
    /// combination test allocates nothing.
    fn test_combinations(
        &self,
        residual: &PackedHv,
        per_class: &[Range<usize>],
        th: f64,
        stats: &mut FactorizeStats,
        search: &mut Search,
        out: &mut Vec<Combo>,
    ) {
        let total: usize = per_class.iter().map(|c| c.len().max(1)).product();
        if total > self.config.max_combinations {
            stats.truncated_combinations = true;
        }

        let null = self.taxonomy.null_hv();
        let first = out.len();
        let mut indices = vec![0usize; per_class.len()];
        let mut tested = 0usize;
        'outer: loop {
            let ids = indices.iter().zip(per_class).map(|(&i, c)| c.start + i);
            let sim = residual.sim_to_product(ids.clone().map(|id| search.item(id, null)));
            stats.combination_tests += 1;
            tested += 1;
            if sim > th {
                out.push(Combo {
                    slots: search.slots.len(),
                    sim,
                });
                search.slots.extend(ids);
            }
            if tested >= self.config.max_combinations {
                break;
            }
            // Advance the mixed-radix index vector.
            for class in (0..indices.len()).rev() {
                indices[class] += 1;
                if indices[class] < per_class[class].len() {
                    continue 'outer;
                }
                indices[class] = 0;
                if class == 0 {
                    break 'outer;
                }
            }
        }
        out[first..].sort_by(|a, b| b.sim.total_cmp(&a.sim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;
    use hdc::rng_from_seed;

    fn flat_taxonomy(f: usize, m: usize, dim: usize) -> Taxonomy {
        TaxonomyBuilder::new(dim)
            .seed(99)
            .uniform_classes(f, &[m])
            .build()
            .expect("valid taxonomy")
    }

    fn deep_taxonomy(dim: usize) -> Taxonomy {
        TaxonomyBuilder::new(dim)
            .seed(101)
            .class("a", &[16, 8])
            .class("b", &[16, 8])
            .class("c", &[16])
            .build()
            .expect("valid taxonomy")
    }

    #[test]
    fn rep1_recovers_single_object() {
        let t = flat_taxonomy(3, 32, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(1);
        for _ in 0..20 {
            let obj = t.sample_object(&mut rng);
            let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
            let decoded = fac.factorize_single(&hv).unwrap();
            assert_eq!(decoded.object(), &obj);
            assert!(decoded.confidence() > 0.05);
        }
    }

    #[test]
    fn rep2_recovers_multi_level_object() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(2);
        for _ in 0..20 {
            let obj = t.sample_object(&mut rng);
            let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
            let decoded = fac.factorize_single(&hv).unwrap();
            assert_eq!(decoded.object(), &obj);
        }
    }

    #[test]
    fn single_detects_null_class() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let obj = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![3, 4])),
            None,
            Some(ItemPath::top(9)),
        ]);
        let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let decoded = fac.factorize_single(&hv).unwrap();
        assert_eq!(decoded.object(), &obj);
    }

    #[test]
    fn partial_factorization_touches_only_selected_classes() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let obj = ObjectSpec::present(vec![
            ItemPath::new(vec![5, 2]),
            ItemPath::new(vec![1, 7]),
            ItemPath::top(11),
        ]);
        let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let decodes = fac.factorize_classes(&hv, &[2]).unwrap();
        assert_eq!(decodes.len(), 1);
        assert_eq!(decodes[0].class, 2);
        assert_eq!(decodes[0].path, Some(ItemPath::top(11)));
        // Partial factorization must cost far fewer similarity checks than
        // the full decode.
        let (_, full_stats) = fac.factorize_single_traced(&hv).unwrap();
        let partial = {
            let mut stats = FactorizeStats::default();
            fac.decode_classes(&hv, &[2], &mut stats).unwrap();
            stats
        };
        assert!(partial.similarity_checks < full_stats.similarity_checks);
    }

    #[test]
    fn factorize_classes_rejects_bad_class() {
        let t = flat_taxonomy(2, 4, 256);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let hv = AccumHv::zeros(256);
        assert!(matches!(
            fac.factorize_classes(&hv, &[5]),
            Err(FactorHdError::ClassOutOfBounds { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let t = flat_taxonomy(2, 4, 256);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let hv = AccumHv::zeros(128);
        assert!(matches!(
            fac.factorize_single(&hv),
            Err(FactorHdError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            fac.factorize_multi(&hv),
            Err(FactorHdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rep3_recovers_two_objects() {
        let t = flat_taxonomy(3, 16, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(3);
        let mut successes = 0;
        for _ in 0..10 {
            let scene = t.sample_scene(2, true, &mut rng);
            let hv = enc.encode_scene(&scene).unwrap();
            let decoded = fac.factorize_multi(&hv).unwrap();
            if decoded.to_scene().same_multiset(&scene) {
                successes += 1;
            }
        }
        assert!(successes >= 9, "only {successes}/10 scenes recovered");
    }

    #[test]
    fn rep3_handles_multi_level_scene() {
        let t = deep_taxonomy(8192);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(4);
        let mut successes = 0;
        for _ in 0..10 {
            let scene = t.sample_scene(2, true, &mut rng);
            let hv = enc.encode_scene(&scene).unwrap();
            let decoded = fac.factorize_multi(&hv).unwrap();
            if decoded.to_scene().same_multiset(&scene) {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 scenes recovered");
    }

    #[test]
    fn rep3_solves_the_problem_of_2() {
        // Two identical objects in one scene must be recovered twice.
        let t = flat_taxonomy(3, 16, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(5);
        let obj = t.sample_object(&mut rng);
        let scene = Scene::new(vec![obj.clone(), obj.clone()]);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert_eq!(decoded.objects.len(), 2, "duplicate object lost");
        assert_eq!(decoded.objects[0].object(), &obj);
        assert_eq!(decoded.objects[1].object(), &obj);
        assert!(
            decoded.residual_norm < 1.0,
            "residual {}",
            decoded.residual_norm
        );
    }

    #[test]
    fn rep3_residual_shrinks_to_zero_on_success() {
        let t = flat_taxonomy(3, 8, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(6);
        let scene = t.sample_scene(2, true, &mut rng);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert!(decoded.to_scene().same_multiset(&scene));
        assert_eq!(decoded.residual_norm, 0.0);
    }

    #[test]
    fn rep3_empty_scene_vector_finds_nothing() {
        let t = flat_taxonomy(3, 8, 2048);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let decoded = fac.factorize_multi(&AccumHv::zeros(2048)).unwrap();
        assert!(decoded.objects.is_empty());
        assert_eq!(decoded.stats.objects_found, 0);
    }

    #[test]
    fn rep3_respects_max_objects() {
        let t = flat_taxonomy(3, 8, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                max_objects: 1,
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(7);
        let scene = t.sample_scene(3, true, &mut rng);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert_eq!(decoded.objects.len(), 1);
    }

    #[test]
    fn rep3_detects_null_classes() {
        let t = flat_taxonomy(3, 16, 8192);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(8);
        let with_null = t.sample_object(&mut rng).with_assignment(1, None);
        let other = t.sample_object(&mut rng);
        let scene = Scene::new(vec![with_null.clone(), other.clone()]);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert!(
            decoded.to_scene().same_multiset(&scene),
            "got {:?}",
            decoded.to_scene()
        );
    }

    #[test]
    fn stats_count_operations() {
        let t = flat_taxonomy(3, 32, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(9);
        let obj = t.sample_object(&mut rng);
        let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
        let (_, stats) = fac.factorize_single_traced(&hv).unwrap();
        // 3 classes × (32 items + 1 null check).
        assert_eq!(stats.similarity_checks, 3 * 33);
        assert_eq!(stats.unbind_ops, 3);
    }

    #[test]
    fn rep1_similarity_cost_is_linear_in_m_not_m_pow_f() {
        let t = flat_taxonomy(3, 64, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(10);
        let obj = t.sample_object(&mut rng);
        let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
        let (_, stats) = fac.factorize_single_traced(&hv).unwrap();
        // F·(M + 1) ≪ M^F: the core efficiency claim.
        assert!(stats.similarity_checks < 64 * 64);
    }

    #[test]
    fn with_parts_validates_keys() {
        let t = flat_taxonomy(3, 8, 512);
        let keys = Arc::new(build_unbind_keys(&t));
        assert!(Factorizer::with_parts(&t, FactorizeConfig::default(), keys, None).is_ok());
        let short = Arc::new(vec![BipolarHv::ones(512)]);
        assert!(matches!(
            Factorizer::with_parts(&t, FactorizeConfig::default(), short, None),
            Err(FactorHdError::InvalidConfig(_))
        ));
        let wrong_dim = Arc::new(vec![BipolarHv::ones(64); 3]);
        assert!(matches!(
            Factorizer::with_parts(&t, FactorizeConfig::default(), wrong_dim, None),
            Err(FactorHdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn with_parts_matches_new() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let plain = Factorizer::new(&t, FactorizeConfig::default());
        let keys = Arc::new(build_unbind_keys(&t));
        let parts =
            Factorizer::with_parts(&t, FactorizeConfig::default(), keys, None).expect("valid");
        let mut rng = rng_from_seed(42);
        for _ in 0..5 {
            let scene = t.sample_scene(2, true, &mut rng);
            let hv = enc.encode_scene(&scene).unwrap();
            assert_eq!(
                plain.factorize_multi(&hv).unwrap(),
                parts.factorize_multi(&hv).unwrap()
            );
        }
    }

    /// A counting pass-through cache: outputs must stay bit-identical and
    /// the cache must actually be consulted.
    struct CountingCache {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl ReconstructionCache for CountingCache {
        fn get_or_encode(
            &self,
            encoder: &Encoder<'_>,
            object: &ObjectSpec,
        ) -> Result<Arc<TernaryHv>, FactorHdError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            encoder.encode_object(object).map(Arc::new)
        }
    }

    #[test]
    fn injected_reconstruction_cache_is_used_and_transparent() {
        let t = flat_taxonomy(3, 8, 4096);
        let enc = Encoder::new(&t);
        let cache = Arc::new(CountingCache {
            calls: std::sync::atomic::AtomicUsize::new(0),
        });
        let cached = Factorizer::with_parts(
            &t,
            FactorizeConfig::default(),
            Arc::new(build_unbind_keys(&t)),
            Some(cache.clone()),
        )
        .expect("valid");
        let plain = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(43);
        let scene = t.sample_scene(2, true, &mut rng);
        let hv = enc.encode_scene(&scene).unwrap();
        assert_eq!(
            plain.factorize_multi(&hv).unwrap(),
            cached.factorize_multi(&hv).unwrap()
        );
        assert!(cache.calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    fn ternary_fast_path_is_bit_identical() {
        // Single-object scenes pack to one magnitude plane (the ternary
        // mask); doubling the scene packs the same pattern onto plane 1
        // and must give identical decodes and stats.
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(44);
        for _ in 0..10 {
            let obj = t.sample_object(&mut rng);
            let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
            let mut doubled = hv.clone();
            doubled.scale(2); // components in {-2, 0, 2}: two planes
            let (fast, fast_stats) = fac.factorize_single_traced(&hv).unwrap();
            let (slow, slow_stats) = fac.factorize_single_traced(&doubled).unwrap();
            // Doubling scales every dot by 2, so sims scale but the argmax
            // ordering — and therefore the decode — is preserved.
            assert_eq!(fast.object(), slow.object());
            assert_eq!(fast_stats, slow_stats);
        }
    }

    #[test]
    fn factorize_single_many_is_bit_identical_to_loop() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(70);
        let hvs: Vec<AccumHv> = (0..9)
            .map(|_| {
                let obj = t.sample_object(&mut rng);
                enc.encode_scene(&Scene::single(obj)).unwrap()
            })
            .collect();
        let refs: Vec<&AccumHv> = hvs.iter().collect();
        let grouped: Vec<DecodedObject> = fac
            .factorize_single_many(&refs)
            .into_iter()
            .map(|r| r.expect("decodes"))
            .collect();
        let singles: Vec<DecodedObject> = hvs
            .iter()
            .map(|hv| fac.factorize_single(hv).expect("decodes"))
            .collect();
        assert_eq!(grouped, singles);
        assert!(fac.factorize_single_many(&[]).is_empty());
    }

    #[test]
    fn factorize_single_many_falls_back_per_query() {
        // A multi-plane accumulator (components outside {-1, 0, 1}) decodes
        // like its one-plane original, and a wrong-dimension query sends
        // the batch down the per-query path: results and errors land on
        // the right inputs.
        let t = flat_taxonomy(3, 8, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(71);
        let obj = t.sample_object(&mut rng);
        let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
        let mut doubled = hv.clone();
        doubled.scale(2);
        let results = fac.factorize_single_many(&[&hv, &doubled]);
        assert_eq!(
            results[0].as_ref().expect("decodes").object(),
            results[1].as_ref().expect("decodes").object()
        );

        let short = AccumHv::zeros(64);
        let mixed = fac.factorize_single_many(&[&hv, &short]);
        assert!(mixed[0].is_ok());
        assert!(matches!(
            mixed[1],
            Err(FactorHdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn evaluate_membership_matches_scene_query() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let obj = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![3, 1])),
            None,
            Some(ItemPath::top(5)),
        ]);
        let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let items = vec![(0usize, ItemPath::new(vec![3, 1]))];
        let absent = vec![1usize];
        let via_factorizer = fac.evaluate_membership(&hv, &items, &absent).unwrap();
        let mut query = crate::SceneQuery::new(&t);
        for (class, path) in &items {
            query = query.with_item(*class, path.clone()).unwrap();
        }
        for &class in &absent {
            query = query.with_absent(class).unwrap();
        }
        assert_eq!(via_factorizer, query.evaluate(&hv).unwrap());
        assert!(via_factorizer.present);
        // Bad class indices surface as typed errors.
        assert!(fac.evaluate_membership(&hv, &[], &[9]).is_err());
    }

    #[test]
    fn resolved_threshold_is_positive_and_below_signal() {
        let t = flat_taxonomy(4, 10, 2000);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let th = fac.resolved_threshold();
        let signal = crate::threshold::expected_signal(&t.clause_sizes());
        assert!(th > 0.0 && th < signal, "th {th} vs signal {signal}");
    }
}
