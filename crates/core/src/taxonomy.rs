//! The class–subclass taxonomy: the symbol space FactorHD encodes over.
//!
//! A taxonomy declares `F` classes. Each class `i` owns a fixed *label*
//! hypervector `LABEL_i` and a hierarchy of subclass levels with `M_ℓ` items
//! per level: every level-1 item has its own codebook of level-2 children,
//! and so on (Fig. 1(a) of the paper). A single global `NULL` vector stands
//! in for "this class is not associated with the object".
//!
//! Child codebooks are derived *lazily and deterministically* from the
//! taxonomy seed and the parent path, so a taxonomy with 256 subclasses × 10
//! sub-subclasses (the paper's Rep-2/Rep-3 setting) never materializes more
//! than the codebooks actually touched.

use crate::{FactorHdError, ItemPath, ObjectSpec, Scene};
use hdc::{derive_seed, BipolarHv, Codebook, TernaryHv, DEFAULT_SEED};
use rand::Rng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Domain-separation tags for seed derivation.
const TAG_LABEL: u64 = 0x4C41_4245_4C00_0001;
const TAG_NULL: u64 = 0x4E55_4C4C_0000_0002;
const TAG_CODEBOOK: u64 = 0xC0DE_B00C_0000_0003;

/// Builder for [`Taxonomy`].
///
/// ```
/// use factorhd_core::TaxonomyBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let taxonomy = TaxonomyBuilder::new(1024)
///     .seed(7)
///     .class("animal", &[256, 10]) // 256 subclasses, 10 sub-subclasses each
///     .class("color", &[10])
///     .build()?;
/// assert_eq!(taxonomy.num_classes(), 2);
/// assert_eq!(taxonomy.levels(0), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaxonomyBuilder {
    dim: usize,
    seed: u64,
    classes: Vec<(String, Vec<usize>)>,
}

impl TaxonomyBuilder {
    /// Starts a builder for hypervectors of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        TaxonomyBuilder {
            dim,
            seed: DEFAULT_SEED,
            classes: Vec::new(),
        }
    }

    /// Sets the derivation seed (default: [`hdc::DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declares a class with the given per-level codebook sizes
    /// (`level_sizes[0]` = number of level-1 subclass items, etc.).
    pub fn class(mut self, name: &str, level_sizes: &[usize]) -> Self {
        self.classes.push((name.to_owned(), level_sizes.to_vec()));
        self
    }

    /// Declares `f` identical classes named `c0..c{f-1}`, the flat layout
    /// used by the paper's Rep-1/Rep-3 benchmarks.
    pub fn uniform_classes(mut self, f: usize, level_sizes: &[usize]) -> Self {
        for i in 0..f {
            self.classes.push((format!("c{i}"), level_sizes.to_vec()));
        }
        self
    }

    /// Finalizes the taxonomy.
    ///
    /// # Errors
    ///
    /// * [`FactorHdError::Hdc`] if `dim == 0`.
    /// * [`FactorHdError::NoClasses`] if no class was declared.
    /// * [`FactorHdError::InvalidClassSpec`] if a class has no levels, an
    ///   empty level, or a level too large for `u16` item indices.
    pub fn build(self) -> Result<Taxonomy, FactorHdError> {
        if self.dim == 0 {
            return Err(hdc::HdcError::InvalidDimension(0).into());
        }
        if self.classes.is_empty() {
            return Err(FactorHdError::NoClasses);
        }
        for (name, levels) in &self.classes {
            if levels.is_empty() {
                return Err(FactorHdError::InvalidClassSpec {
                    class: name.clone(),
                    reason: "class must have at least one subclass level".into(),
                });
            }
            if let Some(&bad) = levels.iter().find(|&&m| m == 0) {
                return Err(FactorHdError::InvalidClassSpec {
                    class: name.clone(),
                    reason: format!("level size {bad} must be positive"),
                });
            }
            if let Some(&bad) = levels.iter().find(|&&m| m > u16::MAX as usize) {
                return Err(FactorHdError::InvalidClassSpec {
                    class: name.clone(),
                    reason: format!("level size {bad} exceeds the u16 item-index range"),
                });
            }
        }

        let null = BipolarHv::random(
            self.dim,
            &mut hdc::rng_from_seed(derive_seed(&[self.seed, TAG_NULL])),
        );
        let classes: Vec<ClassInfo> = self
            .classes
            .into_iter()
            .enumerate()
            .map(|(i, (name, level_sizes))| {
                let label_seed = derive_seed(&[self.seed, TAG_LABEL, i as u64]);
                ClassInfo {
                    name,
                    label: BipolarHv::random(self.dim, &mut hdc::rng_from_seed(label_seed)),
                    level_sizes,
                    root: CodebookNode::default(),
                }
            })
            .collect();

        Ok(Taxonomy {
            dim: self.dim,
            seed: self.seed,
            null,
            classes,
            generation: AtomicU64::new(0),
        })
    }
}

struct ClassInfo {
    name: String,
    label: BipolarHv,
    level_sizes: Vec<usize>,
    /// The codebook tree's root: the slot of the level-1 codebook.
    root: CodebookNode,
}

/// The codebook slot of one parent path in a class's codebook tree.
///
/// A warm lookup is a walk of plain loads: one `OnceLock` read per path
/// level, then the slot's two `OnceLock`s. It allocates nothing, hashes
/// nothing and takes no lock. Only a slot that has had a codebook
/// installed ([`Taxonomy::set_codebook`]) takes its own lock, a shared
/// read lock, so concurrent readers of that slot do not exclude each
/// other.
#[derive(Default)]
struct CodebookNode {
    /// The codebook derived from the taxonomy seed, on first use.
    derived: OnceLock<Arc<Codebook>>,
    /// The last codebook installed here, which shadows `derived`; empty
    /// until the first install.
    installed: OnceLock<RwLock<Arc<Codebook>>>,
    /// One slot per item of this slot's codebook, allocated on the first
    /// lookup below it (only where that item has a level below it).
    children: OnceLock<Box<[CodebookNode]>>,
}

impl CodebookNode {
    /// The installed codebook, if any.
    fn installed(&self) -> Option<Arc<Codebook>> {
        let slot = self.installed.get()?;
        Some(Arc::clone(
            &slot.read().unwrap_or_else(PoisonError::into_inner),
        ))
    }

    /// Appends this subtree's installed codebooks to `out`, in
    /// `(class, parent path)` order: a slot before its children, children
    /// by index.
    fn collect_installed(
        &self,
        class: usize,
        path: &mut Vec<u16>,
        out: &mut Vec<(usize, Vec<u16>, Arc<Codebook>)>,
    ) {
        if let Some(cb) = self.installed() {
            out.push((class, path.clone(), cb));
        }
        for (index, child) in self.children.get().into_iter().flatten().enumerate() {
            path.push(index as u16);
            child.collect_installed(class, path, out);
            path.pop();
        }
    }
}

/// The class–subclass symbol space: labels, NULL, and lazily derived item
/// codebooks for every hierarchy level.
///
/// Construct via [`TaxonomyBuilder`]. Cheap to share across threads
/// (`&Taxonomy` is `Send + Sync`). Codebooks live in a per-class tree
/// indexed by item path, so a warm [`Taxonomy::codebook`] lookup
/// allocates nothing and, unless a codebook was installed in its slot,
/// takes no lock.
pub struct Taxonomy {
    dim: usize,
    seed: u64,
    null: BipolarHv,
    classes: Vec<ClassInfo>,
    /// Bumped by every [`Taxonomy::set_codebook`].
    generation: AtomicU64,
}

impl Taxonomy {
    /// The hypervector dimension `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The derivation seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of classes `F`.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Name of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of bounds.
    pub fn class_name(&self, class: usize) -> &str {
        &self.classes[class].name
    }

    /// Number of subclass levels of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of bounds.
    #[inline]
    pub fn levels(&self, class: usize) -> usize {
        self.classes[class].level_sizes.len()
    }

    /// The maximum number of subclass levels over all classes.
    pub fn max_levels(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.level_sizes.len())
            .max()
            .unwrap_or(0)
    }

    /// Codebook size at `level` (0-based) of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` or `level` is out of bounds.
    #[inline]
    pub fn level_size(&self, class: usize, level: usize) -> usize {
        self.classes[class].level_sizes[level]
    }

    /// The `LABEL_i` hypervector of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of bounds.
    #[inline]
    pub fn label(&self, class: usize) -> &BipolarHv {
        &self.classes[class].label
    }

    /// The global NULL hypervector bundled into absent-class clauses.
    #[inline]
    pub fn null_hv(&self) -> &BipolarHv {
        &self.null
    }

    fn check_class(&self, class: usize) -> Result<(), FactorHdError> {
        if class >= self.classes.len() {
            return Err(FactorHdError::ClassOutOfBounds {
                index: class,
                len: self.classes.len(),
            });
        }
        Ok(())
    }

    /// Validates that `path` addresses a real item of class `class`.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassOutOfBounds`] or [`FactorHdError::InvalidPath`].
    pub fn validate_path(&self, class: usize, path: &ItemPath) -> Result<(), FactorHdError> {
        self.check_class(class)?;
        let info = &self.classes[class];
        if path.depth() > info.level_sizes.len() {
            return Err(FactorHdError::InvalidPath {
                class,
                reason: format!(
                    "path depth {} exceeds {} levels",
                    path.depth(),
                    info.level_sizes.len()
                ),
            });
        }
        for (level, &idx) in path.indices().iter().enumerate() {
            if idx as usize >= info.level_sizes[level] {
                return Err(FactorHdError::InvalidPath {
                    class,
                    reason: format!(
                        "index {idx} out of range for level {level} of size {}",
                        info.level_sizes[level]
                    ),
                });
            }
        }
        Ok(())
    }

    /// Validates every assignment of `object` against this taxonomy.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassCountMismatch`] or the path errors of
    /// [`Taxonomy::validate_path`].
    pub fn validate_object(&self, object: &ObjectSpec) -> Result<(), FactorHdError> {
        if object.num_classes() != self.classes.len() {
            return Err(FactorHdError::ClassCountMismatch {
                object: object.num_classes(),
                taxonomy: self.classes.len(),
            });
        }
        for (class, assignment) in object.assignments().iter().enumerate() {
            if let Some(path) = assignment {
                self.validate_path(class, path)?;
            }
        }
        Ok(())
    }

    /// Validates `parent` as a path with a level below it in `class`,
    /// returning that level's declared codebook size.
    fn check_parent(&self, class: usize, parent: &[u16]) -> Result<usize, FactorHdError> {
        self.check_class(class)?;
        let info = &self.classes[class];
        if parent.len() >= info.level_sizes.len() {
            return Err(FactorHdError::InvalidPath {
                class,
                reason: format!(
                    "no level below depth {} (class has {} levels)",
                    parent.len(),
                    info.level_sizes.len()
                ),
            });
        }
        for (level, &idx) in parent.iter().enumerate() {
            if idx as usize >= info.level_sizes[level] {
                return Err(FactorHdError::InvalidPath {
                    class,
                    reason: format!(
                        "parent index {idx} out of range for level {level} of size {}",
                        info.level_sizes[level]
                    ),
                });
            }
        }
        Ok(info.level_sizes[parent.len()])
    }

    /// The codebook slot of a parent path [`Taxonomy::check_parent`] has
    /// validated, allocating the child slots it passes on first use.
    fn node(&self, class: usize, parent: &[u16]) -> &CodebookNode {
        let info = &self.classes[class];
        parent
            .iter()
            .enumerate()
            .fold(&info.root, |node, (level, &index)| {
                let children = node.children.get_or_init(|| {
                    (0..info.level_sizes[level])
                        .map(|_| CodebookNode::default())
                        .collect()
                });
                &children[index as usize]
            })
    }

    /// The codebook of items at the level *below* `parent` in class `class`
    /// (`parent = &[]` gives the level-1 codebook).
    ///
    /// Codebooks are derived deterministically from the seed on first use
    /// and kept; the same `(class, parent)` always yields the same `Arc`
    /// until [`Taxonomy::set_codebook`] installs another. A warm lookup
    /// allocates nothing; it takes no lock unless the slot holds an
    /// installed codebook, which it reads under a shared read lock.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassOutOfBounds`] if `class` is invalid, or
    /// [`FactorHdError::InvalidPath`] if `parent` is not a valid item path
    /// or the class has no level below it.
    pub fn codebook(&self, class: usize, parent: &[u16]) -> Result<Arc<Codebook>, FactorHdError> {
        let m = self.check_parent(class, parent)?;
        let node = self.node(class, parent);
        if let Some(cb) = node.installed() {
            return Ok(cb);
        }
        let derived = node.derived.get_or_init(|| {
            let mut parts = vec![self.seed, TAG_CODEBOOK, class as u64, parent.len() as u64];
            parts.extend(parent.iter().map(|&i| i as u64 + 1));
            Arc::new(Codebook::derive(derive_seed(&parts), m, self.dim))
        });
        Ok(Arc::clone(derived))
    }

    /// Replaces the codebook below `parent` in class `class` with an
    /// explicit one — the hook the neuro-symbolic pipeline uses to install
    /// *trained prototype* vectors in place of random items.
    ///
    /// Installed codebooks are tracked separately from the lazily derived
    /// ones so model artifacts can persist exactly the state that cannot
    /// be re-derived from the seed ([`Taxonomy::codebook_overrides`]).
    ///
    /// # Errors
    ///
    /// The path errors of [`Taxonomy::codebook`], plus
    /// [`FactorHdError::Hdc`] when the codebook's size or dimension does
    /// not match the declared level.
    pub fn set_codebook(
        &self,
        class: usize,
        parent: &[u16],
        codebook: Codebook,
    ) -> Result<(), FactorHdError> {
        // Validate against the *declared* level size — deriving the default
        // codebook just to read its length would waste O(m·D) RNG work per
        // installed override.
        let expected_len = self.check_parent(class, parent)?;
        if codebook.dim() != self.dim {
            return Err(hdc::HdcError::DimensionMismatch {
                left: self.dim,
                right: codebook.dim(),
            }
            .into());
        }
        if codebook.len() != expected_len {
            return Err(FactorHdError::InvalidClassSpec {
                class: self.classes[class].name.clone(),
                reason: format!(
                    "replacement codebook has {} items, level declares {expected_len}",
                    codebook.len()
                ),
            });
        }
        let replacement = Arc::new(codebook);
        let slot = self
            .node(class, parent)
            .installed
            .get_or_init(|| RwLock::new(Arc::clone(&replacement)));
        *slot.write().unwrap_or_else(PoisonError::into_inner) = replacement;
        // Bumped only after the replacement is visible: a reader that
        // observes the new generation also observes the new codebook.
        self.generation.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// A counter incremented by every [`Taxonomy::set_codebook`] call.
    /// External caches keyed on taxonomy-derived values (e.g. the serving
    /// engine's reconstruction memo) compare this against the generation
    /// they were populated at and flush when it moves.
    pub fn codebook_generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The explicitly installed codebooks ([`Taxonomy::set_codebook`]),
    /// sorted by `(class, parent path)` — the part of the taxonomy state
    /// that cannot be re-derived from the seed and therefore must be
    /// persisted by model artifacts.
    pub fn codebook_overrides(&self) -> Vec<(usize, Vec<u16>, Arc<Codebook>)> {
        let mut out = Vec::new();
        for (class, info) in self.classes.iter().enumerate() {
            info.root
                .collect_installed(class, &mut Vec::new(), &mut out);
        }
        out
    }

    /// The clipped clause hypervector of one class:
    /// `clip(LABEL + Σ path items)` for a present assignment,
    /// `clip(LABEL + NULL)` for an absent one (`assignment = None`).
    ///
    /// Built on demand, word-parallel ([`TernaryHv::clipped_sum`]: a
    /// bit-sliced count of the members' sign bits), so a clause always
    /// reflects the taxonomy's current codebooks.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassOutOfBounds`] or the path errors of
    /// [`Taxonomy::validate_path`].
    pub fn clause(
        &self,
        class: usize,
        assignment: Option<&ItemPath>,
    ) -> Result<TernaryHv, FactorHdError> {
        self.check_class(class)?;
        let label = self.label(class);
        let Some(path) = assignment else {
            return Ok(TernaryHv::clipped_sum(&[label, &self.null]));
        };
        self.validate_path(class, path)?;
        let indices = path.indices();
        let codebooks = (0..indices.len())
            .map(|depth| self.codebook(class, &indices[..depth]))
            .collect::<Result<Vec<_>, _>>()?;
        let mut members = Vec::with_capacity(indices.len() + 1);
        members.push(label);
        members.extend(
            codebooks
                .iter()
                .zip(indices)
                .map(|(cb, &index)| cb.item(index as usize)),
        );
        Ok(TernaryHv::clipped_sum(&members))
    }

    /// The item hypervector addressed by `path` in class `class`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Taxonomy::validate_path`].
    pub fn item_hv(&self, class: usize, path: &ItemPath) -> Result<BipolarHv, FactorHdError> {
        self.validate_path(class, path)?;
        let parent = &path.indices()[..path.depth() - 1];
        let cb = self.codebook(class, parent)?;
        Ok(cb.item(path.leaf() as usize).clone())
    }

    /// Samples a uniformly random full-depth object (every class present).
    pub fn sample_object<R: Rng + ?Sized>(&self, rng: &mut R) -> ObjectSpec {
        let paths = self
            .classes
            .iter()
            .map(|info| {
                let indices = info
                    .level_sizes
                    .iter()
                    .map(|&m| rng.gen_range(0..m) as u16)
                    .collect();
                ItemPath::new(indices)
            })
            .collect();
        ObjectSpec::present(paths)
    }

    /// Samples a random object where each class is absent (NULL) with
    /// probability `absent_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `absent_prob` is not within `[0, 1]`.
    pub fn sample_object_with_nulls<R: Rng + ?Sized>(
        &self,
        absent_prob: f64,
        rng: &mut R,
    ) -> ObjectSpec {
        let full = self.sample_object(rng);
        let assignments = full
            .assignments()
            .iter()
            .map(|a| {
                if rng.gen_bool(absent_prob) {
                    None
                } else {
                    a.clone()
                }
            })
            .collect();
        ObjectSpec::new(assignments)
    }

    /// Samples a scene of `n` objects. When `distinct` is set, objects are
    /// pairwise different (needed to isolate accuracy from the
    /// problem-of-2 in some experiments).
    pub fn sample_scene<R: Rng + ?Sized>(&self, n: usize, distinct: bool, rng: &mut R) -> Scene {
        let mut objects: Vec<ObjectSpec> = Vec::with_capacity(n);
        while objects.len() < n {
            let candidate = self.sample_object(rng);
            if distinct && objects.contains(&candidate) {
                continue;
            }
            objects.push(candidate);
        }
        Scene::new(objects)
    }

    /// Total problem size `∏ M_ℓ` over all classes and levels — the paper's
    /// `M^F` x-axis.
    pub fn problem_size(&self) -> f64 {
        self.classes
            .iter()
            .flat_map(|c| c.level_sizes.iter())
            .map(|&m| m as f64)
            .product()
    }

    /// Per-class clause sizes `k_i` = 1 label + `levels` items, the bundle
    /// widths the threshold model needs.
    pub fn clause_sizes(&self) -> Vec<usize> {
        self.classes
            .iter()
            .map(|c| c.level_sizes.len() + 1)
            .collect()
    }
}

impl fmt::Debug for Taxonomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| format!("{}{:?}", c.name, c.level_sizes))
            .collect();
        f.debug_struct("Taxonomy")
            .field("dim", &self.dim)
            .field("classes", &classes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::{rng_from_seed, AccumHv};

    fn small_taxonomy() -> Taxonomy {
        TaxonomyBuilder::new(512)
            .seed(42)
            .class("animal", &[8, 4])
            .class("color", &[8])
            .class("size", &[8])
            .build()
            .expect("valid taxonomy")
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            TaxonomyBuilder::new(0).class("a", &[2]).build(),
            Err(FactorHdError::Hdc(_))
        ));
        assert!(matches!(
            TaxonomyBuilder::new(64).build(),
            Err(FactorHdError::NoClasses)
        ));
        assert!(matches!(
            TaxonomyBuilder::new(64).class("a", &[]).build(),
            Err(FactorHdError::InvalidClassSpec { .. })
        ));
        assert!(matches!(
            TaxonomyBuilder::new(64).class("a", &[3, 0]).build(),
            Err(FactorHdError::InvalidClassSpec { .. })
        ));
        assert!(matches!(
            TaxonomyBuilder::new(64).class("a", &[1 << 17]).build(),
            Err(FactorHdError::InvalidClassSpec { .. })
        ));
    }

    #[test]
    fn uniform_classes_builds_f_copies() {
        let t = TaxonomyBuilder::new(256)
            .uniform_classes(4, &[16])
            .build()
            .unwrap();
        assert_eq!(t.num_classes(), 4);
        for i in 0..4 {
            assert_eq!(t.levels(i), 1);
            assert_eq!(t.level_size(i, 0), 16);
        }
        assert_eq!(t.problem_size(), 16f64.powi(4));
    }

    #[test]
    fn labels_are_distinct_and_deterministic() {
        let t1 = small_taxonomy();
        let t2 = small_taxonomy();
        assert_eq!(t1.label(0), t2.label(0));
        assert_eq!(t1.null_hv(), t2.null_hv());
        assert!(t1.label(0).sim(t1.label(1)).abs() < 0.2);
        assert!(t1.label(0).sim(t1.null_hv()).abs() < 0.2);
    }

    #[test]
    fn codebooks_cached_and_deterministic() {
        let t = small_taxonomy();
        let a = t.codebook(0, &[]).unwrap();
        let b = t.codebook(0, &[]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 8);
        let kids = t.codebook(0, &[3]).unwrap();
        assert_eq!(kids.len(), 4);
        // Distinct parents get distinct codebooks.
        let other_kids = t.codebook(0, &[2]).unwrap();
        assert_ne!(kids.as_ref(), other_kids.as_ref());
    }

    #[test]
    fn codebook_rejects_bad_parent() {
        let t = small_taxonomy();
        assert!(matches!(
            t.codebook(0, &[99]),
            Err(FactorHdError::InvalidPath { .. })
        ));
        // Class 1 has a single level: no level below depth 1.
        assert!(matches!(
            t.codebook(1, &[0]),
            Err(FactorHdError::InvalidPath { .. })
        ));
        assert!(matches!(
            t.codebook(9, &[]),
            Err(FactorHdError::ClassOutOfBounds { .. })
        ));
    }

    #[test]
    fn item_hv_matches_codebook_entry() {
        let t = small_taxonomy();
        let path = ItemPath::new(vec![3, 1]);
        let hv = t.item_hv(0, &path).unwrap();
        let cb = t.codebook(0, &[3]).unwrap();
        assert_eq!(&hv, cb.item(1));
    }

    #[test]
    fn validate_path_bounds() {
        let t = small_taxonomy();
        assert!(t.validate_path(0, &ItemPath::new(vec![7, 3])).is_ok());
        assert!(t.validate_path(0, &ItemPath::new(vec![8])).is_err());
        assert!(t.validate_path(0, &ItemPath::new(vec![0, 0, 0])).is_err());
        assert!(t.validate_path(1, &ItemPath::new(vec![0, 0])).is_err());
    }

    #[test]
    fn validate_object_checks_count_and_paths() {
        let t = small_taxonomy();
        let ok = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![1, 2])),
            None,
            Some(ItemPath::top(5)),
        ]);
        assert!(t.validate_object(&ok).is_ok());
        let short = ObjectSpec::empty(2);
        assert!(matches!(
            t.validate_object(&short),
            Err(FactorHdError::ClassCountMismatch { .. })
        ));
    }

    #[test]
    fn sample_object_is_valid_full_depth() {
        let t = small_taxonomy();
        let mut rng = rng_from_seed(1);
        for _ in 0..20 {
            let obj = t.sample_object(&mut rng);
            t.validate_object(&obj).unwrap();
            assert_eq!(obj.assignment(0).unwrap().depth(), 2);
            assert_eq!(obj.assignment(1).unwrap().depth(), 1);
        }
    }

    #[test]
    fn sample_scene_distinct() {
        let t = small_taxonomy();
        let mut rng = rng_from_seed(2);
        let scene = t.sample_scene(5, true, &mut rng);
        assert_eq!(scene.len(), 5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(scene.objects()[i], scene.objects()[j]);
            }
        }
    }

    #[test]
    fn sample_with_nulls_extremes() {
        let t = small_taxonomy();
        let mut rng = rng_from_seed(3);
        let all_null = t.sample_object_with_nulls(1.0, &mut rng);
        assert!(all_null.assignments().iter().all(|a| a.is_none()));
        let none_null = t.sample_object_with_nulls(0.0, &mut rng);
        assert!(none_null.assignments().iter().all(|a| a.is_some()));
    }

    #[test]
    fn set_codebook_replaces_items() {
        let t = small_taxonomy();
        let replacement = Codebook::derive(0xFEED, 8, 512);
        t.set_codebook(1, &[], replacement.clone()).unwrap();
        let got = t.codebook(1, &[]).unwrap();
        assert_eq!(got.as_ref(), &replacement);
        // item_hv now resolves into the replacement.
        let hv = t.item_hv(1, &ItemPath::top(3)).unwrap();
        assert_eq!(&hv, replacement.item(3));
    }

    #[test]
    fn overrides_track_only_installed_codebooks() {
        let t = small_taxonomy();
        // Lazily derived codebooks are not overrides.
        let _ = t.codebook(0, &[]).unwrap();
        assert!(t.codebook_overrides().is_empty());
        let replacement = Codebook::derive(0xFEED, 8, 512);
        t.set_codebook(1, &[], replacement.clone()).unwrap();
        t.set_codebook(0, &[2], Codebook::derive(0xBEEF, 4, 512))
            .unwrap();
        let overrides = t.codebook_overrides();
        assert_eq!(overrides.len(), 2);
        // (class, parent path) order: (0, [2]) before (1, []).
        assert_eq!((overrides[0].0, overrides[0].1.as_slice()), (0, &[2][..]));
        assert_eq!((overrides[1].0, overrides[1].1.as_slice()), (1, &[][..]));
        assert_eq!(overrides[1].2.as_ref(), &replacement);
    }

    #[test]
    fn overrides_list_in_path_order_with_the_latest_install() {
        let t = small_taxonomy();
        let latest = Codebook::derive(3, 4, 512);
        t.set_codebook(0, &[5], Codebook::derive(1, 4, 512))
            .unwrap();
        t.set_codebook(0, &[2], Codebook::derive(2, 4, 512))
            .unwrap();
        t.set_codebook(0, &[], Codebook::derive(4, 8, 512)).unwrap();
        t.set_codebook(0, &[5], latest.clone()).unwrap();
        let paths: Vec<(usize, Vec<u16>)> = t
            .codebook_overrides()
            .into_iter()
            .map(|(class, parent, _)| (class, parent))
            .collect();
        assert_eq!(paths, vec![(0, vec![]), (0, vec![2]), (0, vec![5])]);
        // A re-install shadows the earlier one, and lookups see it.
        assert_eq!(t.codebook_overrides()[2].2.as_ref(), &latest);
        assert_eq!(t.codebook(0, &[5]).unwrap().as_ref(), &latest);
        assert_eq!(t.codebook_generation(), 4);
        // Untouched siblings still derive from the seed.
        assert_eq!(
            t.codebook(0, &[3]).unwrap().as_ref(),
            small_taxonomy().codebook(0, &[3]).unwrap().as_ref()
        );
    }

    #[test]
    fn clause_matches_clipped_accumulation() {
        let t = small_taxonomy();
        let path = ItemPath::new(vec![3, 1]);
        let a = t.clause(0, Some(&path)).unwrap();
        assert_eq!(a, t.clause(0, Some(&path)).unwrap());
        // Matches the from-scratch construction.
        let mut acc = AccumHv::zeros(512);
        let l1 = t.item_hv(0, &ItemPath::top(3)).unwrap();
        let l2 = t.item_hv(0, &path).unwrap();
        acc.add_bipolar(t.label(0), 1);
        acc.add_bipolar(&l1, 1);
        acc.add_bipolar(&l2, 1);
        assert_eq!(a, acc.clip_ternary());
        // Absent clause bundles NULL.
        let absent = t.clause(1, None).unwrap();
        assert!(absent.sim_bipolar(t.null_hv()) > 0.4);
        // Validation still applies.
        assert!(t.clause(9, None).is_err());
        assert!(t.clause(0, Some(&ItemPath::top(99))).is_err());
    }

    #[test]
    fn clause_reflects_replaced_codebook() {
        let t = small_taxonomy();
        let before = t.clause(1, Some(&ItemPath::top(3))).unwrap();
        let untouched = t.clause(2, Some(&ItemPath::top(0))).unwrap();
        let generation = t.codebook_generation();
        let replacement = Codebook::derive(0xFEED, 8, 512);
        t.set_codebook(1, &[], replacement.clone()).unwrap();
        assert_eq!(t.codebook_generation(), generation + 1);
        let after = t.clause(1, Some(&ItemPath::top(3))).unwrap();
        assert_ne!(before, after, "stale clause served");
        let mut acc = AccumHv::zeros(512);
        acc.add_bipolar(t.label(1), 1);
        acc.add_bipolar(replacement.item(3), 1);
        assert_eq!(after, acc.clip_ternary());
        // Other classes are unaffected.
        assert_eq!(untouched, t.clause(2, Some(&ItemPath::top(0))).unwrap());
    }

    #[test]
    fn concurrent_set_codebook_never_leaves_stale_clause() {
        // Threads hammer `clause()` while the main thread swaps the
        // class's codebook; once the swap is done, the clause must
        // reflect the final replacement.
        let t = small_taxonomy();
        let path = ItemPath::top(3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let _ = t.clause(1, Some(&path)).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for round in 0..50u64 {
                    t.set_codebook(1, &[], Codebook::derive(round, 8, 512))
                        .unwrap();
                }
            });
        });
        // Reference: a fresh taxonomy with the same final override.
        let reference = small_taxonomy();
        reference
            .set_codebook(1, &[], Codebook::derive(49, 8, 512))
            .unwrap();
        assert_eq!(
            t.clause(1, Some(&path)).unwrap(),
            reference.clause(1, Some(&path)).unwrap()
        );
    }

    #[test]
    fn set_codebook_validates_shape() {
        let t = small_taxonomy();
        assert!(t.set_codebook(1, &[], Codebook::derive(1, 7, 512)).is_err());
        assert!(t.set_codebook(1, &[], Codebook::derive(1, 8, 256)).is_err());
        assert!(t.set_codebook(9, &[], Codebook::derive(1, 8, 512)).is_err());
    }

    #[test]
    fn clause_sizes_count_label_plus_levels() {
        let t = small_taxonomy();
        assert_eq!(t.clause_sizes(), vec![3, 2, 2]);
    }

    #[test]
    fn taxonomy_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Taxonomy>();
    }
}
