//! The FactorHD symbolic encoder (§III-A).
//!
//! One object is encoded in *bundling-binding-bundling* form:
//!
//! ```text
//! H = clip(LABEL_1 + a_1 + a_1x + …) ⊙ clip(LABEL_2 + a_2 + …) ⊙ …
//! ```
//!
//! Every class contributes one **clause**: the bundle of its redundant label
//! with the item vectors along the object's subclass path (or with the
//! global NULL vector when the class is absent), clipped to `{-1, 0, 1}`.
//! The clauses of all classes are then bound together. Scenes bundle the
//! object hypervectors without clipping, staying in `Z^D`.
//!
//! The redundant label is the paper's "extra memorization clause": binding a
//! scene with `LABEL_i` collapses class `i`'s clause to a near-constant,
//! which is what makes label-elimination factorization possible.

use crate::{FactorHdError, ItemPath, ObjectSpec, Scene, Taxonomy};
use hdc::{AccumHv, Bind, TernaryHv};

/// Encodes objects and scenes of a [`Taxonomy`] into FactorHD hypervectors.
///
/// ```
/// use factorhd_core::{Encoder, ItemPath, ObjectSpec, Scene, TaxonomyBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let taxonomy = TaxonomyBuilder::new(2048)
///     .class("shape", &[8])
///     .class("color", &[8])
///     .build()?;
/// let encoder = Encoder::new(&taxonomy);
/// let object = ObjectSpec::present(vec![ItemPath::top(3), ItemPath::top(5)]);
/// let hv = encoder.encode_object(&object)?;
/// assert_eq!(hv.dim(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Encoder<'a> {
    taxonomy: &'a Taxonomy,
}

impl<'a> Encoder<'a> {
    /// Creates an encoder over `taxonomy`.
    pub fn new(taxonomy: &'a Taxonomy) -> Self {
        Encoder { taxonomy }
    }

    /// The taxonomy this encoder works over.
    pub fn taxonomy(&self) -> &'a Taxonomy {
        self.taxonomy
    }

    /// Encodes one class clause: `clip(LABEL + Σ path items)` for a present
    /// class, `clip(LABEL + NULL)` for an absent one.
    ///
    /// Delegates to [`Taxonomy::clause`], which bundles and clips the
    /// members word-parallel.
    ///
    /// # Errors
    ///
    /// Propagates path validation errors from the taxonomy.
    pub fn encode_clause(
        &self,
        class: usize,
        assignment: Option<&ItemPath>,
    ) -> Result<TernaryHv, FactorHdError> {
        self.taxonomy.clause(class, assignment)
    }

    /// Encodes a clause from a **raw item vector** instead of a taxonomy
    /// path: `clip(LABEL + item)`. This is how neural query vectors (an
    /// encoded image that matches no codebook entry exactly) enter the
    /// FactorHD representation.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassOutOfBounds`] or
    /// [`FactorHdError::DimensionMismatch`].
    pub fn encode_clause_with_item(
        &self,
        class: usize,
        item: &hdc::BipolarHv,
    ) -> Result<TernaryHv, FactorHdError> {
        if class >= self.taxonomy.num_classes() {
            return Err(FactorHdError::ClassOutOfBounds {
                index: class,
                len: self.taxonomy.num_classes(),
            });
        }
        if item.dim() != self.taxonomy.dim() {
            return Err(FactorHdError::DimensionMismatch {
                expected: self.taxonomy.dim(),
                actual: item.dim(),
            });
        }
        Ok(TernaryHv::clipped_sum(&[self.taxonomy.label(class), item]))
    }

    /// Encodes an object from raw per-class item vectors (`None` = absent
    /// class): the binding of `clip(LABEL_i + item_i)` clauses.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassCountMismatch`] when `items.len()` differs
    /// from the class count, or the conditions of
    /// [`Encoder::encode_clause_with_item`].
    pub fn encode_object_with_items(
        &self,
        items: &[Option<&hdc::BipolarHv>],
    ) -> Result<TernaryHv, FactorHdError> {
        if items.len() != self.taxonomy.num_classes() {
            return Err(FactorHdError::ClassCountMismatch {
                object: items.len(),
                taxonomy: self.taxonomy.num_classes(),
            });
        }
        let mut product: Option<TernaryHv> = None;
        for (class, item) in items.iter().enumerate() {
            let clause = match item {
                Some(item) => self.encode_clause_with_item(class, item)?,
                None => self.encode_clause(class, None)?,
            };
            product = Some(match product {
                None => clause,
                Some(p) => p.bind(&clause),
            });
        }
        Ok(product.expect("taxonomy has at least one class"))
    }

    /// Encodes a full object: the binding of all class clauses.
    ///
    /// Each clause is built word-parallel by [`Taxonomy::clause`] and
    /// bound in with one word-level pass.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::ClassCountMismatch`] or path validation errors.
    pub fn encode_object(&self, object: &ObjectSpec) -> Result<TernaryHv, FactorHdError> {
        self.taxonomy.validate_object(object)?;
        let mut product: Option<TernaryHv> = None;
        for (class, assignment) in object.assignments().iter().enumerate() {
            let clause = self.taxonomy.clause(class, assignment.as_ref())?;
            product = Some(match product {
                None => clause,
                Some(p) => p.bind(&clause),
            });
        }
        Ok(product.expect("taxonomy has at least one class"))
    }

    /// Encodes a scene: the integer bundle of its object hypervectors.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::EmptyScene`] for a scene without objects, plus any
    /// object encoding error.
    pub fn encode_scene(&self, scene: &Scene) -> Result<AccumHv, FactorHdError> {
        if scene.is_empty() {
            return Err(FactorHdError::EmptyScene);
        }
        let mut acc = AccumHv::zeros(self.taxonomy.dim());
        for object in scene.objects() {
            let hv = self.encode_object(object)?;
            acc.add_ternary(&hv, 1);
        }
        Ok(acc)
    }

    /// Encodes an object the way a **class–class model would** (no label
    /// clause, bare item binding): `a_1 ⊙ a_2 ⊙ …`, with NULL for absent
    /// classes and the *deepest* path item per class. Used by the ablation
    /// bench to show what the redundant-label clause buys.
    ///
    /// # Errors
    ///
    /// Path validation errors.
    pub fn encode_object_unlabelled(
        &self,
        object: &ObjectSpec,
    ) -> Result<hdc::BipolarHv, FactorHdError> {
        self.taxonomy.validate_object(object)?;
        let mut product: Option<hdc::BipolarHv> = None;
        for (class, assignment) in object.assignments().iter().enumerate() {
            let item = match assignment {
                None => self.taxonomy.null_hv().clone(),
                Some(path) => self.taxonomy.item_hv(class, path)?,
            };
            product = Some(match product {
                None => item,
                Some(p) => p.bind(&item),
            });
        }
        Ok(product.expect("taxonomy has at least one class"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;
    use hdc::rng_from_seed;

    fn taxonomy() -> Taxonomy {
        TaxonomyBuilder::new(4096)
            .seed(7)
            .class("animal", &[8, 4])
            .class("color", &[8])
            .class("size", &[8])
            .build()
            .expect("valid taxonomy")
    }

    #[test]
    fn clause_similar_to_all_members() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let path = ItemPath::new(vec![3, 2]);
        let clause = enc.encode_clause(0, Some(&path)).unwrap();
        // label + level-1 item + level-2 item: k = 3, correlation ≈ 0.5.
        let label_sim = clause.sim_bipolar(t.label(0));
        let l1 = t.item_hv(0, &ItemPath::top(3)).unwrap();
        let l2 = t.item_hv(0, &path).unwrap();
        assert!(label_sim > 0.4, "label sim {label_sim}");
        assert!(clause.sim_bipolar(&l1) > 0.4);
        assert!(clause.sim_bipolar(&l2) > 0.4);
        // Unrelated item of the same level is quasi-orthogonal.
        let other = t.item_hv(0, &ItemPath::top(5)).unwrap();
        assert!(clause.sim_bipolar(&other).abs() < 0.1);
    }

    #[test]
    fn absent_clause_bundles_null() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let clause = enc.encode_clause(1, None).unwrap();
        assert!(clause.sim_bipolar(t.null_hv()) > 0.4);
        assert!(clause.sim_bipolar(t.label(1)) > 0.4);
    }

    #[test]
    fn two_member_clause_has_half_density() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let clause = enc.encode_clause(1, Some(&ItemPath::top(0))).unwrap();
        assert!(
            (clause.density() - 0.5).abs() < 0.05,
            "density {}",
            clause.density()
        );
    }

    #[test]
    fn odd_member_clause_is_dense() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        // label + 2 path items = 3 members: no zeros.
        let clause = enc
            .encode_clause(0, Some(&ItemPath::new(vec![1, 1])))
            .unwrap();
        assert_eq!(clause.density(), 1.0);
    }

    #[test]
    fn object_encoding_is_deterministic() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let obj = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![2, 3])),
            Some(ItemPath::top(1)),
            None,
        ]);
        assert_eq!(
            enc.encode_object(&obj).unwrap(),
            enc.encode_object(&obj).unwrap()
        );
    }

    #[test]
    fn distinct_objects_encode_quasi_orthogonally() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let mut rng = rng_from_seed(9);
        let a = enc.encode_object(&t.sample_object(&mut rng)).unwrap();
        let b = enc.encode_object(&t.sample_object(&mut rng)).unwrap();
        assert!(a.sim(&b).abs() < 0.1, "sim {}", a.sim(&b));
    }

    #[test]
    fn label_binding_eliminates_clause() {
        // Binding the object HV with LABEL_j for all j ≠ i leaves a vector
        // still correlated with class i's items — Eq. 1 of the paper.
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let obj = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![2, 3])),
            Some(ItemPath::top(6)),
            Some(ItemPath::top(4)),
        ]);
        let hv = enc.encode_object(&obj).unwrap();
        let unbound: TernaryHv = hv.bind(t.label(1)).bind(t.label(2));
        let target = t.item_hv(0, &ItemPath::top(2)).unwrap();
        let sim = unbound.sim_bipolar(&target);
        // Expected signal = c3 · c2 · c2 = 0.5 · 0.5 · 0.5 = 0.125.
        assert!(sim > 0.08, "signal {sim}");
        let wrong = t.item_hv(0, &ItemPath::top(7)).unwrap();
        assert!(unbound.sim_bipolar(&wrong).abs() < 0.05);
    }

    #[test]
    fn scene_encoding_bundles_objects() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let mut rng = rng_from_seed(10);
        let scene = t.sample_scene(3, true, &mut rng);
        let acc = enc.encode_scene(&scene).unwrap();
        for obj in scene.objects() {
            let hv = enc.encode_object(obj).unwrap();
            // Self-similarity of an object HV equals its density product
            // (here 1 · 0.5 · 0.5 = 0.25); cross-object noise is small.
            assert!(acc.sim_ternary(&hv) > 0.2, "object lost in scene bundle");
        }
    }

    #[test]
    fn empty_scene_errors() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        assert!(matches!(
            enc.encode_scene(&Scene::new(vec![])),
            Err(FactorHdError::EmptyScene)
        ));
    }

    #[test]
    fn duplicate_objects_double_components() {
        // "The problem of 2": FactorHD keeps multiplicity in Z^D.
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let mut rng = rng_from_seed(11);
        let obj = t.sample_object(&mut rng);
        let single = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let double = enc
            .encode_scene(&Scene::new(vec![obj.clone(), obj]))
            .unwrap();
        let mut doubled = single.clone();
        doubled.scale(2);
        assert_eq!(double, doubled);
    }

    #[test]
    fn unlabelled_encoding_matches_cc_product() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let obj = ObjectSpec::present(vec![
            ItemPath::new(vec![1, 2]),
            ItemPath::top(3),
            ItemPath::top(4),
        ]);
        let hv = enc.encode_object_unlabelled(&obj).unwrap();
        let expected = t
            .item_hv(0, &ItemPath::new(vec![1, 2]))
            .unwrap()
            .bind(&t.item_hv(1, &ItemPath::top(3)).unwrap())
            .bind(&t.item_hv(2, &ItemPath::top(4)).unwrap());
        assert_eq!(hv, expected);
    }

    #[test]
    fn clause_with_raw_item_matches_path_clause() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let item = t.item_hv(1, &ItemPath::top(4)).unwrap();
        let via_path = enc.encode_clause(1, Some(&ItemPath::top(4))).unwrap();
        let via_item = enc.encode_clause_with_item(1, &item).unwrap();
        assert_eq!(via_path, via_item);
    }

    #[test]
    fn object_with_raw_items_matches_path_object() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        // Single-level paths so raw items cover the whole clause.
        let obj = ObjectSpec::new(vec![None, Some(ItemPath::top(2)), Some(ItemPath::top(6))]);
        let i1 = t.item_hv(1, &ItemPath::top(2)).unwrap();
        let i2 = t.item_hv(2, &ItemPath::top(6)).unwrap();
        let via_items = enc
            .encode_object_with_items(&[None, Some(&i1), Some(&i2)])
            .unwrap();
        assert_eq!(via_items, enc.encode_object(&obj).unwrap());
    }

    #[test]
    fn raw_item_encoding_validates() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let mut rng = rng_from_seed(33);
        let wrong_dim = hdc::BipolarHv::random(64, &mut rng);
        assert!(enc.encode_clause_with_item(0, &wrong_dim).is_err());
        let ok = hdc::BipolarHv::random(4096, &mut rng);
        assert!(enc.encode_clause_with_item(9, &ok).is_err());
        assert!(enc.encode_object_with_items(&[Some(&ok)]).is_err());
    }

    #[test]
    fn invalid_object_rejected() {
        let t = taxonomy();
        let enc = Encoder::new(&t);
        let bad = ObjectSpec::present(vec![ItemPath::top(99), ItemPath::top(0), ItemPath::top(0)]);
        assert!(enc.encode_object(&bad).is_err());
    }
}
