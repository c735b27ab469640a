//! Named item memory: a symbol-to-hypervector associative store.
//!
//! The examples and the neuro-symbolic pipeline use this to give
//! human-readable names ("animal", "dog", "spaniel", "Fido") to the vectors
//! of a taxonomy, and to run reverse lookups (cleanup) from a noisy vector
//! back to the closest named symbol.

use crate::{BipolarHv, HdcError, SearchHit, Similarity};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An associative memory mapping symbol names to hypervectors.
///
/// Interior mutability (a [`std::sync::RwLock`]) lets concurrent readers
/// share the memory during parallel experiment trials while new symbols can
/// still be interned on demand.
///
/// ```
/// use hdc::ItemMemory;
/// use rand::SeedableRng;
///
/// let memory = ItemMemory::new(512);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let dog = memory.intern("dog", &mut rng);
/// // Interning again returns the identical vector.
/// assert_eq!(memory.intern("dog", &mut rng), dog);
/// assert_eq!(memory.lookup_best(&dog).unwrap().0, "dog");
/// ```
#[derive(Debug)]
pub struct ItemMemory {
    dim: usize,
    store: RwLock<Store>,
}

#[derive(Debug, Default)]
struct Store {
    names: Vec<String>,
    vectors: Vec<BipolarHv>,
    by_name: HashMap<String, usize>,
}

impl ItemMemory {
    /// Creates an empty memory for vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        ItemMemory {
            dim,
            store: RwLock::new(Store::default()),
        }
    }

    /// Shared access to the store. A panic elsewhere must not take the
    /// memory down with it, so a poisoned lock is recovered.
    fn read(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the store (poisoning recovered, as in
    /// [`ItemMemory::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, Store> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The hypervector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored symbols.
    pub fn len(&self) -> usize {
        self.read().names.len()
    }

    /// `true` if no symbols are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the vector for `name`, creating a fresh random one on first
    /// use. Idempotent per name.
    pub fn intern<R: Rng + ?Sized>(&self, name: &str, rng: &mut R) -> BipolarHv {
        if let Some(v) = self.get(name) {
            return v;
        }
        let mut store = self.write();
        // Double-check under the write lock (another thread may have won).
        if let Some(&idx) = store.by_name.get(name) {
            return store.vectors[idx].clone();
        }
        let v = BipolarHv::random(self.dim, rng);
        let next = store.names.len();
        store.by_name.insert(name.to_owned(), next);
        store.names.push(name.to_owned());
        store.vectors.push(v.clone());
        v
    }

    /// Inserts an explicit vector under `name`, replacing any previous one.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the vector has the wrong
    /// dimension.
    pub fn insert(&self, name: &str, vector: BipolarHv) -> Result<(), HdcError> {
        if vector.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                left: self.dim,
                right: vector.dim(),
            });
        }
        let mut store = self.write();
        if let Some(&idx) = store.by_name.get(name) {
            store.vectors[idx] = vector;
        } else {
            let next = store.names.len();
            store.by_name.insert(name.to_owned(), next);
            store.names.push(name.to_owned());
            store.vectors.push(vector);
        }
        Ok(())
    }

    /// The stored vector for `name`, if present.
    pub fn get(&self, name: &str) -> Option<BipolarHv> {
        let store = self.read();
        store
            .by_name
            .get(name)
            .map(|&idx| store.vectors[idx].clone())
    }

    /// The stored vector for `name`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownSymbol`] if absent.
    pub fn require(&self, name: &str) -> Result<BipolarHv, HdcError> {
        self.get(name)
            .ok_or_else(|| HdcError::UnknownSymbol(name.to_owned()))
    }

    /// Cleanup: the stored symbol most similar to `query`.
    ///
    /// Returns `None` when the memory is empty.
    ///
    /// ```
    /// use hdc::ItemMemory;
    /// use rand::SeedableRng;
    ///
    /// let memory = ItemMemory::new(2048);
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    /// for name in ["cat", "dog", "bird"] {
    ///     memory.intern(name, &mut rng);
    /// }
    /// // A noisy copy of "dog" still cleans up to "dog".
    /// let noisy = memory.get("dog").unwrap().flip_noise(0.2, &mut rng);
    /// let (name, hit) = memory.lookup_best(&noisy).unwrap();
    /// assert_eq!(name, "dog");
    /// assert!(hit.sim > 0.3);
    /// ```
    pub fn lookup_best<Q: Similarity>(&self, query: &Q) -> Option<(String, SearchHit)> {
        let store = self.read();
        let mut best: Option<(usize, f64)> = None;
        for (idx, v) in store.vectors.iter().enumerate() {
            let sim = query.sim_to(v);
            if best.is_none_or(|(_, s)| sim > s) {
                best = Some((idx, sim));
            }
        }
        best.map(|(idx, sim)| (store.names[idx].clone(), SearchHit { index: idx, sim }))
    }

    /// All stored symbol names, in insertion order.
    pub fn names(&self) -> Vec<String> {
        self.read().names.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn intern_is_idempotent() {
        let mem = ItemMemory::new(128);
        let mut rng = rng_from_seed(70);
        let a = mem.intern("cat", &mut rng);
        let b = mem.intern("cat", &mut rng);
        assert_eq!(a, b);
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_vectors() {
        let mem = ItemMemory::new(1024);
        let mut rng = rng_from_seed(71);
        let a = mem.intern("cat", &mut rng);
        let b = mem.intern("dog", &mut rng);
        assert!(a.sim(&b).abs() < 0.2);
    }

    #[test]
    fn lookup_best_recovers_noisy_symbol() {
        let mem = ItemMemory::new(2048);
        let mut rng = rng_from_seed(72);
        for name in ["cat", "dog", "bird", "fish"] {
            mem.intern(name, &mut rng);
        }
        let noisy = mem.get("bird").unwrap().flip_noise(0.25, &mut rng);
        let (name, hit) = mem.lookup_best(&noisy).unwrap();
        assert_eq!(name, "bird");
        assert!(hit.sim > 0.3);
    }

    #[test]
    fn require_unknown_errors() {
        let mem = ItemMemory::new(64);
        assert_eq!(
            mem.require("ghost").unwrap_err(),
            HdcError::UnknownSymbol("ghost".into())
        );
    }

    #[test]
    fn insert_validates_dimension() {
        let mem = ItemMemory::new(64);
        let mut rng = rng_from_seed(73);
        let wrong = BipolarHv::random(65, &mut rng);
        assert!(mem.insert("x", wrong).is_err());
        let right = BipolarHv::random(64, &mut rng);
        assert!(mem.insert("x", right.clone()).is_ok());
        assert_eq!(mem.get("x").unwrap(), right);
    }

    #[test]
    fn insert_replaces() {
        let mem = ItemMemory::new(64);
        let mut rng = rng_from_seed(74);
        let v1 = BipolarHv::random(64, &mut rng);
        let v2 = BipolarHv::random(64, &mut rng);
        mem.insert("x", v1).unwrap();
        mem.insert("x", v2.clone()).unwrap();
        assert_eq!(mem.get("x").unwrap(), v2);
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn empty_lookup_is_none() {
        let mem = ItemMemory::new(64);
        let mut rng = rng_from_seed(75);
        let q = BipolarHv::random(64, &mut rng);
        assert!(mem.lookup_best(&q).is_none());
        assert!(mem.is_empty());
    }

    #[test]
    fn memory_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ItemMemory>();
    }
}
