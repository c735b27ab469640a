//! Fixed-proportion op decks: kinds are dealt from a deck holding each
//! kind a fixed number of times, reshuffled (by the workload seed) each
//! time it runs out. Every aligned run of `deck.len()` draws therefore
//! has exactly the deck's composition, so a batch whose size is a
//! multiple of the deck length — or any window of whole decks — carries
//! the same op mix whatever its size or position.

use rand::seq::SliceRandom;
use rand::Rng;

/// A deck of `K` cards with fixed multiplicities.
#[derive(Debug, Clone)]
pub struct Deck<K> {
    cards: Vec<K>,
}

impl<K: Copy> Deck<K> {
    /// A deck holding each `(kind, count)` pair `count` times.
    ///
    /// # Panics
    ///
    /// On an empty deck (a workload definition bug).
    pub fn new(composition: &[(K, usize)]) -> Self {
        let cards: Vec<K> = composition
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        Deck { cards }
    }

    /// Cards per deck: the stratification period.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// Deals `n` cards: whole shuffled decks back to back, the last one
    /// cut short when `n` is not a multiple of the deck length.
    pub fn deal<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<K> {
        let mut out = Vec::with_capacity(n);
        let mut deck = self.cards.clone();
        while out.len() < n {
            deck.shuffle(rng);
            let take = (n - out.len()).min(deck.len());
            out.extend_from_slice(&deck[..take]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        A,
        B,
        C,
    }

    fn counts(cards: &[Kind]) -> [usize; 3] {
        let mut c = [0; 3];
        for card in cards {
            c[*card as usize] += 1;
        }
        c
    }

    #[test]
    fn every_aligned_block_has_the_deck_composition() {
        let deck = Deck::new(&[(Kind::A, 4), (Kind::B, 2), (Kind::C, 2)]);
        assert_eq!(deck.len(), 8);
        let mut rng = hdc::rng_from_seed(7);
        let cards = deck.deal(8 * 50, &mut rng);
        for block in cards.chunks(8) {
            assert_eq!(counts(block), [4, 2, 2]);
        }
        // A batch of 64 (eight decks) and one of 8 share the same mix.
        for batch in cards.chunks(64) {
            let c = counts(batch);
            assert_eq!(c[0] * 2, c[1] * 4);
            assert_eq!(c[1], c[2]);
        }
    }

    #[test]
    fn order_is_shuffled_and_seed_determined() {
        let deck = Deck::new(&[(Kind::A, 4), (Kind::B, 2), (Kind::C, 2)]);
        let a = deck.deal(800, &mut hdc::rng_from_seed(1));
        let b = deck.deal(800, &mut hdc::rng_from_seed(1));
        let c = deck.deal(800, &mut hdc::rng_from_seed(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Not a fixed rotation: the first card of each deck varies.
        let firsts: std::collections::BTreeSet<Kind> = a.chunks(8).map(|d| d[0]).collect();
        assert_eq!(firsts.len(), 3);
    }

    #[test]
    fn partial_final_deck_is_cut_short() {
        let deck = Deck::new(&[(Kind::A, 3), (Kind::B, 1)]);
        let cards = deck.deal(10, &mut hdc::rng_from_seed(3));
        assert_eq!(cards.len(), 10);
        assert_eq!(counts(&cards[..8]), [6, 2, 0]);
    }
}
