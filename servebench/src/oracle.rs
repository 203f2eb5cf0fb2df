//! The correctness check: every answer against the centralized oracle
//! (`skyline_probabilities`, Eq. 3 of the paper, by direct O(N²) dominance)
//! on the same data.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use dsud_uncertain::{
    dominates_in, skyline_probabilities, SubspaceMask, UncertainDb, UncertainTuple,
};

use crate::client::Entry;
use crate::workload::Query;

/// Largest difference allowed between a reported probability and the
/// oracle's, and the band around `q` inside which a tuple may be either in
/// or out of an answer (the two sides multiply in different orders).
pub const TOLERANCE: f64 = 1e-9;

/// Oracle skyline probabilities of one dataset, per queried subspace.
pub struct Oracle {
    dims: usize,
    db: UncertainDb,
    /// Tuple position by the bit patterns of its values.
    index: HashMap<Vec<u64>, usize>,
    probs: HashMap<Vec<usize>, Vec<f64>>,
}

fn key(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

impl Oracle {
    /// An oracle over `tuples`.
    pub fn new(dims: usize, tuples: Vec<UncertainTuple>) -> Result<Oracle, String> {
        let db = UncertainDb::from_tuples(dims, tuples).map_err(|e| e.to_string())?;
        let mut index = HashMap::with_capacity(db.len());
        for (i, t) in db.tuples().iter().enumerate() {
            if index.insert(key(t.values()), i).is_some() {
                return Err(
                    "two tuples share their values; the oracle cannot tell them apart".into()
                );
            }
        }
        Ok(Oracle { dims, db, index, probs: HashMap::new() })
    }

    /// Computes the skyline probabilities of every subspace `queries` ask,
    /// once per subspace. With a `cache` directory, probabilities are read
    /// from and written to it; the caller names the directory after
    /// everything the probabilities depend on (the data and the oracle's
    /// own build).
    pub fn prepare<'a>(
        &mut self,
        queries: impl IntoIterator<Item = &'a Query>,
        cache: Option<&Path>,
    ) -> Result<(), String> {
        for q in queries {
            let dims = q.mask_dims(self.dims);
            if self.probs.contains_key(&dims) {
                continue;
            }
            let names: Vec<String> = dims.iter().map(usize::to_string).collect();
            let file = cache.map(|c| c.join(format!("mask-{}.f64", names.join("-"))));
            let cached = file
                .as_deref()
                .and_then(|f| std::fs::read(f).ok())
                .filter(|b| b.len() == 8 * self.db.len());
            let p = match cached {
                Some(bytes) => bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
                None => {
                    let mask = SubspaceMask::from_dims(&dims).map_err(|e| e.to_string())?;
                    let p = skyline_probabilities(&self.db, mask).map_err(|e| e.to_string())?;
                    if let Some(f) = &file {
                        store(f, &p).map_err(|e| format!("cannot cache the oracle: {e}"))?;
                    }
                    p
                }
            };
            self.probs.insert(dims, p);
        }
        Ok(())
    }

    /// The oracle of this data plus `inserts`, for every subspace this one
    /// holds, without another O(N²) pass. Eq. 3's product over a tuple's
    /// dominators splits over any partition of them, so an original
    /// tuple's probability is its old one times the complements of the
    /// inserted tuples that dominate it; an inserted tuple's probability is
    /// computed directly against the union.
    pub fn extended(&self, inserts: &[UncertainTuple]) -> Result<Oracle, String> {
        let mut tuples = self.db.tuples().to_vec();
        tuples.extend(inserts.iter().cloned());
        let mut next = Oracle::new(self.dims, tuples)?;
        for (dims, probs) in &self.probs {
            let mask = SubspaceMask::from_dims(dims).map_err(|e| e.to_string())?;
            let mut p = probs.clone();
            for (pi, t) in p.iter_mut().zip(self.db.tuples()) {
                for l in inserts.iter().filter(|l| dominates_in(l.values(), t.values(), mask)) {
                    *pi *= l.prob().complement();
                }
            }
            for l in inserts {
                p.push(l.prob().get() * next.db.survival_product_in(l.values(), mask));
            }
            next.probs.insert(dims.clone(), p);
        }
        Ok(next)
    }

    /// Checks `answer` to `query`: every entry is a distinct tuple of the
    /// data whose oracle probability is within [`TOLERANCE`] of the reported
    /// one and at least `q`; a full answer holds every tuple at or above
    /// `q`, and a `limit` answer holds `k` of them (or all, if fewer).
    pub fn check(&self, query: &Query, answer: &[Entry]) -> Result<(), String> {
        let dims = query.mask_dims(self.dims);
        let probs = self.probs.get(&dims).ok_or("oracle not prepared for this subspace")?;
        let q = query.q;
        let mut seen = HashSet::new();
        let mut sure = 0;
        for e in answer {
            let &i = self.index.get(&key(&e.values)).ok_or_else(|| {
                format!("{}: answer holds a tuple not in the data: {:?}", query.key(), e.values)
            })?;
            if !seen.insert(i) {
                return Err(format!("{}: tuple {:?} answered twice", query.key(), e.values));
            }
            let p = probs[i];
            if (e.probability - p).abs() > TOLERANCE {
                return Err(format!(
                    "{}: tuple {:?} reported at {} but the oracle says {p}",
                    query.key(),
                    e.values,
                    e.probability
                ));
            }
            if p < q - TOLERANCE {
                return Err(format!("{}: tuple {:?} at {p} is below q", query.key(), e.values));
            }
            sure += usize::from(p >= q + TOLERANCE);
        }
        let must = probs.iter().filter(|&&p| p >= q + TOLERANCE).count();
        let may = probs.iter().filter(|&&p| p >= q - TOLERANCE).count();
        let ok = match query.limit {
            None => sure == must,
            Some(k) => (k.min(must)..=k.min(may)).contains(&answer.len()),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: answer holds {} tuples, the oracle qualifies {must} (limit {:?})",
                query.key(),
                answer.len(),
                query.limit
            ))
        }
    }
}

/// Writes `probs` to `file` through a temporary, so a reader never sees a
/// partial file.
fn store(file: &Path, probs: &[f64]) -> std::io::Result<()> {
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let bytes: Vec<u8> = probs.iter().flat_map(|p| p.to_le_bytes()).collect();
    let tmp = file.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(tmp, file)
}

/// FNV-1a over `bytes`, for naming oracle caches.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_uncertain::{Probability, TupleId};

    fn oracle() -> Oracle {
        // Paper-style toy: (1,1) 0.9 dominates (2,2) 0.8; (3,0.5) 0.6 stands alone.
        let t = |seq, v: [f64; 2], p| {
            UncertainTuple::new(TupleId::new(0, seq), v.to_vec(), Probability::new(p).unwrap())
                .unwrap()
        };
        let mut o = Oracle::new(
            2,
            vec![t(0, [1.0, 1.0], 0.9), t(1, [2.0, 2.0], 0.8), t(2, [3.0, 0.5], 0.6)],
        )
        .unwrap();
        o.prepare([&query(None)], None).unwrap();
        o
    }

    #[test]
    fn an_extended_oracle_matches_a_fresh_one() {
        let mut rng = crate::rng::Rng::derive(5, 5);
        let mut tuple = |seq| {
            let values = vec![rng.unit(), rng.unit(), rng.unit()];
            let p = Probability::new(0.05 + 0.9 * rng.unit()).unwrap();
            UncertainTuple::new(TupleId::new(0, seq), values, p).unwrap()
        };
        let base: Vec<_> = (0..400).map(&mut tuple).collect();
        let inserts: Vec<_> = (400..406).map(&mut tuple).collect();
        let queries = [
            Query { algorithm: "dsud", q: 0.3, subspace: None, limit: None },
            Query { algorithm: "dsud", q: 0.3, subspace: Some(vec![0, 2]), limit: None },
        ];
        let mut old = Oracle::new(3, base.clone()).unwrap();
        old.prepare(&queries, None).unwrap();
        let grown = old.extended(&inserts).unwrap();
        let mut fresh = Oracle::new(3, base.into_iter().chain(inserts).collect()).unwrap();
        fresh.prepare(&queries, None).unwrap();
        for q in &queries {
            let dims = q.mask_dims(3);
            let (a, b) = (&grown.probs[&dims], &fresh.probs[&dims]);
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12));
        }
    }

    fn query(limit: Option<usize>) -> Query {
        Query { algorithm: "edsud", q: 0.5, subspace: None, limit }
    }

    fn entry(values: [f64; 2], probability: f64) -> Entry {
        Entry { values: values.to_vec(), probability }
    }

    #[test]
    fn accepts_the_oracle_answer_in_any_order() {
        let o = oracle();
        let a = [entry([3.0, 0.5], 0.6), entry([1.0, 1.0], 0.9)];
        o.check(&query(None), &a).unwrap();
        o.check(&query(Some(1)), &a[..1]).unwrap();
        o.check(&query(Some(5)), &a).unwrap();
    }

    #[test]
    fn rejects_wrong_answers() {
        let o = oracle();
        let q = query(None);
        // Missing a tuple, a wrong probability, a disqualified tuple, a duplicate.
        assert!(o.check(&q, &[entry([1.0, 1.0], 0.9)]).is_err());
        assert!(o.check(&q, &[entry([1.0, 1.0], 0.9), entry([3.0, 0.5], 0.61)]).is_err());
        let extra = [entry([1.0, 1.0], 0.9), entry([3.0, 0.5], 0.6), entry([2.0, 2.0], 0.08)];
        assert!(o.check(&q, &extra).is_err());
        let twice = [entry([1.0, 1.0], 0.9), entry([1.0, 1.0], 0.9)];
        assert!(o.check(&query(Some(2)), &twice).is_err());
        // A limit answer must be k entries long.
        assert!(o.check(&query(Some(2)), &[entry([1.0, 1.0], 0.9)]).is_err());
    }
}
