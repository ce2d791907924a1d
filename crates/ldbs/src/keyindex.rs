//! The one hash index over value keys: GROUP BY's groups, DISTINCT's rows,
//! a DISTINCT aggregate's values and the members of a literal `IN` list.

use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

/// The hasher of a map whose `u64` keys are hashes already: it hands the
/// key back instead of hashing it a second time.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the chains are keyed by u64 hashes only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of keys numbered in insertion order, probed under `total_cmp`
/// equality.
///
/// Keys are bucketed by a hash that is coarser than the relation (`2` and
/// `2.0` share it, NULL has its own) and re-checked inside the bucket in
/// insertion order, so a probe finds the *first* equal key. The hash is
/// seeded per index — rows from other sites reach this code in a
/// coordinator's Q′, so no fixed-seed hash — and computed once per probe.
/// NaN compares `Equal` to every number and fits no bucket: from the first
/// key holding one, every probe scans all keys, which is what the relation
/// then asks for.
///
/// The index stores no key: the caller keeps key `n` where the `stored`
/// closure it passes will find it.
#[derive(Default)]
pub(crate) struct KeyIndex {
    hasher: RandomState,
    /// Hash → first and last key with that hash.
    chains: HashMap<u64, (usize, usize), BuildHasherDefault<PreHashed>>,
    /// `next[i]`: the next key with the same hash as key `i`, if any.
    next: Vec<Option<usize>>,
    /// Set by the first NaN.
    linear: bool,
}

impl KeyIndex {
    /// The bucket of `key`; `None` when a NaN leaves it without one.
    fn hash<K: Borrow<Value>>(&self, key: &[K]) -> Option<u64> {
        let mut hasher = self.hasher.build_hasher();
        key.iter().all(|v| v.borrow().hash_canonical(&mut hasher)).then(|| hasher.finish())
    }

    fn find_hashed<'k, K: Borrow<Value>>(
        &self,
        probe: &[K],
        hash: Option<u64>,
        stored: impl Fn(usize) -> &'k [Value],
    ) -> Option<usize> {
        let equal = |i: &usize| {
            let key = stored(*i);
            key.len() == probe.len()
                && key.iter().zip(probe).all(|(a, b)| a.total_cmp(b.borrow()) == Ordering::Equal)
        };
        match hash.filter(|_| !self.linear) {
            Some(hash) => {
                let head = self.chains.get(&hash).map(|c| c.0);
                std::iter::successors(head, |i| self.next[*i]).find(equal)
            }
            None => (0..self.next.len()).find(equal),
        }
    }

    /// Makes a key of this bucket the next key and returns its number.
    fn insert_hashed(&mut self, hash: Option<u64>) -> usize {
        let n = self.next.len();
        self.next.push(None);
        self.linear |= hash.is_none();
        if let Some(hash) = hash {
            match self.chains.get_mut(&hash) {
                Some((_, last)) => {
                    self.next[*last] = Some(n);
                    *last = n;
                }
                None => {
                    self.chains.insert(hash, (n, n));
                }
            }
        }
        n
    }

    /// The first key equal to `probe`.
    pub(crate) fn find<'k, K: Borrow<Value>>(
        &self,
        probe: &[K],
        stored: impl Fn(usize) -> &'k [Value],
    ) -> Option<usize> {
        self.find_hashed(probe, self.hash(probe), stored)
    }

    /// Makes `key` the next key, whether or not an equal one is there.
    pub(crate) fn insert<K: Borrow<Value>>(&mut self, key: &[K]) -> usize {
        self.insert_hashed(self.hash(key))
    }

    /// `Ok(i)` when key `i` equals `probe`; otherwise `Err(n)`, and `probe`
    /// is now key `n`.
    pub(crate) fn find_or_insert<'k, K: Borrow<Value>>(
        &mut self,
        probe: &[K],
        stored: impl Fn(usize) -> &'k [Value],
    ) -> Result<usize, usize> {
        if probe.is_empty() {
            // An ungrouped aggregate: one key at most, and nothing to hash.
            if !self.next.is_empty() {
                return Ok(0);
            }
            self.next.push(None);
            return Err(0);
        }
        let hash = self.hash(probe);
        match self.find_hashed(probe, hash, stored) {
            Some(i) => Ok(i),
            None => Err(self.insert_hashed(hash)),
        }
    }
}
