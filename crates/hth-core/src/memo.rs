//! A small, fixed-size, process-wide memo for compiled policies.
//!
//! A process runs one policy configuration, occasionally a handful;
//! compiling each once and handing every engine the same `Arc` is what
//! makes `Secpert::new` and `Secpert::restore` cheap. The memo is a
//! short list scanned linearly under a mutex and keyed by the whole
//! configuration, so two configurations that differ in any field —
//! thresholds, trust lists, extra rules — never share an entry.

use std::sync::{Arc, Mutex, PoisonError};

/// Entries kept before the least recently used one is dropped.
const CAPACITY: usize = 8;

/// Most recently used entry last.
pub(crate) struct Memo<K, V> {
    entries: Mutex<Vec<(K, Arc<V>)>>,
}

impl<K: PartialEq + Clone, V> Memo<K, V> {
    pub(crate) const fn new() -> Memo<K, V> {
        Memo { entries: Mutex::new(Vec::new()) }
    }

    /// The value memoized for `key`, built with `build` on a miss. The
    /// lock is held across the build, so concurrent first users of one
    /// key wait for a single build instead of each running their own.
    /// Failed builds are not memoized.
    pub(crate) fn get_or_try_insert<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        // A panicking build leaves the list untouched (it is only
        // changed after a successful build), so a poisoned lock still
        // guards a valid list.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            entries[pos..].rotate_left(1);
            return Ok(Arc::clone(&entries.last().expect("just rotated").1));
        }
        let value = Arc::new(build()?);
        if entries.len() == CAPACITY {
            entries.remove(0);
        }
        entries.push((key.clone(), Arc::clone(&value)));
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_per_key_and_evicts_least_recently_used() {
        let memo: Memo<u32, u32> = Memo::new();
        let builds = std::cell::Cell::new(0);
        let get = |k: u32| {
            *memo
                .get_or_try_insert::<()>(&k, || {
                    builds.set(builds.get() + 1);
                    Ok(k * 10)
                })
                .unwrap()
        };
        assert_eq!(get(1), 10);
        assert_eq!(get(1), 10);
        assert_eq!(builds.get(), 1);
        for k in 2..=CAPACITY as u32 {
            get(k);
        }
        get(1); // refresh 1: key 2 is now least recently used
        get(100); // evicts 2
        get(1);
        assert_eq!(builds.get(), CAPACITY + 1);
        get(2);
        assert_eq!(builds.get(), CAPACITY + 2, "key 2 was evicted and rebuilt");
    }

    #[test]
    fn failed_builds_are_not_memoized() {
        let memo: Memo<u32, u32> = Memo::new();
        assert!(memo.get_or_try_insert(&1, || Err("boom")).is_err());
        assert_eq!(*memo.get_or_try_insert::<&str>(&1, || Ok(7)).unwrap(), 7);
    }
}
