//! A closed-bucket lock-free hash table over Harris lists, as in the
//! paper's hash benchmark ("a lock-free hash-table based on the Harris
//! lock-free list"). No resizing: the bucket count is fixed at build time,
//! which matches the evaluation's fixed 10K-key configuration.
//!
//! Every operation runs on exactly one bucket list, so the table inherits
//! the list's typed-API port (`st_reclaim::mem`) and its guard
//! requirement wholesale — see [`guard_requirement`].

use crate::list::{self, ListShape};
use st_machine::Cpu;
use st_reclaim::mem::GuardRequirement;
use st_simheap::Heap;
use st_simhtm::Abort;
use stacktrack::{OpMem, Step};
use std::sync::Arc;

/// The table's declared guard requirement: identical to the list's, since
/// each operation is one bucket-list operation.
pub const fn guard_requirement() -> GuardRequirement {
    list::guard_requirement()
}

/// The shared shape of the table: one list shape per bucket.
#[derive(Debug, Clone)]
pub struct HashShape {
    buckets: Arc<Vec<ListShape>>,
}

impl HashShape {
    /// Allocates `buckets` empty bucket lists (untimed; setup).
    pub fn new_untimed(heap: &Heap, buckets: usize) -> Self {
        assert!(buckets > 0);
        let shapes = (0..buckets).map(|_| ListShape::new_untimed(heap)).collect();
        Self {
            buckets: Arc::new(shapes),
        }
    }

    /// The bucket a key hashes to.
    pub fn bucket_of(&self, key: u64) -> ListShape {
        let h = key.wrapping_mul(0x9e3779b97f4a7c15);
        self.buckets[(h >> 33) as usize % self.buckets.len()]
    }

    /// Inserts directly (initial population).
    pub fn insert_untimed(&self, heap: &Heap, key: u64) -> bool {
        self.bucket_of(key).insert_untimed(heap, key)
    }

    /// All keys currently present (untimed; tests).
    pub fn collect_keys_untimed(&self, heap: &Heap) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .buckets
            .iter()
            .flat_map(|b| b.collect_keys_untimed(heap))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Invariant check on every bucket.
    pub fn check_invariants_untimed(&self, heap: &Heap) {
        for b in self.buckets.iter() {
            b.check_invariants_untimed(heap);
        }
    }
}

/// Body of `contains(key)`.
pub fn contains_body(
    shape: &HashShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    list::contains_body(shape.bucket_of(key), key)
}

/// Body of `insert(key)`.
pub fn insert_body(
    shape: &HashShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    list::insert_body(shape.bucket_of(key), key)
}

/// Body of `delete(key)`.
pub fn delete_body(
    shape: &HashShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    list::delete_body(shape.bucket_of(key), key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::DsOp::{Contains, Delete, Insert};
    use crate::testutil::{all_scheme_factories, test_cpu};
    use crate::StructureInstance;
    use st_reclaim::Scheme;

    #[test]
    fn spreads_keys_across_buckets() {
        let (_, heap) = all_scheme_factories(Scheme::None, 1);
        let shape = HashShape::new_untimed(&heap, 16);
        let mut nonempty = 0;
        for k in 1..=64u64 {
            shape.insert_untimed(&heap, k);
        }
        for b in 0..16 {
            if !shape.buckets[b].collect_keys_untimed(&heap).is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 12, "hashing must spread keys ({nonempty}/16)");
        assert_eq!(shape.collect_keys_untimed(&heap).len(), 64);
    }

    #[test]
    fn set_semantics_under_every_scheme() {
        for scheme in Scheme::all() {
            let (factory, heap) = all_scheme_factories(scheme, 1);
            let shape = HashShape::new_untimed(&heap, 8);
            let set = StructureInstance::Hash(shape.clone());
            let mut th = factory.thread(0);
            let mut cpu = test_cpu(0);
            let mut run = |op| set.run(th.as_mut(), &mut cpu, op) == 1;

            for k in 1..=32u64 {
                assert!(run(Insert(k)), "{scheme:?} {k}");
            }
            for k in 1..=32u64 {
                assert!(run(Contains(k)), "{scheme:?} {k}");
            }
            for k in (1..=32u64).step_by(2) {
                assert!(run(Delete(k)), "{scheme:?} {k}");
            }
            assert_eq!(
                shape.collect_keys_untimed(&heap),
                (2..=32).step_by(2).collect::<Vec<u64>>(),
                "{scheme:?}"
            );
            shape.check_invariants_untimed(&heap);
            th.teardown(&mut cpu);
        }
    }
}
