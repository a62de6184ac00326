//! The structure matrix every harness drives: which structure
//! ([`StructureKind`]), the operation mix run against it
//! ([`WorkloadSpec`]), and the shared instance that turns an operation
//! into a body ([`StructureInstance`]).

use crate::history::{DsOp, SpecKind};
use crate::{hash, list, queue, rbtree, skiplist};
use st_machine::{Cpu, Pcg32};
use st_reclaim::none::NoReclaim;
use st_reclaim::Frame;
use st_reclaim::SchemeThread;
use st_simheap::{Heap, Word};
use stacktrack::OpBody;
use std::sync::Arc;

/// Which structure a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// Harris list, 5 K keys (Figure 1a).
    List,
    /// Fraser-Harris skip list, 100 K keys (Figure 1b).
    SkipList,
    /// Michael-Scott queue (Figure 2a).
    Queue,
    /// Hash table, 10 K keys (Figure 2b).
    Hash,
    /// Red-black tree (the paper's Algorithm 3 example; extra workload).
    RbTree,
}

impl StructureKind {
    /// Name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::List => "List",
            StructureKind::SkipList => "SkipList",
            StructureKind::Queue => "Queue",
            StructureKind::Hash => "Hash",
            StructureKind::RbTree => "RbTree",
        }
    }

    /// The sequential specification this structure implements.
    pub fn spec(self) -> SpecKind {
        match self {
            StructureKind::Queue => SpecKind::Queue,
            _ => SpecKind::Set,
        }
    }
}

impl std::fmt::Display for StructureKind {
    /// The lowercase name used on the command line, in replay tokens and
    /// in `check`/`audit` output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StructureKind::List => "list",
            StructureKind::SkipList => "skiplist",
            StructureKind::Queue => "queue",
            StructureKind::Hash => "hash",
            StructureKind::RbTree => "rbtree",
        })
    }
}

impl std::str::FromStr for StructureKind {
    type Err = String;

    /// Parses either name, case-insensitively (`skip` and `rb` too).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "list" => Ok(StructureKind::List),
            "skiplist" | "skip" => Ok(StructureKind::SkipList),
            "queue" => Ok(StructureKind::Queue),
            "hash" => Ok(StructureKind::Hash),
            "rbtree" | "rb" => Ok(StructureKind::RbTree),
            _ => Err(format!(
                "unknown structure {s:?} (expected list, skiplist, queue, hash, or rbtree)"
            )),
        }
    }
}

/// A workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Structure under test.
    pub structure: StructureKind,
    /// Initial number of elements.
    pub initial_size: u64,
    /// Keys drawn uniformly from `1..=key_range`.
    pub key_range: u64,
    /// Percentage of operations that mutate (split evenly between insert
    /// and delete, or enqueue and dequeue).
    pub mutation_pct: u32,
    /// Hash-table bucket count (ignored elsewhere).
    pub buckets: usize,
}

/// Validating constructor for [`WorkloadSpec`].
///
/// Obtained from [`WorkloadSpec::builder`]; [`WorkloadSpecBuilder::build`]
/// rejects inconsistent configurations instead of letting them skew a
/// benchmark silently (e.g. a key range smaller than the initial
/// population can never finish populating).
#[derive(Debug, Clone)]
pub struct WorkloadSpecBuilder {
    structure: StructureKind,
    initial_size: u64,
    key_range: u64,
    mutation_pct: u32,
    buckets: Option<usize>,
}

impl WorkloadSpecBuilder {
    /// Initial number of elements (default 1024).
    pub fn initial_size(mut self, initial_size: u64) -> Self {
        self.initial_size = initial_size;
        self
    }

    /// Keys drawn uniformly from `1..=key_range` (default 2048).
    pub fn key_range(mut self, key_range: u64) -> Self {
        self.key_range = key_range;
        self
    }

    /// Percentage of mutating operations (default 20).
    pub fn mutation_pct(mut self, mutation_pct: u32) -> Self {
        self.mutation_pct = mutation_pct;
        self
    }

    /// Hash-table bucket count; only valid for [`StructureKind::Hash`].
    pub fn buckets(mut self, buckets: usize) -> Self {
        self.buckets = Some(buckets);
        self
    }

    /// Validates and constructs the spec.
    ///
    /// # Errors
    ///
    /// - `key_range < initial_size`: the population could never fit.
    /// - `mutation_pct > 100`: not a percentage.
    /// - `buckets` set on a non-hash structure, or zero/unset for a hash.
    pub fn build(self) -> Result<WorkloadSpec, String> {
        if self.key_range < self.initial_size {
            return Err(format!(
                "key_range ({}) must be >= initial_size ({})",
                self.key_range, self.initial_size
            ));
        }
        if self.mutation_pct > 100 {
            return Err(format!(
                "mutation_pct ({}) must be <= 100",
                self.mutation_pct
            ));
        }
        let buckets = match (self.structure, self.buckets) {
            (StructureKind::Hash, Some(0)) => {
                return Err("a hash table needs at least one bucket".into());
            }
            (StructureKind::Hash, Some(b)) => b,
            (StructureKind::Hash, None) => {
                return Err("StructureKind::Hash requires .buckets(n)".into());
            }
            (other, Some(_)) => {
                return Err(format!("buckets is only meaningful for Hash, not {other}"));
            }
            (_, None) => 1,
        };
        Ok(WorkloadSpec {
            structure: self.structure,
            initial_size: self.initial_size,
            key_range: self.key_range,
            mutation_pct: self.mutation_pct,
            buckets,
        })
    }
}

impl WorkloadSpec {
    /// Re-checks the builder invariants on an existing spec (the fields
    /// are public, so a spec can drift after construction).
    pub fn validate(&self) -> Result<(), String> {
        let mut b = Self::builder(self.structure)
            .initial_size(self.initial_size)
            .key_range(self.key_range)
            .mutation_pct(self.mutation_pct);
        if self.structure == StructureKind::Hash {
            b = b.buckets(self.buckets);
        }
        b.build().map(|_| ())
    }

    /// Starts building a spec for `structure`.
    pub fn builder(structure: StructureKind) -> WorkloadSpecBuilder {
        WorkloadSpecBuilder {
            structure,
            initial_size: 1024,
            key_range: 2048,
            mutation_pct: 20,
            buckets: None,
        }
    }

    /// The paper's list configuration: 5 K nodes, 20 % mutations.
    pub fn paper_list() -> Self {
        Self::builder(StructureKind::List)
            .initial_size(5_000)
            .key_range(10_000)
            .mutation_pct(20)
            .build()
            .expect("paper preset is valid")
    }

    /// The paper's skip-list configuration: 100 K nodes, 20 % mutations.
    pub fn paper_skiplist() -> Self {
        Self::builder(StructureKind::SkipList)
            .initial_size(100_000)
            .key_range(200_000)
            .mutation_pct(20)
            .build()
            .expect("paper preset is valid")
    }

    /// The paper's queue configuration: 20 % mutations.
    pub fn paper_queue() -> Self {
        Self::builder(StructureKind::Queue)
            .initial_size(256)
            .key_range(1 << 32)
            .mutation_pct(20)
            .build()
            .expect("paper preset is valid")
    }

    /// Extra workload: red-black tree, 10 K keys, 10 % mutations
    /// (read-dominated, as tree indexes usually are).
    pub fn extra_rbtree() -> Self {
        Self::builder(StructureKind::RbTree)
            .initial_size(10_000)
            .key_range(20_000)
            .mutation_pct(10)
            .build()
            .expect("paper preset is valid")
    }

    /// The paper's hash configuration: 10 K nodes, 20 % mutations.
    pub fn paper_hash() -> Self {
        Self::builder(StructureKind::Hash)
            .initial_size(10_000)
            .key_range(20_000)
            .mutation_pct(20)
            .buckets(4_096)
            .build()
            .expect("paper preset is valid")
    }

    /// A scaled-down variant for fast test runs.
    pub fn shrunk(mut self, factor: u64) -> Self {
        self.initial_size = (self.initial_size / factor).max(8);
        self.key_range = (self.key_range / factor).max(16);
        self
    }

    /// Words of simulated heap this workload needs, with garbage headroom.
    pub fn heap_words(&self, duration_ms: u64) -> u64 {
        let per_node = match self.structure {
            StructureKind::SkipList | StructureKind::RbTree => 8,
            _ => 4,
        };
        // Sets hold at most one node per key; the queue's population is
        // bounded by its churn, not the value range.
        let resident_nodes = match self.structure {
            StructureKind::Queue => self.initial_size + 1,
            _ => self.key_range,
        };
        let base = resident_nodes * per_node + self.buckets as u64 * 8;
        // Leak headroom for the NoReclaim baseline.
        let headroom = 4_000_000 * duration_ms.max(1) / 10;
        (base * 2 + headroom + (1 << 16)).next_power_of_two()
    }
}

/// The structure instance shared by all workers of one run.
pub enum StructureInstance {
    /// A Harris list.
    List(list::ListShape),
    /// A skip list.
    SkipList(skiplist::SkipShape),
    /// A queue.
    Queue(queue::QueueShape),
    /// A hash table.
    Hash(hash::HashShape),
    /// A red-black tree.
    RbTree(rbtree::RbShape),
}

impl StructureInstance {
    /// Builds the benchmark's population of `spec` (untimed): see
    /// [`StructureInstance::populate`], drawing from stream `0x5742` of
    /// `seed`.
    pub fn build(spec: &WorkloadSpec, heap: &Arc<Heap>, seed: u64) -> Self {
        Self::populate(spec, heap, &mut Pcg32::new_stream(seed, 0x5742))
    }

    /// Builds `spec.structure` holding `spec.initial_size` distinct keys
    /// drawn uniformly from `1..=spec.key_range` with `rng`, which also
    /// draws skip-list levels (untimed). The queue holds
    /// `1..=spec.initial_size` instead.
    pub fn populate(spec: &WorkloadSpec, heap: &Arc<Heap>, rng: &mut Pcg32) -> Self {
        let instance = Self::new_untimed(spec.structure, heap, spec.buckets);
        let mut insert = instance.inserter(heap);
        if spec.structure == StructureKind::Queue {
            for value in 1..=spec.initial_size {
                insert(value, rng);
            }
        } else {
            let mut inserted = 0;
            while inserted < spec.initial_size {
                let key = rng.below(spec.key_range) + 1;
                if insert(key, rng) {
                    inserted += 1;
                }
            }
        }
        drop(insert);
        instance
    }

    /// An empty `kind` (untimed); `buckets` sizes a hash table only.
    pub fn new_untimed(kind: StructureKind, heap: &Arc<Heap>, buckets: usize) -> Self {
        match kind {
            StructureKind::List => StructureInstance::List(list::ListShape::new_untimed(heap)),
            StructureKind::SkipList => {
                StructureInstance::SkipList(skiplist::SkipShape::new_untimed(heap))
            }
            StructureKind::Queue => StructureInstance::Queue(queue::QueueShape::new_untimed(heap)),
            StructureKind::Hash => {
                StructureInstance::Hash(hash::HashShape::new_untimed(heap, buckets))
            }
            StructureKind::RbTree => StructureInstance::RbTree(rbtree::RbShape::new_untimed(heap)),
        }
    }

    /// Inserts `keys` in order (the queue enqueues them), untimed; `rng`
    /// draws skip-list levels. Returns the keys that were new.
    pub fn insert_untimed(&self, heap: &Arc<Heap>, keys: &[u64], rng: &mut Pcg32) -> Vec<u64> {
        let mut insert = self.inserter(heap);
        keys.iter()
            .copied()
            .filter(|&key| insert(key, rng))
            .collect()
    }

    /// One untimed insert per call, `true` when the key was new. The list
    /// links each key after its predecessor in one sorted index per
    /// inserter, not a walk per key. The tree has no untimed insert
    /// (balance bookkeeping), so its inserts run through one scratch
    /// writer per inserter; NoReclaim never frees, so set-up cannot disturb
    /// an armed heap oracle.
    fn inserter<'a>(&'a self, heap: &'a Arc<Heap>) -> impl FnMut(u64, &mut Pcg32) -> bool + 'a {
        let mut list_index: Option<list::ListIndex> = None;
        let mut writer: Option<(Cpu, Frame<NoReclaim>)> = None;
        move |key, rng| match self {
            StructureInstance::List(s) => list_index
                .get_or_insert_with(|| s.index_untimed(heap))
                .insert_untimed(heap, key),
            StructureInstance::SkipList(s) => s.insert_untimed(heap, key, rng),
            StructureInstance::Queue(s) => {
                s.enqueue_untimed(heap, key);
                true
            }
            StructureInstance::Hash(s) => s.insert_untimed(heap, key),
            StructureInstance::RbTree(_) => {
                let (cpu, writer) = writer.get_or_insert_with(|| {
                    (
                        scratch_cpu(),
                        Frame::new(heap.clone(), NoReclaim::default()),
                    )
                });
                self.run(writer, cpu, DsOp::Insert(key)) == 1
            }
        }
    }

    /// The operation id, traced-local count and body of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an operation of this structure.
    pub fn body_for(&self, op: DsOp) -> (u32, usize, Box<OpBody<'static>>) {
        use StructureInstance as S;
        match (self, op) {
            (S::List(s), DsOp::Contains(k)) => (
                list::OP_CONTAINS,
                list::LIST_SLOTS,
                Box::new(list::contains_body(*s, k)),
            ),
            (S::List(s), DsOp::Insert(k)) => (
                list::OP_INSERT,
                list::LIST_SLOTS,
                Box::new(list::insert_body(*s, k)),
            ),
            (S::List(s), DsOp::Delete(k)) => (
                list::OP_DELETE,
                list::LIST_SLOTS,
                Box::new(list::delete_body(*s, k)),
            ),
            (S::SkipList(s), DsOp::Contains(k)) => (
                skiplist::OP_CONTAINS,
                skiplist::SKIP_SLOTS,
                Box::new(skiplist::contains_body(*s, k)),
            ),
            (S::SkipList(s), DsOp::Insert(k)) => (
                skiplist::OP_INSERT,
                skiplist::SKIP_SLOTS,
                Box::new(skiplist::insert_body(*s, k)),
            ),
            (S::SkipList(s), DsOp::Delete(k)) => (
                skiplist::OP_DELETE,
                skiplist::SKIP_SLOTS,
                Box::new(skiplist::delete_body(*s, k)),
            ),
            (S::Queue(s), DsOp::Enqueue(v)) => (
                queue::OP_ENQUEUE,
                queue::QUEUE_SLOTS,
                Box::new(queue::enqueue_body(*s, v)),
            ),
            (S::Queue(s), DsOp::Dequeue) => (
                queue::OP_DEQUEUE,
                queue::QUEUE_SLOTS,
                Box::new(queue::dequeue_body(*s)),
            ),
            (S::Queue(s), DsOp::Peek) => (
                queue::OP_PEEK,
                queue::QUEUE_SLOTS,
                Box::new(queue::peek_body(*s)),
            ),
            (S::Hash(s), DsOp::Contains(k)) => (
                list::OP_CONTAINS,
                list::LIST_SLOTS,
                Box::new(hash::contains_body(s, k)),
            ),
            (S::Hash(s), DsOp::Insert(k)) => (
                list::OP_INSERT,
                list::LIST_SLOTS,
                Box::new(hash::insert_body(s, k)),
            ),
            (S::Hash(s), DsOp::Delete(k)) => (
                list::OP_DELETE,
                list::LIST_SLOTS,
                Box::new(hash::delete_body(s, k)),
            ),
            (S::RbTree(s), DsOp::Contains(k)) => (
                rbtree::OP_SEARCH,
                rbtree::RB_SLOTS,
                Box::new(rbtree::search_body(*s, k)),
            ),
            (S::RbTree(s), DsOp::Insert(k)) => (
                rbtree::OP_INSERT,
                rbtree::RB_SLOTS,
                Box::new(rbtree::insert_body(*s, k)),
            ),
            (S::RbTree(s), DsOp::Delete(k)) => (
                rbtree::OP_DELETE,
                rbtree::RB_SLOTS,
                Box::new(rbtree::delete_body(*s, k)),
            ),
            (_, op) => panic!("operation {op} does not fit this structure"),
        }
    }

    /// Runs `op` to completion through `th`, draining its pending idle
    /// work first, and returns the result word: 1 or 0 for a set
    /// operation, the value (0 when empty) for a dequeue or peek.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an operation of this structure.
    pub fn run(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, op: DsOp) -> Word {
        let (op_id, slots, mut body) = self.body_for(op);
        th.run_op(cpu, op_id, slots, body.as_mut())
    }

    /// Checks the structure's invariants (untimed; panics on a broken
    /// one). The queue has none beyond a walk that reaches its tail.
    pub fn check_invariants_untimed(&self, heap: &Heap) {
        match self {
            StructureInstance::List(s) => s.check_invariants_untimed(heap),
            StructureInstance::SkipList(s) => s.check_invariants_untimed(heap),
            StructureInstance::Queue(s) => {
                let _ = s.collect_values_untimed(heap);
            }
            StructureInstance::Hash(s) => s.check_invariants_untimed(heap),
            StructureInstance::RbTree(s) => s.check_invariants_untimed(heap),
        }
    }
}

/// A standalone CPU for set-up work that never enters the simulated
/// schedule.
fn scratch_cpu() -> Cpu {
    use st_machine::{cpu::ActivityBoard, CostModel, HwContext, Topology};
    let topo = Topology::haswell();
    Cpu::new(
        0,
        HwContext::new(&topo, 0),
        Arc::new(CostModel::default()),
        Arc::new(ActivityBoard::new(topo.hw_contexts())),
        0x5e7,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_match_section_6() {
        let list = WorkloadSpec::paper_list();
        assert_eq!(list.initial_size, 5_000);
        assert_eq!(list.mutation_pct, 20);
        let sl = WorkloadSpec::paper_skiplist();
        assert_eq!(sl.initial_size, 100_000);
        let hash = WorkloadSpec::paper_hash();
        assert_eq!(hash.initial_size, 10_000);
        assert!(hash.buckets > 1);
    }

    #[test]
    fn heap_sizing_covers_the_population() {
        for spec in [
            WorkloadSpec::paper_list(),
            WorkloadSpec::paper_skiplist(),
            WorkloadSpec::paper_hash(),
            WorkloadSpec::paper_queue(),
            WorkloadSpec::extra_rbtree(),
        ] {
            let words = spec.heap_words(10);
            assert!(words.is_power_of_two());
            // Must at least hold the resident nodes twice over.
            let resident = match spec.structure {
                StructureKind::Queue => spec.initial_size,
                _ => spec.key_range,
            };
            assert!(words > resident * 2, "{:?} undersized", spec.structure);
            // And stay far below the address-space sanity bound.
            assert!(words < 1 << 28, "{:?} oversized", spec.structure);
        }
    }

    #[test]
    fn builder_rejects_inconsistent_specs() {
        assert!(WorkloadSpec::builder(StructureKind::List)
            .initial_size(100)
            .key_range(50)
            .build()
            .is_err());
        assert!(WorkloadSpec::builder(StructureKind::List)
            .mutation_pct(101)
            .build()
            .is_err());
        assert!(WorkloadSpec::builder(StructureKind::List)
            .buckets(4)
            .build()
            .is_err());
        assert!(WorkloadSpec::builder(StructureKind::Hash).build().is_err());
        assert!(WorkloadSpec::builder(StructureKind::Hash)
            .buckets(0)
            .build()
            .is_err());
        let hash = WorkloadSpec::builder(StructureKind::Hash)
            .buckets(64)
            .build()
            .unwrap();
        assert_eq!(hash.buckets, 64);
        let list = WorkloadSpec::builder(StructureKind::List).build().unwrap();
        assert_eq!(list.buckets, 1, "non-hash structures get a unit bucket");
    }

    #[test]
    fn structure_names_round_trip_through_fromstr() {
        for kind in [
            StructureKind::List,
            StructureKind::SkipList,
            StructureKind::Queue,
            StructureKind::Hash,
            StructureKind::RbTree,
        ] {
            assert_eq!(kind.name().parse::<StructureKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<StructureKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name().to_lowercase());
        }
        assert!("btree".parse::<StructureKind>().is_err());
    }

    #[test]
    fn shrunk_keeps_proportions() {
        let s = WorkloadSpec::paper_skiplist().shrunk(10);
        assert_eq!(s.initial_size, 10_000);
        assert_eq!(s.key_range, 20_000);
        assert_eq!(s.mutation_pct, 20);
        // Never shrinks to zero.
        let tiny = WorkloadSpec::paper_list().shrunk(1_000_000);
        assert!(tiny.initial_size >= 8);
        assert!(tiny.key_range >= 16);
    }

    #[test]
    fn indexed_list_population_matches_the_per_key_walk_word_for_word() {
        let spec = WorkloadSpec::paper_list();
        let config = st_simheap::HeapConfig {
            capacity_words: 1 << 15,
        };
        for seed in [1, 7, 42] {
            let indexed = Arc::new(Heap::new(config.clone()));
            StructureInstance::build(&spec, &indexed, seed);
            // The same draws through a walk from the head per key.
            let walked = Heap::new(config.clone());
            let shape = list::ListShape::new_untimed(&walked);
            let mut rng = Pcg32::new_stream(seed, 0x5742);
            let mut inserted = 0;
            while inserted < spec.initial_size {
                if shape.insert_untimed(&walked, rng.below(spec.key_range) + 1) {
                    inserted += 1;
                }
            }
            let word = |heap: &Heap, i| heap.peek(st_simheap::Addr::from_index(i), 0);
            for i in 1..config.capacity_words {
                assert_eq!(word(&indexed, i), word(&walked, i), "seed {seed} word {i}");
            }
        }
        // A second batch indexes the list it finds, not an empty one.
        let heap = Arc::new(Heap::new(config));
        let instance = StructureInstance::new_untimed(StructureKind::List, &heap, 1);
        let mut rng = Pcg32::new(3);
        assert_eq!(
            instance.insert_untimed(&heap, &[5, 1, 9], &mut rng),
            [5, 1, 9]
        );
        assert_eq!(
            instance.insert_untimed(&heap, &[9, 3, 1, 7], &mut rng),
            [3, 7]
        );
        match instance {
            StructureInstance::List(shape) => {
                assert_eq!(shape.collect_keys_untimed(&heap), [1, 3, 5, 7, 9]);
                shape.check_invariants_untimed(&heap);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn populated_instances_have_the_requested_size() {
        let spec = WorkloadSpec::paper_list().shrunk(100);
        let heap = Arc::new(Heap::new(st_simheap::HeapConfig {
            capacity_words: spec.heap_words(1),
        }));
        match StructureInstance::build(&spec, &heap, 1) {
            StructureInstance::List(shape) => {
                assert_eq!(
                    shape.collect_keys_untimed(&heap).len() as u64,
                    spec.initial_size
                );
            }
            _ => unreachable!(),
        }
    }
}
