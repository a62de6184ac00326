//! The Michael-Scott lock-free queue (PODC 1996).
//!
//! A dummy-headed singly linked list with `head`/`tail` anchor words. Each
//! operation attempt is one basic block (the algorithm's retry loop maps
//! onto `Step::Continue`). Dequeue retires the old dummy — the node whose
//! address momentarily lives only in thread-private state, which is
//! exactly the reclamation race the paper's queue benchmark stresses.
//!
//! Values must be non-zero; `dequeue` returns 0 for "empty".
//!
//! Written against the typed reclamation API (`st_reclaim::mem`): the
//! dequeue's head-swing CAS is the `cas_unlink` that mints the old
//! dummy's `Unlinked` proof, and the anchor re-reads that validate a
//! snapshot are `load_word` validation reads — see docs/MEMORY_API.md.

use st_machine::Cpu;
use st_reclaim::mem::{Atomic, GuardPool, GuardRequirement, Mem, NodeType, Owned};
use st_reclaim::SchemeThread;
use st_simheap::{Addr, Heap, Word};
use st_simhtm::Abort;
use stacktrack::{OpMem, Step};
use std::sync::Arc;

/// Enqueue operation id.
pub const OP_ENQUEUE: u32 = 0;
/// Dequeue operation id.
pub const OP_DEQUEUE: u32 = 1;
/// Peek operation id (the benchmark's read-only operation).
pub const OP_PEEK: u32 = 2;

/// Value word offset within a node.
pub const NODE_VALUE: u64 = 0;
/// Next-pointer word offset within a node.
pub const NODE_NEXT: u64 = 1;
/// Node size in words.
pub const NODE_WORDS: usize = 2;

/// The queue's node layout: `[value, next]`.
#[derive(Debug, Clone, Copy)]
pub struct QueueNode;
impl NodeType for QueueNode {
    const WORDS: usize = NODE_WORDS;
}

/// Head anchor offset.
const A_HEAD: u64 = 0;
/// Tail anchor offset.
const A_TAIL: u64 = 1;

/// Shadow-stack slots used by queue operations.
pub const QUEUE_SLOTS: usize = 2;
/// Guard slots used by queue operations.
pub const QUEUE_GUARDS: usize = 3;

/// The queue's declared guard requirement: head, tail, and next guards.
pub const fn guard_requirement() -> GuardRequirement {
    GuardRequirement::new(QUEUE_GUARDS)
}

const NODE: usize = 1;

/// The shared shape of one queue: its anchor block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueShape {
    /// Two-word anchor: `[head, tail]`.
    pub anchor: Addr,
}

impl QueueShape {
    /// Allocates an empty queue (untimed; structure setup).
    pub fn new_untimed(heap: &Heap) -> Self {
        let anchor = heap
            .alloc_untimed(2)
            .expect("heap too small for queue anchor");
        let dummy = heap
            .alloc_untimed(NODE_WORDS)
            .expect("heap too small for queue dummy");
        heap.poke(anchor, A_HEAD, dummy.raw());
        heap.poke(anchor, A_TAIL, dummy.raw());
        Self { anchor }
    }

    /// Enqueues directly, bypassing the protocol (initial population).
    pub fn enqueue_untimed(&self, heap: &Heap, value: Word) {
        assert_ne!(value, 0, "queue values must be non-zero");
        let node = heap
            .alloc_untimed(NODE_WORDS)
            .expect("heap too small for initial population");
        heap.poke(node, NODE_VALUE, value);
        let tail = Addr::from_raw(heap.peek(self.anchor, A_TAIL));
        heap.poke(tail, NODE_NEXT, node.raw());
        heap.poke(self.anchor, A_TAIL, node.raw());
    }

    /// Snapshot of queued values, head to tail (untimed; tests).
    pub fn collect_values_untimed(&self, heap: &Heap) -> Vec<Word> {
        let mut out = Vec::new();
        let dummy = Addr::from_raw(heap.peek(self.anchor, A_HEAD));
        let mut cur = heap.peek(dummy, NODE_NEXT);
        while cur != 0 {
            let node = Addr::from_raw(cur);
            out.push(heap.peek(node, NODE_VALUE));
            cur = heap.peek(node, NODE_NEXT);
        }
        out
    }
}

/// Body of `enqueue(value)`; always returns 1.
pub fn enqueue_body(
    shape: QueueShape,
    value: Word,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert_ne!(value, 0, "queue values must be non-zero");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut _g_head = guards.guard();
        let mut g_tail = guards.guard();
        let mut g_next = guards.guard();
        let a_tail = Atomic::<QueueNode>::root(shape.anchor, A_TAIL);

        // Allocate once; keep the node across retries in a traced local.
        let node_word = match mem.local(NODE) {
            0 => {
                let node = mem.alloc::<QueueNode>();
                node.store(&mut mem, NODE_VALUE, value)?;
                let word = node.stash();
                mem.set_local(NODE, word);
                word
            }
            raw => raw,
        };

        let tail = a_tail.load(&mut mem, &mut g_tail)?;
        let next = tail
            .link::<QueueNode>(NODE_NEXT)
            .load(&mut mem, &mut g_next)?;
        if a_tail.load_word(&mut mem)? != tail.addr_word() {
            return Ok(Step::Continue);
        }
        if next.is_null() {
            let node = Owned::unstash(node_word).expect("node stashed above");
            match tail
                .link::<QueueNode>(NODE_NEXT)
                .cas_publish(&mut mem, 0, node)?
            {
                Ok(()) => {
                    // Swing the tail (failure means someone helped).
                    let _ = a_tail.cas_word(&mut mem, tail.addr_word(), node_word)?;
                    Ok(Step::Done(1))
                }
                Err((lost, _actual)) => {
                    // Still unpublished; it stays stashed for the retry.
                    let _ = lost.stash();
                    Ok(Step::Continue)
                }
            }
        } else {
            // Tail lags: help advance it.
            let _ = a_tail.cas_word(&mut mem, tail.addr_word(), next.word())?;
            Ok(Step::Continue)
        }
    }
}

/// Body of `dequeue()`: the dequeued value, or 0 when empty.
pub fn dequeue_body(
    shape: QueueShape,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut g_head = guards.guard();
        let mut _g_tail = guards.guard();
        let mut g_next = guards.guard();
        let a_head = Atomic::<QueueNode>::root(shape.anchor, A_HEAD);
        let a_tail = Atomic::<QueueNode>::root(shape.anchor, A_TAIL);

        let head = a_head.load(&mut mem, &mut g_head)?;
        let tail = a_tail.load_word(&mut mem)?;
        let next = head
            .link::<QueueNode>(NODE_NEXT)
            .load(&mut mem, &mut g_next)?;
        if a_head.load_word(&mut mem)? != head.addr_word() {
            return Ok(Step::Continue);
        }
        if head.addr_word() == tail {
            if next.is_null() {
                return Ok(Step::Done(0));
            }
            // Tail lags behind a half-finished enqueue: help.
            let _ = a_tail.cas_word(&mut mem, tail, next.word())?;
            return Ok(Step::Continue);
        }
        let value = next.read(&mut mem, NODE_VALUE)?;
        match a_head.cas_unlink(&mut mem, head, next.word())? {
            Ok(unlinked) => {
                // The old dummy is ours to reclaim.
                unlinked.retire(&mut mem)?;
                Ok(Step::Done(value))
            }
            Err(_actual) => Ok(Step::Continue),
        }
    }
}

/// Body of `peek()`: the front value without removing it (0 when empty).
pub fn peek_body(
    shape: QueueShape,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut g_head = guards.guard();
        let mut _g_tail = guards.guard();
        let mut g_next = guards.guard();
        let a_head = Atomic::<QueueNode>::root(shape.anchor, A_HEAD);

        let head = a_head.load(&mut mem, &mut g_head)?;
        let next = head
            .link::<QueueNode>(NODE_NEXT)
            .load(&mut mem, &mut g_next)?;
        if a_head.load_word(&mut mem)? != head.addr_word() {
            return Ok(Step::Continue);
        }
        if next.is_null() {
            return Ok(Step::Done(0));
        }
        let value = next.read(&mut mem, NODE_VALUE)?;
        Ok(Step::Done(value))
    }
}

/// High-level queue handle.
#[derive(Debug)]
pub struct MsQueue {
    shape: QueueShape,
    heap: Arc<Heap>,
}

impl MsQueue {
    /// Creates an empty queue on `heap`.
    pub fn new(heap: Arc<Heap>) -> Self {
        let shape = QueueShape::new_untimed(&heap);
        Self { shape, heap }
    }

    /// The copyable shape.
    pub fn shape(&self) -> QueueShape {
        self.shape
    }

    /// The heap this queue lives on.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Enqueue through a scheme executor.
    pub fn enqueue(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, value: Word) {
        let mut body = enqueue_body(self.shape, value);
        th.run_op(cpu, OP_ENQUEUE, QUEUE_SLOTS, &mut body);
    }

    /// Dequeue through a scheme executor; `None` when empty.
    pub fn dequeue(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu) -> Option<Word> {
        let mut body = dequeue_body(self.shape);
        match th.run_op(cpu, OP_DEQUEUE, QUEUE_SLOTS, &mut body) {
            0 => None,
            v => Some(v),
        }
    }

    /// Peek through a scheme executor; `None` when empty.
    pub fn peek(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu) -> Option<Word> {
        let mut body = peek_body(self.shape);
        match th.run_op(cpu, OP_PEEK, QUEUE_SLOTS, &mut body) {
            0 => None,
            v => Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{all_scheme_factories, test_cpu};
    use st_reclaim::Scheme;

    #[test]
    fn fifo_order_under_every_scheme() {
        for scheme in Scheme::all() {
            let (factory, heap) = all_scheme_factories(scheme, 1);
            let q = MsQueue::new(heap);
            let mut th = factory.thread(0);
            let mut cpu = test_cpu(0);

            assert_eq!(q.dequeue(th.as_mut(), &mut cpu), None, "{scheme:?}");
            for v in 1..=20u64 {
                q.enqueue(th.as_mut(), &mut cpu, v);
            }
            assert_eq!(q.peek(th.as_mut(), &mut cpu), Some(1), "{scheme:?}");
            for v in 1..=20u64 {
                assert_eq!(q.dequeue(th.as_mut(), &mut cpu), Some(v), "{scheme:?}");
            }
            assert_eq!(q.dequeue(th.as_mut(), &mut cpu), None, "{scheme:?}");
            th.teardown(&mut cpu);
        }
    }

    #[test]
    fn dequeued_dummies_are_reclaimed_by_stacktrack() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let q = MsQueue::new(heap.clone());
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        let live_before = heap.stats().alloc.live_objects;
        for round in 0..40u64 {
            q.enqueue(th.as_mut(), &mut cpu, round + 1);
            assert_eq!(q.dequeue(th.as_mut(), &mut cpu), Some(round + 1));
        }
        th.teardown(&mut cpu);
        // One dummy is always part of the queue; allocation count returns
        // to the baseline because dummies rotate.
        assert_eq!(heap.stats().alloc.live_objects, live_before);
    }

    #[test]
    fn interleaved_producer_consumer() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 2);
        let q = MsQueue::new(heap);
        let mut producer = factory.thread(0);
        let mut consumer = factory.thread(1);
        let mut cpu_p = test_cpu(0);
        let mut cpu_c = test_cpu(1);

        let shape = q.shape();
        let mut produced = 0u64;
        let mut consumed = Vec::new();
        while consumed.len() < 50 {
            if produced < 50 {
                produced += 1;
                let mut body = enqueue_body(shape, produced);
                consumer_step_all(&mut *producer, &mut cpu_p, &mut body);
            }
            let mut deq = dequeue_body(shape);
            let got = consumer_step_all(&mut *consumer, &mut cpu_c, &mut deq);
            if got != 0 {
                consumed.push(got);
            }
        }
        assert_eq!(consumed, (1..=50).collect::<Vec<_>>(), "FIFO preserved");
    }

    fn consumer_step_all(
        th: &mut dyn SchemeThread,
        cpu: &mut Cpu,
        body: &mut stacktrack::OpBody<'_>,
    ) -> u64 {
        th.run_op(cpu, 0, QUEUE_SLOTS, body)
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::testutil::{all_scheme_factories, test_cpu};
    use st_reclaim::Scheme;

    #[test]
    fn empty_queue_edges() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let q = MsQueue::new(heap);
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        assert_eq!(q.peek(th.as_mut(), &mut cpu), None);
        assert_eq!(q.dequeue(th.as_mut(), &mut cpu), None);
        q.enqueue(th.as_mut(), &mut cpu, 9);
        assert_eq!(q.peek(th.as_mut(), &mut cpu), Some(9));
        assert_eq!(q.peek(th.as_mut(), &mut cpu), Some(9), "peek is read-only");
        assert_eq!(q.dequeue(th.as_mut(), &mut cpu), Some(9));
        assert_eq!(q.dequeue(th.as_mut(), &mut cpu), None, "empty again");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_values_rejected() {
        let _ = enqueue_body(
            QueueShape {
                anchor: Addr::from_index(1),
            },
            0,
        );
    }

    #[test]
    fn untimed_population_preserves_order() {
        let (_, heap) = all_scheme_factories(Scheme::None, 1);
        let q = QueueShape::new_untimed(&heap);
        for v in [3u64, 1, 4, 1, 5] {
            q.enqueue_untimed(&heap, v);
        }
        assert_eq!(q.collect_values_untimed(&heap), vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn interleaved_half_finished_enqueue_is_helped() {
        // Stop a producer right after it linked its node but before it
        // swung the tail; a dequeuer must help and still see the value.
        let (factory, heap) = all_scheme_factories(Scheme::Epoch, 2);
        let q = MsQueue::new(heap);
        let mut producer = factory.thread(0);
        let mut consumer = factory.thread(1);
        let mut cpu_p = test_cpu(0);
        let mut cpu_c = test_cpu(1);
        let shape = q.shape();

        // Drive the producer exactly one block: under Epoch every MS-queue
        // attempt is a single block, so one step completes the enqueue but
        // may leave the tail lagging only if we stop mid-attempt — instead
        // verify the help path via a lagging tail built by hand.
        q.enqueue(producer.as_mut(), &mut cpu_p, 7);
        let dummy = st_simheap::Addr::from_raw(q.heap().peek(shape.anchor, 0));
        let first = st_simheap::Addr::from_raw(q.heap().peek(dummy, NODE_NEXT));
        // Manufacture a lagging tail: point it back at the dummy.
        q.heap().poke(shape.anchor, 1, dummy.raw());
        let _ = first;

        assert_eq!(
            q.dequeue(consumer.as_mut(), &mut cpu_c),
            Some(7),
            "dequeuer must help advance the lagging tail"
        );
    }
}
