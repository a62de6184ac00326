//! The Harris lock-free linked list (Harris, DISC 2001), with Michael's
//! hazard-compatible `find` (PODC 2002): traversals physically unlink
//! marked nodes they encounter, and the thread whose compare-and-swap
//! performs the unlink is the unique retirer of the node.
//!
//! Node layout (2 words): `[key, next]`, with the deletion mark in bit 0
//! of `next`. The list is bracketed by sentinels with keys `0` and
//! `u64::MAX`.
//!
//! Operation bodies are written against the typed reclamation API
//! (`st_reclaim::mem`, see docs/MEMORY_API.md): protections are typed
//! guard handles from a per-block [`mem::GuardPool`] (sized by
//! [`guard_requirement`]), nodes are reached through [`mem::Shared`]
//! borrows, and the unlink CAS mints the [`mem::Unlinked`] token that is
//! the only path to retire. Every typed call compiles to the identical
//! raw `OpMem` instruction the hand-wired code issued, so schedules,
//! cycle counts, and the committed figures are unchanged.

use st_machine::Cpu;
use st_reclaim::mem::{self, Guard, GuardPool, GuardRequirement, Mem, NodeType, Owned};
use st_reclaim::SchemeThread;
use st_simheap::{Addr, Heap, TaggedPtr, Word};
use st_simhtm::Abort;
use stacktrack::{OpMem, Step};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Operation ids (index the split predictor).
pub const OP_CONTAINS: u32 = 0;
/// Insert operation id.
pub const OP_INSERT: u32 = 1;
/// Delete operation id.
pub const OP_DELETE: u32 = 2;

/// Key word offset within a node.
pub const NODE_KEY: u64 = 0;
/// Next-pointer word offset within a node.
pub const NODE_NEXT: u64 = 1;
/// Node size in words.
pub const NODE_WORDS: usize = 2;

/// Shadow-stack slots used by list operations.
pub const LIST_SLOTS: usize = 7;
/// Guard slots used by list operations.
pub const LIST_GUARDS: usize = 3;

/// Node-layout marker typing the list's [`mem::Atomic`] links and
/// [`mem::Shared`] borrows.
#[derive(Debug, Clone, Copy)]
pub struct ListNode;

impl NodeType for ListNode {
    const WORDS: usize = NODE_WORDS;
}

/// The list's declared guard requirement: `prev`/`cur`/`next` protected
/// at once. Consumed by `SchemeFactoryBuilder::guard_requirement` to
/// size the per-thread guard slots.
pub const fn guard_requirement() -> GuardRequirement {
    GuardRequirement::new(LIST_GUARDS)
}

// Local slot assignment.
const PHASE: usize = 0;
const PREV: usize = 1;
const CUR: usize = 2;
const NEXT: usize = 3;
const NODE: usize = 4;
const CKEY: usize = 5;
const CONT: usize = 6;

// Phases.
const P_FIND_START: Word = 0;
const P_FIND_STEP: Word = 1;
const P_INSERT: Word = 2;
const P_DELETE_MARK: Word = 3;
const P_DELETE_UNLINK: Word = 4;
const P_DONE_OK: Word = 5;
const P_FIND_ADVANCE: Word = 6;

/// The shared shape of one Harris list: its sentinel addresses.
///
/// `Copy` so operation bodies can capture it by value and stay `'static`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListShape {
    /// Head sentinel (key 0).
    pub head: Addr,
    /// Tail sentinel (key `u64::MAX`).
    pub tail: Addr,
}

impl ListShape {
    /// Allocates an empty list (untimed; structure setup).
    pub fn new_untimed(heap: &Heap) -> Self {
        let head = heap
            .alloc_untimed(NODE_WORDS)
            .expect("heap too small for list sentinels");
        let tail = heap
            .alloc_untimed(NODE_WORDS)
            .expect("heap too small for list sentinels");
        heap.poke(head, NODE_KEY, 0);
        heap.poke(tail, NODE_KEY, u64::MAX);
        heap.poke(head, NODE_NEXT, tail.raw());
        heap.poke(tail, NODE_NEXT, 0);
        Self { head, tail }
    }

    /// Inserts `key` directly, bypassing the concurrency protocol
    /// (untimed; initial population before the measured run).
    pub fn insert_untimed(&self, heap: &Heap, key: u64) -> bool {
        assert!(key > 0 && key < u64::MAX, "key range");
        let mut prev = self.head;
        let mut cur = Addr::from_raw(heap.peek(prev, NODE_NEXT));
        loop {
            let ckey = heap.peek(cur, NODE_KEY);
            if ckey == key {
                return false;
            }
            if ckey > key {
                let node = heap
                    .alloc_untimed(NODE_WORDS)
                    .expect("heap too small for initial population");
                heap.poke(node, NODE_KEY, key);
                heap.poke(node, NODE_NEXT, cur.raw());
                heap.poke(prev, NODE_NEXT, node.raw());
                return true;
            }
            prev = cur;
            cur = Addr::from_raw(heap.peek(cur, NODE_NEXT));
        }
    }

    /// Indexes the list's nodes by key with one walk from the head, for
    /// populating it without a walk per key (untimed; set-up only).
    pub(crate) fn index_untimed(&self, heap: &Heap) -> ListIndex {
        let mut nodes = BTreeMap::from([(0, self.head)]);
        let mut cur = Addr::from_raw(heap.peek(self.head, NODE_NEXT));
        while cur != self.tail {
            nodes.insert(heap.peek(cur, NODE_KEY), cur);
            cur = Addr::from_raw(heap.peek(cur, NODE_NEXT));
        }
        ListIndex { nodes }
    }

    /// Reads the current key set without charging time (tests/validation).
    /// Marked (logically deleted) nodes are excluded.
    pub fn collect_keys_untimed(&self, heap: &Heap) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = TaggedPtr::from_word(heap.peek(self.head, NODE_NEXT));
        while !cur.is_null() {
            let addr = cur.addr();
            if addr == self.tail {
                break;
            }
            let next = TaggedPtr::from_word(heap.peek(addr, NODE_NEXT));
            if !next.marked() {
                keys.push(heap.peek(addr, NODE_KEY));
            }
            cur = next;
        }
        keys
    }

    /// Checks structural invariants (strictly sorted, ends at the tail).
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_invariants_untimed(&self, heap: &Heap) {
        let mut last = 0;
        let mut cur = TaggedPtr::from_word(heap.peek(self.head, NODE_NEXT));
        loop {
            assert!(!cur.is_null(), "chain must end at the tail sentinel");
            let addr = cur.addr();
            if addr == self.tail {
                return;
            }
            assert!(heap.is_live(addr), "reachable node {addr:?} must be live");
            let key = heap.peek(addr, NODE_KEY);
            let next = TaggedPtr::from_word(heap.peek(addr, NODE_NEXT));
            // Order holds across marked nodes too; equal keys only as a
            // marked node followed by its unmarked replacement.
            assert!(
                key > last || (key == last && !next.marked()),
                "key {key} out of order after {last}"
            );
            last = key;
            cur = next;
        }
    }
}

/// A sorted key → node index of one list ([`ListShape::index_untimed`]),
/// head sentinel included under key 0. An insert links the new node after
/// its indexed predecessor: the node the walk of
/// [`ListShape::insert_untimed`] would stop behind, so the heap ends up
/// word for word the same.
#[derive(Debug)]
pub(crate) struct ListIndex {
    nodes: BTreeMap<u64, Addr>,
}

impl ListIndex {
    /// Inserts `key` directly, bypassing the concurrency protocol
    /// (untimed; initial population before the measured run).
    pub(crate) fn insert_untimed(&mut self, heap: &Heap, key: u64) -> bool {
        assert!(key > 0 && key < u64::MAX, "key range");
        let (&at, &prev) = self
            .nodes
            .range(..=key)
            .next_back()
            .expect("the head sentinel precedes every key");
        if at == key {
            return false;
        }
        let node = heap
            .alloc_untimed(NODE_WORDS)
            .expect("heap too small for initial population");
        heap.poke(node, NODE_KEY, key);
        heap.poke(node, NODE_NEXT, heap.peek(prev, NODE_NEXT));
        heap.poke(prev, NODE_NEXT, node.raw());
        self.nodes.insert(key, node);
        true
    }
}

/// One step of Michael's `find`: leaves `PREV`/`CUR`/`NEXT`/`CKEY` locals
/// describing the first unmarked node with key >= `key`, then jumps to the
/// continuation phase stored in `CONT`. Returns the `Step` for this block.
fn find_step(
    shape: ListShape,
    key: u64,
    mem: &mut Mem<'_, '_>,
    g_prev: &mut Guard,
    g_cur: &mut Guard,
    g_next: &mut Guard,
) -> Result<Step, Abort> {
    let phase = mem.local(PHASE);
    if phase == P_FIND_START {
        let head = shape.head;
        let cur = mem::Atomic::<ListNode>::root(head, NODE_NEXT).load(mem, g_cur)?;
        // The head sentinel is never deleted and never reclaimed, so its
        // next is unmarked and its own word may be shielded root-style.
        g_prev.shield::<ListNode>(mem, head.raw());
        mem.set_local(PREV, head.raw());
        mem.set_local(CUR, cur.word());
        mem.set_local(PHASE, P_FIND_STEP);
        return Ok(Step::Continue);
    }
    if phase == P_FIND_ADVANCE {
        // Advance: prev <- cur, cur <- next (guards rotate in the same
        // order). The shuffle runs in its own block, like the compiled
        // code it models: the pointer load is one instruction, the
        // register/stack moves are later ones, and a segment boundary may
        // fall in between. A commit here republishes the frame with `cur`
        // shifted into a lower (possibly already-scanned) slot without
        // touching any heap word a concurrent reclaimer wrote — the
        // torn-snapshot window the scan's consistency re-read rejects.
        // Both values are still covered by the guards they rotate out of,
        // which is what licenses the fence-free `shield`.
        let cur = mem.local(CUR);
        let next = TaggedPtr::from_word(mem.local(NEXT));
        g_prev.shield::<ListNode>(mem, cur);
        g_cur.shield::<ListNode>(mem, next.addr().raw());
        mem.set_local(PREV, cur);
        mem.set_local(CUR, next.addr().raw());
        mem.set_local(PHASE, P_FIND_STEP);
        return Ok(Step::Continue);
    }
    debug_assert_eq!(phase, P_FIND_STEP);

    // Re-materialize the borrows the previous block left protected in
    // these guards (the words come straight from the shadow locals that
    // block stored).
    let prev = g_prev.assume_protected::<ListNode>(mem.local(PREV));
    let cur = g_cur.assume_protected::<ListNode>(mem.local(CUR));
    let ckey = cur.read(mem, NODE_KEY)?;
    let next = cur.link::<ListNode>(NODE_NEXT).load(mem, g_next)?;

    if next.marked() {
        // `cur` is logically deleted: help unlink it. The winner of this
        // CAS holds the `Unlinked` proof and is the unique retirer.
        let next_word = next.addr_word();
        match prev
            .link::<ListNode>(NODE_NEXT)
            .cas_unlink(mem, cur, next_word)?
        {
            Ok(unlinked) => {
                unlinked.retire(mem)?;
                g_cur.shield::<ListNode>(mem, next_word);
                mem.set_local(CUR, next_word);
            }
            Err(_) => {
                // prev moved under us: restart the search.
                mem.set_local(PHASE, P_FIND_START);
            }
        }
        return Ok(Step::Continue);
    }

    if ckey >= key {
        mem.set_local(NEXT, next.word());
        mem.set_local(CKEY, ckey);
        let cont = mem.local(CONT);
        mem.set_local(PHASE, cont);
        return Ok(Step::Continue);
    }

    // Not found yet: stash the successor and advance in the next block.
    // (`next` stays protected by its guard across the boundary, so the
    // split is hazard-safe: every retained pointer keeps a guard.)
    mem.set_local(NEXT, next.word());
    mem.set_local(PHASE, P_FIND_ADVANCE);
    Ok(Step::Continue)
}

/// Body of `contains(key)`.
///
/// Uses the same helping `find` as mutators (Michael's variant), so every
/// traversal is hazard-safe under every scheme.
pub fn contains_body(
    shape: ListShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut g_prev = guards.guard();
        let mut g_cur = guards.guard();
        let mut g_next = guards.guard();
        let phase = mem.local(PHASE);
        match phase {
            P_FIND_START | P_FIND_STEP | P_FIND_ADVANCE => {
                if phase == P_FIND_START {
                    mem.set_local(CONT, P_DONE_OK);
                }
                find_step(shape, key, &mut mem, &mut g_prev, &mut g_cur, &mut g_next)
            }
            P_DONE_OK => {
                let found = mem.local(CKEY) == key;
                Ok(Step::Done(u64::from(found)))
            }
            other => unreachable!("contains phase {other}"),
        }
    }
}

/// Body of `insert(key)`: returns 1 if the key was inserted, 0 if present.
pub fn insert_body(
    shape: ListShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut g_prev = guards.guard();
        let mut g_cur = guards.guard();
        let mut g_next = guards.guard();
        let phase = mem.local(PHASE);
        match phase {
            P_FIND_START | P_FIND_STEP | P_FIND_ADVANCE => {
                if phase == P_FIND_START {
                    mem.set_local(CONT, P_INSERT);
                }
                find_step(shape, key, &mut mem, &mut g_prev, &mut g_cur, &mut g_next)
            }
            P_INSERT => {
                if mem.local(CKEY) == key {
                    // Already present; dispose of a node kept from a
                    // failed attempt (never published, so the unpublished
                    // drop path applies).
                    if let Some(node) = Owned::<ListNode>::unstash(mem.local(NODE)) {
                        node.dispose(&mut mem)?;
                        mem.set_local(NODE, 0);
                    }
                    return Ok(Step::Done(0));
                }
                let prev = g_prev.assume_protected::<ListNode>(mem.local(PREV));
                let cur = mem.local(CUR);
                let node = match Owned::<ListNode>::unstash(mem.local(NODE)) {
                    None => {
                        let node = mem.alloc::<ListNode>();
                        node.store(&mut mem, NODE_KEY, key)?;
                        mem.set_local(NODE, node.word());
                        node
                    }
                    Some(node) => node,
                };
                node.store(&mut mem, NODE_NEXT, cur)?;
                match prev
                    .link::<ListNode>(NODE_NEXT)
                    .cas_publish(&mut mem, cur, node)?
                {
                    Ok(()) => Ok(Step::Done(1)),
                    Err((lost, _actual)) => {
                        // Lost the race; search again, keeping the node
                        // (its word is already stashed in the NODE local).
                        let _ = lost.stash();
                        mem.set_local(PHASE, P_FIND_START);
                        Ok(Step::Continue)
                    }
                }
            }
            other => unreachable!("insert phase {other}"),
        }
    }
}

/// Body of `delete(key)`: returns 1 if this thread removed the key.
pub fn delete_body(
    shape: ListShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut g_prev = guards.guard();
        let mut g_cur = guards.guard();
        let mut g_next = guards.guard();
        let phase = mem.local(PHASE);
        match phase {
            P_FIND_START | P_FIND_STEP | P_FIND_ADVANCE => {
                if phase == P_FIND_START && mem.local(CONT) == 0 {
                    mem.set_local(CONT, P_DELETE_MARK);
                }
                find_step(shape, key, &mut mem, &mut g_prev, &mut g_cur, &mut g_next)
            }
            P_DELETE_MARK => {
                if mem.local(CKEY) != key {
                    return Ok(Step::Done(0));
                }
                let cur = g_cur.assume_protected::<ListNode>(mem.local(CUR));
                let next = TaggedPtr::from_word(mem.local(NEXT));
                debug_assert!(!next.marked());
                // Logical delete is a tag flip, not an unlink: `cas_word`
                // can never mint an `Unlinked` proof.
                match cur.link::<ListNode>(NODE_NEXT).cas_word(
                    &mut mem,
                    next.word(),
                    next.with_mark(true).word(),
                )? {
                    Ok(_) => {
                        mem.set_local(PHASE, P_DELETE_UNLINK);
                        Ok(Step::Continue)
                    }
                    Err(_) => {
                        // Someone moved `cur.next` (insert after cur, or a
                        // competing delete): search again.
                        mem.set_local(PHASE, P_FIND_START);
                        Ok(Step::Continue)
                    }
                }
            }
            P_DELETE_UNLINK => {
                let prev = g_prev.assume_protected::<ListNode>(mem.local(PREV));
                let cur = g_cur.assume_protected::<ListNode>(mem.local(CUR));
                let next = TaggedPtr::from_word(mem.local(NEXT));
                match prev.link::<ListNode>(NODE_NEXT).cas_unlink(
                    &mut mem,
                    cur,
                    next.addr().raw(),
                )? {
                    Ok(unlinked) => {
                        unlinked.retire(&mut mem)?;
                        Ok(Step::Done(1))
                    }
                    Err(_) => {
                        // Let the helping find unlink it; rerun the search
                        // purely for physical cleanup, then report success.
                        mem.set_local(CONT, P_DONE_OK);
                        mem.set_local(PHASE, P_FIND_START);
                        Ok(Step::Continue)
                    }
                }
            }
            P_DONE_OK => Ok(Step::Done(1)),
            other => unreachable!("delete phase {other}"),
        }
    }
}

/// High-level handle bundling the shape with convenience methods.
#[derive(Debug)]
pub struct LockFreeList {
    shape: ListShape,
    heap: Arc<Heap>,
}

impl LockFreeList {
    /// Creates an empty list on `heap`.
    pub fn new(heap: Arc<Heap>) -> Self {
        let shape = ListShape::new_untimed(&heap);
        Self { shape, heap }
    }

    /// The copyable shape (for building `'static` operation bodies).
    pub fn shape(&self) -> ListShape {
        self.shape
    }

    /// The heap this list lives on.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Membership test through a scheme executor.
    pub fn contains(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, key: u64) -> bool {
        let mut body = contains_body(self.shape, key);
        th.run_op(cpu, OP_CONTAINS, LIST_SLOTS, &mut body) == 1
    }

    /// Insert through a scheme executor.
    pub fn insert(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, key: u64) -> bool {
        let mut body = insert_body(self.shape, key);
        th.run_op(cpu, OP_INSERT, LIST_SLOTS, &mut body) == 1
    }

    /// Delete through a scheme executor.
    pub fn delete(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, key: u64) -> bool {
        let mut body = delete_body(self.shape, key);
        th.run_op(cpu, OP_DELETE, LIST_SLOTS, &mut body) == 1
    }

    /// Current key set (untimed snapshot).
    pub fn collect_keys(&self) -> Vec<u64> {
        self.shape.collect_keys_untimed(&self.heap)
    }

    /// Structural invariant check.
    pub fn check_invariants(&self) {
        self.shape.check_invariants_untimed(&self.heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{all_scheme_factories, scheme_env, test_cpu};
    use st_reclaim::Scheme;

    #[test]
    fn untimed_population_and_snapshot() {
        let (heap, _) = scheme_env();
        let shape = ListShape::new_untimed(&heap);
        for k in [5u64, 1, 9, 3] {
            assert!(shape.insert_untimed(&heap, k));
        }
        assert!(!shape.insert_untimed(&heap, 5), "duplicate rejected");
        assert_eq!(shape.collect_keys_untimed(&heap), vec![1, 3, 5, 9]);
        shape.check_invariants_untimed(&heap);
    }

    #[test]
    fn set_semantics_under_every_scheme() {
        for scheme in Scheme::all() {
            let (factory, heap) = all_scheme_factories(scheme, 1);
            let list = LockFreeList::new(heap);
            let mut th = factory.thread(0);
            let mut cpu = test_cpu(0);

            assert!(!list.contains(th.as_mut(), &mut cpu, 7), "{scheme:?}");
            assert!(list.insert(th.as_mut(), &mut cpu, 7), "{scheme:?}");
            assert!(!list.insert(th.as_mut(), &mut cpu, 7), "{scheme:?} dup");
            assert!(list.contains(th.as_mut(), &mut cpu, 7), "{scheme:?}");
            assert!(list.insert(th.as_mut(), &mut cpu, 3), "{scheme:?}");
            assert!(list.insert(th.as_mut(), &mut cpu, 11), "{scheme:?}");
            assert_eq!(list.collect_keys(), vec![3, 7, 11], "{scheme:?}");
            assert!(list.delete(th.as_mut(), &mut cpu, 7), "{scheme:?}");
            assert!(!list.delete(th.as_mut(), &mut cpu, 7), "{scheme:?} gone");
            assert!(!list.contains(th.as_mut(), &mut cpu, 7), "{scheme:?}");
            assert_eq!(list.collect_keys(), vec![3, 11], "{scheme:?}");
            list.check_invariants();
            th.teardown(&mut cpu);
        }
    }

    #[test]
    fn deleted_nodes_are_reclaimed_by_stacktrack() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let list = LockFreeList::new(heap.clone());
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        let live_before = heap.stats().alloc.live_objects;
        for k in 1..=50u64 {
            assert!(list.insert(th.as_mut(), &mut cpu, k));
        }
        for k in 1..=50u64 {
            assert!(list.delete(th.as_mut(), &mut cpu, k));
        }
        th.teardown(&mut cpu);
        assert_eq!(
            heap.stats().alloc.live_objects,
            live_before,
            "all 50 nodes must be reclaimed"
        );
        assert_eq!(list.collect_keys(), Vec::<u64>::new());
    }

    #[test]
    fn interleaved_mutators_keep_the_list_sound() {
        // Two threads stepping operation-by-operation through the same
        // keys under StackTrack; determinism comes from manual stepping.
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 2);
        let list = LockFreeList::new(heap);
        let mut a = factory.thread(0);
        let mut b = factory.thread(1);
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);

        let shape = list.shape();
        for round in 0..30u64 {
            let ka = round % 10 + 1;
            let kb = round % 7 + 1;
            let mut body_a = insert_body(shape, ka);
            let mut body_b = delete_body(shape, kb);
            while a.idle_work_pending() {
                a.step_idle(&mut cpu_a);
            }
            while b.idle_work_pending() {
                b.step_idle(&mut cpu_b);
            }
            a.begin_op(&mut cpu_a, OP_INSERT, LIST_SLOTS);
            b.begin_op(&mut cpu_b, OP_DELETE, LIST_SLOTS);
            let mut done_a = false;
            let mut done_b = false;
            while !done_a || !done_b {
                if !done_a {
                    done_a = a.step_op(&mut cpu_a, &mut body_a).is_some();
                }
                if !done_b {
                    done_b = b.step_op(&mut cpu_b, &mut body_b).is_some();
                }
            }
            list.check_invariants();
        }
    }
}
