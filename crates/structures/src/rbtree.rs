//! A red-black tree with StackTrack-instrumented searches — the paper's
//! running example (Algorithm 3 instruments `REDBLACK_TREE_SEARCH`
//! "since it generates short code blocks, which best illustrate the
//! instrumentation").
//!
//! Concurrency model: **transactional readers, single mutator**. Searches
//! descend one node per basic block, exactly as Algorithm 3 shows, and are
//! strictly serializable under StackTrack (each search is a chain of
//! hardware transactions; any concurrent mutation conflicts and aborts the
//! reader's segment, which retries). Mutations take a writer lock and
//! perform the whole CLRS insert/delete — rotations, recolorings,
//! successor moves — in a single basic block, so they are atomic at the
//! simulated machine's segment granularity; deleted nodes are retired
//! through the active reclamation scheme.
//!
//! Under fence-based schemes (hazard pointers, epoch) the same search body
//! is merely non-blocking and memory-safe: a search racing a rotation can
//! miss a key that is concurrently relocated. That contrast — transactions
//! give readers serializability for free where manual schemes give only
//! safety — is the paper's motivating observation, demonstrated here as a
//! test (`transactional_searches_are_serializable`).
//!
//! Node layout (5 words): `[key, color, left, right, parent]`, with a
//! per-tree NIL sentinel standing in for leaf children (CLRS style; the
//! delete fixup scribbles `parent` into it, which is why it is a real
//! node).
//!
//! Written against the typed reclamation API (`st_reclaim::mem`). The
//! search descends hand-over-self with [`Guard::rotate_load`]; writers
//! take the anchor lock through [`Field::cas`], mint an
//! [`Exclusive`] witness for the plain loads and stores of the locked
//! section, and delete proves its retire with
//! [`Unlinked::assume_unlinked`] — the single writer owns the unlink it
//! just performed. Every typed call lowers to the identical raw
//! [`OpMem`] call the pre-migration code made, so instruction-level
//! traces (and the committed benchmark figures) are unchanged.

use st_machine::Cpu;
use st_reclaim::mem::{
    Atomic, Exclusive, Field, Guard, GuardPool, GuardRequirement, Mem, NodeType, Unlinked,
};
use st_simheap::{Addr, Heap, Word};
use st_simhtm::Abort;
use stacktrack::{OpMem, Step};

/// Search operation id.
pub const OP_SEARCH: u32 = 0;
/// Insert operation id.
pub const OP_INSERT: u32 = 1;
/// Delete operation id.
pub const OP_DELETE: u32 = 2;

/// Key word offset.
pub const NODE_KEY: u64 = 0;
/// Color word offset (0 = black, 1 = red).
pub const NODE_COLOR: u64 = 1;
/// Left-child word offset.
pub const NODE_LEFT: u64 = 2;
/// Right-child word offset.
pub const NODE_RIGHT: u64 = 3;
/// Parent word offset.
pub const NODE_PARENT: u64 = 4;
/// Node size in words.
pub const NODE_WORDS: usize = 5;

/// Type tag for tree nodes in the typed reclamation API.
#[derive(Debug, Clone, Copy)]
pub struct RbNode;

impl NodeType for RbNode {
    const WORDS: usize = NODE_WORDS;
}

const BLACK: Word = 0;
const RED: Word = 1;

/// Anchor layout: `[writer lock, root]`.
const A_LOCK: u64 = 0;
const A_ROOT: u64 = 1;

/// Shadow-stack slots used by tree operations.
pub const RB_SLOTS: usize = 2;
/// Guard slots used by tree operations.
pub const RB_GUARDS: usize = 2;

/// The tree's declared guard requirement: the search's root-load guard
/// plus the hand-over-self descent guard.
pub const fn guard_requirement() -> GuardRequirement {
    GuardRequirement::new(RB_GUARDS)
}

const CUR: usize = 0;

/// The shared shape of one tree: anchor and NIL sentinel addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbShape {
    /// Two-word anchor: `[lock, root]`.
    pub anchor: Addr,
    /// The tree's NIL sentinel (black, key 0).
    pub nil: Addr,
}

impl RbShape {
    /// Allocates an empty tree (untimed; setup).
    pub fn new_untimed(heap: &Heap) -> Self {
        let anchor = heap.alloc_untimed(2).expect("heap too small for rb anchor");
        let nil = heap
            .alloc_untimed(NODE_WORDS)
            .expect("heap too small for rb sentinel");
        heap.poke(nil, NODE_COLOR, BLACK);
        heap.poke(anchor, A_ROOT, nil.raw());
        Self { anchor, nil }
    }

    /// Collects keys in order (untimed; tests).
    pub fn collect_keys_untimed(&self, heap: &Heap) -> Vec<u64> {
        let mut out = Vec::new();
        self.inorder(
            heap,
            Addr::from_raw(heap.peek(self.anchor, A_ROOT)),
            &mut out,
        );
        out
    }

    fn inorder(&self, heap: &Heap, node: Addr, out: &mut Vec<u64>) {
        if node == self.nil {
            return;
        }
        self.inorder(heap, Addr::from_raw(heap.peek(node, NODE_LEFT)), out);
        out.push(heap.peek(node, NODE_KEY));
        self.inorder(heap, Addr::from_raw(heap.peek(node, NODE_RIGHT)), out);
    }

    /// Checks the red-black invariants: BST order, no red node with a red
    /// child, equal black height on every path, black root.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_invariants_untimed(&self, heap: &Heap) {
        let root = Addr::from_raw(heap.peek(self.anchor, A_ROOT));
        if root != self.nil {
            assert_eq!(heap.peek(root, NODE_COLOR), BLACK, "root must be black");
        }
        self.check_node(heap, root, 0, u64::MAX);
    }

    /// Returns the black height of `node`'s subtree.
    fn check_node(&self, heap: &Heap, node: Addr, min: u64, max: u64) -> u64 {
        if node == self.nil {
            return 1;
        }
        assert!(heap.is_live(node), "reachable node {node:?} must be live");
        let key = heap.peek(node, NODE_KEY);
        assert!(min <= key && key <= max, "BST order violated at {node:?}");
        let color = heap.peek(node, NODE_COLOR);
        let left = Addr::from_raw(heap.peek(node, NODE_LEFT));
        let right = Addr::from_raw(heap.peek(node, NODE_RIGHT));
        if color == RED {
            for child in [left, right] {
                if child != self.nil {
                    assert_eq!(
                        heap.peek(child, NODE_COLOR),
                        BLACK,
                        "red-red violation under {node:?}"
                    );
                }
            }
        }
        let lh = self.check_node(heap, left, min, key.saturating_sub(1));
        let rh = self.check_node(heap, right, key + 1, max);
        assert_eq!(lh, rh, "black-height mismatch at {node:?}");
        lh + u64::from(color == BLACK)
    }
}

/// Body of `search(key)` — the paper's Algorithm 3: one comparison (one
/// basic block, one checkpoint) per tree level.
pub fn search_body(
    shape: RbShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let mut g_root: Guard = guards.guard();
        let mut g_cur: Guard = guards.guard();
        let cur = mem.local(CUR);
        let node = if cur == 0 {
            // SPLIT_START equivalent: load the root.
            Atomic::<RbNode>::root(shape.anchor, A_ROOT).load(&mut mem, &mut g_root)?
        } else {
            // The descent guard still announces `cur` from the previous
            // block's rotation (the shadow stack replays it on restart).
            g_cur.assume_protected(cur)
        };
        if node.addr() == shape.nil {
            return Ok(Step::Done(0));
        }
        let nkey = node.read(&mut mem, NODE_KEY)?;
        if nkey == key {
            return Ok(Step::Done(1));
        }
        let side = if key < nkey { NODE_LEFT } else { NODE_RIGHT };
        let node_addr = node.addr();
        // Hand-over-self: the guard protecting `node` rotates onto the
        // child it reads out of `node`.
        let child = g_cur.rotate_load::<RbNode>(&mut mem, node_addr, side)?;
        mem.set_local(CUR, child.word());
        Ok(Step::Continue)
    }
}

// ----------------------------------------------------------------------
// Writer-side helpers (run inside the single mutation block).
// ----------------------------------------------------------------------

/// The writer's view: the typed memory handle plus the [`Exclusive`]
/// witness minted after winning the anchor lock. Every plain node access
/// below names the witness, so its soundness traces to the one lock
/// acquisition; the anchor's own words (lock, root) go through [`Field`].
struct W<'m, 'c> {
    mem: Mem<'m, 'c>,
    excl: Exclusive<RbNode>,
    shape: RbShape,
}

impl W<'_, '_> {
    fn get(&mut self, n: Addr, off: u64) -> Result<Addr, Abort> {
        Ok(Addr::from_raw(self.excl.read(&mut self.mem, n, off)?))
    }

    fn set(&mut self, n: Addr, off: u64, v: Addr) -> Result<(), Abort> {
        self.excl.write(&mut self.mem, n, off, v.raw())
    }

    fn key(&mut self, n: Addr) -> Result<u64, Abort> {
        self.excl.read(&mut self.mem, n, NODE_KEY)
    }

    fn color(&mut self, n: Addr) -> Result<Word, Abort> {
        self.excl.read(&mut self.mem, n, NODE_COLOR)
    }

    fn set_color(&mut self, n: Addr, c: Word) -> Result<(), Abort> {
        self.excl.write(&mut self.mem, n, NODE_COLOR, c)
    }

    fn root(&mut self) -> Result<Addr, Abort> {
        Ok(Addr::from_raw(
            Field::root(self.shape.anchor, A_ROOT).read(&mut self.mem)?,
        ))
    }

    fn set_root(&mut self, n: Addr) -> Result<(), Abort> {
        Field::root(self.shape.anchor, A_ROOT).write(&mut self.mem, n.raw())
    }

    /// Releases the writer lock — the [`Exclusive`] witness must not be
    /// used past this store (`self` methods all borrow it, so dropping
    /// `W` right after is the enforcement in practice).
    fn unlock(&mut self) -> Result<(), Abort> {
        Field::root(self.shape.anchor, A_LOCK).write(&mut self.mem, 0)
    }

    /// Replaces `u` by `v` in `u`'s parent (or the root).
    fn transplant(&mut self, u: Addr, v: Addr) -> Result<(), Abort> {
        let p = self.get(u, NODE_PARENT)?;
        if p.is_null() {
            self.set_root(v)?;
        } else if self.get(p, NODE_LEFT)? == u {
            self.set(p, NODE_LEFT, v)?;
        } else {
            self.set(p, NODE_RIGHT, v)?;
        }
        self.set(v, NODE_PARENT, p)
    }

    fn rotate(&mut self, x: Addr, left: bool) -> Result<(), Abort> {
        let (near, far) = if left {
            (NODE_RIGHT, NODE_LEFT)
        } else {
            (NODE_LEFT, NODE_RIGHT)
        };
        let y = self.get(x, near)?;
        let beta = self.get(y, far)?;
        self.set(x, near, beta)?;
        if beta != self.shape.nil {
            self.set(beta, NODE_PARENT, x)?;
        }
        let p = self.get(x, NODE_PARENT)?;
        self.set(y, NODE_PARENT, p)?;
        if p.is_null() {
            self.set_root(y)?;
        } else if self.get(p, NODE_LEFT)? == x {
            self.set(p, NODE_LEFT, y)?;
        } else {
            self.set(p, NODE_RIGHT, y)?;
        }
        self.set(y, far, x)?;
        self.set(x, NODE_PARENT, y)
    }

    /// CLRS RB-INSERT-FIXUP.
    fn insert_fixup(&mut self, mut z: Addr) -> Result<(), Abort> {
        loop {
            let p = self.get(z, NODE_PARENT)?;
            if p.is_null() || self.color(p)? == BLACK {
                break;
            }
            let g = self.get(p, NODE_PARENT)?;
            let p_is_left = self.get(g, NODE_LEFT)? == p;
            let uncle = self.get(g, if p_is_left { NODE_RIGHT } else { NODE_LEFT })?;
            if uncle != self.shape.nil && self.color(uncle)? == RED {
                self.set_color(p, BLACK)?;
                self.set_color(uncle, BLACK)?;
                self.set_color(g, RED)?;
                z = g;
            } else {
                let z_inner = if p_is_left {
                    self.get(p, NODE_RIGHT)? == z
                } else {
                    self.get(p, NODE_LEFT)? == z
                };
                if z_inner {
                    z = p;
                    self.rotate(z, p_is_left)?;
                }
                let p2 = self.get(z, NODE_PARENT)?;
                let g2 = self.get(p2, NODE_PARENT)?;
                self.set_color(p2, BLACK)?;
                self.set_color(g2, RED)?;
                self.rotate(g2, !p_is_left)?;
            }
        }
        let root = self.root()?;
        self.set_color(root, BLACK)
    }

    /// CLRS RB-DELETE-FIXUP, starting at `x` (which may be the NIL
    /// sentinel; its parent field was set by the caller).
    fn delete_fixup(&mut self, mut x: Addr) -> Result<(), Abort> {
        loop {
            let root = self.root()?;
            if x == root || self.color(x)? == RED {
                break;
            }
            let p = self.get(x, NODE_PARENT)?;
            let x_is_left = self.get(p, NODE_LEFT)? == x;
            let (near, far) = if x_is_left {
                (NODE_LEFT, NODE_RIGHT)
            } else {
                (NODE_RIGHT, NODE_LEFT)
            };
            let mut w = self.get(p, far)?;
            if self.color(w)? == RED {
                self.set_color(w, BLACK)?;
                self.set_color(p, RED)?;
                self.rotate(p, x_is_left)?;
                w = self.get(p, far)?;
            }
            let w_near = self.get(w, near)?;
            let w_far = self.get(w, far)?;
            let near_black = w_near == self.shape.nil || self.color(w_near)? == BLACK;
            let far_black = w_far == self.shape.nil || self.color(w_far)? == BLACK;
            if near_black && far_black {
                self.set_color(w, RED)?;
                x = p;
            } else {
                if far_black {
                    if w_near != self.shape.nil {
                        self.set_color(w_near, BLACK)?;
                    }
                    self.set_color(w, RED)?;
                    self.rotate(w, !x_is_left)?;
                    w = self.get(p, far)?;
                }
                let pc = self.color(p)?;
                self.set_color(w, pc)?;
                self.set_color(p, BLACK)?;
                let w_far2 = self.get(w, far)?;
                if w_far2 != self.shape.nil {
                    self.set_color(w_far2, BLACK)?;
                }
                self.rotate(p, x_is_left)?;
                x = self.root()?;
            }
        }
        if x != self.shape.nil {
            self.set_color(x, BLACK)?;
        }
        Ok(())
    }
}

/// Body of `insert(key)`: 1 if inserted, 0 if present. The whole mutation
/// (descent, link, fixup) is one basic block under a writer lock.
pub fn insert_body(
    shape: RbShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        // Writer lock: buffered under StackTrack (conflict detection
        // arbitrates), immediate elsewhere (the block is atomic anyway).
        if Field::root(shape.anchor, A_LOCK)
            .cas(&mut mem, 0, 1)?
            .is_err()
        {
            return Ok(Step::Continue); // spin
        }
        let mut w = W {
            mem,
            excl: Exclusive::assume_exclusive(),
            shape,
        };

        // Standard BST descent.
        let mut parent = Addr(0);
        let mut cur = w.root()?;
        while cur != shape.nil {
            let ck = w.key(cur)?;
            if ck == key {
                w.unlock()?;
                return Ok(Step::Done(0));
            }
            parent = cur;
            cur = w.get(cur, if key < ck { NODE_LEFT } else { NODE_RIGHT })?;
        }

        let node = w.mem.alloc::<RbNode>();
        node.store(&mut w.mem, NODE_KEY, key)?;
        node.store(&mut w.mem, NODE_COLOR, RED)?;
        node.store(&mut w.mem, NODE_LEFT, shape.nil.raw())?;
        node.store(&mut w.mem, NODE_RIGHT, shape.nil.raw())?;
        node.store(&mut w.mem, NODE_PARENT, parent.raw())?;
        let node_addr = node.addr();
        if parent.is_null() {
            w.excl.publish(&mut w.mem, shape.anchor, A_ROOT, node)?;
        } else if key < w.key(parent)? {
            w.excl.publish(&mut w.mem, parent, NODE_LEFT, node)?;
        } else {
            w.excl.publish(&mut w.mem, parent, NODE_RIGHT, node)?;
        }
        w.insert_fixup(node_addr)?;
        w.unlock()?;
        Ok(Step::Done(1))
    }
}

/// Body of `delete(key)`: 1 if removed, 0 if absent. The physically
/// removed node is retired through the reclamation scheme.
pub fn delete_body(
    shape: RbShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        if Field::root(shape.anchor, A_LOCK)
            .cas(&mut mem, 0, 1)?
            .is_err()
        {
            return Ok(Step::Continue);
        }
        let mut w = W {
            mem,
            excl: Exclusive::assume_exclusive(),
            shape,
        };

        // Find the node.
        let mut z = w.root()?;
        while z != shape.nil {
            let ck = w.key(z)?;
            if ck == key {
                break;
            }
            z = w.get(z, if key < ck { NODE_LEFT } else { NODE_RIGHT })?;
        }
        if z == shape.nil {
            w.unlock()?;
            return Ok(Step::Done(0));
        }

        // CLRS RB-DELETE. `y` is the node physically removed.
        let z_left = w.get(z, NODE_LEFT)?;
        let z_right = w.get(z, NODE_RIGHT)?;
        let (y, x, y_color) = if z_left == shape.nil {
            (z, z_right, w.color(z)?)
        } else if z_right == shape.nil {
            (z, z_left, w.color(z)?)
        } else {
            // Successor: minimum of the right subtree.
            let mut y = z_right;
            loop {
                let l = w.get(y, NODE_LEFT)?;
                if l == shape.nil {
                    break;
                }
                y = l;
            }
            (y, w.get(y, NODE_RIGHT)?, w.color(y)?)
        };

        if y == z {
            // x's parent must be correct even when x is the sentinel.
            let p = w.get(z, NODE_PARENT)?;
            w.transplant(z, x)?;
            if x == shape.nil {
                w.set(x, NODE_PARENT, p)?;
            }
        } else {
            // Splice y out of its place, then put it where z was.
            let y_parent = w.get(y, NODE_PARENT)?;
            if y_parent == z {
                w.set(x, NODE_PARENT, y)?;
            } else {
                w.transplant(y, x)?;
                let zr = w.get(z, NODE_RIGHT)?;
                w.set(y, NODE_RIGHT, zr)?;
                w.set(zr, NODE_PARENT, y)?;
            }
            w.transplant(z, y)?;
            let zl = w.get(z, NODE_LEFT)?;
            w.set(y, NODE_LEFT, zl)?;
            w.set(zl, NODE_PARENT, y)?;
            let zc = w.color(z)?;
            w.set_color(y, zc)?;
        }
        if y_color == BLACK {
            w.delete_fixup(x)?;
        }
        // The node cut out of the tree is `z` when y == z, else... also z:
        // CLRS moves y into z's position, so z is the unlinked node. The
        // single writer performed that unlink under the lock it still
        // holds, which is exactly the `assume_unlinked` proof obligation.
        Unlinked::<RbNode>::assume_unlinked(z.raw()).retire(&mut w.mem)?;
        w.unlock()?;
        Ok(Step::Done(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::DsOp::{Contains, Delete, Insert};
    use crate::testutil::{all_scheme_factories, test_cpu};
    use crate::StructureInstance;
    use st_reclaim::Scheme;

    #[test]
    fn set_semantics_and_balance_under_every_scheme() {
        for scheme in Scheme::all() {
            if scheme == Scheme::Dta {
                continue; // DTA is list-only by design.
            }
            let (factory, heap) = all_scheme_factories(scheme, 1);
            let shape = RbShape::new_untimed(&heap);
            let tree = StructureInstance::RbTree(shape);
            let mut th = factory.thread(0);
            let mut cpu = test_cpu(0);
            let mut run = |op| tree.run(th.as_mut(), &mut cpu, op) == 1;

            // Insert a shuffled sequence; check balance along the way.
            let keys = [50u64, 20, 70, 10, 30, 60, 80, 5, 15, 25, 35, 1, 90, 85, 95];
            for &k in &keys {
                assert!(run(Insert(k)), "{scheme:?} {k}");
                shape.check_invariants_untimed(&heap);
            }
            assert!(!run(Insert(30)), "{scheme:?} dup");
            for &k in &keys {
                assert!(run(Contains(k)), "{scheme:?} {k}");
            }
            assert!(!run(Contains(41)), "{scheme:?}");

            // Delete half, checking balance after every removal.
            for &k in &[20u64, 70, 5, 95, 50, 30] {
                assert!(run(Delete(k)), "{scheme:?} {k}");
                shape.check_invariants_untimed(&heap);
                assert!(!run(Contains(k)), "{scheme:?} {k}");
            }
            let mut remaining: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|k| ![20, 70, 5, 95, 50, 30].contains(k))
                .collect();
            remaining.sort_unstable();
            assert_eq!(shape.collect_keys_untimed(&heap), remaining, "{scheme:?}");
            th.teardown(&mut cpu);
        }
    }

    #[test]
    fn deleted_nodes_are_reclaimed() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let shape = RbShape::new_untimed(&heap);
        let tree = StructureInstance::RbTree(shape);
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        let before = heap.stats().alloc.live_objects;
        for k in 1..=64u64 {
            assert_eq!(tree.run(th.as_mut(), &mut cpu, Insert(k)), 1);
        }
        for k in 1..=64u64 {
            assert_eq!(tree.run(th.as_mut(), &mut cpu, Delete(k)), 1);
            shape.check_invariants_untimed(&heap);
        }
        th.teardown(&mut cpu);
        assert_eq!(heap.stats().alloc.live_objects, before);
        assert_eq!(shape.collect_keys_untimed(&heap), Vec::<u64>::new());
    }

    #[test]
    fn transactional_searches_are_serializable() {
        // A reader descends one node per block while a writer rotates the
        // tree under it; under StackTrack the reader's segments abort and
        // retry on conflict, so it never misses a key that is present
        // throughout.
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 2);
        let shape = RbShape::new_untimed(&heap);
        let tree = StructureInstance::RbTree(shape);
        let mut reader = factory.thread(0);
        let mut writer = factory.thread(1);
        let mut cpu_r = test_cpu(0);
        let mut cpu_w = test_cpu(1);

        for k in (10..=200u64).step_by(10) {
            assert_eq!(tree.run(writer.as_mut(), &mut cpu_w, Insert(k)), 1);
        }

        // Key 150 is present for the whole test; the writer churns other
        // keys to force rotations along the reader's path.
        let mut churn = 0u64;
        for round in 0..40 {
            let mut body = search_body(shape, 150);
            reader.begin_op(&mut cpu_r, OP_SEARCH, RB_SLOTS);
            let mut result = None;
            while result.is_none() {
                result = reader.step_op(&mut cpu_r, &mut body);
                // Interleave writer churn between reader blocks.
                churn += 1;
                let k = churn % 9 + 1; // keys 1..=9, near the root paths
                let op = if round % 2 == 0 { Insert(k) } else { Delete(k) };
                tree.run(writer.as_mut(), &mut cpu_w, op);
            }
            assert_eq!(result, Some(1), "round {round}: reader must find 150");
        }
        shape.check_invariants_untimed(&heap);
    }

    #[test]
    fn randomized_against_btreeset() {
        use std::collections::BTreeSet;
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let shape = RbShape::new_untimed(&heap);
        let tree = StructureInstance::RbTree(shape);
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);
        let mut run = |op| tree.run(th.as_mut(), &mut cpu, op) == 1;
        let mut oracle = BTreeSet::new();
        let mut rng = st_machine::Pcg32::new(99);

        for _ in 0..600 {
            let k = rng.below(100) + 1;
            match rng.below(3) {
                0 => assert_eq!(run(Insert(k)), oracle.insert(k)),
                1 => assert_eq!(run(Delete(k)), oracle.remove(&k)),
                _ => assert_eq!(run(Contains(k)), oracle.contains(&k)),
            }
        }
        shape.check_invariants_untimed(&heap);
        assert_eq!(
            shape.collect_keys_untimed(&heap),
            oracle.iter().copied().collect::<Vec<_>>()
        );
    }
}
