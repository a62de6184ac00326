//! The typed smart-pointer reclamation API.
//!
//! Structures used to be hand-wired to the reclaim layer through raw
//! guard indices (`G_PREV`/`G_CUR` constants rotated by hand) and untyped
//! [`OpMem::protect_slot`]/[`OpMem::retire_unlinked`] calls on raw words — each new
//! scheme × structure pairing worked only because a human re-audited every
//! protection point. This module replaces that convention with *types*,
//! in the shape of the reclamation-interface literature (Meyer & Wolff,
//! PAPERS.md) and the `conquer-reclaim` Treiber exemplar (SNIPPETS.md):
//!
//! | Type | Meaning | Enforced by |
//! |------|---------|-------------|
//! | [`Atomic<N>`] | a shared pointer word (a node link or a root) | loads go through scheme protection ([`OpMem::load_ptr`]) |
//! | [`Shared<'g, N>`] | a protected borrow of a node | tied to its [`Guard`]'s borrow — cannot outlive or out-rotate it |
//! | [`Owned<N>`] | a freshly allocated, unpublished node | consumed by publication; its drop path is [`OpMem::free_unpublished`] |
//! | [`Unlinked<N>`] | proof that a node was atomically unlinked | move-only; the **only** way to reach retire |
//!
//! Where `conquer-reclaim` makes the reclaimer a type parameter
//! (`Atomic<T, R>`), this repository dispatches it at runtime: the same
//! operation body runs under every [`crate::SchemeThread`], and the typed
//! layer compiles down to the *identical* [`OpMem`] instruction sequence
//! the hand-wired code issued — same calls, same order, same cycle
//! charges — so all eight schemes compose with zero per-scheme code and
//! the committed benchmark figures stay byte-identical. The node type
//! parameter `N` ([`NodeType`]) carries the layout instead.
//!
//! # Guards and the step machine
//!
//! Operation bodies are basic-block step closures: every block re-enters
//! from shadow-stack locals, and scheme-side guard state persists across
//! blocks. The typed layer mirrors that split:
//!
//! - Within a block, a [`GuardPool`] hands out [`Guard`] handles in
//!   declaration order (deterministic indices — the typed replacement for
//!   the `G_*` constants). [`Guard::shield`] announces a pointer and
//!   returns a [`Shared`] borrow; re-shielding needs `&mut Guard`, which
//!   the borrow checker refuses while a previous [`Shared`] is alive.
//! - Across blocks, pointers persist as words in shadow locals;
//!   [`Guard::assume_protected`] re-materializes the borrow in the next
//!   block. This is the one trust point of the API (see its docs) — it
//!   asserts what the previous block's types already proved.
//!
//! # Oracle attachment
//!
//! The typed layer is the generic hook point for the checker's oracles,
//! for any structure written against it, with no per-structure wiring:
//!
//! - **Use-after-free:** every deref ([`Shared::read`], [`Atomic::load`])
//!   funnels through [`OpMem::load`]/[`OpMem::load_ptr`], which the
//!   simulated heap's poison and speculative-read oracles instrument.
//! - **Heap ledger:** every retirement funnels through
//!   [`Unlinked::retire`] → [`OpMem::retire_unlinked`], whose scheme
//!   implementations report the pipeline-acceptance point to the heap's
//!   lifecycle ledger; [`Owned`] tokens dropped without being published
//!   or [`Owned::dispose`]d surface as leak-at-teardown.
//!
//! See `docs/MEMORY_API.md` for the full type map, lifetime rules, and
//! the migration guide from raw guards.

use st_machine::Cpu;
use st_simheap::{Addr, TaggedPtr, Word};
use st_simhtm::Abort;
use stacktrack::OpMem;
use std::marker::PhantomData;

/// Declares a node layout: how many heap words one node occupies.
///
/// Implemented by zero-sized marker types (one per structure node kind),
/// which parameterize [`Atomic`], [`Shared`], [`Owned`], and [`Unlinked`]
/// so links of different structures cannot be mixed up.
///
/// ```
/// use st_reclaim::mem::NodeType;
///
/// /// `[key, next]` — a Harris-list node.
/// #[derive(Clone, Copy)]
/// struct ListNode;
/// impl NodeType for ListNode {
///     const WORDS: usize = 2;
/// }
/// assert_eq!(ListNode::WORDS, 2);
/// ```
pub trait NodeType: Copy {
    /// Node size in heap words.
    const WORDS: usize;
}

/// How many guard slots a structure's operations need at once.
///
/// Declared once per structure (next to its node layout) and consumed by
/// [`crate::SchemeFactoryBuilder::guard_requirement`], which sizes the
/// per-thread guard slots from it — replacing the `2 * MAX_LEVEL + 2`
/// arithmetic that used to be copy-pasted into every harness. Harnesses
/// that run several structures (or must keep a determinism contract with
/// committed results) combine requirements with
/// [`GuardRequirement::max`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardRequirement {
    guards: usize,
}

impl GuardRequirement {
    /// A requirement of `guards` simultaneous guard slots.
    pub const fn new(guards: usize) -> Self {
        Self { guards }
    }

    /// The number of guard slots required.
    pub const fn guards(self) -> usize {
        self.guards
    }

    /// The pointwise maximum of two requirements (for harnesses driving
    /// more than one structure through one factory).
    pub const fn max(self, other: Self) -> Self {
        Self {
            guards: if self.guards >= other.guards {
                self.guards
            } else {
                other.guards
            },
        }
    }
}

/// Hands out the operation's [`Guard`] handles in declaration order.
///
/// Created fresh at the top of every basic block (it is plain bookkeeping
/// — no simulated work, no cycle charges): because handles are taken in
/// the same order each block, each guard re-acquires the same slot index
/// its protections were published under in earlier blocks.
pub struct GuardPool {
    next: usize,
    limit: usize,
}

impl GuardPool {
    /// A pool sized by the structure's declared requirement.
    pub fn new(requirement: GuardRequirement) -> Self {
        Self {
            next: 0,
            limit: requirement.guards(),
        }
    }

    /// Takes the next guard handle.
    ///
    /// # Panics
    ///
    /// Panics when the pool's declared requirement is exhausted — the
    /// structure is using more simultaneous guards than it declared, the
    /// bug the requirement exists to catch at the first test run instead
    /// of as a silent out-of-range hazard slot.
    pub fn guard(&mut self) -> Guard {
        assert!(
            self.next < self.limit,
            "guard requirement exhausted: operation takes more than {} guards",
            self.limit
        );
        let index = self.next;
        self.next += 1;
        Guard { index }
    }
}

/// One per-operation protection slot, owned by the operation body.
///
/// A guard covers **one pointer at a time**. Announcing a pointer
/// ([`Guard::shield`], or an [`Atomic::load`] through the guard) returns
/// a [`Shared`] borrow tied to this guard; announcing a *different*
/// pointer requires `&mut Guard` again, so the borrow checker rejects any
/// use of the stale borrow afterwards — the typed form of the rule that
/// rotating a guard slot invalidates what it used to protect.
pub struct Guard {
    index: usize,
}

impl Guard {
    /// The underlying scheme guard-slot index (deterministic: pool
    /// declaration order).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Announces an **already-protected or immortal** pointer word in
    /// this guard, returning the protected borrow.
    ///
    /// Compiles to exactly one [`OpMem::protect_slot`]: the value must still
    /// be covered — by another guard, by being a never-reclaimed root
    /// (sentinels), or by the enclosing scheme's stronger mechanism — for
    /// the fence-free re-announcement to be sound, exactly as the raw
    /// call required. Tag bits may be present; schemes strip them.
    pub fn shield<'g, N: NodeType>(
        &'g mut self,
        mem: &mut Mem<'_, '_>,
        word: Word,
    ) -> Shared<'g, N> {
        mem.op.protect_slot(mem.cpu, self.index, word);
        Shared {
            ptr: TaggedPtr::from_word(word),
            _guard: PhantomData,
            _node: PhantomData,
        }
    }

    /// Re-materializes a borrow for a pointer **this guard already
    /// protects**, without re-announcing it (no simulated work).
    ///
    /// This is the bridge across basic-block boundaries — and the one
    /// trust point of the typed API. The contract: `word` was shielded
    /// into (or loaded through) this guard in an earlier block of the
    /// same operation and the guard has not been rotated since; the
    /// caller typically just read it back from the shadow local it was
    /// stored to in that block. Passing any other word reintroduces the
    /// unprotected-deref bug class the API exists to prevent, so treat
    /// every call site as a (small, local) proof obligation.
    pub fn assume_protected<'g, N: NodeType>(&'g self, word: Word) -> Shared<'g, N> {
        Shared {
            ptr: TaggedPtr::from_word(word),
            _guard: PhantomData,
            _node: PhantomData,
        }
    }

    /// Loads the pointer at `base + off` **into this guard**, rotating it
    /// ([`OpMem::load_ptr`] with this guard's slot).
    ///
    /// This is the hand-over-*self* traversal step: the red-black tree's
    /// search walks root → child → grandchild keeping only one guard,
    /// loading each child link *out of the node this same guard currently
    /// protects*. The typed [`Atomic::load`] cannot express that — naming
    /// the link ([`Shared::link`]) keeps the old borrow alive while the
    /// load wants `&mut Guard`. `rotate_load` takes the base address as a
    /// raw [`Addr`] instead, after the old borrow is dead.
    ///
    /// The audited contract (the reason this is sound, and the reason it
    /// is an explicit bridge rather than the default): at the moment of
    /// the call, `base` must still be **covered** — by this guard's
    /// not-yet-replaced announcement, by another guard, or by being a
    /// never-reclaimed root. Hazard-style schemes read `base + off`
    /// *before* republishing the slot, and stores retire in order under
    /// TSO, so the base stays protected for the read exactly as in the
    /// raw rotation idiom ([`OpMem::protect_slot`]'s fence-free
    /// re-announcement argument). Taking `&mut self` makes the borrow
    /// checker kill every [`Shared`] this guard handed out before the
    /// rotation.
    pub fn rotate_load<'g, N: NodeType>(
        &'g mut self,
        mem: &mut Mem<'_, '_>,
        base: Addr,
        off: u64,
    ) -> Result<Shared<'g, N>, Abort> {
        let word = mem.op.load_ptr(mem.cpu, base, off, self.index)?;
        Ok(Shared {
            ptr: TaggedPtr::from_word(word),
            _guard: PhantomData,
            _node: PhantomData,
        })
    }
}

/// The typed view over one basic block's [`OpMem`] + [`Cpu`] pair.
///
/// Constructed at the top of the block from the body's two arguments;
/// every typed operation borrows it mutably and compiles to exactly one
/// raw [`OpMem`] call.
pub struct Mem<'m, 'c> {
    op: &'m mut dyn OpMem,
    cpu: &'c mut Cpu,
}

impl<'m, 'c> Mem<'m, 'c> {
    /// Wraps the body's raw arguments.
    pub fn new(op: &'m mut dyn OpMem, cpu: &'c mut Cpu) -> Self {
        Self { op, cpu }
    }

    /// Reads shadow-stack local `slot` ([`OpMem::get_local`]).
    pub fn local(&mut self, slot: usize) -> Word {
        self.op.get_local(self.cpu, slot)
    }

    /// Writes shadow-stack local `slot` ([`OpMem::set_local`]).
    pub fn set_local(&mut self, slot: usize, value: Word) {
        self.op.set_local(self.cpu, slot, value);
    }

    /// Allocates a zeroed, unpublished node ([`OpMem::alloc`]).
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted (a configuration error,
    /// as for the raw call).
    pub fn alloc<N: NodeType>(&mut self) -> Owned<N> {
        let addr = self.op.alloc(self.cpu, N::WORDS);
        Owned {
            addr,
            _node: PhantomData,
        }
    }

    /// Allocates a zeroed, unpublished node of `words` words
    /// ([`OpMem::alloc`]) — the variable-size form of [`Mem::alloc`] for
    /// layouts whose tail is sized at runtime, like the skip list's
    /// towers (`2 + height` words, with `N::WORDS` declaring the
    /// maximum).
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds `N::WORDS` (the declared layout is the
    /// upper bound every reader assumes) or if the simulated heap is
    /// exhausted (a configuration error, as for the raw call).
    pub fn alloc_var<N: NodeType>(&mut self, words: usize) -> Owned<N> {
        assert!(
            words <= N::WORDS,
            "alloc_var: {} words exceeds {}-word layout",
            words,
            N::WORDS
        );
        let addr = self.op.alloc(self.cpu, words);
        Owned {
            addr,
            _node: PhantomData,
        }
    }

    /// The simulated CPU (for body-side randomness or cycle queries;
    /// never needed for memory operations, which all charge through the
    /// typed methods).
    pub fn cpu(&mut self) -> &mut Cpu {
        self.cpu
    }
}

/// A typed shared pointer **location**: a heap word holding a (possibly
/// mark-tagged) pointer to an `N` node.
///
/// Obtained from a protected node's link field ([`Shared::link`]) or from
/// a never-reclaimed root ([`Atomic::root`]). Copyable — it names a
/// place, not a protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atomic<N: NodeType> {
    base: Addr,
    off: u64,
    _node: PhantomData<N>,
}

impl<N: NodeType> Atomic<N> {
    /// The pointer word at `base + off`, where `base` is a structure
    /// **root** (a sentinel or anchor that is never retired, so reading
    /// through it needs no protection of `base` itself).
    pub fn root(base: Addr, off: u64) -> Self {
        Self {
            base,
            off,
            _node: PhantomData,
        }
    }

    /// Loads the pointer through scheme protection into `guard`
    /// ([`OpMem::load_ptr`]): hazard-style schemes publish, fence, and
    /// revalidate internally; the returned borrow is protected for as
    /// long as the guard is not rotated.
    pub fn load<'g>(
        &self,
        mem: &mut Mem<'_, '_>,
        guard: &'g mut Guard,
    ) -> Result<Shared<'g, N>, Abort> {
        let word = mem.op.load_ptr(mem.cpu, self.base, self.off, guard.index)?;
        Ok(Shared {
            ptr: TaggedPtr::from_word(word),
            _guard: PhantomData,
            _node: PhantomData,
        })
    }

    /// Loads the pointer word **without announcing a protection**
    /// ([`OpMem::load`]), returning the raw word.
    ///
    /// This is the typed form of a *validation read*: re-reading a
    /// location to decide whether an earlier snapshot is still current
    /// (the Michael-Scott queue re-reads the head/tail anchor words this
    /// way). The word must not be dereferenced — there is no [`Shared`]
    /// borrow here, and constructing one from the result would need a
    /// [`Guard`] announcement. Use it only to compare against words that
    /// are already protected (or to observe nullness/marks).
    pub fn load_word(&self, mem: &mut Mem<'_, '_>) -> Result<Word, Abort> {
        mem.op.load(mem.cpu, self.base, self.off)
    }

    /// Raw-word compare-and-swap on the location ([`OpMem::cas`]):
    /// `Ok(Ok(prev))` on success, `Ok(Err(actual))` on mismatch.
    ///
    /// For tag flips (Harris delete marks) and other in-place updates
    /// that neither unlink nor publish a node — it can never mint an
    /// [`Unlinked`] token or consume an [`Owned`] one.
    pub fn cas_word(
        &self,
        mem: &mut Mem<'_, '_>,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort> {
        mem.op.cas(mem.cpu, self.base, self.off, expected, new)
    }

    /// The unlinking compare-and-swap: swings this location past
    /// `victim` (from `victim`'s address word to `new`), and on success
    /// mints the **unique proof of unlink** — the only value in the API
    /// from which retire is reachable.
    ///
    /// On mismatch returns the actual word; the victim stays linked and
    /// no token exists, so it cannot be retired.
    pub fn cas_unlink(
        &self,
        mem: &mut Mem<'_, '_>,
        victim: Shared<'_, N>,
        new: Word,
    ) -> Result<Result<Unlinked<N>, Word>, Abort> {
        match mem
            .op
            .cas(mem.cpu, self.base, self.off, victim.ptr.word(), new)?
        {
            Ok(_prev) => Ok(Ok(Unlinked {
                addr: victim.ptr.addr(),
                _node: PhantomData,
            })),
            Err(actual) => Ok(Err(actual)),
        }
    }

    /// A **helping** physical unlink: swings this location past `victim`
    /// exactly like [`Atomic::cas_unlink`], but mints **no**
    /// [`Unlinked`] proof — the victim is *not* handed to reclamation by
    /// this call.
    ///
    /// For protocols where unlink responsibility and retire
    /// responsibility are split: in the skip list, any traversal may snip
    /// a marked node out of an upper level (helping), but only the thread
    /// whose mark CAS won at the bottom level owns the retire (minted
    /// through [`Unlinked::assume_unlinked`] once its cleanup pass
    /// completes). Taking `victim` by reference keeps the borrow alive —
    /// the caller can keep reading through it, which is exactly right:
    /// a snipped node is still protected and still readable.
    ///
    /// Lowers to the identical single [`OpMem::cas`] as `cas_unlink`.
    pub fn cas_snip(
        &self,
        mem: &mut Mem<'_, '_>,
        victim: &Shared<'_, N>,
        new: Word,
    ) -> Result<Result<(), Word>, Abort> {
        match mem
            .op
            .cas(mem.cpu, self.base, self.off, victim.ptr.word(), new)?
        {
            Ok(_prev) => Ok(Ok(())),
            Err(actual) => Ok(Err(actual)),
        }
    }

    /// The publishing compare-and-swap: installs the unpublished `node`
    /// (consuming its [`Owned`] token — once other threads can reach it,
    /// the unpublished drop path is gone forever). On mismatch the token
    /// comes back with the actual word, for retry or disposal.
    pub fn cas_publish(
        &self,
        mem: &mut Mem<'_, '_>,
        expected: Word,
        node: Owned<N>,
    ) -> Result<Result<(), (Owned<N>, Word)>, Abort> {
        match mem
            .op
            .cas(mem.cpu, self.base, self.off, expected, node.addr.raw())?
        {
            Ok(_prev) => Ok(Ok(())),
            Err(actual) => Ok(Err((node, actual))),
        }
    }
}

/// A protected borrow of an `N` node (possibly carrying the Harris
/// deletion mark), valid for `'g` — the borrow of the [`Guard`] that
/// protects it.
///
/// Not `Copy`/`Clone`: consuming operations ([`Atomic::cas_unlink`])
/// take it by value, ending the guard borrow so the guard can rotate.
#[derive(Debug)]
pub struct Shared<'g, N: NodeType> {
    ptr: TaggedPtr,
    _guard: PhantomData<&'g Guard>,
    _node: PhantomData<N>,
}

impl<'g, N: NodeType> Shared<'g, N> {
    /// The raw pointer word, tag bits included.
    pub fn word(&self) -> Word {
        self.ptr.word()
    }

    /// The node address, tag bits stripped.
    pub fn addr(&self) -> Addr {
        self.ptr.addr()
    }

    /// The node address as an (untagged) pointer word — what gets stored
    /// into shadow locals and shielded into rotating guards.
    pub fn addr_word(&self) -> Word {
        self.ptr.addr().raw()
    }

    /// Whether the Harris deletion mark is set on this pointer.
    pub fn marked(&self) -> bool {
        self.ptr.marked()
    }

    /// Whether the address part is null.
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// The underlying tagged-pointer view.
    pub fn tagged(&self) -> TaggedPtr {
        self.ptr
    }

    /// Reads a data word of the node ([`OpMem::load`]) — the typed deref.
    /// Every read through a `Shared` is what the heap's poison and
    /// speculative-read use-after-free oracles instrument.
    pub fn read(&self, mem: &mut Mem<'_, '_>, off: u64) -> Result<Word, Abort> {
        mem.op.load(mem.cpu, self.ptr.addr(), off)
    }

    /// The node's link field at word `off`, as a typed location pointing
    /// at `M` nodes — protected access to the node makes naming its
    /// fields safe.
    pub fn link<M: NodeType>(&self, off: u64) -> Atomic<M> {
        Atomic {
            base: self.ptr.addr(),
            off,
            _node: PhantomData,
        }
    }
}

/// A freshly allocated node no other thread can reach yet.
///
/// Move-only: publication ([`Atomic::cas_publish`]) consumes it, and the
/// not-published drop path is [`Owned::dispose`] →
/// [`OpMem::free_unpublished`]. A token abandoned without either (other
/// than by [`Owned::stash`]ing it to a shadow local for a later block) is
/// a leak, and shows up as exactly that in the heap ledger's
/// leak-at-teardown oracle.
#[derive(Debug)]
pub struct Owned<N: NodeType> {
    addr: Addr,
    _node: PhantomData<N>,
}

impl<N: NodeType> Owned<N> {
    /// The node address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The address as a pointer word (for link stores and stashing).
    pub fn word(&self) -> Word {
        self.addr.raw()
    }

    /// Initializes a word of the unpublished node ([`OpMem::store`]).
    pub fn store(&self, mem: &mut Mem<'_, '_>, off: u64, value: Word) -> Result<(), Abort> {
        mem.op.store(mem.cpu, self.addr, off, value)
    }

    /// Consumes the token into a plain word for a shadow local — the
    /// step-machine bridge for keeping an unpublished node across basic
    /// blocks (e.g. retrying a lost insert without reallocating).
    /// Re-materialize it with [`Owned::unstash`] in a later block.
    pub fn stash(self) -> Word {
        self.addr.raw()
    }

    /// Re-materializes a token stashed by [`Owned::stash`]; `None` for
    /// the zero word (no node stashed). The contract mirrors
    /// [`Guard::assume_protected`]: the word must come from a stash of
    /// the same operation, still unpublished.
    pub fn unstash(word: Word) -> Option<Self> {
        if word == 0 {
            None
        } else {
            Some(Self {
                addr: Addr::from_raw(word),
                _node: PhantomData,
            })
        }
    }

    /// Returns the never-published node to the allocator
    /// ([`OpMem::free_unpublished`]) — the drop path for a node whose
    /// publication was abandoned (duplicate key found, operation gave
    /// up).
    pub fn dispose(self, mem: &mut Mem<'_, '_>) -> Result<(), Abort> {
        mem.op.free_unpublished(mem.cpu, self.addr)
    }
}

/// The unique proof that a node was atomically unlinked — and therefore
/// the **only** way to reach [`OpMem::retire_unlinked`].
///
/// Minted solely by [`Atomic::cas_unlink`] on CAS success; move-only, so
/// the node can be retired at most once (a second retire is a
/// use-of-moved-value compile error — see the `compile_fail` tests in
/// this module's documentation tests and `docs/MEMORY_API.md`).
#[derive(Debug)]
#[must_use = "an unlinked node must be retired (or the structure leaks it)"]
pub struct Unlinked<N: NodeType> {
    addr: Addr,
    _node: PhantomData<N>,
}

impl<N: NodeType> Unlinked<N> {
    /// The unlinked node's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Mints the unlink proof from a word, **asserting** the unlink
    /// happened in this operation — the deferred-ownership bridge, and
    /// (with [`Guard::assume_protected`]) one of the API's two trust
    /// points.
    ///
    /// Some protocols separate the CAS that *decides* a node's fate from
    /// the point where its retire becomes safe: in the skip list, the
    /// bottom-level mark CAS makes its winner the node's sole owner, but
    /// the owner may only retire after a cleanup search has snipped the
    /// node out of every level; in the red-black tree, the transplant
    /// store under the writer lock unlinks the victim without any CAS at
    /// all. Neither point is a `cas_unlink`, so the proof cannot be
    /// minted there — this constructor asserts it instead.
    ///
    /// The audited contract, with the same rigor as [`Owned::stash`]:
    /// `word` is a node this operation **won sole unlink responsibility
    /// for** earlier in the same operation (a mark CAS it won, an
    /// exclusive-section unlink it performed), every link to the node has
    /// been severed, and no other code path can mint a proof for the same
    /// node. Violating any clause reintroduces double-retire or
    /// retire-while-linked — exactly the bug class the token exists to
    /// prevent — so treat every call site as a proof obligation and keep
    /// it next to the protocol step that discharges it.
    pub fn assume_unlinked(word: Word) -> Self {
        Self {
            addr: Addr::from_raw(word),
            _node: PhantomData,
        }
    }

    /// Hands the node to the reclamation scheme
    /// ([`OpMem::retire_unlinked`]), consuming the proof. Must run in the
    /// same basic block as the unlink CAS (the raw contract, unchanged:
    /// StackTrack commits the segment to make unlink + retire atomic).
    ///
    /// This consumption point is where the heap-ledger oracle attaches
    /// generically: every scheme's `retire_unlinked` implementation
    /// reports the pipeline-acceptance to the heap's lifecycle ledger.
    pub fn retire(self, mem: &mut Mem<'_, '_>) -> Result<(), Abort> {
        mem.op.retire_unlinked(mem.cpu, self.addr)
    }
}

/// A typed **control word**: a heap word that is state, not a pointer —
/// a writer lock, a version counter, an anchor flag.
///
/// [`Atomic`] deliberately cannot model these (its loads return pointer
/// borrows and its CASes mint/consume ownership tokens). `Field` is the
/// escape hatch for the handful of words a structure spins on: plain
/// loads, stores, and CASes with no protection and no tokens, each
/// lowering to exactly one raw call. The contract is the caller's: the
/// word must never be dereferenced as a pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    base: Addr,
    off: u64,
}

impl Field {
    /// The control word at `base + off`, where `base` is a structure
    /// root (never retired, so no protection is needed to address it).
    pub fn root(base: Addr, off: u64) -> Self {
        Self { base, off }
    }

    /// Reads the word ([`OpMem::load`]).
    pub fn read(&self, mem: &mut Mem<'_, '_>) -> Result<Word, Abort> {
        mem.op.load(mem.cpu, self.base, self.off)
    }

    /// Writes the word ([`OpMem::store`]).
    pub fn write(&self, mem: &mut Mem<'_, '_>, value: Word) -> Result<(), Abort> {
        mem.op.store(mem.cpu, self.base, self.off, value)
    }

    /// Compare-and-swap on the word ([`OpMem::cas`]): `Ok(Ok(prev))` on
    /// success, `Ok(Err(actual))` on mismatch.
    pub fn cas(
        &self,
        mem: &mut Mem<'_, '_>,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort> {
        mem.op.cas(mem.cpu, self.base, self.off, expected, new)
    }
}

/// A witness that this operation holds a structure-wide **mutual
/// exclusion** over `N` nodes — the single-writer bridge, and (with
/// [`Guard::assume_protected`] and [`Unlinked::assume_unlinked`]) one of
/// the API's trust points.
///
/// The red-black tree serializes writers behind a lock word
/// ([`Field::cas`] on its anchor): while held, no other writer mutates
/// the tree, so link updates are plain stores and node reads need no
/// per-pointer guard announcements. The witness makes that argument a
/// value: every exclusive read/write/publication names it, so the
/// soundness of each plain access is traceable to one acquisition point
/// instead of being diffused through the whole update path.
///
/// The audited contract, with the same rigor as [`Owned::stash`]: mint
/// the witness only after **winning** the exclusion acquisition (the
/// lock CAS) in this operation, re-mint it in later blocks only while
/// the lock is still held, and never let it outlive the release store.
/// Readers may still traverse concurrently — exclusion covers writers
/// only, so retired nodes still flow through [`Unlinked`] and the
/// scheme's deferral pipeline, never straight to the allocator.
#[derive(Debug)]
pub struct Exclusive<N: NodeType> {
    _node: PhantomData<N>,
}

impl<N: NodeType> Exclusive<N> {
    /// Mints the witness; see the type-level contract.
    pub fn assume_exclusive() -> Self {
        Self { _node: PhantomData }
    }

    /// Reads a word of node `node` ([`OpMem::load`]) under the
    /// exclusion.
    pub fn read(&self, mem: &mut Mem<'_, '_>, node: Addr, off: u64) -> Result<Word, Abort> {
        mem.op.load(mem.cpu, node, off)
    }

    /// Writes a word of node `node` ([`OpMem::store`]) under the
    /// exclusion — the plain-store link update exclusion makes sound.
    pub fn write(
        &self,
        mem: &mut Mem<'_, '_>,
        node: Addr,
        off: u64,
        value: Word,
    ) -> Result<(), Abort> {
        mem.op.store(mem.cpu, node, off, value)
    }

    /// Publishes the unpublished `node` by a plain store of its address
    /// into `base + off` ([`OpMem::store`]), consuming the [`Owned`]
    /// token — the exclusive-section counterpart of
    /// [`Atomic::cas_publish`] (no CAS is needed: the witness says no
    /// competing writer exists).
    pub fn publish(
        &self,
        mem: &mut Mem<'_, '_>,
        base: Addr,
        off: u64,
        node: Owned<N>,
    ) -> Result<(), Abort> {
        mem.op.store(mem.cpu, base, off, node.addr.raw())
    }
}

/// # Compile-time contracts
///
/// The properties the types enforce, as `compile_fail` doctests (run by
/// `cargo test --doc`; CI builds docs with `-D warnings`).
///
/// An [`Unlinked`] token cannot be retired twice — the second retire is a
/// use of a moved value:
///
/// ```compile_fail,E0382
/// use st_reclaim::mem::{Mem, NodeType, Unlinked};
///
/// #[derive(Clone, Copy)]
/// struct Node;
/// impl NodeType for Node {
///     const WORDS: usize = 2;
/// }
///
/// fn double_retire(mem: &mut Mem<'_, '_>, u: Unlinked<Node>) -> Result<(), st_simhtm::Abort> {
///     u.retire(mem)?;
///     u.retire(mem)?; // ERROR: use of moved value `u`
///     Ok(())
/// }
/// ```
///
/// A [`Shared`] borrow cannot outlive its [`Guard`]:
///
/// ```compile_fail,E0597
/// use st_reclaim::mem::{Guard, GuardPool, GuardRequirement, NodeType, Shared};
///
/// #[derive(Clone, Copy)]
/// struct Node;
/// impl NodeType for Node {
///     const WORDS: usize = 2;
/// }
///
/// fn escape() -> Shared<'static, Node> {
///     let mut pool = GuardPool::new(GuardRequirement::new(1));
///     let guard = pool.guard();
///     guard.assume_protected::<Node>(8) // ERROR: `guard` does not live long enough
/// }
/// ```
///
/// Rotating a guard ([`Guard::shield`] needs `&mut Guard`) invalidates
/// the borrow it used to protect:
///
/// ```compile_fail,E0502
/// use st_reclaim::mem::{Guard, Mem, NodeType};
///
/// #[derive(Clone, Copy)]
/// struct Node;
/// impl NodeType for Node {
///     const WORDS: usize = 2;
/// }
///
/// fn rotate_invalidates(mem: &mut Mem<'_, '_>, g: &mut Guard) -> u64 {
///     let first = g.assume_protected::<Node>(8);
///     let _second = g.shield::<Node>(mem, 16); // rotates the guard...
///     first.word() // ERROR: `first` still borrows `g`
/// }
/// ```
///
/// And an [`Owned`] token is consumed by publication — no path retains it
/// afterwards:
///
/// ```compile_fail,E0382
/// use st_reclaim::mem::{Atomic, Mem, NodeType, Owned};
///
/// #[derive(Clone, Copy)]
/// struct Node;
/// impl NodeType for Node {
///     const WORDS: usize = 2;
/// }
///
/// fn publish_then_touch(
///     mem: &mut Mem<'_, '_>,
///     link: Atomic<Node>,
///     node: Owned<Node>,
/// ) -> Result<(), st_simhtm::Abort> {
///     link.cas_publish(mem, 0, node)?;
///     node.store(mem, 0, 7)?; // ERROR: use of moved value `node`
///     Ok(())
/// }
/// ```
///
/// The skip list's contract: a borrow out of a **per-level guard array**
/// does not survive a rotation of any guard in that array. Indexing
/// borrows the whole array, so shielding `levels[1]` invalidates the
/// borrow `levels[0]` handed out — the typed form of "advancing one
/// level's guards may not keep stale predecessor borrows at another":
///
/// ```compile_fail,E0502
/// use st_reclaim::mem::{Guard, Mem, NodeType};
///
/// #[derive(Clone, Copy)]
/// struct Node;
/// impl NodeType for Node {
///     const WORDS: usize = 2;
/// }
///
/// fn rotate_level(mem: &mut Mem<'_, '_>, levels: &mut [Guard; 2]) -> u64 {
///     let pred = levels[0].assume_protected::<Node>(8);
///     let _below = levels[1].shield::<Node>(mem, 16); // rotates within the array...
///     pred.word() // ERROR: `*levels` is also borrowed as immutable
/// }
/// ```
///
/// The queue's contract: the dequeue head-swing ([`Atomic::cas_unlink`])
/// consumes the old head's borrow along with minting its [`Unlinked`]
/// proof — the retiring dummy cannot be read afterwards:
///
/// ```compile_fail,E0382
/// use st_reclaim::mem::{Atomic, Mem, NodeType, Shared};
///
/// #[derive(Clone, Copy)]
/// struct Node;
/// impl NodeType for Node {
///     const WORDS: usize = 2;
/// }
///
/// fn touch_old_head(
///     mem: &mut Mem<'_, '_>,
///     head: Atomic<Node>,
///     old_head: Shared<'_, Node>,
///     next: u64,
/// ) -> Result<u64, st_simhtm::Abort> {
///     let unlinked = head.cas_unlink(mem, old_head, next)?;
///     if let Ok(u) = unlinked {
///         u.retire(mem)?;
///     }
///     old_head.read(mem, 0) // ERROR: use of moved value `old_head`
/// }
/// ```
pub mod contracts {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{test_cpu, test_env};
    use crate::{Scheme, SchemeFactory};
    use st_simhtm::{HtmConfig, HtmEngine};
    use stacktrack::Step;
    use std::sync::Arc;

    #[derive(Clone, Copy)]
    struct PairNode;
    impl NodeType for PairNode {
        const WORDS: usize = 2;
    }

    #[test]
    fn guard_requirement_max_and_pool_order() {
        let small = GuardRequirement::new(2);
        let big = GuardRequirement::new(5);
        assert_eq!(small.max(big), big);
        assert_eq!(big.max(small), big);
        assert_eq!(big.guards(), 5);

        let mut pool = GuardPool::new(GuardRequirement::new(3));
        assert_eq!(pool.guard().index(), 0);
        assert_eq!(pool.guard().index(), 1);
        assert_eq!(pool.guard().index(), 2);
    }

    #[test]
    #[should_panic(expected = "guard requirement exhausted")]
    fn pool_enforces_declared_requirement() {
        let mut pool = GuardPool::new(GuardRequirement::new(1));
        let _a = pool.guard();
        let _b = pool.guard();
    }

    /// The typed surface compiles to the identical raw call sequence: a
    /// hazard-pointer executor (the scheme with the most observable
    /// protection protocol) sees the same publications, fences, and
    /// retires through the typed API as through hand-written raw calls.
    #[test]
    fn typed_calls_match_raw_calls_under_hazards() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::Hazard)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(3))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        // A two-node chain: root -> a -> b.
        let root = heap.alloc_untimed(1).unwrap();
        let a = heap.alloc_untimed(2).unwrap();
        let b = heap.alloc_untimed(2).unwrap();
        heap.poke(root, 0, a.raw());
        heap.poke(a, 0, 0xa_0);
        heap.poke(a, 1, b.raw());

        // Typed traversal: load a through a guard, read its key, load its
        // next, unlink a, retire it through the minted proof.
        let result = th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            let mut pool = GuardPool::new(GuardRequirement::new(3));
            let mut g_cur = pool.guard();
            let mut g_next = pool.guard();

            let head = Atomic::<PairNode>::root(root, 0);
            let cur = head.load(&mut mem, &mut g_cur)?;
            assert_eq!(cur.addr(), a);
            assert!(!cur.marked());
            let key = cur.read(&mut mem, 0)?;
            assert_eq!(key, 0xa_0);
            let next = cur.link::<PairNode>(1).load(&mut mem, &mut g_next)?;
            assert_eq!(next.addr(), b);

            match head.cas_unlink(&mut mem, cur, next.addr_word())? {
                Ok(unlinked) => {
                    assert_eq!(unlinked.addr(), a);
                    unlinked.retire(&mut mem)?;
                }
                Err(actual) => panic!("unexpected CAS mismatch: {actual:#x}"),
            }
            Ok(Step::Done(1))
        });
        assert_eq!(result, 1);
        assert_eq!(heap.peek(root, 0), b.raw());
        assert_eq!(th.outstanding_garbage(), 1, "retire reached the scheme");
        th.teardown(&mut cpu);
        assert!(!heap.is_live(a), "retired node freed at teardown");
    }

    #[test]
    fn owned_publish_and_dispose_paths() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::Hazard)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(1))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);
        let root = heap.alloc_untimed(1).unwrap();

        // Publish path: the Owned token is consumed by the winning CAS.
        let published = th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            let node = mem.alloc::<PairNode>();
            node.store(&mut mem, 0, 42)?;
            let link = Atomic::<PairNode>::root(root, 0);
            match link.cas_publish(&mut mem, 0, node)? {
                Ok(()) => Ok(Step::Done(1)),
                Err((lost, _actual)) => {
                    lost.dispose(&mut mem)?;
                    Ok(Step::Done(0))
                }
            }
        });
        assert_eq!(published, 1);
        let installed = Addr::from_raw(heap.peek(root, 0));
        assert_eq!(heap.peek(installed, 0), 42);

        // Dispose path: a lost CAS hands the token back for disposal.
        let live_before = heap.stats().alloc.live_objects;
        let published = th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            let node = mem.alloc::<PairNode>();
            let link = Atomic::<PairNode>::root(root, 0);
            match link.cas_publish(&mut mem, 0, node)? {
                Ok(()) => Ok(Step::Done(1)),
                Err((lost, actual)) => {
                    assert_eq!(actual, installed.raw());
                    lost.dispose(&mut mem)?;
                    Ok(Step::Done(0))
                }
            }
        });
        assert_eq!(published, 0, "second publish must lose");
        th.teardown(&mut cpu);
        assert_eq!(
            heap.stats().alloc.live_objects,
            live_before,
            "disposed node returned to the allocator"
        );
    }

    /// The traversal bridges lower to the identical raw calls: a
    /// hand-over-self walk (`rotate_load`), a validation read
    /// (`load_word`), a helping snip (`cas_snip`), and a deferred retire
    /// (`assume_unlinked`) behave exactly like their raw counterparts
    /// under the hazard-pointer executor.
    #[test]
    fn traversal_bridges_match_raw_calls_under_hazards() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::Hazard)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(2))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        // A three-node chain: root -> a -> b -> c.
        let root = heap.alloc_untimed(1).unwrap();
        let a = heap.alloc_untimed(2).unwrap();
        let b = heap.alloc_untimed(2).unwrap();
        let c = heap.alloc_untimed(2).unwrap();
        heap.poke(root, 0, a.raw());
        heap.poke(a, 0, 0xa_0);
        heap.poke(a, 1, b.raw());
        heap.poke(b, 0, 0xb_0);
        heap.poke(b, 1, c.raw());
        heap.poke(c, 0, 0xc_0);

        let result = th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            let mut pool = GuardPool::new(GuardRequirement::new(2));
            let mut g_cur = pool.guard();

            // Hand-over-self walk: root -> a -> b through one guard.
            let head = Atomic::<PairNode>::root(root, 0);
            let cur = head.load(&mut mem, &mut g_cur)?;
            assert_eq!(cur.addr(), a);
            let cur_addr = cur.addr();
            assert_eq!(cur.read(&mut mem, 0)?, 0xa_0);
            let cur = g_cur.rotate_load::<PairNode>(&mut mem, cur_addr, 1)?;
            assert_eq!(cur.addr(), b);
            assert_eq!(cur.read(&mut mem, 0)?, 0xb_0);

            // Validation read: the head word is still a, unprotected.
            assert_eq!(head.load_word(&mut mem)?, a.raw());

            // Helping snip: swing head past a without minting a proof.
            let stale = g_cur.assume_protected::<PairNode>(a.raw());
            match head.cas_snip(&mut mem, &stale, b.raw())? {
                Ok(()) => {}
                Err(actual) => panic!("unexpected snip mismatch: {actual:#x}"),
            }
            // The victim borrow survives the snip — still readable.
            assert_eq!(stale.read(&mut mem, 0)?, 0xa_0);

            // Deferred retire: this operation won the snip above, so it
            // owns the unlink; mint the proof and retire.
            Unlinked::<PairNode>::assume_unlinked(a.raw()).retire(&mut mem)?;
            Ok(Step::Done(1))
        });
        assert_eq!(result, 1);
        assert_eq!(heap.peek(root, 0), b.raw());
        assert_eq!(th.outstanding_garbage(), 1, "retire reached the scheme");
        th.teardown(&mut cpu);
        assert!(!heap.is_live(a), "snipped node freed at teardown");
        assert!(heap.is_live(b), "linked node untouched");
    }

    /// `Field` and `Exclusive` lower to plain load/store/CAS: a writer
    /// takes a lock word, publishes a node by plain store, rewires a
    /// link, and unlocks — the red-black tree's update shape.
    #[test]
    fn field_and_exclusive_lower_to_plain_accesses() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::Hazard)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(1))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        // Anchor: [lock, root]; one published node with one data word.
        let anchor = heap.alloc_untimed(2).unwrap();
        let old = heap.alloc_untimed(2).unwrap();
        heap.poke(anchor, 1, old.raw());
        heap.poke(old, 0, 5);

        let result = th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            let lock = Field::root(anchor, 0);
            match lock.cas(&mut mem, 0, 1)? {
                Ok(_) => {}
                Err(actual) => panic!("lock taken: {actual:#x}"),
            }
            let excl = Exclusive::<PairNode>::assume_exclusive();
            let old_word = excl.read(&mut mem, anchor, 1)?;
            assert_eq!(old_word, old.raw());

            // Publish a replacement by plain store, then unlink the old
            // node (also a plain store under exclusion) and retire it.
            let node = mem.alloc::<PairNode>();
            node.store(&mut mem, 0, 7)?;
            excl.publish(&mut mem, anchor, 1, node)?;
            excl.write(&mut mem, Addr::from_raw(old_word), 1, 0)?;
            Unlinked::<PairNode>::assume_unlinked(old_word).retire(&mut mem)?;

            lock.write(&mut mem, 0)?;
            assert_eq!(lock.read(&mut mem)?, 0);
            Ok(Step::Done(1))
        });
        assert_eq!(result, 1);
        let installed = Addr::from_raw(heap.peek(anchor, 1));
        assert_ne!(installed, old);
        assert_eq!(heap.peek(installed, 0), 7);
        th.teardown(&mut cpu);
        assert!(!heap.is_live(old), "transplanted node freed at teardown");
    }

    #[test]
    fn alloc_var_sizes_within_declared_layout() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::None)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(1))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);
        let got = th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            // A one-word "tower" of the two-word layout.
            let node = mem.alloc_var::<PairNode>(1);
            node.store(&mut mem, 0, 9)?;
            let addr = node.addr();
            node.dispose(&mut mem)?;
            Ok(Step::Done(addr.raw()))
        });
        assert_ne!(got, 0);
        th.teardown(&mut cpu);
    }

    #[test]
    #[should_panic(expected = "alloc_var")]
    fn alloc_var_rejects_oversized_requests() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::None)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(1))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);
        th.run_op(&mut cpu, 0, 0, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            let _ = mem.alloc_var::<PairNode>(3);
            Ok(Step::Done(0))
        });
    }

    #[test]
    fn stash_round_trips_across_blocks() {
        let (heap, _) = test_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
        let factory = SchemeFactory::builder(Scheme::None)
            .engine(engine)
            .max_threads(1)
            .guard_requirement(GuardRequirement::new(1))
            .build();
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        assert!(Owned::<PairNode>::unstash(0).is_none());
        let got = th.run_op(&mut cpu, 0, 1, &mut |op, cpu| {
            let mut mem = Mem::new(op, cpu);
            match Owned::<PairNode>::unstash(mem.local(0)) {
                None => {
                    let node = mem.alloc::<PairNode>();
                    node.store(&mut mem, 0, 7)?;
                    let word = node.stash();
                    mem.set_local(0, word);
                    Ok(Step::Continue)
                }
                Some(node) => {
                    let addr = node.addr();
                    node.dispose(&mut mem)?;
                    Ok(Step::Done(addr.raw()))
                }
            }
        });
        assert_ne!(got, 0);
        th.teardown(&mut cpu);
    }
}
