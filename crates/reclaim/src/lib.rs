//! Concurrent memory reclamation schemes behind one interface.
//!
//! The paper's evaluation (section 6) compares StackTrack against four
//! comparators; all are implemented here, and all drive the same
//! scheme-neutral operation bodies ([`stacktrack::OpMem`]). Every baseline
//! runs in one executor, [`frame::Frame`], and each scheme module keeps
//! only its shared state, its counters and the [`frame::Protocol`] hooks
//! where it departs from the plain path:
//!
//! - [`none`]: the *Original* baseline — no reclamation at all (retired
//!   nodes leak). The performance ceiling.
//! - [`epoch`]: quiescence/epoch-based reclamation. A per-thread timestamp
//!   is bumped (with a fence) at operation start and finish; a reclaimer
//!   waits until every in-operation thread has moved before freeing.
//!   Lightweight, but a preempted thread stalls everyone's frees.
//! - [`hazard`]: Michael's hazard pointers. Every pointer dereference
//!   publishes a hazard, fences, and revalidates — the per-hop fence is
//!   the scheme's famous cost.
//! - [`dta`]: Drop-the-Anchor (Braginsky, Kogan, Petrank), the
//!   hazard-eliding scheme the paper benchmarks on the linked list: an
//!   anchor is published (fence included) only every `K` hops, and a
//!   retired node is freed once every concurrently active thread has
//!   re-anchored twice past the retirement point. The original's *freezing*
//!   crash-recovery is substituted by conservative deferral (see
//!   DESIGN.md).
//! - [`refcount`]: lock-free reference counting (Valois-style), included
//!   as the ablation the paper argues about ("hazard pointers can be seen
//!   as an upper bound on the performance of reference-counting
//!   techniques") — a fetch-add per pointer hop.
//!
//! Two post-paper schemes extend the comparison beyond the paper's six
//! (see `docs/SCHEMES.md` and the "Beyond the paper" section of
//! EXPERIMENTS.md):
//!
//! - [`nbr`]: neutralization-based reclamation — fence-free restartable
//!   read phases, reservations only across write phases, and reclaimers
//!   that signal instead of waiting (delivered through the scheduler's
//!   [`st_machine::SignalBoard`]).
//! - [`hyaline`]: snapshot-free per-retire reference batching with
//!   handoff lists and a birth-era robustness bound.
//!
//! The baselines share their machinery once. [`Frame`] reports every
//! retire to the heap's lifecycle ledger before the scheme's
//! [`Protocol::retire`] hook runs, and the per-thread heap words the
//! schemes publish (hazard slots, NBR reservations, epoch timestamps, DTA
//! anchor records, Hyaline's era words) are one [`ThreadSlots`] type,
//! whose snapshot-and-free pass Hazards and NBR share.
//!
//! Pick a scheme with [`Scheme`] and build per-thread executors with
//! [`SchemeFactory::builder`]. Every executor, each baseline's [`Frame`]
//! and [`stacktrack::StThread`] alike, implements [`SchemeThread`], which
//! `stacktrack` declares beside [`stacktrack::OpMem`] and this crate
//! re-exports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dta;
pub mod epoch;
pub mod frame;
pub mod hazard;
pub mod hyaline;
pub mod mem;
pub mod nbr;
pub mod none;
pub mod refcount;
pub mod slots;

pub use frame::{Frame, Protocol};
pub use slots::ThreadSlots;
pub use stacktrack::SchemeThread;

#[cfg(test)]
pub(crate) mod test_support {
    use st_machine::Cpu;
    use st_simheap::{Heap, HeapConfig};
    use std::sync::Arc;

    /// A small heap plus a standalone CPU for scheme unit tests.
    pub(crate) fn test_env() -> (Arc<Heap>, Cpu) {
        (Arc::new(Heap::new(HeapConfig::small())), test_cpu(0))
    }

    /// A standalone CPU on thread slot `id`.
    pub(crate) fn test_cpu(id: usize) -> Cpu {
        Cpu::standalone(id, 0xbeef + id as u64)
    }
}

use st_simhtm::HtmEngine;
use stacktrack::{Mutation, StConfig, StRuntime};
use std::sync::Arc;

/// The reclamation schemes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No reclamation (the paper's "Original").
    None,
    /// Quiescence/epoch-based reclamation.
    Epoch,
    /// Hazard pointers.
    Hazard,
    /// Drop-the-Anchor.
    Dta,
    /// Reference counting (ablation extra).
    RefCount,
    /// StackTrack.
    StackTrack,
    /// Neutralization-based reclamation (beyond-the-paper extra).
    Nbr,
    /// Hyaline reference batching (beyond-the-paper extra).
    Hyaline,
}

impl Scheme {
    /// Display name used in benchmark tables (matches the paper's legend).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::None => "Original",
            Scheme::Epoch => "Epoch",
            Scheme::Hazard => "Hazards",
            Scheme::Dta => "DTA",
            Scheme::RefCount => "RefCount",
            Scheme::StackTrack => "StackTrack",
            Scheme::Nbr => "NBR",
            Scheme::Hyaline => "Hyaline",
        }
    }

    /// All schemes: the paper's six in plotting order, then the
    /// beyond-the-paper extras.
    pub fn all() -> [Scheme; 8] {
        [
            Scheme::None,
            Scheme::Hazard,
            Scheme::Epoch,
            Scheme::StackTrack,
            Scheme::Dta,
            Scheme::RefCount,
            Scheme::Nbr,
            Scheme::Hyaline,
        ]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parses the display name (as printed in benchmark tables and metrics
    /// snapshots) or the variant name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "original" | "none" => Ok(Scheme::None),
            "epoch" => Ok(Scheme::Epoch),
            "hazards" | "hazard" => Ok(Scheme::Hazard),
            "dta" => Ok(Scheme::Dta),
            "refcount" | "rc" => Ok(Scheme::RefCount),
            "stacktrack" => Ok(Scheme::StackTrack),
            "nbr" => Ok(Scheme::Nbr),
            "hyaline" => Ok(Scheme::Hyaline),
            _ => Err(format!(
                "unknown scheme {s:?} (expected one of: {})",
                Scheme::all().map(|s| s.name()).join(", ")
            )),
        }
    }
}

/// Baseline-scheme tunables.
#[derive(Debug, Clone)]
pub struct ReclaimConfig {
    /// Retired nodes that trigger reclamation (an epoch wait, a DTA
    /// sweep, a hazard scan, an NBR broadcast, a Hyaline dispatch): with
    /// `Some(n)` every scheme reclaims once `n` retired nodes wait
    /// (`Some(0)` acts as `Some(1)`). `None` keeps each scheme's own
    /// threshold: 1 for Epoch and DTA, `2 x threads x guard slots` for
    /// Hazards and NBR, [`hyaline::BATCH`] for Hyaline. `Some(n)` matches
    /// StackTrack's `max_free = n - 1`, because StackTrack scans once its
    /// free set *exceeds* `max_free`.
    pub retire_batch: Option<usize>,
    /// DTA: hops between anchor publications.
    pub dta_k: u32,
    /// Epoch: cycles a reclaimer spins on a quiescence snapshot before
    /// giving up and hoarding instead. Sized just above the scheduler
    /// quantum so an ordinarily preempted thread is waited out (the
    /// paper's blocking behaviour and its >8-threads collapse), while a
    /// stalled or crashed thread only costs one budget before the
    /// reclaimer resumes operating with a growing limbo list.
    pub epoch_wait_budget: u64,
    /// Seeded defect for the checker and the audit harness; Hazards read
    /// [`Mutation::DeferHazardPublish`] and [`Mutation::DoubleRetire`],
    /// NBR [`Mutation::NbrSkipRestart`], Hyaline
    /// [`Mutation::HyalineDropDecrement`].
    pub mutation: Mutation,
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        Self {
            retire_batch: None,
            dta_k: 20,
            epoch_wait_budget: 2_500_000,
            mutation: Mutation::None,
        }
    }
}

/// Guard slots per thread when the builder is given no
/// [`mem::GuardRequirement`].
const DEFAULT_GUARDS: usize = 8;

/// Shared state of the one scheme a [`SchemeFactory`] builds.
///
/// Exactly one variant exists per factory; the exhaustive `match` in
/// [`SchemeFactoryBuilder::build`] is the single place scheme globals are
/// constructed.
enum SchemeGlobals {
    /// No reclamation: no shared state.
    None,
    /// Epoch timestamps, one word per thread.
    Epoch(Arc<ThreadSlots>),
    /// Hazard-pointer slots, one word per guard.
    Hazard(Arc<ThreadSlots>),
    /// DTA anchor records and era clock.
    Dta(Arc<dta::DtaGlobals>),
    /// Reference-count bias table.
    RefCount(Arc<refcount::RcGlobals>),
    /// The StackTrack runtime.
    StackTrack(Arc<StRuntime>),
    /// NBR reservation slots, one word per guard.
    Nbr(Arc<ThreadSlots>),
    /// Hyaline eras, slots, and handoff lists.
    Hyaline(Arc<hyaline::HyalineGlobals>),
}

/// Configures and creates a [`SchemeFactory`].
///
/// Obtained from [`SchemeFactory::builder`]; every knob has a default, so
/// the minimal path is `SchemeFactory::builder(scheme).engine(e).build()`.
pub struct SchemeFactoryBuilder {
    scheme: Scheme,
    engine: Option<Arc<HtmEngine>>,
    max_threads: usize,
    config: ReclaimConfig,
    st_config: StConfig,
    guard_requirement: Option<mem::GuardRequirement>,
}

impl SchemeFactoryBuilder {
    /// The HTM engine (and through it, the heap) the schemes run on.
    /// Required.
    pub fn engine(mut self, engine: Arc<HtmEngine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Thread slots to provision shared state for (default 1).
    pub fn max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Baseline-scheme tunables (default [`ReclaimConfig::default`]).
    pub fn reclaim_config(mut self, config: ReclaimConfig) -> Self {
        self.config = config;
        self
    }

    /// StackTrack tunables; only consulted for [`Scheme::StackTrack`]
    /// (default [`StConfig::default`]).
    pub fn st_config(mut self, st_config: StConfig) -> Self {
        self.st_config = st_config;
        self
    }

    /// Sizes the per-thread guard slots (hazard pointers, NBR
    /// reservations, reference-count guards) from a structure's declared
    /// [`mem::GuardRequirement`] (default 8 slots).
    ///
    /// Harnesses that drive several structures through one factory pass
    /// the [`mem::GuardRequirement::max`] of their requirements. Declare
    /// the requirement once, next to the structure's node layout, and the
    /// guard-slot sizing can never drift out of sync with it.
    pub fn guard_requirement(mut self, requirement: mem::GuardRequirement) -> Self {
        self.guard_requirement = Some(requirement);
        self
    }

    /// Constructs the factory, allocating only the selected scheme's
    /// shared state.
    ///
    /// # Panics
    ///
    /// Panics if [`SchemeFactoryBuilder::engine`] was not provided.
    pub fn build(self) -> SchemeFactory {
        let engine = self
            .engine
            .expect("SchemeFactoryBuilder requires .engine()");
        let guards = self
            .guard_requirement
            .map_or(DEFAULT_GUARDS, mem::GuardRequirement::guards);
        let slots = |words| Arc::new(ThreadSlots::new(engine.heap(), self.max_threads, words));
        let globals = match self.scheme {
            Scheme::None => SchemeGlobals::None,
            Scheme::Epoch => SchemeGlobals::Epoch(slots(1)),
            Scheme::Hazard => SchemeGlobals::Hazard(slots(guards)),
            Scheme::Dta => SchemeGlobals::Dta(Arc::new(dta::DtaGlobals::new(
                engine.heap(),
                self.max_threads,
            ))),
            Scheme::RefCount => {
                SchemeGlobals::RefCount(Arc::new(refcount::RcGlobals::new(engine.heap())))
            }
            Scheme::StackTrack => SchemeGlobals::StackTrack(StRuntime::new(
                engine.clone(),
                self.st_config,
                self.max_threads,
            )),
            Scheme::Nbr => SchemeGlobals::Nbr(slots(guards)),
            Scheme::Hyaline => SchemeGlobals::Hyaline(Arc::new(hyaline::HyalineGlobals::new(
                engine.heap(),
                self.max_threads,
            ))),
        };
        SchemeFactory {
            scheme: self.scheme,
            engine,
            config: self.config,
            guards,
            globals,
        }
    }
}

/// Builds per-thread executors for one scheme over one engine/heap.
pub struct SchemeFactory {
    scheme: Scheme,
    engine: Arc<HtmEngine>,
    config: ReclaimConfig,
    /// Guard slots per thread.
    guards: usize,
    globals: SchemeGlobals,
}

impl SchemeFactory {
    /// Starts configuring a factory for `scheme`.
    pub fn builder(scheme: Scheme) -> SchemeFactoryBuilder {
        SchemeFactoryBuilder {
            scheme,
            engine: None,
            max_threads: 1,
            config: ReclaimConfig::default(),
            st_config: StConfig::default(),
            guard_requirement: None,
        }
    }

    /// The scheme this factory builds.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Precise protection-publication regions for the heap's ABA
    /// re-exposure oracle: heap words that, while holding a pointer,
    /// forbid recycling its block. Hazard pointers and NBR publish such
    /// regions (hazard slots, write-phase reservations) — the other
    /// schemes protect via epochs/anchors/eras or scannable thread
    /// contexts, which legitimately hold stale values.
    pub fn protection_roots(&self) -> Vec<(st_simheap::Addr, u64)> {
        match &self.globals {
            SchemeGlobals::Hazard(slots) | SchemeGlobals::Nbr(slots) => vec![slots.region()],
            _ => Vec::new(),
        }
    }

    /// Builds the executor for thread slot `thread_id`.
    pub fn thread(&self, thread_id: usize) -> Box<dyn SchemeThread> {
        let heap = self.engine.heap().clone();
        let config = &self.config;
        // The reclamation threshold: the configured one, else the scheme's.
        let threshold = |own: usize| config.retire_batch.unwrap_or(own).max(1);
        match &self.globals {
            SchemeGlobals::None => Box::new(Frame::new(heap, none::NoReclaim::default())),
            SchemeGlobals::Epoch(stamps) => Box::new(Frame::new(
                heap,
                epoch::Epoch::new(
                    stamps.clone(),
                    thread_id,
                    threshold(1),
                    config.epoch_wait_budget,
                ),
            )),
            SchemeGlobals::Hazard(slots) => Box::new(Frame::new(
                heap,
                hazard::Hazard::new(
                    slots.clone(),
                    thread_id,
                    threshold(slots.scan_threshold()),
                    config.mutation,
                ),
            )),
            SchemeGlobals::Dta(globals) => Box::new(Frame::new(
                heap,
                dta::Dta::new(
                    globals.clone(),
                    thread_id,
                    config.dta_k,
                    threshold(1),
                    dta::FREEZE_LAG,
                ),
            )),
            SchemeGlobals::RefCount(globals) => Box::new(Frame::new(
                heap,
                refcount::RefCount::new(globals.clone(), self.guards),
            )),
            SchemeGlobals::StackTrack(rt) => Box::new(rt.register_thread(thread_id)),
            SchemeGlobals::Nbr(slots) => Box::new(Frame::new(
                heap,
                nbr::Nbr::new(
                    slots.clone(),
                    thread_id,
                    threshold(slots.scan_threshold()),
                    config.mutation,
                ),
            )),
            SchemeGlobals::Hyaline(globals) => Box::new(Frame::new(
                heap,
                hyaline::Hyaline::new(
                    globals.clone(),
                    thread_id,
                    threshold(hyaline::BATCH),
                    config.mutation,
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_simhtm::HtmConfig;
    use stacktrack::Step;

    #[test]
    fn scheme_names_round_trip_through_fromstr() {
        for scheme in Scheme::all() {
            assert_eq!(scheme.name().parse::<Scheme>(), Ok(scheme));
            assert_eq!(
                scheme.name().to_uppercase().parse::<Scheme>(),
                Ok(scheme),
                "parsing must be case-insensitive"
            );
            assert_eq!(scheme.to_string(), scheme.name());
        }
        assert!("nonsense".parse::<Scheme>().is_err());
    }

    /// `retire_batch: Some(n)` reads "reclaim once `n` retired nodes
    /// wait" in every scheme that batches retires: at `Some(1)` one
    /// retiring operation, once its idle work drains, leaves no garbage.
    #[test]
    fn a_batch_of_one_reclaims_the_first_retire() {
        for scheme in [Scheme::Epoch, Scheme::Hazard, Scheme::Nbr, Scheme::Hyaline] {
            let (heap, mut cpu) = test_support::test_env();
            let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
            let factory = SchemeFactory::builder(scheme)
                .engine(engine)
                .reclaim_config(ReclaimConfig {
                    retire_batch: Some(1),
                    ..ReclaimConfig::default()
                })
                .build();
            let mut th = factory.thread(0);
            let node = heap.alloc_untimed(2).unwrap();
            th.run_op(&mut cpu, 0, 0, &mut |m, cpu| {
                m.retire_unlinked(cpu, node).map(|()| Step::Done(0))
            });
            while th.idle_work_pending() {
                th.step_idle(&mut cpu);
            }
            assert_eq!(th.outstanding_garbage(), 0, "{scheme}");
            assert!(!heap.is_live(node), "{scheme}");
        }
    }
}
