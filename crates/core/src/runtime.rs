//! The global StackTrack runtime: activity array and shared counters.

use crate::config::{Mutation, StConfig};
use crate::layout::CTX_WORDS;
use crate::thread::StThread;
use st_machine::Cpu;
use st_simheap::{Addr, Heap};
use st_simhtm::HtmEngine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Global state shared by all StackTrack threads.
///
/// Owns the *activity array* — one word per thread slot holding the address
/// of that thread's context block (0 when unregistered) — and the global
/// slow-path counter scanners consult (paper section 5.4).
#[derive(Debug)]
pub struct StRuntime {
    /// The best-effort HTM engine operations run on.
    pub engine: Arc<HtmEngine>,
    /// Runtime configuration.
    pub config: StConfig,
    pub(crate) activity: Addr,
    pub(crate) slow_count: Addr,
    pub(crate) max_threads: usize,
    /// One-shot arming of [`Mutation::SkipFree`]: the first scan verdict
    /// that would free a candidate swallows it instead.
    skip_free_armed: AtomicBool,
}

impl StRuntime {
    /// Creates a runtime for up to `max_threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot hold the activity array (sizing error).
    pub fn new(engine: Arc<HtmEngine>, config: StConfig, max_threads: usize) -> Arc<Self> {
        let heap = engine.heap().clone();
        let activity = heap
            .alloc_untimed(max_threads.max(1))
            .expect("heap too small for the activity array");
        let slow_count = heap
            .alloc_untimed(1)
            .expect("heap too small for the slow-path counter");
        let skip_free_armed = AtomicBool::new(config.mutation == Mutation::SkipFree);
        Arc::new(Self {
            engine,
            config,
            activity,
            slow_count,
            max_threads,
            skip_free_armed,
        })
    }

    /// Consumes the one-shot skip-free mutation: `true` exactly once per
    /// runtime under [`Mutation::SkipFree`], `false` otherwise.
    pub(crate) fn consume_skip_free(&self) -> bool {
        self.config.mutation == Mutation::SkipFree
            && self.skip_free_armed.swap(false, Ordering::Relaxed)
    }

    /// The heap underneath the engine.
    pub fn heap(&self) -> &Arc<Heap> {
        self.engine.heap()
    }

    /// Maximum number of registrable threads.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Registers thread `thread_id` (dense, `0..max_threads`), allocating
    /// its context block and publishing it in the activity array.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or already taken.
    pub fn register_thread(self: &Arc<Self>, thread_id: usize) -> StThread {
        assert!(thread_id < self.max_threads, "thread slot out of range");
        let heap = self.heap();
        assert_eq!(
            heap.peek(self.activity, thread_id as u64),
            0,
            "thread slot {thread_id} already registered"
        );
        let ctx = heap
            .alloc_untimed(CTX_WORDS)
            .expect("heap too small for a thread context");
        heap.poke(self.activity, thread_id as u64, ctx.raw());
        StThread::new(self.clone(), ctx)
    }

    /// The context block address of thread slot `t`, if registered.
    pub(crate) fn ctx_of(&self, t: usize) -> Option<Addr> {
        let raw = self.heap().peek(self.activity, t as u64);
        Addr::try_from_raw(raw).filter(|a| !a.is_null())
    }

    /// Current value of the global slow-path counter.
    pub fn slow_path_count(&self) -> u64 {
        self.heap().peek(self.slow_count, 0)
    }

    /// Builds a standalone [`Cpu`] for tests, examples, and doc tests that
    /// drive a thread without the full discrete-event simulator.
    pub fn test_cpu(&self, thread_id: usize) -> Cpu {
        Cpu::standalone(thread_id, 0x5eed + thread_id as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_simheap::HeapConfig;
    use st_simhtm::HtmConfig;

    fn runtime(n: usize) -> Arc<StRuntime> {
        let heap = Arc::new(Heap::new(HeapConfig {
            // Context blocks are dominated by the slow-path reference set;
            // size for a few of them.
            capacity_words: 1 << 18,
        }));
        let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), n));
        StRuntime::new(engine, StConfig::default(), n)
    }

    #[test]
    fn register_publishes_context() {
        let rt = runtime(2);
        assert!(rt.ctx_of(0).is_none());
        let th = rt.register_thread(0);
        let ctx = rt.ctx_of(0).expect("registered");
        assert_eq!(ctx, th.ctx_addr());
        assert!(rt.ctx_of(1).is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_registration_panics() {
        let rt = runtime(2);
        let _a = rt.register_thread(0);
        let _b = rt.register_thread(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let rt = runtime(1);
        let _ = rt.register_thread(1);
    }

    #[test]
    fn slow_count_starts_at_zero() {
        let rt = runtime(1);
        assert_eq!(rt.slow_path_count(), 0);
    }
}
