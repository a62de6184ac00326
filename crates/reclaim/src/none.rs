//! The "Original" baseline: no memory reclamation.
//!
//! Retired nodes are counted and leaked. This is the performance ceiling
//! every figure in the paper plots against — and the scheme whose leak the
//! integration tests demonstrate.

use crate::frame::Protocol;
use st_machine::Cpu;
use st_obs::MetricsRegistry;
use st_simheap::{Addr, Heap};

/// No reclamation: retires are counted and leaked.
#[derive(Debug, Default)]
pub struct NoReclaim {
    /// Nodes retired and never freed.
    pub leaked: u64,
}

impl Protocol for NoReclaim {
    const NAME: &'static str = "Original";

    fn retire(&mut self, _heap: &Heap, _cpu: &mut Cpu, _addr: Addr) {
        // The frame reported the retire to the ledger, which the audit
        // harness uses as its positive leak reference; the node stays.
        self.leaked += 1;
    }

    fn garbage(&self) -> u64 {
        self.leaked
    }

    fn report(&self, reg: &mut MetricsRegistry) {
        reg.add("scheme.none.leaked", self.leaked);
    }
}

#[cfg(test)]
// Scheme tests drive the raw `OpMem` surface the executor implements —
// the layer beneath the typed `mem` API structures use.
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::test_support::test_env;
    use crate::SchemeThread;
    use stacktrack::Step;

    #[test]
    fn ops_run_and_retires_leak() {
        let (heap, mut cpu) = test_env();
        let mut th = Frame::new(heap.clone(), NoReclaim::default());
        let v = th.run_op(&mut cpu, 0, 1, &mut |m, cpu| {
            let n = m.alloc(cpu, 2);
            m.store(cpu, n, 0, 5)?;
            m.set_local(cpu, 0, n.raw());
            m.retire_unlinked(cpu, n)?;
            let n2 = m.get_local(cpu, 0);
            m.load(cpu, Addr::from_raw(n2), 0).map(Step::Done)
        });
        assert_eq!(v, 5);
        assert_eq!(th.outstanding_garbage(), 1);
        // The node is still allocated: a leak, not a free.
        assert_eq!(heap.stats().alloc.live_objects, 1);
    }
}
