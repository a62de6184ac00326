//! L1 capacity model for best-effort transactions.
//!
//! TSX tracks a transaction's data set in the L1 cache; overflowing it (or
//! losing a tracked line to eviction) raises a *capacity abort*. Two facts
//! from the paper's section 6 drive this model:
//!
//! - Transactions abort well before the nominal 32 KiB / 64 B = 512-line
//!   budget, because the L1 is 8-way set-associative and co-resident data
//!   evicts tracked lines probabilistically.
//! - Once HyperThreading kicks in (threads > cores), the sibling context
//!   shares the same L1 and "the number of capacity aborts increases by
//!   orders of magnitude" (Figure 3).
//!
//! The model therefore combines a hard budget (halved under SMT) with a
//! per-new-line eviction probability that grows quadratically with
//! occupancy and linearly with the sibling's transactional footprint.

use st_machine::Cpu;

/// Nominal private L1 budget, in cache lines.
pub const L1_LINES: u64 = 448;
/// Budget divisor while the SMT sibling is active.
pub const SMT_DIVISOR: u64 = 2;
/// Scale of the occupancy-driven eviction probability (at 100 % occupancy
/// of the effective budget, each new line faces this chance).
pub const EVICT_AT_FULL: f64 = 0.5;
/// Extra eviction probability per new line, scaled by the sibling's
/// footprint fraction of the L1.
pub const SMT_EVICT_SCALE: f64 = 0.8;

/// Effective line budget for `cpu` right now.
pub(crate) fn budget(cpu: &Cpu) -> u64 {
    if cpu.smt_pressure() > 0.0 {
        (L1_LINES / SMT_DIVISOR).max(1)
    } else {
        L1_LINES
    }
}

/// Decides whether admitting one more distinct line (bringing the
/// footprint to `lines`) overflows or suffers an eviction.
///
/// Deterministic given the thread's PRNG stream.
pub(crate) fn admits(cpu: &mut Cpu, lines: u64) -> bool {
    let budget = budget(cpu);
    if lines > budget {
        return false;
    }
    let occupancy = lines as f64 / budget as f64;
    let mut p = EVICT_AT_FULL * occupancy * occupancy * occupancy;
    let sibling = cpu.sibling_footprint() as f64 / L1_LINES as f64;
    p += SMT_EVICT_SCALE * sibling * cpu.smt_pressure() * occupancy;
    !cpu.rng.chance(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_machine::{cpu::ActivityBoard, CostModel, HwContext, Topology};
    use std::sync::Arc;

    fn cpu_with_board() -> (Cpu, Arc<ActivityBoard>) {
        let topo = Topology::haswell();
        let board = Arc::new(ActivityBoard::new(topo.hw_contexts()));
        let cpu = Cpu::new(
            0,
            HwContext::new(&topo, 0),
            Arc::new(CostModel::default()),
            board.clone(),
            11,
        );
        (cpu, board)
    }

    #[test]
    fn hard_budget_enforced() {
        let (mut cpu, _) = cpu_with_board();
        assert!(!admits(&mut cpu, L1_LINES + 1));
    }

    #[test]
    fn tiny_footprints_always_admitted() {
        let (mut cpu, _) = cpu_with_board();
        for _ in 0..1000 {
            assert!(admits(&mut cpu, 4));
        }
    }

    #[test]
    fn smt_halves_the_budget() {
        let (cpu, board) = cpu_with_board();
        assert_eq!(budget(&cpu), L1_LINES);
        board.set_running(cpu.hw.sibling.unwrap(), true);
        assert_eq!(budget(&cpu), L1_LINES / 2);
    }

    #[test]
    fn smt_pressure_raises_eviction_rate() {
        let lines = 100;

        let (mut solo, _) = cpu_with_board();
        let solo_evictions = (0..20_000).filter(|_| !admits(&mut solo, lines)).count();

        let (mut shared, board) = cpu_with_board();
        let sib = shared.hw.sibling.unwrap();
        board.set_running(sib, true);
        board.set_footprint(sib, 200);
        let shared_evictions = (0..20_000).filter(|_| !admits(&mut shared, lines)).count();

        assert!(
            shared_evictions > solo_evictions * 5,
            "SMT must multiply capacity aborts (solo {solo_evictions}, shared {shared_evictions})"
        );
    }

    #[test]
    fn occupancy_raises_eviction_rate() {
        let (mut cpu, _) = cpu_with_board();
        let low = (0..20_000).filter(|_| !admits(&mut cpu, 50)).count();
        let high = (0..20_000).filter(|_| !admits(&mut cpu, 400)).count();
        assert!(
            high > low,
            "fuller transactions must abort more (low {low}, high {high})"
        );
    }
}
