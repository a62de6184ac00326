//! Operation histories and a Wing–Gong linearizability checker.
//!
//! The model checker (`st-check`) records an *invoke* event when a worker
//! begins a structure operation and a *respond* event when the operation
//! completes, stamped with a logical clock that advances in execution
//! order (the discrete-event simulator runs one step at a time, so
//! execution order is the real-time order of the virtual machine). The
//! resulting history is checked against a sequential specification with
//! the Wing & Gong algorithm: repeatedly pick a *minimal* operation — one
//! whose invocation precedes every other unlinearized response — apply it
//! to the spec, and backtrack when the recorded result disagrees.
//!
//! Three of the paper's structures (list, hash, skip list) share the set
//! specification; the Michael-Scott queue has its own FIFO spec.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A data-structure operation, with its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsOp {
    /// Set: insert `key`; returns 1 if newly inserted.
    Insert(u64),
    /// Set: delete `key`; returns 1 if present.
    Delete(u64),
    /// Set: membership test; returns 1 if present.
    Contains(u64),
    /// Queue: enqueue `value`; returns 1.
    Enqueue(u64),
    /// Queue: dequeue; returns the value, or 0 when empty.
    Dequeue,
    /// Queue: read the front; returns the value, or 0 when empty.
    Peek,
}

impl std::fmt::Display for DsOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsOp::Insert(k) => write!(f, "insert({k})"),
            DsOp::Delete(k) => write!(f, "delete({k})"),
            DsOp::Contains(k) => write!(f, "contains({k})"),
            DsOp::Enqueue(v) => write!(f, "enqueue({v})"),
            DsOp::Dequeue => write!(f, "dequeue()"),
            DsOp::Peek => write!(f, "peek()"),
        }
    }
}

/// One completed-or-pending operation in a recorded history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Thread that issued the operation.
    pub thread: usize,
    /// The operation.
    pub op: DsOp,
    /// Logical invocation timestamp.
    pub invoke: u64,
    /// Logical response timestamp; `u64::MAX` while pending.
    pub respond: u64,
    /// Recorded result word; `None` while pending. Set operations return
    /// 1/0; dequeue returns the value or 0 for empty.
    pub result: Option<u64>,
}

impl OpRecord {
    /// Whether the operation responded.
    pub fn completed(&self) -> bool {
        self.respond != u64::MAX
    }
}

/// Records invoke/respond events under a shared logical clock.
///
/// `Sync` so one recorder can be shared by every worker of a simulation;
/// the discrete-event scheduler runs workers one at a time, so the clock
/// order *is* the execution order.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    clock: AtomicU64,
    records: Mutex<Vec<OpRecord>>,
}

impl HistoryRecorder {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an invocation; returns the record's index, to be passed to
    /// [`HistoryRecorder::respond`].
    pub fn invoke(&self, thread: usize, op: DsOp) -> usize {
        let at = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut records = self.records.lock().unwrap();
        records.push(OpRecord {
            thread,
            op,
            invoke: at,
            respond: u64::MAX,
            result: None,
        });
        records.len() - 1
    }

    /// Records the response of the operation `id` returned by `invoke`.
    pub fn respond(&self, id: usize, result: u64) {
        let at = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut records = self.records.lock().unwrap();
        let rec = &mut records[id];
        debug_assert!(!rec.completed(), "double respond for op {id}");
        rec.respond = at;
        rec.result = Some(result);
    }

    /// Snapshot of the history so far (pending operations included).
    pub fn history(&self) -> Vec<OpRecord> {
        self.records.lock().unwrap().clone()
    }
}

/// Which sequential specification a history is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// Ordered set (list, hash, skip list).
    Set,
    /// FIFO queue (Michael-Scott).
    Queue,
}

/// Sequential specification state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Spec {
    Set(BTreeSet<u64>),
    Queue(VecDeque<u64>),
}

impl Spec {
    fn new(kind: SpecKind) -> Self {
        match kind {
            SpecKind::Set => Spec::Set(BTreeSet::new()),
            SpecKind::Queue => Spec::Queue(VecDeque::new()),
        }
    }

    /// Applies `op`, returning its specified result.
    fn apply(&mut self, op: DsOp) -> u64 {
        match (self, op) {
            (Spec::Set(s), DsOp::Insert(k)) => u64::from(s.insert(k)),
            (Spec::Set(s), DsOp::Delete(k)) => u64::from(s.remove(&k)),
            (Spec::Set(s), DsOp::Contains(k)) => u64::from(s.contains(&k)),
            (Spec::Queue(q), DsOp::Enqueue(v)) => {
                q.push_back(v);
                1
            }
            (Spec::Queue(q), DsOp::Dequeue) => q.pop_front().unwrap_or(0),
            (Spec::Queue(q), DsOp::Peek) => q.front().copied().unwrap_or(0),
            (spec, op) => panic!("operation {op} does not fit spec {spec:?}"),
        }
    }

    /// Canonical fingerprint for memoization.
    fn fingerprint(&self) -> Vec<u64> {
        match self {
            Spec::Set(s) => s.iter().copied().collect(),
            Spec::Queue(q) => q.iter().copied().collect(),
        }
    }
}

/// A witness that a history is *not* linearizable.
#[derive(Debug, Clone)]
pub struct LinearizabilityViolation {
    /// Human-readable explanation with the offending history.
    pub message: String,
}

impl std::fmt::Display for LinearizabilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// The longest history [`check_linearizable`] searches (one bit of a
/// `u64` mask per operation).
pub const MAX_HISTORY: usize = 64;

/// Checks `history` against `kind` with Wing–Gong search.
///
/// Pending operations (no response) may be linearized at any point after
/// their invocation — or not at all (they may never have taken effect).
///
/// # Panics
///
/// Panics on a history longer than [`MAX_HISTORY`].
pub fn check_linearizable(
    kind: SpecKind,
    history: &[OpRecord],
) -> Result<(), LinearizabilityViolation> {
    assert!(
        history.len() <= MAX_HISTORY,
        "history too long for the bitmask search"
    );
    let n = history.len();
    let all_completed: u64 = history
        .iter()
        .enumerate()
        .filter(|(_, r)| r.completed())
        .fold(0, |m, (i, _)| m | (1 << i));
    // DFS with memoization over (linearized mask, spec state).
    let mut seen: HashSet<(u64, Vec<u64>)> = HashSet::new();
    let mut stack: Vec<(u64, Spec)> = vec![(0, Spec::new(kind))];
    while let Some((mask, spec)) = stack.pop() {
        if mask & all_completed == all_completed {
            return Ok(());
        }
        if !seen.insert((mask, spec.fingerprint())) {
            continue;
        }
        // The earliest response among unlinearized ops bounds which
        // invocations may linearize next.
        let min_respond = (0..n)
            .filter(|i| mask & (1 << i) == 0)
            .map(|i| history[i].respond)
            .min()
            .unwrap_or(u64::MAX);
        for (i, record) in history.iter().enumerate() {
            if mask & (1 << i) != 0 || record.invoke > min_respond {
                continue;
            }
            let mut next = spec.clone();
            let expected = next.apply(record.op);
            if let Some(actual) = record.result {
                if actual != expected {
                    continue;
                }
            }
            stack.push((mask | (1 << i), next));
        }
    }
    Err(LinearizabilityViolation {
        message: format!(
            "history is not linearizable against the {kind:?} spec:\n{}",
            format_history(history)
        ),
    })
}

/// Renders a history, one op per line, in invocation order.
pub fn format_history(history: &[OpRecord]) -> String {
    let mut sorted: Vec<&OpRecord> = history.iter().collect();
    sorted.sort_by_key(|r| r.invoke);
    sorted
        .iter()
        .map(|r| match r.result {
            Some(res) => format!(
                "  [{:>3},{:>3}] t{} {} -> {}",
                r.invoke, r.respond, r.thread, r.op, res
            ),
            None => format!("  [{:>3},  ∞] t{} {} -> pending", r.invoke, r.thread, r.op),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(thread: usize, op: DsOp, invoke: u64, respond: u64, result: u64) -> OpRecord {
        OpRecord {
            thread,
            op,
            invoke,
            respond,
            result: Some(result),
        }
    }

    #[test]
    fn sequential_set_history_is_linearizable() {
        let h = vec![
            rec(0, DsOp::Insert(5), 0, 1, 1),
            rec(0, DsOp::Contains(5), 2, 3, 1),
            rec(0, DsOp::Delete(5), 4, 5, 1),
            rec(0, DsOp::Contains(5), 6, 7, 0),
        ];
        assert!(check_linearizable(SpecKind::Set, &h).is_ok());
    }

    #[test]
    fn overlapping_ops_may_reorder() {
        // contains(5)=1 overlaps the insert that makes it true: the
        // checker must find the order insert < contains.
        let h = vec![
            rec(0, DsOp::Insert(5), 0, 3, 1),
            rec(1, DsOp::Contains(5), 1, 2, 1),
        ];
        assert!(check_linearizable(SpecKind::Set, &h).is_ok());
    }

    #[test]
    fn contains_true_for_absent_key_is_flagged() {
        let h = vec![
            rec(0, DsOp::Insert(5), 0, 1, 1),
            rec(0, DsOp::Delete(5), 2, 3, 1),
            // Non-overlapping contains after the delete responded: no
            // valid order makes it see the key.
            rec(1, DsOp::Contains(5), 4, 5, 1),
        ];
        let err = check_linearizable(SpecKind::Set, &h).unwrap_err();
        assert!(err.message.contains("not linearizable"));
    }

    #[test]
    fn double_insert_success_is_flagged() {
        let h = vec![
            rec(0, DsOp::Insert(5), 0, 3, 1),
            rec(1, DsOp::Insert(5), 1, 2, 1),
        ];
        assert!(check_linearizable(SpecKind::Set, &h).is_err());
    }

    #[test]
    fn queue_fifo_order_enforced() {
        let good = vec![
            rec(0, DsOp::Enqueue(10), 0, 1, 1),
            rec(0, DsOp::Enqueue(20), 2, 3, 1),
            rec(1, DsOp::Dequeue, 4, 5, 10),
            rec(1, DsOp::Dequeue, 6, 7, 20),
        ];
        assert!(check_linearizable(SpecKind::Queue, &good).is_ok());
        let lifo = vec![
            rec(0, DsOp::Enqueue(10), 0, 1, 1),
            rec(0, DsOp::Enqueue(20), 2, 3, 1),
            rec(1, DsOp::Dequeue, 4, 5, 20),
            rec(1, DsOp::Dequeue, 6, 7, 10),
        ];
        assert!(check_linearizable(SpecKind::Queue, &lifo).is_err());
    }

    #[test]
    fn peeks_must_return_the_current_front() {
        let good = vec![
            rec(0, DsOp::Peek, 0, 1, 0),
            rec(0, DsOp::Enqueue(10), 2, 3, 1),
            rec(1, DsOp::Peek, 4, 5, 10),
            rec(0, DsOp::Enqueue(20), 6, 7, 1),
            rec(1, DsOp::Peek, 8, 9, 10),
            rec(1, DsOp::Dequeue, 10, 11, 10),
            rec(1, DsOp::Peek, 12, 13, 20),
        ];
        assert!(check_linearizable(SpecKind::Queue, &good).is_ok());
        // 20 was enqueued, but never at the front while the peek ran.
        let behind = vec![
            rec(0, DsOp::Enqueue(10), 0, 1, 1),
            rec(0, DsOp::Enqueue(20), 2, 3, 1),
            rec(1, DsOp::Peek, 4, 5, 20),
        ];
        assert!(check_linearizable(SpecKind::Queue, &behind).is_err());
    }

    #[test]
    fn lost_value_detected_via_duplicate_dequeue() {
        let h = vec![
            rec(0, DsOp::Enqueue(10), 0, 1, 1),
            rec(1, DsOp::Dequeue, 2, 3, 10),
            rec(2, DsOp::Dequeue, 4, 5, 10),
        ];
        assert!(check_linearizable(SpecKind::Queue, &h).is_err());
    }

    #[test]
    fn pending_op_may_or_may_not_take_effect() {
        // A pending insert explains contains=1 ...
        let pending = OpRecord {
            thread: 0,
            op: DsOp::Insert(5),
            invoke: 0,
            respond: u64::MAX,
            result: None,
        };
        let seen = vec![pending, rec(1, DsOp::Contains(5), 1, 2, 1)];
        assert!(check_linearizable(SpecKind::Set, &seen).is_ok());
        // ... and equally a contains=0 (it may never have taken effect).
        let unseen = vec![pending, rec(1, DsOp::Contains(5), 1, 2, 0)];
        assert!(check_linearizable(SpecKind::Set, &unseen).is_ok());
    }

    #[test]
    fn recorder_stamps_execution_order() {
        let rec = HistoryRecorder::new();
        let a = rec.invoke(0, DsOp::Insert(1));
        let b = rec.invoke(1, DsOp::Contains(1));
        rec.respond(a, 1);
        rec.respond(b, 1);
        let h = rec.history();
        assert_eq!(h.len(), 2);
        assert!(h[a].invoke < h[b].invoke);
        assert!(h[b].invoke < h[a].respond);
        assert!(h.iter().all(|r| r.completed()));
        assert!(check_linearizable(SpecKind::Set, &h).is_ok());
    }
}
