//! The traced run: forwarding decorators at the `Worker`, `SchemeThread`,
//! `OpBody` and `OpMem` boundaries.
//!
//! Every call is counted exactly; a deterministic 1-in-64 sample of the
//! calls at each boundary is timed (an `Instant` pair costs about as much
//! as a short simulated step, so timing every call would measure the
//! timer). A layer's total is its sampled mean × its exact count, and its
//! self time is that total minus the same for its child boundaries.
//!
//! A call is never timed inside another timed call, so no sampled
//! duration contains a timer read; the counting of untimed calls stays in
//! their parent layer's self time.
//!
//! All span state lives in one [`ThreadTrace`] per simulated thread,
//! shared by that thread's decorators through an `Rc` — plain fields, no
//! thread-locals.
//!
//! The decorators must forward **every** trait method, defaulted ones
//! included: a default silently changes the program (the default
//! `protect_slot` is a no-op, which would disable hazard pointers). The
//! benchmark proves them transparent by comparing each traced config's
//! simulated outputs with the untraced run's, byte for byte.

use st_machine::{Cpu, StepOutcome, Worker};
use st_obs::MetricsRegistry;
use st_reclaim::SchemeThread;
use st_simheap::{Addr, Word};
use st_simhtm::Abort;
use stacktrack::{OpBody, OpMem, Step};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// A traced boundary. Each kind has one fixed parent kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Worker::step` (parent: the simulation).
    Step,
    /// `SchemeThread::idle_work_pending`.
    IdleCheck,
    /// `SchemeThread::begin_op`.
    BeginOp,
    /// `SchemeThread::step_op`.
    StepOp,
    /// `SchemeThread::step_idle`.
    StepIdle,
    /// One `OpBody` invocation: a structure's basic block.
    Block,
    /// `OpMem::load`.
    Load,
    /// `OpMem::load_ptr`.
    LoadPtr,
    /// `OpMem::store`.
    Store,
    /// `OpMem::cas`.
    Cas,
    /// `OpMem::alloc`.
    Alloc,
    /// `OpMem::retire_unlinked`.
    Retire,
    /// `OpMem::free_unpublished`.
    FreeUnpublished,
    /// `OpMem::protect_slot`.
    Protect,
    /// `OpMem::get_local` and `OpMem::set_local`.
    Local,
    /// `OpMem::force_split`, `user_tx_begin` and `user_tx_end`.
    Control,
}

/// Number of [`Kind`]s.
const KINDS: usize = 16;

/// The `OpMem` kinds, children of [`Kind::Block`].
pub const OPMEM_KINDS: [Kind; 10] = [
    Kind::Load,
    Kind::LoadPtr,
    Kind::Store,
    Kind::Cas,
    Kind::Alloc,
    Kind::Retire,
    Kind::FreeUnpublished,
    Kind::Protect,
    Kind::Local,
    Kind::Control,
];

impl Kind {
    /// Span name, prefixed with its layer.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "workload.step",
            Kind::IdleCheck => "reclaim.idle_work_pending",
            Kind::BeginOp => "reclaim.begin_op",
            Kind::StepOp => "reclaim.step_op",
            Kind::StepIdle => "reclaim.step_idle",
            Kind::Block => "structures.block",
            Kind::Load => "opmem.load",
            Kind::LoadPtr => "opmem.load_ptr",
            Kind::Store => "opmem.store",
            Kind::Cas => "opmem.cas",
            Kind::Alloc => "opmem.alloc",
            Kind::Retire => "opmem.retire",
            Kind::FreeUnpublished => "opmem.free_unpublished",
            Kind::Protect => "opmem.protect",
            Kind::Local => "opmem.local",
            Kind::Control => "opmem.control",
        }
    }

    /// The boundary every call of this kind is nested in (`None`: the
    /// simulation run itself).
    fn parent(self) -> Option<Kind> {
        match self {
            Kind::Step => None,
            Kind::IdleCheck | Kind::BeginOp | Kind::StepOp | Kind::StepIdle => Some(Kind::Step),
            Kind::Block => Some(Kind::StepOp),
            _ => Some(Kind::Block),
        }
    }
}

/// Whether call number `seq` of `kind` on `thread` of `config` is timed: a
/// fixed 1-in-64 choice. The kind is hashed in because nested boundaries
/// advance in lockstep (one `step_op`, one block per step), and the
/// thread and config because a rare boundary makes only a few calls per
/// thread, which a shared rule would always skip or always time. The mix
/// (splitmix64's finalizer) keeps the choice off periodic call patterns.
fn sampled(seq: u64, kind: Kind, thread: u32, config: u64) -> bool {
    let mut z = seq ^ (kind as u64) << 58 ^ u64::from(thread) << 48 ^ config << 32;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 58 == 0
}

/// Exact call count and sampled time of one boundary.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    /// Calls made.
    calls: u64,
    /// Calls timed.
    sampled: u64,
    /// Summed duration of the timed calls, timer cost removed, in ns.
    sampled_ns: u64,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    /// Call number of this kind on this thread.
    seq: u64,
    /// Call number of the enclosing parent-kind call (the config index
    /// for a [`Kind::Step`], whose parent is the simulation).
    parent_seq: u64,
    /// Operations this thread had begun when the span started.
    op_seq: u64,
    start_ns: u64,
    end_ns: u64,
}

/// All trace state of one simulated thread in one config.
pub struct ThreadTrace {
    agg: [Agg; KINDS],
    blocks_ok: u64,
    op_seq: u64,
    /// A timed call is open: calls nested in it are counted, not timed.
    timing: bool,
    config: u64,
    thread: u32,
    epoch: Instant,
    timer_ns: u64,
    /// Preallocated; spans past `span_cap` are only aggregated.
    spans: Vec<Span>,
    span_cap: usize,
}

/// A call in progress: its number and, if sampled, its start.
struct Ticket {
    seq: u64,
    start: Option<Instant>,
}

impl ThreadTrace {
    /// Trace state for `thread` of config number `config`; span times are
    /// relative to `epoch` and `timer_ns` (one `Instant` pair) is removed
    /// from every sampled duration.
    pub fn new(config: u64, thread: u32, epoch: Instant, timer_ns: u64, span_cap: usize) -> Self {
        Self {
            agg: [Agg::default(); KINDS],
            blocks_ok: 0,
            op_seq: 0,
            timing: false,
            config,
            thread,
            epoch,
            timer_ns,
            spans: Vec::with_capacity(span_cap),
            span_cap,
        }
    }

    #[inline]
    fn enter(&mut self, kind: Kind) -> Ticket {
        let a = &mut self.agg[kind as usize];
        let seq = a.calls;
        a.calls += 1;
        let timed = !self.timing && sampled(seq, kind, self.thread, self.config);
        self.timing |= timed;
        Ticket {
            seq,
            start: timed.then(Instant::now),
        }
    }

    #[inline]
    fn exit(&mut self, kind: Kind, ticket: Ticket) {
        let Some(start) = ticket.start else {
            return;
        };
        let end = Instant::now();
        self.timing = false;
        let ns = ((end - start).as_nanos() as u64).saturating_sub(self.timer_ns);
        let a = &mut self.agg[kind as usize];
        a.sampled += 1;
        a.sampled_ns += ns;
        if self.spans.len() < self.span_cap {
            let parent_seq = match kind.parent() {
                Some(p) => self.agg[p as usize].calls - 1,
                None => self.config,
            };
            self.spans.push(Span {
                kind,
                seq: ticket.seq,
                parent_seq,
                op_seq: self.op_seq,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Exact calls of `kind`.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.agg[kind as usize].calls
    }

    /// Writes this thread's spans as JSON lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.kind.parent().map_or("machine.run", Kind::name);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"config\":{},\"thread\":{},\"op_seq\":{},\"seq\":{},\
                 \"parent\":\"{}\",\"parent_seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.name(),
                self.config,
                self.thread,
                s.op_seq,
                s.seq,
                parent,
                s.parent_seq,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Runs `f` as one call of `kind`.
#[inline]
fn timed<R>(trace: &RefCell<ThreadTrace>, kind: Kind, f: impl FnOnce() -> R) -> R {
    let ticket = trace.borrow_mut().enter(kind);
    let r = f();
    trace.borrow_mut().exit(kind, ticket);
    r
}

/// Cost of one `Instant` pair, in ns: the least batch mean of back-to-back
/// reads, which a sampled span's duration includes.
pub fn timer_overhead_ns() -> u64 {
    (0..16)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..10_000 {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as u64 / 10_000
        })
        .min()
        .unwrap_or(0)
}

/// `Worker` decorator: one span per simulator step.
pub struct TracedWorker<W> {
    inner: W,
    trace: Rc<RefCell<ThreadTrace>>,
}

impl<W> TracedWorker<W> {
    /// Wraps `inner`.
    pub fn new(inner: W, trace: Rc<RefCell<ThreadTrace>>) -> Self {
        Self { inner, trace }
    }

    /// The wrapped worker.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Worker> Worker for TracedWorker<W> {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        timed(&self.trace, Kind::Step, || self.inner.step(cpu))
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        self.inner.finish(cpu);
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.inner.neutralize(cpu);
    }
}

/// `SchemeThread` decorator; also wraps every operation body it drives.
pub struct TracedScheme {
    inner: Box<dyn SchemeThread>,
    trace: Rc<RefCell<ThreadTrace>>,
}

impl TracedScheme {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn SchemeThread>, trace: Rc<RefCell<ThreadTrace>>) -> Self {
        Self { inner, trace }
    }
}

/// `body` as a traced block whose memory operations are traced too.
fn traced_body<'a, 'b: 'a>(
    trace: &'a RefCell<ThreadTrace>,
    body: &'a mut OpBody<'b>,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + use<'a, 'b> {
    move |mem, cpu| {
        let ticket = trace.borrow_mut().enter(Kind::Block);
        let r = body(&mut TracedMem { inner: mem, trace }, cpu);
        let mut t = trace.borrow_mut();
        t.blocks_ok += u64::from(r.is_ok());
        t.exit(Kind::Block, ticket);
        r
    }
}

impl SchemeThread for TracedScheme {
    fn begin_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize) {
        self.trace.borrow_mut().op_seq += 1;
        timed(&self.trace, Kind::BeginOp, || {
            self.inner.begin_op(cpu, op_id, slots)
        });
    }

    fn step_op(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word> {
        let trace = &*self.trace;
        let inner = &mut self.inner;
        timed(trace, Kind::StepOp, || {
            inner.step_op(cpu, &mut traced_body(trace, body))
        })
    }

    fn idle_work_pending(&self) -> bool {
        timed(&self.trace, Kind::IdleCheck, || {
            self.inner.idle_work_pending()
        })
    }

    fn step_idle(&mut self, cpu: &mut Cpu) {
        timed(&self.trace, Kind::StepIdle, || self.inner.step_idle(cpu));
    }

    fn run_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize, body: &mut OpBody<'_>) -> Word {
        self.trace.borrow_mut().op_seq += 1;
        let trace = &*self.trace;
        self.inner
            .run_op(cpu, op_id, slots, &mut traced_body(trace, body))
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.inner.neutralize(cpu);
    }

    fn outstanding_garbage(&self) -> u64 {
        self.inner.outstanding_garbage()
    }

    fn st_stats(&self) -> Option<stacktrack::StThreadStats> {
        self.inner.st_stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn report_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.report_metrics(reg);
    }

    fn teardown(&mut self, cpu: &mut Cpu) {
        self.inner.teardown(cpu);
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
}

/// `OpMem` decorator handed to a traced block.
struct TracedMem<'m, 't> {
    inner: &'m mut dyn OpMem,
    trace: &'t RefCell<ThreadTrace>,
}

impl OpMem for TracedMem<'_, '_> {
    fn load(&mut self, cpu: &mut Cpu, addr: Addr, off: u64) -> Result<Word, Abort> {
        timed(self.trace, Kind::Load, || self.inner.load(cpu, addr, off))
    }

    fn load_ptr(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        guard: usize,
    ) -> Result<Word, Abort> {
        timed(self.trace, Kind::LoadPtr, || {
            self.inner.load_ptr(cpu, addr, off, guard)
        })
    }

    fn store(&mut self, cpu: &mut Cpu, addr: Addr, off: u64, value: Word) -> Result<(), Abort> {
        timed(self.trace, Kind::Store, || {
            self.inner.store(cpu, addr, off, value)
        })
    }

    fn cas(
        &mut self,
        cpu: &mut Cpu,
        addr: Addr,
        off: u64,
        expected: Word,
        new: Word,
    ) -> Result<Result<Word, Word>, Abort> {
        timed(self.trace, Kind::Cas, || {
            self.inner.cas(cpu, addr, off, expected, new)
        })
    }

    fn alloc(&mut self, cpu: &mut Cpu, words: usize) -> Addr {
        timed(self.trace, Kind::Alloc, || self.inner.alloc(cpu, words))
    }

    fn retire_unlinked(&mut self, cpu: &mut Cpu, addr: Addr) -> Result<(), Abort> {
        // A pass-through of the trait-internal entry point; the traced
        // run's byte-identical outputs prove it transparent.
        timed(self.trace, Kind::Retire, || {
            OpMem::retire_unlinked(&mut *self.inner, cpu, addr)
        })
    }

    fn free_unpublished(&mut self, cpu: &mut Cpu, addr: Addr) -> Result<(), Abort> {
        timed(self.trace, Kind::FreeUnpublished, || {
            self.inner.free_unpublished(cpu, addr)
        })
    }

    fn force_split(&mut self, cpu: &mut Cpu) {
        timed(self.trace, Kind::Control, || self.inner.force_split(cpu));
    }

    fn user_tx_begin(&mut self, cpu: &mut Cpu) {
        timed(self.trace, Kind::Control, || self.inner.user_tx_begin(cpu));
    }

    fn user_tx_end(&mut self, cpu: &mut Cpu) -> Result<(), Abort> {
        timed(self.trace, Kind::Control, || self.inner.user_tx_end(cpu))
    }

    fn protect_slot(&mut self, cpu: &mut Cpu, guard: usize, value: Word) {
        // A pass-through of the trait-internal entry point; the traced
        // run's byte-identical outputs prove it transparent.
        timed(self.trace, Kind::Protect, || {
            OpMem::protect_slot(&mut *self.inner, cpu, guard, value)
        });
    }

    fn get_local(&mut self, cpu: &mut Cpu, slot: usize) -> Word {
        timed(self.trace, Kind::Local, || self.inner.get_local(cpu, slot))
    }

    fn set_local(&mut self, cpu: &mut Cpu, slot: usize, value: Word) {
        timed(self.trace, Kind::Local, || {
            self.inner.set_local(cpu, slot, value)
        });
    }
}

/// Call counts and sampled times summed over threads and configs.
#[derive(Debug, Default)]
pub struct Totals {
    agg: [Agg; KINDS],
    blocks_ok: u64,
    timer_ns: f64,
}

impl Totals {
    /// Adds one thread's trace.
    pub fn add(&mut self, t: &ThreadTrace) {
        for (sum, a) in self.agg.iter_mut().zip(&t.agg) {
            sum.calls += a.calls;
            sum.sampled += a.sampled;
            sum.sampled_ns += a.sampled_ns;
            self.timer_ns += (a.sampled * t.timer_ns) as f64;
        }
        self.blocks_ok += t.blocks_ok;
    }

    /// Time spent reading the timer for sampled calls, in ns.
    pub fn timer_ns(&self) -> f64 {
        self.timer_ns
    }

    /// Exact calls of `kind`.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.agg[kind as usize].calls
    }

    /// Blocks that returned `Ok`.
    pub fn blocks_ok(&self) -> u64 {
        self.blocks_ok
    }

    /// Sampled mean duration of one `kind` call, in ns.
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let a = self.agg[kind as usize];
        if a.sampled == 0 {
            0.0
        } else {
            a.sampled_ns as f64 / a.sampled as f64
        }
    }

    /// Estimated total time in `kind` calls: sampled mean × exact count.
    pub fn total_ns(&self, kind: Kind) -> f64 {
        self.mean_ns(kind) * self.calls(kind) as f64
    }
}
