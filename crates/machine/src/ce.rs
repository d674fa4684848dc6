//! The computational element (CE) execution engine.
//!
//! Each CE is a pipelined 68020-compatible processor with a vector unit:
//! eight 32-word vector registers, register–memory vector instructions
//! with one memory operand, 11.8 MFLOPS peak on chained 64-bit operations.
//! The engine executes a [`Program`] as a state machine advanced one cycle
//! at a time, interacting with the shared cluster cache, its private
//! prefetch unit, the forward network port and the concurrency control
//! bus.

use std::sync::Arc;

use crate::cache::{CacheAccess, ClusterCache};
use crate::ccbus::CcBus;
use crate::config::{CeConfig, MachineConfig};
use crate::fault::{CeFaultCtl, CtlPoll, FaultCtlStats, ReplyAction};
use crate::ids::{CeId, ClusterId};
use crate::lower::{LProgram, UOp};
use crate::memory::address::{module_of, page_of};
use crate::memory::sync::{Rel, SyncInstr, SyncOpKind, SyncOutcome};
use crate::monitor::Histogrammer;
use crate::network::packet::{MemReply, MemRequest, Packet, Payload, RequestKind, Stream};
use crate::network::Omega;
use crate::prefetch::{Pfu, PrefetchStats};
use crate::program::{Block, MemOperand, Op, Program, VectorOp};
use crate::sched::{BarrierDef, BarrierScope, CounterDef, EPOCH_SPACING};
use crate::time::Cycle;
use crate::trace::{class, hop, CeTraceCtl, TraceEvent};
use crate::vm::Tlb;

/// Everything a CE touches outside itself during one tick.
pub struct CeContext<'a> {
    /// The forward network (request injection at this CE's port).
    pub forward: &'a mut Omega,
    /// The CE's cluster's shared cache.
    pub cache: &'a mut ClusterCache,
    /// The CE's cluster's concurrency control bus.
    pub ccbus: &'a mut CcBus,
    /// The CE's cluster's TLB (used when VM modelling is enabled).
    pub tlb: &'a mut Tlb,
    /// The machine-wide page table (used when VM modelling is enabled).
    pub page_table: &'a mut crate::vm::PageTable,
    /// Machine counter registry.
    pub counters: &'a [CounterDef],
    /// Machine barrier registry.
    pub barriers: &'a [BarrierDef],
    /// The external event tracer (software event posting).
    pub tracer: &'a mut crate::monitor::EventTracer,
}

/// Per-CE execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CeStats {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Vector elements processed.
    pub vector_elements: u64,
    /// Cycles in which the CE made forward progress (issued or retired
    /// work, including modelled fixed-latency compute stalls).
    pub busy: u64,
    /// Cycles after the CE's program completed while the rest of the
    /// machine was still running.
    pub idle: u64,
    /// Cycles spent blocked waiting on memory (vector/scalar data).
    pub stall_mem: u64,
    /// Cycles spent blocked on synchronization (counters, barriers,
    /// fences).
    pub stall_sync: u64,
    /// TLB misses taken (VM modelling enabled only).
    pub tlb_misses: u64,
    /// Hard (first-touch) page faults taken (VM modelling enabled only).
    pub page_faults: u64,
    /// Cycles spent in virtual-memory activity (TLB misses + faults).
    pub vm_cycles: u64,
    /// Cycle at which the program finished (0 if still running).
    pub done_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GbPhase {
    AwaitArrive,
    PollWait { at: Cycle },
    AwaitPoll,
}

#[derive(Debug, Clone, Copy)]
enum CeState {
    Fetch,
    Stall {
        until: Cycle,
    },
    VectorDirect {
        base: u64,
        stride: i64,
        length: u32,
        issued: u32,
        completed: u32,
        start_at: Cycle,
        /// Gather: element addresses are pseudo-randomly scattered.
        gather: bool,
    },
    VectorPref {
        length: u32,
        consumed: u32,
        start_at: Cycle,
    },
    VectorGWrite {
        base: u64,
        stride: i64,
        length: u32,
        issued: u32,
        start_at: Cycle,
        /// Scatter: element addresses are pseudo-randomly scattered.
        scatter: bool,
    },
    VectorCache {
        base: u64,
        stride: i64,
        write: bool,
        length: u32,
        issued: u32,
        last_ready: Cycle,
        start_at: Cycle,
    },
    AwaitScalarRead,
    AwaitSync,
    AwaitCounter,
    AwaitClusterBarrier,
    GlobalBarrier {
        barrier: usize,
        epoch: u64,
        phase: GbPhase,
        /// Consecutive failed polls (drives exponential backoff so
        /// spinning CEs do not saturate the barrier's memory module).
        misses: u32,
    },
    AwaitFence,
    Done,
}

#[derive(Debug, Clone, Copy)]
enum FrameKind {
    Root,
    Repeat {
        remaining: u32,
    },
    SelfSched {
        counter: usize,
        limit: u64,
        chunk: u32,
        dispatch_cost: u32,
        epoch: u64,
        chunk_end: u64,
    },
}

#[derive(Debug, Clone)]
struct Frame {
    block: Block,
    pc: usize,
    kind: FrameKind,
}

/// A flat loop frame for lowered execution: the loop body's first
/// micro-op (`head`), the matching end-marker index (`end`), and the
/// same per-kind bookkeeping the interpreter keeps in [`Frame`].
#[derive(Debug, Clone, Copy)]
struct LFrame {
    head: u32,
    end: u32,
    kind: FrameKind,
}

/// Lowered-execution state: the compiled micro-op stream, a single flat
/// program counter, and the flat loop-frame stack. Present only when the
/// machine runs with lowering enabled; when absent the engine is the
/// unmodified tree-walking interpreter (the differential oracle).
#[derive(Debug)]
struct FlatCtl {
    prog: Arc<LProgram>,
    pc: u32,
    frames: Vec<LFrame>,
    /// An [`UOp::ArmFire`] has executed its arm phase and owes the fire.
    fire_pending: bool,
}

enum Step {
    Progress,
    Blocked,
}

/// One CE's execution engine.
pub struct CeEngine {
    id: CeId,
    cluster: ClusterId,
    ce_in_cluster: usize,
    /// Shared, immutable CE configuration (one allocation machine-wide).
    cfg: Arc<CeConfig>,
    vm_enabled: bool,
    page_words: u64,
    tlb_miss_cycles: u32,
    page_fault_cycles: u32,
    modules: usize,
    frames: Vec<Frame>,
    /// Lowered-execution state (`None`: tree-walking interpreter).
    flat: Option<FlatCtl>,
    /// Lowered-mode quiescent horizon: strictly before this cycle a full
    /// [`CeEngine::tick`] is known to reduce to exactly one attribution
    /// increment, so the run loop may take the quick-tick path. Replies
    /// clear it ([`CeEngine::receive`]); every full tick recomputes it.
    quiet_until: Cycle,
    indices: Vec<u64>,
    state: CeState,
    pfu: Pfu,
    pending_pkt: Option<Packet>,
    outstanding_reads: u32,
    outstanding_writes: u32,
    direct_ready: std::collections::VecDeque<Cycle>,
    scalar_ready: Option<Cycle>,
    sync_result: Option<SyncOutcome>,
    /// Next epoch per counter id (flat, lazily grown — counter ids are
    /// small dense registry indices, so a `Vec` beats hashing on the
    /// dispatch path).
    counter_epochs: Vec<u64>,
    /// Uses per barrier id (flat, lazily grown like `counter_epochs`).
    barrier_uses: Vec<u64>,
    /// Elected to fetch the next shared-SDOALL value; waiting for the
    /// port to free.
    sdoall_must_fetch: bool,
    /// The shared-SDOALL fetch is in flight; its reply must be posted to
    /// the cluster bus.
    sdoall_awaiting_reply: bool,
    ces_per_cluster: usize,
    vm_stall_until: Cycle,
    /// Retry controller for sequenced global-memory operations; allocated
    /// only when the machine runs under an enabled fault plan.
    fault_ctl: Option<Box<CeFaultCtl>>,
    /// Next retry-protocol sequence number (sequence 0 means unsequenced,
    /// so numbering starts at 1).
    next_seq: u64,
    /// Causal-tracing controller; allocated only when the machine runs
    /// with journey tracing enabled.
    trace_ctl: Option<Box<CeTraceCtl>>,
    stats: CeStats,
}

impl std::fmt::Debug for CeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CeEngine")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

impl CeEngine {
    /// Build an engine for CE `id` loaded with `program`. The CE
    /// configuration is shared machine-wide via `ce_cfg` (one allocation,
    /// not a per-engine clone). When `lowered` carries the program's
    /// compiled form the engine executes the flat micro-op stream;
    /// otherwise it runs the tree-walking interpreter.
    pub fn new(
        id: CeId,
        cfg: &MachineConfig,
        ce_cfg: Arc<CeConfig>,
        program: Program,
        lowered: Option<Arc<LProgram>>,
    ) -> CeEngine {
        let ces_per_cluster = cfg.ces_per_cluster;
        let root = Frame {
            block: program.into_body(),
            pc: 0,
            kind: FrameKind::Root,
        };
        let trace_plan = cfg.trace.as_ref().filter(|p| p.enabled());
        let mut pfu = Pfu::new(
            id,
            &cfg.prefetch,
            cfg.vm.page_words,
            cfg.global_memory.modules,
            cfg.faults
                .as_ref()
                .filter(|p| p.enabled())
                .map(|p| u64::from(p.timeout_cycles)),
        );
        if let Some(p) = trace_plan {
            pfu.enable_trace(p.seed, p.sample_ppm);
        }
        CeEngine {
            id,
            cluster: id.cluster(ces_per_cluster),
            ce_in_cluster: id.index_in_cluster(ces_per_cluster),
            cfg: ce_cfg,
            vm_enabled: cfg.vm.enabled,
            page_words: cfg.vm.page_words,
            tlb_miss_cycles: cfg.vm.tlb_miss_cycles,
            page_fault_cycles: cfg.vm.page_fault_cycles,
            modules: cfg.global_memory.modules,
            frames: vec![root],
            flat: lowered.map(|prog| FlatCtl {
                prog,
                pc: 0,
                frames: Vec::new(),
                fire_pending: false,
            }),
            quiet_until: Cycle::ZERO,
            indices: Vec::new(),
            state: CeState::Fetch,
            pfu,
            pending_pkt: None,
            outstanding_reads: 0,
            outstanding_writes: 0,
            direct_ready: std::collections::VecDeque::new(),
            scalar_ready: None,
            sync_result: None,
            counter_epochs: Vec::new(),
            barrier_uses: Vec::new(),
            sdoall_must_fetch: false,
            sdoall_awaiting_reply: false,
            ces_per_cluster,
            vm_stall_until: Cycle::ZERO,
            fault_ctl: cfg
                .faults
                .as_ref()
                .filter(|p| p.enabled())
                .map(|p| Box::new(CeFaultCtl::new(p))),
            next_seq: 1,
            trace_ctl: trace_plan
                .map(|p| Box::new(CeTraceCtl::new(p.seed, p.sample_ppm, id.0 as u16))),
            stats: CeStats::default(),
        }
    }

    /// This CE's id.
    pub fn id(&self) -> CeId {
        self.id
    }

    /// This CE's cluster.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// True when the program has run to completion and every generated
    /// request has left the CE (including retries still awaiting their
    /// first successful reply).
    pub fn is_done(&self) -> bool {
        matches!(self.state, CeState::Done)
            && self.pending_pkt.is_none()
            && self.fault_ctl.as_deref().is_none_or(CeFaultCtl::is_empty)
    }

    /// Execution statistics.
    pub fn stats(&self) -> CeStats {
        self.stats
    }

    /// Prefetch-unit statistics (flushing the in-progress trace).
    pub fn prefetch_stats(&mut self) -> PrefetchStats {
        self.pfu.flush_trace();
        self.pfu.stats()
    }

    /// Prefetch-unit statistics without flushing the in-progress trace
    /// (read-only snapshots mid-run; an active fire's latency samples are
    /// not yet folded in).
    pub fn prefetch_stats_raw(&self) -> PrefetchStats {
        self.pfu.stats()
    }

    /// Retry-controller counters (zero when faults are disabled).
    pub fn fault_stats(&self) -> FaultCtlStats {
        self.fault_ctl
            .as_deref()
            .map(CeFaultCtl::stats)
            .unwrap_or_default()
    }

    /// Retry-latency histogram, when a retry controller exists.
    pub(crate) fn fault_retry_latency(&self) -> Option<&Histogrammer> {
        self.fault_ctl.as_deref().map(CeFaultCtl::retry_latency)
    }

    /// Tracked operations still awaiting a successful reply.
    pub(crate) fn fault_pending(&self) -> u64 {
        self.fault_ctl.as_deref().map_or(0, |c| c.pending() as u64)
    }

    /// The failure description once the retry controller gave up on an
    /// operation (the machine aborts with `MachineError::Faulted`).
    pub(crate) fn fault_exhausted(&self) -> Option<String> {
        self.fault_ctl
            .as_deref()
            .and_then(|c| c.exhausted().map(str::to_string))
    }

    /// True when the engine is parked in a synchronization wait that only
    /// another CE's progress can resolve — the states the forward-progress
    /// watchdog counts as potentially deadlocked. Waits that resolve
    /// through traffic or the retry controller (scalar reads, sync
    /// replies, fences) are excluded: those always keep an event pending.
    pub(crate) fn sync_blocked(&self) -> bool {
        matches!(
            self.state,
            CeState::GlobalBarrier { .. } | CeState::AwaitClusterBarrier | CeState::AwaitCounter
        )
    }

    /// Compact Debug rendering of the engine state for hang reports.
    pub(crate) fn hang_state(&self) -> String {
        let mut s = format!("{:?}", self.state);
        if s.len() > 48 {
            s.truncate(47);
            s.push('…');
        }
        s
    }

    /// Handle a reply arriving from the reverse network.
    pub fn receive(&mut self, now: Cycle, reply: MemReply) {
        // Replies are the only external push into a CE (bus grants are
        // pulled): any arrival may invalidate the quiescent horizon, so
        // drop it and let the next full tick recompute.
        self.quiet_until = Cycle::ZERO;
        if let Some(ctl) = self.fault_ctl.as_deref_mut() {
            if reply.seq != 0 {
                match ctl.on_reply(now, &reply) {
                    ReplyAction::Deliver => {}
                    // Duplicate of an already-delivered reply, or a NACK
                    // the controller will resend after backoff.
                    ReplyAction::Stale | ReplyAction::Nacked => return,
                }
            } else if reply.nack {
                // Unsequenced (prefetch) NACK: discard — the prefetch
                // unit's own timeout re-requests the missing element.
                return;
            }
        }
        // Every reply surviving the retry filter above is a real delivery:
        // close the journey at the CE. Resends share the original id and
        // assembly keeps the earliest stamp per hop, so duplicates are
        // harmless.
        if reply.trace != 0 {
            if let Some(tc) = self.trace_ctl.as_deref_mut() {
                tc.stamp(reply.trace, hop::RETIRE, 0, now);
            }
        }
        match reply.stream {
            Stream::Prefetch { elem, fire_seq } => self.pfu.receive(now, elem, fire_seq),
            Stream::Direct { .. } => self
                .direct_ready
                .push_back(now + u64::from(self.cfg.global_read_extra)),
            Stream::Scalar => {
                self.scalar_ready = Some(now + u64::from(self.cfg.global_read_extra));
            }
            Stream::Sync => self.sync_result = Some(SyncOutcome::decode(reply.value)),
            Stream::WriteAck => {
                self.outstanding_writes = self.outstanding_writes.saturating_sub(1);
            }
        }
    }

    /// The earliest future cycle at which this engine can change
    /// externally visible state, or `None` when it is waiting on something
    /// another subsystem must deliver (a network reply, a bus grant). The
    /// answer may be conservative — an earlier cycle than strictly needed
    /// only suppresses fast-forwarding, never changes behaviour — but must
    /// never be later than the first cycle at which [`CeEngine::tick`]
    /// would do anything beyond its fixed stall-attribution increments.
    pub(crate) fn next_event(
        &self,
        now: Cycle,
        ccbus: &CcBus,
        counters: &[CounterDef],
    ) -> Option<Cycle> {
        let soon = now + 1;
        if self.pending_pkt.is_some() {
            return Some(soon); // retries injection every cycle
        }
        let fault_ev = self.fault_ctl.as_deref().and_then(|c| c.next_event(now));
        if matches!(self.state, CeState::Done) {
            // Only idle cycles remain — except retries still draining.
            return fault_ev;
        }
        let pfu_ev = self.pfu.next_event(now);
        if pfu_ev == Some(soon) {
            return pfu_ev;
        }
        if now < self.vm_stall_until {
            return min_event(fault_ev, min_event(pfu_ev, Some(self.vm_stall_until)));
        }
        let state_ev = match &self.state {
            CeState::Done => None,
            CeState::Fetch => Some(soon),
            CeState::Stall { until } => Some((*until).max(soon)),
            CeState::VectorDirect {
                length,
                issued,
                start_at,
                ..
            } => {
                let drain = self.direct_ready.front().map(|&at| at.max(soon));
                let issue = (*issued < *length
                    && self.outstanding_reads < self.cfg.max_outstanding_global)
                    .then(|| (*start_at).max(soon));
                min_event(drain, issue)
            }
            CeState::VectorPref {
                length,
                consumed,
                start_at,
            } => {
                if now < *start_at {
                    Some((*start_at).max(soon))
                } else if *consumed >= *length || self.pfu.can_consume() {
                    Some(soon)
                } else {
                    None // waiting for prefetched words to return
                }
            }
            CeState::VectorGWrite {
                length,
                issued,
                start_at,
                ..
            } => {
                if *issued >= *length {
                    Some(soon)
                } else {
                    Some((*start_at).max(soon))
                }
            }
            CeState::VectorCache {
                write,
                length,
                issued,
                last_ready,
                ..
            } => {
                if *issued < *length {
                    Some(soon) // contends for cache banks every cycle
                } else if !*write && now < *last_ready {
                    Some((*last_ready).max(soon))
                } else {
                    Some(soon)
                }
            }
            CeState::AwaitScalarRead => self.scalar_ready.map(|at| at.max(soon)),
            CeState::AwaitSync => self.sync_result.is_some().then_some(soon),
            CeState::AwaitCounter => self.await_counter_event(soon, ccbus, counters),
            CeState::AwaitClusterBarrier => ccbus.peek_release(self.ce_in_cluster).then_some(soon),
            CeState::GlobalBarrier { phase, .. } => match phase {
                GbPhase::PollWait { at } => Some((*at).max(soon)),
                GbPhase::AwaitArrive | GbPhase::AwaitPoll => {
                    self.sync_result.is_some().then_some(soon)
                }
            },
            CeState::AwaitFence => (self.outstanding_writes == 0).then_some(soon),
        };
        min_event(fault_ev, min_event(pfu_ev, state_ev))
    }

    /// `next_event` for the [`CeState::AwaitCounter`] wait, which resolves
    /// differently per counter kind.
    fn await_counter_event(
        &self,
        soon: Cycle,
        ccbus: &CcBus,
        counters: &[CounterDef],
    ) -> Option<Cycle> {
        let FrameKind::SelfSched { counter, epoch, .. } = self.cur_kind() else {
            unreachable!("AwaitCounter without a SelfSched frame");
        };
        match counters[counter] {
            CounterDef::Cluster { .. } => ccbus.peek_grant(self.ce_in_cluster).then_some(soon),
            CounterDef::Global { .. } => self.sync_result.is_some().then_some(soon),
            CounterDef::GlobalShared { .. } => {
                if self.sdoall_awaiting_reply {
                    self.sync_result.is_some().then_some(soon)
                } else if self.sdoall_must_fetch
                    || ccbus.sdoall_can_take(self.ce_in_cluster, counter, epoch)
                {
                    // Will issue the elected fetch, or take a posted value.
                    Some(soon)
                } else {
                    None // another CE's fetch is in flight
                }
            }
        }
    }

    /// Credit `cycles` skipped quiescent cycles with exactly the counter
    /// increments the per-cycle [`CeEngine::tick`] would have made. Only
    /// valid over a span `next_event` declared event-free: every skipped
    /// tick is a no-op except for one stall/idle/busy attribution, decided
    /// by the (unchanging) state the same way the tick's fallthrough does.
    pub(crate) fn skip(&mut self, now: Cycle, cycles: u64) {
        debug_assert!(self.pending_pkt.is_none(), "skipped CE holds a packet");
        if matches!(self.state, CeState::Done) {
            self.stats.idle += cycles;
            return;
        }
        self.pfu.skip(cycles);
        if now < self.vm_stall_until {
            self.stats.stall_mem += cycles;
            return;
        }
        match self.state {
            CeState::VectorDirect { .. }
            | CeState::VectorPref { .. }
            | CeState::VectorCache { .. }
            | CeState::VectorGWrite { .. }
            | CeState::AwaitScalarRead
            | CeState::Fetch => self.stats.stall_mem += cycles,
            CeState::AwaitCounter
            | CeState::AwaitClusterBarrier
            | CeState::GlobalBarrier { .. }
            | CeState::AwaitSync
            | CeState::AwaitFence => self.stats.stall_sync += cycles,
            // Timed execution stalls model compute latency: busy.
            _ => self.stats.busy += cycles,
        }
    }

    /// Advance one cycle.
    pub fn tick(&mut self, now: Cycle, ctx: &mut CeContext<'_>) {
        // Flush a request that failed injection last cycle (even when the
        // program has finished — the final store must still drain). A
        // refused port leaves it latched untouched.
        if self.pending_pkt.is_some() && ctx.forward.inject_ready(self.id.port().0) {
            let pkt = self.pending_pkt.take().expect("checked above");
            assert!(
                ctx.forward.try_inject(self.id.port().0, pkt),
                "a ready port accepts"
            );
        }
        // Advance the retry controller (even after Done — the last store
        // or sync may still be draining through retries). At most one
        // resend per cycle, and only when the pending latch is free.
        if self.pending_pkt.is_none() {
            if let Some(ctl) = self.fault_ctl.as_deref_mut() {
                match ctl.poll(now) {
                    CtlPoll::Idle | CtlPoll::Exhausted => {}
                    CtlPoll::Resend(pkt) => {
                        if !ctx.forward.try_inject(self.id.port().0, pkt) {
                            self.pending_pkt = Some(pkt);
                        }
                    }
                }
            }
        }
        if matches!(self.state, CeState::Done) {
            self.stats.idle += 1;
            if self.flat.is_some() && self.pending_pkt.is_none() && self.fault_ctl.is_none() {
                // Nothing left to drain: every remaining tick is idle.
                self.quiet_until = Cycle(u64::MAX);
            }
            return;
        }
        // The PFU shares the CE's network port (skip the call — it goes
        // through a `dyn` parameter, so it never inlines — when idle).
        if !self.pfu.issue_idle() {
            self.pfu.tick(now, self.id.port().0, ctx.forward);
        }

        if now < self.vm_stall_until {
            self.stats.stall_mem += 1;
            return;
        }

        let mut progressed = false;
        let flat = self.flat.is_some();
        for _ in 0..16 {
            let s = if flat {
                self.step_lowered(now, ctx)
            } else {
                self.step(now, ctx)
            };
            match s {
                Step::Progress => progressed = true,
                Step::Blocked => break,
            }
        }
        if !progressed {
            match self.state {
                CeState::VectorDirect { .. }
                | CeState::VectorPref { .. }
                | CeState::VectorCache { .. }
                | CeState::VectorGWrite { .. }
                | CeState::AwaitScalarRead
                | CeState::Fetch => self.stats.stall_mem += 1,
                CeState::AwaitCounter
                | CeState::AwaitClusterBarrier
                | CeState::GlobalBarrier { .. }
                | CeState::AwaitSync
                | CeState::AwaitFence => self.stats.stall_sync += 1,
                // Timed execution stalls model compute latency: busy.
                _ => self.stats.busy += 1,
            }
        } else {
            self.stats.busy += 1;
        }
        if self.is_done() && self.stats.done_at == 0 {
            self.stats.done_at = now.0;
        }
        if self.flat.is_some() {
            self.note_quiet(now, ctx.counters);
        }
    }

    /// Lowered-mode quick tick: strictly before the quiescent horizon a
    /// full [`CeEngine::tick`] provably reduces to one attribution
    /// increment — the engine is parked in a wait that nothing but a
    /// reply delivery or a known future cycle can end, with no pending
    /// packet, no retry controller and an idle prefetch issue unit, so
    /// the packet flush, retry poll, PFU tick and step loop are all
    /// no-ops. Performs that increment (the same stall/idle/busy class
    /// the full tick's fallthrough would pick) and returns `true`;
    /// returns `false` when a full tick is required. Never engaged for
    /// the interpreter (the horizon stays at zero).
    #[inline]
    pub(crate) fn try_quick_tick(&mut self, now: Cycle, ccbus: &CcBus) -> bool {
        if now >= self.quiet_until {
            return false;
        }
        // CC-bus waits end on *pulled* state, so their horizon is
        // open-ended; the quick tick peeks (non-consuming) and falls
        // back to a full tick the cycle a release or grant becomes
        // visible — the same cycle the polling stepper would consume
        // it. A grant/release can only be posted for a CE that asked,
        // so the peeks are trivially false in every other wait.
        match self.state {
            CeState::AwaitClusterBarrier if ccbus.peek_release(self.ce_in_cluster) => {
                return false;
            }
            CeState::AwaitCounter if ccbus.peek_grant(self.ce_in_cluster) => {
                return false;
            }
            _ => {}
        }
        match self.state {
            CeState::Done => self.stats.idle += 1,
            CeState::VectorDirect { .. }
            | CeState::VectorPref { .. }
            | CeState::VectorCache { .. }
            | CeState::VectorGWrite { .. }
            | CeState::AwaitScalarRead
            | CeState::Fetch => self.stats.stall_mem += 1,
            CeState::AwaitCounter
            | CeState::AwaitClusterBarrier
            | CeState::GlobalBarrier { .. }
            | CeState::AwaitSync
            | CeState::AwaitFence => self.stats.stall_sync += 1,
            // Timed execution stalls model compute latency: busy.
            _ => self.stats.busy += 1,
        }
        true
    }

    /// Recompute the quiescent horizon after a full lowered-mode tick.
    ///
    /// A horizon is only legal for a wait that exactly two things can
    /// end: reaching a cycle already known (a fused stall's deadline, a
    /// scheduled completion), or a reply delivery — which always lands
    /// through [`CeEngine::receive`], where the horizon is dropped.
    /// Waits resolved by *pulled* state fall in two classes. CC-bus
    /// grants and barrier releases are cheap to peek without consuming,
    /// so [`CeEngine::try_quick_tick`] checks them itself and the
    /// horizon may be open-ended. Posted self-scheduling values and
    /// fetch elections have no such peek: those must keep ticking.
    /// `Cycle::MAX` therefore means "quiet until a reply arrives or a
    /// peeked bus flag flips".
    fn note_quiet(&mut self, now: Cycle, counters: &[CounterDef]) {
        self.quiet_until = Cycle::ZERO;
        if self.pending_pkt.is_some() || self.fault_ctl.is_some() || !self.pfu.issue_idle() {
            return;
        }
        let soon = now + 1;
        self.quiet_until = match self.state {
            CeState::Stall { until } if until > soon => until,
            CeState::Done => Cycle(u64::MAX),
            CeState::VectorCache {
                write,
                length,
                issued,
                last_ready,
                start_at,
                ..
            } => {
                if issued < length && start_at > soon {
                    start_at // startup ramp: no access before `start_at`
                } else if issued >= length && !write && last_ready > soon {
                    // All elements issued: quiet until the last fill.
                    last_ready
                } else {
                    Cycle::ZERO
                }
            }
            CeState::VectorGWrite { start_at, .. } if start_at > soon => start_at,
            // Consumed every word the prefetch unit holds; the next one
            // arrives through `receive` (or the startup ramp ends).
            CeState::VectorPref { start_at, .. } => {
                if now < start_at {
                    start_at
                } else if !self.pfu.can_consume() {
                    Cycle(u64::MAX)
                } else {
                    Cycle::ZERO
                }
            }
            CeState::VectorDirect {
                length,
                issued,
                start_at,
                ..
            } => {
                // The next completion matures off the ready queue; more
                // issues need a free miss slot (freed by that same
                // queue) or the startup ramp. New replies clear the
                // horizon in `receive`.
                let drain = self.direct_ready.front().map_or(Cycle(u64::MAX), |&at| at);
                let issue = if issued < length
                    && self.outstanding_reads < self.cfg.max_outstanding_global
                {
                    start_at
                } else {
                    Cycle(u64::MAX)
                };
                let ev = drain.min(issue);
                if ev > soon {
                    ev
                } else {
                    Cycle::ZERO
                }
            }
            CeState::AwaitScalarRead => match self.scalar_ready {
                Some(at) if at > soon => at,
                Some(_) => Cycle::ZERO,
                None => Cycle(u64::MAX),
            },
            CeState::AwaitSync if self.sync_result.is_none() => Cycle(u64::MAX),
            CeState::AwaitFence if self.outstanding_writes > 0 => Cycle(u64::MAX),
            // Pulled waits: the quick tick itself peeks the CC bus and
            // falls back to a full tick the cycle a release or grant
            // appears — the same cycle the polling stepper would see it.
            CeState::AwaitClusterBarrier => Cycle(u64::MAX),
            CeState::AwaitCounter => {
                let FrameKind::SelfSched { counter, .. } = self.cur_kind() else {
                    unreachable!("AwaitCounter without a SelfSched frame");
                };
                match counters[counter] {
                    // Grant is pulled: peeked by the quick tick.
                    CounterDef::Cluster { .. } => Cycle(u64::MAX),
                    // Fetch already in flight: resolved by a reply.
                    CounterDef::Global { .. } if self.sync_result.is_none() => Cycle(u64::MAX),
                    CounterDef::GlobalShared { .. }
                        if self.sdoall_awaiting_reply && self.sync_result.is_none() =>
                    {
                        Cycle(u64::MAX)
                    }
                    // Posted values / elections are pulled state with no
                    // peek in the quick tick: keep ticking.
                    _ => Cycle::ZERO,
                }
            }
            CeState::GlobalBarrier { phase, .. } => match phase {
                GbPhase::PollWait { at } if at > soon => at,
                GbPhase::AwaitArrive | GbPhase::AwaitPoll if self.sync_result.is_none() => {
                    Cycle(u64::MAX)
                }
                _ => Cycle::ZERO,
            },
            _ => Cycle::ZERO,
        };
    }

    /// One step of lowered execution: the hot vector states mutate in
    /// place (no state-enum copy out and rebuild per element — at one
    /// element per tick the round-trip is real overhead), everything
    /// else falls through to the shared [`CeEngine::step`]. Semantics
    /// are identical to the interpreter's steppers line for line; the
    /// `vm_check` each stepper would make is skipped because lowering
    /// is never enabled together with the vm model.
    fn step_lowered(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        debug_assert!(!self.vm_enabled, "lowered mode implies vm off");
        match &mut self.state {
            CeState::Stall { until } => {
                if now >= *until {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::VectorCache {
                base,
                stride,
                write,
                length,
                issued,
                last_ready,
                start_at,
            } => {
                let (write, length) = (*write, *length);
                if *issued >= length && (write || now >= *last_ready) {
                    self.state = CeState::Fetch;
                    return Step::Progress;
                }
                if now >= *start_at && *issued < length {
                    let a = (*base as i64 + i64::from(*issued) * *stride) as u64;
                    let acc = ctx.cache.access(now, self.ce_in_cluster, a, write);
                    match acc {
                        CacheAccess::Ready { at } | CacheAccess::Pending { at } => {
                            // Accepted cache accesses are sampling
                            // candidates like network requests; the
                            // completion stamp carries the
                            // (deterministic) future ready cycle.
                            if let Some(tc) = self.trace_ctl.as_deref_mut() {
                                let id = tc.sample_mem();
                                if id != 0 {
                                    let fill = matches!(acc, CacheAccess::Pending { .. });
                                    tc.stamp(id, hop::ISSUE, class::CACHE, now);
                                    tc.stamp(id, hop::CACHE_DONE, u8::from(fill), at);
                                }
                            }
                            if !write && at > *last_ready {
                                *last_ready = at;
                            }
                            *issued += 1;
                            self.stats.vector_elements += 1;
                        }
                        CacheAccess::Stall => {}
                    }
                    if *issued >= length && write {
                        self.state = CeState::Fetch;
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            CeState::VectorPref {
                length,
                consumed,
                start_at,
            } => {
                if now < *start_at {
                    return Step::Blocked;
                }
                if *consumed >= *length {
                    self.state = CeState::Fetch;
                    return Step::Progress;
                }
                if self.pfu.try_consume() {
                    self.stats.vector_elements += 1;
                    *consumed += 1;
                    if *consumed >= *length {
                        self.state = CeState::Fetch;
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            _ => self.step(now, ctx),
        }
    }

    fn step(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        match self.state {
            CeState::Done => Step::Blocked,
            CeState::Fetch => self.fetch(now, ctx),
            CeState::Stall { until } => {
                if now >= until {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::VectorDirect {
                base,
                stride,
                length,
                issued,
                completed,
                start_at,
                gather,
            } => self.step_vector_direct(
                now, ctx, base, stride, length, issued, completed, start_at, gather,
            ),
            CeState::VectorPref {
                length,
                consumed,
                start_at,
            } => {
                if now < start_at {
                    return Step::Blocked;
                }
                if consumed >= length {
                    self.state = CeState::Fetch;
                    return Step::Progress;
                }
                if self.pfu.try_consume() {
                    self.stats.vector_elements += 1;
                    let consumed = consumed + 1;
                    self.state = if consumed >= length {
                        CeState::Fetch
                    } else {
                        CeState::VectorPref {
                            length,
                            consumed,
                            start_at,
                        }
                    };
                    if consumed >= length {
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            CeState::VectorGWrite {
                base,
                stride,
                length,
                issued,
                start_at,
                scatter,
            } => self.step_vector_gwrite(now, ctx, base, stride, length, issued, start_at, scatter),
            CeState::VectorCache {
                base,
                stride,
                write,
                length,
                issued,
                last_ready,
                start_at,
            } => self.step_vector_cache(
                now, ctx, base, stride, write, length, issued, last_ready, start_at,
            ),
            CeState::AwaitScalarRead => {
                if let Some(at) = self.scalar_ready {
                    if now >= at {
                        self.scalar_ready = None;
                        self.outstanding_reads = self.outstanding_reads.saturating_sub(1);
                        self.state = CeState::Fetch;
                        return Step::Progress;
                    }
                }
                Step::Blocked
            }
            CeState::AwaitSync => {
                if self.sync_result.take().is_some() {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::AwaitCounter => self.step_await_counter(now, ctx),
            CeState::AwaitClusterBarrier => {
                if let Some(at) = ctx.ccbus.take_release(self.ce_in_cluster) {
                    self.trace_barrier_release(now);
                    self.state = CeState::Stall { until: at };
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
            CeState::GlobalBarrier {
                barrier,
                epoch,
                phase,
                misses,
            } => self.step_global_barrier(now, ctx, barrier, epoch, phase, misses),
            CeState::AwaitFence => {
                if self.outstanding_writes == 0 {
                    self.state = CeState::Fetch;
                    Step::Progress
                } else {
                    Step::Blocked
                }
            }
        }
    }

    // ---- fetch / dispatch -------------------------------------------------

    fn fetch(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        if self.flat.is_some() {
            return self.fetch_flat(now, ctx);
        }
        let frame = self.frames.last_mut().expect("engine always has a frame");
        if frame.pc >= frame.block.len() {
            return self.end_of_block(now, ctx);
        }
        // Borrow the op through a refcount bump of the block (no per-op
        // deep clone: `Op` can own address expressions and nested blocks).
        let pc = frame.pc;
        let block = Arc::clone(&frame.block);
        self.dispatch(now, ctx, &block[pc])
    }

    /// Fetch and dispatch from the compiled micro-op stream. Mirrors
    /// [`CeEngine::dispatch`] exactly — the same blocking conditions, the
    /// same packets and state transitions on the same cycles — with
    /// control flow resolved through flat indices instead of the frame
    /// tree, and fused timed runs charged as a single stall.
    fn fetch_flat(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let flat = self.flat.as_ref().expect("flat fetch without FlatCtl");
        let Some(&uop) = flat.prog.uops().get(flat.pc as usize) else {
            // Past the end of the root stream: program complete (loop
            // frames always branch back before their end markers).
            self.state = CeState::Done;
            return Step::Progress;
        };
        match uop {
            UOp::TimedRun {
                cycles,
                flops,
                elements,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.stats.vector_elements += elements;
                self.state = CeState::Stall {
                    until: now + cycles,
                };
                Step::Progress
            }
            UOp::ScalarGlobalRead { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = self.flat_addr(addr);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_reads += 1;
                let pkt = Packet::read_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Read,
                        addr: a,
                        stream: Stream::Scalar,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::AwaitScalarRead;
                Step::Progress
            }
            UOp::ScalarGlobalWrite { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = self.flat_addr(addr);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_writes += 1;
                let pkt = Packet::write_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Write,
                        addr: a,
                        stream: Stream::WriteAck,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::VecPref { length, flops } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.state = CeState::VectorPref {
                    length,
                    consumed: 0,
                    start_at: now + u64::from(self.cfg.vector_startup),
                };
                Step::Progress
            }
            UOp::VecDirect {
                addr,
                stride,
                length,
                flops,
                gather,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.state = CeState::VectorDirect {
                    base: self.flat_addr(addr),
                    stride,
                    length,
                    issued: 0,
                    completed: 0,
                    start_at: now + u64::from(self.cfg.vector_startup),
                    gather,
                };
                Step::Progress
            }
            UOp::VecGWrite {
                addr,
                stride,
                length,
                flops,
                scatter,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                self.state = CeState::VectorGWrite {
                    base: self.flat_addr(addr),
                    stride,
                    length,
                    issued: 0,
                    start_at: now + u64::from(self.cfg.vector_startup),
                    scatter,
                };
                Step::Progress
            }
            UOp::VecCache {
                addr,
                stride,
                length,
                flops,
                write,
            } => {
                self.advance_pc();
                self.stats.flops += flops;
                let start_at = now + u64::from(self.cfg.vector_startup);
                self.state = CeState::VectorCache {
                    base: self.flat_addr(addr),
                    stride,
                    write,
                    length,
                    issued: 0,
                    last_ready: start_at,
                    start_at,
                };
                Step::Progress
            }
            UOp::PrefetchArm { length, stride } => {
                self.advance_pc();
                self.pfu.arm(length, stride);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::PrefetchFire { base } => {
                let a = self.flat_addr(base);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.pfu.fire(now, a);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::ArmFire {
                length,
                stride,
                base,
            } => {
                if !self.flat.as_ref().expect("flat").fire_pending {
                    // Arm phase: the fused slot re-executes for the fire.
                    self.pfu.arm(length, stride);
                    self.flat.as_mut().expect("flat").fire_pending = true;
                    self.state = CeState::Stall { until: now + 1 };
                    return Step::Progress;
                }
                let a = self.flat_addr(base);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                let flat = self.flat.as_mut().expect("flat");
                flat.fire_pending = false;
                flat.pc += 1;
                self.pfu.fire(now, a);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::PrefetchRewind => {
                self.advance_pc();
                self.pfu.rewind();
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            UOp::EnterRepeat { count, end } => {
                let flat = self.flat.as_mut().expect("flat");
                if count == 0 {
                    flat.pc = end + 1;
                    return Step::Progress;
                }
                let head = flat.pc + 1;
                flat.frames.push(LFrame {
                    head,
                    end,
                    kind: FrameKind::Repeat { remaining: count },
                });
                flat.pc = head;
                self.indices.push(0);
                Step::Progress
            }
            UOp::LoopEnd => {
                let flat = self.flat.as_mut().expect("flat");
                let fr = flat.frames.last_mut().expect("flat loop frame");
                let FrameKind::Repeat { remaining } = &mut fr.kind else {
                    unreachable!("LoopEnd on non-repeat frame");
                };
                *remaining -= 1;
                let again = *remaining > 0;
                let target = if again { fr.head } else { fr.end + 1 };
                flat.pc = target;
                if again {
                    *self.indices.last_mut().expect("loop index") += 1;
                } else {
                    flat.frames.pop();
                    self.indices.pop();
                }
                Step::Progress
            }
            UOp::EnterSelfSched {
                counter,
                limit,
                chunk,
                dispatch_cost,
                end,
            } => {
                if limit == 0 {
                    self.flat.as_mut().expect("flat").pc = end + 1;
                    return Step::Progress;
                }
                let epoch = self.next_epoch(counter as usize);
                let flat = self.flat.as_mut().expect("flat");
                let head = flat.pc + 1;
                flat.frames.push(LFrame {
                    head,
                    end,
                    kind: FrameKind::SelfSched {
                        counter: counter as usize,
                        limit,
                        chunk,
                        dispatch_cost,
                        epoch,
                        chunk_end: 0,
                    },
                });
                flat.pc = head;
                self.indices.push(0);
                self.request_chunk(now, ctx)
            }
            UOp::SelfSchedEnd => {
                let flat = self.flat.as_ref().expect("flat");
                let fr = flat.frames.last().expect("flat loop frame");
                let FrameKind::SelfSched { chunk_end, .. } = fr.kind else {
                    unreachable!("SelfSchedEnd on non-selfsched frame");
                };
                let head = fr.head;
                let cur = *self.indices.last().expect("loop index");
                if cur + 1 < chunk_end {
                    self.flat.as_mut().expect("flat").pc = head;
                    *self.indices.last_mut().expect("loop index") += 1;
                    Step::Progress
                } else {
                    self.request_chunk(now, ctx)
                }
            }
            UOp::Barrier { barrier } => self.dispatch_barrier(now, ctx, barrier as usize),
            UOp::SyncOp { addr, instr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                self.advance_pc();
                let a = self.flat_addr(addr);
                self.send_sync(now, ctx, a, instr);
                self.state = CeState::AwaitSync;
                Step::Progress
            }
            UOp::Fence => {
                self.advance_pc();
                self.state = CeState::AwaitFence;
                Step::Progress
            }
            UOp::PostEvent { tag } => {
                self.advance_pc();
                // Tag layout: caller tag in the high bits, CE id low.
                ctx.tracer.post(now, (tag << 8) | self.id.0 as u32);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
        }
    }

    fn end_of_block(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let frame = self.frames.last_mut().expect("frame");
        match &mut frame.kind {
            FrameKind::Root => {
                self.state = CeState::Done;
                Step::Progress
            }
            FrameKind::Repeat { remaining } => {
                *remaining -= 1;
                if *remaining > 0 {
                    frame.pc = 0;
                    *self.indices.last_mut().expect("loop index") += 1;
                } else {
                    self.frames.pop();
                    self.indices.pop();
                }
                Step::Progress
            }
            FrameKind::SelfSched { chunk_end, .. } => {
                let cur = *self.indices.last().expect("loop index");
                if cur + 1 < *chunk_end {
                    frame.pc = 0;
                    *self.indices.last_mut().expect("loop index") += 1;
                    Step::Progress
                } else {
                    self.request_chunk(now, ctx)
                }
            }
        }
    }

    /// Issue the next-chunk request for the top (SelfSched) frame.
    fn request_chunk(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        let FrameKind::SelfSched {
            counter,
            limit,
            chunk,
            epoch,
            ..
        } = self.cur_kind()
        else {
            unreachable!("request_chunk on non-selfsched frame");
        };
        match ctx.counters[counter] {
            CounterDef::Cluster { slot, .. } => {
                ctx.ccbus
                    .request_counter(self.ce_in_cluster, slot, epoch, chunk, limit);
                self.state = CeState::AwaitCounter;
                Step::Progress
            }
            CounterDef::Global { base_addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let addr = base_addr + epoch;
                let instr = SyncInstr {
                    test: Some((Rel::Lt, limit.min(i32::MAX as u64) as i32)),
                    op: SyncOpKind::Add(chunk as i32),
                };
                self.send_sync(now, ctx, addr, instr);
                self.state = CeState::AwaitCounter;
                Step::Progress
            }
            CounterDef::GlobalShared { .. } => {
                // The take/fetch/post protocol runs in AwaitCounter.
                self.state = CeState::AwaitCounter;
                Step::Progress
            }
        }
    }

    fn step_await_counter(&mut self, now: Cycle, ctx: &mut CeContext<'_>) -> Step {
        // Either a bus grant or a network sync reply resolves the wait.
        let frame_kind = self.cur_kind();
        let FrameKind::SelfSched {
            counter,
            limit,
            chunk,
            dispatch_cost,
            ..
        } = frame_kind
        else {
            unreachable!("AwaitCounter without a SelfSched frame");
        };
        let got: Option<u64> = match ctx.counters[counter] {
            CounterDef::Cluster { .. } => ctx.ccbus.take_grant(self.ce_in_cluster),
            CounterDef::Global { .. } => self.sync_result.take().map(|o| o.old as u64),
            CounterDef::GlobalShared { base_addr } => {
                let FrameKind::SelfSched { epoch, .. } = self.cur_kind() else {
                    unreachable!();
                };
                // 1. A fetch we own: post the reply to the cluster bus.
                if self.sdoall_awaiting_reply {
                    let Some(out) = self.sync_result.take() else {
                        return Step::Blocked;
                    };
                    self.sdoall_awaiting_reply = false;
                    ctx.ccbus.sdoall_post(counter, epoch, out.old as u64);
                }
                // 2. An election we owe a fetch for.
                if self.sdoall_must_fetch {
                    if self.pending_pkt.is_some() {
                        return Step::Blocked;
                    }
                    let addr = base_addr + epoch;
                    let instr = SyncInstr {
                        test: Some((Rel::Lt, limit.min(i32::MAX as u64) as i32)),
                        op: SyncOpKind::Add(chunk as i32),
                    };
                    self.send_sync(now, ctx, addr, instr);
                    self.sdoall_must_fetch = false;
                    self.sdoall_awaiting_reply = true;
                    return Step::Progress;
                }
                // 3. Take the cluster's next value (or get elected).
                match ctx.ccbus.sdoall_take(
                    self.ce_in_cluster,
                    counter,
                    epoch,
                    self.ces_per_cluster,
                ) {
                    crate::ccbus::SdoallTake::Ready(v) => Some(v),
                    crate::ccbus::SdoallTake::Fetch => {
                        self.sdoall_must_fetch = true;
                        return Step::Progress;
                    }
                    crate::ccbus::SdoallTake::Wait => return Step::Blocked,
                }
            }
        };
        let Some(v) = got else {
            let _ = now;
            return Step::Blocked;
        };
        if v >= limit {
            self.loop_exit();
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        let end = (v + u64::from(chunk)).min(limit);
        if let FrameKind::SelfSched { chunk_end, .. } = self.cur_kind_mut() {
            *chunk_end = end;
        }
        *self.indices.last_mut().expect("loop index") = v;
        self.loop_restart();
        self.state = if dispatch_cost > 0 {
            CeState::Stall {
                until: now + u64::from(dispatch_cost),
            }
        } else {
            CeState::Fetch
        };
        Step::Progress
    }

    fn dispatch(&mut self, now: Cycle, ctx: &mut CeContext<'_>, op: &Op) -> Step {
        match op {
            Op::ScalarWork { cycles } => {
                self.advance_pc();
                self.state = CeState::Stall {
                    until: now + u64::from((*cycles).max(1)),
                };
                Step::Progress
            }
            Op::ScalarFlops {
                flops,
                cycles_per_flop,
            } => {
                self.advance_pc();
                self.stats.flops += u64::from(*flops);
                self.state = CeState::Stall {
                    until: now + u64::from(*flops) * u64::from((*cycles_per_flop).max(1)),
                };
                Step::Progress
            }
            Op::ScalarGlobalRead { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = addr.eval(&self.indices);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_reads += 1;
                let pkt = Packet::read_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Read,
                        addr: a,
                        stream: Stream::Scalar,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::AwaitScalarRead;
                Step::Progress
            }
            Op::ScalarGlobalWrite { addr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let a = addr.eval(&self.indices);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.outstanding_writes += 1;
                let pkt = Packet::write_request(
                    module_of(a, self.modules).0,
                    MemRequest {
                        ce: self.id,
                        kind: RequestKind::Write,
                        addr: a,
                        stream: Stream::WriteAck,
                        issued: now,
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    },
                );
                self.queue_pkt(now, ctx, pkt);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::Vector(v) => self.dispatch_vector(now, v),
            Op::PrefetchArm { length, stride } => {
                self.advance_pc();
                self.pfu.arm(*length, *stride);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::PrefetchFire { base } => {
                let a = base.eval(&self.indices);
                if self.vm_check(now, ctx, a) {
                    return Step::Blocked;
                }
                self.advance_pc();
                self.pfu.fire(now, a);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::PrefetchRewind => {
                self.advance_pc();
                self.pfu.rewind();
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
            Op::Repeat { count, body } => {
                self.advance_pc();
                if *count == 0 {
                    return Step::Progress;
                }
                self.frames.push(Frame {
                    block: Arc::clone(body),
                    pc: 0,
                    kind: FrameKind::Repeat { remaining: *count },
                });
                self.indices.push(0);
                Step::Progress
            }
            Op::SelfSchedLoop {
                counter,
                limit,
                chunk,
                dispatch_cost,
                body,
            } => {
                self.advance_pc();
                if *limit == 0 {
                    return Step::Progress;
                }
                let epoch = self.next_epoch(counter.0);
                self.frames.push(Frame {
                    block: Arc::clone(body),
                    pc: 0,
                    kind: FrameKind::SelfSched {
                        counter: counter.0,
                        limit: *limit,
                        chunk: *chunk,
                        dispatch_cost: *dispatch_cost,
                        epoch,
                        chunk_end: 0,
                    },
                });
                self.indices.push(0);
                self.request_chunk(now, ctx)
            }
            Op::Barrier { barrier } => self.dispatch_barrier(now, ctx, barrier.0),
            Op::SyncOp { addr, instr } => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                self.advance_pc();
                let a = addr.eval(&self.indices);
                self.send_sync(now, ctx, a, *instr);
                self.state = CeState::AwaitSync;
                Step::Progress
            }
            Op::Fence => {
                self.advance_pc();
                self.state = CeState::AwaitFence;
                Step::Progress
            }
            Op::PostEvent { tag } => {
                self.advance_pc();
                // Tag layout: caller tag in the high bits, CE id low.
                ctx.tracer.post(now, (*tag << 8) | self.id.0 as u32);
                self.state = CeState::Stall { until: now + 1 };
                Step::Progress
            }
        }
    }

    fn dispatch_vector(&mut self, now: Cycle, v: &VectorOp) -> Step {
        self.advance_pc();
        let start_at = now + u64::from(self.cfg.vector_startup);
        self.stats.flops += u64::from(v.flops_per_element) * u64::from(v.length);
        match &v.operand {
            MemOperand::None => {
                self.stats.vector_elements += u64::from(v.length);
                self.state = CeState::Stall {
                    until: start_at + u64::from(v.length),
                };
            }
            MemOperand::Prefetched => {
                self.state = CeState::VectorPref {
                    length: v.length,
                    consumed: 0,
                    start_at,
                };
            }
            MemOperand::GlobalRead { addr, stride } => {
                self.state = CeState::VectorDirect {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    length: v.length,
                    issued: 0,
                    completed: 0,
                    start_at,
                    gather: false,
                };
            }
            MemOperand::GlobalGather { addr } => {
                self.state = CeState::VectorDirect {
                    base: addr.eval(&self.indices),
                    stride: 1,
                    length: v.length,
                    issued: 0,
                    completed: 0,
                    start_at,
                    gather: true,
                };
            }
            MemOperand::GlobalWrite { addr, stride } => {
                self.state = CeState::VectorGWrite {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    length: v.length,
                    issued: 0,
                    start_at,
                    scatter: false,
                };
            }
            MemOperand::GlobalScatter { addr } => {
                self.state = CeState::VectorGWrite {
                    base: addr.eval(&self.indices),
                    stride: 1,
                    length: v.length,
                    issued: 0,
                    start_at,
                    scatter: true,
                };
            }
            MemOperand::ClusterRead { addr, stride } => {
                self.state = CeState::VectorCache {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    write: false,
                    length: v.length,
                    issued: 0,
                    last_ready: start_at,
                    start_at,
                };
            }
            MemOperand::ClusterWrite { addr, stride } => {
                self.state = CeState::VectorCache {
                    base: addr.eval(&self.indices),
                    stride: *stride,
                    write: true,
                    length: v.length,
                    issued: 0,
                    last_ready: start_at,
                    start_at,
                };
            }
        }
        Step::Progress
    }

    fn dispatch_barrier(&mut self, now: Cycle, ctx: &mut CeContext<'_>, barrier: usize) -> Step {
        let def = ctx.barriers[barrier];
        match def.scope {
            BarrierScope::Cluster(_) => {
                let epoch = self.next_barrier_use(barrier);
                self.advance_pc();
                self.trace_barrier_arrive(now, barrier, epoch);
                ctx.ccbus.arrive_barrier(
                    now,
                    self.ce_in_cluster,
                    def.base_addr as usize,
                    epoch,
                    def.expected,
                );
                self.state = CeState::AwaitClusterBarrier;
                Step::Progress
            }
            BarrierScope::Global => {
                if self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let epoch = self.next_barrier_use(barrier);
                self.advance_pc();
                self.trace_barrier_arrive(now, barrier, epoch);
                let addr = def.base_addr + epoch;
                self.send_sync(now, ctx, addr, SyncInstr::fetch_add(1));
                self.state = CeState::GlobalBarrier {
                    barrier,
                    epoch,
                    phase: GbPhase::AwaitArrive,
                    misses: 0,
                };
                Step::Progress
            }
        }
    }

    fn step_global_barrier(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        barrier: usize,
        epoch: u64,
        phase: GbPhase,
        misses: u32,
    ) -> Step {
        let def = ctx.barriers[barrier];
        // Exponential backoff: early polls are prompt, long waits back off
        // so spinning CEs do not saturate the barrier's memory module.
        let backoff = |m: u32| -> u64 {
            let base = u64::from(self.cfg.barrier_poll_cycles);
            (base << m.min(7)).min(2048)
        };
        match phase {
            GbPhase::AwaitArrive => {
                let Some(out) = self.sync_result.take() else {
                    return Step::Blocked;
                };
                if out.old + 1 >= def.expected as i32 {
                    // Last arriver: barrier complete.
                    self.trace_barrier_release(now);
                    self.state = CeState::Stall { until: now + 1 };
                } else {
                    // Estimate remaining arrivals to start with a matched
                    // backoff: nearly-complete barriers poll promptly.
                    let missing = (def.expected as i32 - (out.old + 1)).max(1) as u32;
                    let start = if missing > 4 { 3 } else { 0 };
                    self.state = CeState::GlobalBarrier {
                        barrier,
                        epoch,
                        phase: GbPhase::PollWait {
                            at: now + backoff(start),
                        },
                        misses: start,
                    };
                }
                Step::Progress
            }
            GbPhase::PollWait { at } => {
                if now < at || self.pending_pkt.is_some() {
                    return Step::Blocked;
                }
                let addr = def.base_addr + epoch;
                self.send_sync(now, ctx, addr, SyncInstr::test_ge_read(def.expected as i32));
                self.state = CeState::GlobalBarrier {
                    barrier,
                    epoch,
                    phase: GbPhase::AwaitPoll,
                    misses,
                };
                Step::Progress
            }
            GbPhase::AwaitPoll => {
                let Some(out) = self.sync_result.take() else {
                    return Step::Blocked;
                };
                if out.passed {
                    self.trace_barrier_release(now);
                    self.state = CeState::Stall { until: now + 1 };
                } else {
                    self.state = CeState::GlobalBarrier {
                        barrier,
                        epoch,
                        phase: GbPhase::PollWait {
                            at: now + backoff(misses + 1),
                        },
                        misses: misses + 1,
                    };
                }
                Step::Progress
            }
        }
    }

    // ---- vector element stepping ------------------------------------------

    /// Pseudo-random element address for gather/scatter: deterministic
    /// hash of (base, element) spread over a 64K-word window.
    fn scatter_addr(base: u64, elem: u32) -> u64 {
        let h = (base ^ (u64::from(elem) << 17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        base + (h >> 40) % 65_536
    }

    #[allow(clippy::too_many_arguments)]
    fn step_vector_direct(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        base: u64,
        stride: i64,
        length: u32,
        mut issued: u32,
        mut completed: u32,
        start_at: Cycle,
        gather: bool,
    ) -> Step {
        // Collect completions that have matured.
        while let Some(&at) = self.direct_ready.front() {
            if at <= now {
                self.direct_ready.pop_front();
                completed += 1;
                self.outstanding_reads = self.outstanding_reads.saturating_sub(1);
                self.stats.vector_elements += 1;
            } else {
                break;
            }
        }
        if completed >= length {
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        if now >= start_at
            && issued < length
            && self.outstanding_reads < self.cfg.max_outstanding_global
            && self.pending_pkt.is_none()
        {
            let a = if gather {
                Self::scatter_addr(base, issued)
            } else {
                (base as i64 + i64::from(issued) * stride) as u64
            };
            if self.vm_check(now, ctx, a) {
                self.state = CeState::VectorDirect {
                    base,
                    stride,
                    length,
                    issued,
                    completed,
                    start_at,
                    gather,
                };
                return Step::Blocked;
            }
            self.outstanding_reads += 1;
            let pkt = Packet::read_request(
                module_of(a, self.modules).0,
                MemRequest {
                    ce: self.id,
                    kind: RequestKind::Read,
                    addr: a,
                    stream: Stream::Direct { elem: issued },
                    issued: now,
                    seq: 0,
                    nacked: false,
                    trace: 0,
                },
            );
            self.queue_pkt(now, ctx, pkt);
            issued += 1;
        }
        self.state = CeState::VectorDirect {
            base,
            stride,
            length,
            issued,
            completed,
            start_at,
            gather,
        };
        Step::Blocked
    }

    #[allow(clippy::too_many_arguments)]
    fn step_vector_gwrite(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        base: u64,
        stride: i64,
        length: u32,
        mut issued: u32,
        start_at: Cycle,
        scatter: bool,
    ) -> Step {
        if issued >= length {
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        if now >= start_at && self.pending_pkt.is_none() {
            let a = if scatter {
                Self::scatter_addr(base, issued)
            } else {
                (base as i64 + i64::from(issued) * stride) as u64
            };
            if self.vm_check(now, ctx, a) {
                self.state = CeState::VectorGWrite {
                    base,
                    stride,
                    length,
                    issued,
                    start_at,
                    scatter,
                };
                return Step::Blocked;
            }
            self.outstanding_writes += 1;
            let pkt = Packet::write_request(
                module_of(a, self.modules).0,
                MemRequest {
                    ce: self.id,
                    kind: RequestKind::Write,
                    addr: a,
                    stream: Stream::WriteAck,
                    issued: now,
                    seq: 0,
                    nacked: false,
                    trace: 0,
                },
            );
            self.queue_pkt(now, ctx, pkt);
            issued += 1;
            self.stats.vector_elements += 1;
            if issued >= length {
                self.state = CeState::Fetch;
                return Step::Progress;
            }
        }
        self.state = CeState::VectorGWrite {
            base,
            stride,
            length,
            issued,
            start_at,
            scatter,
        };
        Step::Blocked
    }

    #[allow(clippy::too_many_arguments)]
    fn step_vector_cache(
        &mut self,
        now: Cycle,
        ctx: &mut CeContext<'_>,
        base: u64,
        stride: i64,
        write: bool,
        length: u32,
        mut issued: u32,
        mut last_ready: Cycle,
        start_at: Cycle,
    ) -> Step {
        if issued >= length && (write || now >= last_ready) {
            self.state = CeState::Fetch;
            return Step::Progress;
        }
        if now >= start_at && issued < length {
            let a = (base as i64 + i64::from(issued) * stride) as u64;
            if self.vm_check(now, ctx, a) {
                self.state = CeState::VectorCache {
                    base,
                    stride,
                    write,
                    length,
                    issued,
                    last_ready,
                    start_at,
                };
                return Step::Blocked;
            }
            let acc = ctx.cache.access(now, self.ce_in_cluster, a, write);
            match acc {
                CacheAccess::Ready { at } | CacheAccess::Pending { at } => {
                    // Accepted cache accesses are sampling candidates like
                    // network requests; the completion stamp carries the
                    // (deterministic) future ready cycle.
                    if let Some(tc) = self.trace_ctl.as_deref_mut() {
                        let id = tc.sample_mem();
                        if id != 0 {
                            let fill = matches!(acc, CacheAccess::Pending { .. });
                            tc.stamp(id, hop::ISSUE, class::CACHE, now);
                            tc.stamp(id, hop::CACHE_DONE, u8::from(fill), at);
                        }
                    }
                    if !write && at > last_ready {
                        last_ready = at;
                    }
                    issued += 1;
                    self.stats.vector_elements += 1;
                }
                CacheAccess::Stall => {}
            }
            if issued >= length && write {
                self.state = CeState::Fetch;
                return Step::Progress;
            }
        }
        self.state = CeState::VectorCache {
            base,
            stride,
            write,
            length,
            issued,
            last_ready,
            start_at,
        };
        Step::Blocked
    }

    // ---- helpers -----------------------------------------------------------

    fn advance_pc(&mut self) {
        match &mut self.flat {
            Some(f) => f.pc += 1,
            None => self.frames.last_mut().expect("frame").pc += 1,
        }
    }

    /// The innermost loop frame's kind — from the flat stack when running
    /// lowered, from the interpreter's frame tree otherwise.
    fn cur_kind(&self) -> FrameKind {
        match &self.flat {
            Some(f) => f.frames.last().expect("flat loop frame").kind,
            None => self.frames.last().expect("frame").kind,
        }
    }

    fn cur_kind_mut(&mut self) -> &mut FrameKind {
        match &mut self.flat {
            Some(f) => &mut f.frames.last_mut().expect("flat loop frame").kind,
            None => &mut self.frames.last_mut().expect("frame").kind,
        }
    }

    /// Leave the innermost loop: pop its frame and loop index and (flat)
    /// jump past the loop's end marker.
    fn loop_exit(&mut self) {
        match &mut self.flat {
            Some(f) => {
                let fr = f.frames.pop().expect("flat loop frame");
                f.pc = fr.end + 1;
            }
            None => {
                self.frames.pop();
            }
        }
        self.indices.pop();
    }

    /// Restart the innermost loop body (next self-scheduled chunk).
    fn loop_restart(&mut self) {
        match &mut self.flat {
            Some(f) => f.pc = f.frames.last().expect("flat loop frame").head,
            None => self.frames.last_mut().expect("frame").pc = 0,
        }
    }

    /// Evaluate an interned address expression under the loop indices.
    fn flat_addr(&self, idx: u32) -> u64 {
        self.flat
            .as_ref()
            .expect("flat addr without FlatCtl")
            .prog
            .addr(idx)
            .eval(&self.indices)
    }

    /// Take and advance the next epoch for `counter`.
    fn next_epoch(&mut self, counter: usize) -> u64 {
        if self.counter_epochs.len() <= counter {
            self.counter_epochs.resize(counter + 1, 0);
        }
        let e = self.counter_epochs[counter];
        self.counter_epochs[counter] += 1;
        e
    }

    /// Sample a barrier episode at arrival. A sampled episode's id is
    /// shared by every participating CE (it is derived from the barrier
    /// index and epoch alone) and is carried by the arrival/poll sync ops
    /// issued while the episode is open.
    fn trace_barrier_arrive(&mut self, now: Cycle, barrier: usize, epoch: u64) {
        if let Some(tc) = self.trace_ctl.as_deref_mut() {
            if let Some(id) = tc.sample_barrier(barrier, epoch) {
                tc.stamp(id, hop::BAR_ARRIVE, 0, now);
                tc.episode = Some(id);
            }
        }
    }

    /// Close the open barrier episode, if any, at the cycle this CE
    /// observed the release.
    fn trace_barrier_release(&mut self, now: Cycle) {
        if let Some(tc) = self.trace_ctl.as_deref_mut() {
            if let Some(id) = tc.episode.take() {
                tc.stamp(id, hop::BAR_RELEASE, 0, now);
            }
        }
    }

    /// Drain this engine's trace stamps (controller, then prefetch unit):
    /// `(events, overflow drops)`.
    pub(crate) fn drain_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        let (mut ev, mut dropped) = match self.trace_ctl.as_deref_mut() {
            Some(tc) => (
                std::mem::take(&mut tc.buf.events),
                std::mem::replace(&mut tc.buf.dropped, 0),
            ),
            None => (Vec::new(), 0),
        };
        let (mut pev, pd) = self.pfu.drain_trace();
        ev.append(&mut pev);
        dropped += pd;
        (ev, dropped)
    }

    /// Take and advance the use count for `barrier`.
    fn next_barrier_use(&mut self, barrier: usize) -> u64 {
        if self.barrier_uses.len() <= barrier {
            self.barrier_uses.resize(barrier + 1, 0);
        }
        let e = self.barrier_uses[barrier];
        self.barrier_uses[barrier] += 1;
        e
    }

    fn queue_pkt(&mut self, now: Cycle, ctx: &mut CeContext<'_>, mut pkt: Packet) {
        debug_assert!(self.pending_pkt.is_none());
        // Journey sampling — before fault tracking, so a tracked packet
        // (and therefore every resend of it) carries its journey id.
        // Inside a sampled barrier episode every sync op (the arrival and
        // the polls) joins the episode's journey instead of rolling its
        // own sample.
        if let Some(tc) = self.trace_ctl.as_deref_mut() {
            if let Payload::Request(req) = &mut pkt.payload {
                if req.trace == 0 && !matches!(req.stream, Stream::Prefetch { .. }) {
                    let (id, cls) = match (tc.episode, &req.stream) {
                        (Some(ep), Stream::Sync) => (ep, class::BARRIER),
                        _ => {
                            let cls = match req.stream {
                                Stream::Scalar => class::SCALAR,
                                Stream::WriteAck => class::WRITE,
                                Stream::Sync => class::SYNC,
                                Stream::Direct { .. } => class::DIRECT,
                                Stream::Prefetch { .. } => unreachable!("filtered above"),
                            };
                            (tc.sample_mem(), cls)
                        }
                    };
                    if id != 0 {
                        req.trace = id;
                        tc.stamp(id, hop::ISSUE, cls, now);
                    }
                }
            }
        }
        // Under a fault plan every engine-issued request gets a sequence
        // number and is tracked to completion; resends arrive here with
        // their number already assigned and must not be re-tracked.
        if let Some(ctl) = self.fault_ctl.as_deref_mut() {
            if let Payload::Request(req) = &mut pkt.payload {
                if req.seq == 0 && !matches!(req.stream, Stream::Prefetch { .. }) {
                    req.seq = self.next_seq;
                    self.next_seq += 1;
                    let seq = req.seq;
                    ctl.track(seq, pkt, now);
                }
            }
        }
        if !ctx.forward.try_inject(self.id.port().0, pkt) {
            self.pending_pkt = Some(pkt);
        }
    }

    fn send_sync(&mut self, now: Cycle, ctx: &mut CeContext<'_>, addr: u64, instr: SyncInstr) {
        let pkt = Packet::sync_request(
            module_of(addr, self.modules).0,
            MemRequest {
                ce: self.id,
                kind: RequestKind::Sync(instr),
                addr,
                stream: Stream::Sync,
                issued: now,
                seq: 0,
                nacked: false,
                trace: 0,
            },
        );
        self.queue_pkt(now, ctx, pkt);
    }

    /// VM address translation; returns true (and charges the stall) on a
    /// TLB miss when VM modelling is enabled. A miss whose PTE is valid in
    /// global memory costs the PTE fetch; a machine-wide first touch is a
    /// hard fault serviced by Xylem.
    fn vm_check(&mut self, now: Cycle, ctx: &mut CeContext<'_>, addr: u64) -> bool {
        if !self.vm_enabled {
            return false;
        }
        let page = page_of(addr, self.page_words);
        if ctx.tlb.touch(page) {
            false
        } else {
            self.stats.tlb_misses += 1;
            let cost = if ctx.page_table.miss(page) {
                u64::from(self.tlb_miss_cycles)
            } else {
                self.stats.page_faults += 1;
                u64::from(self.page_fault_cycles)
            };
            self.stats.vm_cycles += cost;
            self.vm_stall_until = now + cost;
            true
        }
    }
}

use crate::snapshot::{get_packet, put_packet, SnapReader, SnapResult, SnapWriter};

fn put_frame_kind(w: &mut SnapWriter, k: &FrameKind) {
    match k {
        FrameKind::Root => w.u8(0),
        FrameKind::Repeat { remaining } => {
            w.u8(1);
            w.u32(*remaining);
        }
        FrameKind::SelfSched {
            counter,
            limit,
            chunk,
            dispatch_cost,
            epoch,
            chunk_end,
        } => {
            w.u8(2);
            w.usize(*counter);
            w.u64(*limit);
            w.u32(*chunk);
            w.u32(*dispatch_cost);
            w.u64(*epoch);
            w.u64(*chunk_end);
        }
    }
}

fn get_frame_kind(r: &mut SnapReader) -> SnapResult<FrameKind> {
    Ok(match r.u8()? {
        0 => FrameKind::Root,
        1 => FrameKind::Repeat {
            remaining: r.u32()?,
        },
        2 => FrameKind::SelfSched {
            counter: r.usize()?,
            limit: r.u64()?,
            chunk: r.u32()?,
            dispatch_cost: r.u32()?,
            epoch: r.u64()?,
            chunk_end: r.u64()?,
        },
        b => return Err(r.err_invalid("frame kind", b)),
    })
}

fn put_ce_state(w: &mut SnapWriter, s: &CeState) {
    match s {
        CeState::Fetch => w.u8(0),
        CeState::Stall { until } => {
            w.u8(1);
            w.cycle(*until);
        }
        CeState::VectorDirect {
            base,
            stride,
            length,
            issued,
            completed,
            start_at,
            gather,
        } => {
            w.u8(2);
            w.u64(*base);
            w.i64(*stride);
            w.u32(*length);
            w.u32(*issued);
            w.u32(*completed);
            w.cycle(*start_at);
            w.bool(*gather);
        }
        CeState::VectorPref {
            length,
            consumed,
            start_at,
        } => {
            w.u8(3);
            w.u32(*length);
            w.u32(*consumed);
            w.cycle(*start_at);
        }
        CeState::VectorGWrite {
            base,
            stride,
            length,
            issued,
            start_at,
            scatter,
        } => {
            w.u8(4);
            w.u64(*base);
            w.i64(*stride);
            w.u32(*length);
            w.u32(*issued);
            w.cycle(*start_at);
            w.bool(*scatter);
        }
        CeState::VectorCache {
            base,
            stride,
            write,
            length,
            issued,
            last_ready,
            start_at,
        } => {
            w.u8(5);
            w.u64(*base);
            w.i64(*stride);
            w.bool(*write);
            w.u32(*length);
            w.u32(*issued);
            w.cycle(*last_ready);
            w.cycle(*start_at);
        }
        CeState::AwaitScalarRead => w.u8(6),
        CeState::AwaitSync => w.u8(7),
        CeState::AwaitCounter => w.u8(8),
        CeState::AwaitClusterBarrier => w.u8(9),
        CeState::GlobalBarrier {
            barrier,
            epoch,
            phase,
            misses,
        } => {
            w.u8(10);
            w.usize(*barrier);
            w.u64(*epoch);
            match phase {
                GbPhase::AwaitArrive => w.u8(0),
                GbPhase::PollWait { at } => {
                    w.u8(1);
                    w.cycle(*at);
                }
                GbPhase::AwaitPoll => w.u8(2),
            }
            w.u32(*misses);
        }
        CeState::AwaitFence => w.u8(11),
        CeState::Done => w.u8(12),
    }
}

fn get_ce_state(r: &mut SnapReader) -> SnapResult<CeState> {
    Ok(match r.u8()? {
        0 => CeState::Fetch,
        1 => CeState::Stall { until: r.cycle()? },
        2 => CeState::VectorDirect {
            base: r.u64()?,
            stride: r.i64()?,
            length: r.u32()?,
            issued: r.u32()?,
            completed: r.u32()?,
            start_at: r.cycle()?,
            gather: r.bool()?,
        },
        3 => CeState::VectorPref {
            length: r.u32()?,
            consumed: r.u32()?,
            start_at: r.cycle()?,
        },
        4 => CeState::VectorGWrite {
            base: r.u64()?,
            stride: r.i64()?,
            length: r.u32()?,
            issued: r.u32()?,
            start_at: r.cycle()?,
            scatter: r.bool()?,
        },
        5 => CeState::VectorCache {
            base: r.u64()?,
            stride: r.i64()?,
            write: r.bool()?,
            length: r.u32()?,
            issued: r.u32()?,
            last_ready: r.cycle()?,
            start_at: r.cycle()?,
        },
        6 => CeState::AwaitScalarRead,
        7 => CeState::AwaitSync,
        8 => CeState::AwaitCounter,
        9 => CeState::AwaitClusterBarrier,
        10 => CeState::GlobalBarrier {
            barrier: r.usize()?,
            epoch: r.u64()?,
            phase: match r.u8()? {
                0 => GbPhase::AwaitArrive,
                1 => GbPhase::PollWait { at: r.cycle()? },
                2 => GbPhase::AwaitPoll,
                b => return Err(r.err_invalid("barrier phase", b)),
            },
            misses: r.u32()?,
        },
        11 => CeState::AwaitFence,
        12 => CeState::Done,
        b => return Err(r.err_invalid("engine state", b)),
    })
}

impl CeEngine {
    /// Serialize the engine's complete mutable state. The program tree,
    /// lowered micro-op stream and CE configuration are not written —
    /// the restoring machine is constructed with the identical program,
    /// and interpreter frames are stored as `(pc, kind)` pairs whose
    /// block references are rebuilt by walking the program tree.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.tag(b"CENG");
        w.seq(self.frames.iter(), |w, f| {
            w.usize(f.pc);
            put_frame_kind(w, &f.kind);
        });
        w.opt(self.flat.as_ref(), |w, f| {
            w.u32(f.pc);
            w.seq(f.frames.iter(), |w, fr| {
                w.u32(fr.head);
                w.u32(fr.end);
                put_frame_kind(w, &fr.kind);
            });
            w.bool(f.fire_pending);
        });
        w.cycle(self.quiet_until);
        w.seq(self.indices.iter(), |w, v| w.u64(*v));
        put_ce_state(w, &self.state);
        self.pfu.save_state(w);
        w.opt(self.pending_pkt.as_ref(), put_packet);
        w.u32(self.outstanding_reads);
        w.u32(self.outstanding_writes);
        w.seq(self.direct_ready.iter(), |w, c| w.cycle(*c));
        w.opt(self.scalar_ready.as_ref(), |w, c| w.cycle(*c));
        w.opt(self.sync_result.as_ref(), |w, o| {
            w.i32(o.old);
            w.bool(o.passed);
        });
        w.seq(self.counter_epochs.iter(), |w, v| w.u64(*v));
        w.seq(self.barrier_uses.iter(), |w, v| w.u64(*v));
        w.bool(self.sdoall_must_fetch);
        w.bool(self.sdoall_awaiting_reply);
        w.cycle(self.vm_stall_until);
        w.opt(self.fault_ctl.as_deref(), |w, c| c.save_state(w));
        w.u64(self.next_seq);
        w.opt(self.trace_ctl.as_deref(), |w, t| t.save_state(w));
        w.u64(self.stats.flops);
        w.u64(self.stats.vector_elements);
        w.u64(self.stats.busy);
        w.u64(self.stats.idle);
        w.u64(self.stats.stall_mem);
        w.u64(self.stats.stall_sync);
        w.u64(self.stats.tlb_misses);
        w.u64(self.stats.page_faults);
        w.u64(self.stats.vm_cycles);
        w.u64(self.stats.done_at);
    }

    /// Restore state written by [`CeEngine::save_state`] into an engine
    /// freshly constructed with the identical program and configuration.
    /// Interpreter frame blocks are rebuilt by walking the loaded program
    /// tree: a child frame can only exist after its parent dispatched the
    /// loop op (which advances the parent pc first), so the child's block
    /// is the body of the op at `parent.pc - 1`.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        r.tag(b"CENG")?;
        let n_frames = r.len()?;
        if n_frames == 0 {
            return Err(r.err_mismatch("engine must hold at least the root frame"));
        }
        self.frames.truncate(1);
        self.frames[0].pc = r.usize()?;
        self.frames[0].kind = get_frame_kind(r)?;
        if !matches!(self.frames[0].kind, FrameKind::Root) {
            return Err(r.err_mismatch("first engine frame is not the root frame"));
        }
        if self.frames[0].pc > self.frames[0].block.len() {
            return Err(r.err_mismatch("root frame pc beyond the program body"));
        }
        for _ in 1..n_frames {
            let pc = r.usize()?;
            let kind = get_frame_kind(r)?;
            let parent = self.frames.last().expect("frames are non-empty");
            let block = if parent.pc == 0 || parent.pc > parent.block.len() {
                None
            } else {
                match &parent.block[parent.pc - 1] {
                    Op::Repeat { body, .. } => Some(Arc::clone(body)),
                    Op::SelfSchedLoop { body, .. } => Some(Arc::clone(body)),
                    _ => None,
                }
            };
            let Some(block) = block else {
                return Err(r.err_mismatch("frame stack does not match the loaded program"));
            };
            if pc > block.len() {
                return Err(r.err_mismatch("frame pc beyond its block"));
            }
            self.frames.push(Frame { block, pc, kind });
        }
        let had_flat = r.bool()?;
        match (had_flat, self.flat.is_some()) {
            (true, true) => {
                let flat = self.flat.as_mut().expect("checked above");
                let n_uops = flat.prog.uops().len() as u32;
                let pc = r.u32()?;
                if pc > n_uops {
                    return Err(r.err_mismatch("flat pc beyond the micro-op stream"));
                }
                flat.pc = pc;
                flat.frames = r.seq(|r| {
                    Ok(LFrame {
                        head: r.u32()?,
                        end: r.u32()?,
                        kind: get_frame_kind(r)?,
                    })
                })?;
                if flat
                    .frames
                    .iter()
                    .any(|fr| fr.head > n_uops || fr.end >= n_uops)
                {
                    return Err(r.err_mismatch("flat loop frame beyond the micro-op stream"));
                }
                flat.fire_pending = r.bool()?;
            }
            (false, false) => {}
            _ => {
                return Err(r.err_mismatch(
                    "snapshot lowering state disagrees with this machine's lowering setup",
                ));
            }
        }
        self.quiet_until = r.cycle()?;
        self.indices = r.seq(|r| r.u64())?;
        self.state = get_ce_state(r)?;
        self.pfu.load_state(r)?;
        self.pending_pkt = r.opt(get_packet)?;
        self.outstanding_reads = r.u32()?;
        self.outstanding_writes = r.u32()?;
        self.direct_ready = r.seq(|r| r.cycle())?.into();
        self.scalar_ready = r.opt(|r| r.cycle())?;
        self.sync_result = r.opt(|r| {
            Ok(SyncOutcome {
                old: r.i32()?,
                passed: r.bool()?,
            })
        })?;
        self.counter_epochs = r.seq(|r| r.u64())?;
        self.barrier_uses = r.seq(|r| r.u64())?;
        self.sdoall_must_fetch = r.bool()?;
        self.sdoall_awaiting_reply = r.bool()?;
        self.vm_stall_until = r.cycle()?;
        let had_fault = r.bool()?;
        match (had_fault, self.fault_ctl.as_deref_mut()) {
            (true, Some(c)) => c.load_state(r)?,
            (false, None) => {}
            _ => {
                return Err(r.err_mismatch(
                    "snapshot retry-controller state disagrees with this machine's fault plan",
                ));
            }
        }
        self.next_seq = r.u64()?;
        let had_trace = r.bool()?;
        match (had_trace, self.trace_ctl.as_deref_mut()) {
            (true, Some(t)) => t.load_state(r)?,
            (false, None) => {}
            _ => {
                return Err(r.err_mismatch(
                    "snapshot journey-tracing state disagrees with this machine's tracing setup",
                ));
            }
        }
        self.stats = CeStats {
            flops: r.u64()?,
            vector_elements: r.u64()?,
            busy: r.u64()?,
            idle: r.u64()?,
            stall_mem: r.u64()?,
            stall_sync: r.u64()?,
            tlb_misses: r.u64()?,
            page_faults: r.u64()?,
            vm_cycles: r.u64()?,
            done_at: r.u64()?,
        };
        Ok(())
    }
}

/// The earlier of two optional wakeup cycles (`None` = no event).
pub(crate) fn min_event(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Sanity: epoch spacing is far beyond any realistic loop re-entry count.
const _: () = assert!(EPOCH_SPACING > 1 << 20);
