//! The per-CE data prefetch unit (PFU).
//!
//! The PFU masks Cedar's long global-memory latency and overcomes the
//! two-outstanding-request limit of the Alliant CE. It is *armed* with the
//! length, stride and mask of the vector to fetch and then *fired* with the
//! physical address of the first word. In the absence of page crossings it
//! issues up to 512 requests without pausing; because it only holds
//! physical addresses it must suspend at 4 KB page boundaries until the
//! processor supplies the next page's first address. Data returns — possibly
//! out of order under memory and network conflicts — to a 512-word buffer
//! whose full/empty bits let the CE consume it in request order without
//! waiting for the whole prefetch (§2 "Data Prefetch").

use crate::config::PrefetchConfig;
use crate::ids::CeId;
use crate::memory::address::{crosses_page, module_of};
use crate::network::packet::{MemRequest, Packet, RequestKind, Stream};
use crate::network::Omega;
use crate::time::Cycle;
use crate::trace::{hop, sample_prefetch, PfuTrace, TraceEvent};

/// Aggregated prefetch measurements for one CE — the quantities the
/// paper's hardware performance monitor records for Table 2.
///
/// *First-word latency* is measured from the cycle an address issues into
/// the forward network to the cycle the first datum returns to the buffer;
/// *interarrival time* is the spacing between the remaining words of the
/// block. Minimal values on the paper's machine: 8 cycles and 1 cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Completed prefetch blocks (fires with at least one word returned).
    pub fires: u64,
    /// Requests issued into the network.
    pub requests: u64,
    /// Words returned to the buffer.
    pub words_returned: u64,
    /// Sum over fires of (first word arrival − fire issue).
    pub first_word_latency_sum: u64,
    /// Sum over fires of (last arrival − first arrival).
    pub arrival_span_sum: u64,
    /// Sum over fires of (words − 1), the interarrival sample count.
    pub interarrival_samples: u64,
    /// Cycles the PFU sat suspended at page boundaries.
    pub page_suspend_cycles: u64,
    /// Cycles the PFU had a request ready but the network port refused it.
    pub inject_stall_cycles: u64,
    /// Stale words dropped because a new fire invalidated the buffer.
    pub stale_words: u64,
    /// Requests re-issued after the fault-recovery timeout expired with
    /// words of the current fire still missing (fault injection only).
    pub retries: u64,
}

impl PrefetchStats {
    /// Mean first-word latency in cycles, or 0 when no blocks completed.
    pub fn mean_latency(&self) -> f64 {
        if self.fires == 0 {
            0.0
        } else {
            self.first_word_latency_sum as f64 / self.fires as f64
        }
    }

    /// Mean interarrival time between block words in cycles.
    pub fn mean_interarrival(&self) -> f64 {
        if self.interarrival_samples == 0 {
            0.0
        } else {
            self.arrival_span_sum as f64 / self.interarrival_samples as f64
        }
    }

    /// Merge another CE's samples into this aggregate.
    pub fn merge(&mut self, other: &PrefetchStats) {
        self.fires += other.fires;
        self.requests += other.requests;
        self.words_returned += other.words_returned;
        self.first_word_latency_sum += other.first_word_latency_sum;
        self.arrival_span_sum += other.arrival_span_sum;
        self.interarrival_samples += other.interarrival_samples;
        self.page_suspend_cycles += other.page_suspend_cycles;
        self.inject_stall_cycles += other.inject_stall_cycles;
        self.stale_words += other.stale_words;
        self.retries += other.retries;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Armed {
    length: u32,
    stride: i64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueState {
    /// Nothing to issue.
    Idle,
    /// Issuing element `next` of the current fire.
    Issuing { next: u32 },
    /// Suspended at a page crossing; resumes (with the CE-supplied
    /// address) at the given cycle.
    PageWait { next: u32, resume_at: Cycle },
    /// Fault recovery: re-requesting words of the current fire whose
    /// replies were lost, scanning the full/empty bits from `next`.
    Retry { next: u32 },
}

/// Per-fire measurement state.
#[derive(Debug, Clone, Copy, Default)]
struct FireTrace {
    fire_at: Cycle,
    first_arrival: Option<Cycle>,
    last_arrival: Cycle,
    arrivals: u32,
}

/// One CE's data prefetch unit.
#[derive(Debug)]
pub struct Pfu {
    ce: CeId,
    cfg: PrefetchConfig,
    page_words: u64,
    modules: usize,
    armed: Option<Armed>,
    fire_seq: u64,
    base: u64,
    state: IssueState,
    /// Full/empty bits of the prefetch buffer.
    full: Vec<bool>,
    consume_idx: u32,
    /// Element whose page crossing has already been paid for (so the check
    /// does not re-trigger after the suspend).
    crossing_paid: Option<u32>,
    /// Reply-loss recovery timeout in cycles; `None` disables the retry
    /// path entirely (the fault-free machine).
    fault_timeout: Option<u64>,
    /// Words the current fire will deliver (the armed length).
    expected: u32,
    /// Words of the current fire received so far.
    received: u32,
    /// With `fault_timeout`: the deadline at which missing words are
    /// declared lost and re-requested (pushed out by every arrival).
    retry_at: Cycle,
    trace: FireTrace,
    /// Causal-tracing state; present only when journey tracing is enabled.
    jtrace: Option<Box<PfuTrace>>,
    stats: PrefetchStats,
}

impl Pfu {
    /// Build the PFU for CE `ce`. `fault_timeout` arms the reply-loss
    /// recovery path: a fire whose words stop arriving for that many
    /// cycles re-requests the missing elements (same fire sequence, so
    /// in-flight duplicates stay valid).
    pub fn new(
        ce: CeId,
        cfg: &PrefetchConfig,
        page_words: u64,
        modules: usize,
        fault_timeout: Option<u64>,
    ) -> Pfu {
        Pfu {
            ce,
            cfg: cfg.clone(),
            page_words,
            modules,
            armed: None,
            fire_seq: 0,
            base: 0,
            state: IssueState::Idle,
            full: vec![false; cfg.buffer_words as usize],
            consume_idx: 0,
            crossing_paid: None,
            fault_timeout,
            expected: 0,
            received: 0,
            retry_at: Cycle::ZERO,
            trace: FireTrace::default(),
            jtrace: None,
            stats: PrefetchStats::default(),
        }
    }

    /// Arm causal journey tracing: fires are sampled deterministically by
    /// `(seed, ce, fire_seq)`, independent of fast-forward.
    pub(crate) fn enable_trace(&mut self, seed: u64, sample_ppm: u32) {
        self.jtrace = Some(Box::new(PfuTrace::new(seed, sample_ppm)));
    }

    /// Drain this PFU's trace stamps: `(events, overflow drops)`.
    pub(crate) fn drain_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        match self.jtrace.as_deref_mut() {
            Some(t) => (
                std::mem::take(&mut t.buf.events),
                std::mem::replace(&mut t.buf.dropped, 0),
            ),
            None => (Vec::new(), 0),
        }
    }

    /// Journey id carried by element `elem` of the current fire: the
    /// traced fire's id on its first request, zero everywhere else. The
    /// first word's journey spans the whole burst (fire → last arrival).
    #[inline]
    fn elem_trace(&self, elem: u32) -> u64 {
        match self.jtrace.as_deref() {
            Some(t) if elem == 0 => match t.cur {
                Some((id, fs)) if fs == self.fire_seq => id,
                _ => 0,
            },
            _ => 0,
        }
    }

    /// Arm with the vector shape. Lengths beyond the buffer are clamped —
    /// the compiler never emits them on the real machine.
    pub fn arm(&mut self, length: u32, stride: i64) {
        let length = length.min(self.cfg.buffer_words).min(self.cfg.max_burst);
        self.armed = Some(Armed { length, stride });
    }

    /// Fire at physical word address `base`. Invalidates the buffer: any
    /// words still in flight from the previous fire are dropped on return.
    ///
    /// # Panics
    ///
    /// Panics if the PFU was never armed.
    pub fn fire(&mut self, now: Cycle, base: u64) {
        assert!(self.armed.is_some(), "PFU fired without being armed");
        self.finish_trace();
        self.fire_seq += 1;
        self.base = base;
        self.full.iter_mut().for_each(|b| *b = false);
        self.consume_idx = 0;
        self.crossing_paid = None;
        self.expected = self.armed.expect("checked above").length;
        self.received = 0;
        self.retry_at = now + self.fault_timeout.unwrap_or(0);
        self.state = IssueState::Issuing { next: 0 };
        self.trace = FireTrace {
            fire_at: now,
            ..FireTrace::default()
        };
        let ce = self.ce.0 as u16;
        let seq = self.fire_seq;
        if let Some(t) = self.jtrace.as_deref_mut() {
            t.cur = None;
            if let Some(id) = sample_prefetch(t.seed, t.ppm, ce, seq) {
                t.buf.stamp(id, hop::PF_FIRE, 0, ce, now);
                t.cur = Some((id, seq));
            }
        }
    }

    /// Rewind consumption to reuse buffered data (the paper notes
    /// prefetched data can be kept in the buffer and reused).
    pub fn rewind(&mut self) {
        self.consume_idx = 0;
    }

    /// True when the current fire has issued every request.
    pub fn done_issuing(&self) -> bool {
        matches!(self.state, IssueState::Idle)
    }

    /// Try to consume the next word in request order. Returns `true` and
    /// advances when the word's full bit is set.
    pub fn try_consume(&mut self) -> bool {
        let idx = self.consume_idx as usize;
        if idx < self.full.len() && self.full[idx] {
            self.consume_idx += 1;
            true
        } else {
            false
        }
    }

    /// Handle a returning word from the reverse network.
    pub fn receive(&mut self, now: Cycle, elem: u32, fire_seq: u64) {
        if fire_seq != self.fire_seq {
            self.stats.stale_words += 1;
            return;
        }
        if let Some(slot) = self.full.get_mut(elem as usize) {
            if !*slot {
                *slot = true;
                self.stats.words_returned += 1;
                self.received += 1;
                // Progress: push the loss deadline out past this arrival.
                if let Some(t) = self.fault_timeout {
                    self.retry_at = now + t;
                }
                self.trace.arrivals += 1;
                if self.trace.first_arrival.is_none() {
                    self.trace.first_arrival = Some(now);
                }
                self.trace.last_arrival = now;
                // The traced fire's journey closes when its last word lands.
                if self.received == self.expected {
                    let ce = self.ce.0 as u16;
                    if let Some(t) = self.jtrace.as_deref_mut() {
                        if let Some((id, fs)) = t.cur {
                            if fs == fire_seq {
                                t.buf.stamp(id, hop::PF_DONE, 0, ce, now);
                            }
                        }
                    }
                }
            }
        }
    }

    /// True when the fault-recovery path is armed and the current fire is
    /// still missing words — the PFU must stay awake to re-request them.
    fn retry_pending(&self) -> bool {
        self.fault_timeout.is_some() && self.expected > 0 && self.received < self.expected
    }

    /// True when [`Pfu::try_consume`] would succeed (non-consuming).
    pub(crate) fn can_consume(&self) -> bool {
        let idx = self.consume_idx as usize;
        idx < self.full.len() && self.full[idx]
    }

    /// True when the issue engine has nothing to do — [`Pfu::tick`] would
    /// be a no-op, so the caller can skip the (non-inlined) call entirely.
    #[inline]
    pub(crate) fn issue_idle(&self) -> bool {
        matches!(self.state, IssueState::Idle) && !self.retry_pending()
    }

    /// The earliest future cycle at which this PFU can change externally
    /// visible state: issuing wants every cycle, a page suspend wakes at
    /// its resume cycle, idle means never.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self.state {
            IssueState::Idle if self.retry_pending() => Some(self.retry_at.max(now + 1)),
            IssueState::Idle => None,
            IssueState::Issuing { .. } | IssueState::Retry { .. } => Some(now + 1),
            IssueState::PageWait { resume_at, .. } => Some(resume_at.max(now + 1)),
        }
    }

    /// Credit `cycles` skipped quiescent cycles: a page-suspended PFU
    /// counts one suspend cycle per tick (as the per-cycle path does);
    /// idle costs nothing, and an issuing PFU is never skipped over.
    pub(crate) fn skip(&mut self, cycles: u64) {
        if matches!(self.state, IssueState::PageWait { .. }) {
            self.stats.page_suspend_cycles += cycles;
        }
    }

    /// Advance one cycle: issue up to `issue_per_cycle` requests into the
    /// CE's forward-network port.
    pub fn tick(&mut self, now: Cycle, port: usize, forward: &mut Omega) {
        for _ in 0..self.cfg.issue_per_cycle {
            match self.state {
                IssueState::Idle => {
                    if self.retry_pending() && now >= self.retry_at {
                        self.state = IssueState::Retry { next: 0 };
                    } else {
                        return;
                    }
                }
                IssueState::PageWait { next, resume_at } => {
                    if now >= resume_at {
                        self.state = IssueState::Issuing { next };
                    } else {
                        self.stats.page_suspend_cycles += 1;
                        return;
                    }
                }
                IssueState::Issuing { .. } | IssueState::Retry { .. } => {}
            }
            if let IssueState::Retry { next } = self.state {
                if !self.retry_scan(now, next, port, forward) {
                    return;
                }
                continue;
            }
            let IssueState::Issuing { next } = self.state else {
                return;
            };
            let armed = self.armed.expect("issuing implies armed");
            if next >= armed.length {
                self.state = IssueState::Idle;
                return;
            }
            let addr = self.elem_addr(next, armed.stride);
            // Page-crossing check against the previous element's page.
            if self.cfg.page_suspend && next > 0 && self.crossing_paid != Some(next) {
                let prev = self.elem_addr(next - 1, armed.stride);
                if crosses_page(prev, addr, self.page_words) {
                    self.crossing_paid = Some(next);
                    self.state = IssueState::PageWait {
                        next,
                        resume_at: now + u64::from(self.cfg.page_resume_cycles),
                    };
                    // Model the CE supplying the next address after the
                    // resume delay; the issue itself happens then.
                    self.stats.page_suspend_cycles += 1;
                    return;
                }
            }
            if !self.issue(now, next, addr, port, forward) {
                return;
            }
            self.state = IssueState::Issuing { next: next + 1 };
        }
    }

    /// Inject the read of element `elem` at `addr` into `port`. A refused
    /// port builds no request and counts an inject stall.
    fn issue(
        &mut self,
        now: Cycle,
        elem: u32,
        addr: u64,
        port: usize,
        forward: &mut Omega,
    ) -> bool {
        if !forward.inject_ready(port) {
            self.stats.inject_stall_cycles += 1;
            return false;
        }
        let pkt = Packet::read_request(
            module_of(addr, self.modules).0,
            MemRequest {
                ce: self.ce,
                kind: RequestKind::Read,
                addr,
                stream: Stream::Prefetch {
                    elem,
                    fire_seq: self.fire_seq,
                },
                issued: now,
                seq: 0,
                nacked: false,
                trace: self.elem_trace(elem),
            },
        );
        assert!(forward.try_inject(port, pkt), "a ready port accepts");
        self.stats.requests += 1;
        true
    }

    /// Aggregated statistics; call [`Pfu::flush_trace`] first to include the
    /// final in-progress block.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Fold the current fire's trace into the statistics (done
    /// automatically on the next fire).
    pub fn flush_trace(&mut self) {
        self.finish_trace();
    }

    /// One step of the fault-recovery scan: re-request the first word at
    /// index `>= next` whose full bit is still clear, under the *same*
    /// fire sequence (in-flight duplicates of earlier requests then land
    /// harmlessly in the already-full slot). Returns `false` when the
    /// caller's issue loop should stop for this cycle.
    fn retry_scan(&mut self, now: Cycle, next: u32, port: usize, forward: &mut Omega) -> bool {
        let armed = self.armed.expect("retry implies armed");
        let mut i = next;
        while i < self.expected {
            if !self.full[i as usize] {
                if !self.issue(now, i, self.elem_addr(i, armed.stride), port, forward) {
                    return false;
                }
                self.stats.retries += 1;
                self.state = IssueState::Retry { next: i + 1 };
                return true;
            }
            i += 1;
        }
        // Every missing word has been re-requested; give the duplicates a
        // full timeout window to come home before scanning again.
        self.state = IssueState::Idle;
        self.retry_at = now + self.fault_timeout.unwrap_or(0);
        false
    }

    fn elem_addr(&self, elem: u32, stride: i64) -> u64 {
        (self.base as i64 + i64::from(elem) * stride) as u64
    }

    /// Serialize the armed shape, fire bookkeeping, issue state,
    /// full/empty bits (as set indices — the buffer is mostly empty or
    /// mostly full, and 512 bools beat 512 bytes either way), and stats.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.opt(self.armed.as_ref(), |w, a| {
            w.u32(a.length);
            w.i64(a.stride);
        });
        w.u64(self.fire_seq);
        w.u64(self.base);
        let (state, next, resume) = match self.state {
            IssueState::Idle => (0u8, 0u32, Cycle::ZERO),
            IssueState::Issuing { next } => (1, next, Cycle::ZERO),
            IssueState::PageWait { next, resume_at } => (2, next, resume_at),
            IssueState::Retry { next } => (3, next, Cycle::ZERO),
        };
        w.u8(state);
        w.u32(next);
        w.cycle(resume);
        let full: Vec<u32> = (0..self.full.len() as u32)
            .filter(|&i| self.full[i as usize])
            .collect();
        w.seq(full.iter(), |w, i| w.u32(*i));
        w.u32(self.consume_idx);
        w.opt(self.crossing_paid.as_ref(), |w, e| w.u32(*e));
        w.u32(self.expected);
        w.u32(self.received);
        w.cycle(self.retry_at);
        w.cycle(self.trace.fire_at);
        w.opt(self.trace.first_arrival.as_ref(), |w, c| w.cycle(*c));
        w.cycle(self.trace.last_arrival);
        w.u32(self.trace.arrivals);
        w.opt(self.jtrace.as_deref(), |w, t| t.save_state(w));
        let s = &self.stats;
        for v in [
            s.fires,
            s.requests,
            s.words_returned,
            s.first_word_latency_sum,
            s.arrival_span_sum,
            s.interarrival_samples,
            s.page_suspend_cycles,
            s.inject_stall_cycles,
            s.stale_words,
            s.retries,
        ] {
            w.u64(v);
        }
    }

    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader,
    ) -> crate::snapshot::SnapResult<()> {
        self.armed = r.opt(|r| {
            Ok(Armed {
                length: r.u32()?,
                stride: r.i64()?,
            })
        })?;
        self.fire_seq = r.u64()?;
        self.base = r.u64()?;
        let state = r.u8()?;
        let next = r.u32()?;
        let resume_at = r.cycle()?;
        self.state = match state {
            0 => IssueState::Idle,
            1 => IssueState::Issuing { next },
            2 => IssueState::PageWait { next, resume_at },
            3 => IssueState::Retry { next },
            b => return Err(r.err_invalid("pfu issue state", b)),
        };
        self.full.iter_mut().for_each(|b| *b = false);
        for i in r.seq(|r| r.u32())? {
            match self.full.get_mut(i as usize) {
                Some(slot) => *slot = true,
                None => {
                    return Err(r.err_mismatch(&format!(
                        "prefetch full bit {i} outside the {}-word buffer",
                        self.full.len()
                    )))
                }
            }
        }
        self.consume_idx = r.u32()?;
        self.crossing_paid = r.opt(|r| r.u32())?;
        self.expected = r.u32()?;
        self.received = r.u32()?;
        self.retry_at = r.cycle()?;
        self.trace = FireTrace {
            fire_at: r.cycle()?,
            first_arrival: r.opt(|r| r.cycle())?,
            last_arrival: r.cycle()?,
            arrivals: r.u32()?,
        };
        let had_jtrace = r.bool()?;
        if had_jtrace {
            match self.jtrace.as_deref_mut() {
                Some(t) => t.load_state(r)?,
                None => {
                    return Err(r.err_mismatch(
                        "snapshot carries prefetch journey tracing but this machine has none",
                    ))
                }
            }
        }
        self.stats = PrefetchStats {
            fires: r.u64()?,
            requests: r.u64()?,
            words_returned: r.u64()?,
            first_word_latency_sum: r.u64()?,
            arrival_span_sum: r.u64()?,
            interarrival_samples: r.u64()?,
            page_suspend_cycles: r.u64()?,
            inject_stall_cycles: r.u64()?,
            stale_words: r.u64()?,
            retries: r.u64()?,
        };
        Ok(())
    }

    fn finish_trace(&mut self) {
        let t = self.trace;
        if let Some(first) = t.first_arrival {
            self.stats.fires += 1;
            self.stats.first_word_latency_sum += first.saturating_since(t.fire_at);
            self.stats.arrival_span_sum += t.last_arrival.saturating_since(first);
            self.stats.interarrival_samples += u64::from(t.arrivals.saturating_sub(1));
        }
        self.trace = FireTrace::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::network::packet::Payload;
    use crate::network::{NetSink, Omega};

    #[derive(Default)]
    struct Collect {
        got: Vec<(usize, Packet)>,
    }
    impl NetSink for Collect {
        fn try_begin(&mut self, _p: usize) -> bool {
            true
        }
        fn deliver(&mut self, p: usize, pkt: Packet) {
            self.got.push((p, pkt));
        }
    }

    fn pfu() -> Pfu {
        Pfu::new(CeId(0), &PrefetchConfig::cedar(), 512, 32, None)
    }

    #[test]
    #[should_panic(expected = "without being armed")]
    fn fire_requires_arm() {
        pfu().fire(Cycle(0), 0);
    }

    #[test]
    fn issues_strided_requests_in_order() {
        let mut p = pfu();
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        p.arm(4, 2);
        p.fire(Cycle(0), 10);
        let mut c = 0u64;
        while !p.done_issuing() || !net.is_idle() {
            p.tick(Cycle(c), 0, &mut net);
            net.tick(&mut sink);
            c += 1;
            assert!(c < 100);
        }
        let addrs: Vec<u64> = sink
            .got
            .iter()
            .map(|(_, pkt)| match pkt.payload {
                Payload::Request(r) => r.addr,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![10, 12, 14, 16]);
        assert_eq!(p.stats().requests, 4);
    }

    #[test]
    fn consume_respects_full_empty_bits_in_request_order() {
        let mut p = pfu();
        p.arm(3, 1);
        p.fire(Cycle(0), 0);
        assert!(!p.try_consume());
        // Word 1 arrives before word 0 (out of order): still not consumable.
        p.receive(Cycle(5), 1, 1);
        assert!(!p.try_consume());
        p.receive(Cycle(6), 0, 1);
        assert!(p.try_consume());
        assert!(p.try_consume());
        assert!(!p.try_consume());
        p.receive(Cycle(7), 2, 1);
        assert!(p.try_consume());
    }

    #[test]
    fn stale_words_from_previous_fire_are_dropped() {
        let mut p = pfu();
        p.arm(2, 1);
        p.fire(Cycle(0), 0);
        p.fire(Cycle(1), 100); // invalidates
        p.receive(Cycle(5), 0, 1); // from the first fire
        assert!(!p.try_consume());
        assert_eq!(p.stats().stale_words, 1);
        p.receive(Cycle(6), 0, 2);
        assert!(p.try_consume());
    }

    #[test]
    fn page_crossing_suspends_and_resumes() {
        let mut p = pfu();
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        // Stride 1 starting 2 words before a page boundary: crossing after
        // 2 issues.
        p.arm(4, 1);
        p.fire(Cycle(0), 510);
        let mut c = 0u64;
        while !p.done_issuing() {
            p.tick(Cycle(c), 0, &mut net);
            net.tick(&mut sink);
            c += 1;
            assert!(c < 100);
        }
        assert!(p.stats().page_suspend_cycles > 0);
        assert_eq!(p.stats().requests, 4);
    }

    #[test]
    fn monitor_aggregates_latency_and_interarrival() {
        let mut p = pfu();
        p.arm(4, 1);
        p.fire(Cycle(10), 0);
        p.receive(Cycle(18), 0, 1);
        p.receive(Cycle(19), 1, 1);
        p.receive(Cycle(20), 2, 1);
        p.receive(Cycle(21), 3, 1);
        p.flush_trace();
        let s = p.stats();
        assert_eq!(s.fires, 1);
        assert!((s.mean_latency() - 8.0).abs() < 1e-9);
        assert!((s.mean_interarrival() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rewind_reuses_buffer() {
        let mut p = pfu();
        p.arm(2, 1);
        p.fire(Cycle(0), 0);
        p.receive(Cycle(1), 0, 1);
        p.receive(Cycle(1), 1, 1);
        assert!(p.try_consume() && p.try_consume());
        assert!(!p.try_consume());
        p.rewind();
        assert!(p.try_consume() && p.try_consume());
    }

    #[test]
    fn lost_reply_is_rerequested_after_timeout() {
        let mut p = Pfu::new(CeId(0), &PrefetchConfig::cedar(), 512, 32, Some(16));
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        p.arm(2, 1);
        p.fire(Cycle(0), 0);
        let mut c = 0u64;
        while !p.done_issuing() || !net.is_idle() {
            p.tick(Cycle(c), 0, &mut net);
            net.tick(&mut sink);
            c += 1;
            assert!(c < 100);
        }
        assert_eq!(p.stats().requests, 2);
        // Word 0 arrives; word 1's reply was lost in the network.
        p.receive(Cycle(c), 0, 1);
        assert!(!p.issue_idle(), "missing word keeps the PFU awake");
        // Past the timeout the PFU re-requests element 1 — and only it.
        // (24 cycles covers one timeout window plus network transit but
        // not a second scan, so exactly one retry is observed.)
        for _ in 0..24 {
            p.tick(Cycle(c), 0, &mut net);
            net.tick(&mut sink);
            c += 1;
        }
        assert_eq!(p.stats().retries, 1);
        assert_eq!(p.stats().requests, 3);
        let (_, last) = *sink.got.last().unwrap();
        match last.payload {
            Payload::Request(r) => {
                assert_eq!(
                    r.stream,
                    Stream::Prefetch {
                        elem: 1,
                        fire_seq: 1
                    }
                );
            }
            Payload::Reply(_) => unreachable!(),
        }
        // The duplicate lands; the fire completes and the PFU goes quiet.
        p.receive(Cycle(c), 1, 1);
        assert!(p.issue_idle());
        assert!(p.next_event(Cycle(c)).is_none());
    }

    #[test]
    fn arm_clamps_to_buffer_capacity() {
        let mut p = pfu();
        p.arm(10_000, 1);
        p.fire(Cycle(0), 0);
        // Issue everything with an infinite-capacity sink.
        let mut net = Omega::new(32, &NetworkConfig::cedar());
        let mut sink = Collect::default();
        let mut c = 0u64;
        while !p.done_issuing() {
            p.tick(Cycle(c), 0, &mut net);
            net.tick(&mut sink);
            c += 1;
            assert!(c < 20_000);
        }
        assert_eq!(p.stats().requests, 512);
    }
}
