//! Causal request tracing and latency attribution.
//!
//! The paper's core analysis decomposes a global-memory access into its
//! pipeline components: CE issue, omega network transit (stage by stage),
//! module queueing and service, and the return trip. This module follows
//! *individual* accesses — "journeys" — through that pipeline, stamping
//! the cycle at which each hop is entered, so the decomposition can be
//! reproduced from live traces instead of aggregate counters.
//!
//! # Determinism
//!
//! Journeys are sampled with the same counter-based discipline as
//! [`fault`](crate::fault): `mix(seed, site, seq) % 1M < sample_ppm`,
//! where `site` encodes the sampling point (a CE, a prefetch unit, a
//! barrier) and `seq` is a monotone per-site candidate counter. Both are
//! engine-invariant — fast-forward only skips cycles in which no hop can
//! occur, and the flow path and lowered execution are bit-identical to
//! their oracles — so the set of sampled journeys, every stamped cycle,
//! and every derived report are bit-identical across fast-forward, flow
//! path and lowering on/off. With tracing off (`sample_ppm == 0`) no trace id
//! is ever assigned, no event is ever stamped, and no `trace.*` stats
//! key is emitted, so all registries and goldens match the untraced
//! simulator byte for byte.

use crate::fault::mix;
use crate::snapshot::{SnapReader, SnapResult, SnapWriter};
use crate::time::Cycle;

/// Sampling site salt for per-CE memory-op journeys (XORed with the CE
/// id). Disjoint from the fault layer's `SALT_FORWARD`/`SALT_REVERSE`
/// (`0xF0`/`0x0F00` XOR a port number) by construction: all trace salts
/// live above bit 24.
pub(crate) const SALT_TRACE: u64 = 0x1CE_0000;
/// Sampling site salt for prefetch-burst journeys (XORed with the CE id).
pub(crate) const SALT_TRACE_PFU: u64 = 0x2CE_0000;
/// Sampling site salt for barrier episodes (XORed with the barrier's
/// registry index; the sequence number is the per-CE use count, which is
/// identical across all participating CEs).
pub(crate) const SALT_TRACE_BAR: u64 = 0x3CE_0000;

/// Deterministic journey-sampling plan. Installed with
/// [`MachineConfig::with_trace`](crate::config::MachineConfig::with_trace)
/// or the `CEDAR_TRACE_SEED` / `CEDAR_TRACE_SAMPLE_PPM` environment knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePlan {
    /// Seed for the counter-based sampling RNG.
    pub seed: u64,
    /// Journeys sampled per million candidates (0 disables tracing,
    /// 1_000_000 traces everything).
    pub sample_ppm: u32,
}

impl TracePlan {
    /// A disabled plan carrying only a seed.
    pub fn none(seed: u64) -> TracePlan {
        TracePlan {
            seed,
            sample_ppm: 0,
        }
    }

    /// Whether any journey can ever be sampled.
    pub fn enabled(&self) -> bool {
        self.sample_ppm > 0
    }

    /// Validate rate bounds (per-million rates cannot exceed a million).
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_ppm > 1_000_000 {
            return Err(format!(
                "trace sample rate {} ppm exceeds 1000000",
                self.sample_ppm
            ));
        }
        Ok(())
    }
}

/// Hop kinds, packed into the high byte of [`TraceEvent::hop`]. The low
/// byte carries a per-kind argument (op class, network stage, hit/fill).
pub mod hop {
    /// CE issued the request into its network port queue (arg = op class).
    pub const ISSUE: u8 = 0;
    /// Forward network accepted the packet at the CE's injector.
    pub const FWD_INJECT: u8 = 1;
    /// Head word entered forward-network stage `arg`.
    pub const FWD_STAGE: u8 = 2;
    /// Tail word left the forward network at the module port.
    pub const FWD_DELIVER: u8 = 3;
    /// Module bank began servicing the request.
    pub const SVC_START: u8 = 4;
    /// Module bank finished servicing; the reply is ready.
    pub const SVC_END: u8 = 5;
    /// Reverse network accepted the reply at the module's injector.
    pub const REV_INJECT: u8 = 6;
    /// Head word entered reverse-network stage `arg`.
    pub const REV_STAGE: u8 = 7;
    /// Tail word left the reverse network at the CE port.
    pub const REV_DELIVER: u8 = 8;
    /// CE consumed the reply.
    pub const RETIRE: u8 = 9;
    /// Cluster-cache access completed (arg: 0 = hit, 1 = miss/fill).
    pub const CACHE_DONE: u8 = 10;
    /// Prefetch unit fired a burst.
    pub const PF_FIRE: u8 = 11;
    /// Last word of a prefetch burst arrived.
    pub const PF_DONE: u8 = 12;
    /// CE arrived at a barrier.
    pub const BAR_ARRIVE: u8 = 13;
    /// CE observed the barrier release.
    pub const BAR_RELEASE: u8 = 14;

    /// Human-readable hop-kind name.
    pub fn name(kind: u8) -> &'static str {
        match kind {
            ISSUE => "issue",
            FWD_INJECT => "fwd_inject",
            FWD_STAGE => "fwd_stage",
            FWD_DELIVER => "fwd_deliver",
            SVC_START => "svc_start",
            SVC_END => "svc_end",
            REV_INJECT => "rev_inject",
            REV_STAGE => "rev_stage",
            REV_DELIVER => "rev_deliver",
            RETIRE => "retire",
            CACHE_DONE => "cache_done",
            PF_FIRE => "pf_fire",
            PF_DONE => "pf_done",
            BAR_ARRIVE => "bar_arrive",
            BAR_RELEASE => "bar_release",
            _ => "unknown",
        }
    }
}

/// Op classes carried in the [`hop::ISSUE`] argument.
pub mod class {
    /// Scalar global read.
    pub const SCALAR: u8 = 0;
    /// Global write (scalar or vector element).
    pub const WRITE: u8 = 1;
    /// Synchronization (Test-And-Operate) instruction.
    pub const SYNC: u8 = 2;
    /// Direct (non-prefetched) vector element read.
    pub const DIRECT: u8 = 3;
    /// Prefetch-unit burst.
    pub const PREFETCH: u8 = 4;
    /// Cluster-cache access.
    pub const CACHE: u8 = 5;
    /// Barrier episode.
    pub const BARRIER: u8 = 6;

    /// Human-readable class name.
    pub fn name(c: u8) -> &'static str {
        match c {
            SCALAR => "scalar",
            WRITE => "write",
            SYNC => "sync",
            DIRECT => "direct",
            PREFETCH => "prefetch",
            CACHE => "cache",
            BARRIER => "barrier",
            _ => "?",
        }
    }
}

/// Journey-id space tag for prefetch bursts (bit 62).
pub(crate) const ID_PREFETCH: u64 = 1 << 62;
/// Journey-id space tag for barrier episodes (bit 63).
pub(crate) const ID_BARRIER: u64 = 1 << 63;

/// One stamped hop of a sampled journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Journey id (nonzero). Memory ops use `(ce+1) << 32 | candidate`;
    /// prefetch bursts set bit 62; barrier episodes set bit 63 and are
    /// shared by every participating CE.
    pub id: u64,
    /// `kind << 8 | arg` (see [`hop`]).
    pub hop: u16,
    /// CE the hop belongs to (the issuing CE for network/module hops).
    pub ce: u16,
    /// Cycle the hop was entered.
    pub at: Cycle,
}

impl TraceEvent {
    /// Pack a hop code.
    #[inline]
    pub fn hop_code(kind: u8, arg: u8) -> u16 {
        (u16::from(kind) << 8) | u16::from(arg)
    }

    /// Hop kind (high byte).
    #[inline]
    pub fn kind(&self) -> u8 {
        (self.hop >> 8) as u8
    }

    /// Hop argument (low byte).
    #[inline]
    pub fn arg(&self) -> u8 {
        (self.hop & 0xFF) as u8
    }
}

/// A bounded event buffer: every stamping site owns one, so a runaway
/// sampling rate degrades into counted drops instead of unbounded memory.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    cap: usize,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped: u64,
}

impl TraceBuf {
    pub(crate) fn with_capacity(cap: usize) -> TraceBuf {
        TraceBuf {
            cap,
            events: Vec::new(),
            dropped: 0,
        }
    }

    #[inline]
    pub(crate) fn stamp(&mut self, id: u64, kind: u8, arg: u8, ce: u16, at: Cycle) {
        if self.events.len() < self.cap {
            self.events.push(TraceEvent {
                id,
                hop: TraceEvent::hop_code(kind, arg),
                ce,
                at,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Serialize the stamped events and drop count (capacity is a
    /// construction-time constant).
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.seq(self.events.iter(), put_trace_event);
        w.u64(self.dropped);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.events = r.seq(get_trace_event)?;
        self.dropped = r.u64()?;
        Ok(())
    }
}

pub(crate) fn put_trace_event(w: &mut SnapWriter, e: &TraceEvent) {
    w.u64(e.id);
    w.u16(e.hop);
    w.u16(e.ce);
    w.cycle(e.at);
}

pub(crate) fn get_trace_event(r: &mut SnapReader) -> SnapResult<TraceEvent> {
    Ok(TraceEvent {
        id: r.u64()?,
        hop: r.u16()?,
        ce: r.u16()?,
        at: r.cycle()?,
    })
}

/// Per-CE tracing controller: owns the sampling counter for the CE's
/// memory ops and the CE-side stamps (issue, retire, cache, barriers).
/// Present on an engine only when tracing is enabled, mirroring the
/// fault layer's `CeFaultCtl`.
#[derive(Debug)]
pub(crate) struct CeTraceCtl {
    seed: u64,
    ppm: u64,
    ce: u16,
    /// Monotone candidate counter over the CE's network requests and
    /// accepted cache accesses — the sampling sequence number.
    candidates: u64,
    /// Barrier episode the CE is currently inside, if sampled.
    pub(crate) episode: Option<u64>,
    pub(crate) buf: TraceBuf,
}

/// Per-CE event-buffer capacity.
const CE_TRACE_CAP: usize = 1 << 16;
/// Per-network event-buffer capacity.
const NET_TRACE_CAP: usize = 1 << 18;
/// Per-memory-module event-buffer capacity.
pub(crate) const MODULE_TRACE_CAP: usize = 1 << 14;
/// Per-prefetch-unit event-buffer capacity.
const PFU_TRACE_CAP: usize = 1 << 12;

impl CeTraceCtl {
    pub(crate) fn new(seed: u64, sample_ppm: u32, ce: u16) -> CeTraceCtl {
        CeTraceCtl {
            seed,
            ppm: u64::from(sample_ppm),
            ce,
            candidates: 0,
            episode: None,
            buf: TraceBuf::with_capacity(CE_TRACE_CAP),
        }
    }

    /// Consider the next memory-op candidate; returns its journey id when
    /// sampled, else 0. Call exactly once per request issue — the counter
    /// is the deterministic sampling sequence.
    #[inline]
    pub(crate) fn sample_mem(&mut self) -> u64 {
        let n = self.candidates;
        self.candidates += 1;
        if mix(self.seed, SALT_TRACE ^ u64::from(self.ce), n) % 1_000_000 < self.ppm {
            (u64::from(self.ce) + 1) << 32 | n
        } else {
            0
        }
    }

    /// Consider a barrier episode (`site` = barrier registry index,
    /// `epoch` = the CE's per-barrier use count, identical across all
    /// participants). Returns the machine-wide episode id when sampled.
    #[inline]
    pub(crate) fn sample_barrier(&mut self, barrier: usize, epoch: u64) -> Option<u64> {
        if mix(self.seed, SALT_TRACE_BAR ^ barrier as u64, epoch) % 1_000_000 < self.ppm {
            Some(ID_BARRIER | (barrier as u64) << 32 | epoch)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn stamp(&mut self, id: u64, kind: u8, arg: u8, at: Cycle) {
        let ce = self.ce;
        self.buf.stamp(id, kind, arg, ce, at);
    }

    /// Serialize the sampling cursor (the RNG counter), the in-progress
    /// barrier episode, and the stamp buffer. Seed/rate/CE id are
    /// configuration, reconstructed on restore.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.candidates);
        w.opt(self.episode.as_ref(), |w, id| w.u64(*id));
        self.buf.save_state(w);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.candidates = r.u64()?;
        self.episode = r.opt(|r| r.u64())?;
        self.buf.load_state(r)
    }
}

/// Whether a prefetch fire is sampled, and its journey id. Free function
/// so the prefetch unit needs no controller object — just the plan.
#[inline]
pub(crate) fn sample_prefetch(seed: u64, ppm: u32, ce: u16, fire_seq: u64) -> Option<u64> {
    if mix(seed, SALT_TRACE_PFU ^ u64::from(ce), fire_seq) % 1_000_000 < u64::from(ppm) {
        Some(ID_PREFETCH | u64::from(ce) << 32 | fire_seq)
    } else {
        None
    }
}

/// Network-side tracing state for one omega instance: the cycle stamp
/// (the network itself has no notion of absolute time — the machine sets
/// it before any network activity each ticked cycle) and the stamp
/// buffer. `fwd` selects the forward or reverse hop kinds.
#[derive(Debug)]
pub(crate) struct NetTrace {
    pub(crate) now: Cycle,
    pub(crate) fwd: bool,
    pub(crate) buf: TraceBuf,
}

impl NetTrace {
    pub(crate) fn new(fwd: bool) -> NetTrace {
        NetTrace {
            now: Cycle::ZERO,
            fwd,
            buf: TraceBuf::with_capacity(NET_TRACE_CAP),
        }
    }

    /// Stamp an injection-accepted hop.
    #[inline]
    pub(crate) fn stamp_inject(&mut self, id: u64, ce: u16) {
        let kind = if self.fwd {
            hop::FWD_INJECT
        } else {
            hop::REV_INJECT
        };
        let at = self.now;
        self.buf.stamp(id, kind, 0, ce, at);
    }

    /// Stamp a head word entering switch stage `stage`.
    #[inline]
    pub(crate) fn stamp_stage(&mut self, id: u64, ce: u16, stage: u8) {
        let kind = if self.fwd {
            hop::FWD_STAGE
        } else {
            hop::REV_STAGE
        };
        let at = self.now;
        self.buf.stamp(id, kind, stage, ce, at);
    }

    /// Stamp a tail word leaving the network.
    #[inline]
    pub(crate) fn stamp_deliver(&mut self, id: u64, ce: u16) {
        let kind = if self.fwd {
            hop::FWD_DELIVER
        } else {
            hop::REV_DELIVER
        };
        let at = self.now;
        self.buf.stamp(id, kind, 0, ce, at);
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.cycle(self.now);
        self.buf.save_state(w);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.now = r.cycle()?;
        self.buf.load_state(r)
    }
}

/// Prefetch-unit tracing state: the plan plus the currently traced fire.
#[derive(Debug)]
pub(crate) struct PfuTrace {
    pub(crate) seed: u64,
    pub(crate) ppm: u32,
    /// `(journey id, fire_seq)` of the fire being traced, if any.
    pub(crate) cur: Option<(u64, u64)>,
    pub(crate) buf: TraceBuf,
}

impl PfuTrace {
    pub(crate) fn new(seed: u64, ppm: u32) -> PfuTrace {
        PfuTrace {
            seed,
            ppm,
            cur: None,
            buf: TraceBuf::with_capacity(PFU_TRACE_CAP),
        }
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.opt(self.cur.as_ref(), |w, (id, seq)| {
            w.u64(*id);
            w.u64(*seq);
        });
        self.buf.save_state(w);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        self.cur = r.opt(|r| Ok((r.u64()?, r.u64()?)))?;
        self.buf.load_state(r)
    }
}

/// The machine-wide span store: every subsystem's buffer drained (in a
/// fixed deterministic order) at end of run.
#[derive(Debug, Default)]
pub(crate) struct TraceStore {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped: u64,
}

impl TraceStore {
    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.tag(b"TRCS");
        w.seq(self.events.iter(), put_trace_event);
        w.u64(self.dropped);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        r.tag(b"TRCS")?;
        self.events = r.seq(get_trace_event)?;
        self.dropped = r.u64()?;
        Ok(())
    }
}

/// One assembled journey: the stamped hops of a single sampled access (or
/// of one CE's participation in a barrier episode), sorted by cycle.
#[derive(Debug, Clone)]
pub struct Journey {
    /// Journey id (see [`TraceEvent::id`]).
    pub id: u64,
    /// Op class (see [`class`]).
    pub class: u8,
    /// Owning CE.
    pub ce: u16,
    /// `(hop code, cycle)` in ascending cycle order.
    pub hops: Vec<(u16, Cycle)>,
}

impl Journey {
    /// First stamp of hop `kind`, if present.
    pub fn at(&self, kind: u8) -> Option<Cycle> {
        self.hops
            .iter()
            .find(|(h, _)| (h >> 8) as u8 == kind)
            .map(|&(_, c)| c)
    }

    /// Cycle of the journey's first hop.
    pub fn start(&self) -> Cycle {
        self.hops.first().map_or(Cycle::ZERO, |&(_, c)| c)
    }

    /// Cycle of the journey's last hop.
    pub fn end(&self) -> Cycle {
        self.hops.last().map_or(Cycle::ZERO, |&(_, c)| c)
    }
}

/// Assemble journeys from a raw event soup. Events are grouped by
/// `(id, ce)` — barrier episodes share an id across CEs, so each CE's
/// participation becomes its own journey — and sorted deterministically.
/// Retried accesses (fault layer resends under the same id) keep the
/// earliest stamp per hop code.
pub fn assemble(events: &[TraceEvent]) -> Vec<Journey> {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.id, e.ce, e.at, e.hop));
    let mut out: Vec<Journey> = Vec::new();
    for e in sorted {
        let fresh = match out.last() {
            Some(j) => j.id != e.id || j.ce != e.ce,
            None => true,
        };
        if fresh {
            out.push(Journey {
                id: e.id,
                class: journey_class(e.id),
                ce: e.ce,
                hops: Vec::new(),
            });
        }
        let j = out.last_mut().expect("journey pushed above");
        if j.class == u8::MAX && e.kind() == hop::ISSUE {
            j.class = e.arg();
        }
        // Keep the earliest stamp per hop code (a NACKed access is
        // resent under the same id; the first traversal is the one the
        // decomposition wants, later ones remain visible as duplicates
        // of network hops at later cycles).
        if !j.hops.iter().any(|&(h, _)| h == e.hop) {
            j.hops.push((e.hop, e.at));
        }
    }
    for j in &mut out {
        if j.class == u8::MAX {
            // A journey with no issue stamp (e.g. pure network hops of a
            // dropped packet): classify from the hop mix.
            j.class = class::SCALAR;
        }
        j.hops.sort_by_key(|&(h, c)| (c, h));
    }
    out
}

/// Class implied by the id space alone, or `u8::MAX` when the issue
/// stamp must decide.
fn journey_class(id: u64) -> u8 {
    if id & ID_BARRIER != 0 {
        class::BARRIER
    } else if id & ID_PREFETCH != 0 {
        class::PREFETCH
    } else {
        u8::MAX
    }
}

/// Latency segments of the pipeline decomposition.
pub const SEGMENTS: &[(&str, u8, u8)] = &[
    // (name, from-hop, to-hop)
    ("inject_wait", hop::ISSUE, hop::FWD_INJECT),
    ("fwd_net", hop::FWD_INJECT, hop::FWD_DELIVER),
    ("module_queue", hop::FWD_DELIVER, hop::SVC_START),
    ("service", hop::SVC_START, hop::SVC_END),
    ("rev_wait", hop::SVC_END, hop::REV_INJECT),
    ("rev_net", hop::REV_INJECT, hop::REV_DELIVER),
    ("retire", hop::REV_DELIVER, hop::RETIRE),
    ("cache", hop::ISSUE, hop::CACHE_DONE),
];

/// One row of the latency-breakdown report.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Op class (see [`class`]).
    pub class: u8,
    /// Segment name (from [`SEGMENTS`], or `"total"`).
    pub segment: &'static str,
    /// Journeys contributing to this row.
    pub count: u64,
    /// Mean segment latency in cycles.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// Maximum observed.
    pub max: u64,
}

/// The per-hop, per-class latency decomposition — the paper's Table-style
/// breakdown reproduced from sampled journeys.
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Rows, ordered by (class, segment position).
    pub rows: Vec<BreakdownRow>,
}

impl LatencyBreakdown {
    /// Compute the decomposition over assembled journeys.
    pub fn from_journeys(journeys: &[Journey]) -> LatencyBreakdown {
        let mut rows = Vec::new();
        for cls in 0..=class::BARRIER {
            let of_class: Vec<&Journey> = journeys.iter().filter(|j| j.class == cls).collect();
            if of_class.is_empty() {
                continue;
            }
            for &(name, from, to) in SEGMENTS {
                let samples: Vec<u64> = of_class
                    .iter()
                    .filter_map(|j| {
                        let (a, b) = (j.at(from)?, j.at(to)?);
                        Some(b.saturating_since(a))
                    })
                    .collect();
                if let Some(row) = Self::row(cls, name, samples) {
                    rows.push(row);
                }
            }
            let totals: Vec<u64> = of_class
                .iter()
                .filter(|j| j.hops.len() > 1)
                .map(|j| j.end().saturating_since(j.start()))
                .collect();
            if let Some(row) = Self::row(cls, "total", totals) {
                rows.push(row);
            }
        }
        LatencyBreakdown { rows }
    }

    fn row(cls: u8, segment: &'static str, mut samples: Vec<u64>) -> Option<BreakdownRow> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u64 = samples.iter().sum();
        let pct = |p: f64| {
            let rank = ((p * count as f64).ceil() as usize).max(1);
            samples[rank - 1]
        };
        Some(BreakdownRow {
            class: cls,
            segment,
            count,
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            max: *samples.last().expect("non-empty"),
        })
    }

    /// Mean latency of one (class, segment) cell, if present.
    pub fn mean(&self, cls: u8, segment: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.class == cls && r.segment == segment)
            .map(|r| r.mean)
    }

    /// Render as an aligned text table.
    pub fn text_table(&self) -> String {
        let mut out =
            String::from("class     segment       count    mean     p50     p95     max\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<9} {:<13} {:>5} {:>7.1} {:>7} {:>7} {:>7}\n",
                class::name(r.class),
                r.segment,
                r.count,
                r.mean,
                r.p50,
                r.p95,
                r.max,
            ));
        }
        out
    }
}

/// One sampled barrier episode with critical-path attribution: which CE
/// arrived last (making the barrier late), and when the release was
/// observed.
#[derive(Debug, Clone)]
pub struct BarrierEpisode {
    /// Episode id (bit 63 set; shared by all participants).
    pub id: u64,
    /// Barrier registry index.
    pub barrier: u32,
    /// Use count (epoch) of the barrier.
    pub epoch: u32,
    /// `(ce, arrival cycle)` per participant, ascending by CE.
    pub arrivals: Vec<(u16, Cycle)>,
    /// `(ce, release-observed cycle)` per participant, ascending by CE.
    pub releases: Vec<(u16, Cycle)>,
    /// The critical-path CE: last to arrive.
    pub last_ce: u16,
    /// Its arrival cycle.
    pub last_at: Cycle,
}

impl BarrierEpisode {
    /// Cycles the earliest arriver waited for the critical-path CE.
    pub fn skew(&self) -> u64 {
        match self.arrivals.iter().map(|&(_, c)| c).min() {
            Some(first) => self.last_at.saturating_since(first),
            None => 0,
        }
    }
}

/// Assemble barrier episodes (journeys sharing a bit-63 id) with
/// critical-path attribution.
pub fn episodes(journeys: &[Journey]) -> Vec<BarrierEpisode> {
    let mut out: Vec<BarrierEpisode> = Vec::new();
    for j in journeys.iter().filter(|j| j.id & ID_BARRIER != 0) {
        let (arrive, release) = (j.at(hop::BAR_ARRIVE), j.at(hop::BAR_RELEASE));
        let ep = match out.iter_mut().find(|e| e.id == j.id) {
            Some(ep) => ep,
            None => {
                out.push(BarrierEpisode {
                    id: j.id,
                    barrier: ((j.id >> 32) & 0x3FFF_FFFF) as u32,
                    epoch: (j.id & 0xFFFF_FFFF) as u32,
                    arrivals: Vec::new(),
                    releases: Vec::new(),
                    last_ce: j.ce,
                    last_at: Cycle::ZERO,
                });
                out.last_mut().expect("pushed above")
            }
        };
        if let Some(a) = arrive {
            ep.arrivals.push((j.ce, a));
            if a > ep.last_at || ep.arrivals.len() == 1 {
                ep.last_at = a;
                ep.last_ce = j.ce;
            }
        }
        if let Some(r) = release {
            ep.releases.push((j.ce, r));
        }
    }
    for ep in &mut out {
        ep.arrivals.sort_unstable_by_key(|&(ce, _)| ce);
        ep.releases.sort_unstable_by_key(|&(ce, _)| ce);
    }
    out.sort_by_key(|e| e.id);
    out
}

/// Host-side self-profiling of simulator phases: wall-clock per subsystem
/// per tick region, accumulated cheaply (two `Instant::now()` calls per
/// region) and emitted as a JSONL metrics stream. Guides the
/// fast-path/JIT work by showing where host time actually goes.
#[derive(Debug)]
pub struct HostProfiler {
    regions: Vec<(&'static str, u64, u64)>, // (phase, calls, total_ns)
}

impl Default for HostProfiler {
    fn default() -> HostProfiler {
        HostProfiler::new()
    }
}

/// Tick-region ids for [`HostProfiler::add`].
pub mod region {
    /// Fault-schedule application.
    pub const FAULTS: usize = 0;
    /// Global-memory module ticks.
    pub const GMEM: usize = 1;
    /// Reverse-network tick (including CE-side delivery).
    pub const REVERSE: usize = 2;
    /// Forward-network tick (including module-side delivery).
    pub const FORWARD: usize = 3;
    /// Cluster phase: CC buses + CE engines.
    pub const CLUSTER: usize = 4;
    /// Timeline sampling.
    pub const TIMELINE: usize = 5;
    /// Event-horizon fast-forward.
    pub const FASTFWD: usize = 6;
    /// Number of regions.
    pub const COUNT: usize = 7;

    pub(crate) const NAMES: [&str; COUNT] = [
        "faults", "gmem", "reverse", "forward", "cluster", "timeline", "fastfwd",
    ];
}

impl HostProfiler {
    /// A profiler with all regions zeroed.
    pub fn new() -> HostProfiler {
        HostProfiler {
            regions: region::NAMES.iter().map(|&n| (n, 0, 0)).collect(),
        }
    }

    /// Charge `elapsed` host time to `region`.
    #[inline]
    pub fn add(&mut self, region: usize, elapsed: std::time::Duration) {
        let r = &mut self.regions[region];
        r.1 += 1;
        r.2 += elapsed.as_nanos() as u64;
    }

    /// `(phase, calls, total_ns)` rows in region order.
    pub fn rows(&self) -> &[(&'static str, u64, u64)] {
        &self.regions
    }

    /// Render the metrics stream: one JSON object per line per phase, in
    /// region order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for &(phase, calls, total_ns) in &self.regions {
            let mean = if calls == 0 {
                0.0
            } else {
                total_ns as f64 / calls as f64
            };
            out.push_str(&format!(
                "{{\"phase\":\"{phase}\",\"calls\":{calls},\"total_ns\":{total_ns},\"mean_ns\":{mean:.1}}}\n",
            ));
        }
        out
    }
}

/// Run `f`, charging its wall time to `region` when a profiler is
/// installed. The disabled path costs one `Option` branch.
#[inline]
pub(crate) fn profiled<R>(
    prof: &mut Option<Box<HostProfiler>>,
    region: usize,
    f: impl FnOnce() -> R,
) -> R {
    match prof {
        Some(p) => {
            let t0 = std::time::Instant::now();
            let r = f();
            p.add(region, t0.elapsed());
            r
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, kind: u8, arg: u8, ce: u16, at: u64) -> TraceEvent {
        TraceEvent {
            id,
            hop: TraceEvent::hop_code(kind, arg),
            ce,
            at: Cycle(at),
        }
    }

    #[test]
    fn sampling_is_seeded_and_rate_bounded() {
        let mut ctl = CeTraceCtl::new(7, 250_000, 3);
        let ids: Vec<u64> = (0..4000).map(|_| ctl.sample_mem()).collect();
        let sampled = ids.iter().filter(|&&i| i != 0).count();
        // ~25% of 4000 candidates; allow generous slack.
        assert!((700..1300).contains(&sampled), "sampled {sampled}");
        // Bit-identical replay from the same seed.
        let mut ctl2 = CeTraceCtl::new(7, 250_000, 3);
        let ids2: Vec<u64> = (0..4000).map(|_| ctl2.sample_mem()).collect();
        assert_eq!(ids, ids2);
        // A different seed draws a different set.
        let mut ctl3 = CeTraceCtl::new(8, 250_000, 3);
        let ids3: Vec<u64> = (0..4000).map(|_| ctl3.sample_mem()).collect();
        assert_ne!(ids, ids3);
        // Zero rate never samples; full rate always does.
        let mut off = CeTraceCtl::new(7, 0, 3);
        assert!((0..1000).all(|_| off.sample_mem() == 0));
        let mut all = CeTraceCtl::new(7, 1_000_000, 3);
        assert!((0..1000).all(|_| all.sample_mem() != 0));
    }

    #[test]
    fn id_spaces_are_disjoint() {
        let mut ctl = CeTraceCtl::new(7, 1_000_000, 3);
        let mem = ctl.sample_mem();
        let bar = ctl.sample_barrier(2, 5).expect("full rate samples");
        let pf = sample_prefetch(7, 1_000_000, 3, 9).expect("full rate samples");
        assert_eq!(mem & (ID_BARRIER | ID_PREFETCH), 0);
        assert_ne!(bar & ID_BARRIER, 0);
        assert_ne!(pf & ID_PREFETCH, 0);
        assert_eq!(pf & ID_BARRIER, 0);
    }

    #[test]
    fn buffers_cap_and_count_drops() {
        let mut b = TraceBuf::with_capacity(2);
        for i in 0..5 {
            b.stamp(1, hop::ISSUE, 0, 0, Cycle(i));
        }
        assert_eq!(b.events.len(), 2);
        assert_eq!(b.dropped, 3);
    }

    #[test]
    fn assemble_groups_sorts_and_dedups() {
        let id = (1u64 + 1) << 32 | 7;
        let events = vec![
            ev(id, hop::RETIRE, 0, 1, 30),
            ev(id, hop::ISSUE, class::SCALAR, 1, 10),
            ev(id, hop::FWD_INJECT, 0, 1, 11),
            // A resend's duplicate inject at a later cycle is dropped.
            ev(id, hop::FWD_INJECT, 0, 1, 20),
            ev(9 << 32 | 1, hop::ISSUE, class::WRITE, 8, 5),
        ];
        let js = assemble(&events);
        assert_eq!(js.len(), 2);
        let j = js.iter().find(|j| j.id == id).expect("journey present");
        assert_eq!(j.class, class::SCALAR);
        assert_eq!(j.hops.len(), 3);
        assert_eq!(j.at(hop::FWD_INJECT), Some(Cycle(11)));
        assert_eq!(j.start(), Cycle(10));
        assert_eq!(j.end(), Cycle(30));
    }

    #[test]
    fn breakdown_decomposes_segments() {
        let id = 1u64 << 32 | 1;
        let events = vec![
            ev(id, hop::ISSUE, class::SCALAR, 0, 100),
            ev(id, hop::FWD_INJECT, 0, 0, 101),
            ev(id, hop::FWD_DELIVER, 0, 0, 104),
            ev(id, hop::SVC_START, 0, 0, 105),
            ev(id, hop::SVC_END, 0, 0, 107),
            ev(id, hop::REV_INJECT, 0, 0, 107),
            ev(id, hop::REV_DELIVER, 0, 0, 110),
            ev(id, hop::RETIRE, 0, 0, 111),
        ];
        let bd = LatencyBreakdown::from_journeys(&assemble(&events));
        assert_eq!(bd.mean(class::SCALAR, "service"), Some(2.0));
        assert_eq!(bd.mean(class::SCALAR, "fwd_net"), Some(3.0));
        assert_eq!(bd.mean(class::SCALAR, "total"), Some(11.0));
        let table = bd.text_table();
        assert!(table.contains("scalar"));
        assert!(table.contains("service"));
    }

    #[test]
    fn episodes_attribute_the_critical_path() {
        let id = ID_BARRIER | 3u64 << 32 | 2;
        let events = vec![
            ev(id, hop::BAR_ARRIVE, 0, 0, 50),
            ev(id, hop::BAR_ARRIVE, 0, 5, 90),
            ev(id, hop::BAR_ARRIVE, 0, 2, 60),
            ev(id, hop::BAR_RELEASE, 0, 0, 95),
            ev(id, hop::BAR_RELEASE, 0, 2, 96),
            ev(id, hop::BAR_RELEASE, 0, 5, 95),
        ];
        let eps = episodes(&assemble(&events));
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert_eq!(ep.barrier, 3);
        assert_eq!(ep.epoch, 2);
        assert_eq!(ep.last_ce, 5, "CE 5 made the barrier late");
        assert_eq!(ep.last_at, Cycle(90));
        assert_eq!(ep.skew(), 40);
        assert_eq!(ep.arrivals.len(), 3);
        assert_eq!(ep.releases.len(), 3);
    }

    #[test]
    fn trace_plan_validates_rate() {
        assert!(TracePlan {
            seed: 1,
            sample_ppm: 1_000_000
        }
        .validate()
        .is_ok());
        assert!(TracePlan {
            seed: 1,
            sample_ppm: 1_000_001
        }
        .validate()
        .is_err());
        assert!(!TracePlan::none(5).enabled());
        assert!(TracePlan {
            seed: 5,
            sample_ppm: 1
        }
        .enabled());
    }

    #[test]
    fn host_profiler_emits_jsonl_rows() {
        let mut p = HostProfiler::new();
        p.add(region::GMEM, std::time::Duration::from_nanos(500));
        p.add(region::GMEM, std::time::Duration::from_nanos(700));
        let out = p.jsonl();
        assert_eq!(out.lines().count(), region::COUNT);
        let gmem = out
            .lines()
            .find(|l| l.contains("\"gmem\""))
            .expect("gmem row");
        assert!(gmem.contains("\"calls\":2"));
        assert!(gmem.contains("\"total_ns\":1200"));
        assert!(gmem.contains("\"mean_ns\":600.0"));
    }
}
