//! The multistage shuffle-exchange (omega) network.
//!
//! Cedar's two unidirectional global networks are built from 8×8 crossbar
//! switches with 64-bit-wide data paths, two-word queues on each switch
//! port, flow control between stages to prevent queue overflow, and
//! self-routing based on destination tags (Lawrie's scheme, \[Lawr75\]).
//!
//! The simulator models the network at word granularity with wormhole
//! (cut-through) flow: the head word of a packet claims an input→output
//! pairing at each switch and the remaining words follow contiguously, so
//! a blocked packet holds resources behind it — the mechanism behind the
//! tree-saturation the paper observes at 3–4 clusters (Table 2). Routing
//! tags consume one base-`radix` digit of the destination per stage.
//!
//! Geometry: a radix-`r`, `s`-stage omega connects `r^s` lines; Cedar's
//! 32 active ports live in the 64-line 2-stage radix-8 instance. Line
//! numbering follows the standard construction: a perfect shuffle
//! (rotate-left of base-`r` digits) precedes every stage, and switch `j`
//! of a stage owns lines `j*r .. j*r+r`.
//!
//! Host cost: every word move is on the simulator's hottest path, so the
//! per-word state is kept minimal. A flit carries its packet's
//! destination (a head hop routes without touching the packet slab), and
//! switch occupancy is read from the cached front-route bytes instead of
//! being counted per move. Every tick sweeps the network in full; a
//! producer asks [`Omega::inject_ready`] before building a packet the
//! injector would refuse.

use crate::config::NetworkConfig;
use crate::monitor::Histogrammer;
use crate::network::packet::{Packet, Payload};
use crate::time::Cycle;
use crate::trace::{NetTrace, TraceEvent};

/// Index of a packet in the in-flight slab.
type PacketId = u32;

/// Sentinel for "no entry" in the slab free list.
const NO_PACKET: PacketId = PacketId::MAX;

/// Sentinel in [`Omega::front_out`] for a line with an empty queue.
const NO_FRONT: u8 = u8::MAX;

/// Sentinel in [`Omega::locks`] for an unlocked output.
const NO_LOCK: u8 = u8::MAX;

/// [`Flit::bits`]: the packet's header word.
const HEAD: u8 = 1;

/// [`Flit::bits`]: the packet's last word.
const TAIL: u8 = 2;

/// One 64-bit word in flight (8 bytes, so a stage queue ring stays a few
/// cache lines).
#[derive(Debug, Clone, Copy, Default)]
struct Flit {
    pkt: PacketId,
    /// The packet's destination, carried on every word so a head hop
    /// routes without a slab lookup.
    dst: u16,
    /// For head words: the output subport at the stage this word currently
    /// queues at (precomputed so arbitration needs no packet lookup).
    route: u8,
    /// [`HEAD`] / [`TAIL`] bits.
    bits: u8,
}

impl Flit {
    #[inline]
    fn is_head(self) -> bool {
        self.bits & HEAD != 0
    }

    #[inline]
    fn is_tail(self) -> bool {
        self.bits & TAIL != 0
    }
}

/// Trace id and issuing CE carried in a packet's payload.
#[inline]
fn pkt_trace(p: &Packet) -> (u64, u16) {
    match &p.payload {
        Payload::Request(r) => (r.trace, r.ce.0 as u16),
        Payload::Reply(r) => (r.trace, r.ce.0 as u16),
    }
}

/// Where delivered packets go. Implemented by the global-memory side (for
/// the forward network) and the CE side (for the reverse network).
pub trait NetSink {
    /// Called when the *head* word of a packet wants to leave the network at
    /// `port`. Return `false` to refuse (backpressure): the packet stays in
    /// the final-stage queue and blocks traffic behind it, exactly like a
    /// full input queue on the real machine. Once a head is accepted the
    /// remaining words of the packet are always accepted.
    fn try_begin(&mut self, port: usize) -> bool;

    /// Called when the tail word of a packet leaves the network: the packet
    /// is fully delivered at `port`.
    fn deliver(&mut self, port: usize, packet: Packet);
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets accepted by [`Omega::try_inject`].
    pub packets_injected: u64,
    /// Packets fully delivered to the sink.
    pub packets_delivered: u64,
    /// Words moved across any hop.
    pub words_moved: u64,
    /// Moves that failed because the downstream queue (or sink) had no
    /// space — the flow-control stalls that build tree saturation.
    pub blocked_moves: u64,
    /// Head words that lost output-port arbitration to another packet.
    pub arbitration_losses: u64,
    /// Injections refused because the port's link was scheduled down.
    pub link_blocked: u64,
    /// Packets marked for transient drop at injection; they traverse the
    /// network normally (consuming bandwidth) and evaporate at the final
    /// stage without being delivered.
    pub drops: u64,
    /// Requests marked corrupted at injection; the destination module
    /// NACKs them instead of performing the operation.
    pub nacks: u64,
}

/// Maximum words a stage queue can hold (input + output queue pair). Also
/// fixes the queue-depth histogram's bin count, so it must not change with
/// the configured capacity (exported stat registries pin their shape).
const RING_CAP: usize = 16;

/// A packet slab slot: either a live in-flight packet or a link in the
/// intrusive free list (LIFO, so ids are reused densely — the same order a
/// separate free stack would give, without the side allocation).
#[derive(Debug, Clone, Copy)]
enum Slot {
    Live(Packet),
    Free { next: PacketId },
}

/// Upper bound on the switch radix (arbitration masks are `u16`).
const MAX_RADIX: usize = 16;

/// Upper bound on per-port injector occupancy (the configured cap is 2;
/// the array is sized with slack so the ring stays branch-trivial).
const INJ_CAP: usize = 4;

/// A packet waiting in an injector: its slab id, total words and
/// destination (cached so streaming its words needs no slab lookup).
#[derive(Debug, Clone, Copy)]
struct InjSlot {
    pkt: PacketId,
    dst: u16,
    words: u8,
}

/// Per-port packet injector: producers hand over whole packets; the
/// injector streams them into the first stage one word per cycle. A fixed
/// inline ring — per-port heap queues would scatter the hot injection scan
/// across the heap.
#[derive(Debug, Clone, Copy)]
struct Injector {
    slots: [InjSlot; INJ_CAP],
    head: u8,
    len: u8,
    words_sent: u8,
}

impl Default for Injector {
    fn default() -> Injector {
        Injector {
            slots: [InjSlot {
                pkt: NO_PACKET,
                dst: 0,
                words: 0,
            }; INJ_CAP],
            head: 0,
            len: 0,
            words_sent: 0,
        }
    }
}

impl Injector {
    #[inline]
    fn len(&self) -> usize {
        usize::from(self.len)
    }

    #[inline]
    fn front(&self) -> Option<InjSlot> {
        if self.len == 0 {
            None
        } else {
            Some(self.slots[usize::from(self.head)])
        }
    }

    #[inline]
    fn push_back(&mut self, entry: InjSlot) {
        debug_assert!(self.len() < INJ_CAP, "injector overflow");
        let tail = (usize::from(self.head) + self.len()) % INJ_CAP;
        self.slots[tail] = entry;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = ((usize::from(self.head) + 1) % INJ_CAP) as u8;
        self.len -= 1;
    }
}

/// Fault-injection state for one network instance. Present only when a
/// fault plan with network effects is installed; the fault-free hot path
/// pays a single `Option` check.
#[derive(Debug)]
struct NetFaults {
    seed: u64,
    /// Distinguishes the forward and reverse instances so they draw
    /// independent pseudo-random streams from one machine seed.
    salt: u64,
    drop_ppm: u64,
    nack_ppm: u64,
    /// Monotone per-port count of *accepted* injections — the RNG
    /// sequence number. Injections at a port are accepted in the same
    /// order on every engine path, so the stream is path-invariant.
    inj_seq: Vec<u64>,
    /// Ports currently refusing all injections (scheduled link outages).
    down: Vec<bool>,
    /// Per slab slot: this packet evaporates at the final stage.
    doom: Vec<bool>,
}

/// A unidirectional omega network instance.
#[derive(Debug)]
pub struct Omega {
    radix: usize,
    stages: usize,
    size: usize,
    queue_cap: usize,
    words_per_cycle: u32,
    injector_cap: usize,
    /// Stage-queue flit storage, flattened: the ring of `stage * size +
    /// line` occupies `queue_cap` contiguous slots starting at
    /// `(stage * size + line) * queue_cap`. Sizing rings by the configured
    /// capacity (4 words on Cedar) instead of the [`RING_CAP`] ceiling
    /// keeps the whole queue state inside a few KB of cache; the simulator
    /// ticks these queues hundreds of millions of times.
    qbuf: Vec<Flit>,
    /// Ring head slot per `stage * size + line`.
    qhead: Vec<u8>,
    /// Ring occupancy per `stage * size + line`.
    qlen: Vec<u8>,
    /// `locks[stage * size + out_line]`: input subport (within the same
    /// switch) currently owning this output, [`NO_LOCK`] when free (flat,
    /// like `locked_to` — the per-stage nesting would cost a pointer chase
    /// on every arbitration; sentinel-coded so arbitration compares plain
    /// bytes).
    locks: Vec<u8>,
    /// Reverse map: `locked_to[stage * size + in_line]` = output subport the
    /// input's in-flight packet owns (body words route through it),
    /// [`NO_FRONT`] when the input holds no lock.
    locked_to: Vec<u8>,
    /// Round-robin arbitration pointer per `stage * size + out_line`.
    rr: Vec<u8>,
    injectors: Vec<Injector>,
    pending_injections: usize,
    /// Ports whose injectors hold packets: a bitmask in 64-port words,
    /// scanned in ascending port order.
    inject_ports: Vec<u64>,
    /// Per output port: the sink accepted the head of the packet now
    /// ejecting there, so its remaining words need no further check.
    accepted: Vec<bool>,
    /// In-flight packet slab with an intrusive LIFO free list.
    slab: Vec<Slot>,
    free_head: PacketId,
    in_flight: usize,
    stats: NetStats,
    /// Output subport the front word of `stage * size + line` wants
    /// ([`NO_FRONT`] when the queue is empty). A flat byte per line, so a
    /// switch arbitrates from one contiguous read instead of touching
    /// `radix` separate queue rings — and a radix-8 switch holds words
    /// exactly when one of its eight bytes is live, a single `u64` test.
    front_out: Vec<u8>,
    /// `shuffle_tab[line]`: the perfect shuffle of `line`, precomputed so
    /// the per-word hop does no division by the (non-constant) radix.
    shuffle_tab: Vec<u32>,
    /// `route_tab[stage * size + dst]`: routing digit consumed at `stage`
    /// for destination `dst`.
    route_tab: Vec<u8>,
    /// Arbitration losses per switch stage.
    stage_conflicts: Vec<u64>,
    /// Flow-control blocks per switch stage (injection blocks count
    /// against stage 0, whose queues they contend for).
    stage_blocked: Vec<u64>,
    /// Distribution of stage-queue depths observed after each word push.
    queue_depth: Histogrammer,
    /// Flow-level fast path on (the default): radix-8 switches arbitrate
    /// through the SWAR sweep that skips empty switches with one `u64`
    /// test. Off (`CEDAR_NO_FLOWPATH`): the dense per-flit oracle sweep
    /// runs instead. Both produce bit-for-bit identical state, stats and
    /// delivery schedules.
    flow_path: bool,
    /// Fault-injection state, `None` on a fault-free network.
    faults: Option<Box<NetFaults>>,
    /// Causal-tracing state, `None` on an untraced network. The machine
    /// sets the cycle stamp before any network activity each ticked cycle
    /// (the network itself has no notion of absolute time).
    trace: Option<Box<NetTrace>>,
}

impl Omega {
    /// Build a network with at least `ports` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0` or the configuration is invalid
    /// ([`NetworkConfig`] fields of zero).
    pub fn new(ports: usize, cfg: &NetworkConfig) -> Omega {
        assert!(ports > 0, "network must have at least one port");
        assert!(
            (2..=MAX_RADIX).contains(&cfg.radix),
            "network radix must be 2..={MAX_RADIX}"
        );
        assert!(cfg.queue_words > 0, "switch queues must hold a word");
        let mut size = cfg.radix;
        let mut stages = 1;
        while size < ports {
            size *= cfg.radix;
            stages += 1;
        }
        assert!(
            size <= 1 << 16,
            "networks of {size} lines unsupported (flits carry a 16-bit destination)"
        );
        // Input + output queue per port pair; we model the pair as a single
        // per-stage queue of twice the per-queue capacity.
        let queue_cap = cfg.queue_words * 2;
        assert!(
            queue_cap <= RING_CAP,
            "switch queues of {queue_cap} words exceed the supported {RING_CAP}"
        );
        let injector_cap = 2;
        assert!(injector_cap <= INJ_CAP, "injector ring too small");
        let shuffle_tab = (0..size)
            .map(|line| ((line * cfg.radix) % size + (line * cfg.radix) / size) as u32)
            .collect();
        let mut route_tab = vec![0u8; stages * size];
        for stage in 0..stages {
            for dst in 0..size {
                let mut d = dst;
                for _ in 0..(stages - 1 - stage) {
                    d /= cfg.radix;
                }
                route_tab[stage * size + dst] = (d % cfg.radix) as u8;
            }
        }
        Omega {
            radix: cfg.radix,
            stages,
            size,
            queue_cap,
            words_per_cycle: cfg.words_per_cycle,
            injector_cap,
            qbuf: vec![Flit::default(); stages * size * queue_cap],
            qhead: vec![0; stages * size],
            qlen: vec![0; stages * size],
            locks: vec![NO_LOCK; stages * size],
            locked_to: vec![NO_FRONT; stages * size],
            rr: vec![0; stages * size],
            injectors: vec![Injector::default(); size],
            pending_injections: 0,
            inject_ports: vec![0; size.div_ceil(64)],
            accepted: vec![false; size],
            slab: Vec::new(),
            free_head: NO_PACKET,
            in_flight: 0,
            stats: NetStats::default(),
            front_out: vec![NO_FRONT; stages * size],
            shuffle_tab,
            route_tab,
            stage_conflicts: vec![0; stages],
            stage_blocked: vec![0; stages],
            queue_depth: Histogrammer::with_bins(RING_CAP + 1),
            flow_path: true,
            faults: None,
            trace: None,
        }
    }

    /// Enable or disable the flow-level fast path (on by default). Off,
    /// every tick runs the dense per-flit oracle sweep. The two paths are
    /// bit-for-bit equivalent; the hatch exists so the equivalence is a
    /// machine-checked invariant, not a hope.
    pub fn set_flow_path(&mut self, on: bool) {
        self.flow_path = on;
    }

    /// Whether the flow-level fast path is enabled.
    pub fn flow_path(&self) -> bool {
        self.flow_path
    }

    /// Install fault injection on this network. `salt` distinguishes the
    /// forward and reverse instances so each draws an independent stream
    /// from one machine seed. Transient fault decisions are made once per
    /// accepted injection: `mix(seed, salt ^ port, nth-injection)` drops
    /// the packet with probability `drop_ppm` per million, else corrupts
    /// a request (the module will NACK) with `nack_ppm` per million.
    pub fn enable_faults(&mut self, seed: u64, salt: u64, drop_ppm: u64, nack_ppm: u64) {
        self.faults = Some(Box::new(NetFaults {
            seed,
            salt,
            drop_ppm,
            nack_ppm,
            inj_seq: vec![0; self.size],
            down: vec![false; self.size],
            doom: Vec::new(),
        }));
    }

    /// Install causal tracing on this network. `fwd` selects the forward
    /// or reverse hop kinds for the stamps. Like fault injection, the
    /// untraced hot path pays a single `Option` check per site.
    pub(crate) fn enable_trace(&mut self, fwd: bool) {
        self.trace = Some(Box::new(NetTrace::new(fwd)));
    }

    /// Set the cycle used for this network's trace stamps. Called by the
    /// machine after advancing `now`, before any injection or tick can
    /// touch the network this cycle. No-op when tracing is off.
    #[inline]
    pub(crate) fn set_trace_now(&mut self, now: Cycle) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.now = now;
        }
    }

    /// Drain the network's stamped trace events (and overflow count),
    /// leaving the buffer empty. Returns nothing when tracing is off.
    pub(crate) fn drain_trace(&mut self) -> Option<(Vec<TraceEvent>, u64)> {
        let t = self.trace.as_deref_mut()?;
        let events = std::mem::take(&mut t.buf.events);
        let dropped = std::mem::replace(&mut t.buf.dropped, 0);
        Some((events, dropped))
    }

    /// Trace id and issuing CE of a live in-flight packet.
    #[inline]
    fn slab_trace(&self, id: PacketId) -> (u64, u16) {
        match &self.slab[id as usize] {
            Slot::Live(pkt) => pkt_trace(pkt),
            Slot::Free { .. } => unreachable!("queued flit has live packet"),
        }
    }

    /// Mark `port` down (all injections refused and charged to
    /// `link_blocked`) or back up. No-op unless [`Omega::enable_faults`]
    /// was called. Packets already in flight keep draining — an outage
    /// severs the injection link, it does not strand wormhole locks.
    pub fn set_port_down(&mut self, port: usize, down: bool) {
        assert!(port < self.size, "port {port} out of range");
        if let Some(f) = self.faults.as_deref_mut() {
            f.down[port] = down;
        }
    }

    /// Packets currently in flight (accepted but not yet delivered or
    /// evaporated). With the `drops` and `packets_delivered` counters this
    /// closes the conservation law `injected = delivered + drops +
    /// in_flight`.
    pub fn in_flight_packets(&self) -> usize {
        self.in_flight
    }

    /// Whether the packet in slab slot `id` was marked for transient drop
    /// at injection.
    #[inline]
    fn doomed(&self, id: PacketId) -> bool {
        match &self.faults {
            Some(f) => f.doom.get(id as usize).copied().unwrap_or(false),
            None => false,
        }
    }

    /// Number of addressable lines (`radix^stages`, ≥ the requested ports).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of switch stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Offer a packet for injection at `port`. Returns `false` when
    /// [`Omega::inject_ready`] refuses the port; the caller must retry
    /// later (this is the backpressure that stalls a CE or memory module).
    pub fn try_inject(&mut self, port: usize, packet: Packet) -> bool {
        assert!(port < self.size, "port {port} out of range");
        assert!(
            packet.dst < self.size,
            "destination {} out of range",
            packet.dst
        );
        assert!(packet.words >= 1, "packets carry at least the header word");
        if !self.inject_ready(port) {
            return false;
        }
        let mut packet = packet;
        let mut doom = false;
        if let Some(f) = self.faults.as_deref_mut() {
            if f.drop_ppm + f.nack_ppm > 0 {
                let n = f.inj_seq[port];
                f.inj_seq[port] += 1;
                let r = crate::fault::mix(f.seed, f.salt ^ port as u64, n) % 1_000_000;
                if r < f.drop_ppm {
                    doom = true;
                    self.stats.drops += 1;
                } else if r < f.drop_ppm + f.nack_ppm {
                    if let crate::network::packet::Payload::Request(req) = &mut packet.payload {
                        req.nacked = true;
                        self.stats.nacks += 1;
                    }
                }
            }
        }
        if let Some(t) = self.trace.as_deref_mut() {
            let (tid, ce) = pkt_trace(&packet);
            if tid != 0 {
                t.stamp_inject(tid, ce);
            }
        }
        let (words, dst) = (packet.words, packet.dst as u16);
        let id = self.alloc(packet);
        if let Some(f) = self.faults.as_deref_mut() {
            // Slab slots are reused, so the doom bit is (re)written on
            // every allocation, not just when set.
            if f.doom.len() <= id as usize {
                f.doom.resize(id as usize + 1, false);
            }
            f.doom[id as usize] = doom;
        }
        self.injectors[port].push_back(InjSlot {
            pkt: id,
            dst,
            words,
        });
        self.inject_ports[port / 64] |= 1 << (port % 64);
        self.pending_injections += 1;
        self.stats.packets_injected += 1;
        true
    }

    /// True when no packet is anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// The earliest future cycle at which the network can change
    /// externally visible state: any in-flight packet means the very next
    /// cycle; an empty network means never (`None`).
    pub(crate) fn next_event(&self, now: crate::time::Cycle) -> Option<crate::time::Cycle> {
        if self.in_flight == 0 {
            None
        } else {
            Some(now + 1)
        }
    }

    /// Whether [`Omega::try_inject`] at `port` would accept a packet now,
    /// asked before the packet is built. A downed port refuses and charges
    /// `link_blocked` exactly as a refused `try_inject` does, so a producer
    /// that checks here first and skips `try_inject` on `false` leaves the
    /// stats as the `try_inject` alone would have.
    #[inline]
    pub fn inject_ready(&mut self, port: usize) -> bool {
        if let Some(f) = self.faults.as_deref() {
            if f.down[port] {
                self.stats.link_blocked += 1;
                return false;
            }
        }
        self.injectors[port].len() < self.injector_cap
    }

    /// Statistics since construction.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Arbitration losses per switch stage (index = stage).
    pub fn stage_conflicts(&self) -> &[u64] {
        &self.stage_conflicts
    }

    /// Flow-control blocks per switch stage (index = stage; injection
    /// blocks are charged to stage 0).
    pub fn stage_blocked(&self) -> &[u64] {
        &self.stage_blocked
    }

    /// Distribution of stage-queue depths, sampled after every word push.
    pub fn queue_depth_histogram(&self) -> &Histogrammer {
        &self.queue_depth
    }

    /// Advance the network one cycle, delivering completed packets to
    /// `sink`: up to `words_per_cycle` passes, then injection. Words move
    /// at most one hop per pass; stages are processed downstream-first so
    /// freed space propagates upstream next pass, like the real per-stage
    /// flow control. Generic over the sink so the memory- and CE-side
    /// delivery paths monomorphize and inline.
    pub fn tick<S: NetSink + ?Sized>(&mut self, sink: &mut S) {
        if self.in_flight == 0 {
            return; // nothing anywhere in the network
        }
        for _ in 0..self.words_per_cycle {
            // A pass that neither moved a word nor charged a block or an
            // arbitration loss left the network untouched, so every further
            // pass this cycle would be an identical no-op.
            let before =
                self.stats.words_moved + self.stats.blocked_moves + self.stats.arbitration_losses;
            self.move_words_once(sink);
            let after =
                self.stats.words_moved + self.stats.blocked_moves + self.stats.arbitration_losses;
            if after == before {
                break;
            }
        }
        self.inject_words();
    }

    fn alloc(&mut self, packet: Packet) -> PacketId {
        self.in_flight += 1;
        if self.free_head != NO_PACKET {
            let id = self.free_head;
            match self.slab[id as usize] {
                Slot::Free { next } => self.free_head = next,
                Slot::Live(_) => unreachable!("free list points at a live packet"),
            }
            self.slab[id as usize] = Slot::Live(packet);
            id
        } else {
            self.slab.push(Slot::Live(packet));
            (self.slab.len() - 1) as PacketId
        }
    }

    fn release(&mut self, id: PacketId) -> Packet {
        self.in_flight -= 1;
        let slot = &mut self.slab[id as usize];
        // Copy the packet out and overwrite only the free link: swapping
        // in a whole packet-sized `Slot` would write it twice.
        let Slot::Live(pkt) = *slot else {
            unreachable!("released packet must be live")
        };
        *slot = Slot::Free {
            next: self.free_head,
        };
        self.free_head = id;
        pkt
    }

    /// Perfect shuffle: rotate the base-`radix` digits of `line` left
    /// (precomputed — the closed form divides by the non-constant radix).
    #[inline]
    fn shuffle(&self, line: usize) -> usize {
        self.shuffle_tab[line] as usize
    }

    /// Routing digit consumed at `stage` for destination `dst`
    /// (most-significant digit first; precomputed per `(stage, dst)`).
    #[inline]
    fn route_digit(&self, dst: usize, stage: usize) -> usize {
        usize::from(self.route_tab[stage * self.size + dst])
    }

    /// Front flit of queue `idx` (`stage * size + line`); the queue must
    /// be non-empty.
    #[inline]
    fn q_front(&self, idx: usize) -> Flit {
        debug_assert!(self.qlen[idx] > 0, "front of an empty queue");
        self.qbuf[idx * self.queue_cap + usize::from(self.qhead[idx])]
    }

    /// Drop the front word of queue `idx` without re-reading it (the
    /// caller already holds a copy from [`Omega::q_front`]).
    #[inline]
    fn q_advance(&mut self, idx: usize) {
        debug_assert!(self.qlen[idx] > 0);
        let h = usize::from(self.qhead[idx]) + 1;
        self.qhead[idx] = if h == self.queue_cap { 0 } else { h as u8 };
        self.qlen[idx] -= 1;
    }

    /// Append `f` to queue `idx`, returning the new depth.
    #[inline]
    fn q_push(&mut self, idx: usize, f: Flit) -> usize {
        let len = usize::from(self.qlen[idx]);
        debug_assert!(len < self.queue_cap, "ring overflow");
        let mut slot = usize::from(self.qhead[idx]) + len;
        if slot >= self.queue_cap {
            slot -= self.queue_cap;
        }
        self.qbuf[idx * self.queue_cap + slot] = f;
        self.qlen[idx] = (len + 1) as u8;
        len + 1
    }

    /// Output subport wanted by `f` at the front of queue `idx`: a head
    /// word's own route, else the output its packet's head locked.
    #[inline]
    fn front_route(&self, idx: usize, f: Flit) -> u8 {
        if f.is_head() {
            f.route
        } else {
            // A body word at the front implies its head already moved
            // through this stage and left the output lock behind.
            debug_assert_ne!(self.locked_to[idx], NO_FRONT);
            self.locked_to[idx]
        }
    }

    fn move_words_once<S: NetSink + ?Sized>(&mut self, sink: &mut S) {
        // The flow path's SWAR sweep reads a switch's cached fronts as one
        // word; it needs the full radix-8 byte lane. Other radices run the
        // (identical) dense per-line scan. Switches are visited in
        // ascending order; ticking one only moves words downstream, so it
        // never changes another same-stage switch's occupancy.
        let switches = self.size / self.radix;
        if self.flow_path && self.radix == 8 {
            for stage in (0..self.stages).rev() {
                for sw in 0..switches {
                    let at = stage * self.size + sw * 8;
                    let fronts = u64::from_le_bytes(
                        self.front_out[at..at + 8]
                            .try_into()
                            .expect("eight front bytes per radix-8 switch"),
                    );
                    // Route subports are 0..8 and the empty sentinel is
                    // `0xFF`, so a line is live exactly when its byte's
                    // high bit is clear.
                    let live = !fronts & 0x8080_8080_8080_8080;
                    if live != 0 {
                        self.tick_switch_flow8(stage, sw, fronts, live, sink);
                    }
                }
            }
        } else {
            for stage in (0..self.stages).rev() {
                for sw in 0..switches {
                    self.tick_switch(stage, sw, sink);
                }
            }
        }
    }

    /// Advance one switch: read the cached input fronts (one contiguous
    /// byte per line), collecting the output each movable word wants; then
    /// serve the requested outputs.
    fn tick_switch<S: NetSink + ?Sized>(&mut self, stage: usize, sw: usize, sink: &mut S) {
        let base = sw * self.radix;
        let qbase = stage * self.size + base;
        // For each output subport, the input subports requesting it, plus
        // the set of outputs requested at all.
        let mut requested = [0u16; MAX_RADIX];
        let mut outs: u32 = 0;
        for (i, &out) in self.front_out[qbase..qbase + self.radix].iter().enumerate() {
            if out != NO_FRONT {
                requested[usize::from(out)] |= 1 << i;
                outs |= 1 << u32::from(out);
            }
        }
        self.serve_outputs(stage, base, self.radix, &requested, outs, sink);
    }

    /// The flow path's radix-8 switch sweep over a non-empty switch:
    /// `fronts` holds all eight cached input fronts as one little-endian
    /// word and `live` the high bit of each lane with a queued word, so
    /// only the live lanes are touched — no per-byte comparisons. Visit
    /// order (ascending line, then ascending output subport) and every
    /// arbitration rule match [`Omega::tick_switch`] bit for bit; only
    /// the scan is restructured.
    fn tick_switch_flow8<S: NetSink + ?Sized>(
        &mut self,
        stage: usize,
        sw: usize,
        fronts: u64,
        mut live: u64,
        sink: &mut S,
    ) {
        let base = sw * 8;
        if live & (live - 1) == 0 {
            // One requesting line: it wins any arbitration unopposed (no
            // losses, no round-robin movement), and a held lock either
            // belongs to it or excludes it.
            let i = (live.trailing_zeros() >> 3) as usize;
            let out = usize::from((fronts >> (i * 8)) as u8);
            let owner = self.locks[stage * self.size + base + out];
            if owner == NO_LOCK || usize::from(owner) == i {
                self.move_from(stage, base, out, i, sink);
            }
            return;
        }
        // Several live lines: group them by requested output, then serve
        // each output exactly as the dense sweep does.
        let mut requested = [0u16; MAX_RADIX];
        let mut outs: u32 = 0;
        while live != 0 {
            let i = (live.trailing_zeros() >> 3) as usize;
            live &= live - 1;
            let out = usize::from((fronts >> (i * 8)) as u8);
            requested[out] |= 1 << i;
            outs |= 1 << out;
        }
        self.serve_outputs(stage, base, 8, &requested, outs, sink);
    }

    /// Serve each output subport in `outs` (ascending, the same order as a
    /// dense `0..radix` loop) of the switch whose first line is `base`:
    /// the lock owner moves if it requests the output, else round-robin
    /// picks among the requesting head words (`requested[out]`, a bitmask
    /// of input subports) and every other requester loses.
    #[inline(always)]
    fn serve_outputs<S: NetSink + ?Sized>(
        &mut self,
        stage: usize,
        base: usize,
        radix: usize,
        requested: &[u16; MAX_RADIX],
        mut outs: u32,
        sink: &mut S,
    ) {
        while outs != 0 {
            let out = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let req = u32::from(requested[out]);
            let lock = stage * self.size + base + out;
            let owner = self.locks[lock];
            let src = if owner != NO_LOCK {
                // Only the lock owner may use this output; competing head
                // words wait (no arbitration happened, so no losses are
                // charged).
                if req & (1 << owner) == 0 {
                    continue;
                }
                usize::from(owner)
            } else {
                // Round-robin: first requesting input at or cyclically
                // after `start` wins.
                let start = usize::from(self.rr[lock]);
                let rot = ((req >> start) | (req << (radix - start))) & ((1u32 << radix) - 1);
                let losers = u64::from(req.count_ones()) - 1;
                self.stats.arbitration_losses += losers;
                self.stage_conflicts[stage] += losers;
                let src = start + rot.trailing_zeros() as usize;
                if src >= radix {
                    src - radix
                } else {
                    src
                }
            };
            self.move_from(stage, base, out, src, sink);
        }
    }

    /// Move the front word of input subport `src` through `stage` to
    /// output subport `out` of the switch whose first line is `base`.
    /// Inlined into both switch sweeps: it sits on the per-word hot edge.
    #[inline(always)]
    fn move_from<S: NetSink + ?Sized>(
        &mut self,
        stage: usize,
        base: usize,
        out: usize,
        src: usize,
        sink: &mut S,
    ) {
        let row = stage * self.size;
        let out_line = base + out;
        let src_idx = row + base + src;

        // Check downstream space (next stage queue, or sink acceptance;
        // only the latter needs the word itself). A doomed packet never
        // consults the sink: it occupies links and queues like any other
        // packet but evaporates instead of ejecting.
        let last = stage + 1 == self.stages;
        let next_idx = if last {
            0
        } else {
            row + self.size + self.shuffle(out_line)
        };
        let flit = if last {
            let flit = self.q_front(src_idx);
            if flit.is_head()
                && !self.doomed(flit.pkt)
                && !self.accepted[out_line]
                && !sink.try_begin(out_line)
            {
                self.stats.blocked_moves += 1;
                self.stage_blocked[stage] += 1;
                return;
            }
            flit
        } else {
            if usize::from(self.qlen[next_idx]) >= self.queue_cap {
                self.stats.blocked_moves += 1;
                self.stage_blocked[stage] += 1;
                return;
            }
            self.q_front(src_idx)
        };

        // Commit the move (`flit` already holds the front word).
        self.q_advance(src_idx);
        self.stats.words_moved += 1;
        let lock = row + out_line;
        if flit.is_tail() {
            self.locks[lock] = NO_LOCK;
            self.locked_to[src_idx] = NO_FRONT;
        } else {
            self.locks[lock] = src as u8;
            self.locked_to[src_idx] = out as u8;
        }
        if flit.is_head() {
            // Advance round-robin past the winner for fairness.
            self.rr[lock] = if src + 1 == self.radix {
                0
            } else {
                (src + 1) as u8
            };
        }
        // The pop exposed this line's next word: more of the same packet,
        // bound for the output it just locked, or after a tail the next
        // packet's head.
        self.front_out[src_idx] = if self.qlen[src_idx] == 0 {
            NO_FRONT
        } else if flit.is_tail() {
            self.front_route(src_idx, self.q_front(src_idx))
        } else {
            out as u8
        };
        if last {
            if flit.is_head() {
                self.accepted[out_line] = true;
            }
            if flit.is_tail() {
                self.accepted[out_line] = false;
                let doomed = self.doomed(flit.pkt);
                let pkt = self.release(flit.pkt);
                if !doomed {
                    self.stats.packets_delivered += 1;
                    if let Some(t) = self.trace.as_deref_mut() {
                        let (tid, ce) = pkt_trace(&pkt);
                        if tid != 0 {
                            t.stamp_deliver(tid, ce);
                        }
                    }
                    sink.deliver(out_line, pkt);
                }
            }
        } else {
            let mut flit = flit;
            if flit.is_head() {
                flit.route = self.route_digit(usize::from(flit.dst), stage + 1) as u8;
                if self.trace.is_some() {
                    let (tid, ce) = self.slab_trace(flit.pkt);
                    if tid != 0 {
                        self.trace
                            .as_deref_mut()
                            .expect("checked above")
                            .stamp_stage(tid, ce, (stage + 1) as u8);
                    }
                }
            }
            let depth = self.q_push(next_idx, flit);
            if depth == 1 {
                // The pushed word became the next stage's front.
                self.front_out[next_idx] = self.front_route(next_idx, flit);
            }
            self.queue_depth.record(depth);
        }
    }

    fn inject_words(&mut self) {
        if self.pending_injections == 0 {
            return;
        }
        // Scan only ports with queued injections, in ascending port order
        // (the same deterministic order the dense loop used).
        for w in 0..self.inject_ports.len() {
            let mut bits = self.inject_ports[w];
            while bits != 0 {
                let port = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let line = self.shuffle(port);
                if usize::from(self.qlen[line]) >= self.queue_cap {
                    self.stats.blocked_moves += 1;
                    self.stage_blocked[0] += 1;
                    continue;
                }
                let InjSlot { pkt, dst, words } =
                    self.injectors[port].front().expect("masked port has work");
                let sent = self.injectors[port].words_sent;
                let is_head = sent == 0;
                let route = if is_head {
                    self.route_digit(usize::from(dst), 0) as u8
                } else {
                    0
                };
                let flit = Flit {
                    pkt,
                    dst,
                    route,
                    bits: if is_head { HEAD } else { 0 } | if sent + 1 == words { TAIL } else { 0 },
                };
                if is_head && self.trace.is_some() {
                    let (tid, ce) = self.slab_trace(pkt);
                    if tid != 0 {
                        self.trace
                            .as_deref_mut()
                            .expect("checked above")
                            .stamp_stage(tid, ce, 0);
                    }
                }
                let depth = self.q_push(line, flit);
                if depth == 1 {
                    // The injected word became this line's front.
                    self.front_out[line] = self.front_route(line, flit);
                }
                self.queue_depth.record(depth);
                self.stats.words_moved += 1;
                let inj = &mut self.injectors[port];
                inj.words_sent += 1;
                if inj.words_sent == words {
                    inj.pop_front();
                    inj.words_sent = 0;
                    self.pending_injections -= 1;
                    if inj.len == 0 {
                        self.inject_ports[w] &= !(1 << (port % 64));
                    }
                }
            }
        }
    }
}

use crate::snapshot::{get_packet, put_packet, SnapReader, SnapResult, SnapWriter};

impl Omega {
    /// Serialize the network's complete mutable state. Config-derived
    /// tables (shuffle, routing, subport maps) and the fault seeds are
    /// not written: the first are rebuilt by [`Omega::new`], the seeds
    /// come from the fault plan. Nor are the destinations flits and
    /// injector slots cache: restore reads them back from the slab.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.tag(b"OMGA");
        // In-flight packet slab first: queued flits reference its ids.
        w.seq(self.slab.iter(), |w, slot| match slot {
            Slot::Live(pkt) => {
                w.u8(1);
                put_packet(w, pkt);
            }
            Slot::Free { next } => {
                w.u8(0);
                w.u32(*next);
            }
        });
        w.u32(self.free_head);
        // Stage queues front-to-back; the physical ring head is not state.
        w.seq(0..self.stages * self.size, |w, idx| {
            let len = usize::from(self.qlen[idx]);
            w.u8(self.qlen[idx]);
            for j in 0..len {
                let mut slot = usize::from(self.qhead[idx]) + j;
                if slot >= self.queue_cap {
                    slot -= self.queue_cap;
                }
                let f = self.qbuf[idx * self.queue_cap + slot];
                w.u32(f.pkt);
                w.bool(f.is_head());
                w.bool(f.is_tail());
                w.u8(f.route);
            }
        });
        w.seq(0..self.stages * self.size, |w, idx| {
            // The wire format names the owning input line.
            let l = self.locks[idx];
            let base = idx % self.size / self.radix * self.radix;
            w.u32(if l == NO_LOCK {
                u32::MAX
            } else {
                (base + usize::from(l)) as u32
            });
            w.u8(self.locked_to[idx]);
            w.u8(self.rr[idx]);
        });
        w.seq(self.injectors.iter(), |w, inj| {
            w.u8(inj.len);
            w.u8(inj.words_sent);
            for slot in 0..inj.len() {
                let s = inj.slots[(usize::from(inj.head) + slot) % INJ_CAP];
                w.u32(s.pkt);
                w.u8(s.words);
            }
        });
        w.seq(self.accepted.iter(), |w, a| w.bool(*a));
        w.u64(self.stats.packets_injected);
        w.u64(self.stats.packets_delivered);
        w.u64(self.stats.words_moved);
        w.u64(self.stats.blocked_moves);
        w.u64(self.stats.arbitration_losses);
        w.u64(self.stats.link_blocked);
        w.u64(self.stats.drops);
        w.u64(self.stats.nacks);
        w.seq(self.stage_conflicts.iter(), |w, v| w.u64(*v));
        w.seq(self.stage_blocked.iter(), |w, v| w.u64(*v));
        self.queue_depth.save_state(w);
        // Retired stall-replay counter, always zero: kept so the wire
        // layout (and `SNAPSHOT_VERSION`) stays unchanged.
        w.u64(0);
        w.opt(self.faults.as_deref(), |w, f| {
            w.seq(f.inj_seq.iter(), |w, v| w.u64(*v));
            w.seq(f.down.iter(), |w, v| w.bool(*v));
            w.seq(f.doom.iter(), |w, v| w.bool(*v));
        });
        w.opt(self.trace.as_deref(), |w, t| t.save_state(w));
    }

    /// Restore state written by [`Omega::save_state`] into a network
    /// built with the identical configuration. Derived state (cached
    /// fronts, the injection mask, flit and injector destinations) is
    /// rebuilt from the restored queues and slab rather than trusted
    /// from the snapshot.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        r.tag(b"OMGA")?;
        self.slab = r.seq(|r| match r.u8()? {
            0 => Ok(Slot::Free { next: r.u32()? }),
            1 => Ok(Slot::Live(get_packet(r)?)),
            b => Err(r.err_invalid("slab slot kind", b)),
        })?;
        self.free_head = r.u32()?;
        let slots = self.slab.len() as u32;
        if self.free_head != NO_PACKET && self.free_head >= slots {
            return Err(r.err_mismatch("slab free head out of range"));
        }
        for slot in &self.slab {
            if let Slot::Free { next } = slot {
                if *next != NO_PACKET && *next >= slots {
                    return Err(r.err_mismatch("slab free link out of range"));
                }
            }
        }
        self.in_flight = self
            .slab
            .iter()
            .filter(|s| matches!(s, Slot::Live(_)))
            .count();
        // Destination of the live packet a restored flit or injector slot
        // references.
        let size = self.size;
        let live_dst = |r: &SnapReader, slab: &[Slot], pkt: PacketId| match slab.get(pkt as usize) {
            Some(Slot::Live(p)) if p.dst < size => Ok(p.dst as u16),
            _ => Err(r.err_mismatch("queued packet references no live slab slot")),
        };
        let queues = self.stages * self.size;
        r.seq_exact(queues, |r, idx| {
            let len = usize::from(r.u8()?);
            if len > self.queue_cap {
                return Err(r.err_mismatch("stage queue deeper than its capacity"));
            }
            self.qhead[idx] = 0;
            self.qlen[idx] = len as u8;
            for j in 0..len {
                let pkt = r.u32()?;
                let dst = live_dst(r, &self.slab, pkt)?;
                let is_head = r.bool()?;
                let is_tail = r.bool()?;
                let route = r.u8()?;
                self.qbuf[idx * self.queue_cap + j] = Flit {
                    pkt,
                    dst,
                    route,
                    bits: if is_head { HEAD } else { 0 } | if is_tail { TAIL } else { 0 },
                };
            }
            Ok(())
        })?;
        r.seq_exact(queues, |r, idx| {
            let owner = r.u32()?;
            let base = idx % self.size / self.radix * self.radix;
            self.locks[idx] = if owner == u32::MAX {
                NO_LOCK
            } else if (base..base + self.radix).contains(&(owner as usize)) {
                (owner as usize - base) as u8
            } else {
                return Err(r.err_mismatch("output locked to a line of another switch"));
            };
            self.locked_to[idx] = r.u8()?;
            self.rr[idx] = r.u8()?;
            Ok(())
        })?;
        r.seq_exact(self.size, |r, port| {
            let len = r.u8()?;
            if usize::from(len) > INJ_CAP {
                return Err(r.err_mismatch("injector ring deeper than its capacity"));
            }
            let words_sent = r.u8()?;
            let inj = &mut self.injectors[port];
            *inj = Injector::default();
            inj.len = len;
            inj.words_sent = words_sent;
            for slot in 0..usize::from(len) {
                let pkt = r.u32()?;
                let dst = live_dst(r, &self.slab, pkt)?;
                let words = r.u8()?;
                inj.slots[slot] = InjSlot { pkt, dst, words };
            }
            Ok(())
        })?;
        r.seq_exact(self.size, |r, port| {
            self.accepted[port] = r.bool()?;
            Ok(())
        })?;
        self.stats.packets_injected = r.u64()?;
        self.stats.packets_delivered = r.u64()?;
        self.stats.words_moved = r.u64()?;
        self.stats.blocked_moves = r.u64()?;
        self.stats.arbitration_losses = r.u64()?;
        self.stats.link_blocked = r.u64()?;
        self.stats.drops = r.u64()?;
        self.stats.nacks = r.u64()?;
        r.seq_exact(self.stages, |r, s| {
            self.stage_conflicts[s] = r.u64()?;
            Ok(())
        })?;
        r.seq_exact(self.stages, |r, s| {
            self.stage_blocked[s] = r.u64()?;
            Ok(())
        })?;
        self.queue_depth = Histogrammer::decode(r)?;
        r.u64()?; // retired stall-replay counter
        let had_faults = r.bool()?;
        match (had_faults, self.faults.as_deref_mut()) {
            (true, Some(f)) => {
                let inj_seq = r.seq(|r| r.u64())?;
                if inj_seq.len() != f.inj_seq.len() {
                    return Err(r.err_mismatch("fault-injection port count"));
                }
                f.inj_seq = inj_seq;
                let down = r.seq(|r| r.bool())?;
                if down.len() != f.down.len() {
                    return Err(r.err_mismatch("fault-outage port count"));
                }
                f.down = down;
                f.doom = r.seq(|r| r.bool())?;
            }
            (false, None) => {}
            _ => {
                return Err(r.err_mismatch(
                    "snapshot fault-injection state disagrees with this machine's fault plan",
                ));
            }
        }
        let had_trace = r.bool()?;
        match (had_trace, self.trace.as_deref_mut()) {
            (true, Some(t)) => t.load_state(r)?,
            (false, None) => {}
            _ => {
                return Err(r.err_mismatch(
                    "snapshot network-tracing state disagrees with this machine's tracing setup",
                ));
            }
        }
        // Rebuild the derived occupancy indexes.
        self.pending_injections = self.injectors.iter().map(Injector::len).sum();
        self.inject_ports.iter_mut().for_each(|w| *w = 0);
        for port in 0..self.size {
            if self.injectors[port].len() > 0 {
                self.inject_ports[port / 64] |= 1 << (port % 64);
            }
        }
        for idx in 0..queues {
            self.front_out[idx] = if self.qlen[idx] == 0 {
                NO_FRONT
            } else {
                self.front_route(idx, self.q_front(idx))
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CeId;
    use crate::network::packet::{MemRequest, Payload, RequestKind, Stream};
    use crate::time::Cycle;

    fn cfg(radix: usize) -> NetworkConfig {
        NetworkConfig {
            radix,
            queue_words: 2,
            words_per_cycle: 1,
        }
    }

    fn pkt(dst: usize, words: u8, addr: u64) -> Packet {
        Packet {
            dst,
            words,
            payload: Payload::Request(MemRequest {
                ce: CeId(0),
                kind: RequestKind::Read,
                addr,
                stream: Stream::Scalar,
                issued: Cycle(0),
                seq: 0,
                nacked: false,
                trace: 0,
            }),
        }
    }

    /// Sink that records deliveries and can refuse new packets.
    #[derive(Default)]
    struct RecSink {
        delivered: Vec<(usize, Packet)>,
        refuse: bool,
    }

    impl NetSink for RecSink {
        fn try_begin(&mut self, _port: usize) -> bool {
            !self.refuse
        }
        fn deliver(&mut self, port: usize, packet: Packet) {
            self.delivered.push((port, packet));
        }
    }

    fn run_until_idle(net: &mut Omega, sink: &mut RecSink, max: usize) {
        for _ in 0..max {
            if net.is_idle() {
                return;
            }
            net.tick(sink);
        }
        assert!(net.is_idle(), "network did not drain");
    }

    #[test]
    fn geometry_of_cedar_network() {
        let net = Omega::new(32, &cfg(8));
        assert_eq!(net.size(), 64);
        assert_eq!(net.stages(), 2);
        let net = Omega::new(32, &cfg(2));
        assert_eq!(net.size(), 32);
        assert_eq!(net.stages(), 5);
    }

    #[test]
    fn shuffle_rotates_digits() {
        let net = Omega::new(4, &cfg(2));
        // size 4, radix 2: shuffle(01)=10, shuffle(11)=11.
        assert_eq!(net.shuffle(1), 2);
        assert_eq!(net.shuffle(3), 3);
        assert_eq!(net.shuffle(0), 0);
        assert_eq!(net.shuffle(2), 1);
    }

    #[test]
    fn routes_every_source_destination_pair() {
        for radix in [2usize, 4, 8] {
            let mut net = Omega::new(radix * radix, &cfg(radix));
            let size = net.size();
            for src in 0..size {
                for dst in 0..size {
                    let mut sink = RecSink::default();
                    assert!(net.try_inject(src, pkt(dst, 1, 7)));
                    run_until_idle(&mut net, &mut sink, 100);
                    assert_eq!(sink.delivered.len(), 1, "src={src} dst={dst}");
                    assert_eq!(sink.delivered[0].0, dst, "src={src} dst={dst}");
                }
            }
        }
    }

    #[test]
    fn unloaded_one_word_latency_is_stages_plus_one() {
        // inject at cycle 1 (end of tick), one hop per stage, eject on the
        // last stage's move: for a 2-stage net the packet is delivered on
        // the 3rd tick after injection started.
        let mut net = Omega::new(64, &cfg(8));
        let mut sink = RecSink::default();
        assert!(net.try_inject(5, pkt(40, 1, 0)));
        let mut ticks = 0;
        while !net.is_idle() {
            net.tick(&mut sink);
            ticks += 1;
            assert!(ticks < 20);
        }
        assert_eq!(ticks, 3);
        assert_eq!(sink.delivered.len(), 1);
    }

    #[test]
    fn multiword_packets_arrive_whole_and_in_order() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        assert!(net.try_inject(0, pkt(9, 4, 1)));
        assert!(net.try_inject(0, pkt(9, 2, 2)));
        run_until_idle(&mut net, &mut sink, 100);
        assert_eq!(sink.delivered.len(), 2);
        // FIFO per source: addr 1 before addr 2.
        let addr = |p: &Packet| match p.payload {
            Payload::Request(r) => r.addr,
            _ => unreachable!(),
        };
        assert_eq!(addr(&sink.delivered[0].1), 1);
        assert_eq!(addr(&sink.delivered[1].1), 2);
    }

    #[test]
    fn injector_backpressure() {
        let mut net = Omega::new(16, &cfg(4));
        // injector holds 2 packets.
        assert!(net.try_inject(0, pkt(1, 4, 0)));
        assert!(net.try_inject(0, pkt(1, 4, 0)));
        assert!(!net.try_inject(0, pkt(1, 4, 0)));
    }

    #[test]
    fn sink_refusal_blocks_and_later_drains() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink {
            refuse: true,
            ..Default::default()
        };
        assert!(net.try_inject(3, pkt(8, 1, 0)));
        for _ in 0..20 {
            net.tick(&mut sink);
        }
        assert!(sink.delivered.is_empty());
        assert!(!net.is_idle());
        assert!(net.stats().blocked_moves > 0);
        sink.refuse = false;
        run_until_idle(&mut net, &mut sink, 20);
        assert_eq!(sink.delivered.len(), 1);
    }

    #[test]
    fn contention_to_one_destination_serializes() {
        // All 16 sources fire one packet at destination 0; all must arrive,
        // and arrival takes at least 16 word-cycles at the final link.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for src in 0..16 {
            assert!(net.try_inject(src, pkt(0, 1, src as u64)));
        }
        let mut ticks = 0;
        while !net.is_idle() {
            net.tick(&mut sink);
            ticks += 1;
            assert!(ticks < 500);
        }
        assert_eq!(sink.delivered.len(), 16);
        assert!(ticks >= 16, "16 packets over one ejection link: {ticks}");
        // Every source's packet arrived exactly once.
        let mut addrs: Vec<u64> = sink
            .delivered
            .iter()
            .map(|(_, p)| match p.payload {
                Payload::Request(r) => r.addr,
                _ => unreachable!(),
            })
            .collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn disjoint_traffic_proceeds_in_parallel() {
        // A permutation with distinct outputs should take barely longer
        // than a single packet.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for src in 0..16 {
            assert!(net.try_inject(src, pkt(src, 1, 0)));
        }
        let mut ticks = 0;
        while !net.is_idle() {
            net.tick(&mut sink);
            ticks += 1;
        }
        assert_eq!(sink.delivered.len(), 16);
        // Identity permutation is conflict-free in an omega network.
        assert!(
            ticks <= 6,
            "identity permutation should not serialize: {ticks}"
        );
    }

    #[test]
    fn route_digits_reconstruct_destination_radix2_and_4() {
        // The flattened route table consumes the destination most
        // significant digit first: digits across the stages must spell
        // the destination back out in base `radix`.
        for radix in [2usize, 4] {
            let net = Omega::new(32, &cfg(radix));
            for dst in 0..net.size() {
                let mut rebuilt = 0usize;
                for stage in 0..net.stages() {
                    rebuilt = rebuilt * radix + net.route_digit(dst, stage);
                }
                assert_eq!(rebuilt, dst, "radix={radix} dst={dst}");
            }
        }
    }

    #[test]
    fn shuffle_table_matches_digit_rotation() {
        // The precomputed shuffle table must equal the closed-form
        // perfect shuffle (rotate base-`radix` digits left).
        for radix in [2usize, 4, 8] {
            let net = Omega::new(32, &cfg(radix));
            let size = net.size();
            for line in 0..size {
                assert_eq!(
                    net.shuffle(line),
                    (line * radix) % size + (line * radix) / size,
                    "radix={radix} line={line}"
                );
            }
        }
    }

    #[test]
    fn wormhole_lock_pins_flattened_lock_arrays() {
        // A 3-word packet from port 0 to destination 0 in a radix-4 net:
        // port 0 injects onto line 0 of stage-0 switch 0 and routes to
        // output subport 0. While body words remain, the flat `locks`/
        // `locked_to` entries must name the pairing; after the tail they
        // must clear, and `rr` must have advanced past the winner.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        assert!(net.try_inject(0, pkt(0, 3, 7)));
        // Tick until the head has moved through stage 0 but the tail has
        // not (head hop happens on the tick after its injection).
        net.tick(&mut sink); // inject head
        net.tick(&mut sink); // head moves stage 0 -> stage 1; body injects
        assert_eq!(net.locks[0], 0, "output 0 of stage 0 locked to line 0");
        assert_eq!(net.locked_to[0], 0, "line 0 owns output subport 0");
        run_until_idle(&mut net, &mut sink, 50);
        assert_eq!(sink.delivered.len(), 1);
        // Tail passage released every lock in both stages.
        assert!(net.locks.iter().all(|&l| l == NO_LOCK));
        assert!(net.locked_to.iter().all(|&l| l == NO_FRONT));
        // Round-robin advanced past the winning input subport (0 -> 1) at
        // both stages' output 0.
        assert_eq!(net.rr[0], 1);
        assert_eq!(net.rr[net.size], 1);
    }

    #[test]
    fn round_robin_alternates_between_contending_inputs() {
        // Ports 0 and 4 shuffle onto lines 0 and 1 of stage-0 switch 0
        // (radix 4) and fight for output subport 0. The round-robin
        // pointer starts at 0, so line 0 wins the first arbitration, the
        // pointer advances, and the two streams alternate head-for-head.
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        for i in 0..2u64 {
            assert!(net.try_inject(0, pkt(0, 1, 100 + i)));
            assert!(net.try_inject(4, pkt(0, 1, 200 + i)));
        }
        run_until_idle(&mut net, &mut sink, 100);
        let addrs: Vec<u64> = sink
            .delivered
            .iter()
            .map(|(_, p)| match p.payload {
                Payload::Request(r) => r.addr,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![100, 200, 101, 201]);
        assert!(net.stats().arbitration_losses > 0);
    }

    #[test]
    fn stats_account_words() {
        let mut net = Omega::new(16, &cfg(4));
        let mut sink = RecSink::default();
        net.try_inject(2, pkt(11, 3, 0));
        run_until_idle(&mut net, &mut sink, 50);
        let s = net.stats();
        assert_eq!(s.packets_injected, 1);
        assert_eq!(s.packets_delivered, 1);
        // 3 words × (inject + 2 stages) hops.
        assert_eq!(s.words_moved, 9);
    }

    #[test]
    fn doomed_packets_traverse_but_evaporate() {
        // drop_ppm = 1_000_000: every injection is doomed. The packet
        // still consumes an injector slot and link bandwidth but never
        // reaches the sink, and conservation closes through `drops`.
        let mut net = Omega::new(16, &cfg(4));
        net.enable_faults(7, 0xF0, 1_000_000, 0);
        let mut sink = RecSink {
            refuse: true, // a doomed packet must never consult the sink
            ..Default::default()
        };
        assert!(net.try_inject(2, pkt(11, 3, 0)));
        run_until_idle(&mut net, &mut sink, 50);
        let s = net.stats();
        assert_eq!(s.packets_injected, 1);
        assert_eq!(s.drops, 1);
        assert_eq!(s.packets_delivered, 0);
        assert!(sink.delivered.is_empty());
        assert_eq!(net.in_flight_packets(), 0);
        // Bandwidth was spent exactly as for a delivered packet.
        assert_eq!(s.words_moved, 9);
    }

    #[test]
    fn nacked_requests_arrive_flagged() {
        // nack_ppm = 1_000_000 with no drops: every request arrives but
        // carries the corruption flag for the module to bounce.
        let mut net = Omega::new(16, &cfg(4));
        net.enable_faults(7, 0xF0, 0, 1_000_000);
        let mut sink = RecSink::default();
        assert!(net.try_inject(2, pkt(11, 1, 42)));
        run_until_idle(&mut net, &mut sink, 50);
        assert_eq!(net.stats().nacks, 1);
        assert_eq!(sink.delivered.len(), 1);
        match sink.delivered[0].1.payload {
            Payload::Request(r) => assert!(r.nacked),
            _ => unreachable!(),
        }
    }

    #[test]
    fn downed_port_refuses_until_restored() {
        // Every refusal charges `link_blocked` once, whether
        // `inject_ready` or `try_inject` gives it.
        for radix in [2usize, 4, 8] {
            let mut net = Omega::new(16, &cfg(radix));
            net.enable_faults(7, 0xF0, 0, 0);
            net.set_port_down(3, true);
            for n in 1..=2u64 {
                assert!(!net.inject_ready(3));
                assert_eq!(net.stats().link_blocked, 2 * n - 1, "radix {radix}");
                assert!(!net.try_inject(3, pkt(8, 1, 0)));
                assert_eq!(net.stats().link_blocked, 2 * n, "radix {radix}");
            }
            // Other ports are unaffected.
            assert!(net.try_inject(4, pkt(8, 1, 0)));
            net.set_port_down(3, false);
            assert!(net.inject_ready(3));
            assert!(net.try_inject(3, pkt(8, 1, 0)));
            assert_eq!(net.stats().link_blocked, 4);
        }
    }

    #[test]
    fn zero_rate_faults_change_nothing() {
        // An installed-but-all-zero fault config must behave exactly like
        // a fault-free network.
        let mut plain = Omega::new(16, &cfg(4));
        let mut faulty = Omega::new(16, &cfg(4));
        faulty.enable_faults(99, 0xF0, 0, 0);
        for net in [&mut plain, &mut faulty] {
            let mut sink = RecSink::default();
            for src in 0..16 {
                assert!(net.try_inject(src, pkt(0, 2, src as u64)));
            }
            run_until_idle(net, &mut sink, 500);
            assert_eq!(sink.delivered.len(), 16);
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn inject_ready_matches_try_inject_acceptance() {
        for radix in [2usize, 4, 8] {
            let mut net = Omega::new(16, &cfg(radix));
            let port = 5;
            // Open injector: ready, and the packet is taken; until the
            // injector fills, both keep agreeing.
            for k in 0..3u64 {
                let ready = net.inject_ready(port);
                assert_eq!(ready, net.try_inject(port, pkt(1, 2, k)), "radix {radix}");
                assert_eq!(ready, k < 2, "radix {radix}: injector holds two packets");
            }
            // Full injector: refused by both, with no stat charged.
            assert!(!net.inject_ready(port));
            assert!(!net.try_inject(port, pkt(1, 2, 9)));
            assert_eq!(net.stats().link_blocked, 0);
            assert_eq!(net.stats().packets_injected, 2);
        }
    }

    /// Encode `net`'s state as a snapshot payload.
    fn save(net: &Omega) -> Vec<u8> {
        let mut w = crate::snapshot::SnapWriter::new();
        net.save_state(&mut w);
        w.into_payload()
    }

    /// A radix-8 Cedar network with 4-word packets from eight sources
    /// converging on two destinations, ticked against a refusing sink
    /// until head and body words queue in both stages.
    fn loaded_net() -> (Omega, RecSink) {
        let mut net = Omega::new(64, &cfg(8));
        let mut sink = RecSink {
            refuse: true,
            ..Default::default()
        };
        for (i, src) in [0usize, 1, 2, 3, 8, 9, 16, 17].into_iter().enumerate() {
            for k in 0..2u64 {
                let dst = if i % 2 == 0 { 9 } else { 40 };
                assert!(net.try_inject(src, pkt(dst, 4, src as u64 * 10 + k)));
            }
        }
        for _ in 0..6 {
            net.tick(&mut sink);
        }
        (net, sink)
    }

    /// Tick `net` until idle (opening `sink` after 5 more refusing
    /// ticks), returning the delivery schedule `(tick, port, addr)`.
    fn finish(net: &mut Omega, sink: &mut RecSink) -> Vec<(usize, usize, u64)> {
        let mut schedule = Vec::new();
        for t in 0..500 {
            if net.is_idle() {
                return schedule;
            }
            sink.refuse = t < 5;
            net.tick(sink);
            for (port, p) in sink.delivered.drain(..) {
                let addr = match p.payload {
                    Payload::Request(r) => r.addr,
                    _ => unreachable!(),
                };
                schedule.push((t, port, addr));
            }
        }
        panic!("network did not drain");
    }

    #[test]
    fn snapshot_round_trip_with_traffic_in_flight() {
        let (net, _) = loaded_net();
        // Head and body words queue in both stages.
        for stage in 0..net.stages() {
            let rings =
                stage * net.size() * net.queue_cap..(stage + 1) * net.size() * net.queue_cap;
            let queued = |head: bool| {
                rings.clone().any(|slot| {
                    let (idx, j) = (slot / net.queue_cap, slot % net.queue_cap);
                    let live = (j + net.queue_cap - usize::from(net.qhead[idx])) % net.queue_cap;
                    live < usize::from(net.qlen[idx]) && net.qbuf[slot].is_head() == head
                })
            };
            assert!(
                queued(true) && queued(false),
                "stage {stage} holds heads and bodies"
            );
        }
        let bytes = save(&net);
        // The wire layout is pinned: these are the bytes the format has
        // always written for this state (a layout change must bump
        // `SNAPSHOT_VERSION` and this pin together).
        assert_eq!(bytes.len(), 2490);
        assert_eq!(crate::snapshot::fnv1a(&bytes), 0x5a2f_d9f2_0c4e_a9d4);

        let mut restored = Omega::new(64, &cfg(8));
        restored
            .load_state(&mut crate::snapshot::SnapReader::new(&bytes))
            .expect("restore");
        assert_eq!(save(&restored), bytes, "restore re-encodes identically");

        let (mut net, mut sink) = loaded_net();
        let mut restored_sink = RecSink::default();
        let schedule = finish(&mut net, &mut sink);
        assert_eq!(schedule.len(), 16, "every packet arrives");
        assert_eq!(finish(&mut restored, &mut restored_sink), schedule);
        assert_eq!(restored.stats(), net.stats());
        assert_eq!(restored.stage_conflicts(), net.stage_conflicts());
        assert_eq!(restored.stage_blocked(), net.stage_blocked());
        assert_eq!(
            restored.queue_depth_histogram().bins(),
            net.queue_depth_histogram().bins()
        );
        assert_eq!(save(&restored), save(&net));
    }
}
