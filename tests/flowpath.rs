//! Equivalence battery for the flow-level network fast path.
//!
//! The flow path (`MachineConfig::flow_path`, on by default) advances
//! steady-state wormhole streams through the omega networks without the
//! dense per-flit scan: radix-8 switches arbitrate all eight outputs in
//! one SWAR pass, and an empty switch costs one `u64` test. Its contract
//! is *bit-for-bit*
//! equivalence with the per-flit oracle sweep (kept behind the
//! `CEDAR_NO_FLOWPATH` escape hatch): the same cycle count, the same
//! memory digest, the same full stats registry — including the `net.*`
//! counter and histogram trees, per-stage conflict/blocked vectors and
//! queue-depth bins — with fast-forward on or off, under fault
//! injection, and under journey tracing.
//!
//! These tests pin that contract on the paper's Table 1 rows, on a
//! synthetic full-stall window and on a single-bank sync hammer. The
//! randomized cross-check against the oracle on arbitrary traffic lives
//! in `properties.rs`.

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::NetworkConfig;
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::memory::sync::SyncInstr;
use cedar_machine::network::packet::{MemRequest, Packet, Payload, RequestKind, Stream};
use cedar_machine::network::{NetSink, Omega};
use cedar_machine::program::{AddressExpr, Op, ProgramBuilder};
use cedar_machine::stats::export::{chrome_trace_with_journeys, flat_text};
use cedar_machine::time::Cycle;
use cedar_machine::{FaultPlan, MachineConfig, MachineStats, TracePlan};

const LIMIT: u64 = 1_000_000_000;

/// Everything a run can leak about its execution.
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

/// Compare a flow-path run against the per-flit oracle baseline, with a
/// readable counter diff on mismatch.
fn assert_equivalent(label: &str, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        base.cycles, got.cycles,
        "{label}: flow-path run took {} cycles, oracle took {}",
        got.cycles, base.cycles
    );
    assert_eq!(
        base.memory, got.memory,
        "{label}: flow-path run left different memory state"
    );
    if base.stats != got.stats {
        let oracle = flat_text(&base.stats);
        let flow = flat_text(&got.stats);
        let diff: Vec<String> = oracle
            .lines()
            .zip(flow.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  oracle:    {a}\n  flow path: {b}"))
            .collect();
        panic!(
            "{label}: flow-path stats tree differs from the oracle:\n{}",
            diff.join("\n")
        );
    }
}

fn fingerprint_rank64(
    version: Rank64Version,
    flow: bool,
    fast_forward: bool,
    faults: Option<FaultPlan>,
    trace: Option<TracePlan>,
) -> Fingerprint {
    let clusters = 4;
    let mut cfg = MachineConfig::cedar_with_clusters(clusters)
        .with_fast_forward(fast_forward)
        .with_flow_path(flow);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    if let Some(plan) = trace {
        cfg = cfg.with_trace(plan);
    }
    let mut m = Machine::new(cfg).unwrap();
    let progs = Rank64 {
        n: 64,
        k: 64,
        version,
    }
    .build(&mut m, clusters);
    let r = m.run(progs, LIMIT).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// Every Table 1 memory version produces a bit-identical fingerprint with
/// the flow path on, with the event-horizon fast-forward on and off (the
/// two fast paths compose).
#[test]
fn table1_rows_match_with_flow_path_on() {
    for version in [
        Rank64Version::GmNoPrefetch,
        Rank64Version::GmPrefetch { block_words: 32 },
        Rank64Version::GmCache,
    ] {
        let label = format!("table1 {version:?}");
        let base = fingerprint_rank64(version, false, false, None, None);
        for fast_forward in [false, true] {
            let got = fingerprint_rank64(version, true, fast_forward, None, None);
            assert_equivalent(
                &format!("{label}, fast-forward {fast_forward}"),
                &base,
                &got,
            );
        }
    }
}

/// The equivalence survives fault injection: drops evaporate and NACKs
/// bounce the same packets whether the sweep is per-flit or flow-level,
/// so the fault-site sequence counters stay aligned.
#[test]
fn flow_path_matches_oracle_under_fault_injection() {
    let plan = FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        ..FaultPlan::none(0xCEDA)
    };
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = fingerprint_rank64(version, false, true, Some(plan.clone()), None);
    let got = fingerprint_rank64(version, true, true, Some(plan), None);
    assert_equivalent("faulty rank64", &base, &got);
}

/// The equivalence survives journey tracing at CI's sampling rate and at
/// an explicit rate of zero: `trace.*` keys join the registry (and hence
/// the fingerprint), so every hop stamp the flow path records must equal
/// the per-flit schedule.
#[test]
fn flow_path_matches_oracle_under_tracing() {
    let version = Rank64Version::GmCache;
    for sample_ppm in [0, 10_000] {
        let plan = TracePlan {
            seed: 0xCEDA,
            sample_ppm,
        };
        let base = fingerprint_rank64(version, false, true, None, Some(plan));
        let got = fingerprint_rank64(version, true, true, None, Some(plan));
        assert_equivalent(&format!("traced rank64 ppm={sample_ppm}"), &base, &got);
    }
}

/// Journey hop timestamps inside bulk-advanced streams equal the per-flit
/// schedule exactly: the raw trace-event streams are element-for-element
/// identical, and so is the full Chrome export with journeys attached —
/// no collapsed or reordered `TraceEvent`s.
#[test]
fn journey_hop_stamps_survive_bulk_advance() {
    let run = |flow: bool| {
        let clusters = 4;
        let cfg = MachineConfig::cedar_with_clusters(clusters)
            .with_flow_path(flow)
            .with_trace(TracePlan {
                seed: 0xCEDA,
                sample_ppm: 1_000_000,
            });
        let mut m = Machine::new(cfg).unwrap();
        let progs = Rank64 {
            n: 64,
            k: 64,
            version: Rank64Version::GmPrefetch { block_words: 32 },
        }
        .build(&mut m, clusters);
        let r = m.run(progs, LIMIT).unwrap();
        (r.stats, m)
    };
    let (oracle_stats, oracle) = run(false);
    let (flow_stats, flow) = run(true);

    let base = oracle.trace_events();
    let got = flow.trace_events();
    assert!(!base.is_empty(), "full sampling must catch journeys");
    assert_eq!(base.len(), got.len(), "trace event count drifted");
    if let Some(i) = (0..base.len()).find(|&i| base[i] != got[i]) {
        panic!(
            "trace stream diverges at event {i}:\n  oracle:    {:?}\n  flow path: {:?}",
            base[i], got[i]
        );
    }
    assert_eq!(
        chrome_trace_with_journeys(
            oracle.timeline(),
            &oracle_stats,
            170.0,
            &oracle.trace_journeys()
        ),
        chrome_trace_with_journeys(flow.timeline(), &flow_stats, 170.0, &flow.trace_journeys()),
        "Chrome export with journeys drifted under the flow path"
    );
}

/// A sink whose acceptance is an explicit mask, recording each delivery
/// with its arrival tick.
struct GateSink {
    accepting: bool,
    now: u64,
    delivered: Vec<(u64, usize, u64)>,
}

impl NetSink for GateSink {
    fn try_begin(&mut self, _port: usize) -> bool {
        self.accepting
    }
    fn deliver(&mut self, port: usize, p: Packet) {
        let addr = match p.payload {
            Payload::Request(r) => r.addr,
            _ => u64::MAX,
        };
        self.delivered.push((self.now, port, addr));
    }
}

fn stall_packet(dst: usize, addr: u64) -> Packet {
    Packet {
        dst,
        words: 2,
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

/// A long full-stall window (every stream blocked on a refusing sink):
/// the stall charge, the eventual deliveries and the final registry are
/// bit-identical to the oracle grinding through the same window per flit.
#[test]
fn full_stall_window_matches_the_oracle() {
    let cfg = NetworkConfig {
        radix: 8,
        queue_words: 2,
        words_per_cycle: 2,
    };
    let run = |flow: bool| {
        let mut net = Omega::new(32, &cfg);
        net.set_flow_path(flow);
        let size = net.size();
        let mut sink = GateSink {
            accepting: false,
            now: 0,
            delivered: Vec::new(),
        };
        // Head-of-line packets reach the sink, get refused, and block
        // everything behind them: a full stall.
        for port in 0..8 {
            assert!(net.try_inject(port, stall_packet(port * 3 % size, port as u64)));
        }
        // The sink refuses everyone for 60 cycles.
        for c in 0..60 {
            sink.now = c;
            net.tick(&mut sink);
        }
        // Then it opens and the network drains.
        sink.accepting = true;
        let mut c = 60;
        while !net.is_idle() {
            sink.now = c;
            net.tick(&mut sink);
            c += 1;
            assert!(c < 1_000, "network did not drain");
        }
        let fingerprint = format!(
            "{:?} conflicts={:?} blocked={:?} depth={:?} in_flight={}",
            net.stats(),
            net.stage_conflicts(),
            net.stage_blocked(),
            net.queue_depth_histogram().bins(),
            net.in_flight_packets()
        );
        (sink.delivered, fingerprint)
    };
    let (oracle_deliveries, oracle_fp) = run(false);
    let (flow_deliveries, flow_fp) = run(true);
    assert_eq!(
        oracle_deliveries, flow_deliveries,
        "delivery schedule drifted under the flow path"
    );
    assert_eq!(oracle_fp, flow_fp, "stat fingerprint drifted");
}

/// All 32 CEs fetch-adding distinct words of a single bank: sync ops
/// occupy the bank for 4 cycles, so the forward network spends long
/// windows with every stream stalled behind a full module queue. The
/// flow path must produce the oracle's exact fingerprint through them.
#[test]
fn flow_path_matches_oracle_under_single_bank_sync_hammering() {
    let run = |flow: bool| {
        let cfg = MachineConfig::cedar()
            .with_fast_forward(false)
            .with_flow_path(flow);
        let mut m = Machine::new(cfg).unwrap();
        let progs = (0..m.config().total_ces())
            .map(|ce| {
                let mut b = ProgramBuilder::new();
                for i in 0..32u64 {
                    // Distinct addresses, same bank: contention without
                    // the sync processor's same-address combining.
                    b.push(Op::SyncOp {
                        addr: AddressExpr::new((ce as u64 * 64 + i) * 32),
                        instr: SyncInstr::fetch_add(1),
                    });
                }
                (CeId(ce), b.build())
            })
            .collect();
        let r = m.run(progs, LIMIT).unwrap();
        Fingerprint {
            cycles: r.cycles,
            memory: m.memory_digest(),
            stats: r.stats,
        }
    };
    let base = run(false);
    let got = run(true);
    assert_equivalent("single-bank sync hammer", &base, &got);
}
