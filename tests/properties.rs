//! Property-based tests on the stack's core invariants (proptest), plus
//! conservation laws checked against the machine-wide stats registry.

use proptest::prelude::*;

use cedar_kernels::banded::BandedMatrix;
use cedar_kernels::cg::{cg_solve, dot};
use cedar_kernels::dense::{rank_update, Matrix};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::NetworkConfig;
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::memory::sync::{SyncInstr, SyncOpKind};
use cedar_machine::network::packet::{MemRequest, Packet, Payload, RequestKind, Stream};
use cedar_machine::network::{NetSink, Omega};
use cedar_machine::program::{AddressExpr, MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::sched::BarrierScope;
use cedar_machine::stats::export::flat_text;
use cedar_machine::time::Cycle;
use cedar_machine::{CounterId, CounterScope};
use cedar_methodology::stability::{instability, stability};

#[derive(Default)]
struct Collect {
    got: Vec<(usize, u64)>,
}
impl NetSink for Collect {
    fn try_begin(&mut self, _p: usize) -> bool {
        true
    }
    fn deliver(&mut self, p: usize, pkt: Packet) {
        if let Payload::Request(r) = pkt.payload {
            self.got.push((p, r.addr));
        }
    }
}

/// Records each delivery with its arrival tick, refusing ports according
/// to a mask the traffic generator reseeds as the run progresses — the
/// worst case for the flow path's cached stall charges.
struct MaskedSink {
    refuse_mask: u64,
    now: u64,
    delivered: Vec<(u64, usize, u64)>,
}

impl NetSink for MaskedSink {
    fn try_begin(&mut self, port: usize) -> bool {
        self.refuse_mask & (1 << (port % 64)) == 0
    }
    fn deliver(&mut self, port: usize, pkt: Packet) {
        let addr = match pkt.payload {
            Payload::Request(r) => r.addr,
            _ => u64::MAX,
        };
        self.delivered.push((self.now, port, addr));
    }
}

/// Drive `cycles` of seeded random traffic (bursty injection, variable
/// packet lengths, sink backpressure flipping every 7 cycles) through an
/// omega network, returning the delivery schedule and a fingerprint of
/// every observable stat: the counter struct, per-stage conflict and
/// blocked vectors, queue-depth histogram bins and in-flight count.
fn run_random_traffic(
    flow: bool,
    seed: u64,
    cycles: u64,
    ports: usize,
    cfg: &NetworkConfig,
) -> (Vec<(u64, usize, u64)>, String) {
    let mut net = Omega::new(ports, cfg);
    net.set_flow_path(flow);
    let size = net.size();
    let mut sink = MaskedSink {
        refuse_mask: 0,
        now: 0,
        delivered: Vec::new(),
    };
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for c in 0..cycles {
        sink.now = c;
        if c % 7 == 0 {
            sink.refuse_mask = next();
        }
        for _ in 0..3 {
            let r = next();
            if r % 100 < 60 {
                let port = (r >> 8) as usize % size;
                let dst = (r >> 20) as usize % size;
                let words = 1 + ((r >> 40) % 4) as u8;
                net.try_inject(
                    port,
                    Packet {
                        dst,
                        words,
                        payload: Payload::Request(MemRequest {
                            ce: CeId(0),
                            kind: RequestKind::Read,
                            addr: r,
                            stream: Stream::Scalar,
                            issued: Cycle(0),
                            seq: 0,
                            nacked: false,
                            trace: 0,
                        }),
                    },
                );
            }
        }
        net.tick(&mut sink);
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flow-level fast path is byte-identical to the per-flit oracle
    /// sweep on arbitrary omega traffic: same delivery schedule (tick,
    /// port and payload of every arrival), same `net.*` counters, same
    /// per-stage conflict/blocked vectors, same queue-depth histogram
    /// bins — across radices, queue depths, burst lengths, contention
    /// and sink backpressure.
    #[test]
    fn flow_path_is_bit_identical_to_the_per_flit_oracle(
        radix in prop::sample::select(vec![2usize, 4, 8]),
        ports in prop::sample::select(vec![16usize, 32, 64]),
        queue_words in prop::sample::select(vec![1usize, 2, 4]),
        words_per_cycle in 1u32..3,
        seed in 1u64..100_000,
    ) {
        let cfg = NetworkConfig { radix, queue_words, words_per_cycle };
        let (oracle_deliveries, oracle_fp) = run_random_traffic(false, seed, 400, ports, &cfg);
        let (flow_deliveries, flow_fp) = run_random_traffic(true, seed, 400, ports, &cfg);
        prop_assert_eq!(oracle_deliveries, flow_deliveries);
        prop_assert_eq!(oracle_fp, flow_fp);
    }

    /// Every packet injected into the omega network arrives exactly once,
    /// at the right port, for arbitrary traffic patterns.
    #[test]
    fn network_delivers_everything_exactly_once(
        radix in prop::sample::select(vec![2usize, 4, 8]),
        traffic in prop::collection::vec((0usize..32, 0usize..32, 1u8..4), 1..40),
    ) {
        let mut net = Omega::new(
            32,
            &NetworkConfig { radix, queue_words: 2, words_per_cycle: 1 },
        );
        let size = net.size();
        let mut sink = Collect::default();
        let mut expected = Vec::new();
        let mut pending: Vec<(usize, Packet)> = Vec::new();
        for (tag, &(src, dst, words)) in traffic.iter().enumerate() {
            let (src, dst) = (src % size, dst % size);
            expected.push((dst, tag as u64));
            pending.push((
                src,
                Packet {
                    dst,
                    words,
                    payload: Payload::Request(MemRequest {
                        ce: CeId(0),
                        kind: RequestKind::Read,
                        addr: tag as u64,
                        stream: Stream::Scalar,
                        issued: Cycle(0),
                        seq: 0,
                        nacked: false,
                        trace: 0,
                    }),
                },
            ));
        }
        let mut guard = 0;
        while !pending.is_empty() || !net.is_idle() {
            pending.retain(|(src, pkt)| !net.try_inject(*src, *pkt));
            net.tick(&mut sink);
            guard += 1;
            prop_assert!(guard < 100_000, "network did not drain");
        }
        let mut got = sink.got.clone();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Sync instructions are linearizable at a module: any interleaving of
    /// fetch-adds sums correctly.
    #[test]
    fn sync_fetch_add_is_atomic(deltas in prop::collection::vec(-50i32..50, 1..30)) {
        let mut v = 0i32;
        let mut sum = 0i64;
        for &d in &deltas {
            SyncInstr { test: None, op: SyncOpKind::Add(d) }.apply(&mut v);
            sum += i64::from(d);
        }
        prop_assert_eq!(i64::from(v), sum as i32 as i64);
    }

    /// The open-addressed [`SyncStore`] behind every memory module's
    /// synchronization processor behaves exactly like a hash map of
    /// zero-default words under arbitrary Test-And-Operate sequences:
    /// same outcome per instruction, same surviving words, across
    /// growth, collisions and clears.
    #[test]
    fn sync_store_matches_hashmap_model(
        ops in prop::collection::vec(
            (
                // Cluster addresses so probe chains collide, but spread
                // them with a large stride so growth rehashes matter.
                0u64..24,
                prop::sample::select(vec![0usize, 1, 2, 3]),
                -40i32..40,
            ),
            1..200,
        ),
        clear_at in prop::collection::vec(0usize..200, 0..3),
    ) {
        use std::collections::HashMap;
        use cedar_machine::memory::SyncStore;

        let mut store = SyncStore::new();
        let mut model: HashMap<u64, i32> = HashMap::new();
        for (i, &(slot, which, operand)) in ops.iter().enumerate() {
            if clear_at.contains(&i) {
                store.clear();
                model.clear();
            }
            let addr = slot * 0x1000_0001; // colliding high bits, distinct keys
            let instr = match which {
                0 => SyncInstr::read(),
                1 => SyncInstr::write(operand),
                2 => SyncInstr::fetch_add(operand),
                _ => SyncInstr::test_and_set(),
            };
            let got = instr.apply(store.get_or_insert(addr));
            let want = instr.apply(model.entry(addr).or_insert(0));
            prop_assert_eq!(got, want, "op {i}");
        }
        let mut got: Vec<(u64, i32)> = store.iter().collect();
        got.sort_unstable();
        let mut want: Vec<(u64, i32)> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The machine conserves flops: whatever the program shape, the run
    /// reports exactly the flops the program encodes.
    #[test]
    fn machine_conserves_flops(
        lens in prop::collection::vec(1u32..64, 1..6),
        reps in 1u32..4,
    ) {
        let mut m = Machine::cedar().unwrap();
        let mut b = ProgramBuilder::new();
        let mut expect = 0u64;
        b.repeat(reps, |b| {
            for &l in &lens {
                b.vector(VectorOp {
                    length: l,
                    flops_per_element: 2,
                    operand: MemOperand::None,
                });
            }
        });
        for &l in &lens {
            expect += u64::from(l) * 2 * u64::from(reps);
        }
        let r = m.run(vec![(CeId(0), b.build())], 10_000_000).unwrap();
        prop_assert_eq!(r.flops, expect);
    }

    /// Stability is scale-invariant and within (0, 1].
    #[test]
    fn stability_properties(
        mut xs in prop::collection::vec(0.001f64..1000.0, 2..12),
        scale in 0.001f64..1000.0,
        e in 0usize..3,
    ) {
        prop_assume!(xs.len() >= e + 2);
        let st = stability(&xs, e).unwrap();
        prop_assert!(st > 0.0 && st <= 1.0 + 1e-12);
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let st2 = stability(&scaled, e).unwrap();
        prop_assert!((st - st2).abs() < 1e-9 * (1.0 + st.abs()));
        // Instability is its inverse.
        let inst = instability(&xs, e).unwrap();
        prop_assert!((inst * st - 1.0).abs() < 1e-9);
        // Permutation-invariant.
        xs.reverse();
        prop_assert!((stability(&xs, e).unwrap() - st).abs() < 1e-12);
    }

    /// Banded matvec agrees with the dense definition for arbitrary
    /// bands.
    #[test]
    fn banded_matvec_matches_dense(
        n in 3usize..24,
        half in 0usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(2 * half + 1 < 2 * n);
        let bw = 2 * half + 1;
        let f = |i: usize, j: usize| ((i * 31 + j * 17 + seed as usize) % 13) as f64 - 6.0;
        let a = BandedMatrix::from_fn(n, bw, f);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 5) as f64 - 2.0).collect();
        let mut y = vec![0.0; n];
        a.matvec(&x, &mut y);
        for (i, yi) in y.iter().enumerate() {
            let want: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
            prop_assert!((yi - want).abs() < 1e-9);
        }
    }

    /// rank_update is linear in B: scaling B scales the update.
    #[test]
    fn rank_update_linear_in_b(n in 2usize..12, k in 1usize..5, s in -3.0f64..3.0) {
        let a = Matrix::from_fn(n, k, |i, j| (i + 2 * j) as f64 * 0.5 - 1.0);
        let b1 = Matrix::from_fn(k, n, |i, j| (3 * i + j) as f64 * 0.25 - 2.0);
        let bs = Matrix::from_fn(k, n, |i, j| b1[(i, j)] * s);
        let mut c1 = Matrix::zeros(n, n);
        let mut c2 = Matrix::zeros(n, n);
        rank_update(&mut c1, &a, &b1);
        rank_update(&mut c2, &a, &bs);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((c2[(i, j)] - s * c1[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// CG solves random SPD-ish penta systems to tolerance.
    #[test]
    fn cg_converges_on_diagonally_dominant_systems(n in 8usize..64, seed in 0u64..100) {
        let a = BandedMatrix::from_fn(n, 5, |i, j| {
            if i == j {
                8.0
            } else {
                -(((i + j + seed as usize) % 3) as f64) / 2.0
            }
        });
        // Symmetrize: from_fn above is already symmetric in (i+j).
        let xtrue: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&xtrue, &mut b);
        let mut x = vec![0.0; n];
        let res = cg_solve(&a, &b, &mut x, 1e-9, 4 * n);
        prop_assert!(res.converged, "residual {}", res.residual);
        let err: f64 = dot(
            &x.iter().zip(&xtrue).map(|(a, b)| a - b).collect::<Vec<_>>(),
            &x.iter().zip(&xtrue).map(|(a, b)| a - b).collect::<Vec<_>>(),
        );
        prop_assert!(err.sqrt() < 1e-5, "error {err}");
    }
}

proptest! {
    // Full-machine simulations are costly in debug builds; a handful of
    // sampled configurations is enough to exercise every law.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Conservation laws of the instrumentation layer hold for the
    /// rank-64 kernel on the full 32-CE machine, whatever the memory
    /// version and problem size: counters from every subsystem must
    /// account for each other exactly.
    #[test]
    fn stats_conservation_laws_hold_for_rank64(
        version in prop::sample::select(vec![
            Rank64Version::GmNoPrefetch,
            Rank64Version::GmPrefetch { block_words: 32 },
            Rank64Version::GmCache,
        ]),
        n in prop::sample::select(vec![32u32, 64]),
    ) {
        let clusters = 4;
        let mut m =
            Machine::new(cedar_machine::MachineConfig::cedar_with_clusters(clusters)).unwrap();
        let kern = Rank64 { n, k: 64, version };
        let progs = kern.build(&mut m, clusters);
        let r = m.run(progs, 1_000_000_000).unwrap();
        let s = &r.stats;

        // Cache: hits + misses == accesses, aggregate == sum of clusters.
        prop_assert_eq!(
            s.counter("cache.hits") + s.counter("cache.misses"),
            s.counter("cache.accesses")
        );
        for field in ["accesses", "hits", "misses", "evictions", "writebacks"] {
            let per_cluster: u64 = (0..clusters)
                .map(|c| s.counter(&format!("cache[{c}].{field}")))
                .sum();
            prop_assert_eq!(per_cluster, s.counter(&format!("cache.{field}")), "cache.{}", field);
        }

        // Networks: every packet injected was delivered (the run only
        // ends once all traffic has drained).
        for net in ["net.fwd", "net.rev"] {
            prop_assert_eq!(
                s.counter(&format!("{net}.packets_injected")),
                s.counter(&format!("{net}.packets_delivered")),
                "{} did not drain", net
            );
        }

        // Global memory: totals are the sum over the 32 banks.
        for field in ["accesses", "sync_ops", "conflict_stalls"] {
            let per_bank: u64 = (0..32)
                .map(|b| s.counter(&format!("gmem.bank[{b}].{field}")))
                .sum();
            prop_assert_eq!(per_bank, s.counter(&format!("gmem.{field}")), "gmem.{}", field);
        }

        // Per-CE cycle accounting: every engine cycle lands in exactly
        // one of busy / stall_mem / stall_sync / idle.
        let cycles = s.counter("machine.cycles");
        prop_assert_eq!(cycles, r.cycles);
        for i in 0..m.config().total_ces() {
            let accounted = s.counter(&format!("ce[{i}].busy"))
                + s.counter(&format!("ce[{i}].stall_mem"))
                + s.counter(&format!("ce[{i}].stall_sync"))
                + s.counter(&format!("ce[{i}].idle"));
            prop_assert_eq!(accounted, cycles, "CE {} cycle accounting", i);
        }
        prop_assert_eq!(
            s.counter("ce.busy") + s.counter("ce.stall_mem")
                + s.counter("ce.stall_sync") + s.counter("ce.idle"),
            cycles * m.config().total_ces() as u64
        );

        // The utilization timeline redistributes the same cycles.
        for (i, t) in m.timeline().per_ce_totals().iter().enumerate() {
            let counted = s.counter(&format!("ce[{i}].busy"))
                + s.counter(&format!("ce[{i}].stall_mem"))
                + s.counter(&format!("ce[{i}].stall_sync"))
                + s.counter(&format!("ce[{i}].idle"));
            prop_assert_eq!(t.total(), counted, "timeline total for CE {}", i);
        }

        // Prefetch: all prefetched words either arrived or went stale,
        // and the latency histogram saw each arrived word once.
        let words = s.counter("prefetch.words_returned");
        prop_assert!(words + s.counter("prefetch.stale_words") <= s.counter("prefetch.requests"));
        if let Some(h) = s.histogram("prefetch.latency") {
            prop_assert_eq!(h.total(), words);
        }
    }
}

/// A tiny deterministic stream for program generation (splitmix64), so
/// a single proptest seed expands into an arbitrary instruction mix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emit a random run of operations covering every `Op` variant the
/// lowering pipeline handles: zero- and nonzero-duration scalar work,
/// every vector operand (the pure ones are fusion bait), prefetch
/// arm/fire/consume/rewind sequences, pure and impure `Repeat`s
/// (including count zero), nested loops past the collapse depth bound,
/// self-scheduled loops over shared counters, sync ops, fences and
/// monitor events. Loop-indexed addresses exercise the flat frame
/// stack's index plumbing.
fn emit_random_ops(b: &mut ProgramBuilder, rng: &mut SplitMix, depth: u32, counters: &[CounterId]) {
    let n = 2 + rng.below(5);
    for _ in 0..n {
        // Nesting-heavy choices only below the recursion cutoff.
        match rng.below(if depth < 2 { 12 } else { 9 }) {
            0 => {
                b.scalar(rng.below(40) as u32); // 0 is a legal duration
            }
            1 => {
                b.push(Op::ScalarFlops {
                    flops: rng.below(6) as u32,
                    cycles_per_flop: 1 + rng.below(3) as u8,
                });
            }
            2 => {
                b.push(Op::ScalarGlobalRead {
                    addr: AddressExpr::new(rng.below(4096) * 8).with_coeff(0, rng.below(8) as i64),
                });
            }
            3 => {
                b.push(Op::ScalarGlobalWrite {
                    addr: AddressExpr::new(rng.below(4096) * 8).with_coeff(1, rng.below(8) as i64),
                });
            }
            4 => {
                let addr = AddressExpr::new(rng.below(2048) * 16)
                    .with_coeff(rng.below(3) as u8, rng.below(16) as i64);
                let operand = match rng.below(7) {
                    0 | 1 => MemOperand::None,
                    2 => MemOperand::GlobalRead {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    3 => MemOperand::GlobalWrite {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    4 => MemOperand::ClusterRead {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    5 => MemOperand::ClusterWrite {
                        addr,
                        stride: 1 + rng.below(3) as i64,
                    },
                    _ => {
                        if rng.below(2) == 0 {
                            MemOperand::GlobalGather { addr }
                        } else {
                            MemOperand::GlobalScatter { addr }
                        }
                    }
                };
                b.vector(VectorOp {
                    length: 1 + rng.below(32) as u32,
                    flops_per_element: rng.below(3) as u8,
                    operand,
                });
            }
            5 => {
                // Prefetch as an atomic arm / fire / consume unit (the
                // arm+fire pair is the ArmFire superinstruction's bait),
                // sometimes rewound and consumed again.
                let length = 1 + rng.below(16) as u32;
                b.push(Op::PrefetchArm {
                    length,
                    stride: 1 + rng.below(2) as i64,
                });
                b.push(Op::PrefetchFire {
                    base: AddressExpr::new(rng.below(2048) * 8),
                });
                b.vector(VectorOp {
                    length,
                    flops_per_element: 1,
                    operand: MemOperand::Prefetched,
                });
                if rng.below(3) == 0 {
                    b.push(Op::PrefetchRewind);
                    b.vector(VectorOp {
                        length,
                        flops_per_element: 2,
                        operand: MemOperand::Prefetched,
                    });
                }
            }
            6 => {
                b.push(Op::SyncOp {
                    addr: AddressExpr::new(0x10_0000 + rng.below(64) * 8),
                    instr: match rng.below(4) {
                        0 => SyncInstr::read(),
                        1 => SyncInstr::write(rng.below(100) as i32),
                        2 => SyncInstr::fetch_add(1 + rng.below(5) as i32),
                        _ => SyncInstr::test_and_set(),
                    },
                });
            }
            7 => {
                b.push(Op::Fence);
            }
            8 => {
                b.push(Op::PostEvent {
                    tag: rng.below(16) as u32,
                });
            }
            9 => {
                // A *pure* repeat — the loop-collapse superinstruction's
                // target (count 0 exercises the skip-jump).
                let count = rng.below(5) as u32;
                let work = 1 + rng.below(20) as u32;
                let veclen = 1 + rng.below(16) as u32;
                b.repeat(count, |b| {
                    b.scalar(work);
                    b.vector(VectorOp {
                        length: veclen,
                        flops_per_element: 2,
                        operand: MemOperand::None,
                    });
                });
            }
            10 => {
                // An arbitrary (usually impure) repeat, recursing.
                let count = rng.below(4) as u32;
                b.repeat(count, |b| emit_random_ops(b, rng, depth + 1, counters));
            }
            _ => {
                let counter = counters[rng.below(counters.len() as u64) as usize];
                let limit = rng.below(24);
                let chunk = 1 + rng.below(3) as u32;
                let cost = rng.below(3) as u32;
                b.self_sched_with_cost(counter, limit, chunk, cost, |b| {
                    emit_random_ops(b, rng, depth + 1, counters)
                });
            }
        }
    }
}

/// One full-machine run of a seeded random program mix: every CE gets
/// its own generated program, all CEs meet at one global barrier at the
/// end, and self-scheduled loops share two global counters across CEs.
fn run_random_programs(seed: u64, lowered: bool) -> (u64, u64, String, bool) {
    let cfg = cedar_machine::MachineConfig::cedar_with_clusters(2).with_lowered(lowered);
    let mut m = Machine::new(cfg).unwrap();
    let total = m.config().total_ces();
    let counters = [
        m.alloc_counter(CounterScope::Global),
        m.alloc_counter(CounterScope::Global),
    ];
    let barrier = m.alloc_barrier(BarrierScope::Global, total as u32);
    let progs: Vec<(CeId, Program)> = (0..total)
        .map(|ce| {
            let mut rng = SplitMix(seed ^ (ce as u64).wrapping_mul(0xA5A5_5A5A));
            let mut b = ProgramBuilder::new();
            emit_random_ops(&mut b, &mut rng, 0, &counters);
            b.push(Op::Barrier { barrier });
            (CeId(ce), b.build())
        })
        .collect();
    let r = m.run(progs, 1_000_000_000).unwrap();
    (
        r.cycles,
        m.memory_digest(),
        flat_text(&r.stats),
        m.lowered_enabled(),
    )
}

proptest! {
    // Two machine runs per case; the generated programs are short.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The lowering pipeline is byte-identical to the tree-walking
    /// interpreter on arbitrary generated programs — every `Op`
    /// variant, loop shapes past the collapse bound, shared
    /// self-scheduling counters, a global barrier: same cycle count,
    /// same memory digest, same flattened stats registry.
    #[test]
    fn lowering_is_bit_identical_to_the_interpreter(seed in 0u64..100_000) {
        let (base_cycles, base_digest, base_stats, _) = run_random_programs(seed, false);
        let (flat_cycles, flat_digest, flat_stats, _) = run_random_programs(seed, true);
        prop_assert_eq!(base_cycles, flat_cycles, "cycle count drifted");
        prop_assert_eq!(base_digest, flat_digest, "memory digest drifted");
        if base_stats != flat_stats {
            let diff: Vec<String> = base_stats
                .lines()
                .zip(flat_stats.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("  interpreter: {a}\n  lowered:     {b}"))
                .collect();
            prop_assert!(false, "stats drifted:\n{}", diff.join("\n"));
        }
    }
}
