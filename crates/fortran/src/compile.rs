//! Lowering: compiled programs → per-CE machine instruction streams.
//!
//! The backend assigns every global array stream a base address (offset
//! so that streams do not start module-aligned), inserts a 32-word
//! prefetch before each vector operation with a global memory operand
//! when prefetching is enabled (§3.2 "Data Prefetching"), places
//! privatized data in small hot per-CE cluster arrays, and schedules
//! loops per their [`Schedule`]: XDOALL through a global-memory counter
//! with the runtime's 90 µs/30 µs costs, SDOALL/CDOALL nests through the
//! concurrency buses, serial sections on the gang leader with everyone
//! else at a multicluster barrier.

use cedar_machine::ids::{CeId, ClusterId};
use cedar_machine::machine::{CounterScope, Machine, RunReport};
use cedar_machine::memory::sync::SyncInstr;
use cedar_machine::program::{
    AddressExpr, BarrierId, MemOperand, Op, Program, ProgramBuilder, VectorOp,
};
use cedar_machine::sched::BarrierScope;
use cedar_machine::{CounterId, MachineConfig};
use cedar_xylem::costs::XylemCosts;
use cedar_xylem::gang::Gang;
use cedar_xylem::io::IoModel;

use crate::restructure::{CompiledLoop, CompiledProgram, Level, Schedule};

/// Scalar execution model for unvectorized code on a CE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarModel {
    /// Cycles per floating-point operation, including operand access
    /// (68020 + FPU through the cluster cache).
    pub cycles_per_flop: u8,
}

impl Default for ScalarModel {
    fn default() -> Self {
        ScalarModel { cycles_per_flop: 4 }
    }
}

/// Result of executing a compiled program on the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecReport {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated seconds at the Cedar cycle time.
    pub seconds: f64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Sustained MFLOPS.
    pub mflops: f64,
}

impl From<&RunReport> for ExecReport {
    fn from(r: &RunReport) -> ExecReport {
        ExecReport {
            cycles: r.cycles,
            seconds: r.seconds,
            flops: r.flops,
            mflops: r.mflops,
        }
    }
}

/// The compiler backend.
#[derive(Debug, Clone, Default)]
pub struct Backend {
    /// Runtime costs (also selects prefetch / Cedar-sync configuration).
    pub costs: XylemCosts,
    /// Scalar-code model.
    pub scalar: ScalarModel,
    /// I/O cost model.
    pub io: IoModel,
}

/// Pre-allocated machine resources for one compiled loop.
#[derive(Debug, Clone)]
enum LoopRes {
    None,
    Global {
        counter: CounterId,
        join: BarrierId,
    },
    Hier {
        counters: Vec<CounterId>,
        join: BarrierId,
    },
    OneCluster {
        counter: CounterId,
        join: BarrierId,
    },
    SerialJoin {
        join: BarrierId,
    },
}

impl Backend {
    /// Build with explicit costs.
    pub fn new(costs: XylemCosts) -> Backend {
        Backend {
            costs,
            ..Backend::default()
        }
    }

    /// Lower `prog` for execution on the first `clusters` clusters of a
    /// machine and return the per-CE programs. Serial-level programs run
    /// on a single CE.
    pub fn lower(
        &self,
        prog: &CompiledProgram,
        m: &mut Machine,
        clusters: usize,
    ) -> Vec<(CeId, Program)> {
        let cpc = m.config().ces_per_cluster;
        let (gang_clusters, serial_only) = if prog.level == Level::Serial {
            (1, true)
        } else {
            (clusters, false)
        };
        let p = if serial_only { 1 } else { gang_clusters * cpc };
        let mut gang = if serial_only {
            Gang::of_ces(vec![CeId(0)], cpc)
        } else {
            Gang::clusters(gang_clusters, cpc)
        };

        // Resource allocation, phase by phase, loop by loop.
        let mut next_base: u64 = 64; // global stream allocator
        let mut next_red: u64 = 1 << 38; // reduction cells
        let mut plans: Vec<Vec<(LoopRes, LoopAddrs)>> = Vec::new();
        let mut phase_barriers: Vec<Option<BarrierId>> = Vec::new();
        for ph in &prog.phases {
            let mut loop_plans = Vec::new();
            for l in &ph.loops {
                let res = if p == 1 {
                    LoopRes::None
                } else {
                    match l.schedule {
                        Schedule::Serial | Schedule::VectorSerial => LoopRes::SerialJoin {
                            join: m.alloc_barrier(BarrierScope::Global, p as u32),
                        },
                        Schedule::Xdoall => LoopRes::Global {
                            counter: m.alloc_counter(CounterScope::Global),
                            join: m.alloc_barrier(BarrierScope::Global, p as u32),
                        },
                        Schedule::SdoallCdoall => LoopRes::Hier {
                            counters: (0..gang_clusters)
                                .map(|c| m.alloc_counter(CounterScope::Cluster(ClusterId(c))))
                                .collect(),
                            join: m.alloc_barrier(BarrierScope::Global, p as u32),
                        },
                        Schedule::CdoallOneCluster => LoopRes::OneCluster {
                            counter: m.alloc_counter(CounterScope::Cluster(ClusterId(0))),
                            join: m.alloc_barrier(BarrierScope::Global, p as u32),
                        },
                    }
                };
                let addrs = LoopAddrs::alloc(l, &mut next_base, &mut next_red);
                loop_plans.push((res, addrs));
            }
            plans.push(loop_plans);
            phase_barriers.push(if p > 1 {
                Some(m.alloc_barrier(BarrierScope::Global, p as u32))
            } else {
                None
            });
        }

        let total_clusters = gang_clusters;
        gang.each(|i, ce, b| {
            let cluster = ce.cluster(cpc).0;
            let lane = ce.index_in_cluster(cpc) as u64;
            for (pi, ph) in prog.phases.iter().enumerate() {
                b.repeat(ph.calls, |b| {
                    // Serial glue and I/O on the leader.
                    let mut serial = ph.serial_cycles;
                    if let Some(io) = &ph.io {
                        serial += self.io.cycles(io.bytes, io.mode, io.ops);
                    }
                    if serial > 0 {
                        if i == 0 {
                            emit_scalar_cycles(b, serial);
                        }
                        if let Some(bar) = phase_barriers[pi] {
                            b.push(Op::Barrier { barrier: bar });
                        }
                    }
                    for (li, l) in ph.loops.iter().enumerate() {
                        let (res, addrs) = &plans[pi][li];
                        self.emit_loop(b, l, res, addrs, i, cluster, lane, total_clusters, p);
                    }
                    if ph.extra_barriers > 0 {
                        if let Some(bar) = phase_barriers[pi] {
                            for _ in 0..ph.extra_barriers {
                                b.scalar(self.costs.barrier_software);
                                b.push(Op::Barrier { barrier: bar });
                            }
                        } else {
                            // Single CE: barriers reduce to their software
                            // overhead.
                            b.scalar(self.costs.barrier_software * ph.extra_barriers);
                        }
                    }
                });
            }
        });
        gang.finish()
    }

    /// Lower and run on a fresh machine; `limit` bounds the simulation.
    ///
    /// # Errors
    ///
    /// Propagates machine errors (cycle-limit exhaustion on deadlock).
    pub fn execute(
        &self,
        prog: &CompiledProgram,
        clusters: usize,
        limit: u64,
    ) -> cedar_machine::Result<ExecReport> {
        let cfg = MachineConfig::cedar_with_clusters(clusters.clamp(1, 4));
        let r = self.execute_on(prog, cfg, clusters, limit)?;
        Ok(ExecReport::from(&r))
    }

    /// Like [`Backend::execute`] on a machine built from an explicit
    /// `cfg` (e.g. one carrying a fault-injection plan), returning the
    /// machine's full [`RunReport`] so callers can read the stats
    /// registry. The machine shape must match `clusters`.
    ///
    /// # Errors
    ///
    /// Propagates machine errors, including fault-injection outcomes
    /// (`Deadlock`, `Faulted`).
    pub fn execute_on(
        &self,
        prog: &CompiledProgram,
        cfg: MachineConfig,
        clusters: usize,
        limit: u64,
    ) -> cedar_machine::Result<RunReport> {
        let mut m = Machine::new(cfg)?;
        let programs = self.lower(prog, &mut m, clusters.clamp(1, 4));
        m.run(programs, limit)
    }

    /// [`Backend::execute_on`] continuing an interrupted run from the
    /// snapshot at `snap` instead of starting over. The program is
    /// lowered onto the fresh machine exactly as the interrupted run
    /// lowered it (the snapshot layer verifies the allocations match)
    /// and the restored state carries the run forward bit-identically.
    ///
    /// # Errors
    ///
    /// As [`Backend::execute_on`], plus snapshot read/validation
    /// failures.
    pub fn resume_on(
        &self,
        prog: &CompiledProgram,
        cfg: MachineConfig,
        clusters: usize,
        limit: u64,
        snap: &std::path::Path,
    ) -> cedar_machine::Result<RunReport> {
        let mut m = Machine::new(cfg)?;
        let programs = self.lower(prog, &mut m, clusters.clamp(1, 4));
        m.resume_from_file(programs, snap, limit)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_loop(
        &self,
        b: &mut ProgramBuilder,
        l: &CompiledLoop,
        res: &LoopRes,
        addrs: &LoopAddrs,
        gang_idx: usize,
        cluster: usize,
        lane: u64,
        clusters: usize,
        p: usize,
    ) {
        let leader = gang_idx == 0;
        match l.schedule {
            Schedule::Serial => {
                if leader {
                    self.emit_serial_scalar(b, l);
                }
                self.join(b, res);
            }
            Schedule::VectorSerial => {
                if leader {
                    let trips = clamp_u32(l.trips);
                    b.repeat(trips, |b| {
                        let depth = b.depth() - 1;
                        self.emit_body(
                            b,
                            l,
                            addrs,
                            cedar_xylem::gang::LoopVar::direct(depth),
                            lane,
                        );
                    });
                }
                self.join(b, res);
            }
            Schedule::Xdoall => {
                let LoopRes::Global { counter, .. } = res else {
                    // Single-CE gang: run it as a plain loop.
                    if leader {
                        let trips = clamp_u32(l.trips);
                        b.scalar(self.costs.xdoall_startup);
                        b.repeat(trips, |b| {
                            let depth = b.depth() - 1;
                            b.scalar(self.costs.global_fetch_cycles());
                            self.emit_body(
                                b,
                                l,
                                addrs,
                                cedar_xylem::gang::LoopVar::direct(depth),
                                lane,
                            );
                        });
                    }
                    self.emit_reduction(b, l, addrs);
                    self.join(b, res);
                    return;
                };
                b.scalar(self.costs.xdoall_startup);
                let fetch = self.costs.global_fetch_cycles();
                b.self_sched(*counter, l.trips, 1, |b| {
                    let depth = b.depth() - 1;
                    b.scalar(fetch);
                    self.emit_body(b, l, addrs, cedar_xylem::gang::LoopVar::direct(depth), lane);
                });
                self.emit_reduction(b, l, addrs);
                self.join(b, res);
            }
            Schedule::SdoallCdoall => {
                let LoopRes::Hier { counters, .. } = res else {
                    if leader {
                        let trips = clamp_u32(l.trips);
                        b.scalar(self.costs.cdoall_startup);
                        b.repeat(trips, |b| {
                            let depth = b.depth() - 1;
                            self.emit_body(
                                b,
                                l,
                                addrs,
                                cedar_xylem::gang::LoopVar::direct(depth),
                                lane,
                            );
                        });
                    }
                    self.emit_reduction(b, l, addrs);
                    self.join(b, res);
                    return;
                };
                let (start, count) = split(l.trips, clusters as u64, cluster as u64);
                b.scalar(self.costs.sdoall_startup + self.costs.cdoall_startup);
                let dispatch = self.costs.cluster_dispatch_extra();
                b.self_sched_with_cost(counters[cluster], count, l.chunk, dispatch, |b| {
                    let depth = b.depth() - 1;
                    self.emit_body(
                        b,
                        l,
                        addrs,
                        cedar_xylem::gang::LoopVar {
                            depth,
                            scale: 1,
                            offset: start as i64,
                        },
                        lane,
                    );
                });
                self.emit_reduction(b, l, addrs);
                self.join(b, res);
            }
            Schedule::CdoallOneCluster => {
                if let LoopRes::OneCluster { counter, .. } = res {
                    if cluster == 0 {
                        b.scalar(self.costs.cdoall_startup);
                        let dispatch = self.costs.cluster_dispatch_extra();
                        b.self_sched_with_cost(*counter, l.trips, l.chunk, dispatch, |b| {
                            let depth = b.depth() - 1;
                            self.emit_body(
                                b,
                                l,
                                addrs,
                                cedar_xylem::gang::LoopVar::direct(depth),
                                lane,
                            );
                        });
                        self.emit_reduction(b, l, addrs);
                    }
                } else if leader {
                    let trips = clamp_u32(l.trips);
                    b.scalar(self.costs.cdoall_startup);
                    b.repeat(trips, |b| {
                        let depth = b.depth() - 1;
                        self.emit_body(
                            b,
                            l,
                            addrs,
                            cedar_xylem::gang::LoopVar::direct(depth),
                            lane,
                        );
                    });
                    self.emit_reduction(b, l, addrs);
                }
                self.join(b, res);
            }
        }
        let _ = p;
    }

    fn join(&self, b: &mut ProgramBuilder, res: &LoopRes) {
        let join = match res {
            LoopRes::None => return,
            LoopRes::Global { join, .. }
            | LoopRes::Hier { join, .. }
            | LoopRes::OneCluster { join, .. }
            | LoopRes::SerialJoin { join } => *join,
        };
        b.push(Op::Barrier { barrier: join });
    }

    /// One iteration's operations at vector speed.
    fn emit_body(
        &self,
        b: &mut ProgramBuilder,
        l: &CompiledLoop,
        addrs: &LoopAddrs,
        lv: cedar_xylem::gang::LoopVar,
        lane: u64,
    ) {
        let mix = &l.body;
        let len = mix.vector_len;
        let n_global = if l.privatized {
            (mix.global_frac * f64::from(mix.vector_ops)).round() as u32
        } else {
            mix.vector_ops
        };
        for v in 0..mix.vector_ops {
            if v < n_global {
                // Global stream: iteration-strided.
                let base = addrs.stream(v);
                let addr = lv.addr(base, i64::from(len));
                if self.costs.use_prefetch {
                    b.push(Op::PrefetchArm {
                        length: len,
                        stride: 1,
                    });
                    b.push(Op::PrefetchFire { base: addr });
                    b.vector(VectorOp {
                        length: len,
                        flops_per_element: mix.flops_per_elem,
                        operand: MemOperand::Prefetched,
                    });
                } else {
                    b.vector(VectorOp {
                        length: len,
                        flops_per_element: mix.flops_per_elem,
                        operand: MemOperand::GlobalRead { addr, stride: 1 },
                    });
                }
            } else {
                // Privatized loop-local data: a small hot per-CE cluster
                // array, reused every iteration.
                let addr = AddressExpr::new(lane * 8192 + u64::from(v) * u64::from(len));
                b.vector(VectorOp {
                    length: len,
                    flops_per_element: mix.flops_per_elem,
                    operand: MemOperand::ClusterRead { addr, stride: 1 },
                });
            }
        }
        for w in 0..mix.global_writes {
            let addr = lv.addr(addrs.write_stream(w), i64::from(len));
            b.vector(VectorOp {
                length: len,
                flops_per_element: 0,
                operand: MemOperand::GlobalWrite { addr, stride: 1 },
            });
        }
        for s in 0..mix.scalar_global_reads {
            b.push(Op::ScalarGlobalRead {
                addr: lv.addr(addrs.scalar_base + u64::from(s) * 7919, 13),
            });
        }
        if mix.scalar_cycles > 0 {
            b.scalar(mix.scalar_cycles);
        }
    }

    /// The whole loop at scalar speed on the leader.
    fn emit_serial_scalar(&self, b: &mut ProgramBuilder, l: &CompiledLoop) {
        let fpi = l.body.flops_per_iter();
        let extra = u64::from(l.body.scalar_cycles) + 13 * u64::from(l.body.scalar_global_reads);
        let trips = clamp_u32(l.trips);
        let cpf = self.scalar.cycles_per_flop;
        b.repeat(trips, |b| {
            if fpi > 0 {
                b.push(Op::ScalarFlops {
                    flops: clamp_u32(fpi),
                    cycles_per_flop: cpf,
                });
            }
            if extra > 0 {
                b.scalar(clamp_u32(extra));
            }
        });
    }

    fn emit_reduction(&self, b: &mut ProgramBuilder, l: &CompiledLoop, addrs: &LoopAddrs) {
        if l.reduction {
            b.push(Op::SyncOp {
                addr: AddressExpr::new(addrs.reduction_cell),
                instr: SyncInstr::fetch_add(1),
            });
        }
    }
}

/// Global-memory stream bases for one loop.
#[derive(Debug, Clone)]
struct LoopAddrs {
    read_base: u64,
    write_base: u64,
    scalar_base: u64,
    reduction_cell: u64,
    stream_words: u64,
}

impl LoopAddrs {
    fn alloc(l: &CompiledLoop, next: &mut u64, next_red: &mut u64) -> LoopAddrs {
        let stream_words = l.trips * u64::from(l.body.vector_len) + 64;
        let reads = u64::from(l.body.vector_ops);
        let writes = u64::from(l.body.global_writes);
        let read_base = *next;
        // The +33 offsets successive streams off module alignment.
        *next += reads * (stream_words + 33);
        let write_base = *next;
        *next += writes * (stream_words + 33);
        let scalar_base = *next;
        *next += 1 << 16;
        let reduction_cell = *next_red;
        *next_red += 1;
        LoopAddrs {
            read_base,
            write_base,
            scalar_base,
            reduction_cell,
            stream_words,
        }
    }

    fn stream(&self, v: u32) -> u64 {
        self.read_base + u64::from(v) * (self.stream_words + 33)
    }

    fn write_stream(&self, w: u32) -> u64 {
        self.write_base + u64::from(w) * (self.stream_words + 33)
    }
}

/// Emit an arbitrary (u64) number of busy scalar cycles as chunked ops.
fn emit_scalar_cycles(b: &mut ProgramBuilder, cycles: u64) {
    const CHUNK: u64 = 1 << 30;
    let full = (cycles / CHUNK) as u32;
    if full > 0 {
        b.repeat(full, |b| {
            b.scalar(CHUNK as u32);
        });
    }
    let rest = (cycles % CHUNK) as u32;
    if rest > 0 {
        b.scalar(rest);
    }
}

/// Block-partition helper (first parts get the remainder).
fn split(total: u64, parts: u64, i: u64) -> (u64, u64) {
    let base = total / parts;
    let extra = total % parts;
    let count = base + u64::from(i < extra);
    let start = i * base + i.min(extra);
    (start, count)
}

fn clamp_u32(v: u64) -> u32 {
    v.min(u64::from(u32::MAX)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BodyMix, DataHome, LoopNest, Phase, SourceProgram};
    use crate::restructure::{Level, Restructurer};

    const LIMIT: u64 = 500_000_000;

    fn simple_program(trips: u64, calls: u32) -> SourceProgram {
        let mut p = SourceProgram::new("test");
        let mut ph = Phase::new("main", calls);
        ph.loops.push(LoopNest {
            trips,
            body: BodyMix {
                vector_ops: 2,
                vector_len: 32,
                flops_per_elem: 2,
                global_frac: 1.0,
                global_writes: 1,
                scalar_global_reads: 0,
                scalar_cycles: 10,
            },
            needs: vec![],
            parallel: true,
            vectorizable: true,
            home: DataHome::Global,
        });
        ph.serial_cycles = 500;
        p.phases.push(ph);
        p
    }

    fn run(level: Level, clusters: usize, src: &SourceProgram) -> ExecReport {
        let r = Restructurer::default();
        let compiled = r.restructure(src, level);
        Backend::default()
            .execute(&compiled, clusters, LIMIT)
            .unwrap()
    }

    #[test]
    fn flops_match_source_at_every_level() {
        let src = simple_program(200, 2);
        for level in [Level::Serial, Level::KapCedar, Level::Automatable] {
            let rep = run(level, 4, &src);
            assert_eq!(rep.flops, src.flops(), "level {level:?}");
        }
    }

    #[test]
    fn automatable_beats_serial_substantially() {
        let src = simple_program(400, 1);
        let serial = run(Level::Serial, 4, &src);
        let auto = run(Level::Automatable, 4, &src);
        let speedup = serial.seconds / auto.seconds;
        assert!(
            speedup > 4.0,
            "speedup {speedup:.1} too low (serial {} vs auto {})",
            serial.cycles,
            auto.cycles
        );
    }

    #[test]
    fn serial_runs_at_scalar_rate() {
        let src = simple_program(100, 1);
        let rep = run(Level::Serial, 1, &src);
        // 100 iters × 128 flops × 4 cycles ≈ 51K cycles + glue.
        let per_flop = rep.cycles as f64 / rep.flops as f64;
        assert!(
            per_flop > 3.5 && per_flop < 6.0,
            "scalar cycles/flop = {per_flop:.1}"
        );
    }

    #[test]
    fn more_clusters_help_parallel_codes() {
        let src = simple_program(1024, 1);
        let one = run(Level::Automatable, 1, &src);
        let four = run(Level::Automatable, 4, &src);
        assert!(
            four.seconds < one.seconds * 0.5,
            "4 clusters {:.0} vs 1 cluster {:.0} cycles",
            four.cycles as f64,
            one.cycles as f64
        );
    }

    #[test]
    fn without_prefetch_is_slower_on_global_streams() {
        let src = simple_program(512, 1);
        let r = Restructurer::default();
        let compiled = r.restructure(&src, Level::Automatable);
        let with = Backend::new(XylemCosts::cedar())
            .execute(&compiled, 4, LIMIT)
            .unwrap();
        let without = Backend::new(XylemCosts::cedar_without_prefetch())
            .execute(&compiled, 4, LIMIT)
            .unwrap();
        assert!(
            without.seconds > with.seconds * 1.5,
            "no-prefetch should hurt: with={} without={}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn repeated_phases_reuse_loop_resources() {
        // calls > 1 exercises epoch-addressed counters/barriers inside a
        // Repeat — the pattern that would deadlock with naive reuse.
        let src = simple_program(64, 5);
        let rep = run(Level::Automatable, 2, &src);
        assert_eq!(rep.flops, src.flops());
    }

    #[test]
    fn io_cost_charged_on_leader() {
        use cedar_xylem::io::IoMode;
        let mut src = simple_program(16, 1);
        src.phases[0].io = Some(crate::ir::IoSpec {
            bytes: 1_000_000,
            mode: IoMode::Formatted,
            ops: 10,
            removable: true,
        });
        let with_io = run(Level::Automatable, 2, &src);
        src.phases[0].io = None;
        let without = run(Level::Automatable, 2, &src);
        assert!(
            with_io.cycles > without.cycles + 10_000_000,
            "formatted IO should dominate: {} vs {}",
            with_io.cycles,
            without.cycles
        );
    }
}
