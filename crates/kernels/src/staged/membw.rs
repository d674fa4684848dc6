//! Memory-system characterization probes.
//!
//! The paper grounds its Table 1 interpretation in "the observed maximum
//! bandwidth of memory system characterization benchmarks" \[GJTV91\].
//! These probes measure sustainable word rates of each level of the
//! hierarchy and each access mode, at 1–32 CEs: global loads (direct and
//! prefetched), global stores, cluster-cache streams (warm), and
//! cluster-memory streams (cold, cache-missing).

use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::{AddressExpr, MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::MachineConfig;

/// The access mode a probe exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Direct global loads (no prefetch): the 13-cycle/2-outstanding mode.
    GlobalDirect,
    /// Prefetched global loads (32-word compiler blocks).
    GlobalPrefetched,
    /// Global stores.
    GlobalStore,
    /// Cluster-cache streams, warm (second pass over a cache-resident
    /// region).
    CacheWarm,
    /// Cluster-memory streams, cold (each pass touches fresh lines).
    ClusterCold,
}

impl Probe {
    /// All probes in report order.
    pub const ALL: [Probe; 5] = [
        Probe::GlobalDirect,
        Probe::GlobalPrefetched,
        Probe::GlobalStore,
        Probe::CacheWarm,
        Probe::ClusterCold,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Probe::GlobalDirect => "global load (direct)",
            Probe::GlobalPrefetched => "global load (prefetch)",
            Probe::GlobalStore => "global store",
            Probe::CacheWarm => "cluster cache (warm)",
            Probe::ClusterCold => "cluster memory (cold)",
        }
    }
}

/// One probe measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwPoint {
    pub probe: Probe,
    pub ces: usize,
    /// Aggregate words per CE cycle.
    pub words_per_cycle: f64,
    /// The same in MB/s at the 170 ns cycle.
    pub mb_per_s: f64,
}

/// Words each CE moves per measurement.
const WORDS_PER_CE: u64 = 4096;

fn build(probe: Probe, ces: usize, cpc: usize) -> Vec<(CeId, Program)> {
    let mut progs = Vec::new();
    for i in 0..ces {
        let mut b = ProgramBuilder::new();
        b.scalar(1 + (i as u32) * 4 + (i as u32) / 8);
        let region = (i as u64) * (WORDS_PER_CE * 4) + 3 * i as u64;
        let blocks = (WORDS_PER_CE / 32) as u32;
        match probe {
            Probe::GlobalDirect => {
                b.repeat(blocks, |b| {
                    b.vector(VectorOp {
                        length: 32,
                        flops_per_element: 0,
                        operand: MemOperand::GlobalRead {
                            addr: AddressExpr::new(region).with_coeff(0, 32),
                            stride: 1,
                        },
                    });
                });
            }
            Probe::GlobalPrefetched => {
                b.repeat(blocks, |b| {
                    b.push(Op::PrefetchArm {
                        length: 32,
                        stride: 1,
                    });
                    b.push(Op::PrefetchFire {
                        base: AddressExpr::new(region).with_coeff(0, 32),
                    });
                    b.vector(VectorOp {
                        length: 32,
                        flops_per_element: 0,
                        operand: MemOperand::Prefetched,
                    });
                });
            }
            Probe::GlobalStore => {
                b.repeat(blocks, |b| {
                    b.vector(VectorOp {
                        length: 32,
                        flops_per_element: 0,
                        operand: MemOperand::GlobalWrite {
                            addr: AddressExpr::new(region).with_coeff(0, 32),
                            stride: 1,
                        },
                    });
                });
                b.push(Op::Fence);
            }
            Probe::CacheWarm => {
                // Region sized to stay cache-resident per CE (4K words =
                // 32 KB; 8 CEs × 32 KB = 256 KB < 512 KB).
                let lane_region = (i % cpc) as u64 * WORDS_PER_CE;
                for _pass in 0..2 {
                    b.repeat(blocks, |b| {
                        b.vector(VectorOp {
                            length: 32,
                            flops_per_element: 0,
                            operand: MemOperand::ClusterRead {
                                addr: AddressExpr::new(lane_region).with_coeff(0, 32),
                                stride: 1,
                            },
                        });
                    });
                }
            }
            Probe::ClusterCold => {
                // Each CE sweeps a large private region once: every line
                // misses to cluster memory.
                let lane_region = (i % cpc) as u64 * (WORDS_PER_CE * 8);
                b.repeat(blocks, |b| {
                    b.vector(VectorOp {
                        length: 32,
                        flops_per_element: 0,
                        operand: MemOperand::ClusterRead {
                            addr: AddressExpr::new(lane_region).with_coeff(0, 32),
                            stride: 1,
                        },
                    });
                });
            }
        }
        progs.push((CeId(i), b.build()));
    }
    progs
}

/// Run one probe at `ces` CEs; returns aggregate words per cycle.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure(probe: Probe, ces: usize) -> cedar_machine::Result<BwPoint> {
    let clusters = ces.div_ceil(8).clamp(1, 4);
    let mut m = Machine::new(MachineConfig::cedar_with_clusters(clusters))?;
    let cpc = m.config().ces_per_cluster;
    let cycle_ns = m.config().cycle_ns;
    let progs = build(probe, ces, cpc);
    let r = m.run(progs, 2_000_000_000)?;
    let mut words = WORDS_PER_CE * ces as u64;
    if probe == Probe::CacheWarm {
        words *= 2; // two passes
    }
    let wpc = words as f64 / r.cycles as f64;
    Ok(BwPoint {
        probe,
        ces,
        words_per_cycle: wpc,
        mb_per_s: wpc * 8.0 / (cycle_ns * 1e-9) / 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_orders_single_ce_rates() {
        let direct = measure(Probe::GlobalDirect, 1).unwrap().words_per_cycle;
        let pref = measure(Probe::GlobalPrefetched, 1).unwrap().words_per_cycle;
        let warm = measure(Probe::CacheWarm, 1).unwrap().words_per_cycle;
        assert!(
            direct < pref && pref < warm * 2.0,
            "hierarchy: direct {direct:.2} < prefetch {pref:.2} <~ cache {warm:.2}"
        );
        // The paper's numbers: direct ~0.15 w/c, prefetch ~0.5-0.7, cache ~0.7+.
        assert!(direct < 0.25);
        assert!(pref > 0.4);
        assert!(warm > 0.5);
    }

    #[test]
    fn global_bandwidth_saturates_by_32_ces() {
        let at8 = measure(Probe::GlobalPrefetched, 8).unwrap();
        let at32 = measure(Probe::GlobalPrefetched, 32).unwrap();
        // Aggregate grows but sublinearly: the 16 w/c module bound.
        assert!(at32.words_per_cycle > at8.words_per_cycle);
        assert!(
            at32.words_per_cycle < 16.5,
            "cannot exceed the module service bound: {:.1}",
            at32.words_per_cycle
        );
        // And per-CE efficiency drops.
        assert!(at32.words_per_cycle / 32.0 < at8.words_per_cycle / 8.0);
    }

    #[test]
    fn store_bandwidth_is_positive_and_bounded() {
        let p = measure(Probe::GlobalStore, 8).unwrap();
        assert!(p.words_per_cycle > 0.5 && p.words_per_cycle < 16.5);
        assert!(p.mb_per_s > 0.0);
    }
}
