//! The staged conjugate gradient solver (Table 2 "CG" and the PPT4
//! scalability study).
//!
//! Each iteration performs a 5-diagonal matrix–vector product plus vector
//! and reduction operations of size `N` (§4.3). Rows are block-partitioned
//! over the CEs; global reductions go through the memory-based
//! synchronization instructions, and each phase ends at a multicluster
//! barrier — the structure whose fixed costs make small problems
//! *intermediate* and large problems *high* performance on Cedar.

use cedar_machine::ids::CeId;
use cedar_machine::machine::{Machine, RunReport};
use cedar_machine::memory::sync::SyncInstr;
use cedar_machine::program::{AddressExpr, Op, Program};
use cedar_machine::sched::BarrierScope;
use cedar_xylem::gang::Gang;

use super::{consume, gwrite, prefetch, vreg};

/// Staged CG configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedCg {
    /// System size `N` (1 K–172 K in the paper's study).
    pub n: u64,
    /// CG iterations to run (timing is per-iteration-stable after 1).
    pub iterations: u32,
}

/// Runtime cost charged at the head of each of CG's parallel phases
/// (loop dispatch through the runtime library) — the fixed cost that
/// makes small systems intermediate and large systems high band.
const PHASE_OVERHEAD: u32 = 250;

/// Software cycles around each multicluster barrier.
const BARRIER_SOFTWARE: u32 = 30;

impl StagedCg {
    /// A mid-sized study point.
    pub fn new(n: u64) -> StagedCg {
        StagedCg { n, iterations: 4 }
    }

    /// Flops per the CG iteration breakdown (~20·N per iteration).
    pub fn flops(&self) -> u64 {
        // matvec: 5 triads ×2 flops; dots: 2 ×2; axpy/updates: 3 ×2.
        u64::from(self.iterations) * self.n_padded() * 20
    }

    fn n_padded(&self) -> u64 {
        self.n.div_ceil(32) * 32
    }

    /// Build per-CE programs over the first `clusters` clusters of `m`
    /// using `ces` CEs (≤ clusters × CEs-per-cluster; the study varies P
    /// from 2 to 32).
    ///
    /// # Panics
    ///
    /// Panics if `ces` is zero or exceeds the machine.
    pub fn build(&self, m: &mut Machine, ces: usize) -> Vec<(CeId, Program)> {
        let cpc = m.config().ces_per_cluster;
        assert!(ces > 0 && ces <= m.config().total_ces());
        let p = ces as u64;
        let chunks = self.n_padded() / 32;
        // Layout: 5 diagonals, then p, q, r, x vectors.
        let n = self.n_padded();
        let diag = |d: u64| d * n;
        let p_base = 5 * n;
        let q_base = 6 * n;
        let r_base = 7 * n;
        let x_base = 8 * n;
        // Reduction cells: one per dot product per iteration (epochless:
        // use a distinct address per (iteration, dot) to avoid resets).
        let red_base = 9 * n + 512;

        let barrier = m.alloc_barrier(BarrierScope::Global, ces as u32);
        // Chunk ownership: chunk c belongs to CE c mod p (round-robin so
        // odd sizes stay balanced).
        let my_chunks = |i: u64| -> u32 { (chunks / p + u64::from(chunks % p > i)) as u32 };

        let gang = {
            let mut gang = Gang::of_ces((0..ces).map(CeId).collect(), cpc);
            gang.each(|i, _ce, b| {
                let i = i as u64;
                let nchunks = my_chunks(i);
                // Chunk index = i + p·t ⇒ word offset = 32·(i + p·t).
                let base_off = 32 * i;
                let stride = (32 * p) as i64;
                // Start skew: spreads the CEs' module-sweep phases.
                b.scalar(1 + (i as u32) * 4 + (i as u32) / 8);
                // depth 0: iteration loop.
                b.repeat(self.iterations, |b| {
                    // ---- matvec q = A·p ----
                    b.scalar(PHASE_OVERHEAD);
                    b.repeat(nchunks, |b| {
                        let off =
                            |base: u64| AddressExpr::new(base + base_off).with_coeff(1, stride);
                        prefetch(b, off(p_base), 32);
                        consume(b, 32, 0);
                        for d in 0..5 {
                            prefetch(b, off(diag(d)), 32);
                            consume(b, 32, 2);
                        }
                        // shift/recombine of p neighbours.
                        vreg(b, 32, 0);
                        gwrite(b, off(q_base), 32);
                    });
                    // ---- dot p·q (local partial then global reduce) ----
                    b.scalar(PHASE_OVERHEAD);
                    b.repeat(nchunks, |b| {
                        let off =
                            |base: u64| AddressExpr::new(base + base_off).with_coeff(1, stride);
                        prefetch(b, off(q_base), 32);
                        consume(b, 32, 2);
                    });
                    b.push(Op::SyncOp {
                        addr: AddressExpr::new(red_base).with_coeff(0, 4),
                        instr: SyncInstr::fetch_add(1),
                    });
                    b.scalar(BARRIER_SOFTWARE);
                    b.push(Op::Barrier { barrier });
                    b.scalar(8); // alpha = rr/pq
                                 // ---- x += alpha p ; r -= alpha q ----
                    b.scalar(PHASE_OVERHEAD);
                    b.repeat(nchunks, |b| {
                        let off =
                            |base: u64| AddressExpr::new(base + base_off).with_coeff(1, stride);
                        prefetch(b, off(p_base), 32);
                        consume(b, 32, 2);
                        gwrite(b, off(x_base), 32);
                        prefetch(b, off(q_base), 32);
                        consume(b, 32, 2);
                        gwrite(b, off(r_base), 32);
                    });
                    // ---- dot r·r then beta, p = r + beta p ----
                    b.scalar(PHASE_OVERHEAD);
                    b.repeat(nchunks, |b| {
                        let off =
                            |base: u64| AddressExpr::new(base + base_off).with_coeff(1, stride);
                        prefetch(b, off(r_base), 32);
                        consume(b, 32, 2);
                    });
                    b.push(Op::SyncOp {
                        addr: AddressExpr::new(red_base + 1).with_coeff(0, 4),
                        instr: SyncInstr::fetch_add(1),
                    });
                    b.scalar(BARRIER_SOFTWARE);
                    b.push(Op::Barrier { barrier });
                    b.scalar(8); // beta
                    b.scalar(PHASE_OVERHEAD);
                    b.repeat(nchunks, |b| {
                        let off =
                            |base: u64| AddressExpr::new(base + base_off).with_coeff(1, stride);
                        prefetch(b, off(r_base), 32);
                        consume(b, 32, 2);
                        gwrite(b, off(p_base), 32);
                    });
                    b.scalar(BARRIER_SOFTWARE);
                    b.push(Op::Barrier { barrier });
                });
            });
            gang
        };
        gang.finish()
    }

    /// Run on a fresh Cedar restricted to `ces` CEs and return MFLOPS.
    ///
    /// # Errors
    ///
    /// Propagates machine errors (notably the cycle limit on deadlock).
    pub fn mflops_on_cedar(&self, ces: usize) -> cedar_machine::Result<f64> {
        // Use the intended flop count (identical to emitted — checked in
        // tests) so rates stay comparable across P.
        Ok(self.report_on_cedar(ces)?.mflops)
    }

    /// Run on a fresh Cedar restricted to `ces` CEs and return the full
    /// run report (the throughput benchmarks need simulated cycle counts,
    /// not just the rate).
    ///
    /// # Errors
    ///
    /// Propagates machine errors (notably the cycle limit on deadlock).
    pub fn report_on_cedar(&self, ces: usize) -> cedar_machine::Result<RunReport> {
        let clusters = ces.div_ceil(8).max(1);
        let mut m = Machine::new(cedar_machine::MachineConfig::cedar_with_clusters(
            clusters.min(4),
        ))?;
        let progs = self.build(&mut m, ces);
        m.run(progs, 2_000_000_000)
    }

    /// [`Self::report_on_cedar`] with machine-level crash recovery: the
    /// run auto-checkpoints to `snap` every `every` cycles, and with
    /// `resume` an existing snapshot continues the interrupted run
    /// (bit-identically) instead of restarting it.
    ///
    /// # Errors
    ///
    /// As [`Self::report_on_cedar`], plus snapshot read/validation
    /// failures.
    pub fn report_on_cedar_recoverable(
        &self,
        ces: usize,
        snap: &std::path::Path,
        every: u64,
        resume: bool,
    ) -> cedar_machine::Result<RunReport> {
        let clusters = ces.div_ceil(8).max(1);
        let cfg = cedar_machine::MachineConfig::cedar_with_clusters(clusters.min(4))
            .with_checkpoint(every, snap);
        let mut m = Machine::new(cfg)?;
        let progs = self.build(&mut m, ces);
        if resume && snap.exists() {
            m.resume_from_file(progs, snap, 2_000_000_000)
        } else {
            m.run(progs, 2_000_000_000)
        }
    }
}

/// The flop accounting per emitted iteration chunk must match
/// [`StagedCg::flops`]: 5 triads (10) + 3 dots/updates… verified by test.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_flop_accounting_matches_model() {
        let mut m = Machine::cedar().unwrap();
        let cg = StagedCg {
            n: 2048,
            iterations: 2,
        };
        let progs = cg.build(&mut m, 8);
        let r = m.run(progs, 100_000_000).unwrap();
        assert_eq!(r.flops, cg.flops());
    }

    #[test]
    fn cg_balances_chunks_over_uneven_ce_counts() {
        let mut m = Machine::cedar().unwrap();
        let cg = StagedCg {
            n: 3200, // 100 chunks over 6 CEs: 17,17,17,17,16,16
            iterations: 1,
        };
        let progs = cg.build(&mut m, 6);
        let r = m.run(progs, 100_000_000).unwrap();
        assert_eq!(r.flops, cg.flops());
        let flops: Vec<u64> = r.ce_stats.iter().map(|(_, s)| s.flops).collect();
        let max = *flops.iter().max().unwrap();
        let min = *flops.iter().min().unwrap();
        assert!(max - min <= max / 10, "imbalance: {flops:?}");
    }

    #[test]
    fn cg_scales_with_more_ces_on_large_problems() {
        let cg = StagedCg {
            n: 32 * 1024,
            iterations: 2,
        };
        let m8 = cg.mflops_on_cedar(8).unwrap();
        let m32 = cg.mflops_on_cedar(32).unwrap();
        assert!(
            m32 > 1.8 * m8,
            "32 CEs should be much faster than 8 on N=32K: {m8:.1} -> {m32:.1}"
        );
    }

    #[test]
    fn cg_efficiency_collapses_on_tiny_problems() {
        let eff = |n: u64, ces: usize| {
            let cg = StagedCg { n, iterations: 2 };
            let mf = cg.mflops_on_cedar(ces).unwrap();
            let one = StagedCg { n, iterations: 2 }.mflops_on_cedar(1).unwrap();
            mf / (one * ces as f64)
        };
        let small = eff(1024, 32);
        let large = eff(64 * 1024, 32);
        assert!(
            large > small,
            "efficiency should grow with N: small={small:.2} large={large:.2}"
        );
    }
}
