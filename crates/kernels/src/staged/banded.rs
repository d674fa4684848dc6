//! Staged banded matrix–vector multiply on Cedar.
//!
//! §4.3 compares Cedar's CG against banded matvecs (bandwidths 3 and 11)
//! on the CM-5 and observes that "the per-processor MFLOPS of the two
//! systems on these problems are roughly equivalent". This kernel lets
//! the same banded matvec run on the simulated Cedar so the comparison
//! can be made directly: `y = A·x` by diagonals, rows block-partitioned
//! over the CEs, one prefetched stream per diagonal plus the `x` chunk.

use cedar_machine::ids::CeId;
use cedar_machine::machine::{Machine, RunReport};
use cedar_machine::program::{AddressExpr, Program};
use cedar_xylem::gang::Gang;

use super::{consume, gwrite, prefetch, vreg};

/// Staged banded matvec configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandedMatvec {
    /// System size; rows are block-partitioned over the CEs.
    pub n: u64,
    /// Odd bandwidth (3 = tridiagonal, 11 = the CM-5 study's wide case).
    pub bandwidth: u32,
    /// Repeated multiplies for a stable rate.
    pub sweeps: u32,
}

impl BandedMatvec {
    /// A study point at the CM-5 comparison sizes.
    pub fn new(n: u64, bandwidth: u32) -> BandedMatvec {
        BandedMatvec {
            n,
            bandwidth,
            sweeps: 2,
        }
    }

    /// Flops: 2 per stored entry per sweep (interior-row approximation,
    /// matching the staged emission of `bandwidth` triads per chunk).
    pub fn flops(&self) -> u64 {
        let chunks = self.n.div_ceil(32);
        u64::from(self.sweeps) * chunks * 32 * 2 * u64::from(self.bandwidth)
    }

    /// Build per-CE programs over the first `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is even or zero.
    pub fn build(&self, m: &mut Machine, clusters: usize) -> Vec<(CeId, Program)> {
        assert!(
            self.bandwidth % 2 == 1 && self.bandwidth >= 1,
            "bandwidth must be odd"
        );
        let cpc = m.config().ces_per_cluster;
        let p = (clusters * cpc) as u64;
        let chunks = self.n.div_ceil(32);
        let n = chunks * 32;
        // Layout: `bandwidth` diagonals, then x, then y.
        let diag = |d: u64| d * n;
        let x_base = u64::from(self.bandwidth) * n;
        let y_base = x_base + n;
        let mut gang = Gang::clusters(clusters, cpc);
        let bw = self.bandwidth;
        gang.each(|i, _ce, b| {
            let i = i as u64;
            let my_chunks = (chunks / p + u64::from(chunks % p > i)) as u32;
            let base_off = 32 * i;
            let stride = (32 * p) as i64;
            b.scalar(1 + (i as u32) * 4 + (i as u32) / 8);
            b.repeat(self.sweeps, |b| {
                // depth 1: my row chunks (round-robin over CEs).
                b.repeat(my_chunks, |b| {
                    let off = |base: u64| AddressExpr::new(base + base_off).with_coeff(1, stride);
                    // x chunk into registers.
                    prefetch(b, off(x_base), 32);
                    consume(b, 32, 0);
                    // one triad per diagonal.
                    for d in 0..u64::from(bw) {
                        prefetch(b, off(diag(d)), 32);
                        consume(b, 32, 2);
                    }
                    // register shifts for the off-diagonal alignment.
                    vreg(b, 32, 0);
                    gwrite(b, off(y_base), 32);
                });
            });
        });
        gang.finish()
    }

    /// MFLOPS on a fresh Cedar with `clusters` clusters.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn mflops_on_cedar(&self, clusters: usize) -> cedar_machine::Result<f64> {
        Ok(self.report_on_cedar(clusters)?.mflops)
    }

    /// As [`mflops_on_cedar`](BandedMatvec::mflops_on_cedar), but return
    /// the full run report (for simulated-cycle accounting).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn report_on_cedar(&self, clusters: usize) -> cedar_machine::Result<RunReport> {
        let mut m = Machine::new(cedar_machine::MachineConfig::cedar_with_clusters(
            clusters.clamp(1, 4),
        ))?;
        let progs = self.build(&mut m, clusters.clamp(1, 4));
        m.run(progs, 4_000_000_000)
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
        clusters: usize,
        snap: &std::path::Path,
        every: u64,
        resume: bool,
    ) -> cedar_machine::Result<RunReport> {
        let cfg = cedar_machine::MachineConfig::cedar_with_clusters(clusters.clamp(1, 4))
            .with_checkpoint(every, snap);
        let mut m = Machine::new(cfg)?;
        let progs = self.build(&mut m, clusters.clamp(1, 4));
        if resume && snap.exists() {
            m.resume_from_file(progs, snap, 4_000_000_000)
        } else {
            m.run(progs, 4_000_000_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_accounting_matches_emission() {
        let mut m = Machine::cedar().unwrap();
        let k = BandedMatvec {
            n: 4096,
            bandwidth: 3,
            sweeps: 1,
        };
        let progs = k.build(&mut m, 1);
        let r = m.run(progs, 100_000_000).unwrap();
        assert_eq!(r.flops, k.flops());
    }

    #[test]
    fn wider_bands_deliver_more_mflops() {
        // More triads per x-load and per y-store: arithmetic intensity
        // rises with bandwidth, exactly the CM-5 study's BW=3 vs BW=11
        // contrast.
        let narrow = BandedMatvec {
            n: 16_384,
            bandwidth: 3,
            sweeps: 1,
        }
        .mflops_on_cedar(4)
        .unwrap();
        let wide = BandedMatvec {
            n: 16_384,
            bandwidth: 11,
            sweeps: 1,
        }
        .mflops_on_cedar(4)
        .unwrap();
        assert!(
            wide > narrow * 1.2,
            "bandwidth 11 should outrate 3: {narrow:.1} vs {wide:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be odd")]
    fn even_bandwidth_rejected() {
        let mut m = Machine::cedar().unwrap();
        BandedMatvec {
            n: 1024,
            bandwidth: 4,
            sweeps: 1,
        }
        .build(&mut m, 1);
    }
}
