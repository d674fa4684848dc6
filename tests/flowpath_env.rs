//! The `CEDAR_NO_FLOWPATH` escape hatch.
//!
//! Kept in its own test binary (own process): the environment variable is
//! process-global, so the one test below owns it end to end and cannot
//! race other tests. It pins the override contract: `1`/`true`/`yes`
//! force the per-flit oracle sweep even when the config enables the flow
//! path, anything else (including `0`, which CI's matrix passes
//! explicitly) leaves the fast path on — and both modes produce
//! identical results.

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::machine::Machine;
use cedar_machine::MachineConfig;

fn run_contended() -> (u64, u64, bool) {
    let clusters = 4;
    let cfg = MachineConfig::cedar_with_clusters(clusters).with_fast_forward(false);
    let mut m = Machine::new(cfg).unwrap();
    let progs = Rank64 {
        n: 32,
        k: 64,
        version: Rank64Version::GmNoPrefetch,
    }
    .build(&mut m, clusters);
    let r = m.run(progs, 1_000_000_000).unwrap();
    (r.cycles, m.memory_digest(), m.flow_path_enabled())
}

#[test]
fn cedar_no_flowpath_env_forces_the_oracle() {
    // SAFETY: this binary is single-test, so no other thread reads the
    // environment concurrently.
    std::env::set_var("CEDAR_NO_FLOWPATH", "1");
    let (cycles_off, digest_off, enabled_off) = run_contended();
    assert!(!enabled_off, "CEDAR_NO_FLOWPATH=1 must force the oracle");

    std::env::set_var("CEDAR_NO_FLOWPATH", "true");
    let (_, _, enabled_true) = run_contended();
    assert!(
        !enabled_true,
        "CEDAR_NO_FLOWPATH=true must force the oracle"
    );

    // "0" is the explicit *enabled* value (the CI matrix passes it).
    std::env::set_var("CEDAR_NO_FLOWPATH", "0");
    let (cycles_on, digest_on, enabled_on) = run_contended();
    assert!(
        enabled_on,
        "CEDAR_NO_FLOWPATH=0 must leave the flow path on"
    );
    assert_eq!(cycles_off, cycles_on, "the hatch must not change the run");
    assert_eq!(digest_off, digest_on, "the hatch must not change memory");

    std::env::remove_var("CEDAR_NO_FLOWPATH");
    let (_, _, enabled_unset) = run_contended();
    assert!(enabled_unset, "unset variable must leave the flow path on");
}
