//! The Cedar physical address map.
//!
//! The physical address space is divided into two halves: cluster memory
//! in the lower half, globally shared memory in the upper half (§2
//! "Memory Hierarchy"). The simulator addresses memory in 64-bit words and
//! keeps the space explicit with [`MemSpace`] rather than encoding it in a
//! high address bit; global memory is double-word (8-byte) interleaved and
//! aligned, so word `w` lives in module `w mod modules`.

use crate::ids::{ModuleId, PageId};

/// Which half of the physical address space an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Cluster-local memory, accessible only to CEs of that cluster and
    /// cached by the cluster's shared cache.
    Cluster,
    /// Global shared memory, reached through the omega networks; never
    /// cached (coherence for global data is maintained in software).
    Global,
}

/// The global-memory module holding word `addr` under `modules`-way
/// double-word interleaving.
///
/// # Examples
///
/// ```
/// use cedar_machine::memory::address::module_of;
/// use cedar_machine::ids::ModuleId;
/// assert_eq!(module_of(0, 32), ModuleId(0));
/// assert_eq!(module_of(33, 32), ModuleId(1));
/// ```
#[inline]
pub fn module_of(addr: u64, modules: usize) -> ModuleId {
    let m = modules as u64;
    // Every prefetched word pays this, and a power-of-two module count
    // (Cedar's 32) needs a mask, not a hardware divide.
    ModuleId(if m.is_power_of_two() {
        addr & (m - 1)
    } else {
        addr % m
    } as usize)
}

/// The 4 KB page containing word `addr` (`page_words` = words per page).
#[inline]
pub fn page_of(addr: u64, page_words: u64) -> PageId {
    PageId(if page_words.is_power_of_two() {
        addr >> page_words.trailing_zeros()
    } else {
        addr / page_words
    })
}

/// True when `a` and `b` lie on different pages — the PFU suspends at
/// page crossings because it only holds physical addresses.
pub fn crosses_page(a: u64, b: u64, page_words: u64) -> bool {
    page_of(a, page_words) != page_of(b, page_words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_consecutive_words() {
        let hits: Vec<usize> = (0..64).map(|w| module_of(w, 32).0).collect();
        // Words 0..32 hit each module exactly once, then wrap.
        assert_eq!(&hits[..32], &(0..32).collect::<Vec<_>>()[..]);
        assert_eq!(hits[32], 0);
    }

    #[test]
    fn pages_are_512_words() {
        assert_eq!(page_of(0, 512), PageId(0));
        assert_eq!(page_of(511, 512), PageId(0));
        assert_eq!(page_of(512, 512), PageId(1));
        assert!(crosses_page(511, 512, 512));
        assert!(!crosses_page(0, 511, 512));
    }
}
