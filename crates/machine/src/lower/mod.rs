//! Ahead-of-run lowering of CE programs to flat micro-op streams.
//!
//! The interpreter in [`ce`](crate::ce) walks the recursive [`Block`]
//! tree, re-resolving an `Arc` and re-decoding a full [`Op`] — address
//! expressions, nested blocks and all — every time it dispatches. This
//! module compiles a [`Program`] once, before the run starts, into an
//! [`LProgram`]: a single flat array of small `Copy` micro-ops with
//! resolved branch targets (loop heads and ends become indices patched by
//! label fixups, VCode-style), address expressions interned into a side
//! table, and *superinstructions* fused out of the dominant sequences:
//!
//! * **Timed runs** — maximal straight-line stretches of purely timed
//!   work (scalar busy cycles, scalar flops, register-register vector
//!   ops) collapse into one [`UOp::TimedRun`] that charges the whole
//!   segment as a single stall. The engine parks in `Stall { until }`,
//!   reports the segment end through `next_event`, and the run loop
//!   bulk-credits the busy cycles — one dispatch instead of one per op.
//! * **Pure loop collapse** — a `Repeat` whose body is entirely timed
//!   work folds into the enclosing timed run: `count × body` cycles,
//!   flops and elements, zero interpretive loop overhead.
//! * **Arm+fire pairs** — a `PrefetchArm` immediately followed by a
//!   `PrefetchFire` becomes one [`UOp::ArmFire`] slot executed in two
//!   cycle-exact phases.
//!
//! # The oracle contract
//!
//! Lowered execution must be **bit-for-bit identical** to the
//! interpreter: same cycle counts, same per-cycle busy/stall/idle
//! attribution, same packet issue cycles, same stats registries, memory
//! digests and journey stamps, with fast-forward on or off, under faults
//! and tracing. Two invariants carry the proof:
//!
//! 1. **Fusion only spans ops the interpreter executes back-to-back in
//!    a continuous busy stall.** Every op folded into a timed run has
//!    duration ≥ 1 cycle, so the interpreter dispatches at most one of
//!    them per tick and each tick charges `busy`; the tick in which one
//!    op's stall expires is the tick that dispatches the next, so the
//!    fused `Stall` ends on exactly the cycle the interpreter fetches
//!    the first op *after* the segment. Flops and vector-element
//!    counters accrue at segment start instead of spread across it,
//!    which no mid-run observer can see: utilization samples carry only
//!    the busy/stall/idle split, and reports are taken at run end.
//!    Zero-duration ops (`ScalarFlops { flops: 0 }`, degenerate
//!    vectors) are emitted as standalone micro-ops instead: chains of
//!    them interact with the engine's 16-step-per-tick cap, which the
//!    shared tick loop already reproduces exactly for unfused ops.
//! 2. **Collapsed regions stay under the step cap.** At a collapsed
//!    loop boundary the interpreter spends one step per frame popped
//!    and one per frame entered within a single tick. Collapse is
//!    limited to nests of depth ≤ [`MAX_COLLAPSE_DEPTH`], so the worst
//!    boundary tick (pop a full nest, enter the next full nest, plus
//!    the stall-resolve, dispatch and blocked steps) stays within the
//!    16-step budget and the interpreter never splits a fused region
//!    across ticks.
//!
//! Everything that touches the outside world — memory traffic, sync
//! ops, barriers, prefetch, event posts — lowers 1:1 onto micro-ops
//! that drive the *same* engine helpers as the interpreter, so the
//! packet streams are identical by construction. The interpreter itself
//! stays verbatim behind the default-on `MachineConfig::lowered` /
//! `CEDAR_NO_LOWER` hatch as the differential oracle; `tests/lower.rs`
//! and the randomized program property test enforce the contract.

use std::sync::Arc;

use crate::memory::sync::SyncInstr;
use crate::program::{MemOperand, Op, Program};

/// Deepest loop nesting a pure region may collapse. At a region boundary
/// the interpreter can pop one full nest and enter the next in a single
/// tick: `1 (stall resolve) + D (pops) + D (enters) + 1 (dispatch) + 1
/// (blocked)` steps. With `D = 6` that worst case is 15, inside the
/// engine's 16-step-per-tick cap, so the interpreter never caps — and
/// therefore never re-times — inside a region the lowerer fused.
pub const MAX_COLLAPSE_DEPTH: usize = 6;

/// Index into an [`LProgram`]'s interned address-expression table.
pub type AddrIdx = u32;

/// One lowered micro-op. `Copy` and self-contained: decoding is a match
/// on a small value, with no `Arc` chasing and no nested blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UOp {
    /// A fused straight-line stretch of purely timed work: charge
    /// `cycles` busy cycles as one stall, accruing `flops` and
    /// `elements` at dispatch.
    TimedRun {
        cycles: u64,
        flops: u64,
        elements: u64,
    },
    /// [`Op::ScalarGlobalRead`].
    ScalarGlobalRead { addr: AddrIdx },
    /// [`Op::ScalarGlobalWrite`].
    ScalarGlobalWrite { addr: AddrIdx },
    /// Vector op consuming the prefetch buffer (`MemOperand::Prefetched`).
    VecPref { length: u32, flops: u64 },
    /// Vector op with a direct global-memory read operand
    /// (`GlobalRead` / `GlobalGather`).
    VecDirect {
        addr: AddrIdx,
        stride: i64,
        length: u32,
        flops: u64,
        gather: bool,
    },
    /// Vector op writing global memory (`GlobalWrite` / `GlobalScatter`).
    VecGWrite {
        addr: AddrIdx,
        stride: i64,
        length: u32,
        flops: u64,
        scatter: bool,
    },
    /// Vector op through the cluster cache (`ClusterRead` / `ClusterWrite`).
    VecCache {
        addr: AddrIdx,
        stride: i64,
        length: u32,
        flops: u64,
        write: bool,
    },
    /// [`Op::PrefetchArm`] (unpaired).
    PrefetchArm { length: u32, stride: i64 },
    /// [`Op::PrefetchFire`] (unpaired).
    PrefetchFire { base: AddrIdx },
    /// Fused `PrefetchArm` + `PrefetchFire`: one slot, executed in two
    /// cycle-exact phases (arm, then fire).
    ArmFire {
        length: u32,
        stride: i64,
        base: AddrIdx,
    },
    /// [`Op::PrefetchRewind`].
    PrefetchRewind,
    /// Enter a counted loop whose matching [`UOp::LoopEnd`] sits at
    /// index `end`; the body starts at the next micro-op.
    EnterRepeat { count: u32, end: u32 },
    /// Back-edge / exit of a counted loop (targets live in the frame).
    LoopEnd,
    /// Enter a self-scheduled loop whose matching [`UOp::SelfSchedEnd`]
    /// sits at index `end`.
    EnterSelfSched {
        counter: u32,
        limit: u64,
        chunk: u32,
        dispatch_cost: u32,
        end: u32,
    },
    /// Back-edge / chunk-refetch point of a self-scheduled loop.
    SelfSchedEnd,
    /// [`Op::Barrier`].
    Barrier { barrier: u32 },
    /// [`Op::SyncOp`].
    SyncOp { addr: AddrIdx, instr: SyncInstr },
    /// [`Op::Fence`].
    Fence,
    /// [`Op::PostEvent`].
    PostEvent { tag: u32 },
}

/// Static shape of a lowered program, for the `program.*` stats keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerMeta {
    /// Source ops in the `Op` tree (loop bodies included).
    pub source_ops: usize,
    /// Micro-ops after lowering.
    pub uops: usize,
    /// Source ops absorbed into fused superinstructions (timed runs
    /// covering ≥ 2 ops, collapsed loops, arm+fire pairs).
    pub fused_ops: usize,
    /// Deepest loop nesting in the source program.
    pub max_loop_depth: usize,
}

/// A compiled CE program: one flat micro-op array with an interned
/// address table. Shared across the CEs loaded with the same `Block`.
#[derive(Debug)]
pub struct LProgram {
    uops: Box<[UOp]>,
    addrs: Box<[crate::program::AddressExpr]>,
    meta: LowerMeta,
}

impl LProgram {
    /// The micro-op stream.
    #[inline]
    pub fn uops(&self) -> &[UOp] {
        &self.uops
    }

    /// Resolve an interned address expression.
    #[inline]
    pub fn addr(&self, idx: AddrIdx) -> &crate::program::AddressExpr {
        &self.addrs[idx as usize]
    }

    /// Static shape.
    pub fn meta(&self) -> LowerMeta {
        self.meta
    }
}

/// The cost of a purely timed region, as the interpreter would charge it.
#[derive(Debug, Clone, Copy, Default)]
struct PureCost {
    cycles: u64,
    flops: u64,
    elements: u64,
    /// Source ops covered.
    ops: usize,
    /// Loop-nesting depth inside the region.
    depth: usize,
}

/// The duration the interpreter charges for a purely timed leaf op, or
/// `None` if the op is not a timed leaf (or takes zero cycles — those
/// are emitted standalone; see the module docs on the step cap).
fn timed_leaf(op: &Op, startup: u64) -> Option<(u64, u64, u64)> {
    match op {
        Op::ScalarWork { cycles } => Some((u64::from((*cycles).max(1)), 0, 0)),
        Op::ScalarFlops {
            flops,
            cycles_per_flop,
        } if *flops >= 1 => Some((
            u64::from(*flops) * u64::from((*cycles_per_flop).max(1)),
            u64::from(*flops),
            0,
        )),
        Op::Vector(v) if matches!(v.operand, MemOperand::None) => {
            let cycles = startup + u64::from(v.length);
            (cycles >= 1).then(|| {
                (
                    cycles,
                    u64::from(v.flops_per_element) * u64::from(v.length),
                    u64::from(v.length),
                )
            })
        }
        _ => None,
    }
}

/// Total cost of a block if it is purely timed (every op a positive-
/// duration timed leaf or a nonzero-count `Repeat` of such a block),
/// else `None`. Overflow also returns `None` — the region is then
/// lowered without collapse and the interpreter's own arithmetic rules.
fn pure_cost(block: &[Op], startup: u64) -> Option<PureCost> {
    let mut c = PureCost::default();
    for op in block {
        if let Some((cycles, flops, elements)) = timed_leaf(op, startup) {
            c.cycles = c.cycles.checked_add(cycles)?;
            c.flops = c.flops.checked_add(flops)?;
            c.elements = c.elements.checked_add(elements)?;
            c.ops += 1;
            continue;
        }
        match op {
            Op::Repeat { count, body } if *count >= 1 => {
                let p = pure_cost(body, startup)?;
                if p.cycles == 0 {
                    return None; // empty body: the interpreter spins steps, not cycles
                }
                let n = u64::from(*count);
                c.cycles = c.cycles.checked_add(p.cycles.checked_mul(n)?)?;
                c.flops = c.flops.checked_add(p.flops.checked_mul(n)?)?;
                c.elements = c.elements.checked_add(p.elements.checked_mul(n)?)?;
                c.ops += 1 + p.ops;
                c.depth = c.depth.max(1 + p.depth);
            }
            _ => return None,
        }
    }
    Some(c)
}

struct Emitter {
    uops: Vec<UOp>,
    addrs: Vec<crate::program::AddressExpr>,
    /// Pending timed-run accumulator: `(cost)` of the pure stretch seen
    /// since the last impure op.
    acc: Option<PureCost>,
    fused_ops: usize,
    startup: u64,
}

impl Emitter {
    fn intern(&mut self, a: &crate::program::AddressExpr) -> AddrIdx {
        let idx = u32::try_from(self.addrs.len()).expect("address table overflow");
        self.addrs.push(a.clone());
        idx
    }

    /// Fold a pure cost into the pending timed run.
    fn accumulate(&mut self, p: PureCost) {
        let acc = self.acc.get_or_insert_with(PureCost::default);
        acc.cycles += p.cycles;
        acc.flops += p.flops;
        acc.elements += p.elements;
        acc.ops += p.ops;
    }

    /// Emit the pending timed run, if any.
    fn flush(&mut self) {
        if let Some(acc) = self.acc.take() {
            if acc.ops >= 2 {
                self.fused_ops += acc.ops;
            }
            self.uops.push(UOp::TimedRun {
                cycles: acc.cycles,
                flops: acc.flops,
                elements: acc.elements,
            });
        }
    }

    fn emit_block(&mut self, block: &[Op]) {
        let mut i = 0;
        while i < block.len() {
            let op = &block[i];
            // Maximal pure stretches fold into the accumulator.
            if let Some((cycles, flops, elements)) = timed_leaf(op, self.startup) {
                self.accumulate(PureCost {
                    cycles,
                    flops,
                    elements,
                    ops: 1,
                    depth: 0,
                });
                i += 1;
                continue;
            }
            match op {
                // Zero-duration timed leaves: standalone, never fused
                // (the interpreter's step cap governs chains of them).
                Op::ScalarWork { .. } | Op::ScalarFlops { .. } => {
                    self.flush();
                    let (flops, elements) = match op {
                        Op::ScalarFlops { flops, .. } => (u64::from(*flops), 0),
                        _ => (0, 0),
                    };
                    self.uops.push(UOp::TimedRun {
                        cycles: 0,
                        flops,
                        elements,
                    });
                }
                Op::Vector(v) => self.emit_vector(v),
                Op::ScalarGlobalRead { addr } => {
                    self.flush();
                    let addr = self.intern(addr);
                    self.uops.push(UOp::ScalarGlobalRead { addr });
                }
                Op::ScalarGlobalWrite { addr } => {
                    self.flush();
                    let addr = self.intern(addr);
                    self.uops.push(UOp::ScalarGlobalWrite { addr });
                }
                Op::PrefetchArm { length, stride } => {
                    self.flush();
                    // Arm immediately followed by fire fuses into one slot.
                    if let Some(Op::PrefetchFire { base }) = block.get(i + 1) {
                        let base = self.intern(base);
                        self.uops.push(UOp::ArmFire {
                            length: *length,
                            stride: *stride,
                            base,
                        });
                        self.fused_ops += 2;
                        i += 2;
                        continue;
                    }
                    self.uops.push(UOp::PrefetchArm {
                        length: *length,
                        stride: *stride,
                    });
                }
                Op::PrefetchFire { base } => {
                    self.flush();
                    let base = self.intern(base);
                    self.uops.push(UOp::PrefetchFire { base });
                }
                Op::PrefetchRewind => {
                    self.flush();
                    self.uops.push(UOp::PrefetchRewind);
                }
                Op::Repeat { count, body } => {
                    // A pure body of bounded depth collapses into the
                    // enclosing timed run: no loop machinery at all.
                    if *count >= 1 {
                        if let Some(p) = pure_cost(body, self.startup) {
                            if p.cycles >= 1 && p.depth < MAX_COLLAPSE_DEPTH {
                                let n = u64::from(*count);
                                if let (Some(cycles), Some(flops), Some(elements)) = (
                                    p.cycles.checked_mul(n),
                                    p.flops.checked_mul(n),
                                    p.elements.checked_mul(n),
                                ) {
                                    self.accumulate(PureCost {
                                        cycles,
                                        flops,
                                        elements,
                                        ops: 1 + p.ops,
                                        depth: 1 + p.depth,
                                    });
                                    i += 1;
                                    continue;
                                }
                            }
                        }
                    }
                    self.flush();
                    let at = self.uops.len();
                    self.uops.push(UOp::EnterRepeat {
                        count: *count,
                        end: 0, // fixed up below
                    });
                    self.emit_block(body);
                    self.flush();
                    let end = u32::try_from(self.uops.len()).expect("uop stream overflow");
                    self.uops.push(UOp::LoopEnd);
                    let UOp::EnterRepeat { end: slot, .. } = &mut self.uops[at] else {
                        unreachable!("fixup target moved");
                    };
                    *slot = end;
                }
                Op::SelfSchedLoop {
                    counter,
                    limit,
                    chunk,
                    dispatch_cost,
                    body,
                } => {
                    self.flush();
                    let at = self.uops.len();
                    self.uops.push(UOp::EnterSelfSched {
                        counter: u32::try_from(counter.0).expect("counter id overflow"),
                        limit: *limit,
                        chunk: *chunk,
                        dispatch_cost: *dispatch_cost,
                        end: 0, // fixed up below
                    });
                    self.emit_block(body);
                    self.flush();
                    let end = u32::try_from(self.uops.len()).expect("uop stream overflow");
                    self.uops.push(UOp::SelfSchedEnd);
                    let UOp::EnterSelfSched { end: slot, .. } = &mut self.uops[at] else {
                        unreachable!("fixup target moved");
                    };
                    *slot = end;
                }
                Op::Barrier { barrier } => {
                    self.flush();
                    self.uops.push(UOp::Barrier {
                        barrier: u32::try_from(barrier.0).expect("barrier id overflow"),
                    });
                }
                Op::SyncOp { addr, instr } => {
                    self.flush();
                    let addr = self.intern(addr);
                    self.uops.push(UOp::SyncOp {
                        addr,
                        instr: *instr,
                    });
                }
                Op::Fence => {
                    self.flush();
                    self.uops.push(UOp::Fence);
                }
                Op::PostEvent { tag } => {
                    self.flush();
                    self.uops.push(UOp::PostEvent { tag: *tag });
                }
            }
            i += 1;
        }
    }

    fn emit_vector(&mut self, v: &crate::program::VectorOp) {
        self.flush();
        let flops = u64::from(v.flops_per_element) * u64::from(v.length);
        let uop = match &v.operand {
            MemOperand::None => {
                // Only reachable for the zero-duration degenerate case
                // (positive durations were consumed as timed leaves).
                UOp::TimedRun {
                    cycles: self.startup + u64::from(v.length),
                    flops,
                    elements: u64::from(v.length),
                }
            }
            MemOperand::Prefetched => UOp::VecPref {
                length: v.length,
                flops,
            },
            MemOperand::GlobalRead { addr, stride } => UOp::VecDirect {
                addr: self.intern(addr),
                stride: *stride,
                length: v.length,
                flops,
                gather: false,
            },
            MemOperand::GlobalGather { addr } => UOp::VecDirect {
                addr: self.intern(addr),
                stride: 1,
                length: v.length,
                flops,
                gather: true,
            },
            MemOperand::GlobalWrite { addr, stride } => UOp::VecGWrite {
                addr: self.intern(addr),
                stride: *stride,
                length: v.length,
                flops,
                scatter: false,
            },
            MemOperand::GlobalScatter { addr } => UOp::VecGWrite {
                addr: self.intern(addr),
                stride: 1,
                length: v.length,
                flops,
                scatter: true,
            },
            MemOperand::ClusterRead { addr, stride } => UOp::VecCache {
                addr: self.intern(addr),
                stride: *stride,
                length: v.length,
                flops,
                write: false,
            },
            MemOperand::ClusterWrite { addr, stride } => UOp::VecCache {
                addr: self.intern(addr),
                stride: *stride,
                length: v.length,
                flops,
                write: true,
            },
        };
        self.uops.push(uop);
    }
}

/// Compile a program into its flat micro-op form. `vector_startup` is
/// the CE's vector startup cost, needed to price register-register
/// vector ops into timed runs.
pub fn lower(program: &Program, vector_startup: u32) -> Arc<LProgram> {
    let mut em = Emitter {
        uops: Vec::new(),
        addrs: Vec::new(),
        acc: None,
        fused_ops: 0,
        startup: u64::from(vector_startup),
    };
    em.emit_block(program.body());
    em.flush();
    let tree = program.meta();
    let meta = LowerMeta {
        source_ops: tree.ops,
        uops: em.uops.len(),
        fused_ops: em.fused_ops,
        max_loop_depth: tree.max_loop_depth,
    };
    Arc::new(LProgram {
        uops: em.uops.into_boxed_slice(),
        addrs: em.addrs.into_boxed_slice(),
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CounterId;
    use crate::program::{AddressExpr, ProgramBuilder, VectorOp};

    const STARTUP: u32 = 12;

    fn vec_none(length: u32) -> VectorOp {
        VectorOp {
            length,
            flops_per_element: 2,
            operand: MemOperand::None,
        }
    }

    #[test]
    fn straight_line_timed_ops_fuse_into_one_run() {
        let mut b = ProgramBuilder::new();
        b.scalar(10);
        b.vector(vec_none(32));
        b.push(Op::ScalarFlops {
            flops: 4,
            cycles_per_flop: 3,
        });
        let p = b.build();
        let lp = lower(&p, STARTUP);
        assert_eq!(
            lp.uops(),
            &[UOp::TimedRun {
                cycles: 10 + (12 + 32) + 12,
                flops: 64 + 4,
                elements: 32,
            }]
        );
        assert_eq!(lp.meta().fused_ops, 3);
        assert_eq!(lp.meta().source_ops, 3);
    }

    #[test]
    fn pure_repeat_collapses_with_count_scaling() {
        let mut b = ProgramBuilder::new();
        b.repeat(5, |b| {
            b.scalar(3);
            b.vector(vec_none(8));
        });
        let lp = lower(&b.build(), STARTUP);
        assert_eq!(
            lp.uops(),
            &[UOp::TimedRun {
                cycles: 5 * (3 + 12 + 8),
                flops: 5 * 16,
                elements: 5 * 8,
            }]
        );
        assert_eq!(lp.meta().fused_ops, 3);
    }

    #[test]
    fn nested_pure_repeats_collapse_up_to_the_depth_bound() {
        let deep = |levels: usize| {
            fn nest(b: &mut ProgramBuilder, levels: usize) {
                if levels == 0 {
                    b.scalar(1);
                } else {
                    b.repeat(2, |b| nest(b, levels - 1));
                }
            }
            let mut b = ProgramBuilder::new();
            nest(&mut b, levels);
            lower(&b.build(), STARTUP)
        };
        // Depth 6 collapses to a single timed run of 2^6 cycles...
        let lp = deep(MAX_COLLAPSE_DEPTH);
        assert_eq!(
            lp.uops(),
            &[UOp::TimedRun {
                cycles: 64,
                flops: 0,
                elements: 0,
            }]
        );
        // ...depth 7 keeps its outermost loop un-collapsed (the inner
        // 6 levels still fold) so the interpreter's step cap is safe.
        let lp = deep(MAX_COLLAPSE_DEPTH + 1);
        assert_eq!(
            lp.uops(),
            &[
                UOp::EnterRepeat { count: 2, end: 2 },
                UOp::TimedRun {
                    cycles: 64,
                    flops: 0,
                    elements: 0,
                },
                UOp::LoopEnd,
            ]
        );
    }

    #[test]
    fn impure_loops_get_label_fixups() {
        let mut b = ProgramBuilder::new();
        b.repeat(3, |b| {
            b.scalar(2);
            b.push(Op::SyncOp {
                addr: AddressExpr::new(64),
                instr: SyncInstr::fetch_add(1),
            });
        });
        b.scalar(7);
        let lp = lower(&b.build(), STARTUP);
        assert!(matches!(
            lp.uops()[0],
            UOp::EnterRepeat { count: 3, end: 3 }
        ));
        assert!(matches!(
            lp.uops()[1],
            UOp::TimedRun { cycles: 2, .. } // fusion barrier before the sync
        ));
        assert!(matches!(lp.uops()[2], UOp::SyncOp { .. }));
        assert!(matches!(lp.uops()[3], UOp::LoopEnd));
        assert!(matches!(lp.uops()[4], UOp::TimedRun { cycles: 7, .. }));
        assert_eq!(lp.meta().uops, 5);
    }

    #[test]
    fn self_sched_bodies_lower_with_fixups() {
        let mut b = ProgramBuilder::new();
        b.self_sched_with_cost(CounterId(0), 100, 4, 9, |b| {
            b.vector(vec_none(16));
        });
        let lp = lower(&b.build(), STARTUP);
        assert_eq!(
            lp.uops(),
            &[
                UOp::EnterSelfSched {
                    counter: 0,
                    limit: 100,
                    chunk: 4,
                    dispatch_cost: 9,
                    end: 2,
                },
                UOp::TimedRun {
                    cycles: 12 + 16,
                    flops: 32,
                    elements: 16,
                },
                UOp::SelfSchedEnd,
            ]
        );
    }

    #[test]
    fn arm_fire_pairs_fuse() {
        let mut b = ProgramBuilder::new();
        b.push(Op::PrefetchArm {
            length: 32,
            stride: 1,
        });
        b.push(Op::PrefetchFire {
            base: AddressExpr::new(4096),
        });
        b.push(Op::PrefetchRewind);
        b.push(Op::PrefetchFire {
            base: AddressExpr::new(8192),
        });
        let lp = lower(&b.build(), STARTUP);
        assert!(matches!(
            lp.uops()[0],
            UOp::ArmFire {
                length: 32,
                stride: 1,
                ..
            }
        ));
        assert!(matches!(lp.uops()[1], UOp::PrefetchRewind));
        assert!(matches!(lp.uops()[2], UOp::PrefetchFire { .. }));
        assert_eq!(lp.meta().fused_ops, 2);
    }

    #[test]
    fn zero_duration_ops_stay_standalone() {
        let mut b = ProgramBuilder::new();
        b.scalar(5);
        b.push(Op::ScalarFlops {
            flops: 0,
            cycles_per_flop: 1,
        });
        b.scalar(5);
        let lp = lower(&b.build(), STARTUP);
        assert_eq!(
            lp.uops(),
            &[
                UOp::TimedRun {
                    cycles: 5,
                    flops: 0,
                    elements: 0,
                },
                UOp::TimedRun {
                    cycles: 0,
                    flops: 0,
                    elements: 0,
                },
                UOp::TimedRun {
                    cycles: 5,
                    flops: 0,
                    elements: 0,
                },
            ]
        );
        assert_eq!(lp.meta().fused_ops, 0);
    }

    #[test]
    fn zero_count_repeat_is_an_empty_jump() {
        let mut b = ProgramBuilder::new();
        b.repeat(0, |b| {
            b.scalar(100);
        });
        b.scalar(1);
        let lp = lower(&b.build(), STARTUP);
        assert!(matches!(
            lp.uops()[0],
            UOp::EnterRepeat { count: 0, end: 2 }
        ));
        assert!(matches!(lp.uops()[3], UOp::TimedRun { cycles: 1, .. }));
    }

    #[test]
    fn addresses_intern_into_the_side_table() {
        let mut b = ProgramBuilder::new();
        b.push(Op::ScalarGlobalRead {
            addr: AddressExpr::new(10).with_coeff(0, 4),
        });
        b.push(Op::ScalarGlobalWrite {
            addr: AddressExpr::new(20),
        });
        let lp = lower(&b.build(), STARTUP);
        let UOp::ScalarGlobalRead { addr: a0 } = lp.uops()[0] else {
            panic!("expected read");
        };
        let UOp::ScalarGlobalWrite { addr: a1 } = lp.uops()[1] else {
            panic!("expected write");
        };
        assert_eq!(lp.addr(a0).eval(&[3]), 22);
        assert_eq!(lp.addr(a1).eval(&[]), 20);
    }

    #[test]
    fn empty_program_lowers_to_nothing() {
        let lp = lower(&Program::empty(), STARTUP);
        assert!(lp.uops().is_empty());
        assert_eq!(lp.meta(), LowerMeta::default());
    }
}
