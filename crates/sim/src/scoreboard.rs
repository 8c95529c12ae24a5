//! Per-warp register scoreboard: blocks issue of instructions whose source
//! or destination registers have writes in flight.

use gcl_mem::{Dec, Enc, WireError};
use gcl_ptx::{Instruction, Reg};

/// Scoreboard for all warps of one SM running one kernel.
#[derive(Debug)]
pub struct Scoreboard {
    /// One bitset per warp, one bit per register.
    pending: Vec<Vec<u64>>,
    words: usize,
}

impl Scoreboard {
    /// Create a scoreboard for `n_warps` warps of a kernel with `num_regs`
    /// registers.
    pub fn new(n_warps: usize, num_regs: u32) -> Scoreboard {
        let words = (num_regs as usize).div_ceil(64).max(1);
        Scoreboard {
            pending: vec![vec![0; words]; n_warps],
            words,
        }
    }

    fn bit(&self, warp: usize, reg: Reg) -> bool {
        let i = reg.index();
        self.pending[warp][i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether `inst` can issue for `warp` (no RAW/WAW hazards pending on
    /// its destination, its sources or its guard predicate). Allocation-free:
    /// this runs for every candidate warp of every scheduler every cycle.
    pub fn can_issue(&self, warp: usize, inst: &Instruction) -> bool {
        let mut clear = inst.dst_reg().is_none_or(|d| !self.bit(warp, d))
            && inst.guard.is_none_or(|g| !self.bit(warp, g.pred));
        inst.op.for_each_src_reg(|r| clear &= !self.bit(warp, r));
        clear
    }

    /// Mark `reg` as having a write in flight for `warp`.
    pub fn reserve(&mut self, warp: usize, reg: Reg) {
        let i = reg.index();
        self.pending[warp][i / 64] |= 1 << (i % 64);
    }

    /// Clear the in-flight write of `reg` for `warp` (writeback).
    pub fn release(&mut self, warp: usize, reg: Reg) {
        let i = reg.index();
        self.pending[warp][i / 64] &= !(1 << (i % 64));
    }

    /// Whether `warp` has any writes in flight.
    pub fn busy(&self, warp: usize) -> bool {
        self.pending[warp][..self.words].iter().any(|w| *w != 0)
    }

    /// Drop all reservations of `warp` (when a warp slot is recycled).
    pub fn clear(&mut self, warp: usize) {
        self.pending[warp].iter_mut().for_each(|w| *w = 0);
    }

    /// Checkpoint-encode the pending-write bitsets.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        e.usize(self.words);
        e.usize(self.pending.len());
        for warp in &self.pending {
            e.seq(warp, |e, &w| e.u64(w));
        }
    }

    /// Checkpoint-decode a scoreboard written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<Scoreboard, WireError> {
        let words = d.usize()?;
        let n = d.seq_len()?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let warp = d.seq(|d| d.u64())?;
            if warp.len() != words {
                return Err(WireError::Malformed("scoreboard word count mismatch"));
            }
            pending.push(warp);
        }
        Ok(Scoreboard { pending, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{AluOp, Guard, Instruction, Op, Operand, Type};

    fn add(dst: u32, a: u32, b: u32) -> Instruction {
        Instruction::new(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        })
    }

    #[test]
    fn raw_hazard_blocks_issue() {
        let mut sb = Scoreboard::new(2, 8);
        let inst = add(2, 0, 1);
        assert!(sb.can_issue(0, &inst));
        sb.reserve(0, Reg(1));
        assert!(!sb.can_issue(0, &inst));
        // Other warps unaffected.
        assert!(sb.can_issue(1, &inst));
        sb.release(0, Reg(1));
        assert!(sb.can_issue(0, &inst));
    }

    #[test]
    fn waw_hazard_blocks_issue() {
        let mut sb = Scoreboard::new(1, 8);
        sb.reserve(0, Reg(2));
        assert!(!sb.can_issue(0, &add(2, 0, 1)));
    }

    #[test]
    fn pending_guard_predicate_blocks_issue() {
        let mut sb = Scoreboard::new(1, 8);
        let inst = Instruction::guarded(
            Guard {
                pred: Reg(7),
                negate: true,
            },
            add(2, 0, 1).op,
        );
        assert!(sb.can_issue(0, &inst));
        sb.reserve(0, Reg(7));
        assert!(!sb.can_issue(0, &inst));
        assert!(sb.can_issue(0, &add(2, 0, 1)));
    }

    #[test]
    fn busy_and_clear() {
        let mut sb = Scoreboard::new(1, 130);
        assert!(!sb.busy(0));
        sb.reserve(0, Reg(129));
        assert!(sb.busy(0));
        sb.clear(0);
        assert!(!sb.busy(0));
        assert!(sb.can_issue(0, &add(129, 0, 1)));
    }
}
