//! Warp schedulers: loose round-robin and greedy-then-oldest.

use crate::WarpSchedPolicy;
use gcl_mem::{Dec, Enc, WireError};

/// One warp scheduler's selection state. The SM owns one per scheduler and
/// asks it to pick among the ready warps it supervises.
#[derive(Debug)]
pub struct WarpScheduler {
    policy: WarpSchedPolicy,
    /// Last warp slot issued (for LRR rotation / GTO greediness).
    last: Option<usize>,
    /// Resident warp slots this scheduler supervises, ascending. Derived
    /// from the SM's warp table (kept in step by [`admit`](Self::admit) and
    /// [`evict`](Self::evict), rebuilt on restore), never serialized.
    resident: Vec<usize>,
}

impl WarpScheduler {
    /// Create a scheduler with the given policy.
    pub fn new(policy: WarpSchedPolicy) -> WarpScheduler {
        WarpScheduler {
            policy,
            last: None,
            resident: Vec::new(),
        }
    }

    /// Start supervising the warp now resident in `slot`.
    pub fn admit(&mut self, slot: usize) {
        match self.resident.binary_search(&slot) {
            Ok(_) => debug_assert!(false, "warp slot {slot} admitted twice"),
            Err(i) => self.resident.insert(i, slot),
        }
    }

    /// Stop supervising `slot` (its warp retired).
    pub fn evict(&mut self, slot: usize) {
        match self.resident.binary_search(&slot) {
            Ok(i) => {
                self.resident.remove(i);
            }
            Err(_) => debug_assert!(false, "warp slot {slot} evicted but not resident"),
        }
    }

    /// Pick a resident warp slot, where `ready(slot)` says whether that warp
    /// can issue and `age(slot)` is its dispatch order (smaller = older).
    ///
    /// Returns `None` if nothing is ready.
    pub fn pick(
        &mut self,
        mut ready: impl FnMut(usize) -> bool,
        mut age: impl FnMut(usize) -> u64,
    ) -> Option<usize> {
        let resident = &self.resident;
        // Where the last issued warp sits, if it is still resident.
        let last_at = self.last.and_then(|l| resident.binary_search(&l).ok());
        let chosen = match self.policy {
            WarpSchedPolicy::Lrr => {
                // Start after the last issued warp and wrap.
                let start = last_at.map_or(0, |i| i + 1);
                resident[start..]
                    .iter()
                    .chain(&resident[..start])
                    .copied()
                    .find(|&slot| ready(slot))
            }
            // Greedy: keep issuing the same warp while it is ready;
            // otherwise the oldest ready warp.
            WarpSchedPolicy::Gto => {
                last_at
                    .map(|i| resident[i])
                    .filter(|&l| ready(l))
                    .or_else(|| {
                        resident
                            .iter()
                            .copied()
                            .filter(|&s| ready(s))
                            .min_by_key(|&s| age(s))
                    })
            }
        };
        if chosen.is_some() {
            self.last = chosen;
        }
        chosen
    }

    /// Checkpoint-encode the selection state (the policy comes from the
    /// configuration, so only `last` is written).
    pub fn ckpt_encode(&self, e: &mut Enc) {
        e.opt(&self.last, |e, &l| e.usize(l));
    }

    /// Checkpoint-decode a scheduler written by
    /// [`ckpt_encode`](Self::ckpt_encode), with the policy from the
    /// configuration. It supervises no slots yet: the SM re-admits its
    /// resident warps once its warp table is decoded.
    pub fn ckpt_decode(
        d: &mut Dec<'_>,
        policy: WarpSchedPolicy,
    ) -> Result<WarpScheduler, WireError> {
        let last = d.opt(|d| d.usize())?;
        Ok(WarpScheduler {
            policy,
            last,
            resident: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_slots(policy: WarpSchedPolicy, slots: &[usize]) -> WarpScheduler {
        let mut s = WarpScheduler::new(policy);
        for &slot in slots {
            s.admit(slot);
        }
        s
    }

    #[test]
    fn lrr_rotates_through_ready_warps() {
        let mut s = with_slots(WarpSchedPolicy::Lrr, &[4, 0, 2]);
        let mut picks = Vec::new();
        for _ in 0..6 {
            picks.push(s.pick(|_| true, |x| x as u64).unwrap());
        }
        assert_eq!(picks, vec![0, 2, 4, 0, 2, 4]);
    }

    #[test]
    fn lrr_skips_unready() {
        let mut s = with_slots(WarpSchedPolicy::Lrr, &[0, 1, 2]);
        assert_eq!(s.pick(|w| w != 0, |x| x as u64), Some(1));
        assert_eq!(s.pick(|w| w != 2, |x| x as u64), Some(0));
    }

    #[test]
    fn lrr_restarts_at_lowest_slot_after_last_retires() {
        let mut s = with_slots(WarpSchedPolicy::Lrr, &[0, 3, 6]);
        assert_eq!(s.pick(|w| w == 3, |x| x as u64), Some(3));
        s.evict(3);
        s.admit(9);
        assert_eq!(s.pick(|_| true, |x| x as u64), Some(0));
        assert_eq!(s.pick(|_| true, |x| x as u64), Some(6));
        assert_eq!(s.pick(|_| true, |x| x as u64), Some(9));
    }

    #[test]
    fn gto_sticks_with_current_warp() {
        let mut s = with_slots(WarpSchedPolicy::Gto, &[0, 1, 2]);
        // Oldest is warp 1 (age 0).
        let age = |w: usize| match w {
            1 => 0,
            0 => 1,
            _ => 2,
        };
        assert_eq!(s.pick(|_| true, age), Some(1));
        assert_eq!(s.pick(|_| true, age), Some(1));
        // Warp 1 stalls: falls back to the next oldest.
        assert_eq!(s.pick(|w| w != 1, age), Some(0));
        // Greedy on warp 0 now.
        assert_eq!(s.pick(|_| true, age), Some(0));
        // Warp 0 retires: the oldest ready warp again.
        s.evict(0);
        assert_eq!(s.pick(|_| true, age), Some(1));
    }

    #[test]
    fn returns_none_when_nothing_ready() {
        let mut s = with_slots(WarpSchedPolicy::Lrr, &[0, 1]);
        assert_eq!(s.pick(|_| false, |x| x as u64), None);
        let mut s = WarpScheduler::new(WarpSchedPolicy::Gto);
        assert_eq!(s.pick(|_| true, |x| x as u64), None);
    }

    #[test]
    fn resident_slots_beyond_64() {
        let slots: Vec<usize> = (0..128).rev().step_by(3).collect();
        let mut s = with_slots(WarpSchedPolicy::Lrr, &slots);
        let mut picks: Vec<usize> = (0..slots.len())
            .map(|_| s.pick(|_| true, |x| x as u64).unwrap())
            .collect();
        assert!(picks.windows(2).all(|w| w[0] < w[1]), "{picks:?}");
        picks.sort_unstable();
        let mut want = slots;
        want.sort_unstable();
        assert_eq!(picks, want);
    }
}
