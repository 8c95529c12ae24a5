//! A fixed reference loop that measures how fast the host is right now.
//!
//! On a shared host the simulator's speed drifts by a quarter or more over
//! minutes, with other tenants' load on the shared caches and memory. The
//! reference is timed between jobs, in the same process, and calls no code
//! of the repository, so a change to the simulator cannot move it. It is a
//! run of random lookups in a hash table larger than a core's private
//! caches: of the loops tried (a dependent integer loop, pointer chases
//! through L2- and L3-sized buffers, unpredictable branches, a bytecode
//! interpreter and this one), it tracked the simulator's drift most closely,
//! slowing by about as much (see `README.md`).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hash::DefaultHasher;
use std::hint::black_box;
use std::time::Instant;

/// Entries in the table: about 4 MiB of buckets.
const ENTRIES: usize = 200_000;
/// Keys are drawn below this, so about one lookup in five hits.
const KEY_SPACE: u64 = 1_000_000;
/// Lookups per timing.
const LOOKUPS: usize = 1_000_000;

/// A hash table with a fixed hasher, so every process builds the same one.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The reference loop and its table.
#[derive(Debug)]
pub struct Reference {
    table: Table,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Build the table from a fixed seed.
    pub fn new() -> Reference {
        let mut rng = gcl_rng::Rng::new(0x5EF);
        let mut table = Table::default();
        while table.len() < ENTRIES {
            table.insert(rng.next_u64() % KEY_SPACE, rng.next_u64());
        }
        Reference { table }
    }

    /// Host seconds one run of the reference loop takes now.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut key = 12_345u64;
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            key = key
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if let Some(v) = self.table.get(&((key >> 20) % KEY_SPACE)) {
                sum = sum.wrapping_add(*v);
            }
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_built_from_a_fixed_seed() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.table.len(), ENTRIES);
        assert_eq!(a.table, b.table);
        assert!(a.time() > 0.0);
    }
}
