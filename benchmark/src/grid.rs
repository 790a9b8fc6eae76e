//! The benchmark-owned sweep grid: the 15 family keys pinned at the commit
//! that defined the benchmark, each with its (at most four) smallest
//! admitted shapes. Written out rather than derived from the registry so
//! that a later change to a family's admission band cannot silently
//! resize the workload — a pinned shape that stops being admitted shows
//! up as a skipped cell, which the workload counts as a failure.

use gcl_sim::{AdversaryMix, DelayChoice, ScenarioRegistry, ScenarioSpec};
use gcl_types::Duration;

const GRID: [(&str, &[(usize, usize)]); 15] = [
    ("bb_2delta", &[(4, 1), (7, 2), (8, 2), (9, 2)]),
    ("bb_majority", &[(4, 2), (4, 3), (6, 4), (10, 8)]),
    ("bb_sync_start", &[(5, 2), (7, 3), (8, 3)]),
    ("bb_third", &[(3, 1), (6, 2), (9, 3)]),
    ("bb_unsync", &[(5, 2), (7, 3), (8, 3)]),
    ("bracha", &[(4, 1), (7, 2), (8, 2), (9, 2)]),
    ("brb2", &[(4, 1), (7, 2), (8, 2), (9, 2)]),
    ("dolev_strong", &[(3, 1), (4, 1), (4, 2), (4, 3)]),
    ("early_commit_bb", &[(3, 1), (6, 2), (9, 3)]),
    ("fab2", &[(4, 1), (7, 2), (8, 2), (9, 2)]),
    ("flood", &[(3, 1), (4, 1), (4, 2), (4, 3)]),
    ("one_round_brb", &[(4, 1), (7, 2), (8, 2), (9, 2)]),
    ("pbft3", &[(4, 1), (7, 2), (8, 2), (9, 2)]),
    ("smr", &[(4, 1), (9, 2), (14, 3)]),
    ("vbb5f1", &[(4, 1), (9, 2), (14, 3)]),
];

/// Seed indices per (family, shape, adversary, delay) combination.
const SEEDS_PER_COMBO: usize = 2;

/// The 648 cells: families × shapes × {none, random-silent,
/// random-crashing} × {fixed, uniform-jitter} × 2 seed indices. Per-cell
/// seeds are assigned later by `Sweep::seed`.
pub fn cells(reg: &ScenarioRegistry) -> Vec<ScenarioSpec> {
    let mixes = [
        AdversaryMix::None,
        AdversaryMix::RandomSilent { count: u32::MAX },
        AdversaryMix::RandomCrashing {
            count: u32::MAX,
            max_handled: 6,
        },
    ];
    let delays = [
        DelayChoice::Fixed,
        DelayChoice::Uniform {
            lo: Duration::ZERO,
            hi: Duration::from_micros(200),
        },
    ];
    let mut cells = Vec::new();
    for (key, shapes) in GRID {
        let base = reg.spec(key).expect("pinned family is registered");
        for &(n, f) in shapes {
            for mix in mixes {
                for delay in delays {
                    for _ in 0..SEEDS_PER_COMBO {
                        cells.push(
                            base.clone()
                                .with_shape(n, f)
                                .with_adversary(mix)
                                .with_delays(delay),
                        );
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_has_648_cells_over_15_families() {
        let cells = cells(gcl_bench::registry());
        assert_eq!(cells.len(), 648);
        let mut families: Vec<&str> = cells.iter().map(|c| c.family).collect();
        families.dedup();
        assert_eq!(families.len(), 15);
    }
}
