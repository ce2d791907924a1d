//! Seeded random crash + message-loss schedules. Each seed fully
//! determines its schedule (scenario, crash point, lossy links, drop
//! probability), so any failure is replayed by running exactly the printed
//! seed:
//!
//! ```sh
//! SIM_SEEDS=<seed>..<seed+1> cargo test -p sim --test random_schedules
//! ```

use sim::{crash_point_count, repro_command, run, schedule_for_seed, seed_range, CRASHABLE};

#[test]
fn seeded_schedules_keep_the_federation_consistent() {
    // Fixed per-scenario crash-point counts make each schedule a pure
    // function of its seed (recounting per seed would be pointlessly slow).
    let points: Vec<_> = CRASHABLE.iter().map(|s| (*s, crash_point_count(s))).collect();
    let range = seed_range(0..200);
    let mut crashed = 0u32;
    let mut lossy = 0u32;
    for seed in range.clone() {
        let (scenario, cfg) = schedule_for_seed(seed, &points);
        if cfg.crash.is_some() {
            crashed += 1;
        }
        if !cfg.drop_sites.is_empty() {
            lossy += 1;
        }
        run(&scenario, &cfg).unwrap_or_else(|e| {
            panic!("seed {seed} failed:\n{e}\nreproduce with: {}", repro_command(seed))
        });
    }
    // The default sweep must actually exercise both fault dimensions.
    if range.end - range.start >= 100 {
        assert!(crashed >= 20, "only {crashed} schedules crashed — generator drifted");
        assert!(lossy >= 20, "only {lossy} schedules had loss — generator drifted");
    }
}
