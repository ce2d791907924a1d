//! Seeded random crash + message-loss schedules. Each seed fully
//! determines its schedule (scenario, crash point, lossy links, drop
//! probability), so any failure is replayed by running exactly the printed
//! seed:
//!
//! ```sh
//! SIM_SEEDS=<seed>..<seed+1> cargo test -p sim --test random_schedules
//! ```
//!
//! A second test runs every lossy schedule among seeds 0..40 twice and
//! requires the two runs to agree: replay is checked, not assumed. A third
//! runs the benchmark's two-site join under seeded loss on both of its sites,
//! the LAM → LAM link included.

use sim::{
    crash_point_count, repro_command, run, schedule_for_seed, seed_range, SimConfig, SimRng,
    CRASHABLE, XJOIN_SMALL,
};

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

#[test]
fn lossy_schedules_replay_from_their_seed() {
    // The federation runs the production fan-out: a task batch's or settle
    // wave's requests are all posted before any reply is read, so replies
    // from several LAM threads are in flight at once. Each link's losses
    // come from a stream of its own, so a second run of the same seed must
    // lose the same messages and end in the same state — outcome, WAL text
    // and drop count alike.
    let points: Vec<_> = CRASHABLE.iter().map(|s| (*s, crash_point_count(s))).collect();
    let mut lossy = 0u32;
    let mut dropped = 0u64;
    for seed in 0..40 {
        let (scenario, cfg) = schedule_for_seed(seed, &points);
        if cfg.drop_sites.is_empty() {
            continue;
        }
        lossy += 1;
        let replay = || {
            run(&scenario, &cfg).unwrap_or_else(|e| {
                panic!("seed {seed} failed:\n{e}\nreproduce with: {}", repro_command(seed))
            })
        };
        let (first, second) = (replay(), replay());
        assert_eq!(first, second, "seed {seed} did not replay: {cfg:?}");
        dropped += first.dropped;
    }
    assert!(lossy >= 10, "only {lossy} of seeds 0..40 are lossy — generator drifted");
    assert!(dropped > 0, "no lossy schedule lost a message");
}

#[test]
fn lossy_joins_answer_right_or_fail() {
    // Loss on avis' and continental's links: the SHIP, the PART that travels
    // from avis' LAM to continental's, the COMBINE and its reply all meet
    // it. `run` checks, after the federation quiesced, that every schedule
    // returned the loss-free table or failed with an error, and that no stray
    // temporary is left at any site; each schedule also replays exactly.
    let (mut answered, mut failed, mut dropped) = (0u32, 0u32, 0u64);
    for seed in seed_range(0..16) {
        let mut rng = SimRng::new(seed);
        let drop_p = [0.1, 0.2, 0.3][rng.below(3) as usize];
        let cfg =
            SimConfig { drop_sites: vec!["site1", "site4"], drop_p, ..SimConfig::clean(seed) };
        let replay =
            || run(&XJOIN_SMALL, &cfg).unwrap_or_else(|e| panic!("seed {seed} failed:\n{e}"));
        let (first, second) = (replay(), replay());
        assert_eq!(first, second, "seed {seed} did not replay: {cfg:?}");
        match first.exec_error {
            None => answered += 1,
            Some(_) => failed += 1,
        }
        dropped += first.dropped;
    }
    assert!(dropped > 0, "no schedule lost a message");
    assert!(answered > 0, "no lossy join answered (failed {failed})");
}
