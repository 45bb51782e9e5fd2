//! The three named workloads and the seed rules.
//!
//! Every workload runs the same two phases on its own scene: a *solve*
//! phase (one photon budget through the serial, threaded and distributed
//! engines, with checkpoint migrations) and a *serve* phase (a live
//! progressive solve behind the render service and the TCP stream
//! server). What differs is the scene, the split rule, the sizes and the
//! share of the run each phase gets — so each workload stresses its own
//! layers while every end-to-end metric is measured everywhere.

use photon_hist::{SplitConfig, SplitRule};
use photon_scenes::TestScene;

/// The seed a run uses when `--seed` is not given; recorded in every
/// report.
pub const DEFAULT_SEED: u64 = 1997;

/// The held-out seed: a claim measured on the default seed must also hold
/// here before it is believed.
pub const HELD_OUT_SEED: u64 = 4242;

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line rationale.
    pub why: &'static str,
    /// Scene solved and served.
    pub scene: TestScene,
    /// Split rule strictness, in standard deviations (paper default 3).
    pub sigmas: f64,
    /// Photons per backend per solve round.
    pub round_photons: u64,
    /// Photons of the traced run's composed loop (every call is a span
    /// held in memory, so this is capped below the round budget).
    pub traced_photons: u64,
    /// Photons per engine step.
    pub step_photons: u64,
    /// Photons between checkpoint migrations of the threaded and
    /// distributed engines; a multiple of `step_photons`, so every step
    /// of every backend is the same size.
    pub migrate_every: u64,
    /// Share of the measured seconds given to the solve phase.
    pub solve_share: f64,
    /// Frame size of served views.
    pub frame: (usize, usize),
    /// Photons per live-solve slice.
    pub live_batch: u64,
    /// Live-solve slices per published epoch.
    pub publish_every: u64,
    /// Photons per first-epoch probe job.
    pub probe_photons: u64,
    /// Mixed into the seed so workloads never share photon streams.
    pub salt: u64,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lab-solve",
        why: "Computer Lab solve: intersection is >90% of the work, forest apply <=5%",
        scene: TestScene::ComputerLab,
        sigmas: 3.0,
        round_photons: 400_000,
        traced_photons: 100_000,
        step_photons: 10_000,
        migrate_every: 20_000,
        solve_share: 0.45,
        frame: (64, 48),
        live_batch: 500,
        publish_every: 20,
        probe_photons: 500,
        salt: 0x1AB5,
    },
    Workload {
        name: "cornell-refine",
        why: "Cornell Box at 1 sigma: forest outgrows L2; bin descent, splits and checkpoints peak",
        scene: TestScene::CornellBox,
        sigmas: 1.0,
        round_photons: 1_000_000,
        traced_photons: 250_000,
        step_photons: 20_000,
        migrate_every: 40_000,
        solve_share: 0.45,
        frame: (96, 72),
        live_batch: 1_000,
        publish_every: 15,
        probe_photons: 1_000,
        salt: 0xC0E1,
    },
    Workload {
        name: "serve-live",
        why: "Harpsichord live solve behind render, cache, diff, wire and TCP while the solver competes for cores",
        scene: TestScene::HarpsichordRoom,
        sigmas: 3.0,
        round_photons: 300_000,
        traced_photons: 150_000,
        step_photons: 10_000,
        migrate_every: 20_000,
        solve_share: 0.3,
        frame: (160, 120),
        live_batch: 1_000,
        publish_every: 24,
        probe_photons: 1_000,
        salt: 0x5E7E,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload's bin-splitting policy.
    pub fn split(&self) -> SplitConfig {
        SplitConfig {
            rule: SplitRule {
                sigmas: self.sigmas,
                ..SplitRule::default()
            },
            ..SplitConfig::default()
        }
    }

    /// Photon-stream seed of solve round `round` (round `u64::MAX` names
    /// the live solve).
    pub fn photon_seed(&self, seed: u64, round: u64) -> u64 {
        mix(mix(seed ^ self.salt) ^ round) & ((1 << 48) - 1)
    }

    /// Seed of the viewer's camera sequence.
    pub fn camera_seed(&self, seed: u64) -> u64 {
        mix(seed ^ self.salt ^ 0xCA3E_8A00)
    }
}

/// SplitMix64 finalizer: spreads nearby seeds over unrelated streams.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_pure_and_distinct() {
        let w = WORKLOADS[0];
        assert_eq!(w.photon_seed(7, 0), w.photon_seed(7, 0));
        assert_ne!(w.photon_seed(7, 0), w.photon_seed(8, 0));
        assert_ne!(w.photon_seed(7, 0), w.photon_seed(7, 1));
        assert_ne!(
            WORKLOADS[0].photon_seed(7, 0),
            WORKLOADS[1].photon_seed(7, 0)
        );
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }

    #[test]
    fn migrations_fall_on_step_boundaries() {
        for w in WORKLOADS {
            assert_eq!(w.migrate_every % w.step_photons, 0, "{}", w.name);
            assert_eq!(w.round_photons % w.step_photons, 0, "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            for b in &WORKLOADS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert!(Workload::by_name(a.name).is_some());
        }
    }
}
