//! The solve phase: one photon budget per round through every backend.
//!
//! Each round solves the same `(seed, photons)` three times from scratch,
//! the backends advancing in lockstep one step at a time: serially and
//! uninterrupted (the reference), and on the threaded and the distributed
//! engine, each migrated every `migrate_every` photons — freeze →
//! `PHOTCK1` bytes → decode → restore into a fresh engine. Only engine
//! steps count towards photons/s; the migration is timed apart. Rounds
//! repeat until the phase budget is spent. Each rate is the median over
//! every step of the phase, so a passing burst of host contention moves
//! a few steps, not the figure.

use crate::workload::Workload;
use crate::Gates;
use photon_core::{Answer, EngineCheckpoint, SimConfig, SimStats, Simulator, SolverEngine};
use photon_dist::{BalanceMode, DistConfig, DistEngine};
use photon_geom::Scene;
use photon_par::{ParConfig, ParEngine};
use std::time::{Duration, Instant};

/// Pilot photons of the distributed engine's best-fit ownership.
pub const PILOT_PHOTONS: u64 = 1_000;

/// Host CPUs: the threaded engine's workers and the distributed ranks.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// What the solve phase measured.
#[derive(Default)]
pub struct SolveOut {
    /// Rounds started (the last one may end early, at the deadline).
    pub rounds: u64,
    /// Photons each backend solved over all rounds.
    pub photons: u64,
    /// Serial photons/s, one per step.
    pub serial: Vec<f64>,
    /// Threaded photons/s, one per step.
    pub threaded: Vec<f64>,
    /// Distributed photons/s (wall clock), one per step.
    pub distributed: Vec<f64>,
    /// Freeze + encode + decode + restore, ms, one per migration.
    pub migrate_ms: Vec<f64>,
    /// Leaf bins of the serial forest at the end of the last round.
    pub leaf_bins: u64,
    /// Bytes of the serial forest at the end of the last round.
    pub forest_bytes: usize,
}

/// Serialized answer bytes (`PHOTANS1`) — the equality every backend
/// gate compares.
pub fn answer_bytes(answer: &Answer) -> Vec<u8> {
    let mut out = Vec::new();
    answer.write_to(&mut out).expect("in-memory write");
    out
}

/// The serial simulator of round seed `seed`.
pub fn serial_engine(scene: &Scene, w: &Workload, seed: u64) -> Simulator {
    Simulator::new(
        scene.clone(),
        SimConfig {
            seed,
            split: w.split(),
        },
    )
}

/// The threaded engine: one worker per host CPU.
pub fn threaded_engine(scene: &Scene, w: &Workload, seed: u64) -> ParEngine {
    ParEngine::new(
        scene.clone(),
        ParConfig {
            seed,
            split: w.split(),
            threads: nproc(),
            batch_size: w.step_photons,
            ..ParConfig::default()
        },
    )
}

/// The distributed engine: one rank per host CPU, best-fit ownership
/// from a pilot trace.
pub fn dist_engine(scene: &Scene, w: &Workload, seed: u64) -> DistEngine {
    DistEngine::new(
        scene.clone(),
        DistConfig {
            seed,
            split: w.split(),
            nranks: nproc(),
            balance: BalanceMode::BinPacking {
                pilot_photons: PILOT_PHOTONS,
            },
            ..DistConfig::default()
        },
    )
}

/// Timings of one migration's four steps, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Migration {
    /// `SolverEngine::checkpoint`.
    pub freeze: f64,
    /// `EngineCheckpoint::to_bytes`.
    pub encode: f64,
    /// `EngineCheckpoint::from_bytes`.
    pub decode: f64,
    /// `SolverEngine::restore` into the fresh engine.
    pub restore: f64,
}

impl Migration {
    /// Whole migration, ms.
    pub fn total_ms(&self) -> f64 {
        (self.freeze + self.encode + self.decode + self.restore) * 1e3
    }
}

/// Moves `from`'s state into `fresh` through `PHOTCK1` bytes.
pub fn migrate(from: &dyn SolverEngine, fresh: &mut dyn SolverEngine) -> Result<Migration, String> {
    let t0 = Instant::now();
    let ck = from.checkpoint();
    let t1 = Instant::now();
    let bytes = ck.to_bytes();
    let t2 = Instant::now();
    let decoded = EngineCheckpoint::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
    let t3 = Instant::now();
    fresh
        .restore(&decoded)
        .map_err(|e| format!("restore: {e}"))?;
    let t4 = Instant::now();
    Ok(Migration {
        freeze: (t1 - t0).as_secs_f64(),
        encode: (t2 - t1).as_secs_f64(),
        decode: (t3 - t2).as_secs_f64(),
        restore: (t4 - t3).as_secs_f64(),
    })
}

/// One backend's progress through a round: its engine, the seconds spent
/// stepping it, and the migrations so far.
pub struct Runner<E, F> {
    make: F,
    /// The engine currently solving (replaced by every migration).
    pub engine: E,
    pilot: u64,
    every: u64,
    next_migration: u64,
    /// Seconds spent inside `SolverEngine::step`.
    pub stepping: f64,
    /// Photons per second of each step.
    pub step_rates: Vec<f64>,
    /// Migrations performed.
    pub migrations: Vec<Migration>,
}

impl<E: SolverEngine, F: Fn() -> E> Runner<E, F> {
    /// A fresh engine from `make`, migrated every `every` photons (never
    /// when 0); `pilot` photons in its counters are not main-stream ones.
    pub fn new(make: F, every: u64, pilot: u64) -> Self {
        Runner {
            engine: make(),
            make,
            pilot,
            every,
            next_migration: if every == 0 { u64::MAX } else { every },
            stepping: 0.0,
            step_rates: Vec::new(),
            migrations: Vec::new(),
        }
    }

    /// Main-stream photons solved so far.
    pub fn done(&self) -> u64 {
        self.engine.emitted() - self.pilot
    }

    /// Steps the engine up to `target` main-stream photons, `step` at a
    /// time, migrating it whenever a multiple of `every` is crossed.
    pub fn advance(&mut self, target: u64, step: u64, gates: &mut Gates) {
        while self.done() < target {
            if self.done() >= self.next_migration {
                let mut fresh = (self.make)();
                match migrate(&self.engine, &mut fresh) {
                    Ok(m) => {
                        gates.check("migration", true, String::new);
                        self.migrations.push(m);
                        self.engine = fresh;
                    }
                    Err(e) => {
                        gates.check("migration", false, || e);
                    }
                }
                self.next_migration += self.every;
            }
            let until = self.next_migration.min(target);
            let n = step.min(until.saturating_sub(self.done())).max(1);
            let before = self.done();
            let t = Instant::now();
            self.engine.step(n);
            let secs = t.elapsed().as_secs_f64();
            self.stepping += secs;
            self.step_rates.push((self.done() - before) as f64 / secs);
        }
    }

    /// Main-stream photons per second of stepping.
    pub fn rate(&self) -> f64 {
        self.done() as f64 / self.stepping
    }
}

fn conserved(gates: &mut Gates, backend: &str, stats: &SimStats) {
    gates.check("conserved", stats.is_conserved(), || {
        format!("{backend}: photon counters not conserved: {stats:?}")
    });
}

/// Runs solve rounds until the phase budget is spent. A round advances
/// the three backends in lockstep, one step at a time, so all three see
/// the same host conditions; the phase ends at the first lockstep boundary
/// past the deadline, where the last round's gates run as a full round's
/// would. Ending on time rather than on a whole round keeps the phase, and
/// so the serve phase after it, the same length on a faster or slower
/// host: a whole-round rule ran one round or two depending on speed.
pub fn run(
    w: &Workload,
    scene: &Scene,
    seed: u64,
    budget: Duration,
    gates: &mut Gates,
) -> SolveOut {
    let deadline = Instant::now() + budget;
    let mut out = SolveOut::default();
    loop {
        let round_seed = w.photon_seed(seed, out.rounds);
        let n = w.round_photons;
        let mut serial = Runner::new(|| serial_engine(scene, w, round_seed), 0, 0);
        let mut threaded =
            Runner::new(|| threaded_engine(scene, w, round_seed), w.migrate_every, 0);
        let mut dist = Runner::new(
            || dist_engine(scene, w, round_seed),
            w.migrate_every,
            PILOT_PHOTONS,
        );
        let mut target = 0;
        while target < n && (target == 0 || Instant::now() < deadline) {
            target = (target + w.step_photons).min(n);
            serial.advance(target, w.step_photons, gates);
            threaded.advance(target, w.step_photons, gates);
            dist.advance(target, w.step_photons, gates);
        }
        // Step rates and migration times fall as the forest grows, so a
        // round cut at the deadline would tilt the medians towards small
        // forests; its figures count only when no round completed.
        if target == n || out.serial.is_empty() {
            out.serial.extend(&serial.step_rates);
            out.threaded.extend(&threaded.step_rates);
            out.distributed.extend(&dist.step_rates);
            for r in [&threaded.migrations, &dist.migrations] {
                out.migrate_ms.extend(r.iter().map(Migration::total_ms));
            }
        }
        out.leaf_bins = serial.engine.forest().total_leaf_bins();
        out.forest_bytes = serial.engine.forest().memory_bytes();
        conserved(gates, "serial", serial.engine.stats());
        conserved(gates, "threaded", &threaded.engine.stats());
        conserved(gates, "distributed", &dist.engine.stats());
        gates.check(
            "threaded_migrated_equals_serial",
            answer_bytes(&threaded.engine.snapshot()) == answer_bytes(&serial.engine.snapshot()),
            || {
                format!(
                    "round {}: migrated threaded answer differs from the serial one",
                    out.rounds
                )
            },
        );
        gates.check("distributed_budget", dist.done() >= target, || {
            format!(
                "distributed engine emitted {} of {target} photons",
                dist.done()
            )
        });
        out.rounds += 1;
        out.photons += target;
        if Instant::now() >= deadline {
            return out;
        }
    }
}
