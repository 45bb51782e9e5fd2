//! The traced run: per-layer numbers from timing calls into each module's
//! public functions, from outside the program.
//!
//! Its core is the serial Fig 4.1 loop composed by hand from
//! `PhotonGenerator::emit`, `Scene::intersect`, `reflect::reflect` and
//! `BinForest::tally`, with a span around every call. The composed loop
//! must produce answer bytes equal to `Simulator`'s for the same seed and
//! photon count — otherwise it would be measuring a different program.
//! Layer self times, corrected for the measured per-span clock cost, are
//! set against the untraced serial ns/photon (the cost model): the share
//! they explain is `traced.coverage`, and the rest is reported as
//! unmeasured time.

use crate::serve::{self, gallery, orbit_camera, serve_config};
use crate::solve::{
    self, answer_bytes, dist_engine, nproc, serial_engine, threaded_engine, PILOT_PHOTONS,
};
use crate::spans::{empty_span_ns, Tracer};
use crate::stats::{compact, median};
use crate::workload::Workload;
use crate::{Gates, Metrics};
use photon_core::reflect::{reflect, Bounce};
use photon_core::trace::MAX_BOUNCES;
use photon_core::view::{auto_exposure, diff_tiles, render_tile, tiles};
use photon_core::{
    photon_stream, trace_strided, Answer, BinForest, EngineCheckpoint, PartitionScratch,
    PhotonGenerator, SimStats, SolverEngine, TallyRecord,
};
use photon_geom::scene::RAY_EPS;
use photon_geom::Scene;
use photon_hist::BinPoint;
use photon_math::{CylDir, Onb, Ray};
use photon_par::parallel_map;
use photon_serve::{render_parallel, AnswerStore, FrameDelta, WireMode};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Energy floor of the transport kernel (`photon_core::trace`).
const MIN_ENERGY: f64 = 1e-12;
/// Recorded rays kept for the intersection replay.
const MAX_RAYS: usize = 400_000;
/// Repeats of each short microbenchmark; the median is reported.
const REPEATS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// The serial loop, composed from the layers' public functions, with a
/// span per call. Returns the forest and the rays it traced.
fn traced_loop(
    scene: &Scene,
    w: &Workload,
    seed: u64,
    photons: u64,
    t: &mut Tracer,
) -> (BinForest, Vec<Ray>) {
    let generator = PhotonGenerator::new(scene);
    let mut forest = BinForest::new(scene.polygon_count(), w.split());
    let mut watermark = forest.total_nodes();
    let mut rays = Vec::new();
    for j in 0..photons {
        t.begin("photon");
        let mut rng = photon_stream(seed, j);
        let photon = t.span("generate.emit", || generator.emit(scene, &mut rng));
        let cyl = CylDir::from_local(photon.local_dir);
        let point = BinPoint::new(photon.s, photon.t, cyl.theta, cyl.r_sq);
        t.span("forest.tally", || {
            forest.tally(photon.patch_id, &point, photon.energy)
        });
        let mut ray = Ray::new(photon.origin, photon.dir).nudged(RAY_EPS);
        let mut energy = photon.energy;
        let mut bounces = 0u32;
        loop {
            if rays.len() < MAX_RAYS {
                rays.push(ray);
            }
            let Some(hit) = t.span("octree.intersect", || scene.intersect(&ray, f64::INFINITY))
            else {
                break;
            };
            let sp = scene.patch(hit.patch_id);
            let frame = if hit.front {
                sp.frame
            } else {
                Onb {
                    u: sp.frame.u,
                    v: -sp.frame.v,
                    w: -sp.frame.w,
                }
            };
            let bounce = t.span("reflect.reflect", || {
                reflect(&sp.material, &frame, ray.dir, energy, &mut rng)
            });
            let Bounce::Reflected {
                dir,
                local_dir,
                energy: out,
                ..
            } = bounce
            else {
                break;
            };
            bounces += 1;
            let cyl = CylDir::from_local(local_dir);
            let point = BinPoint::new(hit.s, hit.v, cyl.theta, cyl.r_sq);
            t.span("forest.tally", || forest.tally(hit.patch_id, &point, out));
            if out.max_channel() < MIN_ENERGY || bounces >= MAX_BOUNCES {
                break;
            }
            energy = out;
            ray = Ray::new(hit.point, dir).nudged(RAY_EPS);
        }
        t.end();
        // The simulator re-clusters its arenas at batch boundaries once
        // they grow by half; the composed loop does the same.
        if (j + 1) % w.step_photons == 0 {
            let nodes = forest.total_nodes();
            if nodes > watermark + watermark / 2 {
                t.span("forest.compact", || forest.compact());
                watermark = nodes;
            }
        }
    }
    (forest, rays)
}

/// Untraced serial solve of `photons`: wall seconds and the engine.
fn untraced(scene: &Scene, w: &Workload, seed: u64, photons: u64) -> (f64, photon_core::Simulator) {
    let mut sim = serial_engine(scene, w, seed);
    let t = Instant::now();
    while sim.stats().emitted < photons {
        sim.step(w.step_photons.min(photons - sim.stats().emitted));
    }
    (t.elapsed().as_secs_f64(), sim)
}

/// Runs the traced run and fills every per-layer metric.
pub fn run(w: &Workload, seed: u64, budget: Duration, m: &mut Metrics, gates: &mut Gates) {
    let started = Instant::now();
    let scene = w.scene.build();
    let seed0 = w.photon_seed(seed, 0);
    let n = w.traced_photons;
    let mut t = Tracer::with_capacity(n as usize * 12);

    // --- cost model: untraced serial vs the traced composed loop ---------
    let (u1, sim) = untraced(&scene, w, seed0, n);
    let reference = answer_bytes(&sim.snapshot());
    t.set_run(1);
    let traced_start = Instant::now();
    let (forest, rays) = traced_loop(&scene, w, seed0, n, &mut t);
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let (u2, _) = untraced(&scene, w, seed0, n);
    let untraced_wall = med(&[u1, u2]);
    gates.check(
        "traced_loop_equals_simulator",
        answer_bytes(&Answer::from_forest(&forest, n)) == reference,
        || "composed traced loop diverged from Simulator".into(),
    );
    let clock = empty_span_ns();
    let totals = t.totals(Some(1));
    let corrected = |name: &str| {
        totals.get(name).map_or(0.0, |s| {
            (s.self_ns as f64 - s.calls as f64 * clock).max(0.0)
        })
    };
    let calls = |name: &str| totals.get(name).map_or(0, |s| s.calls) as f64;
    let per_photon = untraced_wall * 1e9 / n as f64;
    let layers = [
        "generate.emit",
        "octree.intersect",
        "reflect.reflect",
        "forest.tally",
        "forest.compact",
    ];
    let explained: f64 = layers.iter().map(|l| corrected(l)).sum::<f64>() / n as f64;
    let coverage = explained / per_photon;
    println!(
        "cost model: untraced serial {} ns/photon; traced layers explain {} ns ({:.1}%); span clock cost {} ns",
        compact(per_photon),
        compact(explained),
        100.0 * coverage,
        compact(clock)
    );
    for l in layers {
        println!(
            "  self {:<20} {:>10} ns/photon",
            l,
            compact(corrected(l) / n as f64)
        );
    }
    if coverage < 0.85 {
        println!(
            "  UNMEASURED: {} ns/photon ({:.1}%) of untraced serial time is outside every traced layer",
            compact(per_photon - explained),
            100.0 * (1.0 - coverage)
        );
    }
    m.put(
        "generate.ns_per_photon",
        "ns",
        corrected("generate.emit") / n as f64,
    );
    m.put(
        "octree.rays_per_photon",
        "count",
        calls("octree.intersect") / n as f64,
    );
    m.put(
        "octree.share",
        "ratio",
        corrected("octree.intersect") / n as f64 / per_photon,
    );
    m.put(
        "reflect.ns_per_call",
        "ns",
        corrected("reflect.reflect") / calls("reflect.reflect").max(1.0),
    );
    m.put("traced.coverage", "ratio", coverage);
    m.put("traced.overhead", "ratio", traced_wall / untraced_wall);
    drop(forest);

    // --- octree: replay the workload's own photon rays -------------------
    t.set_run(2);
    let mut replay = Vec::new();
    for _ in 0..3 {
        let (hits, d) = t.timed("octree.replay", || {
            rays.iter()
                .filter(|r| scene.intersect(r, f64::INFINITY).is_some())
                .count()
        });
        replay.push(d.as_secs_f64() * 1e9 / rays.len().max(1) as f64);
        std::hint::black_box(hits);
    }
    m.put("octree.ns_per_ray", "ns", med(&replay));
    drop(rays);

    // --- trace / batch / forest: the batched kernel, chunk by chunk ------
    // It runs the full round budget, so the forest reaches the size the
    // end-to-end solve rounds see, and is checked against `Simulator` at
    // the traced photon count and at the round budget.
    t.set_run(3);
    let full = w.round_photons.max(n);
    let generator = PhotonGenerator::new(&scene);
    let mut forest = BinForest::new(scene.polygon_count(), w.split());
    let mut scratch = PartitionScratch::new(scene.polygon_count());
    let mut records: Vec<TallyRecord> = Vec::new();
    let mut stats = SimStats::default();
    let (mut trace_s, mut part_s, mut apply_s, mut nrec) = (0.0, 0.0, 0.0, 0usize);
    let mut start = 0;
    while start < full {
        let until = if start < n { n } else { full };
        let count = w.step_photons.min(until - start);
        records.clear();
        let ((), d) = t.timed("trace.trace_strided", || {
            trace_strided(
                &scene,
                &generator,
                seed0,
                start,
                count,
                0,
                1,
                &mut records,
                &mut stats,
            )
        });
        trace_s += d.as_secs_f64();
        let ((), d) = t.timed("batch.partition", || {
            scratch.partition(&[&records], start, count)
        });
        part_s += d.as_secs_f64();
        let ((), d) = t.timed("forest.tally_run", || {
            for run in &scratch.runs {
                forest.tally_run(run.patch_id, scratch.run_records(run));
            }
        });
        apply_s += d.as_secs_f64();
        nrec += records.len();
        start += count;
        if start == n {
            gates.check(
                "batched_equals_serial",
                answer_bytes(&Answer::from_forest(&forest, n)) == reference,
                || "trace → partition → apply diverged from Simulator".into(),
            );
        }
    }
    // The untraced simulator catches up to the round budget; the
    // checkpoint, answer and stream sections below use its state.
    let mut sim = sim;
    while sim.stats().emitted < full {
        sim.step(w.step_photons.min(full - sim.stats().emitted));
    }
    gates.check(
        "batched_equals_serial",
        answer_bytes(&Answer::from_forest(&forest, full)) == answer_bytes(&sim.snapshot()),
        || "trace → partition → apply diverged from Simulator at the round budget".into(),
    );
    gates.check("conserved", stats.is_conserved(), || {
        format!("batched kernel: {stats:?}")
    });
    m.put("trace.ns_per_photon", "ns", trace_s * 1e9 / full as f64);
    m.put(
        "batch.records_per_photon",
        "count",
        nrec as f64 / full as f64,
    );
    m.put(
        "batch.partition_ns_per_record",
        "ns",
        part_s * 1e9 / nrec.max(1) as f64,
    );
    m.put(
        "forest.apply_ns_per_record",
        "ns",
        apply_s * 1e9 / nrec.max(1) as f64,
    );
    m.put("forest.leaf_bins", "count", forest.total_leaf_bins() as f64);
    m.put("forest.bytes", "bytes", forest.memory_bytes() as f64);
    let mut compact_ms = Vec::new();
    for _ in 0..REPEATS {
        let mut f = forest.clone();
        compact_ms.push(ms(t.timed("forest.compact", || f.compact()).1));
    }
    m.put("forest.compact_ms", "ms", med(&compact_ms));
    drop(forest);

    // --- par: workers composed from parallel_map + trace_strided ---------
    t.set_run(4);
    let workers = nproc();
    let wall = Instant::now();
    let busy: Vec<f64> = t.span("par.parallel_map", || {
        parallel_map(workers, workers, |tid| {
            let (mut out, mut st) = (Vec::new(), SimStats::default());
            let s = Instant::now();
            trace_strided(
                &scene,
                &generator,
                seed0,
                0,
                n,
                tid as u64,
                workers as u64,
                &mut out,
                &mut st,
            );
            s.elapsed().as_secs_f64()
        })
    });
    let wall = wall.elapsed().as_secs_f64();
    let busy_frac = busy.iter().sum::<f64>() / (workers as f64 * wall);
    m.put("par.worker_busy_frac", "ratio", busy_frac);
    m.put("par.wait_frac", "ratio", 1.0 - busy_frac);
    let mut threaded = solve::Runner::new(|| threaded_engine(&scene, w, seed0), 0, 0);
    t.span("par.engine", || threaded.advance(n, w.step_photons, gates));
    gates.check(
        "threaded_equals_serial",
        answer_bytes(&threaded.engine.snapshot()) == reference,
        || "threaded answer differs from serial".into(),
    );
    m.put(
        "par.efficiency",
        "ratio",
        threaded.rate() / (workers as f64 * n as f64 / untraced_wall),
    );
    drop(threaded);

    // --- dist: pilot, rounds, forwarding, balance -------------------------
    t.set_run(5);
    let (mut dist, pilot) = t.timed("dist.new", || dist_engine(&scene, w, seed0));
    let mut rounds = Vec::new();
    while dist.main_emitted() < n {
        rounds.push(ms(t.timed("dist.step", || dist.step(w.step_photons)).1));
    }
    let main = dist.main_emitted() as f64;
    let tallies: Vec<u64> = {
        let answer = dist.snapshot();
        (0..answer.patch_count() as u32)
            .map(|p| answer.tree(p).tallies())
            .collect()
    };
    gates.check("conserved", dist.stats().is_conserved(), || {
        format!("distributed: {:?}", dist.stats())
    });
    gates.check(
        "distributed_budget",
        dist.emitted() >= n + PILOT_PHOTONS,
        || "distributed fell short".into(),
    );
    m.put("dist.pilot_ms", "ms", ms(pilot));
    m.put("dist.round_ms", "ms", med(&rounds));
    m.put(
        "dist.bytes_forwarded_per_photon",
        "bytes",
        dist.bytes_forwarded() as f64 / main,
    );
    m.put(
        "dist.virtual_s_per_mphoton",
        "s",
        dist.virtual_clock() / main * 1e6,
    );
    m.put(
        "dist.imbalance",
        "ratio",
        dist.ownership().imbalance(&tallies),
    );
    drop(dist);

    // --- checkpoint: freeze, encode, decode, restore ----------------------
    t.set_run(6);
    let (mut freeze, mut encode, mut decode, mut restore, mut bytes) =
        (vec![], vec![], vec![], vec![], 0);
    let mut resumed = serial_engine(&scene, w, seed0);
    for _ in 0..REPEATS {
        let (ck, d) = t.timed("checkpoint.freeze", || sim.checkpoint());
        freeze.push(ms(d));
        let (buf, d) = t.timed("checkpoint.encode", || ck.to_bytes());
        encode.push(ms(d));
        bytes = buf.len();
        let (back, d) = t.timed("checkpoint.decode", || EngineCheckpoint::from_bytes(&buf));
        decode.push(ms(d));
        let Ok(back) = back else {
            gates.check("checkpoint_roundtrip", false, || {
                "PHOTCK1 decode failed".into()
            });
            continue;
        };
        resumed = serial_engine(&scene, w, seed0);
        let (restored, d) = t.timed("checkpoint.restore", || resumed.restore(&back));
        restore.push(ms(d));
        let ok = restored.is_ok();
        gates.check("checkpoint_roundtrip", ok, || {
            "restore refused its own checkpoint".into()
        });
    }
    m.put("checkpoint.bytes", "bytes", bytes as f64);
    m.put("checkpoint.freeze_ms", "ms", med(&freeze));
    m.put("checkpoint.encode_ms", "ms", med(&encode));
    m.put("checkpoint.decode_ms", "ms", med(&decode));
    m.put("checkpoint.restore_ms", "ms", med(&restore));
    let before = sim.snapshot();
    sim.step(w.step_photons);
    resumed.step(w.step_photons);
    let after = sim.snapshot();
    gates.check(
        "resume_equals_uninterrupted",
        answer_bytes(&resumed.snapshot()) == answer_bytes(&after),
        || "resumed serial run diverged".into(),
    );
    drop(resumed);

    // --- answer, render -----------------------------------------------------
    t.set_run(7);
    let mut snapshot_ms = Vec::new();
    for _ in 0..REPEATS {
        let (answer, d) = t.timed("answer.snapshot", || sim.snapshot());
        std::hint::black_box(answer);
        snapshot_ms.push(ms(d));
    }
    m.put("answer.snapshot_ms", "ms", med(&snapshot_ms));
    let cams = gallery(w);
    let mut queries = Vec::new();
    for y in 0..cams[0].height {
        for x in 0..cams[0].width {
            let ray = cams[0].ray(x, y);
            if let Some(hit) = scene.intersect(&ray, f64::INFINITY) {
                queries.push((hit.patch_id, hit.s, hit.v, -ray.dir));
            }
        }
    }
    let mut radiance = Vec::new();
    for _ in 0..REPEATS {
        let (sum, d) = t.timed("answer.radiance", || {
            queries
                .iter()
                .map(|&(p, s, v, d)| after.radiance(&scene, p, s, v, d).r)
                .sum::<f64>()
        });
        std::hint::black_box(sum);
        radiance.push(d.as_secs_f64() * 1e9 / queries.len().max(1) as f64);
    }
    m.put("answer.radiance_ns", "ns", med(&radiance));
    let exposure = auto_exposure(&scene, &after);
    let cfg = serve_config();
    let mut frame_ms = Vec::new();
    for i in 0..REPEATS {
        let cam = orbit_camera(w, i as f64 / REPEATS as f64 + 0.1, 1.2);
        let (frame, d) = t.timed("render.render_parallel", || {
            render_parallel(
                &scene,
                &after,
                &cam,
                exposure,
                cfg.render_threads,
                cfg.tile_size,
            )
        });
        std::hint::black_box(frame);
        frame_ms.push(ms(d));
    }
    m.put("render.ms_per_frame", "ms", med(&frame_ms));
    let mut pixel_ns = Vec::new();
    for _ in 0..REPEATS {
        let s = Instant::now();
        for tile in tiles(cams[0].width, cams[0].height, cfg.tile_size) {
            std::hint::black_box(t.span("render.render_tile", || {
                render_tile(&scene, &after, &cams[0], tile, exposure)
            }));
        }
        pixel_ns.push(s.elapsed().as_secs_f64() * 1e9 / (cams[0].width * cams[0].height) as f64);
    }
    m.put("render.ns_per_pixel", "ns", med(&pixel_ns));

    // --- stream / wire: the delta between two consecutive epochs ----------
    t.set_run(8);
    let prev = render_parallel(
        &scene,
        &before,
        &cams[0],
        auto_exposure(&scene, &before),
        cfg.render_threads,
        cfg.tile_size,
    );
    let next = render_parallel(
        &scene,
        &after,
        &cams[0],
        exposure,
        cfg.render_threads,
        cfg.tile_size,
    );
    let mut diff_ms = Vec::new();
    let mut changed = Vec::new();
    for _ in 0..REPEATS {
        let d;
        (changed, d) = t.timed("stream.diff_tiles", || {
            diff_tiles(&prev, &next, cfg.tile_size)
        });
        diff_ms.push(ms(d));
    }
    let total_tiles = tiles(next.width(), next.height(), cfg.tile_size).len();
    m.put("stream.diff_ms", "ms", med(&diff_ms));
    // Not a metric: every lit tile changes between any two epochs. A
    // pixel shows its leaf's tally over the scene's mean patch tally
    // (radiance is divided by the emitted count, exposure by the mean
    // patch radiance), and the mean moves with every photon.
    println!(
        "stream: {} of {total_tiles} tiles changed between consecutive epochs",
        changed.len()
    );
    let delta = FrameDelta {
        epoch: 2,
        width: next.width(),
        height: next.height(),
        tiles: changed,
    };
    for (mode, name, bytes_name) in [
        (
            WireMode::Lossless,
            "wire.encode_ms.lossless",
            "wire.bytes_per_delta.lossless",
        ),
        (
            WireMode::Quantized,
            "wire.encode_ms.quantized",
            "wire.bytes_per_delta.quantized",
        ),
    ] {
        let mut enc = Vec::new();
        let mut body = Vec::new();
        for _ in 0..REPEATS {
            let d;
            (body, d) = t.timed("wire.encode", || delta.encode(mode));
            enc.push(ms(d));
        }
        m.put(name, "ms", med(&enc));
        m.put(bytes_name, "bytes", body.len() as f64 + 4.0);
        if mode == WireMode::Lossless {
            let mut dec = Vec::new();
            let mut ok = true;
            for _ in 0..REPEATS {
                let (back, d) = t.timed("wire.decode", || FrameDelta::decode(&body));
                dec.push(ms(d));
                ok &= back.is_ok_and(|(d, _)| d.tiles == delta.tiles);
            }
            gates.check("wire_lossless_roundtrip", ok, || {
                "lossless decode differs".into()
            });
            m.put("wire.decode_ms", "ms", med(&dec));
        }
    }

    // --- store ------------------------------------------------------------
    t.set_run(9);
    let store = AnswerStore::new();
    let id = store.insert("publish", scene.clone(), before);
    let mut publish_us = Vec::new();
    for _ in 0..REPEATS {
        let answer = after.clone();
        let (_, d) = t.timed("store.publish", || store.publish(id, answer));
        publish_us.push(d.as_secs_f64() * 1e6);
    }
    m.put("store.publish_us", "us", med(&publish_us));
    drop(store);
    drop(sim);

    // --- solver, cache, service, stream: a short live serve phase ---------
    t.set_run(10);
    let left = budget
        .saturating_sub(started.elapsed())
        .max(Duration::from_secs(2));
    let setup = serve::setup_repeated(w, seed, 1, gates);
    let live = t.span("serve.phase", || {
        serve::run(setup.rig, w, seed, left, true, gates)
    });
    let snap = live.service.as_ref().expect("service metrics");
    m.put(
        "cache.hit_ratio",
        "ratio",
        snap.cache_hits as f64 / snap.completed.max(1) as f64,
    );
    m.put("service.queue_wait_ms", "ms", med(&live.hit_ms));
    m.put(
        "stream.deltas_squashed",
        "count",
        snap.stream.deltas_squashed as f64,
    );
    m.put("solver.slice_ms", "ms", med(&live.slice_ms));
    m.put("solver.epochs", "count", live.epochs as f64);

    // --- spans out, self time per layer -------------------------------------
    let mut by_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, s) in t.totals(None) {
        let layer = name.split('.').next().unwrap_or(name);
        let e = by_layer.entry(layer).or_default();
        e.0 += s.calls;
        e.1 += s.self_ns;
    }
    println!("self time per layer ({} spans):", t.len());
    for (layer, (calls, self_ns)) in by_layer {
        println!(
            "  {layer:<10} {calls:>10} calls {:>12} ms",
            compact(self_ns as f64 / 1e6)
        );
    }
    let path = crate::out_dir().join(format!("spans-{}-seed{seed}.tsv", w.name));
    let written = std::fs::create_dir_all(crate::out_dir())
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| t.write_tsv(&mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("gibench: could not write {}: {e}", path.display()),
    }
}
