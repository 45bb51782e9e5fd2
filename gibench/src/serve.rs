//! Set-up and the serve phase: a live progressive solve behind the render
//! service and the TCP stream server.
//!
//! A one-worker `SolverPool` solves the workload's scene in small slices,
//! publishing an epoch every few slices. Meanwhile:
//!
//! * a closed-loop viewer with a short think time mixes unique walkthrough
//!   views (cache misses, the render path runs) with a few shared gallery
//!   views (cache hits or coalesced renders);
//! * one lossless and one quantized TCP subscriber, plus two in-process
//!   `StreamHandle` subscribers, follow every epoch of the two gallery
//!   viewpoints (one socket and one handle each, so every epoch costs two
//!   stream renders), each re-subscribing every second; a store watcher
//!   stamps each publish, so a viewpoint's delivery latency is publish →
//!   applied by the last of its subscribers;
//! * in the traced run only, one more in-process subscriber consumes
//!   slowly, so the service's slow-consumer squash path runs;
//! * the main thread submits short probe jobs and times submit → first
//!   renderable epoch.
//!
//! At the end the live job is canceled and every subscriber's reassembled
//! frame is checked against a fresh `render_parallel` of the final epoch.

use crate::solve::{dist_engine, nproc, serial_engine, threaded_engine};
use crate::stats;
use crate::workload::Workload;
use crate::Gates;
use photon_core::wire::quantization_error_bound;
use photon_core::{Camera, Image};
use photon_geom::Scene;
use photon_rng::{Lcg48, PhotonRng};
use photon_serve::{
    render_parallel, AnswerStore, BackendChoice, FrameDelta, MetricsSnapshot, RenderRequest,
    RenderService, SceneId, ServeConfig, ServeError, SolveHandle, SolveRequest, SolverPool,
    StreamClient, StreamHandle, StreamRequest, StreamServer, WatcherId, WireMode,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LIVE_TENANT: &str = "live";
const PROBE_TENANT: &str = "probe";
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 61;

// The viewer traffic below is assumed, not recorded: the repository has
// no trace of real viewer sessions. METRICS.md gives the reason for each
// number.

/// Share of viewer requests that are unique walkthrough views; the rest
/// ask for a shared gallery view.
const WALKTHROUGH_SHARE: f64 = 0.75;
/// Shared gallery viewpoints. Subscribers are split over them, one TCP
/// socket and one in-process handle each, so every epoch costs one stream
/// render per viewpoint, and a gallery request after those renders hits
/// the view cache.
const GALLERY: usize = 2;
/// Service tile side, pixels.
const TILE: usize = 16;
/// First-epoch probes per serve phase. Each probe adds a store entry that
/// lives until the end of the run, so the count is fixed to keep memory
/// independent of the phase length.
const PROBES: u32 = 200;
/// Live-solve publishes per throughput window.
const RATE_WINDOW: usize = 20;
/// The viewer's think time between a response and its next request. It
/// leaves the two CPUs some headroom, so a burst of stream renders or a
/// probe does not always find both busy; without it the render thread and
/// the live solver saturate the host and the latency tail follows the
/// scheduler rather than the program.
const THINK: Duration = Duration::from_millis(5);
/// Viewer requests a serve phase completes: a p99 needs at least 10
/// samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Longest the viewer runs past the deadline to reach [`MIN_REQUESTS`]
/// when a loaded host slowed it down.
const OVERTIME: Duration = Duration::from_secs(30);
/// Longest wait for any single answer before the operation counts as
/// failed.
const PATIENCE: Duration = Duration::from_secs(20);
/// The slow subscriber's pause after each delta it applies: a few publish
/// intervals, so the service's send window fills and later epochs squash.
const SLOW_NAP: Duration = Duration::from_millis(300);
/// How long a prompt subscriber keeps one subscription before it opens a
/// new one. The dispatcher serves subscribers in its map's order, which a
/// new subscription reshuffles; a run thus samples many orders instead of
/// the one its process drew, and the later of the two viewpoints, which
/// waits for both renders, is not always the same one.
const RESUBSCRIBE: Duration = Duration::from_secs(1);

/// Epoch → publish instant of the live scene, stamped by a store watcher.
type PublishLog = Arc<Mutex<HashMap<u64, Instant>>>;

/// A built serving stack with its live job parked and its subscribers
/// connected.
pub struct Rig {
    store: Arc<AnswerStore>,
    pool: SolverPool,
    service: Arc<RenderService>,
    server: StreamServer,
    job: SolveHandle,
    watcher: WatcherId,
    published: PublishLog,
    subscribers: Vec<Subscriber>,
    views: Vec<Camera>,
    scene: Scene,
}

/// One subscriber and the gallery viewpoint it follows.
struct Subscriber {
    feed: Feed,
    view: usize,
}

/// Repeated set-ups: the samples, the scene, and the last rig (kept).
pub struct Setup {
    /// Seconds per set-up.
    pub samples: Vec<f64>,
    /// The built scene (octree included).
    pub scene: Scene,
    /// The serving stack the serve phase drives.
    pub rig: Rig,
}

/// Camera at `phase` of a full orbit around the scene's landmark.
pub fn orbit_camera(w: &Workload, phase: f64, radius: f64) -> Camera {
    let view = w.scene.view().orbited(phase, radius);
    Camera {
        eye: view.eye,
        target: view.target,
        up: view.up,
        vfov_deg: view.vfov_deg,
        width: w.frame.0,
        height: w.frame.1,
    }
}

/// The shared gallery viewpoints.
pub fn gallery(w: &Workload) -> Vec<Camera> {
    (0..GALLERY)
        .map(|i| orbit_camera(w, i as f64 / GALLERY as f64, 1.0))
        .collect()
}

/// The service configuration every workload uses. Renders get every CPU
/// but the one the live solver holds, so the two compete only when the
/// viewer, a subscriber or a probe wakes up.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        render_threads: nproc().saturating_sub(1).max(1),
        tile_size: TILE,
        // Every epoch announces itself, even when no pixel changed, so
        // each subscriber sees the final epoch the checks compare against.
        stream_keepalive: true,
        ..ServeConfig::default()
    }
}

/// Builds everything a run needs: scene and octree, one engine per
/// backend (the distributed world boots, pilots and packs), the serving
/// stack, the parked live job and four subscribers on two viewpoints.
fn setup_once(w: &Workload, seed: u64) -> std::io::Result<(Scene, Rig)> {
    let scene = w.scene.build();
    let live_seed = w.photon_seed(seed, u64::MAX);
    drop(serial_engine(&scene, w, live_seed));
    drop(threaded_engine(&scene, w, live_seed));
    drop(dist_engine(&scene, w, live_seed));

    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    // Parked until the serve phase releases the budget.
    pool.set_tenant_budget(LIVE_TENANT, 0);
    let service = Arc::new(RenderService::start(Arc::clone(&store), serve_config()));
    service.attach_solver(pool.stats_source());
    let server = StreamServer::serve(Arc::clone(&service))?;
    let mut request = SolveRequest::new(format!("{}-live", w.name), scene.clone());
    request.backend = BackendChoice::Serial;
    request.seed = live_seed;
    request.batch_size = w.live_batch;
    request.publish_every = w.publish_every;
    request.target_photons = u64::MAX / 4;
    request.tenant = LIVE_TENANT.into();
    let job = pool.submit(request);
    let scene_id = job.scene_id();
    let published: PublishLog = Arc::default();
    let watcher = {
        let published = Arc::clone(&published);
        store.register_watcher(move |id, epoch| {
            if id == scene_id {
                published
                    .lock()
                    .expect("publish log holder panicked")
                    .insert(epoch, Instant::now());
            }
        })
    };
    let views = gallery(w);
    let mut subscribers = Vec::new();
    for (view, mode) in [WireMode::Lossless, WireMode::Quantized]
        .into_iter()
        .enumerate()
    {
        let client = StreamClient::connect(server.local_addr(), scene_id, views[view], mode)?;
        subscribers.push(Subscriber {
            feed: Feed::Tcp(client),
            view,
        });
    }
    for (view, &camera) in views.iter().enumerate() {
        subscribers.push(Subscriber {
            feed: Feed::Local(subscribe(&service, scene_id, camera)?),
            view,
        });
    }
    let rig = Rig {
        store,
        pool,
        service,
        server,
        job,
        watcher,
        published,
        subscribers,
        views,
        scene: scene.clone(),
    };
    Ok((scene, rig))
}

/// An in-process subscription to `camera`.
fn subscribe(
    service: &RenderService,
    scene_id: SceneId,
    camera: Camera,
) -> std::io::Result<StreamHandle> {
    service
        .subscribe(StreamRequest { scene_id, camera })
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Sets up `repeats` times, keeping the last stack.
pub fn setup_repeated(w: &Workload, seed: u64, repeats: usize, gates: &mut Gates) -> Setup {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        let built = setup_once(w, seed);
        samples.push(t.elapsed().as_secs_f64());
        match built {
            Ok(b) => {
                gates.check("setup", true, String::new);
                last = Some(b);
            }
            Err(e) => {
                gates.check("setup", false, || e.to_string());
            }
        }
    }
    let (scene, rig) = last.expect("at least one set-up succeeded");
    Setup {
        samples,
        scene,
        rig,
    }
}

/// What the serve phase measured.
#[derive(Default)]
pub struct LiveOut {
    /// Live-solve photons per second, one per window of publishes.
    pub photons_per_s: Vec<f64>,
    /// Probe submit → first epoch, ms.
    pub first_epoch_ms: Vec<f64>,
    /// Viewer request latencies, ms.
    pub render_ms: Vec<f64>,
    /// Latencies of requests answered from the view cache, ms: the
    /// queue-and-reply part of a request, with no render in it.
    pub hit_ms: Vec<f64>,
    /// Completed viewer requests per second of the phase.
    pub renders_per_s: f64,
    /// Publish of an epoch → a viewpoint's subscribers have all applied
    /// it, ms, averaged over the viewpoints; one sample per epoch.
    pub delivery_ms: Vec<f64>,
    /// The same per gallery viewpoint, not averaged.
    pub delivery_by_view_ms: Vec<Vec<f64>>,
    /// Publish → every subscriber of every viewpoint has applied it, ms.
    pub delivery_all_ms: Vec<f64>,
    /// TCP bytes received by both sockets ÷ epochs published.
    pub wire_bytes_per_epoch: f64,
    /// Epochs the live job published.
    pub epochs: u64,
    /// Spacing of the live job's progress reports (one per publish), ms.
    pub slice_ms: Vec<f64>,
    /// Service counters at the end of the phase.
    pub service: Option<MetricsSnapshot>,
}

impl LiveOut {
    /// p99 of request latency, gated on having ≥ 10 samples beyond it.
    pub fn render_tail_ms(&self, gates: &mut Gates) -> f64 {
        let n = self.render_ms.len();
        gates.check(
            "p99_has_tail_samples",
            stats::supports_percentile(n, 99.0),
            || format!("{n} requests cannot support a p99"),
        );
        stats::percentile(&self.render_ms, 99.0).unwrap_or(f64::NAN)
    }

    /// p90 of delivery latency, gated on having ≥ 10 samples beyond it.
    pub fn delivery_tail_ms(&self, gates: &mut Gates) -> f64 {
        let n = self.delivery_ms.len();
        gates.check(
            "p90_has_tail_samples",
            stats::supports_percentile(n, 90.0),
            || format!("{n} deliveries cannot support a p90"),
        );
        stats::percentile(&self.delivery_ms, 90.0).unwrap_or(f64::NAN)
    }
}

/// One subscriber's end state.
struct Followed {
    canvas: Option<Image>,
    /// `(epoch, instant)` of every applied delta, epochs increasing.
    applied: Vec<(u64, Instant)>,
    deltas: u64,
    errors: u64,
    wire_bytes: u64,
}

/// A source of deltas: a TCP client or an in-process handle.
enum Feed {
    Tcp(StreamClient),
    Local(StreamHandle),
}

/// Opens a fresh subscription of the same kind on the same viewpoint.
type Renew = Box<dyn FnMut() -> std::io::Result<Feed> + Send>;

/// How a subscriber consumes its deltas.
enum Pace {
    /// Applies each delta at once and re-subscribes every [`RESUBSCRIBE`].
    Prompt(Renew),
    /// Pauses [`SLOW_NAP`] after each delta while the live job runs.
    Slow,
}

impl Feed {
    fn wire_bytes(&self) -> u64 {
        match self {
            Feed::Tcp(client) => client.wire_bytes(),
            Feed::Local(_) => 0,
        }
    }

    fn next(&mut self, abort: &AtomicBool) -> Option<Result<FrameDelta, String>> {
        match self {
            Feed::Tcp(client) => Some(client.recv_delta().map_err(|e| e.to_string())),
            Feed::Local(handle) => loop {
                match handle.recv_timeout(Duration::from_millis(100)) {
                    Ok(d) => return Some(Ok(d)),
                    Err(ServeError::TimedOut) if !abort.load(Ordering::Acquire) => {}
                    Err(ServeError::TimedOut) => return None,
                    Err(e) => return Some(Err(e.to_string())),
                }
            },
        }
    }
}

/// Applies deltas until the final epoch is reached or the run aborts.
fn follow(
    mut feed: Feed,
    mut pace: Pace,
    final_epoch: Arc<AtomicU64>,
    abort: Arc<AtomicBool>,
) -> Followed {
    let mut out = Followed {
        canvas: None,
        applied: Vec::new(),
        deltas: 0,
        errors: 0,
        wire_bytes: 0,
    };
    let mut applied = 0u64;
    let mut subscribed = Instant::now();
    while applied < final_epoch.load(Ordering::Acquire) {
        let delta = match feed.next(&abort) {
            None => break,
            Some(Ok(d)) => d,
            Some(Err(e)) => {
                if !abort.load(Ordering::Acquire) {
                    out.errors += 1;
                    eprintln!("gibench: subscriber error: {e}");
                }
                break;
            }
        };
        let canvas = out.canvas.get_or_insert_with(|| delta.canvas());
        delta.apply(canvas);
        out.applied.push((delta.epoch, Instant::now()));
        applied = delta.epoch;
        out.deltas += 1;
        let live = final_epoch.load(Ordering::Acquire) == u64::MAX;
        match &mut pace {
            Pace::Slow if live => std::thread::sleep(SLOW_NAP),
            Pace::Prompt(renew) if live && subscribed.elapsed() >= RESUBSCRIBE => {
                // Close the old subscription first: at most one socket each.
                out.wire_bytes += feed.wire_bytes();
                drop(feed);
                match renew() {
                    Ok(fresh) => feed = fresh,
                    Err(e) => {
                        out.errors += 1;
                        eprintln!("gibench: re-subscribe failed: {e}");
                        return out;
                    }
                }
                // The new subscription starts from a full bootstrap frame.
                out.canvas = None;
                subscribed = Instant::now();
            }
            _ => {}
        }
    }
    out.wire_bytes += feed.wire_bytes();
    out
}

/// Epoch → publish → applied by the last of the given subscribers, ms, for
/// every epoch that each of them reached. A subscriber that received epoch
/// `e` squashed into a later delta has applied `e` when it applied that
/// delta. (Pooling one sample per subscriber instead put the median on the
/// seam between the in-process and the TCP subscribers, whose latencies
/// differ, and it jumped from run to run.)
fn delivery_ms(
    published: &HashMap<u64, Instant>,
    applied: &[&[(u64, Instant)]],
) -> BTreeMap<u64, f64> {
    let mut epochs: Vec<_> = published.iter().collect();
    epochs.sort_unstable();
    epochs
        .into_iter()
        .filter_map(|(&epoch, &at)| {
            let last = applied
                .iter()
                .map(|seen| {
                    let i = seen.partition_point(|&(e, _)| e < epoch);
                    seen.get(i).map(|&(_, t)| t)
                })
                .collect::<Option<Vec<_>>>()?
                .into_iter()
                .max()?;
            Some((
                epoch,
                last.saturating_duration_since(at).as_secs_f64() * 1e3,
            ))
        })
        .collect()
}

/// The closed-loop viewer: one request in flight at a time, [`THINK`]
/// between a response and the next request. Past `stop` it goes on until
/// it has [`MIN_REQUESTS`] answers or [`OVERTIME`] is spent.
fn view_loop(
    service: Arc<RenderService>,
    scene_id: SceneId,
    w: Workload,
    seed: u64,
    stop: Arc<AtomicBool>,
) -> Viewed {
    let mut rng = Lcg48::new(w.camera_seed(seed));
    let gallery = gallery(&w);
    let mut v = Viewed::default();
    let mut stopped: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            let since = *stopped.get_or_insert_with(Instant::now);
            if v.latency_ms.len() >= MIN_REQUESTS || since.elapsed() >= OVERTIME {
                break;
            }
        }
        let camera = if rng.next_f64() < WALKTHROUGH_SHARE {
            orbit_camera(&w, rng.next_f64(), 1.0 + 0.4 * rng.next_f64())
        } else {
            gallery[(rng.next_f64() * GALLERY as f64) as usize % GALLERY]
        };
        v.attempted += 1;
        let t = Instant::now();
        match service
            .submit(RenderRequest { scene_id, camera })
            .wait_timeout(PATIENCE)
        {
            Ok(resp) if resp.image.width() == camera.width && resp.epoch >= 1 => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                v.latency_ms.push(ms);
                if resp.outcome == photon_serve::RequestOutcome::CacheHit {
                    v.hit_ms.push(ms);
                }
            }
            Ok(resp) => {
                v.failed += 1;
                eprintln!(
                    "gibench: bad response: width {} epoch {}",
                    resp.image.width(),
                    resp.epoch
                );
            }
            Err(e) => {
                v.failed += 1;
                eprintln!("gibench: request failed: {e}");
            }
        }
        std::thread::sleep(THINK);
    }
    v
}

/// What the viewer saw.
#[derive(Default)]
struct Viewed {
    latency_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Max channel deviation of `got` from `want`, and the quantization bound
/// over `want`'s range.
fn deviation(got: &Image, want: &Image) -> (f64, f64) {
    let (mut lo, mut hi, mut dev) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
    for (g, r) in got.pixels().iter().zip(want.pixels()) {
        for (a, b) in [(g.r, r.r), (g.g, r.g), (g.b, r.b)] {
            lo = lo.min(b);
            hi = hi.max(b);
            dev = dev.max((a - b).abs());
        }
    }
    (dev, quantization_error_bound(lo, hi))
}

/// Runs the serve phase for `budget`, then tears the stack down. With
/// `slow_subscriber`, one more in-process subscriber on the first gallery
/// viewpoint pauses [`SLOW_NAP`] after every delta; it is held to the same
/// final-frame check but left out of the delivery samples.
pub fn run(
    rig: Rig,
    w: &Workload,
    seed: u64,
    budget: Duration,
    slow_subscriber: bool,
    gates: &mut Gates,
) -> LiveOut {
    let Rig {
        store,
        pool,
        service,
        server,
        job,
        watcher,
        published,
        mut subscribers,
        views,
        scene,
    } = rig;
    let scene_id = job.scene_id();
    let timed = subscribers.len();
    if slow_subscriber {
        match subscribe(&service, scene_id, views[0]) {
            Ok(handle) => subscribers.push(Subscriber {
                feed: Feed::Local(handle),
                view: 0,
            }),
            Err(e) => {
                gates.check("slow_subscriber", false, || e.to_string());
            }
        }
    }
    let final_epoch = Arc::new(AtomicU64::new(u64::MAX));
    let abort = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = channel::<()>();
    let followers: Vec<(JoinHandle<Followed>, usize, bool)> = subscribers
        .into_iter()
        .enumerate()
        .map(|(i, Subscriber { feed, view })| {
            let lossy = matches!(&feed, Feed::Tcp(c) if c.mode() == WireMode::Quantized);
            let camera = views[view];
            let pace = match &feed {
                _ if i >= timed => Pace::Slow,
                Feed::Tcp(client) => {
                    let (addr, mode) = (server.local_addr(), client.mode());
                    Pace::Prompt(Box::new(move || {
                        StreamClient::connect(addr, scene_id, camera, mode).map(Feed::Tcp)
                    }))
                }
                Feed::Local(_) => {
                    let service = Arc::clone(&service);
                    Pace::Prompt(Box::new(move || {
                        subscribe(&service, scene_id, camera).map(Feed::Local)
                    }))
                }
            };
            let (final_epoch, abort, done) = (
                Arc::clone(&final_epoch),
                Arc::clone(&abort),
                done_tx.clone(),
            );
            let h = std::thread::spawn(move || {
                let out = follow(feed, pace, final_epoch, abort);
                let _ = done.send(());
                out
            });
            (h, view, lossy)
        })
        .collect();
    drop(done_tx);

    let start = Instant::now();
    pool.set_tenant_budget(LIVE_TENANT, u64::MAX / 4);
    // Views are served once the first epoch is renderable.
    let first = store.wait_for_epoch(scene_id, 1, PATIENCE);
    gates.check("live_first_epoch", first.is_some(), || {
        "live job never published".into()
    });
    let viewer = {
        let (service, stop, w) = (Arc::clone(&service), Arc::clone(&stop), *w);
        std::thread::spawn(move || view_loop(service, scene_id, w, seed, stop))
    };

    let mut out = LiveOut::default();
    let deadline = start + budget;
    let spacing = budget / (PROBES + 1);
    for probe in 0..PROBES {
        let next = Instant::now() + spacing;
        let mut request = SolveRequest::new(format!("{}-probe-{probe}", w.name), scene.clone());
        request.seed = w.photon_seed(seed, 1_000_000 + u64::from(probe));
        request.batch_size = w.probe_photons;
        request.target_photons = w.probe_photons;
        request.tenant = PROBE_TENANT.into();
        let t = Instant::now();
        let handle = pool.submit(request);
        let first = handle.wait_epoch(1, PATIENCE);
        if gates.check("probe_first_epoch", first.is_some(), || {
            format!("probe {probe} never published")
        }) {
            out.first_epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
    }
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    stop.store(true, Ordering::Release);
    let viewed = viewer.join().expect("viewer thread");
    gates.ops("render_request", viewed.attempted, viewed.failed);
    out.renders_per_s = viewed.latency_ms.len() as f64 / start.elapsed().as_secs_f64();
    out.render_ms = viewed.latency_ms;
    out.hit_ms = viewed.hit_ms;

    job.cancel();
    let mut last: Option<photon_serve::SolveProgress> = None;
    let mut window: Option<photon_serve::SolveProgress> = None;
    let cancel_deadline = Instant::now() + PATIENCE;
    while let Some(p) = job.next_progress(cancel_deadline.saturating_duration_since(Instant::now()))
    {
        if let Some(prev) = last.filter(|_| !p.done) {
            out.slice_ms
                .push((p.elapsed_seconds - prev.elapsed_seconds) * 1e3);
        }
        // Live throughput over windows of RATE_WINDOW publishes, so each
        // window holds its share of interleaved probe slices.
        let from = *window.get_or_insert(p);
        let secs = p.elapsed_seconds - from.elapsed_seconds;
        if out.slice_ms.len() % RATE_WINDOW == 0 && secs > 0.0 && !p.done {
            out.photons_per_s
                .push((p.emitted - from.emitted) as f64 / secs);
            window = Some(p);
        }
        last = Some(p);
        if p.done {
            break;
        }
    }
    let finished = last.is_some_and(|p| p.done);
    gates.check("live_job_finishes", finished, || {
        "live job never reported done".into()
    });
    let entry = store.get(scene_id).expect("live scene stored");
    out.epochs = entry.epoch;
    final_epoch.store(entry.epoch, Ordering::Release);

    // Wait for every subscriber to apply the final epoch; past the
    // patience, abort and shut the stream server so blocked readers return.
    let wait_until = Instant::now() + PATIENCE;
    let mut finished_followers = 0;
    while finished_followers < followers.len() {
        match done_rx.recv_timeout(wait_until.saturating_duration_since(Instant::now())) {
            Ok(()) => finished_followers += 1,
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    abort.store(true, Ordering::Release);
    drop(server);

    let references: Vec<Image> = views
        .iter()
        .map(|view| {
            render_parallel(
                &entry.scene,
                &entry.answer,
                view,
                entry.exposure,
                nproc(),
                TILE,
            )
        })
        .collect();
    let mut wire = 0u64;
    let mut applied = Vec::new();
    for (i, (h, view, lossy)) in followers.into_iter().enumerate() {
        let f = h.join().expect("subscriber thread");
        gates.ops("delivery", f.deltas + f.errors, f.errors);
        if i < timed {
            applied.push((view, f.applied));
        }
        wire += f.wire_bytes;
        let Some(canvas) = f.canvas else {
            gates.check("subscriber_frame", false, || {
                format!("subscriber {i} received nothing")
            });
            continue;
        };
        let reference = &references[view];
        if lossy {
            let (dev, bound) = deviation(&canvas, reference);
            gates.check("quantized_within_bound", dev <= bound + 1e-12, || {
                format!("quantized subscriber off by {dev}, bound {bound}")
            });
        } else {
            gates.check(
                "lossless_equals_render",
                canvas.pixels() == reference.pixels(),
                || {
                    format!(
                        "subscriber {i} frame differs from render_parallel of epoch {}",
                        entry.epoch
                    )
                },
            );
        }
    }
    let published = published.lock().expect("publish log holder panicked");
    let all: Vec<_> = applied.iter().map(|(_, a)| a.as_slice()).collect();
    out.delivery_all_ms = delivery_ms(&published, &all).into_values().collect();
    let by_view: Vec<BTreeMap<u64, f64>> = (0..views.len())
        .map(|v| {
            let of_view: Vec<_> = applied
                .iter()
                .filter(|(view, _)| *view == v)
                .map(|(_, a)| a.as_slice())
                .collect();
            delivery_ms(&published, &of_view)
        })
        .collect();
    drop(published);
    // The dispatcher serves the viewpoints in its subscriber map's order,
    // which differs from process to process, and the later viewpoint
    // waits for both renders. The mean over viewpoints is the wait of the
    // average viewpoint, whichever order a process drew.
    out.delivery_ms = by_view[0]
        .keys()
        .filter_map(|epoch| {
            let each: Option<Vec<f64>> = by_view.iter().map(|v| v.get(epoch).copied()).collect();
            each.map(|each| each.iter().sum::<f64>() / each.len() as f64)
        })
        .collect();
    out.delivery_by_view_ms = by_view
        .into_iter()
        .map(|v| v.into_values().collect())
        .collect();
    out.wire_bytes_per_epoch = wire as f64 / out.epochs.max(1) as f64;
    out.service = Some(service.metrics());
    store.unregister_watcher(watcher);
    drop(job);
    pool.shutdown();
    drop(service);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_requests_support_a_p99() {
        assert!(stats::supports_percentile(MIN_REQUESTS, 99.0));
    }
}
