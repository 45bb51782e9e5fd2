//! `gibench` — the repository's one benchmark.
//!
//! ```text
//! gibench --workload <lab-solve|cornell-refine|serve-live> --seed <n>
//!         --seconds <s> --trace <0|1>
//! gibench compare <report-a.tsv> <report-b.tsv>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that times calls into each layer's public
//! functions and reports per-layer metrics. Both print a host block,
//! human-readable lines, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. A tab-separated copy
//! of the report goes to `$GIBENCH_OUT` (default `.bench_build/gibench`).
//! Normally started through `run.py`, which builds this binary first.

mod host;
mod layers;
mod serve;
mod solve;
mod spans;
mod stats;
mod workload;

use host::Host;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Correctness accounting: every operation and gate the run attempted,
/// and those that failed or mismatched.
#[derive(Default)]
pub struct Gates {
    /// Operations and gates attempted.
    pub attempted: u64,
    /// Operations that failed and gates that did not hold.
    pub failed: u64,
    /// Names of the gates that ran at least once.
    pub ran: BTreeMap<&'static str, u64>,
}

impl Gates {
    /// Counts one operation or gate; prints the reason when it failed.
    pub fn check(&mut self, gate: &'static str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        *self.ran.entry(gate).or_default() += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gibench: gate {gate} FAILED: {}", detail());
        }
        ok
    }

    /// Counts a batch of operations of which `failed` went wrong.
    pub fn ops(&mut self, gate: &'static str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        *self.ran.entry(gate).or_default() += attempted;
        if failed > 0 {
            eprintln!("gibench: {failed} of {attempted} {gate} operations failed");
        }
    }
}

/// One reported metric, with the samples its value was reduced from.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
    spread: Option<f64>,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<Metric>,
}

impl Metrics {
    /// Records a single measured value.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.rows.push(Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            spread: None,
        });
    }

    /// Records the median of `samples` (NaN when there are none, which the
    /// output check turns into a failed run).
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.rows.push(Metric {
            name: name.into(),
            unit,
            value: stats::median(samples).unwrap_or(f64::NAN),
            samples: samples.len(),
            spread: stats::relative_iqr(samples),
        });
    }

    fn print_human(&self) {
        for m in &self.rows {
            let spread = m.spread.map_or(String::new(), |s| {
                format!("  (n={}, IQR {:.1}% of median)", m.samples, 100.0 * s)
            });
            println!(
                "  {:<34} {:>14} {}{}",
                m.name,
                stats::compact(m.value),
                m.unit,
                spread
            );
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

pub fn out_dir() -> PathBuf {
    std::env::var_os("GIBENCH_OUT")
        .map_or_else(|| PathBuf::from(".bench_build/gibench"), PathBuf::from)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn write_report(
    path: &PathBuf,
    host: &Host,
    args: &Args,
    metrics: &Metrics,
    gates: &Gates,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (k, v) in host.fields() {
        writeln!(f, "host\t{k}\t{v}")?;
    }
    writeln!(f, "run\tworkload\t{}", args.workload.name)?;
    writeln!(f, "run\tseed\t{}", args.seed)?;
    writeln!(f, "run\ttrace\t{}", args.trace as u8)?;
    writeln!(f, "run\tattempted\t{}", gates.attempted)?;
    writeln!(f, "run\tfailed\t{}", gates.failed)?;
    for m in &metrics.rows {
        writeln!(f, "metric\t{}\t{}\t{:?}", m.name, m.unit, m.value)?;
    }
    f.flush()
}

fn run(args: &Args) -> (Metrics, Gates) {
    let mut gates = Gates::default();
    let mut metrics = Metrics::default();
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        layers::run(&args.workload, args.seed, budget, &mut metrics, &mut gates);
    } else {
        let w = &args.workload;
        let setup = serve::setup_repeated(w, args.seed, serve::SETUP_REPEATS, &mut gates);
        metrics.median("setup_s", "s", &setup.samples);
        let measuring = Instant::now();
        let solve = solve::run(
            w,
            &setup.scene,
            args.seed,
            budget.mul_f64(w.solve_share),
            &mut gates,
        );
        // The serve phase gets whatever the solve rounds left.
        let left = budget
            .saturating_sub(measuring.elapsed())
            .max(budget.mul_f64(0.25));
        let live = serve::run(setup.rig, w, args.seed, left, false, &mut gates);
        metrics.median("photons_per_s.serial", "1/s", &solve.serial);
        metrics.median("photons_per_s.threaded", "1/s", &solve.threaded);
        metrics.median("photons_per_s.distributed", "1/s", &solve.distributed);
        metrics.median("migrate_ms", "ms", &solve.migrate_ms);
        metrics.median("photons_per_s.live", "1/s", &live.photons_per_s);
        metrics.median("first_epoch_ms", "ms", &live.first_epoch_ms);
        let p99 = live.render_tail_ms(&mut gates);
        metrics.put(
            "render_p50_ms",
            "ms",
            stats::percentile(&live.render_ms, 50.0).unwrap_or(f64::NAN),
        );
        metrics.put("render_p99_ms", "ms", p99);
        metrics.put("renders_per_s", "1/s", live.renders_per_s);
        let p90 = live.delivery_tail_ms(&mut gates);
        metrics.put(
            "delivery_p50_ms",
            "ms",
            stats::percentile(&live.delivery_ms, 50.0).unwrap_or(f64::NAN),
        );
        metrics.put("delivery_p90_ms", "ms", p90);
        metrics.put("wire_bytes_per_epoch", "bytes", live.wire_bytes_per_epoch);
        // For reading only: the dispatcher renders the two viewpoints in
        // the order of its subscriber map, which differs from process to
        // process, so which one is delivered first flips between runs.
        let views = live.delivery_by_view_ms.iter().enumerate();
        for (label, samples) in views
            .map(|(v, s)| (format!("gallery view {v}"), s))
            .chain([("all viewpoints".to_string(), &live.delivery_all_ms)])
        {
            println!(
                "delivery, {label}: p50 {} ms, p90 {} ms ({} epochs)",
                stats::compact(stats::percentile(samples, 50.0).unwrap_or(f64::NAN)),
                stats::compact(stats::percentile(samples, 90.0).unwrap_or(f64::NAN)),
                samples.len()
            );
        }
        println!(
            "solve: {} photons per backend in {} rounds of up to {} (final forest {} leaf bins, \
             {} bytes); serve: {} requests, {} epochs, {} deliveries, {} probes",
            solve.photons,
            solve.rounds,
            w.round_photons,
            solve.leaf_bins,
            solve.forest_bytes,
            live.render_ms.len(),
            live.epochs,
            live.delivery_ms.len(),
            live.first_epoch_ms.len()
        );
        metrics.put("peak_rss_mb", "MiB", peak_rss_mb());
    }
    (metrics, gates)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gibench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    println!("{host}");
    println!(
        "workload {} (seed {}; default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}), {} s, trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    println!("  why: {}", args.workload.why);
    let started = Instant::now();
    let (mut metrics, mut gates) = run(&args);
    // Error rate is `failed / attempted` of the result line; a run that
    // reports no error rate of its own is still held to every gate.
    let finite = metrics.rows.iter().all(|m| m.value.is_finite());
    gates.check("metrics_finite", finite, || {
        "a metric has no samples".into()
    });
    metrics.rows.retain(|m| m.value.is_finite());
    println!("metrics ({:.1} s wall):", started.elapsed().as_secs_f64());
    metrics.print_human();
    let ran: Vec<String> = gates.ran.iter().map(|(k, n)| format!("{k}×{n}")).collect();
    println!("gates: {}", ran.join(" "));
    println!(
        "error_rate: {} failed of {} attempted = {}",
        gates.failed,
        gates.attempted,
        gates.failed as f64 / gates.attempted.max(1) as f64
    );
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.tsv",
        args.workload.name, args.seed, args.trace as u8
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|_| write_report(&path, &host, &args, &metrics, &gates))
    {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => eprintln!("gibench: could not write {}: {e}", path.display()),
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gates.failed == 0,
        gates.attempted.max(1),
        gates.failed,
        metrics.json()
    );
}

/// `(name, unit, value)` rows of a report.
type ReportMetrics = Vec<(String, String, f64)>;

/// Reads a report written by [`write_report`]: host block and metrics.
fn read_report(path: &str) -> std::io::Result<(Host, ReportMetrics)> {
    let text = std::fs::read_to_string(path)?;
    let mut host_fields = Vec::new();
    let mut metrics = Vec::new();
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        match cols.as_slice() {
            ["host", k, v] => host_fields.push((*k, *v)),
            ["metric", name, unit, value] => {
                if let Ok(v) = value.parse() {
                    metrics.push((name.to_string(), unit.to_string(), v));
                }
            }
            _ => {}
        }
    }
    Ok((Host::from_fields(host_fields.into_iter()), metrics))
}

/// `gibench compare <base> <new>`: ratios only between comparable hosts.
fn compare(paths: &[String]) -> i32 {
    let [a, b] = paths else {
        eprintln!("usage: gibench compare <base-report.tsv> <new-report.tsv>");
        return 2;
    };
    let (Ok((ha, ma)), Ok((hb, mb))) = (read_report(a), read_report(b)) else {
        eprintln!("gibench: cannot read {a} or {b}");
        return 2;
    };
    println!("base {ha}\nnew  {hb}");
    let same = ha.comparable(&hb);
    if !same {
        println!("ADVISORY: different hosts or builds; values side by side, no ratios");
    }
    for (name, unit, base) in &ma {
        let Some((_, _, new)) = mb.iter().find(|(n, _, _)| n == name) else {
            println!("  {name:<34} only in base");
            continue;
        };
        if same {
            println!("  {name:<34} {}", stats::ratio_with_base(*new, *base, unit));
        } else {
            println!(
                "  {name:<34} base {} {unit} | new {} {unit}",
                stats::compact(*base),
                stats::compact(*new)
            );
        }
    }
    0
}
