//! `railbench` — the end-to-end and per-layer benchmark of both Compass
//! checking rails. See `README.md` next to this package for the
//! workloads, the metrics and the layer map.
//!
//! ```text
//! cargo run --release --manifest-path railbench/Cargo.toml -- \
//!     --workload <model-check|conform-check|forensics|native-record> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets up its workload (input generation from the seed,
//! construction, one untimed warm-up unit), then repeats *passes* — the
//! workload's fixed, seed-determined set of units — until `--seconds`
//! of passes have elapsed, setting the workload up again at even
//! intervals in between, and ends with one untimed pass that meters each
//! unit's memory (the README's "Estimators" says how passes and set-ups
//! become metrics). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`. A traced run alternates
//! untraced and traced passes, so it also states the tracing overhead,
//! and writes the first traced pass's spans to
//! `railbench/out/trace-<workload>-<seed>.jsonl`.

mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use railbench::mem;
use railbench::spans::{self, Span};
use railbench::stats::{keep_best, median, unit_latency};
use workloads::{Layers, Pass, Workload};

/// Set-ups per run, spread over it; `setup_s` is the fastest
/// (deterministic workloads) or the median (`native-record`).
const SETUPS: usize = 9;

/// Minimum passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 5;

/// Environment variables the program under test reads; the benchmark
/// clears every one of them so a caller's shell cannot change a run.
const CLEARED_ENV: [&str; 11] = [
    "COMPASS_THREADS",
    "COMPASS_DPOR",
    "COMPASS_CHECKPOINT",
    "COMPASS_TELEMETRY",
    "COMPASS_TELEMETRY_INTERVAL_MS",
    "COMPASS_TRACE",
    "COMPASS_TRACE_CAP",
    "COMPASS_PROGRESS",
    "COMPASS_STATS_ADDR",
    "COMPASS_BUNDLE_DIR",
    "COMPASS_SEED",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Restricts this thread, and the threads it spawns from now on, to
/// CPU `cpu` (< 64). Returns whether that worked; elsewhere than Linux
/// on x86-64 it does nothing.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_cpu(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    let ret: i64;
    // SAFETY: `sched_setaffinity(0, 8, &mask)` only reads the eight bytes
    // of `mask`, which outlives the call; the syscall instruction
    // clobbers rcx and r11, declared below, and touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") &mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// Where traces and scratch bundles go: `railbench/out/` inside the
/// checkout the benchmark was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One JSON metric entry.
fn metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

/// Everything measured over a run's passes.
#[derive(Default)]
struct Tally {
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Per-unit minimum latency over the passes (deterministic
    /// workloads).
    best_us: Vec<f64>,
    /// Every unit latency of every pass (the others).
    pooled_us: Vec<f64>,
    units_per_pass: usize,
    events: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, pass: &Pass, wall: f64, traced: bool, deterministic: bool) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        if traced {
            self.traced_walls.push(wall);
            return;
        }
        self.walls.push(wall);
        if deterministic {
            keep_best(&mut self.best_us, &pass.unit_us);
        } else {
            self.pooled_us.extend_from_slice(&pass.unit_us);
        }
        self.units_per_pass = pass.unit_us.len();
        self.events = pass.events;
    }
}

/// Drops `old` and sets the workload up again (the two never share the
/// heap), recording the set-up time in `setups`.
fn set_up_again(
    old: Box<dyn Workload>,
    args: &Args,
    scratch: &Path,
    setups: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    drop(old);
    let t0 = Instant::now();
    let w = workloads::setup(&args.workload, args.seed, scratch)?;
    setups.push(t0.elapsed().as_secs_f64());
    Ok(w)
}

fn run(args: &Args) -> Result<String, String> {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    orc11::checkpoint::set_enabled(Some(true));
    // The model checker hands control between one OS thread per model
    // thread; across the two vCPUs each handoff may wait for the host to
    // wake the other vCPU, which made identical passes differ by 3x.
    // Every workload but `native-record` (whose point is two threads on
    // two cores) runs on one CPU: the last one, which takes fewer device
    // interrupts than CPU 0.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = (args.workload != "native-record")
        .then(|| cpus - 1)
        .filter(|&cpu| pin_to_cpu(cpu));
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let scratch = out.join(format!("scratch-{}", std::process::id()));

    let t0 = Instant::now();
    let mut w: Box<dyn Workload> = workloads::setup(&args.workload, args.seed, &scratch)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    eprintln!(
        "railbench: workload={} seed={} seconds={} trace={} explorer_threads=1 \
         checkpoint=on pinned_cpu={pinned:?} nproc={cpus} cleared_env={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        CLEARED_ENV.join(",")
    );
    eprintln!("railbench: {}", w.describe());

    let budget = Duration::from_secs(args.seconds);
    let t_run = Instant::now();
    // Time spent in the set-ups between passes, which the budget leaves
    // out: it bounds the passes alone.
    let mut resetup = Duration::ZERO;
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    // The first traced pass's spans, for the trace file.
    let mut first_spans: Vec<Span> = Vec::new();
    let mut pass_no = 0u64;
    // Traced runs alternate untraced and traced passes, so both see
    // the same warmth; the untraced ones give the overhead baseline.
    loop {
        let measured = t_run.elapsed() - resetup;
        if tally.walls.len() >= MIN_PASSES
            && (!args.trace || tally.traced_walls.len() >= MIN_PASSES)
            && measured >= budget
        {
            break;
        }
        // The set-ups after the first are spread evenly over the run, so
        // that a slow stretch of the host at start-up cannot set them all.
        if setups.len() < SETUPS && measured >= budget * setups.len() as u32 / SETUPS as u32 {
            let t0 = Instant::now();
            w = set_up_again(w, args, &scratch, &mut setups)?;
            resetup += t0.elapsed();
        }
        let traced = args.trace && pass_no % 2 == 1;
        spans::set_enabled(traced);
        spans::set_unit(0);
        let t0 = Instant::now();
        let pass = spans::span("pass", || {
            w.pass(if traced { Some(&mut layers) } else { None })
        });
        let wall = t0.elapsed().as_secs_f64();
        spans::set_enabled(false);
        if traced {
            let spans = spans::take();
            layers.absorb(&spans);
            if first_spans.is_empty() {
                first_spans = spans;
            }
            w.probe(&mut layers);
        }
        tally.add(&pass, wall, traced, w.deterministic());
        pass_no += 1;
    }
    // A budget shorter than the passes leaves some set-ups undone.
    while setups.len() < SETUPS {
        w = set_up_again(w, args, &scratch, &mut setups)?;
    }
    // One more pass, untimed, meters each unit's memory.
    let mut unit_peak_mb = Vec::new();
    if !args.trace && mem::reset_peak() {
        mem::set_metering(true);
        let pass = w.pass(None);
        mem::set_metering(false);
        tally.attempted += pass.attempted;
        tally.failed += pass.failed;
        unit_peak_mb = pass.unit_peak_mb;
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let correct = tally.failed == 0;
    // A deterministic workload repeats the same work every pass and
    // every set-up, so host noise can only add to one: the fastest is the
    // estimate of its cost. The two-thread rounds differ in how their
    // threads interleave, which is part of what they measure: their
    // median.
    let deterministic = w.deterministic();
    let pass_s = |walls: &[f64]| {
        if deterministic {
            walls.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            median(walls)
        }
    };
    let verdict_s = pass_s(&tally.walls);
    let mut metrics: Vec<String> = Vec::new();
    if args.trace {
        let traced_s = pass_s(&tally.traced_walls);
        let n_traced = tally.traced_walls.len() as f64;
        let traced_total_ns = layers.span_total_ns("pass").max(1.0);
        let unattributed = layers.span_self_ns("pass") + layers.span_self_ns("unit");
        eprintln!(
            "railbench: traced verdict_s {traced_s:.6} vs untraced {verdict_s:.6} \
             (overhead {:+.2}%); self time per pass:",
            100.0 * (traced_s / verdict_s - 1.0)
        );
        for (name, ns) in layers.self_ns() {
            eprintln!(
                "  {name:<24} {:>12.3} ms/pass {:>6.2}%",
                ns / n_traced / 1e6,
                100.0 * ns / traced_total_ns
            );
        }
        metrics.push(metric("trace.verdict_s", traced_s, "s"));
        metrics.push(metric(
            "trace.overhead_frac",
            traced_s / verdict_s - 1.0,
            "ratio",
        ));
        metrics.push(metric(
            "trace.unattributed_frac",
            unattributed / traced_total_ns,
            "ratio",
        ));
        for name in workloads::SPAN_NAMES {
            let share = layers.span_self_ns(name) / traced_total_ns;
            metrics.push(metric(&format!("self_frac.{name}"), share, "ratio"));
        }
        for (name, value, unit) in layers.finish(n_traced) {
            metrics.push(metric(name, value, unit));
        }
        write_trace(args, &first_spans);
    } else {
        let setup_s = pass_s(&setups);
        // The median unit's resident high-water mark where the metering
        // pass has one (see the README's "peak_rss_mb"), else the
        // process's.
        let peak_mb = if unit_peak_mb.is_empty() {
            mem::peak_rss_mb()
        } else {
            median(&unit_peak_mb)
        };
        let events_per_s = tally.events as f64 / verdict_s;
        let lat = if deterministic {
            unit_latency(&tally.best_us, tally.best_us.len())
        } else {
            unit_latency(&tally.pooled_us, tally.units_per_pass * MIN_PASSES)
        };
        eprintln!(
            "railbench: {} passes, {} units/pass, {} events/pass; unit tail = p{} of {} \
             samples{}; failed {}/{}; setups {:?}; pass walls {:?}",
            tally.walls.len(),
            tally.units_per_pass,
            tally.events,
            lat.rung,
            lat.n,
            if deterministic {
                " (each unit's fastest pass)"
            } else {
                " (all passes pooled)"
            },
            tally.failed,
            tally.attempted,
            setups,
            tally.walls
        );
        metrics.push(metric("verdict_s", verdict_s, "s"));
        metrics.push(metric("events_per_s", events_per_s, "1/s"));
        metrics.push(metric("unit_p50_us", lat.p50, "us"));
        metrics.push(metric("unit_tail_us", lat.tail, "us"));
        metrics.push(metric("setup_s", setup_s, "s"));
        metrics.push(metric("peak_rss_mb", peak_mb, "MB"));
        metrics.push(metric(
            "pass_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    ))
}

/// Writes one traced pass's spans as JSON lines, one span per line,
/// with self times. (Every traced pass is folded into the metrics; one
/// is written, since a `model-check` pass alone has ~400k spans.)
fn write_trace(args: &Args, spans: &[Span]) {
    let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let mut text = String::new();
    for (i, (s, own)) in spans.iter().zip(spans::self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"unit\": {}, \"self_ns\": {own}}}\n",
            s.name, s.start, s.end, s.unit
        ));
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("railbench: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("railbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("railbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("railbench: {e}");
            ExitCode::FAILURE
        }
    }
}
