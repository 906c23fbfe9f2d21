//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Deploys one workload on DmRPC-net with the default `ClusterConfig`,
//! drives it through the public `apps` request functions, checks every
//! output, and prints the metrics by name with their units. The last
//! stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` reports the end-to-end metrics: latency percentiles and
//!   throughput of the main cell (fixed-rate open loop or closed loop),
//!   SLO goodput, the open-loop knee, and the simulator's host cost.
//! * `--trace 1` reports the per-layer metrics: counter deltas of every
//!   layer over the main cell's window, the benchmark's own timings of
//!   its calls into `apps` and `loadgen`, and a separate traced run's
//!   per-category latency split.
//!
//! `--seconds` scales every simulated window: on a 2-core x86-64 host the
//! main cell takes about half of it and the knee search about as much
//! again. The same seed and seconds give byte-identical sim-time metrics.

mod cell;
mod host;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use cell::{CellOut, Plan};
use stats::{find_knee, median, percentile};
use workload::{Load, Workload, OPS};

/// Load offered before any window opens.
const RAMP: Duration = Duration::from_millis(1);
/// Requests per knee cell, per second of `--seconds` (at 20 seconds p99
/// has 320 samples beyond it).
const KNEE_SAMPLES_PER_SECOND: f64 = 1600.0;
/// Requests in the cell that is run twice to check determinism.
const DETERMINISM_SAMPLES: f64 = 2000.0;
/// Extra set-ups without load, so `setup_s` is a median of many.
const SETUP_REPEATS: usize = 5;
/// Relative resolution of the knee search.
const KNEE_RESOLUTION: f64 = 0.02;
/// Slices the main window is cut into for `host_us_per_req`.
const SLICES: u32 = 20;
/// The traced run (and its untraced twin) covers the first part of the
/// main window, this share of it...
const TRACE_WINDOW_DIV: u32 = 8;
/// ...and head-samples one request in this many.
const TRACE_EVERY: u64 = 16;
/// `Population::followers` calls timed for `loadgen.followers_ns`.
const FOLLOWER_CALLS: u32 = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=600"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                metrics::workload_names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={} | host_parallelism={} profile={} commit={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
    );
    let (report, catalog) = if args.trace {
        (per_layer_run(&args), metrics::per_layer())
    } else {
        (end_to_end_run(&args), metrics::end_to_end())
    };
    assert!(
        catalog.iter().all(|(n, _)| metrics::valid_name(n)),
        "metric names must be letters, digits, `_`, `.` and `-`"
    );
    for (name, unit) in &catalog {
        let v = report.values.iter().find(|(n, _)| n == name).map(|p| p.1);
        println!("  {name:<36} {:>14.4} {unit}", v.unwrap_or(f64::NAN));
    }
    println!(
        "{}",
        metrics::result_line(
            report.correct,
            report.attempted,
            report.failed,
            &catalog,
            &report.values
        )
    );
    ExitCode::SUCCESS
}

/// The main cell: the workload's fixed-rate or closed-loop load over a
/// window scaled by `--seconds`.
fn main_plan(args: &Args) -> Plan {
    let w = args.workload;
    Plan {
        workload: w,
        seed: args.seed,
        load: w.main_load(),
        ramp: RAMP,
        window: w.window_per_second() * args.seconds,
        slices: SLICES,
        trace_every: 0,
    }
}

/// The start of the main cell, head-sampling one request in
/// `trace_every` (0: untraced, the traced run's baseline).
fn trace_plan(args: &Args, trace_every: u64) -> Plan {
    let main = main_plan(args);
    Plan {
        window: main.window / TRACE_WINDOW_DIV,
        trace_every,
        ..main
    }
}

/// An open-loop cell at `rate`, long enough for about `samples` requests.
fn knee_plan(w: Workload, seed: u64, rate: f64, samples: f64) -> Plan {
    Plan {
        workload: w,
        seed,
        load: Load::Open(rate),
        ramp: RAMP,
        window: Duration::from_secs_f64(samples / rate),
        slices: 1,
        trace_every: 0,
    }
}

/// Print a cell's global check failures; true when there were none.
fn checks_pass(what: &str, out: &CellOut) -> bool {
    for f in &out.check_failures {
        println!("  CHECK FAILED ({what}): {f}");
    }
    out.check_failures.is_empty()
}

fn end_to_end_run(args: &Args) -> Report {
    let w = args.workload;
    let budget = w.budget();
    let mut correct = true;
    let mut setups = Vec::new();

    // Knee: highest open-loop rate meeting the p99 budget, found by
    // bisection over open-loop cells; each cell is a full set-up too.
    let (lo, hi) = w.knee_bracket();
    let knee = find_knee(lo, hi, KNEE_RESOLUTION, 3, |rate| {
        let samples = KNEE_SAMPLES_PER_SECOND * args.seconds as f64;
        let out = cell::run(&knee_plan(w, args.seed, rate, samples));
        setups.push(out.setup_host.as_secs_f64());
        correct &= checks_pass(&format!("knee cell {:.1} krps", rate / 1e3), &out);
        correct &= out.acct.bad_output == 0;
        let ok = out.meets(rate, budget);
        println!(
            "  knee cell {:>8.1} krps: p99 {:>8.1} us, {} issued, {} errors -> {}",
            rate / 1e3,
            percentile(&out.latencies, 0.99).map_or(f64::NAN, |p| p.value as f64 / 1e3),
            out.acct.issued,
            out.acct.errors,
            if ok { "meets" } else { "misses" },
        );
        ok
    });
    let knee_rate = match knee {
        Some(k) => k,
        None => {
            println!("  CHECK FAILED: no offered rate met the {budget:?} p99 budget");
            correct = false;
            f64::MIN_POSITIVE
        }
    };

    // Determinism: one seed run twice must reproduce every sim-time number
    // and counter byte for byte.
    let det = knee_plan(w, args.seed, knee_rate.max(lo), DETERMINISM_SAMPLES);
    let (a, b) = (cell::run(&det), cell::run(&det));
    if a.fingerprint() != b.fingerprint() {
        println!("  CHECK FAILED: the same seed gave different sim-time results");
        correct = false;
    }
    for _ in 0..SETUP_REPEATS {
        setups.push(cell::setup_only(w, args.seed).as_secs_f64());
    }

    let main = cell::run(&main_plan(args));
    setups.push(main.setup_host.as_secs_f64());
    correct &= checks_pass("main cell", &main);
    let mut values = vec![
        ("throughput_krps".to_string(), main.throughput_rps() / 1e3),
        (
            "slo_goodput_krps".to_string(),
            main.goodput_rps(budget) / 1e3,
        ),
        ("knee_krps".to_string(), knee_rate / 1e3),
        ("setup_s".to_string(), median(&setups)),
        ("host_us_per_req".to_string(), main.host_us_per_req()),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
    ];
    for (name, q) in [("p50_us", 0.5), ("p99_us", 0.99), ("p999_us", 0.999)] {
        match percentile(&main.latencies, q) {
            Some(p) => {
                println!(
                    "  {name}: {:.3} us over {} samples, {} beyond",
                    p.value as f64 / 1e3,
                    p.n,
                    p.beyond
                );
                values.push((name.to_string(), p.value as f64 / 1e3));
            }
            None => {
                println!(
                    "  CHECK FAILED: {name} withheld: {} samples leave fewer than 10 beyond it",
                    main.latencies.len()
                );
                correct = false;
                values.push((name.to_string(), 0.0));
            }
        }
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  host thread CPU time, host_parallelism={}:\n    setup_s median of set-ups [{}]\n    \
         host ns per poll in window slices (lower quartile used) [{}]",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fmt(&setups),
        fmt(&main.slice_ns_per_poll),
    );
    report_accounting(&main);
    Report {
        correct,
        attempted: main.acct.issued,
        failed: main.acct.failed(),
        values,
    }
}

fn report_accounting(out: &CellOut) {
    let a = out.acct;
    println!(
        "  issued {} | errors {} {:?} | rejected {} | bad outputs {} | fail_frac {}",
        a.issued,
        a.errors,
        out.errors,
        a.rejected,
        a.bad_output,
        a.fail_frac()
    );
}

fn per_layer_run(args: &Args) -> Report {
    let main = cell::run(&main_plan(args));
    let mut correct = checks_pass("main cell", &main);
    let cores = apps::cluster::ClusterConfig::default().cores_per_node;
    let mut values = main
        .counters
        .per_layer(main.acct.issued, main.window, cores);
    for (name, ..) in layers::HANDLERS {
        let (p50, p99) = main
            .handlers
            .iter()
            .find(|h| h.0 == name)
            .map_or((0.0, 0.0), |h| (h.1, h.2));
        values.push((format!("rpclib.handler_us.{name}.p50"), p50));
        values.push((format!("rpclib.handler_us.{name}.p99"), p99));
    }
    for (i, op) in OPS.iter().enumerate() {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            // An op the workload does not issue reads 0.
            let v = percentile(&main.op_latencies[i], q).map_or(0.0, |p| p.value as f64 / 1e3);
            values.push((format!("apps.{op}_us.{tag}"), v));
        }
    }
    values.push(("loadgen.followers_ns".into(), followers_ns(args.seed)));
    values.push(("fail_frac".into(), main.acct.fail_frac()));

    let traced = cell::run(&trace_plan(args, TRACE_EVERY));
    correct &= checks_pass("traced cell", &traced);
    let untraced = cell::run(&trace_plan(args, 0));
    let (harvest, sampled) = traced.trace.as_ref().expect("traced cell");
    for (label, us) in harvest.mean_us() {
        values.push((format!("trace.{label}_us"), us));
    }
    values.push((
        "trace.overhead".into(),
        traced.host_us_per_req() / untraced.host_us_per_req(),
    ));
    values.push((
        "trace.coverage".into(),
        harvest.analyzed as f64 / (*sampled).max(1) as f64,
    ));
    println!(
        "  traced run: {} of {} sampled requests analyzed, mean root {:.3} us; \
         queueing folded into serialize/transport is a known gap",
        harvest.analyzed,
        sampled,
        harvest.total_ns as f64 / harvest.analyzed.max(1) as f64 / 1e3,
    );
    if harvest.analyzed == 0 {
        println!("  CHECK FAILED: the traced run analyzed no request");
        correct = false;
    }
    println!(
        "  host-time metrics (trace.overhead, loadgen.followers_ns): host_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    report_accounting(&main);
    Report {
        correct,
        attempted: main.acct.issued,
        failed: main.acct.failed(),
        values,
    }
}

/// Host ns per `Population::followers` call over the social population,
/// users drawn from the seed.
fn followers_ns(seed: u64) -> f64 {
    let pop = loadgen::Population::new(workload::SOCIAL_SF, seed);
    let rng = simcore::SimRng::new(workload::mix(seed, 0xF0_11_0E));
    let users: Vec<u32> = (0..FOLLOWER_CALLS)
        .map(|_| rng.gen_range(pop.users() as u64) as u32)
        .collect();
    let t0 = host::now();
    let mut total = 0usize;
    for &u in &users {
        total += std::hint::black_box(pop.followers(std::hint::black_box(u))).len();
    }
    let ns = host::since(t0).as_nanos() as f64 / FOLLOWER_CALLS as f64;
    assert!(total > 0, "population has followers");
    ns
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head,
    }
}
