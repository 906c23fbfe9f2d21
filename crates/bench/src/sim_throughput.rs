//! Executor self-benchmark: wall-clock throughput of the simulation engine.
//!
//! Unlike the `fig*` experiments, which report *virtual-time* results, this
//! measures how fast the reproduction itself runs: task polls per second of
//! real time across scenarios that stress each hot path of the scheduler —
//! timers, ready-queue wakeups, task churn, and the full RPC stack.
//! `results/xtra_sim_throughput.csv` records the numbers; they are
//! machine-dependent and exist to track engine-performance regressions.

use crate::report::{f2, Table};
use bytes::Bytes;
use simcore::sync::mpsc;
use simcore::Sim;
use std::time::{Duration, Instant};

struct Outcome {
    polls: u64,
    wall: Duration,
}

fn measure(build: impl Fn(&Sim)) -> Outcome {
    // One warmup run, then the timed run.
    let warm = Sim::new();
    build(&warm);
    warm.run();
    let sim = Sim::new();
    let start = Instant::now();
    build(&sim);
    sim.run();
    let wall = start.elapsed();
    Outcome {
        polls: sim.poll_count(),
        wall,
    }
}

/// Pure timer path: 200 tasks sleeping 500 times each, deadlines interleaved.
fn timer_storm(sim: &Sim) {
    for i in 0..200u64 {
        sim.spawn(async move {
            for j in 0..500u64 {
                simcore::sleep(Duration::from_nanos(i * 13 + j * 97 + 1)).await;
            }
        });
    }
}

/// Pure wakeup path: 64 channel ping-pong pairs, 1000 rounds each. No timers,
/// so every event is a ready-queue push + task poll.
fn pingpong(sim: &Sim) {
    for _ in 0..64 {
        let (atx, mut arx) = mpsc::channel::<u32>();
        let (btx, mut brx) = mpsc::channel::<u32>();
        sim.spawn(async move {
            let _ = atx.send(0);
            while let Some(v) = brx.recv().await {
                if v >= 1000 {
                    break;
                }
                let _ = atx.send(v + 1);
            }
        });
        sim.spawn(async move {
            while let Some(v) = arx.recv().await {
                if btx.send(v + 1).is_err() || v >= 1000 {
                    break;
                }
            }
        });
    }
}

/// Task churn: waves of short-lived tasks exercising spawn/complete/free.
fn spawn_churn(sim: &Sim) {
    sim.spawn(async {
        for wave in 0..200u64 {
            let handles: Vec<_> = (0..100u64)
                .map(|i| {
                    simcore::spawn(async move {
                        simcore::yield_now().await;
                        wave ^ i
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        }
    });
}

/// Full stack: RPC echo storm through the simulated fabric, 8 clients x 200
/// calls with multi-packet payloads (fragmentation + reassembly + ACKs).
fn rpc_storm(sim: &Sim) {
    sim.spawn(async {
        let net = simnet::Network::new(simnet::FabricConfig::default(), 42);
        let sn = net.add_node("server", simnet::NicConfig::default());
        let server = rpclib::RpcBuilder::new(&net, sn, 10).build();
        server.register(1, |ctx| async move { ctx.payload });
        let server_addr = server.addr();
        let mut done = Vec::new();
        for c in 0..8 {
            let net = net.clone();
            let cn = net.add_node(format!("c{c}"), simnet::NicConfig::default());
            done.push(simcore::spawn(async move {
                let client = rpclib::RpcBuilder::new(&net, cn, 10).build();
                let payload = Bytes::from(vec![c as u8; 9000]);
                for _ in 0..200 {
                    client.call(server_addr, 1, payload.clone()).await.unwrap();
                }
            }));
        }
        for d in done {
            d.await;
        }
    });
}

/// Zero-overhead gate for the telemetry subsystem (DESIGN.md §10): with a
/// tracer installed but sampling off, the full-stack `rpc_storm` scenario
/// must take the exact same schedule (poll-count equality — installed-but-off
/// hooks may not move a single wakeup) and must not slow down by more than
/// 2% of wall time (medians of interleaved repetitions, so machine noise
/// hits both sides equally). Panics on violation; run by the CI `telemetry`
/// job via `xtra_telemetry_overhead`.
pub fn telemetry_overhead_gate() {
    fn timed(install_tracer: bool) -> Outcome {
        // Keep the tracer + its TLS installation alive for the whole run.
        let _tracing = install_tracer.then(|| {
            let t = std::rc::Rc::new(telemetry::Tracer::new(1, 0));
            let guard = t.install();
            (t, guard)
        });
        let sim = Sim::new();
        let start = Instant::now();
        rpc_storm(&sim);
        sim.run();
        Outcome {
            polls: sim.poll_count(),
            wall: start.elapsed(),
        }
    }
    timed(false);
    timed(true); // warmup both paths
    let mut off = Vec::new();
    let mut on = Vec::new();
    // Alternate which side goes first so drift (turbo, thermal) cancels.
    for i in 0..9 {
        if i % 2 == 0 {
            off.push(timed(false));
            on.push(timed(true));
        } else {
            on.push(timed(true));
            off.push(timed(false));
        }
    }
    assert_eq!(
        off[0].polls, on[0].polls,
        "an installed-but-off tracer changed the executor schedule"
    );
    let median = |v: &mut Vec<Outcome>| {
        v.sort_by_key(|o| o.wall);
        v[v.len() / 2].wall.as_secs_f64()
    };
    let (base, traced) = (median(&mut off), median(&mut on));
    let overhead_pct = (traced / base - 1.0) * 100.0;
    println!(
        "telemetry installed-but-off overhead on rpc_storm: {overhead_pct:+.2}% \
         (baseline {:.2} ms, with tracer {:.2} ms, {} polls)",
        base * 1e3,
        traced * 1e3,
        off[0].polls
    );
    assert!(
        overhead_pct <= 2.0,
        "installed-but-off telemetry slowed rpc_storm by {overhead_pct:.2}% (> 2%)"
    );
}

/// One emitted measurement, also recorded in `BENCH_sim_throughput.json`.
struct Row {
    name: &'static str,
    polls: u64,
    wall: Duration,
}

impl Row {
    fn polls_per_sec(&self) -> f64 {
        self.polls as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Write the trajectory artifact `results/BENCH_sim_throughput.json`:
/// polls/sec and wall time per scenario, so later changes can track the
/// engine-performance curve.
/// Hand-rolled JSON with a fixed field order; wall-clock numbers are
/// machine-dependent by nature, so `host_parallelism` is recorded
/// alongside them.
fn write_bench_json(rows: &[Row]) {
    use std::fmt::Write as _;
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"sim_throughput\",\n");
    let _ = writeln!(out, "  \"host_parallelism\": {host},");
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"polls\": {}, \
             \"wall_ms\": {:.3}, \"polls_per_sec\": {:.0}}}",
            r.name,
            r.polls,
            r.wall.as_secs_f64() * 1e3,
            r.polls_per_sec(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let dir = crate::report::results_dir();
    let path = dir.join("BENCH_sim_throughput.json");
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("  (bench json write failed: {e})"),
    }
}

type Scenario = (&'static str, fn(&Sim));

/// The engine stressors, in report order.
const SCENARIOS: [Scenario; 4] = [
    ("timer_storm", timer_storm),
    ("pingpong", pingpong),
    ("spawn_churn", spawn_churn),
    ("rpc_storm", rpc_storm),
];

/// Run every scenario (one warmup, one timed run each) and emit
/// `results/xtra_sim_throughput.csv` + `results/BENCH_sim_throughput.json`.
pub fn run() {
    let rows: Vec<Row> = SCENARIOS
        .iter()
        .map(|&(name, build)| {
            let o = measure(build);
            Row {
                name,
                polls: o.polls,
                wall: o.wall,
            }
        })
        .collect();

    let mut t = Table::new(
        "xtra_sim_throughput",
        &["scenario", "polls", "wall_ms", "polls_per_sec"],
    );
    for r in &rows {
        t.row(&[
            &r.name,
            &r.polls,
            &f2(r.wall.as_secs_f64() * 1e3),
            &format!("{:.0}", r.polls_per_sec()),
        ]);
    }
    t.finish();
    write_bench_json(&rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial engine's schedule, pinned: any change to how the
    /// executor, timers, channels, rpclib or simnet order their wakeups
    /// moves at least one of these poll counts.
    #[test]
    fn scenario_poll_counts_are_pinned() {
        let polls: Vec<(&str, u64)> = SCENARIOS
            .iter()
            .map(|&(name, build)| {
                let sim = Sim::new();
                build(&sim);
                sim.run();
                (name, sim.poll_count())
            })
            .collect();
        assert_eq!(
            polls,
            [
                ("timer_storm", 100_200),
                ("pingpong", 64_192),
                ("spawn_churn", 40_201),
                ("rpc_storm", 62_426),
            ]
        );
    }
}
