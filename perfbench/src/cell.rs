//! One measurement cell: a fresh simulation that deploys a workload,
//! offers load for a ramp plus a measured window, drains, checks, and
//! returns everything measured.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use simcore::{Sim, SimRng, SimTime};
use telemetry::Tracer;

use crate::layers::{handler_histograms, Counters};
use crate::stats::{lower_quartile, percentile, Accounting};
use crate::trace::Harvest;
use crate::workload::{mix, Inputs, Load, Outcome, Workload, World, OPS};

/// Sim-time between two harvests of the traced run's span rings.
const HARVEST_EVERY: Duration = Duration::from_micros(500);

/// What a cell runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload to deploy.
    pub workload: Workload,
    /// Workload seed: cluster, population, inputs and arrivals.
    pub seed: u64,
    /// How load is offered.
    pub load: Load,
    /// Load offered before the window opens (not measured).
    pub ramp: Duration,
    /// The measured window.
    pub window: Duration,
    /// Slices the window is cut into for `host_us_per_req`.
    pub slices: u32,
    /// Head-sample one request in this many (0: untraced).
    pub trace_every: u64,
}

/// Everything one cell measured.
pub struct CellOut {
    /// Host time (see [`crate::host`]) of deployment, preload and warm-up.
    pub setup_host: Duration,
    /// End-to-end latency (ns) of every in-window request that completed
    /// correctly, ascending. Open loop: from the intended arrival.
    pub latencies: Vec<u64>,
    /// Latency (ns) of the benchmark's calls into the app, per [`OPS`].
    pub op_latencies: Vec<Vec<u64>>,
    /// Outcome counts of the in-window requests.
    pub acct: Accounting,
    /// In-window errors by kind.
    pub errors: BTreeMap<String, u64>,
    /// In-window requests that had finished when the window closed.
    pub done_by_end: u64,
    /// The measured window.
    pub window: Duration,
    /// Counter deltas over the window.
    pub counters: Counters,
    /// Handler time p50/p99 (µs) per reported service.
    pub handlers: Vec<(&'static str, f64, f64)>,
    /// Host ns per executor poll in each window slice, net of trace
    /// harvesting.
    pub slice_ns_per_poll: Vec<f64>,
    /// Global checks that failed (leaks, invariants, trace sums).
    pub check_failures: Vec<String>,
    /// Trace analysis (traced cells only), with the tracer's count of
    /// sampled requests.
    pub trace: Option<(Harvest, u64)>,
}

impl CellOut {
    /// Requests completed correctly per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        self.latencies.len() as f64 / self.window.as_secs_f64()
    }

    /// Correct completions within `budget` per simulated second.
    pub fn goodput_rps(&self, budget: Duration) -> f64 {
        let b = budget.as_nanos() as u64;
        let within = self.latencies.partition_point(|&l| l <= b);
        within as f64 / self.window.as_secs_f64()
    }

    /// Host µs per completed request: the window's polls per completed
    /// request (a sim-time count) times the lower quartile of host ns per
    /// poll over the slices. The quartile discards the slices slowed most
    /// by other work on a shared host; the poll count carries every change
    /// in simulated work.
    pub fn host_us_per_req(&self) -> f64 {
        let polls_per_req = self.counters.polls as f64 / self.latencies.len().max(1) as f64;
        lower_quartile(&self.slice_ns_per_poll) * polls_per_req / 1e3
    }

    /// Whether an open-loop cell at `rate` met the latency objective:
    /// p99 within `budget` (with enough samples to say so), at least 99%
    /// of issued requests correct and within budget, and no growing
    /// backlog — requests still in flight at window end no more than the
    /// `rate × budget` a within-budget system can hold.
    pub fn meets(&self, rate: f64, budget: Duration) -> bool {
        let b = budget.as_nanos() as u64;
        let Some(p99) = percentile(&self.latencies, 0.99) else {
            return false;
        };
        let within = self.latencies.partition_point(|&l| l <= b) as u64;
        let in_flight = self.acct.issued - self.done_by_end;
        p99.value <= b
            && within as f64 >= 0.99 * self.acct.issued as f64
            && in_flight as f64 <= rate * budget.as_secs_f64() + 1.0
    }

    /// Byte-exact digest of everything sim-time in this cell: two runs
    /// of one plan must produce equal fingerprints.
    pub fn fingerprint(&self) -> String {
        let h = |v: &[u64]| {
            v.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &x| {
                (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        let ops: Vec<u64> = self.op_latencies.iter().map(|v| h(v)).collect();
        let handlers: Vec<String> = self
            .handlers
            .iter()
            .map(|(n, a, b)| format!("{n}:{a}:{b}"))
            .collect();
        format!(
            "lat={:x}/{} ops={:x?} acct={:?} done={} counters={:?} handlers={:?}",
            h(&self.latencies),
            self.latencies.len(),
            ops,
            self.acct,
            self.done_by_end,
            self.counters,
            handlers
        )
    }
}

/// In-window bookkeeping shared by the load tasks.
struct Recorder {
    measure_from: SimTime,
    end: SimTime,
    acct: Cell<Accounting>,
    done_by_end: Cell<u64>,
    latencies: RefCell<Vec<u64>>,
    op_latencies: RefCell<Vec<Vec<u64>>>,
    errors: RefCell<BTreeMap<String, u64>>,
}

impl Recorder {
    fn issue(&self) {
        let mut a = self.acct.get();
        a.issued += 1;
        self.acct.set(a);
    }

    /// Record an in-window request: `e2e` from its intended start, `call`
    /// the app call alone.
    fn finish(&self, op: usize, out: Outcome, e2e: Duration, call: Duration, at: SimTime) {
        let mut a = self.acct.get();
        match out {
            Outcome::Ok => {
                self.latencies.borrow_mut().push(e2e.as_nanos() as u64);
                self.op_latencies.borrow_mut()[op].push(call.as_nanos() as u64);
            }
            Outcome::Error(e) => {
                a.errors += 1;
                *self
                    .errors
                    .borrow_mut()
                    .entry(format!("{e:?}"))
                    .or_default() += 1;
            }
            Outcome::Rejected => a.rejected += 1,
            Outcome::BadOutput => a.bad_output += 1,
        }
        self.acct.set(a);
        if at <= self.end {
            self.done_by_end.set(self.done_by_end.get() + 1);
        }
    }
}

/// Host time of one deployment, preload and warm-up of `workload`, with
/// no load after it.
pub fn setup_only(workload: Workload, seed: u64) -> Duration {
    Sim::new().block_on(async move {
        let t0 = crate::host::now();
        let world = World::build(workload, seed).await;
        let t = crate::host::since(t0);
        drop(world);
        t
    })
}

/// Run `plan` in a fresh simulation.
pub fn run(plan: &Plan) -> CellOut {
    let sim = Sim::new();
    let exec = sim.clone();
    let plan = plan.clone();
    sim.block_on(async move { body(exec, plan).await })
}

async fn body(sim: Sim, plan: Plan) -> CellOut {
    let t0 = crate::host::now();
    let world = Rc::new(World::build(plan.workload, plan.seed).await);
    let setup_host = crate::host::since(t0);
    let used_before = world.used_pages();
    let tracer =
        (plan.trace_every > 0).then(|| world.cluster.enable_tracing(plan.seed, plan.trace_every));

    let start = simcore::now();
    let measure_from = start + plan.ramp;
    let end = measure_from + plan.window;
    let rec = Rc::new(Recorder {
        measure_from,
        end,
        acct: Cell::new(Accounting::default()),
        done_by_end: Cell::new(0),
        latencies: RefCell::new(Vec::new()),
        op_latencies: RefCell::new(vec![Vec::new(); OPS.len()]),
        errors: RefCell::new(BTreeMap::new()),
    });
    let load = match plan.load {
        Load::Open(rate) => simcore::spawn(open_loop(world.clone(), rec.clone(), rate, plan.seed)),
        Load::Closed(workers) => {
            simcore::spawn(closed_loop(world.clone(), rec.clone(), workers, plan.seed))
        }
    };
    let harvest = Rc::new(RefCell::new(Harvest::default()));
    let stop = Rc::new(Cell::new(false));
    let harvester = tracer.clone().map(|t| {
        let (harvest, stop) = (harvest.clone(), stop.clone());
        simcore::spawn(async move {
            while !stop.get() {
                simcore::sleep(HARVEST_EVERY).await;
                harvest.borrow_mut().collect(&t);
            }
        })
    });

    // Probe: snapshot the counters at the window edges and the host clock
    // at each slice edge.
    simcore::sleep_until(measure_from).await;
    for (_, h) in handler_histograms(&world.cluster) {
        h.reset();
    }
    let before = Counters::read(&world.cluster, sim.poll_count());
    // Host time per executor poll in each slice, net of trace harvesting.
    let mark = || {
        let harvested = harvest.borrow().host;
        (
            crate::host::now().saturating_sub(harvested),
            sim.poll_count(),
        )
    };
    let mut marks = vec![mark()];
    for k in 1..=plan.slices {
        simcore::sleep_until(measure_from + plan.window * k / plan.slices).await;
        marks.push(mark());
    }
    let counters = Counters::read(&world.cluster, sim.poll_count()).since(&before);
    let handlers = handler_histograms(&world.cluster)
        .into_iter()
        .map(|(n, h)| {
            (
                n,
                h.quantile(0.5) as f64 / 1e3,
                h.quantile(0.99) as f64 / 1e3,
            )
        })
        .collect();
    let slice_ns_per_poll = marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0).as_nanos() as f64 / (w[1].1 - w[0].1).max(1) as f64)
        .collect();

    load.await;
    world.quiesce().await;
    stop.set(true);
    if let Some(h) = harvester {
        h.await;
    }
    let mut check_failures = Vec::new();
    let trace = tracer.map(|t: Rc<Tracer>| {
        let mut h = harvest.take();
        h.collect(&t);
        if h.sum_mismatches > 0 {
            check_failures.push(format!(
                "{} traces' category sums differ from their root span by more than 1%",
                h.sum_mismatches
            ));
        }
        (h, t.sampling_stats().1)
    });
    if let Err(e) = world.leak_check(used_before) {
        check_failures.push(e);
    }
    if let Err(e) = world.invariant_check() {
        check_failures.push(e);
    }

    let mut latencies = rec.latencies.take();
    latencies.sort_unstable();
    let mut op_latencies = rec.op_latencies.take();
    for v in &mut op_latencies {
        v.sort_unstable();
    }
    CellOut {
        setup_host,
        latencies,
        op_latencies,
        acct: rec.acct.get(),
        errors: rec.errors.take(),
        done_by_end: rec.done_by_end.get(),
        window: plan.window,
        counters,
        handlers,
        slice_ns_per_poll,
        check_failures,
        trace,
    }
}

/// Poisson arrivals at `rate`; latency runs from each intended arrival.
async fn open_loop(world: Rc<World>, rec: Rc<Recorder>, rate: f64, seed: u64) {
    let arrivals = SimRng::new(mix(seed, 0xA221_7A15));
    let inputs = Inputs::new(world.workload, seed, 0);
    let node = world.client_node();
    let mean_gap_ns = 1e9 / rate;
    let mut next = simcore::now();
    let mut tasks = Vec::new();
    for seq in 0.. {
        next += Duration::from_nanos(arrivals.gen_exp(mean_gap_ns) as u64);
        if next >= rec.end {
            break;
        }
        simcore::sleep_until(next).await;
        let req = inputs.next(seq, 0);
        let in_window = next >= rec.measure_from;
        if in_window {
            rec.issue();
        }
        let (world, rec, arrival) = (world.clone(), rec.clone(), next);
        tasks.push(simcore::spawn(async move {
            let root = telemetry::start_trace(req.span_name(), node);
            let t0 = simcore::now();
            let out = world.execute(req).await;
            drop(root);
            let t1 = simcore::now();
            if in_window {
                rec.finish(req.op(), out, t1 - arrival, t1 - t0, t1);
            }
        }));
    }
    for t in tasks {
        t.await;
    }
}

/// `workers` simulated clients, each sending its next request a short
/// think time after the previous one returns. A request counts when it starts and ends inside
/// the window.
async fn closed_loop(world: Rc<World>, rec: Rc<Recorder>, workers: usize, seed: u64) {
    let node = world.client_node();
    let tasks: Vec<_> = (0..workers)
        .map(|w| {
            let (world, rec) = (world.clone(), rec.clone());
            simcore::spawn(async move {
                let inputs = Inputs::new(world.workload, seed, 1 + w as u64);
                for iter in 0.. {
                    simcore::sleep(inputs.think()).await;
                    let t0 = simcore::now();
                    if t0 >= rec.end {
                        break;
                    }
                    let req = inputs.next(w, iter);
                    let root = telemetry::start_trace(req.span_name(), node);
                    let out = world.execute(req).await;
                    drop(root);
                    let t1 = simcore::now();
                    if t0 >= rec.measure_from && t1 <= rec.end {
                        rec.issue();
                        rec.finish(req.op(), out, t1 - t0, t1 - t0, t1);
                    }
                }
            })
        })
        .collect();
    for t in tasks {
        t.await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, seed: u64, load: Load, trace_every: u64) -> Plan {
        Plan {
            workload,
            seed,
            load,
            ramp: Duration::from_micros(200),
            window: Duration::from_millis(1),
            slices: 2,
            trace_every,
        }
    }

    #[test]
    fn same_seed_gives_identical_sim_results() {
        let plan = small(Workload::Share, 5, Load::Closed(4), 0);
        let a = run(&plan);
        let b = run(&plan);
        assert!(a.check_failures.is_empty(), "{:?}", a.check_failures);
        assert!(a.acct.issued > 0 && a.acct.failed() == 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = run(&small(Workload::Share, 6, Load::Closed(4), 0));
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn traced_cell_covers_every_sampled_request() {
        let out = run(&small(Workload::Image, 3, Load::Open(200e3), 1));
        assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
        let (h, sampled) = out.trace.as_ref().expect("traced");
        assert!(h.analyzed > 0);
        assert_eq!(h.analyzed, *sampled);
        assert_eq!(h.by_category.iter().sum::<u64>(), h.total_ns);
    }
}
