//! xtra_slo_scale — million-user scale-factor sweep with open-loop
//! overload control and SLO reporting (DESIGN.md §14).
//!
//! Phase 1 drives the DeathStarBench social workload over synthetic
//! populations of `SF × 1000` users ([`loadgen::Population`]: ~100
//! follows/user, ~50 posts/user, Zipf(0.99) hot keys, byte-reproducible
//! at any `SIM_THREADS`) at a ladder of offered rates and finds, per SF,
//! the **knee**: the highest rate that still meets the SLO (p99 from
//! intended arrival ≤ [`SLO_BUDGET`], ≥99% of issued requests completed
//! within budget).
//!
//! Phase 2 then offers 2× and 8× each knee with the overload-control
//! plane OFF (historical behaviour: the front-door NIC saturates, every
//! request queues behind it and SLO goodput collapses) and ON
//! (front-door admission + CoDel shedding at nginx, bounded DM-server
//! admission, client token limiting): shed requests fail fast with a
//! typed `Busy`, the admitted remainder stays near knee latency, and SLO
//! goodput plateaus instead of collapsing. The binary asserts the ON
//! cell retains ≥50% of the knee's SLO goodput at 2× for every SF, and
//! still holds that plateau at 8×.
//!
//! Emits `results/xtra_slo_scale.csv` and `results/BENCH_slo_scale.json`.
//! Cells fan out over `SIM_THREADS`; rows assemble in sweep order, so
//! both artifacts are byte-identical at every thread count.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::social::build_social_scaled;
use apps::workload::run_open_loop_classified;
use dmcommon::DmError;
use dmnet::{AdmissionConfig, ClientLimitConfig};
use loadgen::Population;
use simcore::{Sim, SimRng};
use telemetry::{SloBudget, SloReport};

use crate::report::{f2, render_bars, Table};

/// Scale factors swept: 1k → 1M users.
pub const SCALE_FACTORS: [u32; 4] = [1, 10, 100, 1000];

/// Offered-rate ladder (requests/second) for the knee search: coarse up
/// to 1 Mrps, then 100 krps rungs through the knees (1.3–1.6 Mrps), and a
/// top rung every scale factor misses.
pub const RATES: [f64; 16] = [
    50e3, 100e3, 200e3, 400e3, 600e3, 800e3, 1000e3, 1100e3, 1200e3, 1300e3, 1400e3, 1500e3,
    1600e3, 1700e3, 1800e3, 2000e3,
];

/// The p99 latency budget, a wide margin above the ~20 µs no-load p99
/// of the mix.
pub const SLO_BUDGET: Duration = Duration::from_micros(500);

/// Population seed (decoupled from the sim seed so the workload is pinned
/// by `SF` alone).
pub const POP_SEED: u64 = 42;

/// Media payload per post (matches Fig. 11).
pub const MEDIA: usize = 8192;

const WARMUP: Duration = Duration::from_millis(1);
const WINDOW: Duration = Duration::from_millis(5);

/// Knee multiples driven in phase 2 (overload ON vs OFF at each).
pub const OVERLOAD_MULTIPLES: [f64; 2] = [2.0, 8.0];

/// Per-SF overload outcome, for the JSON artifact.
struct Degradation {
    sf: u32,
    off2: f64,
    on2: f64,
    retained: f64,
    off8: f64,
    on8: f64,
}

/// Overload-control plane configuration for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overload {
    /// No admission anywhere — the historical open-loop behaviour.
    Off,
    /// Front-door admission + CoDel at nginx, bounded DM-server
    /// admission, client-side token limiting with Busy retries.
    On,
}

impl Overload {
    fn label(self) -> &'static str {
        match self {
            Overload::Off => "off",
            Overload::On => "on",
        }
    }
}

/// Front-door admission at nginx: bound the end-to-end inflight window
/// and shed when sojourn stays above target for a full interval. The
/// inflight cap is the binding mechanism — bounding end-to-end
/// concurrency bounds the queue at every downstream NIC and CPU; CoDel
/// is the backstop for sustained sojourn inflation.
/// (Also used by the chaos `slo-social` case, so the knob values live
/// in exactly one place.)
pub fn front_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_inflight: 32,
        codel_target: Duration::from_millis(1),
        codel_interval: Duration::from_millis(2),
    }
}

/// What one cell measured, flattened for `scoped_map` transport.
pub struct CellOut {
    /// Achieved completions per second.
    pub achieved_rps: f64,
    /// Completions-within-budget per second (the SLO goodput).
    pub slo_goodput_rps: f64,
    /// `within_budget / issued`.
    pub goodput_frac: f64,
    /// Fraction of issued requests shed by overload control.
    pub rejected_frac: f64,
    /// p50 / p99 / p99.9 latency in µs.
    pub p50_us: f64,
    /// p99 latency in µs.
    pub p99_us: f64,
    /// p99.9 latency in µs.
    pub p999_us: f64,
    /// Whether the SLO held.
    pub met: bool,
}

/// Golden-section search for the argmax of a unimodal `f` on `[lo, hi]`.
///
/// Classic four-point scheme: each iteration shrinks the bracket by the
/// inverse golden ratio and reuses one interior evaluation, so `iters`
/// refinements cost `iters + 2` evaluations of `f`. Returns the bracket
/// midpoint after the last refinement.
///
/// The SLO-goodput-vs-offered-load curve is unimodal (rises roughly
/// linearly to the knee, then collapses under uncontrolled overload), so
/// maximizing it over offered load finds the knee without a pinned rate
/// ladder — see [`adaptive_knee`].
pub fn golden_section_max(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, iters: usize) -> f64 {
    assert!(hi > lo, "degenerate bracket");
    let invphi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (lo, hi);
    let mut c = hi - invphi * (hi - lo);
    let mut d = lo + invphi * (hi - lo);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iters {
        if fc >= fd {
            hi = d;
            d = c;
            fd = fc;
            c = hi - invphi * (hi - lo);
            fc = f(c);
        } else {
            lo = c;
            c = d;
            fc = fd;
            d = lo + invphi * (hi - lo);
            fd = f(d);
        }
    }
    (lo + hi) / 2.0
}

/// Adaptive knee search for one SF: golden-section over offered load in
/// `[RATES.first(), RATES.last()]`, with overload control off. A cell
/// that holds the SLO scores its goodput (which rises with offered load);
/// a cell that misses scores `-rate`, so past the knee the objective
/// falls monotonically and the whole curve stays unimodal. The search
/// therefore converges on the highest load that still meets the SLO —
/// the knee — rather than on the raw-goodput peak, which sits well past
/// it. The reported knee is the best *evaluated* rate, not the final
/// bracket midpoint: the midpoint is never itself measured and can sit a
/// hair past the boundary. Returns `(knee_rate, knee_cell)`.
pub fn adaptive_knee(sf: u32, iters: usize) -> (f64, CellOut) {
    let mut best: Option<(f64, f64)> = None; // (score, rate)
    golden_section_max(
        |rate| {
            let c = run_point(sf, rate, Overload::Off);
            let score = if c.met { c.slo_goodput_rps } else { -rate };
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, rate));
            }
            score
        },
        RATES[0],
        RATES[RATES.len() - 1],
        iters,
    );
    let knee = best
        .expect("golden-section evaluates at least two points")
        .1;
    let cell = run_point(sf, knee, Overload::Off);
    (knee, cell)
}

/// `SLO_ADAPTIVE=1` sweep: per-SF golden-section knees, written to their
/// own (uncommitted) artifact stem. The default pinned-ladder sweep in
/// [`run`] is untouched, so the committed `xtra_slo_scale.csv` stays
/// byte-identical.
fn run_adaptive() {
    let threads = crate::pool::sim_threads();
    let out = crate::pool::scoped_map(SCALE_FACTORS.len(), threads, |i| {
        adaptive_knee(SCALE_FACTORS[i], 8)
    });
    let mut t = Table::new(
        "xtra_slo_scale_adaptive",
        &[
            "sf",
            "users",
            "knee_krps",
            "slo_goodput_krps",
            "goodput_frac",
            "p99_us",
            "slo_met",
        ],
    );
    for (&sf, (knee, c)) in SCALE_FACTORS.iter().zip(&out) {
        println!(
            "  SF {sf}: adaptive knee {:.1} krps, SLO goodput {:.1} krps (p99 {:.0}us)",
            knee / 1e3,
            c.slo_goodput_rps / 1e3,
            c.p99_us,
        );
        t.row(&[
            &sf,
            &(sf * loadgen::USERS_PER_SF),
            &f2(knee / 1e3),
            &f2(c.slo_goodput_rps / 1e3),
            &f2(c.goodput_frac),
            &f2(c.p99_us),
            &(c.met as u8),
        ]);
    }
    t.finish();
}

/// One (SF, rate, overload) cell: an independent simulation.
pub fn run_point(sf: u32, rate: f64, overload: Overload) -> CellOut {
    let sim = Sim::new();
    sim.block_on(async move {
        let config = match overload {
            Overload::Off => ClusterConfig::default(),
            Overload::On => ClusterConfig {
                dm_admission: Some(AdmissionConfig::default()),
                dm_client_limit: ClientLimitConfig::enabled(),
                ..ClusterConfig::default()
            },
        };
        let cluster = Cluster::new(SystemKind::DmNet, 2, config, 11);
        let pop = Population::new(sf, POP_SEED);
        let front = match overload {
            Overload::Off => None,
            Overload::On => Some(front_admission()),
        };
        let app = Rc::new(build_social_scaled(&cluster, pop, MEDIA, 3, front).await);
        app.preload(200).await.expect("preload");
        let a2 = app.clone();
        let m = run_open_loop_classified(
            rate,
            WARMUP,
            WINDOW,
            SimRng::new(rate as u64 ^ (sf as u64) << 32 ^ 0xBEEF),
            Rc::new(move |_n| {
                let app = a2.clone();
                async move { app.mixed_request().await }
            }),
            Rc::new(|e: &DmError| matches!(e, DmError::Busy)),
        )
        .await;
        let slo = SloReport::evaluate(&m.latency, m.issued, SloBudget::p99(SLO_BUDGET));
        CellOut {
            achieved_rps: m.throughput_rps(),
            slo_goodput_rps: m.goodput_rps(SLO_BUDGET),
            goodput_frac: slo.goodput,
            rejected_frac: if m.issued == 0 {
                0.0
            } else {
                m.rejected as f64 / m.issued as f64
            },
            p50_us: slo.p50_ns as f64 / 1e3,
            p99_us: slo.p99_ns as f64 / 1e3,
            p999_us: slo.p999_ns as f64 / 1e3,
            met: slo.met,
        }
    })
}

fn write_bench_json(knees: &[(u32, f64, f64)], degradation: &[Degradation]) {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"slo_scale\",\n");
    let _ = writeln!(out, "  \"slo_p99_us\": {},", SLO_BUDGET.as_micros());
    let _ = writeln!(out, "  \"users_per_sf\": {},", loadgen::USERS_PER_SF);
    out.push_str("  \"knees\": [\n");
    for (i, (sf, rate, goodput)) in knees.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"sf\": {}, \"users\": {}, \"knee_krps\": {:.2}, \"knee_slo_goodput_krps\": {:.2}}}",
            sf,
            sf * loadgen::USERS_PER_SF,
            rate / 1e3,
            goodput / 1e3,
        );
        out.push_str(if i + 1 < knees.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"overload\": [\n");
    for (i, d) in degradation.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"sf\": {}, \"off_2x_krps\": {:.2}, \"on_2x_krps\": {:.2}, \
             \"on_2x_retained_frac\": {:.3}, \"off_8x_krps\": {:.2}, \"on_8x_krps\": {:.2}}}",
            d.sf,
            d.off2 / 1e3,
            d.on2 / 1e3,
            d.retained,
            d.off8 / 1e3,
            d.on8 / 1e3,
        );
        out.push_str(if i + 1 < degradation.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    let dir = crate::report::results_dir();
    let path = dir.join("BENCH_slo_scale.json");
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("  (bench json write failed: {e})"),
    }
}

/// Run the sweep and emit both artifacts.
///
/// `SLO_ADAPTIVE=1` switches to the golden-section knee search, which
/// writes its own `xtra_slo_scale_adaptive.csv` (uncommitted) and skips
/// the pinned ladder entirely — the default path and its committed
/// artifacts are untouched.
pub fn run() {
    if std::env::var("SLO_ADAPTIVE").ok().as_deref() == Some("1") {
        run_adaptive();
        return;
    }
    let threads = crate::pool::sim_threads();
    let nr = RATES.len();

    // ---- phase 1: knee search (overload control OFF) ----------------------
    let cells: Vec<(u32, f64)> = SCALE_FACTORS
        .iter()
        .flat_map(|&sf| RATES.iter().map(move |&r| (sf, r)))
        .collect();
    let phase1 = crate::pool::scoped_map(cells.len(), threads, |i| {
        let (sf, rate) = cells[i];
        run_point(sf, rate, Overload::Off)
    });

    let mut t = Table::new(
        "xtra_slo_scale",
        &[
            "sf",
            "users",
            "offered_krps",
            "overload",
            "achieved_krps",
            "slo_goodput_krps",
            "goodput_frac",
            "rejected_frac",
            "p50_us",
            "p99_us",
            "p999_us",
            "slo_met",
        ],
    );
    let mut row = |sf: u32, rate: f64, mode: Overload, c: &CellOut| {
        t.row(&[
            &sf,
            &(sf * loadgen::USERS_PER_SF),
            &f2(rate / 1e3),
            &mode.label(),
            &f2(c.achieved_rps / 1e3),
            &f2(c.slo_goodput_rps / 1e3),
            &f2(c.goodput_frac),
            &f2(c.rejected_frac),
            &f2(c.p50_us),
            &f2(c.p99_us),
            &f2(c.p999_us),
            &(c.met as u8),
        ]);
    };

    // Knee per SF: highest laddered rate whose cell met the SLO.
    let mut knees: Vec<(u32, f64, f64)> = Vec::new();
    let mut knee_series = Vec::new();
    for (s, &sf) in SCALE_FACTORS.iter().enumerate() {
        let mut knee: Option<(f64, f64)> = None;
        for (j, &rate) in RATES.iter().enumerate() {
            let c = &phase1[s * nr + j];
            row(sf, rate, Overload::Off, c);
            if c.met {
                knee = Some((rate, c.slo_goodput_rps));
            }
        }
        let (rate, goodput) = knee.unwrap_or_else(|| {
            panic!("SF {sf}: no laddered rate met the SLO — ladder starts too high")
        });
        knees.push((sf, rate, goodput));
        knee_series.push(rate / 1e3);
    }

    // ---- phase 2: past the knee, overload control OFF vs ON ---------------
    // 2x knee is the acceptance point (graceful degradation); 8x knee is
    // deep overload, where the uncontrolled system queues without bound
    // at its saturated NIC and SLO goodput collapses.
    let cells2: Vec<(u32, f64, Overload)> = knees
        .iter()
        .flat_map(|&(sf, knee, _)| {
            OVERLOAD_MULTIPLES.iter().flat_map(move |&mult| {
                [Overload::Off, Overload::On]
                    .into_iter()
                    .map(move |m| (sf, mult * knee, m))
            })
        })
        .collect();
    let phase2 = crate::pool::scoped_map(cells2.len(), threads, |i| {
        let (sf, rate, mode) = cells2[i];
        run_point(sf, rate, mode)
    });
    for ((sf, rate, mode), c) in cells2.iter().zip(&phase2) {
        row(*sf, *rate, *mode, c);
    }
    t.finish();

    render_bars(
        "max sustainable rate (krps) holding p99 <= budget, by scale factor",
        &SCALE_FACTORS
            .iter()
            .map(|s| format!("SF{s}"))
            .collect::<Vec<_>>(),
        &[("knee_krps", knee_series)],
    );

    let per_sf = 2 * OVERLOAD_MULTIPLES.len();
    let mut degradation = Vec::new();
    for (i, &(sf, _, knee_goodput)) in knees.iter().enumerate() {
        let off2 = &phase2[per_sf * i];
        let on2 = &phase2[per_sf * i + 1];
        let off8 = &phase2[per_sf * i + 2];
        let on8 = &phase2[per_sf * i + 3];
        let retained = on2.slo_goodput_rps / knee_goodput.max(1.0);
        println!(
            "  SF {sf}: knee SLO goodput {:.1} krps; 2x knee off {:.1} / on {:.1} krps \
             ({:.0}% of knee retained); 8x knee off {:.1} / on {:.1} krps",
            knee_goodput / 1e3,
            off2.slo_goodput_rps / 1e3,
            on2.slo_goodput_rps / 1e3,
            retained * 100.0,
            off8.slo_goodput_rps / 1e3,
            on8.slo_goodput_rps / 1e3,
        );
        degradation.push(Degradation {
            sf,
            off2: off2.slo_goodput_rps,
            on2: on2.slo_goodput_rps,
            retained,
            off8: off8.slo_goodput_rps,
            on8: on8.slo_goodput_rps,
        });
    }
    write_bench_json(&knees, &degradation);

    // The controlled system must plateau: ≥50% of the knee's SLO goodput
    // retained at 2x AND at 8x the knee. (The uncontrolled OFF cells are
    // reported but not asserted — their absolute within-budget counts mix
    // the pre-collapse transient with the collapsed steady state, so only
    // their goodput_frac / p99 columns tell the collapse story.)
    for (d, &(_, _, knee_goodput)) in degradation.iter().zip(&knees) {
        assert!(
            d.retained >= 0.5,
            "SF {}: overload control must degrade gracefully at 2x knee — \
             retained only {:.0}% of knee SLO goodput ({:.0} rps)",
            d.sf,
            d.retained * 100.0,
            d.on2,
        );
        assert!(
            d.on8 >= 0.5 * knee_goodput,
            "SF {}: overload control must hold the goodput plateau at 8x knee — \
             {:.0} rps SLO goodput vs knee {:.0} rps",
            d.sf,
            d.on8,
            knee_goodput,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::golden_section_max;

    #[test]
    fn golden_section_finds_interior_maximum() {
        let x = golden_section_max(|x| -(x - 3.7) * (x - 3.7), 0.0, 10.0, 40);
        assert!((x - 3.7).abs() < 1e-6, "argmax {x} != 3.7");
    }

    #[test]
    fn golden_section_converges_to_edges_of_monotone_curves() {
        // Monotone rising: the knee sits at the top of the bracket (the
        // ladder's shape when no rate saturates the system).
        let hi = golden_section_max(|x| x, 50e3, 300e3, 30);
        assert!((hi - 300e3).abs() < 1.0, "rising argmax {hi} != hi edge");
        // Monotone falling: collapses straight onto the bottom.
        let lo = golden_section_max(|x| -x, 50e3, 300e3, 30);
        assert!((lo - 50e3).abs() < 1.0, "falling argmax {lo} != lo edge");
    }

    #[test]
    fn golden_section_evaluation_budget_is_iters_plus_two() {
        let mut calls = 0usize;
        golden_section_max(
            |x| {
                calls += 1;
                -(x - 1.0) * (x - 1.0)
            },
            0.0,
            2.0,
            8,
        );
        assert_eq!(calls, 10);
    }
}
