//! The three workloads: how each deploys, what inputs it draws from the
//! seed, how one request runs, and how its output is checked.

use std::rc::Rc;
use std::time::Duration;

use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::image_pipeline::{build_pipeline, ImagePipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::sharebench::{build_sharebench, ShareBench};
use apps::social::{build_social_scaled, SocialApp, MIX, POSTS_PER_READ, POST_CAPACITY};
use bytes::Bytes;
use dmcommon::{DmError, PAGE_SIZE};
use dmrpc::{DmHandle, DmRpc};
use loadgen::Population;
use simcore::{SimRng, Zipf};

/// Social scale factor: 100 × 1000 users.
pub const SOCIAL_SF: u32 = 100;
/// Media bytes per social post.
pub const MEDIA: usize = 8192;
/// Posts composed before any request is timed.
const SOCIAL_PRELOAD: usize = 200;
/// Image size for the pipeline.
pub const IMAGE: usize = 8192;
/// Distinct images the image workload draws from.
const IMAGE_POOL: usize = 8;
/// Client nodes the image load is spread over.
const IMAGE_CLIENTS: usize = 3;
/// Block passed by reference in the sharing workload.
pub const SHARE_BLOCK: usize = 32 * 1024;
/// Share of the block the callee overwrites per request.
pub const SHARE_WRITE_PCT: u8 = 25;
/// Sequential requests run at the end of set-up, on every workload.
const WARMUP_REQUESTS: u64 = 200;
/// DM servers in every cluster (the paper's two memory nodes).
const DM_SERVERS: usize = 2;
/// Mean think time of a closed-loop worker between a reply and its next
/// request (exponential). Small next to every request's latency, it keeps
/// workers from settling into one lock-step schedule, so the latency
/// distribution depends on the seed as it would on real clients.
pub const THINK_MEAN: Duration = Duration::from_micros(2);

/// How a cell offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Poisson arrivals at this many requests per second.
    Open(f64),
    /// This many simulated workers, each waiting for its reply.
    Closed(usize),
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DeathStarBench social network over a 100k-user population.
    Social,
    /// Fig. 10a 7-tier image pipeline with 8 KB images.
    Image,
    /// Fig. 8 caller/callee sharing with 25% callee writes.
    Share,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Social, Workload::Image, Workload::Share];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Social => "social-sf100",
            Workload::Image => "image-8k",
            Workload::Share => "share-32k-w25",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The latency budget `slo_goodput_krps` and `knee_krps` are judged
    /// against (a p99 limit).
    pub fn budget(self) -> Duration {
        match self {
            Workload::Social => Duration::from_micros(500),
            Workload::Image | Workload::Share => Duration::from_micros(250),
        }
    }

    /// Load of the fixed-rate or closed-loop cell the end-to-end metrics
    /// come from.
    pub fn main_load(self) -> Load {
        match self {
            Workload::Social => Load::Open(200e3),
            Workload::Image => Load::Closed(64),
            Workload::Share => Load::Closed(16),
        }
    }

    /// Simulated measurement window of the main cell per second of
    /// `--seconds`, sized so the main cell takes about half of the
    /// seconds given on a 2-core x86-64 host (the knee search takes the
    /// other half).
    pub fn window_per_second(self) -> Duration {
        match self {
            Workload::Social => Duration::from_millis(25),
            Workload::Image => Duration::from_millis(12),
            Workload::Share => Duration::from_millis(55),
        }
    }

    /// Open-loop rates the knee search starts from (it widens the
    /// bracket if the knee lies outside).
    pub fn knee_bracket(self) -> (f64, f64) {
        match self {
            Workload::Social => (170e3, 250e3),
            Workload::Image => (750e3, 1000e3),
            Workload::Share => (180e3, 300e3),
        }
    }
}

/// One request's input, drawn by the benchmark.
#[derive(Clone, Copy, Debug)]
pub enum Req {
    /// Compose a post as this user.
    Compose(u32),
    /// Read this user's home timeline.
    ReadHome(u32),
    /// Read this user's own timeline.
    ReadUser(u32),
    /// Run one image through the pipeline.
    Image {
        /// `OP_TRANSCODE` or `OP_COMPRESS`.
        op: u8,
        /// Index into the image pool.
        img: usize,
        /// Index of the client endpoint that issues it.
        client: usize,
    },
    /// Share the block; the callee overwrites part of it.
    Share,
}

/// The per-operation latency series the benchmark keeps.
pub const OPS: [&str; 6] = [
    "compose",
    "read_home",
    "read_user",
    "transcode",
    "compress",
    "share",
];

/// Root-span names, per [`OPS`].
const SPAN_NAMES: [&str; 6] = [
    "bench.compose",
    "bench.read_home",
    "bench.read_user",
    "bench.transcode",
    "bench.compress",
    "bench.share",
];

impl Req {
    /// Index into [`OPS`].
    pub fn op(self) -> usize {
        match self {
            Req::Compose(_) => 0,
            Req::ReadHome(_) => 1,
            Req::ReadUser(_) => 2,
            Req::Image { op, .. } if op == OP_COMPRESS => 4,
            Req::Image { .. } => 3,
            Req::Share => 5,
        }
    }

    /// Root-span name for the traced run.
    pub fn span_name(self) -> &'static str {
        SPAN_NAMES[self.op()]
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a correct output.
    Ok,
    /// Returned an error.
    Error(DmError),
    /// Refused by overload control.
    Rejected,
    /// Completed with a wrong output.
    BadOutput,
}

/// A seeded input stream. Each stream (warm-up, arrival draws, one per
/// closed-loop worker) derives from the workload seed and a stream tag,
/// so inputs do not depend on scheduling.
pub struct Inputs {
    workload: Workload,
    rng: SimRng,
    zipf: Option<Zipf>,
}

impl Inputs {
    /// The input stream `stream` of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, stream: u64) -> Inputs {
        let rng = SimRng::new(mix(seed, 0x1A9B_7C3D ^ stream));
        let zipf = (workload == Workload::Social).then(|| {
            Zipf::new(
                rng.fork(),
                (SOCIAL_SF * loadgen::USERS_PER_SF) as usize,
                loadgen::ZIPF_THETA,
            )
        });
        Inputs {
            workload,
            rng,
            zipf,
        }
    }

    /// The next request for `slot` (closed-loop worker id or open-loop
    /// sequence number) on its `iter`-th iteration. Image requests
    /// alternate transcode and compress and spread over the clients.
    pub fn next(&self, slot: usize, iter: u64) -> Req {
        match self.workload {
            Workload::Social => {
                let users = SOCIAL_SF * loadgen::USERS_PER_SF;
                let zipf = self.zipf.as_ref().expect("social draws users");
                let user = zipf.sample() as u32;
                match self.rng.pick_weighted(&MIX) {
                    0 => Req::ReadHome(user),
                    1 => Req::ReadUser(user),
                    _ => Req::Compose(self.rng.gen_range(users as u64) as u32),
                }
            }
            Workload::Image => Req::Image {
                op: if (slot as u64 + iter).is_multiple_of(2) {
                    OP_TRANSCODE
                } else {
                    OP_COMPRESS
                },
                img: self.rng.gen_range(IMAGE_POOL as u64) as usize,
                client: slot % IMAGE_CLIENTS,
            },
            Workload::Share => Req::Share,
        }
    }
}

impl Inputs {
    /// A closed-loop worker's next think time.
    pub fn think(&self) -> Duration {
        Duration::from_nanos(self.rng.gen_exp(THINK_MEAN.as_nanos() as f64) as u64)
    }
}

/// SplitMix64 finalizer: decorrelates `(seed, stream)` pairs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum App {
    Social(SocialApp),
    Image {
        app: ImagePipeline,
        clients: Vec<Rc<DmRpc>>,
        images: Vec<Bytes>,
    },
    Share {
        bench: ShareBench,
        block: Bytes,
    },
}

/// A deployed workload: the cluster plus its application.
pub struct World {
    /// The simulated DmRPC-net deployment.
    pub cluster: Cluster,
    /// Which workload runs on it.
    pub workload: Workload,
    app: App,
}

impl World {
    /// Build the cluster and application, preload it and run the fixed
    /// warm-up. Everything here counts as set-up time.
    pub async fn build(workload: Workload, seed: u64) -> World {
        let cluster = Cluster::new(
            SystemKind::DmNet,
            DM_SERVERS,
            ClusterConfig::default(),
            seed,
        );
        let app = match workload {
            Workload::Social => {
                let pop = Population::new(SOCIAL_SF, seed);
                let app = build_social_scaled(&cluster, pop, MEDIA, seed, None).await;
                app.preload(SOCIAL_PRELOAD).await.expect("social preload");
                App::Social(app)
            }
            Workload::Image => {
                let app = build_pipeline(&cluster).await;
                let mut clients = vec![app.client.clone()];
                for i in 1..IMAGE_CLIENTS {
                    let node = cluster.add_server(format!("client{i}"));
                    clients.push(cluster.endpoint(&node, 100).await);
                }
                let rng = SimRng::new(mix(seed, 0x1AA6));
                let images = (0..IMAGE_POOL)
                    .map(|_| {
                        let mut b = vec![0u8; IMAGE];
                        rng.fill_bytes(&mut b);
                        Bytes::from(b)
                    })
                    .collect();
                App::Image {
                    app,
                    clients,
                    images,
                }
            }
            Workload::Share => {
                let bench = build_sharebench(&cluster).await;
                let mut b = vec![0u8; SHARE_BLOCK];
                SimRng::new(mix(seed, 0x5A4E)).fill_bytes(&mut b);
                App::Share {
                    bench,
                    block: Bytes::from(b),
                }
            }
        };
        let world = World {
            cluster,
            workload,
            app,
        };
        let warm = Inputs::new(workload, seed, u64::MAX);
        for i in 0..WARMUP_REQUESTS {
            let req = warm.next(i as usize, 0);
            let out = world.execute(req).await;
            assert_eq!(out, Outcome::Ok, "warm-up request {req:?} failed");
        }
        world.quiesce().await;
        world
    }

    /// The node the benchmark's own client runs on (root spans live here).
    pub fn client_node(&self) -> u32 {
        match &self.app {
            App::Social(a) => a.client.addr().node.0,
            App::Image { app, .. } => app.client.addr().node.0,
            App::Share { .. } => {
                self.cluster
                    .servers()
                    .iter()
                    .find(|n| self.cluster.net.node_name(n.id) == "caller")
                    .expect("caller node")
                    .id
                    .0
            }
        }
    }

    /// Run one request and check its output.
    pub async fn execute(&self, req: Req) -> Outcome {
        let classify = |e: DmError| match e {
            DmError::Busy => Outcome::Rejected,
            e => Outcome::Error(e),
        };
        match (&self.app, req) {
            (App::Social(app), Req::Compose(user)) => match app.compose(user).await {
                Ok(()) => Outcome::Ok,
                Err(e) => classify(e),
            },
            (App::Social(app), Req::ReadHome(user) | Req::ReadUser(user)) => {
                let r = if matches!(req, Req::ReadHome(_)) {
                    app.read_home(user).await
                } else {
                    app.read_user(user).await
                };
                match r {
                    Ok(bytes) if read_is_valid(bytes) => Outcome::Ok,
                    Ok(_) => Outcome::BadOutput,
                    Err(e) => classify(e),
                }
            }
            (
                App::Image {
                    app,
                    clients,
                    images,
                },
                Req::Image { op, img, client },
            ) => {
                let input = &images[img];
                match app.request_via(&clients[client], op, input).await {
                    Ok(out) if image_is_valid(op, input, &out) => Outcome::Ok,
                    Ok(_) => Outcome::BadOutput,
                    Err(e) => classify(e),
                }
            }
            (App::Share { bench, block }, Req::Share) => {
                match bench.request(block, SHARE_WRITE_PCT).await {
                    Ok(()) => Outcome::Ok,
                    Err(e) => classify(e),
                }
            }
            (_, req) => panic!("{req:?} does not belong to {:?}", self.workload),
        }
    }

    /// Let deferred releases land and flush every client's cache and
    /// coalescer, so all pins are visible server-side.
    pub async fn quiesce(&self) {
        simcore::sleep(Duration::from_millis(2)).await;
        for ep in self.cluster.endpoints() {
            if let Some(DmHandle::Net(c)) = ep.dm() {
                c.flush_cache().await;
            }
        }
        simcore::sleep(Duration::from_millis(1)).await;
    }

    /// DM pages in use across the pool.
    pub fn used_pages(&self) -> usize {
        self.cluster
            .dm_servers
            .iter()
            .map(|s| s.capacity_pages_total() - s.free_pages_total())
            .sum()
    }

    /// Leak check after a drained run: image and share must hold exactly
    /// the pages they held before the window; social may hold at most its
    /// post store's media.
    pub fn leak_check(&self, used_before: usize) -> Result<(), String> {
        let used = self.used_pages();
        match self.workload {
            Workload::Social => {
                let limit = POST_CAPACITY * MEDIA.div_ceil(PAGE_SIZE);
                if used > limit {
                    return Err(format!(
                        "social holds {used} DM pages, more than {POST_CAPACITY} posts' media ({limit})"
                    ));
                }
            }
            Workload::Image | Workload::Share => {
                if used != used_before {
                    return Err(format!(
                        "DM pages in use went from {used_before} to {used} over the run"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every DM server's page-manager invariants.
    pub fn invariant_check(&self) -> Result<(), String> {
        for (i, s) in self.cluster.dm_servers.iter().enumerate() {
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.check_invariants_all()));
            if r.is_err() {
                return Err(format!("dm{i} failed its invariant check"));
            }
        }
        Ok(())
    }
}

/// A timeline read returns whole media objects, at most
/// `POSTS_PER_READ` of them.
pub fn read_is_valid(bytes: usize) -> bool {
    bytes.is_multiple_of(MEDIA) && bytes / MEDIA <= POSTS_PER_READ
}

/// Transcode returns the input size and compress half of it; every output
/// byte is the matching input byte plus one.
pub fn image_is_valid(op: u8, input: &[u8], out: &[u8]) -> bool {
    let want = if op == OP_COMPRESS {
        input.len() / 2
    } else {
        input.len()
    };
    out.len() == want
        && out
            .iter()
            .zip(input.iter())
            .all(|(&o, &i)| o == i.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_checks() {
        assert!(read_is_valid(0));
        assert!(read_is_valid(5 * MEDIA));
        assert!(!read_is_valid(6 * MEDIA));
        assert!(!read_is_valid(MEDIA + 1));
        let input = [1u8, 2, 255, 4];
        assert!(image_is_valid(OP_TRANSCODE, &input, &[2, 3, 0, 5]));
        assert!(image_is_valid(OP_COMPRESS, &input, &[2, 3]));
        assert!(!image_is_valid(OP_COMPRESS, &input, &[2, 3, 0, 5]));
        assert!(!image_is_valid(OP_TRANSCODE, &input, &[2, 3, 0, 4]));
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let s = Inputs::new(Workload::Social, seed, 0);
            (0..64)
                .map(|i| format!("{:?}", s.next(i, 0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn image_inputs_alternate_ops() {
        let s = Inputs::new(Workload::Image, 3, 0);
        let ops: Vec<usize> = (0..4).map(|i| s.next(0, i).op()).collect();
        assert_eq!(ops, vec![3, 4, 3, 4]);
    }
}
