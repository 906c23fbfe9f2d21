//! The DM server process (paper Fig. 3, right side).
//!
//! One `DmServer` runs on a memory node and serves the DM protocol over an
//! [`rpclib::Rpc`] endpoint. Every operation charges the server's CPU
//! ([`simcore::CpuPool`]) and memory system ([`memsim::NodeMemory`]):
//!
//! * per-operation dispatch CPU plus per-page refcount-update CPU;
//! * software address translation CPU (tracked separately so the paper's
//!   "translation is 0.17% of access time" observation can be reproduced);
//! * DRAM bandwidth and traffic for data reads/writes and for every page
//!   copied by COW or by the eager `-copy` ablation.
//!
//! **Dispatch** (paper §VI-C): "Concurrent requests received in a single
//! memory server will be dispatched to its different CPU cores." The
//! server's one [`PageManager`] is served by [`DmServerConfig::cores`]
//! cores; scaling past one server is the consistent-hash ring's job
//! ([`crate::shard`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{CopyMode, DmError, DmResult, GlobalPid, PAGE_SIZE};
use memsim::NodeMemory;
use rpclib::{Rpc, RpcBuilder, RpcConfig};
use simcore::CpuPool;
use simnet::{Network, NodeId};
use telemetry::SpanKind;

use crate::admission::{Admission, AdmissionConfig};
use crate::page_manager::{OpCost, PageManager};
use crate::proto::{self, err_response, moved_response, ok_response, req, Reader, Writer};
use crate::shard::GKEY_BIT;
use crate::wal::{self, Record, SnapshotTables, Wal, WalConfig};

/// Sentinel pid in a `Record::PutRef` for an unowned ref (a migrated ref
/// whose owner was not registered at the destination); replay maps it
/// back to `None`.
const NO_OWNER_PID: u32 = u32::MAX;

/// Outcome of resolving a wire ref key ([`DmServer::route_key`]): either
/// the local ref key, or a ready-made redirect response for a gkey that
/// migrated away.
enum KeyRoute {
    Local(u64),
    Redirect(Bytes),
}

/// What [`DmServer::restart_from_log`] did.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Records replayed from the valid log prefix.
    pub records_replayed: usize,
    /// Whether a torn/corrupt tail was truncated.
    pub torn_tail: bool,
    /// Log size after repair.
    pub log_bytes: u64,
}

/// Fine-grained cache-coherence tuning (DESIGN.md §15).
#[derive(Clone, Copy, Debug)]
pub struct CoherenceConfig {
    /// Total read grants the holder directory may track across all keys.
    /// On overflow the server falls back to one epoch broadcast and a
    /// cleared directory rather than growing without bound.
    pub dir_max: usize,
    /// How long a directory grant is considered live — must match the
    /// client cache's `read_lease` (an expired grant is skipped at push
    /// time because the holder already stopped serving the entry).
    pub read_lease: Duration,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            dir_max: 1024,
            read_lease: Duration::from_micros(50),
        }
    }
}

/// The holder directory's storage: wire key → (client node, port) →
/// grant expiry.
type HolderDir =
    std::collections::HashMap<u64, std::collections::BTreeMap<(u32, u16), simcore::SimTime>>;

/// DM server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DmServerConfig {
    /// Pinned pool size in pages (default 64 Ki pages = 256 MiB).
    pub capacity_pages: usize,
    /// COW (DmRPC) or eager copy (the `-copy` ablation).
    pub copy_mode: CopyMode,
    /// Worker cores that requests are dispatched to (paper §VI-C; Fig. 7
    /// uses 1). They run request dispatch and every op's CPU charge.
    pub cores: u64,
    /// Fixed CPU cost per DM operation.
    pub per_op_cpu: Duration,
    /// CPU cost per page whose refcount / translation entry is updated.
    pub per_page_cpu: Duration,
    /// CPU cost of one software translation lookup.
    pub translation_cpu: Duration,
    /// Paper §V-A2 future work, implemented here as an option: "skip the
    /// software-based translation by modifying OS and letting MMU translate
    /// the DM virtual address directly to the physical address". When true,
    /// translation lookups cost no CPU.
    pub hw_translation: bool,
    /// Lease-based reclamation (DESIGN.md §8): when set, `REGISTER` grants
    /// each process a lease of this TTL (returned in the response) and a
    /// background sweeper reclaims every pin of processes whose lease
    /// expires without renewal. `None` (default) disables leases entirely —
    /// the wire format and event schedule are then identical to a server
    /// built before leases existed.
    pub lease_ttl: Option<Duration>,
    /// Durable tier (DESIGN.md §12): when set, every acknowledged mutating
    /// op appends a checksummed record to a write-ahead log *before* its
    /// response is sent, and [`DmServer::restart_from_log`] rebuilds the
    /// exact acknowledged state after a crash. The default comes from
    /// [`WalConfig::from_env`]: `None` unless `DM_DURABLE=1`, which
    /// selects the zero-cost media model (full bookkeeping, unchanged
    /// schedule — committed CSVs stay byte-identical).
    pub durability: Option<WalConfig>,
    /// Overload control (DESIGN.md §14): when set, requests pass a
    /// bounded admission queue with CoDel-style queue-delay shedding and
    /// are refused with the typed `Busy` wire code when the server is
    /// saturated. `None` (default) admits everything — the schedule and
    /// wire bytes are then identical to a server built before admission
    /// control existed.
    pub admission: Option<AdmissionConfig>,
    /// Fine-grained cache coherence (DESIGN.md §15): when set, successful
    /// responses append a `(key, version)` trailer for the refs they
    /// touched, mutating ops bump only the touched ref's version, and a
    /// bounded holder directory pushes targeted [`req::INVALIDATE`]
    /// messages instead of advancing the global epoch. Every client of a
    /// coherent server must run with `CacheConfig::fine_grained` (the
    /// trailer changes the ok-response wire format). `None` (default)
    /// keeps the global-epoch scheme and wire bytes unchanged.
    pub coherence: Option<CoherenceConfig>,
}

impl Default for DmServerConfig {
    fn default() -> Self {
        DmServerConfig {
            capacity_pages: 65536,
            copy_mode: CopyMode::CopyOnWrite,
            cores: 4,
            per_op_cpu: Duration::from_nanos(300),
            per_page_cpu: Duration::from_nanos(10),
            translation_cpu: Duration::from_nanos(15),
            hw_translation: false,
            lease_ttl: None,
            durability: WalConfig::from_env(),
            admission: None,
            coherence: None,
        }
    }
}

/// A running DM server.
pub struct DmServer {
    pm: RefCell<PageManager>,
    /// The `config.cores` cores; the RPC layer's request dispatch runs on
    /// the same pool.
    cpu: CpuPool,
    mem: NodeMemory,
    rpc: Rc<Rpc>,
    config: DmServerConfig,
    /// PID ownership: which endpoint registered each PID. Requests naming a
    /// PID are only honored from its owner (process isolation — a buggy or
    /// malicious service cannot free another process's regions).
    owners: RefCell<std::collections::HashMap<u32, simnet::Addr>>,
    /// Lease expiry per PID (virtual time), present only when
    /// `config.lease_ttl` is set.
    leases: RefCell<std::collections::HashMap<u32, simcore::SimTime>>,
    /// PIDs reclaimed by lease expiry (observability for chaos reports).
    leases_reclaimed: Cell<u64>,
    /// Invalidation epoch, piggybacked on every response (DESIGN.md §9).
    /// Advances whenever refs may have died: an explicit `RELEASE_REF` or a
    /// lease reclamation. Client caches fill at the epoch a response
    /// reports and self-invalidate when a later response reports a newer
    /// one.
    epoch: Cell<u64>,
    /// Set by [`DmServer::shutdown`]; stops the lease sweeper.
    stopping: Cell<bool>,
    /// Whether a lease-sweeper task is currently live. Crash cancels the
    /// sweeper outright (it disarms and exits at its next tick); restart
    /// paths re-arm a fresh one, and this flag keeps re-arming idempotent.
    sweeper_armed: Cell<bool>,
    /// The durable tier's write-ahead log, present when
    /// `config.durability` is set.
    wal: Option<Wal>,
    /// Completed `restart_from_log` recoveries (observability).
    recoveries: Cell<u64>,
    /// Sharded plane (DESIGN.md §13): global key → local ref key for
    /// every gkey currently homed here.
    gmap: RefCell<std::collections::HashMap<u64, u64>>,
    /// Redirect tombstones: gkeys that migrated away, with the forwarding
    /// address clients chase (one hop per tombstone).
    moved: RefCell<std::collections::HashMap<u64, simnet::Addr>>,
    /// Requests served (per-shard `dm.shard.N.ops` telemetry).
    ops_served: Cell<u64>,
    /// Migrations completed (outbound MIGRATE + inbound MIGRATE_IN).
    migrations: Cell<u64>,
    /// Redirect responses served off tombstones.
    redirects: Cell<u64>,
    translation_ns: Cell<u64>,
    op_ns: Cell<u64>,
    /// Overload controller, present when `config.admission` is set.
    admission: Option<Admission>,
    /// Coherence plane (DESIGN.md §15): per-ref versions, keyed by the
    /// wire-visible ref key (gkey or local key). Holds only keys
    /// whose version differs from the implicit creation version 1 — in
    /// practice, migrated-in gkeys. Dead keys are removed (keys are
    /// minted once, so a dead key's version never needs to be compared
    /// again).
    versions: RefCell<std::collections::HashMap<u64, u64>>,
    /// Holder directory: wire key → client endpoints granted a read
    /// lease on it, with grant expiry (BTreeMap: push order must be
    /// deterministic). Bounded by `CoherenceConfig::dir_max` total
    /// grants; overflow clears it and falls back to an epoch broadcast.
    dir: RefCell<HolderDir>,
    /// Total grants across `dir` (the bound is on grants, not keys).
    dir_grants: Cell<usize>,
    /// Targeted INVALIDATE messages pushed (observability).
    inv_pushed: Cell<u64>,
    /// Directory-overflow broadcasts (epoch bumps) taken (observability).
    broadcasts: Cell<u64>,
}

impl DmServer {
    /// Start a DM server on `node`, listening on [`proto::DM_PORT`].
    ///
    /// Must be called inside the simulation.
    pub fn start(
        net: &Network,
        node: NodeId,
        mem: NodeMemory,
        config: DmServerConfig,
    ) -> Rc<DmServer> {
        let cpu = CpuPool::new(config.cores);
        let rpc = RpcBuilder::new(net, node, proto::DM_PORT)
            .config(RpcConfig {
                // DMA lands directly in pinned pages; the data-path costs
                // are charged explicitly via the memory model instead.
                per_kb_cpu: Duration::ZERO,
                ..RpcConfig::default()
            })
            .mem(mem.clone())
            .cpu(cpu.clone())
            .build();
        let server = Rc::new(DmServer {
            pm: RefCell::new(PageManager::new(config.capacity_pages, config.copy_mode)),
            cpu,
            mem,
            rpc,
            config,
            owners: RefCell::new(std::collections::HashMap::new()),
            leases: RefCell::new(std::collections::HashMap::new()),
            leases_reclaimed: Cell::new(0),
            epoch: Cell::new(0),
            stopping: Cell::new(false),
            sweeper_armed: Cell::new(false),
            wal: config
                .durability
                .map(|w| Wal::new(format!("dmwal{}", node.0), w)),
            recoveries: Cell::new(0),
            gmap: RefCell::new(std::collections::HashMap::new()),
            moved: RefCell::new(std::collections::HashMap::new()),
            ops_served: Cell::new(0),
            migrations: Cell::new(0),
            redirects: Cell::new(0),
            translation_ns: Cell::new(0),
            op_ns: Cell::new(0),
            admission: config.admission.map(Admission::new),
            versions: RefCell::new(std::collections::HashMap::new()),
            dir: RefCell::new(std::collections::HashMap::new()),
            dir_grants: Cell::new(0),
            inv_pushed: Cell::new(0),
            broadcasts: Cell::new(0),
        });
        server.register_handlers();
        server.spawn_sweeper();
        server
    }

    /// Arm the lease sweeper (no-op when leases are off or one is already
    /// armed). The task holds only a Weak so dropping the server's last
    /// `Rc` also stops it; a crash cancels it outright at its next tick
    /// (it must not stay armed on a dead replica), and the restart paths
    /// call this again to re-arm.
    fn spawn_sweeper(self: &Rc<Self>) {
        let Some(ttl) = self.config.lease_ttl else {
            return;
        };
        if self.sweeper_armed.get() {
            return;
        }
        self.sweeper_armed.set(true);
        let weak = Rc::downgrade(self);
        simcore::spawn(async move {
            loop {
                simcore::sleep(ttl / 2).await;
                let Some(srv) = weak.upgrade() else { return };
                if srv.stopping.get() || srv.rpc.is_offline() {
                    srv.sweeper_armed.set(false);
                    return;
                }
                srv.sweep_expired_leases();
            }
        });
    }

    /// Reclaim every process whose lease expired (called by the sweeper;
    /// public so chaos tests can force a sweep at a known virtual time).
    pub fn sweep_expired_leases(&self) {
        let now = simcore::now();
        let expired: Vec<u32> = self
            .leases
            .borrow()
            .iter()
            .filter(|&(_, &exp)| exp <= now)
            .map(|(&pid, _)| pid)
            .collect();
        for pid in expired {
            // Coherent mode invalidates per-key: enumerate the dying
            // pid's refs *before* they are freed, in sorted (wire-key)
            // order so push schedules are deterministic.
            let dying = if self.coherent() {
                self.wire_keys_owned_by(GlobalPid(pid))
            } else {
                Default::default()
            };
            // An already-released pid is fine: reclamation must be
            // idempotent.
            let _ = self.pm.borrow_mut().release_process(GlobalPid(pid));
            self.leases.borrow_mut().remove(&pid);
            self.owners.borrow_mut().remove(&pid);
            self.leases_reclaimed.set(self.leases_reclaimed.get() + 1);
            if self.coherent() {
                for raw in dying {
                    self.bump_dead(raw, None);
                }
            } else {
                // Reclamation drops refs: caches filled before it are
                // suspect.
                self.epoch.set(self.epoch.get() + 1);
            }
            // The sweeper acts outside any request, so it cannot await the
            // media; the append is charged as free background time (the
            // reclaim is not on any acked-response path).
            self.persist_untimed(|| vec![Record::ReleaseProcess { pid }]);
            // The sweeper acts on its own, not on behalf of any request,
            // so each reclamation becomes a standalone trace.
            telemetry::root_event(
                SpanKind::LeaseReclaim,
                "dm.lease_reclaim",
                self.addr().node.0,
                &[("pid", pid as u64), ("epoch", self.epoch.get())],
            );
        }
    }

    /// Current invalidation epoch (observability for tests).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Crash the server: it stops receiving and sending until
    /// [`DmServer::restart`]. Page state survives (fail-stop with durable
    /// pinned memory — see DESIGN.md §8).
    pub fn crash(&self) {
        self.rpc.set_offline(true);
    }

    /// Recover from [`DmServer::crash`] with in-memory state intact (the
    /// fail-stop model of DESIGN.md §8; see [`DmServer::restart_from_log`]
    /// for the durable-tier recovery that rebuilds state from the log).
    /// Every live lease is extended by a full TTL from now so clients that
    /// outlived the crash can renew before the sweeper runs again.
    pub fn restart(self: &Rc<Self>) {
        self.rpc.set_offline(false);
        if let Some(ttl) = self.config.lease_ttl {
            let grace = simcore::now() + ttl;
            for exp in self.leases.borrow_mut().values_mut() {
                *exp = (*exp).max(grace);
            }
        }
        // Pre-crash queue-delay streaks say nothing about the restarted
        // server; shedding must not survive a restart.
        if let Some(a) = &self.admission {
            a.reset_transient();
        }
        self.spawn_sweeper();
    }

    /// Whether the server is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.rpc.is_offline()
    }

    /// Processes reclaimed by lease expiry so far.
    pub fn leases_reclaimed(&self) -> u64 {
        self.leases_reclaimed.get()
    }

    /// Whether a lease-sweeper task is live (observability: a crashed
    /// replica must report `false` once its sweeper ticks — crash cancels
    /// the sweeper outright rather than leaving it armed forever).
    pub fn sweeper_armed(&self) -> bool {
        self.sweeper_armed.get()
    }

    // -- durable tier (DESIGN.md §12) ---------------------------------------

    /// The write-ahead log, when durability is on (tests and chaos use it
    /// for corruption injection and log statistics).
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Completed [`DmServer::restart_from_log`] recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    // -- sharded DM plane (DESIGN.md §13) ------------------------------------

    /// Requests served (the `dm.shard.N.ops` telemetry gauge).
    pub fn ops_served(&self) -> u64 {
        self.ops_served.get()
    }

    /// Completed migrations: outbound MIGRATE plus inbound MIGRATE_IN.
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// Redirect responses served off tombstones.
    pub fn redirects(&self) -> u64 {
        self.redirects.get()
    }

    /// Requests refused because the admission queue was full (0 when
    /// overload control is off — the `dm.shard.N.rejected` gauge).
    pub fn admission_rejected(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.rejected())
    }

    /// Requests refused by CoDel shedding (the `dm.shard.N.shed` gauge).
    pub fn admission_shed(&self) -> u64 {
        self.admission.as_ref().map_or(0, |a| a.shed())
    }

    /// Gkeys currently homed on this server (observability for tests).
    pub fn gkeys_bound(&self) -> usize {
        self.gmap.borrow().len()
    }

    // -- coherence observability (DESIGN.md §15) -----------------------------

    /// Targeted INVALIDATE messages pushed to holders so far.
    pub fn invalidations_pushed(&self) -> u64 {
        self.inv_pushed.get()
    }

    /// Directory-overflow broadcasts (epoch bumps) taken so far.
    pub fn coherence_broadcasts(&self) -> u64 {
        self.broadcasts.get()
    }

    /// Current version of the wire key `raw` (1 unless it migrated).
    pub fn ref_version(&self, raw: u64) -> u64 {
        self.current_version(raw)
    }

    /// Live redirect tombstones (observability for tests).
    pub fn tombstones(&self) -> usize {
        self.moved.borrow().len()
    }

    /// FNV-1a digest of the canonical page-manager snapshot — the whole
    /// memory-plane state (pages, refcounts, VA trees, refs, free-list
    /// order) excluding volatile serving state (epoch, leases, owners).
    /// Recovery oracles compare this across crash/restart: log-before-ack
    /// makes the mutation and its record atomic, so the digest after
    /// `restart_from_log` equals the digest at the instant of a clean
    /// crash.
    pub fn pages_digest(&self) -> u64 {
        self.pm.borrow().state_digest()
    }

    /// Canonical whole-server checkpoint ([`wal::encode_snapshot`]).
    /// Leases and the holder directory are volatile by design: recovery
    /// re-grants full-TTL leases, and its epoch bump stands in for every
    /// pre-crash grant.
    fn snapshot_bytes(&self) -> Vec<u8> {
        fn sorted<K: Ord + Copy, V: Copy>(m: &std::collections::HashMap<K, V>) -> Vec<(K, V)> {
            let mut v: Vec<(K, V)> = m.iter().map(|(&k, &v)| (k, v)).collect();
            v.sort_unstable_by_key(|&(k, _)| k);
            v
        }
        let tables = SnapshotTables {
            epoch: self.epoch.get(),
            owners: sorted(&self.owners.borrow()),
            binds: sorted(&self.gmap.borrow()),
            tombs: sorted(&self.moved.borrow()),
            versions: sorted(&self.versions.borrow()),
        };
        wal::encode_snapshot(&tables, &self.pm.borrow())
    }

    /// Inverse of [`Self::snapshot_bytes`], applied during replay of a
    /// [`Record::Checkpoint`]. Panics on a snapshot that does not decode:
    /// the checkpoint sits under the log's CRC, so damage here means the
    /// scan accepted a record it should not have.
    fn restore_snapshot(&self, buf: &[u8]) {
        let (t, pm) = wal::decode_snapshot(buf).expect("replay: corrupt checkpoint");
        self.epoch.set(t.epoch);
        *self.owners.borrow_mut() = t.owners.into_iter().collect();
        *self.gmap.borrow_mut() = t.binds.into_iter().collect();
        *self.moved.borrow_mut() = t.tombs.into_iter().collect();
        *self.versions.borrow_mut() = t.versions.into_iter().collect();
        *self.pm.borrow_mut() = pm;
    }

    /// Append the records `make()` returns to the log synchronously
    /// (atomic with the mutation the caller just applied — the simulator
    /// is single-threaded) and return the bytes written, or `None` when
    /// durability is off. All of one op's records land before the
    /// compaction check, so a checkpoint can never split an op (replay
    /// would double-apply half of it).
    fn log(&self, make: impl FnOnce() -> Vec<Record>) -> Option<(&Wal, u64)> {
        let w = self.wal.as_ref()?;
        let mut n: u64 = make().iter().map(|r| w.push(r)).sum();
        if w.should_compact() {
            n += w.compact(self.snapshot_bytes());
        }
        Some((w, n))
    }

    /// [`Self::log`], then charge the media time. Zero-cost media returns
    /// without yielding, so the executor schedule is untouched.
    async fn persist(&self, make: impl FnOnce() -> Vec<Record>) {
        if let Some((w, n)) = self.log(make) {
            w.media().append(n).await;
        }
    }

    /// [`Self::log`] for non-request paths (the lease sweeper): the
    /// records are installed and counted but the media time is not
    /// awaited.
    fn persist_untimed(&self, make: impl FnOnce() -> Vec<Record>) {
        if let Some((w, n)) = self.log(make) {
            w.media().append_untimed(n);
        }
    }

    /// Apply one replayed record. Mutations `expect`: the record passed
    /// the CRC/sequence scan, so it describes an op that succeeded before
    /// the crash, and the deterministic page managers must accept it
    /// again. Recorded result values (`va`, `key`) are divergence
    /// witnesses checked under `debug_assertions`.
    fn replay(&self, rec: &Record) {
        match rec {
            Record::Register { node, port } => {
                let pid = self.pm.borrow_mut().register_process();
                self.owners.borrow_mut().insert(
                    pid.0,
                    simnet::Addr {
                        node: NodeId(*node),
                        port: *port,
                    },
                );
            }
            Record::Alloc { pid, len, va } => {
                let got = self
                    .pm
                    .borrow_mut()
                    .ralloc(GlobalPid(*pid), *len)
                    .expect("replay: ralloc");
                debug_assert_eq!(got, *va, "replay: alloc divergence");
            }
            Record::Free { pid, va } => {
                self.pm
                    .borrow_mut()
                    .rfree(GlobalPid(*pid), *va)
                    .expect("replay: rfree");
            }
            Record::Write { pid, va, data } => {
                self.pm
                    .borrow_mut()
                    .write(GlobalPid(*pid), *va, data)
                    .expect("replay: write");
            }
            Record::CreateRef { pid, va, len, key } => {
                let (got, _) = self
                    .pm
                    .borrow_mut()
                    .create_ref(GlobalPid(*pid), *va, *len)
                    .expect("replay: create_ref");
                debug_assert_eq!(got, *key, "replay: create_ref divergence");
            }
            Record::MapRef { pid, key, va } => {
                let (got, _, _) = self
                    .pm
                    .borrow_mut()
                    .map_ref(GlobalPid(*pid), *key)
                    .expect("replay: map_ref");
                debug_assert_eq!(got, *va, "replay: map_ref divergence");
            }
            Record::ReleaseRef { key } => {
                self.pm
                    .borrow_mut()
                    .release_ref(*key)
                    .expect("replay: release_ref");
                // Mirror the live path: coherent servers do not move the
                // epoch on a release (the version bump replaced it).
                if !self.coherent() {
                    self.epoch.set(self.epoch.get() + 1);
                }
            }
            Record::PutRef { pid, key, data } => {
                // The sentinel pid marks an unowned migrated-in ref.
                let owner = (*pid != NO_OWNER_PID).then_some(GlobalPid(*pid));
                let (got, _) = self
                    .pm
                    .borrow_mut()
                    .put_ref(data, owner)
                    .expect("replay: put_ref");
                debug_assert_eq!(got, *key, "replay: put_ref divergence");
            }
            Record::ReleaseProcess { pid } => {
                // Mirror the live sweep's version reclamation (no pushes
                // during replay — the directory is volatile and empty).
                let dying = if self.coherent() {
                    self.wire_keys_owned_by(GlobalPid(*pid))
                } else {
                    Default::default()
                };
                // Idempotent, exactly like the live sweep.
                let _ = self.pm.borrow_mut().release_process(GlobalPid(*pid));
                self.owners.borrow_mut().remove(pid);
                if self.coherent() {
                    for raw in dying {
                        self.versions.borrow_mut().remove(&raw);
                    }
                } else {
                    self.epoch.set(self.epoch.get() + 1);
                }
            }
            Record::GBind { gkey, key } => {
                self.gmap.borrow_mut().insert(*gkey, *key);
                // A migrated-back gkey overwrites its stale tombstone.
                self.moved.borrow_mut().remove(gkey);
            }
            Record::GUnbind { gkey } => {
                self.gmap.borrow_mut().remove(gkey);
                self.versions.borrow_mut().remove(gkey);
            }
            Record::GMoved { gkey, node, port } => {
                self.gmap.borrow_mut().remove(gkey);
                self.versions.borrow_mut().remove(gkey);
                self.moved.borrow_mut().insert(
                    *gkey,
                    simnet::Addr {
                        node: NodeId(*node),
                        port: *port,
                    },
                );
            }
            Record::GVer { gkey, ver } => {
                self.versions.borrow_mut().insert(*gkey, *ver);
            }
            Record::Checkpoint { snapshot } => self.restore_snapshot(snapshot),
        }
    }

    /// Crash-consistent recovery: rebuild the whole server from its
    /// write-ahead log and come back online.
    ///
    /// Steps: charge one sequential media scan of the log; validate it
    /// (CRC, framing, sequence continuity) and truncate any torn tail;
    /// discard all volatile state (a fresh page manager, empty owner/lease
    /// tables, epoch 0); replay the valid prefix
    /// (a checkpoint record restores its snapshot, subsequent records
    /// re-apply on top); advance the epoch once more past the replayed
    /// value so client caches filled before the crash can never be
    /// trusted across it; re-grant every recovered owner a full-TTL lease
    /// (crashed clients stop renewing and get swept as usual); come back
    /// online and re-arm the sweeper.
    ///
    /// The recovery invariant (tested by `tests/recovery.rs` and the
    /// chaos `server-crash-recovery` class): zero lost acknowledged ops,
    /// zero resurrected frees — the rebuilt state is exactly the
    /// acknowledged pre-crash state.
    ///
    /// # Panics
    /// Panics if durability is off.
    pub async fn restart_from_log(self: &Rc<Self>) -> RecoveryReport {
        let w = self.wal.as_ref().expect("restart_from_log: durability off");
        w.media().scan(w.log_bytes()).await;
        let report = w.scan();
        w.repair(&report);
        *self.pm.borrow_mut() = PageManager::new(self.config.capacity_pages, self.config.copy_mode);
        self.owners.borrow_mut().clear();
        self.leases.borrow_mut().clear();
        self.gmap.borrow_mut().clear();
        self.moved.borrow_mut().clear();
        // The holder directory and version table are rebuilt from scratch:
        // grants are volatile (the post-recovery epoch bump broadcasts to
        // every pre-crash holder anyway), versions replay from the log.
        self.dir.borrow_mut().clear();
        self.dir_grants.set(0);
        self.versions.borrow_mut().clear();
        self.epoch.set(0);
        for rec in &report.records {
            self.replay(rec);
        }
        // Epoch-after-restart rule: one conservative bump past everything
        // the replay reconstructed, so any response a client sees after
        // recovery reports a strictly newer epoch than any it saw before
        // the crash, invalidating its cache.
        self.epoch.set(self.epoch.get() + 1);
        if let Some(ttl) = self.config.lease_ttl {
            let exp = simcore::now() + ttl;
            let mut leases = self.leases.borrow_mut();
            for &pid in self.owners.borrow().keys() {
                leases.insert(pid, exp);
            }
        }
        self.rpc.set_offline(false);
        self.recoveries.set(self.recoveries.get() + 1);
        self.spawn_sweeper();
        telemetry::root_event(
            SpanKind::LeaseReclaim,
            "dm.recovery",
            self.addr().node.0,
            &[
                ("records", report.records.len() as u64),
                ("torn", report.torn as u64),
                ("epoch", self.epoch.get()),
            ],
        );
        RecoveryReport {
            records_replayed: report.records.len(),
            torn_tail: report.torn,
            log_bytes: w.log_bytes(),
        }
    }

    /// Tear down: unregister handlers so the `Rc` cycle through them is
    /// broken and the server (and its page pool) can be freed.
    pub fn shutdown(&self) {
        self.stopping.set(true);
        self.rpc.shutdown();
    }

    /// The server's RPC address.
    pub fn addr(&self) -> simnet::Addr {
        self.rpc.addr()
    }

    /// The node memory model (traffic counters for Fig. 7c).
    pub fn memory(&self) -> &NodeMemory {
        &self.mem
    }

    /// Access the page manager (tests and invariant checks).
    pub fn with_page_manager<R>(&self, f: impl FnOnce(&mut PageManager) -> R) -> R {
        f(&mut self.pm.borrow_mut())
    }

    /// Check the page manager's invariants.
    pub fn check_invariants_all(&self) {
        self.pm.borrow().check_invariants();
    }

    /// Free pages in the pool.
    pub fn free_pages_total(&self) -> usize {
        self.pm.borrow().free_pages()
    }

    /// Capacity of the pool in pages.
    pub fn capacity_pages_total(&self) -> usize {
        self.pm.borrow().capacity_pages()
    }

    /// Fraction of DM operation time spent in software address translation
    /// (paper §V-A2 reports 0.17%).
    pub fn translation_fraction(&self) -> f64 {
        let total = self.op_ns.get();
        if total == 0 {
            return 0.0;
        }
        self.translation_ns.get() as f64 / total as f64
    }

    // -- request routing -----------------------------------------------------

    /// Validate that `src` owns `pid`.
    fn check_owner(&self, pid: GlobalPid, src: simnet::Addr) -> DmResult<()> {
        match self.owners.borrow().get(&pid.0) {
            Some(&owner) if owner == src => Ok(()),
            _ => Err(DmError::InvalidAddress),
        }
    }

    /// Resolve a wire ref key: a plain key is the local key itself; a
    /// gkey (bit 63) resolves through the binding table, or yields the
    /// ready-made redirect response when only a tombstone remains. An
    /// unknown gkey is an invalid ref.
    fn route_key(&self, raw: u64) -> DmResult<KeyRoute> {
        if raw & GKEY_BIT == 0 {
            return Ok(KeyRoute::Local(raw));
        }
        if let Some(&key) = self.gmap.borrow().get(&raw) {
            return Ok(KeyRoute::Local(key));
        }
        if let Some(&fwd) = self.moved.borrow().get(&raw) {
            self.redirects.set(self.redirects.get() + 1);
            return Ok(KeyRoute::Redirect(moved_response(
                self.epoch.get(),
                fwd.node.0,
                fwd.port,
            )));
        }
        Err(DmError::InvalidRef)
    }

    // -- coherence plane (DESIGN.md §15) -------------------------------------

    fn coherent(&self) -> bool {
        self.config.coherence.is_some()
    }

    /// Current version of the wire key `raw`. Creation is the implicit
    /// version 1, so only keys that moved (MIGRATE) occupy the table.
    fn current_version(&self, raw: u64) -> u64 {
        self.versions.borrow().get(&raw).copied().unwrap_or(1)
    }

    /// Record that `src` now holds a cached copy of `raw` (no-op unless
    /// coherent). On directory overflow every grant is dropped and the
    /// epoch advances once — the broadcast fallback — so the directory
    /// stays bounded without ever missing a holder.
    fn grant(&self, raw: u64, src: simnet::Addr) {
        let Some(c) = self.config.coherence else {
            return;
        };
        let expiry = simcore::now() + c.read_lease;
        let mut dir = self.dir.borrow_mut();
        let holders = dir.entry(raw).or_default();
        if holders.insert((src.node.0, src.port), expiry).is_some() {
            return; // refreshed an existing grant
        }
        if self.dir_grants.get() + 1 > c.dir_max {
            dir.clear();
            self.dir_grants.set(0);
            self.epoch.set(self.epoch.get() + 1);
            self.broadcasts.set(self.broadcasts.get() + 1);
            dir.entry(raw)
                .or_default()
                .insert((src.node.0, src.port), expiry);
        }
        self.dir_grants.set(self.dir_grants.get() + 1);
    }

    /// Push targeted INVALIDATE messages for `raw` at `ver` to every
    /// live holder (fire-and-forget: a lost push is safe — the holder's
    /// read lease bounds how long it can keep serving, and a stale entry
    /// can only hold the dead ref's final immutable bytes). `exclude`
    /// skips the requester, whose own response trailer already carries
    /// the new version.
    fn push_invalidations(&self, raw: u64, ver: u64, exclude: Option<simnet::Addr>) {
        if !self.coherent() {
            return;
        }
        let Some(holders) = self.dir.borrow_mut().remove(&raw) else {
            return;
        };
        self.dir_grants.set(self.dir_grants.get() - holders.len());
        let now = simcore::now();
        for ((node, port), expiry) in holders {
            let dst = simnet::Addr {
                node: NodeId(node),
                port,
            };
            if expiry <= now || Some(dst) == exclude {
                continue;
            }
            self.inv_pushed.set(self.inv_pushed.get() + 1);
            let rpc = self.rpc.clone();
            let body = Writer::new().u64(raw).u64(ver).finish();
            simcore::spawn(async move {
                let _ = rpc.call(dst, req::INVALIDATE, body).await;
            });
        }
    }

    /// Kill the wire key `raw`: drop its version entry (keys are minted
    /// once, so it will never be compared again) and push its successor
    /// version to holders so their cached copies die promptly. Returns
    /// the pushed version for the requester's response trailer.
    fn bump_dead(&self, raw: u64, exclude: Option<simnet::Addr>) -> u64 {
        let ver = self.versions.borrow_mut().remove(&raw).unwrap_or(1) + 1;
        self.push_invalidations(raw, ver, exclude);
        ver
    }

    /// Every wire-visible key of refs owned by `pid`, sorted (push order
    /// must be deterministic): the local keys plus any gkeys bound to
    /// them.
    fn wire_keys_owned_by(&self, pid: GlobalPid) -> Vec<u64> {
        let mut out = self.pm.borrow().keys_owned_by(pid);
        let local: std::collections::HashSet<u64> = out.iter().copied().collect();
        for (&gkey, &key) in self.gmap.borrow().iter() {
            if local.contains(&key) {
                out.push(gkey);
            }
        }
        out.sort_unstable();
        out
    }

    /// Record data-path time in the op-time denominator (translation stat).
    fn note_data_time(&self, bytes: u64) {
        let t = self
            .mem
            .params()
            .access_time(memsim::MemClass::Local, bytes);
        self.op_ns.set(self.op_ns.get() + t.as_nanos() as u64);
    }

    /// Charge CPU for an operation and record the translation share.
    /// Request dispatch is charged by the RPC layer on the same cores.
    /// Page copies (COW / eager) occupy the serving core for the duration
    /// of the copy, on top of the DRAM traffic they generate.
    async fn charge(&self, cost: OpCost, translations: u64) {
        let c = &self.config;
        let translations = if c.hw_translation { 0 } else { translations };
        let copy_time = if cost.bytes_copied > 0 {
            self.mem.account(2 * cost.bytes_copied); // read + write traffic
            self.mem.params().copy_time(cost.bytes_copied)
        } else {
            Duration::ZERO
        };
        let cpu_time = c.per_op_cpu
            + c.per_page_cpu * (cost.refcount_updates + cost.pages_faulted) as u32
            + c.translation_cpu * translations as u32
            + copy_time;
        // The copy shares one `execute` with the op's bookkeeping CPU —
        // splitting it into a second execute could interleave with other
        // tasks and perturb schedules even with telemetry off. The COW
        // span therefore covers the whole charge; the copy dominates it,
        // and `copy_ns` records the exact share for analysis.
        let mut cow = if cost.bytes_copied > 0 {
            telemetry::leaf_span(SpanKind::Cow, "dm.cow_copy", self.addr().node.0)
        } else {
            None
        };
        if let Some(s) = cow.as_mut() {
            s.attr("bytes_copied", cost.bytes_copied);
            s.attr("copy_ns", copy_time.as_nanos() as u64);
        }
        self.cpu.execute(cpu_time).await;
        drop(cow);
        self.translation_ns.set(
            self.translation_ns.get() + (c.translation_cpu * translations as u32).as_nanos() as u64,
        );
        self.op_ns
            .set(self.op_ns.get() + cpu_time.as_nanos() as u64);
    }

    /// Wrap `body` in a success response carrying the current epoch.
    /// A coherent server appends a version trailer to *every* ok
    /// response (empty when the op touched no cacheable ref) so clients
    /// can strip it unambiguously.
    fn ok(&self, body: &[u8]) -> Bytes {
        self.ok_v(&[], body)
    }

    /// [`Self::ok`] with the `(key, version)` pairs this op touched.
    fn ok_v(&self, touched: &[(u64, u64)], body: &[u8]) -> Bytes {
        if self.coherent() {
            proto::ok_response_versioned(self.epoch.get(), body, touched)
        } else {
            ok_response(self.epoch.get(), body)
        }
    }

    fn register_handlers(self: &Rc<Self>) {
        let types: &[u8] = &[
            req::REGISTER,
            req::ALLOC,
            req::FREE,
            req::CREATE_REF,
            req::MAP_REF,
            req::READ,
            req::WRITE,
            req::RELEASE_REF,
            req::WRITE_CREATE_REF,
            req::READ_REF,
            req::PUT_REF,
            req::RENEW_LEASE,
            req::BATCH,
            req::PUT_REF_AT,
            req::MIGRATE,
            req::MIGRATE_IN,
        ];
        for &ty in types {
            let srv = self.clone();
            self.rpc.register(ty, move |ctx| {
                let srv = srv.clone();
                async move { srv.handle(ty, ctx.src, ctx.payload).await }
            });
        }
    }

    /// Ops that bypass admission control: registration and lease renewal
    /// are liveness traffic — shedding a renewal under overload would
    /// convert a latency problem into spurious lease reclamation — and
    /// `BATCH` carries deferred releases whose loss would leak pins.
    fn admission_exempt(ty: u8) -> bool {
        matches!(ty, req::REGISTER | req::RENEW_LEASE | req::BATCH)
    }

    async fn handle(self: Rc<Self>, ty: u8, src: simnet::Addr, body: Bytes) -> Bytes {
        self.ops_served.set(self.ops_served.get() + 1);
        // Overload control (DESIGN.md §14): refuse before any CPU is
        // charged or span opened — a rejected request must be as cheap
        // as possible. Servers without admission skip this entirely.
        let _admit = match &self.admission {
            None => None,
            Some(_) if Self::admission_exempt(ty) => None,
            Some(a) => match a.try_admit() {
                Some(guard) => Some(guard),
                None => return err_response(self.epoch.get(), DmError::Busy),
            },
        };
        // Child of the RPC layer's server-handle span when the request was
        // traced; a no-op (one flag read) otherwise.
        let mut op = telemetry::span(SpanKind::DmOp, proto::req_name(ty), self.addr().node.0);
        if let Some(s) = op.as_mut() {
            s.attr("body_bytes", body.len() as u64);
        }
        match self.dispatch(ty, src, &body).await {
            Ok(resp) => resp,
            Err(e) => {
                if let Some(s) = op.as_mut() {
                    s.attr("error", 1);
                }
                err_response(self.epoch.get(), e)
            }
        }
    }

    async fn dispatch(&self, ty: u8, src: simnet::Addr, body: &Bytes) -> DmResult<Bytes> {
        match ty {
            req::REGISTER => {
                let pid = self.pm.borrow_mut().register_process();
                self.owners.borrow_mut().insert(pid.0, src);
                self.persist(|| {
                    vec![Record::Register {
                        node: src.node.0,
                        port: src.port,
                    }]
                })
                .await;
                self.charge(OpCost::default(), 0).await;
                // Only lease-granting servers append the TTL: the response
                // (and thus the packet schedule) of a lease-free server is
                // byte-identical to the pre-lease wire format.
                if let Some(ttl) = self.config.lease_ttl {
                    self.leases.borrow_mut().insert(pid.0, simcore::now() + ttl);
                    return Ok(self.ok(&Writer::new().pid(pid).u64(ttl.as_nanos() as u64).finish()));
                }
                Ok(self.ok(&Writer::new().pid(pid).finish()))
            }
            req::RENEW_LEASE => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let ttl = self.config.lease_ttl.ok_or(DmError::Malformed)?;
                match self.leases.borrow_mut().get_mut(&pid.0) {
                    Some(exp) => *exp = simcore::now() + ttl,
                    // Lease already expired and reclaimed: the renewal is
                    // too late, the client must re-register.
                    None => return Err(DmError::InvalidAddress),
                }
                self.charge(OpCost::default(), 0).await;
                Ok(self.ok(&[]))
            }
            req::ALLOC => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let len = r.u64()?;
                let va = self.pm.borrow_mut().ralloc(pid, len)?;
                self.persist(|| {
                    vec![Record::Alloc {
                        pid: pid.0,
                        len,
                        va,
                    }]
                })
                .await;
                self.charge(OpCost::default(), 0).await;
                Ok(self.ok(&Writer::new().u64(va).finish()))
            }
            req::FREE => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let cost = self.pm.borrow_mut().rfree(pid, va)?;
                self.persist(|| vec![Record::Free { pid: pid.0, va }]).await;
                self.charge(cost, cost.refcount_updates).await;
                Ok(self.ok(&[]))
            }
            req::CREATE_REF => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let len = r.u64()?;
                let (key, cost) = self.pm.borrow_mut().create_ref(pid, va, len)?;
                self.persist(|| {
                    vec![Record::CreateRef {
                        pid: pid.0,
                        va,
                        len,
                        key,
                    }]
                })
                .await;
                let pages = len.div_ceil(PAGE_SIZE as u64);
                self.charge(cost, pages).await;
                Ok(self.ok_v(&[(key, 1)], &Writer::new().u64(key).finish()))
            }
            req::MAP_REF => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let raw = r.u64()?;
                let key = match self.route_key(raw)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let (va, len, cost) = self.pm.borrow_mut().map_ref(pid, key)?;
                self.persist(|| {
                    vec![Record::MapRef {
                        pid: pid.0,
                        key,
                        va,
                    }]
                })
                .await;
                self.charge(cost, cost.refcount_updates).await;
                self.grant(raw, src);
                Ok(self.ok_v(
                    &[(raw, self.current_version(raw))],
                    &Writer::new().u64(va).u64(len).finish(),
                ))
            }
            req::READ => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let len = r.u64()?;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                let data = self.pm.borrow_mut().read(pid, va, len)?;
                self.charge(OpCost::default(), translations).await;
                // Reading pinned pages into the response path occupies DRAM.
                self.mem.touch(len).await;
                self.note_data_time(len);
                Ok(self.ok(&data))
            }
            req::WRITE => {
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let data = r.rest();
                let translations = (data.len() as u64).div_ceil(PAGE_SIZE as u64).max(1);
                let cost = self.pm.borrow_mut().write(pid, va, data)?;
                self.persist(|| {
                    vec![Record::Write {
                        pid: pid.0,
                        va,
                        data: data.to_vec(),
                    }]
                })
                .await;
                self.charge(cost, translations).await;
                // Storing into pinned pages occupies DRAM.
                self.mem.touch(data.len() as u64).await;
                self.note_data_time(data.len() as u64);
                Ok(self.ok(&[]))
            }
            req::RELEASE_REF => {
                let mut r = Reader::new(body);
                let raw = r.u64()?;
                let key = match self.route_key(raw)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let cost = self.pm.borrow_mut().release_ref(key)?;
                // The ref is gone: invalidate client caches. Coherent mode
                // kills just this key (version bump + targeted pushes);
                // otherwise the global epoch advances and the releaser's
                // own response carries the new epoch.
                let touched = if self.coherent() {
                    vec![(raw, self.bump_dead(raw, Some(src)))]
                } else {
                    self.epoch.set(self.epoch.get() + 1);
                    vec![]
                };
                if raw & GKEY_BIT != 0 {
                    self.gmap.borrow_mut().remove(&raw);
                    self.persist(|| {
                        vec![Record::ReleaseRef { key }, Record::GUnbind { gkey: raw }]
                    })
                    .await;
                } else {
                    self.persist(|| vec![Record::ReleaseRef { key }]).await;
                }
                self.charge(cost, cost.refcount_updates).await;
                Ok(self.ok_v(&touched, &[]))
            }
            req::WRITE_CREATE_REF => {
                // Fast path: write the data and create the ref in one RTT.
                let mut r = Reader::new(body);
                let pid = r.pid()?;
                self.check_owner(pid, src)?;
                let va = r.u64()?;
                let data = r.rest();
                let len = data.len() as u64;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                let (key, wcost, ccost) = {
                    let mut pm = self.pm.borrow_mut();
                    let wcost = pm.write(pid, va, data)?;
                    let (key, ccost) = pm.create_ref(pid, va, len)?;
                    (key, wcost, ccost)
                };
                self.persist(|| {
                    vec![
                        Record::Write {
                            pid: pid.0,
                            va,
                            data: data.to_vec(),
                        },
                        Record::CreateRef {
                            pid: pid.0,
                            va,
                            len,
                            key,
                        },
                    ]
                })
                .await;
                let mut cost = wcost;
                cost.add(ccost);
                self.charge(cost, translations).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                // The writer caches the bytes it just published.
                self.grant(key, src);
                Ok(self.ok_v(&[(key, 1)], &Writer::new().u64(key).finish()))
            }
            req::PUT_REF => {
                let data = &body[..];
                let len = data.len() as u64;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                // Attribute the ref to the caller's PID so lease expiry can
                // reclaim it. An unregistered caller (e.g. a process whose
                // lease already expired) is rejected — an anonymous ref
                // could never be reclaimed.
                let owner = self
                    .owners
                    .borrow()
                    .iter()
                    .find(|&(_, &a)| a == src)
                    .map(|(&pid, _)| GlobalPid(pid))
                    .ok_or(DmError::InvalidAddress)?;
                let (key, cost) = self.pm.borrow_mut().put_ref(data, Some(owner))?;
                self.persist(|| {
                    vec![Record::PutRef {
                        pid: owner.0,
                        key,
                        data: data.to_vec(),
                    }]
                })
                .await;
                self.charge(cost, translations).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                self.grant(key, src);
                Ok(self.ok_v(&[(key, 1)], &Writer::new().u64(key).finish()))
            }
            req::READ_REF => {
                let mut r = Reader::new(body);
                let raw = r.u64()?;
                let key = match self.route_key(raw)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let off = r.u64()?;
                let len = r.u64()?;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                let data = self.pm.borrow_mut().read_ref(key, off, len)?;
                self.charge(OpCost::default(), translations).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                // The reader may now cache these bytes: grant it a read
                // lease and report the key's version alongside the data.
                self.grant(raw, src);
                Ok(self.ok_v(&[(raw, self.current_version(raw))], &data))
            }
            req::PUT_REF_AT => {
                // Sharded plane (DESIGN.md §13): publish under a
                // client-minted global key. Placement was the client's
                // choice (the consistent-hash ring); this server only binds.
                let mut r = Reader::new(body);
                let gkey = r.u64()?;
                if gkey & GKEY_BIT == 0 {
                    return Err(DmError::InvalidRef);
                }
                let data = r.rest();
                // Gkeys are mint-once: a rebind would orphan pages and
                // break the one-hop redirect contract.
                if self.gmap.borrow().contains_key(&gkey) || self.moved.borrow().contains_key(&gkey)
                {
                    return Err(DmError::Malformed);
                }
                let len = data.len() as u64;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                let owner = self
                    .owners
                    .borrow()
                    .iter()
                    .find(|&(_, &a)| a == src)
                    .map(|(&pid, _)| GlobalPid(pid))
                    .ok_or(DmError::InvalidAddress)?;
                let (key, cost) = self.pm.borrow_mut().put_ref(data, Some(owner))?;
                self.gmap.borrow_mut().insert(gkey, key);
                self.persist(|| {
                    vec![
                        Record::PutRef {
                            pid: owner.0,
                            key,
                            data: data.to_vec(),
                        },
                        Record::GBind { gkey, key },
                    ]
                })
                .await;
                self.charge(cost, translations).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                self.grant(gkey, src);
                Ok(self.ok_v(&[(gkey, 1)], &[]))
            }
            req::MIGRATE => {
                // Ownership migration (DESIGN.md §13): transfer the gkey's
                // pages to `dst` server-to-server, release the local copy
                // and leave a redirect tombstone for in-flight clients.
                let mut r = Reader::new(body);
                let gkey = r.u64()?;
                if gkey & GKEY_BIT == 0 {
                    return Err(DmError::InvalidRef);
                }
                let dst = simnet::Addr {
                    node: NodeId(r.u32()?),
                    port: r.u32()? as u16,
                };
                if dst == self.addr() {
                    return Err(DmError::InvalidAddress);
                }
                let key = match self.route_key(gkey)? {
                    KeyRoute::Local(k) => k,
                    KeyRoute::Redirect(resp) => return Ok(resp),
                };
                let (len, owner) = {
                    let pm = self.pm.borrow();
                    (pm.ref_len(key)?, pm.ref_owner(key)?)
                };
                let data = self.pm.borrow_mut().read_ref(key, 0, len)?;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                let owner_addr = owner.and_then(|p| self.owners.borrow().get(&p.0).copied());
                // An owned ref whose owner is no longer registered is
                // about to be lease-reclaimed; migrating it would install
                // an unowned orphan at `dst` that no sweeper ever frees.
                if owner.is_some() && owner_addr.is_none() {
                    return Err(DmError::InvalidAddress);
                }
                // Reading the pages out for the transfer occupies DRAM
                // exactly like READ_REF.
                self.mem.touch(len).await;
                self.note_data_time(len);
                let mut w = Writer::new().u64(gkey);
                w = match owner_addr {
                    Some(a) => w.u32(a.node.0).u32(a.port as u32),
                    None => w.u32(NO_OWNER_PID).u32(0),
                };
                // Versions travel with ownership: the destination installs
                // the successor version, so clients that cached the ref
                // here can never mistake a pre-migration fill for current
                // once they reach the new home.
                let next_ver = self.current_version(gkey) + 1;
                if self.coherent() {
                    w = w.u64(next_ver);
                }
                let fwd = w.bytes(&data).finish();
                // The transfer rides the simulated fabric: migration pays
                // real server-to-server bandwidth and latency. A transport
                // or destination failure leaves the local copy untouched —
                // the gkey stays served here, and any duplicate the
                // destination may have installed is owner-attributed, so
                // lease teardown reclaims it.
                let resp = self
                    .rpc
                    .call(dst, req::MIGRATE_IN, fwd)
                    .await
                    .map_err(|_| DmError::Transport)?;
                proto::parse_response(&resp)?;
                // Destination acked: drop the local copy, leave the
                // forwarding tombstone, and invalidate caches (the ref's
                // home changed under every client that cached it).
                let cost = self.pm.borrow_mut().release_ref(key)?;
                self.gmap.borrow_mut().remove(&gkey);
                self.moved.borrow_mut().insert(gkey, dst);
                let touched = if self.coherent() {
                    // Targeted: holders re-read and chase the redirect to
                    // the new home; no epoch movement.
                    self.versions.borrow_mut().remove(&gkey);
                    self.push_invalidations(gkey, next_ver, None);
                    vec![(gkey, next_ver)]
                } else {
                    self.epoch.set(self.epoch.get() + 1);
                    vec![]
                };
                self.persist(|| {
                    vec![
                        Record::ReleaseRef { key },
                        Record::GMoved {
                            gkey,
                            node: dst.node.0,
                            port: dst.port,
                        },
                    ]
                })
                .await;
                self.migrations.set(self.migrations.get() + 1);
                self.charge(cost, translations).await;
                Ok(self.ok_v(&touched, &[]))
            }
            req::MIGRATE_IN => {
                // Destination half of MIGRATE: bind the gkey to a fresh
                // local ref holding the transferred bytes. Ownership is
                // re-attributed to this server's pid for the owning
                // endpoint when it is registered here; otherwise the ref
                // arrives unowned (reclaimed only by explicit release).
                let mut r = Reader::new(body);
                let gkey = r.u64()?;
                if gkey & GKEY_BIT == 0 {
                    return Err(DmError::InvalidRef);
                }
                let owner_node = r.u32()?;
                let owner_port = r.u32()?;
                // A coherent source framed the transferred version between
                // the owner fields and the data (sources and destinations
                // always agree on the coherence setting — it is one
                // cluster-wide knob).
                let ver = if self.coherent() { r.u64()? } else { 1 };
                let data = r.rest();
                if self.gmap.borrow().contains_key(&gkey) {
                    return Err(DmError::Malformed);
                }
                let owner = if owner_node == NO_OWNER_PID {
                    None
                } else {
                    let oaddr = simnet::Addr {
                        node: NodeId(owner_node),
                        port: owner_port as u16,
                    };
                    // The owner must be attributable here, or the transfer
                    // is refused and the source keeps the ref: accepting it
                    // unowned would leave pages no lease sweeper can ever
                    // reclaim. (The owner can be unknown here when its
                    // lease expired on this server — e.g. renewals lost to
                    // a partition — while the source still holds one.)
                    Some(
                        self.owners
                            .borrow()
                            .iter()
                            .find(|&(_, &a)| a == oaddr)
                            .map(|(&pid, _)| GlobalPid(pid))
                            .ok_or(DmError::InvalidAddress)?,
                    )
                };
                let len = data.len() as u64;
                let translations = len.div_ceil(PAGE_SIZE as u64).max(1);
                let (key, cost) = self.pm.borrow_mut().put_ref(data, owner)?;
                self.gmap.borrow_mut().insert(gkey, key);
                // A ref migrating back home clears its own stale tombstone.
                self.moved.borrow_mut().remove(&gkey);
                if ver != 1 {
                    // Only non-creation versions occupy the table (and the
                    // log): a once-migrated gkey keeps its history.
                    self.versions.borrow_mut().insert(gkey, ver);
                }
                self.persist(|| {
                    let mut recs = vec![
                        Record::PutRef {
                            pid: owner.map_or(NO_OWNER_PID, |p| p.0),
                            key,
                            data: data.to_vec(),
                        },
                        Record::GBind { gkey, key },
                    ];
                    if ver != 1 {
                        recs.push(Record::GVer { gkey, ver });
                    }
                    recs
                })
                .await;
                self.migrations.set(self.migrations.get() + 1);
                self.charge(cost, translations).await;
                self.mem.touch(len).await;
                self.note_data_time(len);
                Ok(self.ok(&[]))
            }
            req::BATCH => {
                // Coalesced control ops (DESIGN.md §9): one wire message,
                // one framed response per sub-op. Each sub-op still pays
                // its own page-manager CPU; what the batch saves is the
                // per-message RPC and network overhead. A failing sub-op
                // does not abort the rest — its framed slot carries the
                // error.
                let items = proto::decode_batch(body)?;
                let mut resps = Vec::with_capacity(items.len());
                for (sub_ty, sub_body, sub_ctx) in items {
                    if sub_ty == req::BATCH {
                        return Err(DmError::Malformed); // no nesting
                    }
                    // A sub-op that rode in with its enqueuer's context is
                    // parented there, reconnecting the deferred op to the
                    // request that caused it (the flush RPC is untraced).
                    let sub_span = sub_ctx.and_then(|c| {
                        telemetry::span_with_parent(
                            SpanKind::DmOp,
                            proto::req_name(sub_ty),
                            self.addr().node.0,
                            c,
                        )
                    });
                    let resp = match Box::pin(self.dispatch(sub_ty, src, &sub_body)).await {
                        Ok(r) => r,
                        Err(e) => err_response(self.epoch.get(), e),
                    };
                    drop(sub_span);
                    resps.push(resp);
                }
                Ok(self.ok(&proto::encode_batch_responses(&resps)))
            }
            _ => Err(DmError::Malformed),
        }
    }
}

/// Start `n` DM servers on dedicated nodes; returns their addresses.
/// Convenience used by benches ("We implement the global disaggregated
/// memory pool using two servers", §VI-A).
pub fn start_pool(
    net: &Network,
    nodes: &[NodeId],
    params: &memsim::ModelParams,
    config: DmServerConfig,
) -> Vec<Rc<DmServer>> {
    nodes
        .iter()
        .map(|&node| {
            let mem = NodeMemory::with_defaults(format!("dm{}", node.0), params.clone());
            DmServer::start(net, node, mem, config)
        })
        .collect()
}
