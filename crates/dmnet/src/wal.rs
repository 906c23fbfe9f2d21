//! Log-structured durability for the DM server (DESIGN.md §12).
//!
//! An opt-in write-ahead log of every **acknowledged mutating operation**:
//! the server appends a checksummed [`Record`] to the log *before* the
//! response for the op is sent (log-before-ack), so a crashed server can
//! rebuild the exact acknowledged state — page bytes, refcounts, COW
//! sharing, VA trees, process registrations and the invalidation epoch —
//! by replaying the log ([`crate::DmServer::restart_from_log`]).
//!
//! The log is *logical redo*: records name operations, not physical state,
//! and the [`crate::PageManager`] is deterministic, so replay reproduces
//! every internal detail including the FIFO free-list order. Background
//! growth is bounded by **checkpoint compaction**: when the live log
//! exceeds [`WalConfig::compact_threshold_bytes`], the whole log is
//! replaced by one [`Record::Checkpoint`] carrying a canonical snapshot of
//! the server state. The swap is atomic (the write-new-then-rename idiom
//! of log-structured stores); the modeled failure mode is a *torn tail* of
//! the append stream, which recovery handles by stopping at the last
//! record with a valid checksum.
//!
//! Record framing (all integers little-endian):
//!
//! ```text
//! [len u32][seq u64][crc32 u32][payload: len bytes]
//! ```
//!
//! `crc32` (IEEE) covers `seq || payload`, so a record that is truncated,
//! bit-flipped, or spliced from another position fails validation. `seq`
//! increases by exactly 1 per record and survives compaction, making a
//! stale pre-compaction suffix unspliceable after the checkpoint.
//!
//! Time is charged against a [`memsim::DurableMedia`]; the zero-cost
//! device ([`WalConfig::zero_cost`], selected by `DM_DURABLE=1`) performs
//! all of the bookkeeping with no virtual-time charge and no executor
//! yield, so enabling it cannot perturb the simulation schedule — the CI
//! `results-deterministic` job proves every committed CSV regenerates
//! byte-identically with it on.

use std::cell::{Cell, RefCell};

use memsim::{DurableMedia, DurableMediaParams};
use simnet::{Addr, NodeId};

use crate::page_manager::PageManager;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise — no
/// table, no dependency; the log is not on any hot path.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash, used for state digests (recovery oracles compare
/// digests of canonical snapshots).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One logged server mutation. Fields record enough to replay the op
/// deterministically plus the values the original execution returned
/// (`va`, `key`), which replay asserts against to catch divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// `REGISTER`: a process registered from `node:port`.
    Register {
        /// Fabric node id of the registering endpoint.
        node: u32,
        /// Port of the registering endpoint.
        port: u16,
    },
    /// `ALLOC` for `pid`; the VA tree returned `va`.
    Alloc {
        /// Allocating process.
        pid: u32,
        /// Requested length in bytes.
        len: u64,
        /// VA the original execution returned.
        va: u64,
    },
    /// `FREE` of the region at `va`.
    Free {
        /// Freeing process.
        pid: u32,
        /// Region start.
        va: u64,
    },
    /// `WRITE` of `data` at `va` (COW decisions replay deterministically).
    Write {
        /// Writing process.
        pid: u32,
        /// Write offset.
        va: u64,
        /// The written bytes.
        data: Vec<u8>,
    },
    /// `CREATE_REF` over `[va, va+len)`; the key space returned `key`.
    CreateRef {
        /// Creating process.
        pid: u32,
        /// Region start.
        va: u64,
        /// Region length.
        len: u64,
        /// Key the original execution returned.
        key: u64,
    },
    /// `MAP_REF` of `key` into `pid`; the VA tree returned `va`.
    MapRef {
        /// Mapping process.
        pid: u32,
        /// Mapped ref key.
        key: u64,
        /// VA the original execution returned.
        va: u64,
    },
    /// `RELEASE_REF` of `key` (advances the invalidation epoch on replay).
    ReleaseRef {
        /// Released ref key.
        key: u64,
    },
    /// `PUT_REF` of `data` owned by `pid`; the key space returned `key`.
    PutRef {
        /// Owning process.
        pid: u32,
        /// Key the original execution returned.
        key: u64,
        /// The published bytes.
        data: Vec<u8>,
    },
    /// Lease expiry reclaimed every pin of `pid` (advances the epoch on
    /// replay, exactly like the live sweep does).
    ReleaseProcess {
        /// Reclaimed process.
        pid: u32,
    },
    /// Compaction checkpoint: a canonical snapshot of the full server
    /// state; replay restores it and continues with subsequent records.
    Checkpoint {
        /// Canonical snapshot bytes (see `DmServer::snapshot_bytes`).
        snapshot: Vec<u8>,
    },
    /// Sharded plane (DESIGN.md §13): global key `gkey` bound to the
    /// local ref `key` (a `PUT_REF_AT` or `MIGRATE_IN`; the paired
    /// `PutRef` record replays the underlying allocation).
    GBind {
        /// Client-minted global key (bit 63 set).
        gkey: u64,
        /// Local ref key the gkey resolves to.
        key: u64,
    },
    /// Global key `gkey` released (`RELEASE_REF` naming a gkey; the
    /// paired `ReleaseRef` record replays the underlying release).
    GUnbind {
        /// The released global key.
        gkey: u64,
    },
    /// Global key `gkey` migrated away to `node:port`; replay reinstalls
    /// the redirect tombstone (the paired `ReleaseRef` record replays the
    /// local release).
    GMoved {
        /// The migrated global key.
        gkey: u64,
        /// Destination fabric node.
        node: u32,
        /// Destination port.
        port: u16,
    },
    /// Coherence plane (DESIGN.md §15): `gkey` arrived by MIGRATE_IN
    /// carrying per-ref version `ver` (versions travel with ownership;
    /// only non-creation versions are logged — creation is the implicit
    /// version 1).
    GVer {
        /// The migrated-in global key.
        gkey: u64,
        /// Its transferred version (always ≥ 2).
        ver: u64,
    },
}

mod kind {
    pub const REGISTER: u8 = 1;
    pub const ALLOC: u8 = 2;
    pub const FREE: u8 = 3;
    pub const WRITE: u8 = 4;
    pub const CREATE_REF: u8 = 5;
    pub const MAP_REF: u8 = 6;
    pub const RELEASE_REF: u8 = 7;
    pub const PUT_REF: u8 = 8;
    pub const RELEASE_PROCESS: u8 = 9;
    pub const CHECKPOINT: u8 = 10;
    pub const GBIND: u8 = 11;
    pub const GUNBIND: u8 = 12;
    pub const GMOVED: u8 = 13;
    pub const GVER: u8 = 14;
}

impl Record {
    /// Encode the record payload (no frame) into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Register { node, port } => {
                out.push(kind::REGISTER);
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&port.to_le_bytes());
            }
            Record::Alloc { pid, len, va } => {
                out.push(kind::ALLOC);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&va.to_le_bytes());
            }
            Record::Free { pid, va } => {
                out.push(kind::FREE);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&va.to_le_bytes());
            }
            Record::Write { pid, va, data } => {
                out.push(kind::WRITE);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&va.to_le_bytes());
                out.extend_from_slice(data);
            }
            Record::CreateRef { pid, va, len, key } => {
                out.push(kind::CREATE_REF);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&va.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Record::MapRef { pid, key, va } => {
                out.push(kind::MAP_REF);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&va.to_le_bytes());
            }
            Record::ReleaseRef { key } => {
                out.push(kind::RELEASE_REF);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Record::PutRef { pid, key, data } => {
                out.push(kind::PUT_REF);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(data);
            }
            Record::ReleaseProcess { pid } => {
                out.push(kind::RELEASE_PROCESS);
                out.extend_from_slice(&pid.to_le_bytes());
            }
            Record::Checkpoint { snapshot } => {
                out.push(kind::CHECKPOINT);
                out.extend_from_slice(snapshot);
            }
            Record::GBind { gkey, key } => {
                out.push(kind::GBIND);
                out.extend_from_slice(&gkey.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
            }
            Record::GUnbind { gkey } => {
                out.push(kind::GUNBIND);
                out.extend_from_slice(&gkey.to_le_bytes());
            }
            Record::GMoved { gkey, node, port } => {
                out.push(kind::GMOVED);
                out.extend_from_slice(&gkey.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&port.to_le_bytes());
            }
            Record::GVer { gkey, ver } => {
                out.push(kind::GVER);
                out.extend_from_slice(&gkey.to_le_bytes());
                out.extend_from_slice(&ver.to_le_bytes());
            }
        }
    }

    /// Decode one record payload. `None` on any malformed input.
    pub fn decode(payload: &[u8]) -> Option<Record> {
        let (&k, rest) = payload.split_first()?;
        let mut c = Cursor { buf: rest, pos: 0 };
        let rec = match k {
            kind::REGISTER => Record::Register {
                node: c.u32()?,
                port: c.u16()?,
            },
            kind::ALLOC => Record::Alloc {
                pid: c.u32()?,
                len: c.u64()?,
                va: c.u64()?,
            },
            kind::FREE => Record::Free {
                pid: c.u32()?,
                va: c.u64()?,
            },
            kind::WRITE => Record::Write {
                pid: c.u32()?,
                va: c.u64()?,
                data: c.rest().to_vec(),
            },
            kind::CREATE_REF => Record::CreateRef {
                pid: c.u32()?,
                va: c.u64()?,
                len: c.u64()?,
                key: c.u64()?,
            },
            kind::MAP_REF => Record::MapRef {
                pid: c.u32()?,
                key: c.u64()?,
                va: c.u64()?,
            },
            kind::RELEASE_REF => Record::ReleaseRef { key: c.u64()? },
            kind::PUT_REF => Record::PutRef {
                pid: c.u32()?,
                key: c.u64()?,
                data: c.rest().to_vec(),
            },
            kind::RELEASE_PROCESS => Record::ReleaseProcess { pid: c.u32()? },
            kind::CHECKPOINT => Record::Checkpoint {
                snapshot: c.rest().to_vec(),
            },
            kind::GBIND => Record::GBind {
                gkey: c.u64()?,
                key: c.u64()?,
            },
            kind::GUNBIND => Record::GUnbind { gkey: c.u64()? },
            kind::GMOVED => Record::GMoved {
                gkey: c.u64()?,
                node: c.u32()?,
                port: c.u16()?,
            },
            kind::GVER => Record::GVer {
                gkey: c.u64()?,
                ver: c.u64()?,
            },
            _ => return None,
        };
        // Fixed-size records must consume their payload exactly.
        match &rec {
            Record::Write { .. } | Record::PutRef { .. } | Record::Checkpoint { .. } => {}
            _ => {
                if !c.at_end() {
                    return None;
                }
            }
        }
        Some(rec)
    }
}

/// Little-endian reader over a record payload or checkpoint snapshot;
/// every read is `None` once the input runs out.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.remaining() {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn addr(&mut self) -> Option<Addr> {
        Some(Addr {
            node: NodeId(self.u32()?),
            port: self.u16()?,
        })
    }
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// The server tables a [`Record::Checkpoint`] carries besides the page
/// manager, each sorted by key so that equal states encode to equal
/// bytes. Leases and the holder directory are volatile by design and
/// are not part of it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SnapshotTables {
    /// Invalidation epoch.
    pub(crate) epoch: u64,
    /// Registered pid → owning endpoint.
    pub(crate) owners: Vec<(u32, Addr)>,
    /// Gkey → local ref key, for every gkey homed here.
    pub(crate) binds: Vec<(u64, u64)>,
    /// Redirect tombstones: gkey → forwarding address.
    pub(crate) tombs: Vec<(u64, Addr)>,
    /// Per-ref versions other than the implicit creation version 1.
    pub(crate) versions: Vec<(u64, u64)>,
}

/// Encode a checkpoint snapshot. The one layout (little-endian):
///
/// ```text
/// [epoch u64]
/// [n u32] n × [pid u32][node u32][port u16]     owners
/// [n u32] n × [gkey u64][key u64]               gkey bindings
/// [n u32] n × [gkey u64][node u32][port u16]    tombstones
/// [n u32] n × [gkey u64][version u64]           versions
/// [page-manager snapshot]
/// ```
///
/// Every table is written even when it is empty.
pub(crate) fn encode_snapshot(t: &SnapshotTables, pm: &PageManager) -> Vec<u8> {
    fn put_addr(out: &mut Vec<u8>, a: Addr) {
        out.extend_from_slice(&a.node.0.to_le_bytes());
        out.extend_from_slice(&a.port.to_le_bytes());
    }
    fn put_table<T: Copy>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, T)) {
        out.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for &it in items {
            put(out, it);
        }
    }
    let mut out = t.epoch.to_le_bytes().to_vec();
    put_table(&mut out, &t.owners, |out, (pid, a)| {
        out.extend_from_slice(&pid.to_le_bytes());
        put_addr(out, a);
    });
    put_table(&mut out, &t.binds, |out, (gkey, key)| {
        out.extend_from_slice(&gkey.to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
    });
    put_table(&mut out, &t.tombs, |out, (gkey, a)| {
        out.extend_from_slice(&gkey.to_le_bytes());
        put_addr(out, a);
    });
    put_table(&mut out, &t.versions, |out, (gkey, ver)| {
        out.extend_from_slice(&gkey.to_le_bytes());
        out.extend_from_slice(&ver.to_le_bytes());
    });
    pm.snapshot_into(&mut out);
    out
}

/// Inverse of [`encode_snapshot`]. `None` on any malformed input —
/// truncation, a count that overruns the buffer, an invalid page-manager
/// snapshot, or trailing bytes — never a panic.
pub(crate) fn decode_snapshot(buf: &[u8]) -> Option<(SnapshotTables, PageManager)> {
    fn table<'a, T>(
        c: &mut Cursor<'a>,
        item: impl Fn(&mut Cursor<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = c.u32()?;
        // No preallocation from `n`: a corrupt count fails at the first
        // missing item instead of reserving memory it names.
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(c)?);
        }
        Some(out)
    }
    let mut c = Cursor { buf, pos: 0 };
    let tables = SnapshotTables {
        epoch: c.u64()?,
        owners: table(&mut c, |c| Some((c.u32()?, c.addr()?)))?,
        binds: table(&mut c, |c| Some((c.u64()?, c.u64()?)))?,
        tombs: table(&mut c, |c| Some((c.u64()?, c.addr()?)))?,
        versions: table(&mut c, |c| Some((c.u64()?, c.u64()?)))?,
    };
    let pm = PageManager::restore_from(buf, &mut c.pos)?;
    c.at_end().then_some((tables, pm))
}

/// Durability backend configuration (a field of
/// [`crate::DmServerConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalConfig {
    /// Timing model of the log device.
    pub media: DurableMediaParams,
    /// Compact (checkpoint + truncate) once the live log exceeds this many
    /// bytes. 0 disables compaction (tests pin log contents with it).
    pub compact_threshold_bytes: u64,
}

impl WalConfig {
    /// Zero-cost durability: full WAL bookkeeping, no virtual-time charge,
    /// no schedule perturbation. This is what `DM_DURABLE=1` selects.
    pub fn zero_cost() -> WalConfig {
        WalConfig {
            media: DurableMediaParams::zero_cost(),
            compact_threshold_bytes: 4 << 20,
        }
    }

    /// NVMe-class timed durability (~5 µs/sync, 2 GB/s streaming).
    pub fn nvme() -> WalConfig {
        WalConfig {
            media: DurableMediaParams::nvme(),
            compact_threshold_bytes: 4 << 20,
        }
    }

    /// The `DM_DURABLE=1` env hook: every server built with
    /// `DmServerConfig::default()` gets a zero-cost durable tier, proving
    /// (via the `results-deterministic` CI job) that durability
    /// bookkeeping is schedule-neutral.
    pub fn from_env() -> Option<WalConfig> {
        match std::env::var("DM_DURABLE") {
            Ok(v) if v == "1" => Some(WalConfig::zero_cost()),
            _ => None,
        }
    }
}

/// What a recovery scan found.
#[derive(Debug)]
pub struct ScanReport {
    /// Records of the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Bytes of the valid prefix.
    pub valid_bytes: usize,
    /// Sequence number the next append should use (last valid + 1), or
    /// `None` when no record validated.
    pub next_seq: Option<u64>,
    /// Whether a torn/corrupt tail was cut off.
    pub torn: bool,
}

/// The write-ahead log of one DM server: the framed record stream (the
/// simulated durable-media *contents*) plus the media timing model.
///
/// Appends are split in two so the record becomes durable atomically with
/// the in-memory mutation it describes (the simulator is single-threaded,
/// so code between awaits is atomic): [`Wal::push`] installs the framed
/// record synchronously, then the caller awaits the media charge before
/// sending the response. A crash between mutation and response therefore
/// never loses an acknowledged op — the modeled torn-tail failure only
/// drops records whose responses were never sent.
pub struct Wal {
    buf: RefCell<Vec<u8>>,
    next_seq: Cell<u64>,
    records: Cell<u64>,
    compactions: Cell<u64>,
    media: DurableMedia,
    config: WalConfig,
}

impl Wal {
    /// Create an empty log on a fresh media device.
    pub fn new(name: impl Into<String>, config: WalConfig) -> Wal {
        Wal {
            buf: RefCell::new(Vec::new()),
            next_seq: Cell::new(0),
            records: Cell::new(0),
            compactions: Cell::new(0),
            media: DurableMedia::new(name, config.media),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// The media timing model (callers charge append/scan time on it).
    pub fn media(&self) -> &DurableMedia {
        &self.media
    }

    /// Frame and append `rec` synchronously; returns the framed size in
    /// bytes (the caller's media charge).
    pub fn push(&self, rec: &Record) -> u64 {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let mut payload = Vec::new();
        rec.encode_into(&mut payload);
        let mut check = Vec::with_capacity(8 + payload.len());
        check.extend_from_slice(&seq.to_le_bytes());
        check.extend_from_slice(&payload);
        let crc = crc32(&check);
        let mut buf = self.buf.borrow_mut();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&payload);
        self.records.set(self.records.get() + 1);
        (16 + payload.len()) as u64
    }

    /// Whether the live log has outgrown the compaction threshold.
    pub fn should_compact(&self) -> bool {
        self.config.compact_threshold_bytes > 0
            && self.buf.borrow().len() as u64 > self.config.compact_threshold_bytes
    }

    /// Replace the whole log with one checkpoint record (atomic install —
    /// the write-new-then-rename idiom). Sequence numbers continue, so a
    /// stale pre-compaction suffix can never splice onto the new log.
    /// Returns the framed checkpoint size for the caller's media charge.
    pub fn compact(&self, snapshot: Vec<u8>) -> u64 {
        self.buf.borrow_mut().clear();
        self.records.set(0);
        self.compactions.set(self.compactions.get() + 1);
        self.push(&Record::Checkpoint { snapshot })
    }

    /// Bytes in the live log.
    pub fn log_bytes(&self) -> u64 {
        self.buf.borrow().len() as u64
    }

    /// Records in the live log (post-compaction count).
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions.get()
    }

    /// Parse the log, validating framing, checksums and sequence
    /// continuity; stops at the first invalid byte. Read-only — pair with
    /// [`Wal::repair`] to actually cut a torn tail.
    pub fn scan(&self) -> ScanReport {
        let buf = self.buf.borrow();
        let mut pos = 0usize;
        let mut records = Vec::new();
        let mut expect_seq: Option<u64> = None;
        let mut torn = false;
        while pos < buf.len() {
            if pos + 16 > buf.len() {
                torn = true;
                break;
            }
            let len =
                u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("len checked")) as usize;
            let seq = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().expect("len checked"));
            let crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().expect("len checked"));
            if pos + 16 + len > buf.len() {
                torn = true;
                break;
            }
            let payload = &buf[pos + 16..pos + 16 + len];
            let mut check = Vec::with_capacity(8 + len);
            check.extend_from_slice(&seq.to_le_bytes());
            check.extend_from_slice(payload);
            if crc32(&check) != crc {
                torn = true;
                break;
            }
            if let Some(e) = expect_seq {
                if seq != e {
                    torn = true;
                    break;
                }
            }
            let Some(rec) = Record::decode(payload) else {
                torn = true;
                break;
            };
            expect_seq = Some(seq + 1);
            records.push(rec);
            pos += 16 + len;
        }
        ScanReport {
            records,
            valid_bytes: pos,
            next_seq: expect_seq,
            torn,
        }
    }

    /// Cut the torn tail a [`Wal::scan`] found: truncate the log to the
    /// valid prefix and realign the sequence/record counters.
    pub fn repair(&self, report: &ScanReport) {
        self.buf.borrow_mut().truncate(report.valid_bytes);
        if let Some(next) = report.next_seq {
            self.next_seq.set(next);
        }
        self.records.set(report.records.len() as u64);
    }

    /// Raw log bytes (corruption-injection tests).
    pub fn raw(&self) -> Vec<u8> {
        self.buf.borrow().clone()
    }

    /// Replace the raw log bytes (corruption-injection tests). Counters
    /// are left stale on purpose — a following [`Wal::scan`] +
    /// [`Wal::repair`] (as `restart_from_log` performs) realigns them.
    pub fn set_raw(&self, bytes: Vec<u8>) {
        *self.buf.borrow_mut() = bytes;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Register {
                node: 3,
                port: 7000,
            },
            Record::Alloc {
                pid: 7,
                len: 8192,
                va: 0x1000,
            },
            Record::Write {
                pid: 7,
                va: 0x1000,
                data: vec![0xAB; 5],
            },
            Record::CreateRef {
                pid: 7,
                va: 0x1000,
                len: 8192,
                key: 1,
            },
            Record::MapRef {
                pid: 8,
                key: 1,
                va: 0x3000,
            },
            Record::ReleaseRef { key: 1 },
            Record::PutRef {
                pid: 7,
                key: 2,
                data: vec![1, 2, 3],
            },
            Record::Free { pid: 7, va: 0x1000 },
            Record::ReleaseProcess { pid: 7 },
            Record::Checkpoint {
                snapshot: vec![9, 9, 9],
            },
            Record::GBind {
                gkey: (1 << 63) | 77,
                key: 5,
            },
            Record::GUnbind {
                gkey: (1 << 63) | 77,
            },
            Record::GMoved {
                gkey: (1 << 63) | 78,
                node: 4,
                port: 7000,
            },
            Record::GVer {
                gkey: (1 << 63) | 78,
                ver: 3,
            },
        ]
    }

    #[test]
    fn record_roundtrip_every_kind() {
        for rec in sample_records() {
            let mut p = Vec::new();
            rec.encode_into(&mut p);
            assert_eq!(Record::decode(&p).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Record::decode(&[]), None);
        assert_eq!(Record::decode(&[99]), None, "unknown kind");
        assert_eq!(Record::decode(&[kind::ALLOC, 1]), None, "truncated");
        // Trailing garbage on a fixed-size record.
        let mut p = Vec::new();
        Record::ReleaseProcess { pid: 1 }.encode_into(&mut p);
        p.push(0);
        assert_eq!(Record::decode(&p), None);
    }

    #[test]
    fn golden_wire_format() {
        // Pins the on-media wire format: frame header layout, field order,
        // little-endian encoding, CRC-32/IEEE over seq||payload. If this
        // test breaks, recovery of logs written by older builds breaks.
        let w = Wal::new("golden", WalConfig::zero_cost());
        w.push(&Record::Alloc {
            pid: 5,
            len: 4096,
            va: 0x1000,
        });
        let raw = w.raw();
        let expect: Vec<u8> = [
            &21u32.to_le_bytes()[..],          // payload length
            &0u64.to_le_bytes()[..],           // seq 0
            &0xE7A6_17C5u32.to_le_bytes()[..], // crc32(seq || payload)
            &[super::kind::ALLOC][..],         // kind
            &5u32.to_le_bytes()[..],           // pid
            &4096u64.to_le_bytes()[..],        // len
            &0x1000u64.to_le_bytes()[..],      // va
        ]
        .concat();
        assert_eq!(raw, expect, "wire format drifted");
    }

    #[test]
    fn scan_roundtrips_clean_log() {
        let w = Wal::new("t", WalConfig::zero_cost());
        let recs = sample_records();
        for r in &recs {
            w.push(r);
        }
        let report = w.scan();
        assert!(!report.torn);
        assert_eq!(report.records, recs);
        assert_eq!(report.valid_bytes as u64, w.log_bytes());
        assert_eq!(report.next_seq, Some(recs.len() as u64));
    }

    #[test]
    fn scan_stops_at_truncated_tail() {
        let w = Wal::new("t", WalConfig::zero_cost());
        for r in sample_records() {
            w.push(r.as_ref());
        }
        let clean = w.scan();
        let mut raw = w.raw();
        raw.truncate(raw.len() - 3); // tear the final record
        w.set_raw(raw);
        let report = w.scan();
        assert!(report.torn);
        assert_eq!(report.records.len(), clean.records.len() - 1);
        w.repair(&report);
        assert!(!w.scan().torn, "repair cut the torn tail");
        assert_eq!(w.records(), report.records.len() as u64);
    }

    #[test]
    fn scan_stops_at_bit_flip() {
        let w = Wal::new("t", WalConfig::zero_cost());
        for r in sample_records() {
            w.push(r.as_ref());
        }
        let mut raw = w.raw();
        let n = raw.len();
        raw[n - 1] ^= 0x10; // flip one bit in the last record's payload
        w.set_raw(raw);
        let report = w.scan();
        assert!(report.torn);
        assert_eq!(report.records.len(), sample_records().len() - 1);
        // A flip in the *middle* cuts everything after it too.
        let w2 = Wal::new("t2", WalConfig::zero_cost());
        for r in sample_records() {
            w2.push(r.as_ref());
        }
        let mut raw = w2.raw();
        raw[20] ^= 0x01; // inside record 0's frame
        w2.set_raw(raw);
        let report = w2.scan();
        assert!(report.torn);
        assert!(report.records.is_empty());
        assert_eq!(report.next_seq, None);
    }

    #[test]
    fn sequence_discontinuity_is_torn() {
        // Splicing a stale record after a newer one fails the seq check
        // even though its checksum is fine.
        let a = Wal::new("a", WalConfig::zero_cost());
        a.push(&Record::ReleaseProcess { pid: 1 });
        let stale = a.raw();
        let b = Wal::new("b", WalConfig::zero_cost());
        b.push(&Record::ReleaseProcess { pid: 2 });
        b.push(&Record::ReleaseProcess { pid: 3 });
        let mut spliced = b.raw();
        spliced.extend_from_slice(&stale); // seq 0 after seq 1
        b.set_raw(spliced);
        let report = b.scan();
        assert!(report.torn);
        assert_eq!(report.records.len(), 2);
    }

    #[test]
    fn compaction_replaces_log_and_continues_seq() {
        let w = Wal::new(
            "t",
            WalConfig {
                compact_threshold_bytes: 64,
                ..WalConfig::zero_cost()
            },
        );
        for _ in 0..10 {
            w.push(&Record::ReleaseProcess { pid: 9 });
        }
        assert!(w.should_compact());
        let before = w.log_bytes();
        w.compact(vec![1, 2, 3, 4]);
        assert!(w.log_bytes() < before, "compaction must shrink the log");
        assert_eq!(w.compactions(), 1);
        assert_eq!(w.records(), 1);
        let report = w.scan();
        assert!(!report.torn);
        assert_eq!(report.records.len(), 1);
        assert!(matches!(report.records[0], Record::Checkpoint { .. }));
        // Seq continued across compaction: next push is seq 11.
        assert_eq!(report.next_seq, Some(11));
    }

    impl AsRef<Record> for Record {
        fn as_ref(&self) -> &Record {
            self
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE check value: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    /// A small, fully populated checkpoint: every table non-empty, and a
    /// page manager holding mapped, shared, COW-diverged and ref-owned
    /// pages.
    fn sample_snapshot() -> (SnapshotTables, Vec<u8>) {
        const PS: u64 = dmcommon::PAGE_SIZE as u64;
        let mut pm = PageManager::new(16, dmcommon::CopyMode::CopyOnWrite);
        let a = pm.register_process();
        let b = pm.register_process();
        let va = pm.ralloc(a, 2 * PS).unwrap();
        pm.write(a, va, &[0x5A; 5000]).unwrap();
        let (key, _) = pm.create_ref(a, va, 2 * PS).unwrap();
        let (mva, _, _) = pm.map_ref(b, key).unwrap();
        pm.write(b, mva, b"cow").unwrap();
        let (put, _) = pm.put_ref(&[7; 100], Some(b)).unwrap();
        let addr = |node, port| Addr {
            node: NodeId(node),
            port,
        };
        let g = crate::GKEY_BIT;
        let tables = SnapshotTables {
            epoch: 9,
            owners: vec![(a.0, addr(3, 100)), (b.0, addr(4, 100))],
            binds: vec![(g | 1, put)],
            tombs: vec![(g | 2, addr(7, 9000))],
            versions: vec![(g | 1, 3)],
        };
        let bytes = encode_snapshot(&tables, &pm);
        (tables, bytes)
    }

    #[test]
    fn snapshot_roundtrips_with_every_table_written() {
        let (tables, bytes) = sample_snapshot();
        let (back, pm) = decode_snapshot(&bytes).expect("a clean snapshot decodes");
        assert_eq!(back, tables);
        assert_eq!(encode_snapshot(&back, &pm), bytes);
        // Empty tables are still written: the epoch and four zero counts
        // precede the page-manager snapshot.
        let pm = PageManager::new(4, dmcommon::CopyMode::CopyOnWrite);
        let empty = encode_snapshot(&SnapshotTables::default(), &pm);
        assert_eq!(empty.len(), 8 + 4 * 4 + pm.snapshot().len());
        assert_eq!(
            decode_snapshot(&empty).map(|(t, _)| t),
            Some(SnapshotTables::default())
        );
        // Trailing bytes are corruption too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_snapshot(&long).is_none());
        // A count that overruns the buffer fails without reserving what
        // it names: max out each table count in turn.
        let owners_at = 8;
        let binds_at = owners_at + 4 + 2 * 10;
        let tombs_at = binds_at + 4 + 16;
        let versions_at = tombs_at + 4 + 14;
        for at in [owners_at, binds_at, tombs_at, versions_at] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_snapshot(&bad).is_none(), "count at {at}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The checkpoint decoder is total: a truncated snapshot is
        /// always an error, and a bit-flipped one is an error or a
        /// decoded state — never a panic or an allocation sized by a
        /// corrupt field.
        #[test]
        fn snapshot_decoder_rejects_truncation_and_survives_bit_flips(
            cut in 0.0f64..1.0,
            flips in (0usize..160 * 8, 0usize..200 * 8, 0.0f64..1.0),
        ) {
            let (_, bytes) = sample_snapshot();
            let n = bytes.len();
            let cut = (cut * n as f64) as usize;
            prop_assert!(decode_snapshot(&bytes[..cut]).is_none(), "truncated at {cut}");
            // Most bytes are page contents, so aim one flip at the tables
            // and page-manager header, one at the trailing VA trees,
            // translations and refs, and one anywhere.
            let (head, tail, any) = flips;
            for bit in [head, (n - 200) * 8 + tail, (any * (n * 8) as f64) as usize] {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_snapshot(&flipped);
            }
        }
    }
}
