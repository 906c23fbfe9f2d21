//! The Page manager (paper §V-A1).
//!
//! Owns the pinned memory of one DM server:
//!
//! * a fixed pool of pinned pages managed in a **FIFO** free list;
//! * a 4-byte **reference count** per page ("stored linearly in the
//!   memory");
//! * per-process **VA allocation trees** ([`crate::va_tree::VaTree`]);
//! * the **`Ref` map** from `create_ref` keys to the pinned pages they
//!   share;
//! * the **hash-table translation** ([`crate::translator::Translator`]).
//!
//! Every operation is a pure in-memory state transition on real bytes; each
//! returns an [`OpCost`] describing the work done (pages faulted, bytes
//! copied, translation lookups) so the server layer can charge virtual time
//! and memory bandwidth for it.

use std::collections::{HashMap, VecDeque};

use dmcommon::{CopyMode, DmError, DmResult, GlobalPid, PAGE_SIZE};

use crate::translator::{PageIdx, Translator};
use crate::va_tree::VaTree;
use crate::wal::Cursor;

/// Work performed by one Page-manager operation, for cost charging.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct OpCost {
    /// Bytes physically copied (COW page copies, eager-copy page copies).
    pub bytes_copied: u64,
    /// Pages newly taken from the free FIFO.
    pub pages_faulted: u64,
    /// Pages whose refcount was touched.
    pub refcount_updates: u64,
}

impl OpCost {
    /// Accumulate another operation's cost (used by composite operations
    /// and the bench harnesses when aggregating per-request work).
    pub fn add(&mut self, other: OpCost) {
        self.bytes_copied += other.bytes_copied;
        self.pages_faulted += other.pages_faulted;
        self.refcount_updates += other.refcount_updates;
    }
}

struct RefEntry {
    pages: Vec<PageIdx>,
    len: u64,
    /// PID that created the ref, for lease-based reclamation: when the
    /// owning process's lease expires its unconsumed refs are released.
    /// `None` for refs with no attributable owner.
    owner: Option<u32>,
}

/// The state of one DM server's Page manager.
pub struct PageManager {
    /// Pinned pages, materialized lazily on first use so huge pools do not
    /// consume host RAM up front (the paper pins eagerly; the distinction
    /// is invisible to the model).
    pages: Vec<Option<Box<[u8]>>>,
    refcounts: Vec<u32>,
    free: VecDeque<PageIdx>,
    translator: Translator,
    processes: HashMap<u32, VaTree>,
    next_pid: u32,
    refs: HashMap<u64, RefEntry>,
    next_key: u64,
    copy_mode: CopyMode,
}

impl PageManager {
    /// Create a Page manager with `capacity_pages` pinned pages.
    pub fn new(capacity_pages: usize, copy_mode: CopyMode) -> PageManager {
        PageManager {
            pages: (0..capacity_pages).map(|_| None).collect(),
            refcounts: vec![0; capacity_pages],
            free: (0..capacity_pages as u32).collect(),
            translator: Translator::new(),
            processes: HashMap::new(),
            next_pid: 1,
            refs: HashMap::new(),
            next_key: 1,
            copy_mode,
        }
    }

    /// The copy policy in effect (COW vs the `-copy` ablation).
    pub fn copy_mode(&self) -> CopyMode {
        self.copy_mode
    }

    /// Free pages remaining.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Total pinned pages.
    pub fn capacity_pages(&self) -> usize {
        self.pages.len()
    }

    /// The translator (for overhead statistics).
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// Register a new process, assigning its global PID (paper §V-A: "the
    /// global PID is assigned by our software running on DM servers").
    pub fn register_process(&mut self) -> GlobalPid {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.insert(pid, VaTree::new());
        GlobalPid(pid)
    }

    fn tree(&mut self, pid: GlobalPid) -> DmResult<&mut VaTree> {
        self.processes
            .get_mut(&pid.0)
            .ok_or(DmError::InvalidAddress)
    }

    /// Allocate `len` bytes of DM virtual address space. Pages are mapped
    /// lazily on first write (paper §V-A1 `ralloc`).
    pub fn ralloc(&mut self, pid: GlobalPid, len: u64) -> DmResult<u64> {
        self.tree(pid)?.alloc(len, PAGE_SIZE as u64)
    }

    /// Release a region: clear translations, unref pages, free the VA range
    /// (paper §V-A1 `rfree`).
    pub fn rfree(&mut self, pid: GlobalPid, va: u64) -> DmResult<OpCost> {
        let (start, len) = self.tree(pid)?.lookup(va)?;
        if start != va {
            return Err(DmError::InvalidAddress);
        }
        let mut cost = OpCost::default();
        for vpn in (start / PAGE_SIZE as u64)..((start + len) / PAGE_SIZE as u64) {
            if let Some(p) = self.translator.remove(pid, vpn) {
                self.unref(p);
                cost.refcount_updates += 1;
            }
        }
        self.tree(pid)?.free(start)?;
        Ok(cost)
    }

    fn unref(&mut self, p: PageIdx) {
        let rc = &mut self.refcounts[p as usize];
        debug_assert!(*rc > 0, "unref of free page");
        *rc -= 1;
        if *rc == 0 {
            self.free.push_back(p);
            // De-materialize: FIFO rotation would otherwise touch every
            // slot of a large pool and pin host RAM for the whole capacity.
            self.pages[p as usize] = None;
        }
    }

    fn take_free_page(&mut self) -> DmResult<PageIdx> {
        let p = self.free.pop_front().ok_or(DmError::OutOfMemory)?;
        debug_assert_eq!(self.refcounts[p as usize], 0);
        self.refcounts[p as usize] = 1;
        let slot = &mut self.pages[p as usize];
        if slot.is_none() {
            *slot = Some(vec![0u8; PAGE_SIZE].into_boxed_slice());
        }
        Ok(p)
    }

    fn page(&self, p: PageIdx) -> &[u8] {
        self.pages[p as usize]
            .as_deref()
            .expect("page materialized")
    }

    fn page_mut(&mut self, p: PageIdx) -> &mut [u8] {
        self.pages[p as usize]
            .as_deref_mut()
            .expect("page materialized")
    }

    /// Fault-in a zeroed page for `(pid, vpn)`.
    fn fault_in(&mut self, pid: GlobalPid, vpn: u64, cost: &mut OpCost) -> DmResult<PageIdx> {
        let p = self.take_free_page()?;
        self.page_mut(p).fill(0);
        self.translator.insert(pid, vpn, p);
        cost.pages_faulted += 1;
        Ok(p)
    }

    /// Write `data` at `(pid, va)`, faulting pages in and performing
    /// copy-on-write on shared pages (paper §V-A2 "How to serve a write
    /// request").
    pub fn write(&mut self, pid: GlobalPid, va: u64, data: &[u8]) -> DmResult<OpCost> {
        if data.is_empty() {
            return Ok(OpCost::default());
        }
        let (start, rlen) = self.tree(pid)?.lookup(va)?;
        if va + data.len() as u64 > start + rlen {
            return Err(DmError::OutOfBounds);
        }
        let mut cost = OpCost::default();
        let mut off = 0usize;
        while off < data.len() {
            let cur = va + off as u64;
            let vpn = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let p = match self.translator.lookup(pid, vpn) {
                None => self.fault_in(pid, vpn, &mut cost)?,
                Some(p) if self.refcounts[p as usize] > 1 => {
                    // Copy-on-write: pop a new page, copy the old content,
                    // retarget the translation, unref the old page.
                    let newp = self.take_free_page()?;
                    let (old_page, new_page) = two_pages(&mut self.pages, p, newp);
                    new_page.copy_from_slice(old_page);
                    cost.bytes_copied += PAGE_SIZE as u64;
                    cost.pages_faulted += 1;
                    self.translator.insert(pid, vpn, newp);
                    self.unref(p);
                    cost.refcount_updates += 1;
                    newp
                }
                Some(p) => p,
            };
            self.page_mut(p)[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
        Ok(cost)
    }

    /// Read `len` bytes at `(pid, va)`. Unmapped pages read as zeros
    /// (anonymous-memory semantics). Reads never check refcounts (paper
    /// §V-A2 "How to serve a read request").
    pub fn read(&mut self, pid: GlobalPid, va: u64, len: u64) -> DmResult<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (start, rlen) = self.tree(pid)?.lookup(va)?;
        if va + len > start + rlen {
            return Err(DmError::OutOfBounds);
        }
        let mut out = vec![0u8; len as usize];
        let mut off = 0usize;
        while off < len as usize {
            let cur = va + off as u64;
            let vpn = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(len as usize - off);
            if let Some(p) = self.translator.lookup(pid, vpn) {
                out[off..off + n].copy_from_slice(&self.page(p)[in_page..in_page + n]);
            }
            off += n;
        }
        Ok(out)
    }

    /// Create a shareable reference over `[va, va+len)` (paper §V-A1
    /// `create_ref`). In COW mode this bumps each page's refcount; in the
    /// `-copy` ablation it copies the whole region into fresh pages.
    ///
    /// Returns `(key, cost)`.
    pub fn create_ref(&mut self, pid: GlobalPid, va: u64, len: u64) -> DmResult<(u64, OpCost)> {
        if len == 0 || !va.is_multiple_of(PAGE_SIZE as u64) {
            return Err(DmError::InvalidAddress);
        }
        let (start, rlen) = self.tree(pid)?.lookup(va)?;
        if va + len > start + rlen {
            return Err(DmError::OutOfBounds);
        }
        let mut cost = OpCost::default();
        let n_pages = len.div_ceil(PAGE_SIZE as u64);
        let mut pages = Vec::with_capacity(n_pages as usize);
        for i in 0..n_pages {
            let vpn = va / PAGE_SIZE as u64 + i;
            // A ref must point at concrete pages; fault in still-virgin ones.
            let p = match self.translator.lookup(pid, vpn) {
                Some(p) => p,
                None => self.fault_in(pid, vpn, &mut cost)?,
            };
            pages.push(p);
        }
        let shared = match self.copy_mode {
            CopyMode::CopyOnWrite => {
                for &p in &pages {
                    self.refcounts[p as usize] += 1;
                    cost.refcount_updates += 1;
                }
                pages
            }
            CopyMode::Eager => {
                let mut copies = Vec::with_capacity(pages.len());
                for &p in &pages {
                    let newp = self.take_free_page()?;
                    let (src, dst) = two_pages(&mut self.pages, p, newp);
                    dst.copy_from_slice(src);
                    cost.bytes_copied += PAGE_SIZE as u64;
                    cost.pages_faulted += 1;
                    copies.push(newp);
                }
                copies
            }
        };
        let key = self.next_key;
        self.next_key += 1;
        self.refs.insert(
            key,
            RefEntry {
                pages: shared,
                len,
                owner: Some(pid.0),
            },
        );
        Ok((key, cost))
    }

    /// Map a reference into `pid`'s address space (paper §V-A1 `map_ref`).
    /// Returns `(va, len, cost)`.
    pub fn map_ref(&mut self, pid: GlobalPid, key: u64) -> DmResult<(u64, u64, OpCost)> {
        let (pages, len) = {
            let e = self.refs.get(&key).ok_or(DmError::InvalidRef)?;
            (e.pages.clone(), e.len)
        };
        let va = self.tree(pid)?.alloc(len, PAGE_SIZE as u64)?;
        let mut cost = OpCost::default();
        for (i, &p) in pages.iter().enumerate() {
            self.translator
                .insert(pid, va / PAGE_SIZE as u64 + i as u64, p);
            self.refcounts[p as usize] += 1;
            cost.refcount_updates += 1;
        }
        Ok((va, len, cost))
    }

    /// Drop a reference, unpinning its pages (extension to the paper's API:
    /// the `Ref` itself holds one refcount per page, which must eventually
    /// be released — see DESIGN.md §6).
    pub fn release_ref(&mut self, key: u64) -> DmResult<OpCost> {
        let e = self.refs.remove(&key).ok_or(DmError::InvalidRef)?;
        let mut cost = OpCost::default();
        for p in e.pages {
            self.unref(p);
            cost.refcount_updates += 1;
        }
        Ok(cost)
    }

    /// One-shot publish: write `data` into fresh pages owned directly by a
    /// new reference (no creator VA mapping at all — the `PUT_REF` fast
    /// path). `owner` attributes the ref for lease-based reclamation.
    /// Returns `(key, cost)`.
    pub fn put_ref(&mut self, data: &[u8], owner: Option<GlobalPid>) -> DmResult<(u64, OpCost)> {
        if data.is_empty() {
            return Err(DmError::InvalidAddress);
        }
        let n_pages = (data.len() as u64).div_ceil(PAGE_SIZE as u64) as usize;
        let mut cost = OpCost::default();
        let mut pages = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let p = self.take_free_page()?;
            cost.pages_faulted += 1;
            let lo = i * PAGE_SIZE;
            let hi = ((i + 1) * PAGE_SIZE).min(data.len());
            let page = self.page_mut(p);
            page[..hi - lo].copy_from_slice(&data[lo..hi]);
            if hi - lo < PAGE_SIZE {
                page[hi - lo..].fill(0);
            }
            pages.push(p);
        }
        let key = self.next_key;
        self.next_key += 1;
        self.refs.insert(
            key,
            RefEntry {
                pages,
                len: data.len() as u64,
                owner: owner.map(|p| p.0),
            },
        );
        Ok((key, cost))
    }

    /// Read `len` bytes at `off` within a reference's pages, without
    /// installing a mapping (the `READ_REF` fast path).
    pub fn read_ref(&mut self, key: u64, off: u64, len: u64) -> DmResult<Vec<u8>> {
        let (pages, rlen) = {
            let e = self.refs.get(&key).ok_or(DmError::InvalidRef)?;
            (e.pages.clone(), e.len)
        };
        if off + len > rlen {
            return Err(DmError::OutOfBounds);
        }
        let mut out = vec![0u8; len as usize];
        let mut done = 0usize;
        while done < len as usize {
            let cur = off + done as u64;
            let pi = (cur / PAGE_SIZE as u64) as usize;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(len as usize - done);
            let p = pages[pi];
            out[done..done + n].copy_from_slice(&self.page(p)[in_page..in_page + n]);
            done += n;
        }
        Ok(out)
    }

    /// Reclaim everything a (crashed) process pinned: every translation of
    /// `pid` is removed and its page unreferenced, every ref the process
    /// created and never handed off is released, and the VA tree is
    /// discarded. This is the lease-expiry path — the server calls it when
    /// a client stops renewing — and it must restore refcount conservation
    /// exactly as if the process had politely `rfree`d and `release_ref`d
    /// everything.
    pub fn release_process(&mut self, pid: GlobalPid) -> DmResult<OpCost> {
        if self.processes.remove(&pid.0).is_none() {
            return Err(DmError::InvalidAddress);
        }
        let mut cost = OpCost::default();
        // Drop the process's mappings (the fallback when the VaTree is gone:
        // enumerate the translation table rather than walking regions).
        // Sorted: pages drain into the free FIFO in an order determined by
        // logical state alone, so WAL replay of a `ReleaseProcess` record
        // reproduces the live FIFO exactly (hash-map iteration order is
        // per-instance and would diverge between live and recovered PMs).
        let mut vpns: Vec<u64> = self
            .translator
            .iter()
            .filter(|&((p, _), _)| p == pid.0)
            .map(|((_, vpn), _)| vpn)
            .collect();
        vpns.sort_unstable();
        for vpn in vpns {
            if let Some(p) = self.translator.remove(pid, vpn) {
                self.unref(p);
                cost.refcount_updates += 1;
            }
        }
        // Release refs it created that nobody consumed yet (sorted for the
        // same replay-determinism reason as the mappings above).
        let mut keys: Vec<u64> = self
            .refs
            .iter()
            .filter(|(_, e)| e.owner == Some(pid.0))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        for key in keys {
            cost.add(self.release_ref(key)?);
        }
        Ok(cost)
    }

    /// Length of the region a ref covers.
    pub fn ref_len(&self, key: u64) -> DmResult<u64> {
        self.refs
            .get(&key)
            .map(|e| e.len)
            .ok_or(DmError::InvalidRef)
    }

    /// PID a ref is attributed to for lease reclamation (`None` for
    /// unowned refs). Migration forwards the attribution to the target
    /// server.
    pub fn ref_owner(&self, key: u64) -> DmResult<Option<GlobalPid>> {
        self.refs
            .get(&key)
            .map(|e| e.owner.map(GlobalPid))
            .ok_or(DmError::InvalidRef)
    }

    /// Keys of every live ref attributed to `pid`, sorted (the coherence
    /// plane enumerates a dying process's refs for targeted invalidation
    /// and needs a deterministic order).
    pub fn keys_owned_by(&self, pid: GlobalPid) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .refs
            .iter()
            .filter(|&(_, e)| e.owner == Some(pid.0))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Verify internal invariants; panics with a description on violation.
    /// Used by unit and property tests.
    pub fn check_invariants(&self) {
        let cap = self.pages.len();
        // 1. Free pages have rc == 0 and appear exactly once in the FIFO.
        let mut seen = vec![false; cap];
        for &p in &self.free {
            assert!(!seen[p as usize], "page {p} twice in free FIFO");
            seen[p as usize] = true;
            assert_eq!(self.refcounts[p as usize], 0, "free page {p} has rc != 0");
        }
        // 2. Non-free pages have rc > 0.
        for (p, &rc) in self.refcounts.iter().enumerate() {
            if !seen[p] {
                assert!(rc > 0, "lost page {p}: rc == 0 but not in free FIFO");
            }
        }
        // 3. Refcount conservation: rc(p) == #translations(p) + #refs(p).
        let mut expected = vec![0u32; cap];
        for (_, p) in self.translator.iter() {
            expected[p as usize] += 1;
        }
        for e in self.refs.values() {
            for &p in &e.pages {
                expected[p as usize] += 1;
            }
        }
        for (p, (&rc, &exp)) in self.refcounts.iter().zip(&expected).enumerate() {
            assert_eq!(rc, exp, "page {p}: rc {rc} != mappings+refs {exp}");
        }
    }

    /// Append a canonical snapshot of the full state to `out` (the durable
    /// tier's checkpoint payload, DESIGN.md §12). Canonical means two
    /// managers with equal logical state produce identical bytes: hash-map
    /// backed collections are emitted in sorted order, while the free FIFO
    /// is emitted in queue order because its order *is* logical state
    /// (future allocations pop from the front). The translator's
    /// lookup/miss statistics are volatile and excluded.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        out.push(match self.copy_mode {
            CopyMode::CopyOnWrite => 0,
            CopyMode::Eager => 1,
        });
        out.extend_from_slice(&self.next_pid.to_le_bytes());
        out.extend_from_slice(&self.next_key.to_le_bytes());
        out.extend_from_slice(&(self.free.len() as u32).to_le_bytes());
        for &p in &self.free {
            out.extend_from_slice(&p.to_le_bytes());
        }
        let used: Vec<u32> = (0..self.pages.len() as u32)
            .filter(|&p| self.refcounts[p as usize] > 0)
            .collect();
        out.extend_from_slice(&(used.len() as u32).to_le_bytes());
        for p in used {
            out.extend_from_slice(&p.to_le_bytes());
            out.extend_from_slice(&self.refcounts[p as usize].to_le_bytes());
            out.extend_from_slice(self.page(p));
        }
        let mut pids: Vec<u32> = self.processes.keys().copied().collect();
        pids.sort_unstable();
        out.extend_from_slice(&(pids.len() as u32).to_le_bytes());
        for pid in pids {
            let tree = &self.processes[&pid];
            out.extend_from_slice(&pid.to_le_bytes());
            out.extend_from_slice(&(tree.len() as u32).to_le_bytes());
            for (start, len) in tree.iter() {
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
        let mut xlations: Vec<((u32, u64), PageIdx)> = self.translator.iter().collect();
        xlations.sort_unstable_by_key(|&(k, _)| k);
        out.extend_from_slice(&(xlations.len() as u32).to_le_bytes());
        for ((pid, vpn), p) in xlations {
            out.extend_from_slice(&pid.to_le_bytes());
            out.extend_from_slice(&vpn.to_le_bytes());
            out.extend_from_slice(&p.to_le_bytes());
        }
        let mut keys: Vec<u64> = self.refs.keys().copied().collect();
        keys.sort_unstable();
        out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for key in keys {
            let e = &self.refs[&key];
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.push(e.owner.is_some() as u8);
            out.extend_from_slice(&e.owner.unwrap_or(0).to_le_bytes());
            out.extend_from_slice(&(e.pages.len() as u32).to_le_bytes());
            for &p in &e.pages {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
    }

    /// Canonical snapshot as a fresh buffer (see [`Self::snapshot_into`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Rebuild a manager from a snapshot produced by
    /// [`Self::snapshot_into`] starting at `buf[*pos]` (a server
    /// checkpoint puts its own tables first), advancing `pos` past the
    /// consumed bytes. `None` on any malformed input.
    pub fn restore_from(buf: &[u8], pos: &mut usize) -> Option<PageManager> {
        let mut c = Cursor { buf, pos: *pos };
        let capacity = c.u32()? as usize;
        // Every page is listed once, as a free-FIFO entry or a used page,
        // each at least 4 bytes: a larger capacity is corrupt, and must be
        // refused before it sizes the page tables.
        if capacity > c.remaining() / 4 {
            return None;
        }
        let copy_mode = match c.u8()? {
            0 => CopyMode::CopyOnWrite,
            1 => CopyMode::Eager,
            _ => return None,
        };
        let mut pm = PageManager::new(capacity, copy_mode);
        pm.next_pid = c.u32()?;
        pm.next_key = c.u64()?;
        pm.free.clear();
        for _ in 0..c.u32()? {
            let p = c.u32()?;
            if p as usize >= capacity {
                return None;
            }
            pm.free.push_back(p);
        }
        for _ in 0..c.u32()? {
            let p = c.u32()? as usize;
            if p >= capacity {
                return None;
            }
            pm.refcounts[p] = c.u32()?;
            pm.pages[p] = Some(c.take(PAGE_SIZE)?.to_vec().into_boxed_slice());
        }
        for _ in 0..c.u32()? {
            let pid = c.u32()?;
            let mut tree = VaTree::new();
            for _ in 0..c.u32()? {
                let start = c.u64()?;
                let len = c.u64()?;
                tree.restore_range(start, len);
            }
            pm.processes.insert(pid, tree);
        }
        for _ in 0..c.u32()? {
            let pid = c.u32()?;
            let vpn = c.u64()?;
            let p = c.u32()?;
            pm.translator.insert(GlobalPid(pid), vpn, p);
        }
        for _ in 0..c.u32()? {
            let key = c.u64()?;
            let len = c.u64()?;
            let has_owner = c.u8()? != 0;
            let owner = c.u32()?;
            let npages = c.u32()? as usize;
            if npages > c.remaining() / 4 {
                return None;
            }
            let mut pages = Vec::with_capacity(npages);
            for _ in 0..npages {
                pages.push(c.u32()?);
            }
            pm.refs.insert(
                key,
                RefEntry {
                    pages,
                    len,
                    owner: has_owner.then_some(owner),
                },
            );
        }
        *pos = c.pos;
        Some(pm)
    }

    /// FNV-1a digest of the canonical snapshot — equal digests mean equal
    /// logical state (recovery oracles compare recovered vs shadow).
    pub fn state_digest(&self) -> u64 {
        crate::wal::fnv1a(&self.snapshot())
    }
}

/// Split-borrow two distinct (materialized) pages as (src, dst).
fn two_pages(pages: &mut [Option<Box<[u8]>>], src: PageIdx, dst: PageIdx) -> (&[u8], &mut [u8]) {
    assert_ne!(src, dst);
    let (a, b) = (src as usize, dst as usize);
    if a < b {
        let (lo, hi) = pages.split_at_mut(b);
        (
            lo[a].as_deref().expect("page materialized"),
            hi[0].as_deref_mut().expect("page materialized"),
        )
    } else {
        let (lo, hi) = pages.split_at_mut(a);
        (
            hi[0].as_deref().expect("page materialized"),
            lo[b].as_deref_mut().expect("page materialized"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: u64 = PAGE_SIZE as u64;

    fn pm() -> (PageManager, GlobalPid) {
        let mut pm = PageManager::new(64, CopyMode::CopyOnWrite);
        let pid = pm.register_process();
        (pm, pid)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        let data: Vec<u8> = (0..3 * PS).map(|i| (i % 255) as u8).collect();
        pm.write(pid, va, &data).unwrap();
        assert_eq!(pm.read(pid, va, 3 * PS).unwrap(), data);
        // Sub-range, unaligned.
        assert_eq!(pm.read(pid, va + 100, 50).unwrap(), &data[100..150]);
        pm.check_invariants();
    }

    #[test]
    fn lazy_mapping_on_first_write() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        let va = pm.ralloc(pid, 4 * PS).unwrap();
        assert_eq!(pm.free_pages(), free0, "ralloc maps nothing");
        // Reading an unmapped region returns zeros without faulting.
        assert_eq!(pm.read(pid, va, 10).unwrap(), vec![0; 10]);
        assert_eq!(pm.free_pages(), free0);
        // First write faults exactly the touched pages.
        let cost = pm.write(pid, va + PS, &[1, 2, 3]).unwrap();
        assert_eq!(cost.pages_faulted, 1);
        assert_eq!(pm.free_pages(), free0 - 1);
        pm.check_invariants();
    }

    #[test]
    fn rfree_returns_pages() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        pm.write(pid, va, &vec![9u8; 2 * PAGE_SIZE]).unwrap();
        assert_eq!(pm.free_pages(), free0 - 2);
        pm.rfree(pid, va).unwrap();
        assert_eq!(pm.free_pages(), free0);
        assert!(pm.read(pid, va, 1).is_err(), "region gone");
        pm.check_invariants();
    }

    #[test]
    fn create_ref_shares_pages_cow_on_writer() {
        let (mut pm, pid) = pm();
        let writer = pm.register_process();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        let original: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 13) as u8).collect();
        pm.write(pid, va, &original).unwrap();

        let (key, cost) = pm.create_ref(pid, va, 2 * PS).unwrap();
        assert_eq!(cost.bytes_copied, 0, "COW create_ref copies nothing");

        let (wva, wlen, _) = pm.map_ref(writer, key).unwrap();
        assert_eq!(wlen, 2 * PS);
        // Reader sees the creator's bytes without any copy.
        assert_eq!(pm.read(writer, wva, 2 * PS).unwrap(), original);

        // Writer writes one byte into page 0: COW copies exactly one page.
        let wcost = pm.write(writer, wva + 5, &[0xFF]).unwrap();
        assert_eq!(wcost.bytes_copied, PS);
        // Writer sees its own write...
        assert_eq!(pm.read(writer, wva + 5, 1).unwrap(), vec![0xFF]);
        // ...creator still sees the original (isolation).
        assert_eq!(pm.read(pid, va, 2 * PS).unwrap(), original);
        // Page 1 is still physically shared: another writer write to page 1
        // COWs again, page 0 write by the same writer now does not.
        let wcost2 = pm.write(writer, wva + 6, &[0xEE]).unwrap();
        assert_eq!(wcost2.bytes_copied, 0, "already-private page");
        pm.check_invariants();
    }

    #[test]
    fn creator_write_after_create_ref_is_isolated() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, va, b"before").unwrap();
        let (key, _) = pm.create_ref(pid, va, PS).unwrap();
        // Creator's own write must also COW (the ref pinned the old page).
        let cost = pm.write(pid, va, b"after!").unwrap();
        assert_eq!(cost.bytes_copied, PS);
        let reader = pm.register_process();
        let (rva, _, _) = pm.map_ref(reader, key).unwrap();
        assert_eq!(&pm.read(reader, rva, 6).unwrap(), b"before");
        assert_eq!(&pm.read(pid, va, 6).unwrap(), b"after!");
        pm.check_invariants();
    }

    #[test]
    fn ref_survives_creator_rfree() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, va, b"persist").unwrap();
        let (key, _) = pm.create_ref(pid, va, PS).unwrap();
        pm.rfree(pid, va).unwrap();
        let reader = pm.register_process();
        let (rva, _, _) = pm.map_ref(reader, key).unwrap();
        assert_eq!(&pm.read(reader, rva, 7).unwrap(), b"persist");
        pm.check_invariants();
    }

    #[test]
    fn release_ref_frees_pages_when_last() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        pm.write(pid, va, &vec![1u8; 2 * PAGE_SIZE]).unwrap();
        let (key, _) = pm.create_ref(pid, va, 2 * PS).unwrap();
        pm.rfree(pid, va).unwrap();
        assert_eq!(pm.free_pages(), free0 - 2, "ref still pins pages");
        pm.release_ref(key).unwrap();
        assert_eq!(pm.free_pages(), free0, "all pages reclaimed");
        assert!(pm.release_ref(key).is_err(), "double release rejected");
        pm.check_invariants();
    }

    #[test]
    fn eager_copy_mode_copies_at_create_ref() {
        let mut pm = PageManager::new(64, CopyMode::Eager);
        let pid = pm.register_process();
        let va = pm.ralloc(pid, 4 * PS).unwrap();
        pm.write(pid, va, &vec![7u8; 4 * PAGE_SIZE]).unwrap();
        let (key, cost) = pm.create_ref(pid, va, 4 * PS).unwrap();
        assert_eq!(
            cost.bytes_copied,
            4 * PS,
            "-copy ablation copies everything"
        );
        // Creator's subsequent writes need no COW: pages are private again.
        let wcost = pm.write(pid, va, &[0u8; 8]).unwrap();
        assert_eq!(wcost.bytes_copied, 0);
        let reader = pm.register_process();
        let (rva, _, _) = pm.map_ref(reader, key).unwrap();
        assert_eq!(pm.read(reader, rva, 8).unwrap(), vec![7u8; 8]);
        pm.check_invariants();
    }

    #[test]
    fn out_of_memory_reported() {
        let mut pm = PageManager::new(2, CopyMode::CopyOnWrite);
        let pid = pm.register_process();
        let va = pm.ralloc(pid, 3 * PS).unwrap(); // VA ok, pages lazy
        let r = pm.write(pid, va, &vec![1u8; 3 * PAGE_SIZE]);
        assert_eq!(r.unwrap_err(), DmError::OutOfMemory);
    }

    #[test]
    fn bounds_checked() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        assert_eq!(
            pm.write(pid, va + PS - 1, &[1, 2]).unwrap_err(),
            DmError::OutOfBounds
        );
        assert_eq!(pm.read(pid, va, PS + 1).unwrap_err(), DmError::OutOfBounds);
        assert!(pm.read(pid, va + 7, 0).is_ok());
    }

    #[test]
    fn map_ref_unknown_key_rejected() {
        let (mut pm, pid) = pm();
        assert_eq!(pm.map_ref(pid, 999).unwrap_err(), DmError::InvalidRef);
    }

    #[test]
    fn multiple_mappers_share_then_diverge() {
        let (mut pm, creator) = pm();
        let a = pm.register_process();
        let b = pm.register_process();
        let va = pm.ralloc(creator, PS).unwrap();
        pm.write(creator, va, b"shared").unwrap();
        let (key, _) = pm.create_ref(creator, va, PS).unwrap();
        let (ava, _, _) = pm.map_ref(a, key).unwrap();
        let (bva, _, _) = pm.map_ref(b, key).unwrap();
        pm.write(a, ava, b"AAAAAA").unwrap();
        pm.write(b, bva, b"BBBBBB").unwrap();
        assert_eq!(&pm.read(creator, va, 6).unwrap(), b"shared");
        assert_eq!(&pm.read(a, ava, 6).unwrap(), b"AAAAAA");
        assert_eq!(&pm.read(b, bva, 6).unwrap(), b"BBBBBB");
        pm.check_invariants();
    }

    #[test]
    fn release_process_reclaims_all_pins() {
        let (mut pm, pid) = pm();
        let free0 = pm.free_pages();
        // Mappings + an unconsumed ref + a put_ref, all owned by `pid`.
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        pm.write(pid, va, &vec![5u8; 3 * PAGE_SIZE]).unwrap();
        pm.create_ref(pid, va, 2 * PS).unwrap();
        pm.put_ref(&[1u8; 100], Some(pid)).unwrap();
        assert!(pm.free_pages() < free0);
        pm.release_process(pid).unwrap();
        assert_eq!(pm.free_pages(), free0, "all pins reclaimed");
        assert!(pm.ralloc(pid, PS).is_err(), "process is gone");
        assert!(
            pm.release_process(pid).is_err(),
            "double release is rejected"
        );
        pm.check_invariants();
    }

    #[test]
    fn release_process_keeps_other_processes_pins() {
        let (mut pm, crasher) = pm();
        let survivor = pm.register_process();
        let va = pm.ralloc(crasher, PS).unwrap();
        pm.write(crasher, va, b"handoff").unwrap();
        let (key, _) = pm.create_ref(crasher, va, PS).unwrap();
        // Survivor maps the ref (its own pin) before the crasher dies.
        let (sva, _, _) = pm.map_ref(survivor, key).unwrap();
        pm.release_process(crasher).unwrap();
        // The survivor's mapping keeps the page alive and readable.
        assert_eq!(&pm.read(survivor, sva, 7).unwrap(), b"handoff");
        // The crasher's own ref pin is gone.
        assert_eq!(pm.release_ref(key).unwrap_err(), DmError::InvalidRef);
        pm.check_invariants();
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_everything() {
        let (mut pm, pid) = pm();
        let mapper = pm.register_process();
        let va = pm.ralloc(pid, 3 * PS).unwrap();
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        pm.write(pid, va, &data).unwrap();
        let (key, _) = pm.create_ref(pid, va, 2 * PS).unwrap();
        let (mva, _, _) = pm.map_ref(mapper, key).unwrap();
        pm.write(mapper, mva, b"cow!").unwrap(); // diverge one page
        pm.put_ref(&[7u8; 100], Some(mapper)).unwrap();

        let snap = pm.snapshot();
        let mut pos = 0;
        let mut back = PageManager::restore_from(&snap, &mut pos).unwrap();
        assert_eq!(pos, snap.len(), "restore consumes the whole snapshot");
        back.check_invariants();
        assert_eq!(back.state_digest(), pm.state_digest());
        // Logical state identical: reads, free count, and future behavior.
        assert_eq!(back.read(pid, va, 3 * PS).unwrap(), data);
        assert_eq!(&back.read(mapper, mva, 4).unwrap(), b"cow!");
        assert_eq!(back.free_pages(), pm.free_pages());
        assert_eq!(
            back.register_process().0,
            pm.register_process().0,
            "next_pid restored"
        );
        // Free-FIFO order restored: identical allocation sequence.
        let (ka, _) = back.put_ref(&[1], None).unwrap();
        let (kb, _) = pm.put_ref(&[1], None).unwrap();
        assert_eq!(ka, kb, "next_key restored");
        assert_eq!(back.state_digest(), pm.state_digest());
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, PS).unwrap();
        pm.write(pid, va, b"x").unwrap();
        let snap = pm.snapshot();
        // Truncations at every boundary fail cleanly.
        for cut in [0, 1, 4, snap.len() / 2, snap.len() - 1] {
            let mut pos = 0;
            assert!(
                PageManager::restore_from(&snap[..cut], &mut pos).is_none(),
                "truncation at {cut} must fail"
            );
        }
        // Out-of-range page index fails.
        let mut bad = snap.clone();
        bad[0] = 1; // capacity 1 page, but indices reference more
        bad[1] = 0;
        bad[2] = 0;
        bad[3] = 0;
        let mut pos = 0;
        assert!(PageManager::restore_from(&bad, &mut pos).is_none());
        // A capacity the snapshot cannot list fails before it sizes the
        // page tables.
        let mut huge = snap.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(PageManager::restore_from(&huge, &mut pos).is_none());
    }

    #[test]
    fn unaligned_create_ref_rejected() {
        let (mut pm, pid) = pm();
        let va = pm.ralloc(pid, 2 * PS).unwrap();
        assert_eq!(
            pm.create_ref(pid, va + 1, PS).unwrap_err(),
            DmError::InvalidAddress
        );
        assert_eq!(
            pm.create_ref(pid, va, 0).unwrap_err(),
            DmError::InvalidAddress
        );
    }
}
