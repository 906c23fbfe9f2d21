//! Per-layer counters read from outside the program: snapshots of the
//! public counters of every layer, taken around the measured window, and
//! the per-layer metrics derived from their deltas.

use std::collections::BTreeMap;
use std::time::Duration;

use apps::cluster::Cluster;
use apps::image_pipeline::IMG_REQ;
use apps::social::SOC_REQ;
use dmnet::proto::req;
use dmrpc::DmHandle;
use simnet::NodeId;

/// Nodes whose CPU utilization is reported (`simcore.cpu_util.<node>`).
pub const CPU_NODES: [&str; 3] = ["sn-b", "transcode", "compress"];
/// Nodes whose NIC transmit utilization is reported
/// (`simnet.nic_tx_util.<node>`).
pub const NIC_NODES: [&str; 4] = ["sn-b", "dm0", "dm1", "caller"];
/// Services whose handler time is reported (`rpclib.handler_us.<name>`):
/// name, node, port and request type.
pub const HANDLERS: [(&str, &str, u16, u8); 3] = [
    ("compose", "sn-b", 101, SOC_REQ),
    ("transcode", "transcode", 100, IMG_REQ),
    ("compress", "compress", 100, IMG_REQ),
];
/// DM wire operations counted per request (`dmnet.wire.<op>_per_req`).
pub const WIRE_OPS: [(&str, u8); 4] = [
    ("read_ref", req::READ_REF),
    ("map_ref", req::MAP_REF),
    ("release_ref", req::RELEASE_REF),
    ("batch", req::BATCH),
];

/// Every counter the benchmark reads, at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Futures polled by the executor.
    pub polls: u64,
    /// CPU busy nanoseconds per compute node.
    pub cpu_busy_ns: BTreeMap<String, u64>,
    /// NIC transmit busy nanoseconds per node.
    pub nic_busy_ns: BTreeMap<String, u64>,
    /// NIC bytes transmitted, all nodes.
    pub tx_bytes: u64,
    /// Datagrams delivered by the fabric.
    pub delivered: u64,
    /// Outgoing RPCs completed, all endpoints.
    pub rpc_calls: u64,
    /// RPC retransmissions, all endpoints.
    pub retransmits: u64,
    /// RPC timeouts, all endpoints.
    pub timeouts: u64,
    /// Client cache hits, all DM clients.
    pub cache_hits: u64,
    /// Client cache misses, all DM clients.
    pub cache_misses: u64,
    /// Control-plane DM wire messages, all clients.
    pub ctrl_msgs: u64,
    /// Data-plane DM wire messages, all clients.
    pub data_msgs: u64,
    /// DM wire messages per op of [`WIRE_OPS`].
    pub wire: [u64; WIRE_OPS.len()],
    /// Requests dispatched by the DM servers.
    pub server_ops: u64,
    /// Memory traffic on the DM servers.
    pub dm_traffic: u64,
    /// Memory traffic on the compute nodes.
    pub node_traffic: u64,
}

impl Counters {
    /// Read every counter of `cluster`; `polls` comes from the executor.
    pub fn read(cluster: &Cluster, polls: u64) -> Counters {
        let net = &cluster.net;
        let mut c = Counters {
            polls,
            delivered: net.delivered(),
            dm_traffic: cluster.dm_traffic_bytes(),
            ..Counters::default()
        };
        for i in 0..net.node_count() {
            let id = NodeId(i as u32);
            c.tx_bytes += net.node_tx_bytes(id);
            c.nic_busy_ns
                .insert(net.node_name(id), net.node_tx_busy(id).as_nanos() as u64);
        }
        for n in cluster.servers() {
            c.cpu_busy_ns
                .insert(net.node_name(n.id), n.cpu.busy_time().as_nanos() as u64);
            c.node_traffic += n.mem.traffic_bytes();
        }
        for ep in cluster.endpoints() {
            let s = ep.rpc().stats();
            c.rpc_calls += s.calls_completed.get();
            c.retransmits += s.retransmits.get();
            c.timeouts += s.timeouts.get();
            if let Some(DmHandle::Net(dm)) = ep.dm() {
                c.cache_hits += dm.cache_stats().hits();
                c.cache_misses += dm.cache_stats().misses();
                let (ctrl, data) = dm.wire_messages();
                c.ctrl_msgs += ctrl;
                c.data_msgs += data;
                for (slot, (_, ty)) in c.wire.iter_mut().zip(WIRE_OPS) {
                    *slot += dm.wire_count(ty);
                }
            }
        }
        c.server_ops = cluster.dm_servers.iter().map(|s| s.ops_served()).sum();
        c
    }

    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let map_delta = |a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>| {
            a.iter()
                .map(|(k, v)| (k.clone(), v - b.get(k).copied().unwrap_or(0)))
                .collect()
        };
        let mut wire = [0; WIRE_OPS.len()];
        for (i, w) in wire.iter_mut().enumerate() {
            *w = self.wire[i] - earlier.wire[i];
        }
        Counters {
            polls: self.polls - earlier.polls,
            cpu_busy_ns: map_delta(&self.cpu_busy_ns, &earlier.cpu_busy_ns),
            nic_busy_ns: map_delta(&self.nic_busy_ns, &earlier.nic_busy_ns),
            tx_bytes: self.tx_bytes - earlier.tx_bytes,
            delivered: self.delivered - earlier.delivered,
            rpc_calls: self.rpc_calls - earlier.rpc_calls,
            retransmits: self.retransmits - earlier.retransmits,
            timeouts: self.timeouts - earlier.timeouts,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            ctrl_msgs: self.ctrl_msgs - earlier.ctrl_msgs,
            data_msgs: self.data_msgs - earlier.data_msgs,
            wire,
            server_ops: self.server_ops - earlier.server_ops,
            dm_traffic: self.dm_traffic - earlier.dm_traffic,
            node_traffic: self.node_traffic - earlier.node_traffic,
        }
    }

    /// Per-layer metrics of a window of length `window` in which
    /// `requests` requests completed. `cores` is the core count of every
    /// compute node. Nodes a workload does not have report 0.
    pub fn per_layer(&self, requests: u64, window: Duration, cores: u64) -> Vec<(String, f64)> {
        let per_req = |v: u64| v as f64 / requests.max(1) as f64;
        let kb_per_req = |v: u64| per_req(v) / 1024.0;
        let win_ns = window.as_nanos() as f64;
        let mut out = vec![("simcore.polls_per_req".to_string(), per_req(self.polls))];
        for n in CPU_NODES {
            let busy = self.cpu_busy_ns.get(n).copied().unwrap_or(0) as f64;
            out.push((
                format!("simcore.cpu_util.{n}"),
                busy / (win_ns * cores as f64),
            ));
        }
        for n in NIC_NODES {
            let busy = self.nic_busy_ns.get(n).copied().unwrap_or(0) as f64;
            out.push((format!("simnet.nic_tx_util.{n}"), busy / win_ns));
        }
        out.push(("simnet.msgs_per_req".into(), per_req(self.delivered)));
        out.push(("simnet.tx_kb_per_req".into(), kb_per_req(self.tx_bytes)));
        out.push(("rpclib.calls_per_req".into(), per_req(self.rpc_calls)));
        out.push(("rpclib.retransmits".into(), self.retransmits as f64));
        out.push(("rpclib.timeouts".into(), self.timeouts as f64));
        let lookups = self.cache_hits + self.cache_misses;
        out.push((
            "dmnet.cache_hit_ratio".into(),
            if lookups == 0 {
                0.0
            } else {
                self.cache_hits as f64 / lookups as f64
            },
        ));
        out.push(("dmnet.ctrl_msgs_per_req".into(), per_req(self.ctrl_msgs)));
        out.push(("dmnet.data_msgs_per_req".into(), per_req(self.data_msgs)));
        for ((name, _), &n) in WIRE_OPS.iter().zip(&self.wire) {
            out.push((format!("dmnet.wire.{name}_per_req"), per_req(n)));
        }
        out.push(("dmnet.server_ops_per_req".into(), per_req(self.server_ops)));
        out.push((
            "memsim.dm_traffic_kb_per_req".into(),
            kb_per_req(self.dm_traffic),
        ));
        out.push((
            "memsim.node_traffic_kb_per_req".into(),
            kb_per_req(self.node_traffic),
        ));
        out
    }
}

/// The handler-time histograms of [`HANDLERS`] present in `cluster`,
/// by service name.
pub fn handler_histograms(cluster: &Cluster) -> Vec<(&'static str, simcore::Histogram)> {
    let mut out = Vec::new();
    for (name, node, port, ty) in HANDLERS {
        for ep in cluster.endpoints() {
            let addr = ep.addr();
            if addr.port == port && cluster.net.node_name(addr.node) == node {
                if let Some(h) = ep.rpc().handler_time(ty) {
                    out.push((name, h));
                }
            }
        }
    }
    out
}
