//! # netsim — the cluster interconnect model
//!
//! HAL (the paper's testbed, Table II) connects 16 nodes with **bonded
//! dual Gigabit Ethernet**: 2 Gbit/s per direction per node, full duplex,
//! through a non-blocking switch. The model therefore places contention at
//! the end hosts: every node owns a transmit resource and a receive
//! resource, and a message charges
//!
//! 1. the sender's TX queue for `bytes / tx_bandwidth`,
//! 2. a propagation + protocol latency,
//! 3. the receiver's RX queue for `bytes / rx_bandwidth`.
//!
//! Intra-node "messages" (rank to rank on one host) bypass the NIC and
//! cost one memcpy at DRAM speed, which the caller charges separately.

use obs::{Layer, TraceRecorder};
use simcore::{Bandwidth, Counter, Resource, StatsRegistry, VTime};

/// Messages at or below this size are *control traffic*: they are
/// charged serialization + latency but do not occupy the NIC queues.
/// A 256-byte RPC cannot meaningfully contend with bulk flows on a
/// GigE link, and modelling it as a queue occupant would let tiny
/// out-of-order metadata messages inflate the FIFO's `next_free`
/// unboundedly (the single-register resource cannot backfill gaps).
pub const CTRL_THRESHOLD: u64 = 4096;

// Model constants rather than configuration: no cluster in the workspace
// needs a second value, and no fault changes them (a partitioned node is,
// to the store, a crashed benefactor whose media are intact).

/// Per-direction bandwidth of one node's NIC bond: bonded dual GigE,
/// 2 Gbit/s = 250 MB/s each way.
pub const LINK_BW: Bandwidth = Bandwidth::const_mb(250.0);
/// One-way message latency (propagation + stack): ~50 µs is typical for
/// the era's TCP-over-GigE stacks.
pub const LATENCY: VTime = VTime::from_micros(50);

/// The ends of one node's network attachment.
#[derive(Clone, Debug)]
struct Nic {
    tx: Resource,
    rx: Resource,
}

/// Result of a simulated message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// When the sender's NIC finished serializing the message (the sender
    /// can proceed at this time for asynchronous sends).
    pub sent: VTime,
    /// When the last byte reached the receiver.
    pub arrived: VTime,
}

/// The whole fabric: one NIC pair per node.
#[derive(Clone, Debug)]
pub struct Network {
    nics: Vec<Nic>,
    bytes: Counter,
    messages: Counter,
    trace: TraceRecorder,
}

impl Network {
    pub fn new(nodes: usize, stats: &StatsRegistry) -> Self {
        Network {
            nics: (0..nodes)
                .map(|i| Nic {
                    tx: Resource::new(format!("net.n{i}.tx")),
                    rx: Resource::new(format!("net.n{i}.rx")),
                })
                .collect(),
            bytes: stats.counter("net.bytes"),
            messages: stats.counter("net.messages"),
            trace: TraceRecorder::disabled(),
        }
    }

    /// Attach a trace recorder (builder style; clones share it). Every
    /// inter-node transfer becomes a `net.transfer` span.
    pub fn with_tracer(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// Deliver `bytes` from node `from` to node `to`, requested at `t`.
    ///
    /// Intra-node delivery is free here (the caller charges a DRAM copy).
    pub fn transfer_at(&self, t: VTime, from: usize, to: usize, bytes: u64) -> Delivery {
        if from == to {
            return Delivery {
                sent: t,
                arrived: t,
            };
        }
        self.bytes.add(bytes);
        self.messages.inc();
        let sp = self.trace.span(Layer::Net, "net.transfer", t);
        sp.arg("from", from as u64)
            .arg("to", to as u64)
            .arg("bytes", bytes);
        let d = if bytes <= CTRL_THRESHOLD {
            let ser = LINK_BW.time_for(bytes);
            Delivery {
                sent: t + ser,
                arrived: t + ser + LATENCY,
            }
        } else {
            let tx = self.nics[from]
                .tx
                .transfer_at(t, bytes, LINK_BW, VTime::ZERO);
            // Cut-through delivery: the receive side starts draining as soon
            // as the first bytes arrive; at equal rates the RX busy period
            // equals the TX one shifted by the latency, and queues if the RX
            // NIC is still busy with an earlier message.
            let rx = self.nics[to].rx.acquire_at(
                tx.start + LATENCY,
                tx.end - tx.start, // same serialization time at equal link rates
            );
            Delivery {
                sent: tx.end,
                arrived: rx.end,
            }
        };
        sp.finish(d.arrived);
        d
    }

    /// Charge `node`'s receive direction directly (traffic from outside
    /// the modelled fabric, e.g. the PFS service network).
    pub fn rx_at(&self, t: VTime, node: usize, bytes: u64) -> simcore::Grant {
        self.nics[node].rx.transfer_at(t, bytes, LINK_BW, LATENCY)
    }

    /// Charge `node`'s transmit direction directly.
    pub fn tx_at(&self, t: VTime, node: usize, bytes: u64) -> simcore::Grant {
        self.nics[node].tx.transfer_at(t, bytes, LINK_BW, LATENCY)
    }

    /// Transmit backlog on `node`'s NIC at `now`: how far into the
    /// virtual future the tx FIFO is already committed. Zero when idle.
    /// A gauge probe for the metrics sampler — cheap, and safe from inside
    /// a store operation (the NIC resource's state is borrowed only for
    /// the length of one charge).
    pub fn nic_tx_backlog(&self, node: usize, now: VTime) -> VTime {
        self.nics[node].tx.next_free().saturating_sub(now)
    }

    /// Busy time accumulated on a node's (tx, rx) NIC directions — for
    /// utilization reports and bottleneck hunting.
    pub fn nic_busy(&self, node: usize) -> (VTime, VTime) {
        (
            self.nics[node].tx.busy_total(),
            self.nics[node].rx.busy_total(),
        )
    }

    /// Total payload bytes moved over the fabric.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes.get()
    }

    /// Total messages delivered.
    pub fn messages_sent(&self) -> u64 {
        self.messages.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(n, &StatsRegistry::new())
    }

    #[test]
    fn point_to_point_cost() {
        let net = net(2);
        // 250 MB over a 250 MB/s link: 1 s serialize + 50 us latency.
        let d = net.transfer_at(VTime::ZERO, 0, 1, 250_000_000);
        assert_eq!(d.sent, VTime::from_secs(1));
        assert_eq!(d.arrived, VTime::from_secs(1) + VTime::from_micros(50));
    }

    #[test]
    fn loopback_is_free() {
        let net = net(2);
        let d = net.transfer_at(VTime::from_secs(3), 1, 1, 1 << 30);
        assert_eq!(d.sent, VTime::from_secs(3));
        assert_eq!(d.arrived, VTime::from_secs(3));
        assert_eq!(net.bytes_moved(), 0);
    }

    #[test]
    fn sender_tx_serializes_two_messages() {
        let net = net(3);
        let d1 = net.transfer_at(VTime::ZERO, 0, 1, 250_000_000);
        let d2 = net.transfer_at(VTime::ZERO, 0, 2, 250_000_000);
        // Same TX NIC: second message waits for the first to serialize.
        assert_eq!(d2.sent, d1.sent + VTime::from_secs(1));
    }

    #[test]
    fn receiver_rx_contends() {
        let net = net(3);
        let d1 = net.transfer_at(VTime::ZERO, 0, 2, 250_000_000);
        let d2 = net.transfer_at(VTime::ZERO, 1, 2, 250_000_000);
        // Different senders, same receiver: RX drains them one at a time.
        assert_eq!(d1.arrived, VTime::from_secs(1) + VTime::from_micros(50));
        assert_eq!(d2.arrived, VTime::from_secs(2) + VTime::from_micros(50));
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let net = net(4);
        let d1 = net.transfer_at(VTime::ZERO, 0, 1, 250_000_000);
        let d2 = net.transfer_at(VTime::ZERO, 2, 3, 250_000_000);
        assert_eq!(d1.arrived, d2.arrived, "non-blocking switch");
    }

    #[test]
    fn full_duplex_tx_rx_independent() {
        let net = net(2);
        let d1 = net.transfer_at(VTime::ZERO, 0, 1, 250_000_000);
        let d2 = net.transfer_at(VTime::ZERO, 1, 0, 250_000_000);
        // Opposite directions do not contend.
        assert_eq!(d1.arrived, d2.arrived);
    }

    #[test]
    fn traffic_counters() {
        let net = net(2);
        net.transfer_at(VTime::ZERO, 0, 1, 100);
        net.transfer_at(VTime::ZERO, 0, 1, 200);
        assert_eq!(net.bytes_moved(), 300);
        assert_eq!(net.messages_sent(), 2);
    }
}
