//! Network-model behaviour tests: control-message policy, utilization
//! reporting, and direct NIC charging.

use netsim::{Network, CTRL_THRESHOLD, LATENCY, LINK_BW};
use simcore::{StatsRegistry, VTime};

fn net(n: usize) -> Network {
    Network::new(n, &StatsRegistry::new())
}

#[test]
fn control_messages_do_not_occupy_queues() {
    let net = net(2);
    // Saturate node 0's TX with a bulk transfer.
    let bulk = net.transfer_at(VTime::ZERO, 0, 1, 250_000_000); // 1 s
    assert_eq!(bulk.sent, VTime::from_secs(1));
    // A 256-byte RPC issued during the bulk flow is not stuck behind it.
    let rpc = net.transfer_at(VTime::from_millis(1), 0, 1, 256);
    assert!(
        rpc.arrived < VTime::from_millis(2),
        "rpc at {:?}",
        rpc.arrived
    );
    // But a second bulk transfer is.
    let bulk2 = net.transfer_at(VTime::from_millis(1), 0, 1, 250_000_000);
    assert_eq!(bulk2.sent, VTime::from_secs(2));
}

#[test]
fn control_threshold_boundary() {
    let net = net(2);
    net.transfer_at(VTime::ZERO, 0, 1, 250_000_000); // occupy tx
    let at = net.transfer_at(VTime::ZERO, 0, 1, CTRL_THRESHOLD);
    let over = net.transfer_at(VTime::ZERO, 0, 1, CTRL_THRESHOLD + 1);
    assert!(at.arrived < VTime::from_millis(1), "at-threshold bypasses");
    assert!(over.sent >= VTime::from_secs(1), "over-threshold queues");
}

#[test]
fn control_messages_still_pay_latency_and_serialization() {
    let net = net(2);
    let d = net.transfer_at(VTime::ZERO, 0, 1, 256);
    let ser = LINK_BW.time_for(256);
    assert_eq!(d.sent, ser);
    assert_eq!(d.arrived, ser + LATENCY);
}

#[test]
fn nic_busy_reports_utilization() {
    let net = net(3);
    net.transfer_at(VTime::ZERO, 0, 1, 250_000_000);
    net.transfer_at(VTime::ZERO, 2, 1, 250_000_000);
    let (tx0, rx0) = net.nic_busy(0);
    let (tx1, rx1) = net.nic_busy(1);
    assert_eq!(tx0, VTime::from_secs(1));
    assert_eq!(rx0, VTime::ZERO);
    assert_eq!(tx1, VTime::ZERO);
    assert_eq!(rx1, VTime::from_secs(2), "receiver drained both flows");
}

#[test]
fn direct_rx_tx_charging() {
    let net = net(1);
    let g = net.rx_at(VTime::ZERO, 0, 250_000_000);
    assert_eq!(g.end, VTime::from_secs(1) + VTime::from_micros(50));
    let g2 = net.tx_at(VTime::ZERO, 0, 125_000_000);
    assert_eq!(g2.end, VTime::from_millis(500) + VTime::from_micros(50));
    // Same-direction requests queue FIFO.
    let g3 = net.rx_at(VTime::ZERO, 0, 250_000_000);
    assert_eq!(g3.start, g.end);
}

#[test]
fn message_and_byte_counters() {
    let stats = StatsRegistry::new();
    let net = Network::new(2, &stats);
    net.transfer_at(VTime::ZERO, 0, 1, 100);
    net.transfer_at(VTime::ZERO, 1, 0, 1_000_000);
    net.transfer_at(VTime::ZERO, 0, 0, 55); // loopback: not counted
    assert_eq!(net.bytes_moved(), 1_000_100);
    assert_eq!(net.messages_sent(), 2);
    assert_eq!(stats.get("net.bytes"), 1_000_100);
}
