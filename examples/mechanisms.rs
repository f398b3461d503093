//! Tour of the TCP mechanism options: NewReno vs SACK loss recovery,
//! delayed ACKs, and the packet-event trace — on a deterministic
//! injected-loss pattern.
//!
//! Run with `cargo run --example mechanisms --release`.

use tcp_trim::prelude::*;
use tcp_trim::tcp::{Segment, TcpConfig, TcpHost};

fn transfer(cfg: TcpConfig, label: &str) {
    let mut sim: Simulator<Segment> = Simulator::new();
    let mut rx = TcpHost::new();
    rx.add_receiver(FlowId(0), cfg);
    let rx_node = sim.add_host(Box::new(rx));
    let mut tx = TcpHost::new();
    let mut burst_cfg = cfg;
    burst_cfg.init_cwnd = 128.0; // one-burst send: arrival index == seq
    let idx = tx.add_sender(FlowId(0), rx_node, burst_cfg, &CcKind::Reno);
    tx.schedule_train(idx, SimTime::from_secs_f64(0.001), 60 * 1460);
    let tx_node = sim.add_host(Box::new(tx));
    let (data_ch, _) = sim.connect(
        tx_node,
        rx_node,
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(1000),
    );
    // Five scattered losses in one flight.
    sim.inject_channel_drops(data_ch, [6, 11, 16, 21, 26]);
    sim.attach_monitor(Box::new(PacketTrace::new(10_000)));
    sim.run_until(SimTime::from_secs(5));

    let host: &TcpHost = sim.host(tx_node);
    let conn = host.connection(0);
    let stats = conn.stats();
    let ct = conn.completed_trains()[0].completion_time();
    let drops = sim
        .monitor::<PacketTrace>()
        .expect("attached")
        .events()
        .iter()
        .filter(|e| matches!(e.kind, PacketEventKind::Dropped { .. }))
        .count();
    println!(
        "{label:<22} completion {:>9}   rtx {:>2}   fast-rtx {}   RTOs {}   traced drops {}",
        format!("{ct}"),
        stats.rtx_sent,
        stats.fast_retransmits,
        stats.timeouts,
        drops,
    );
}

fn main() {
    println!("60-packet transfer, packets 6/11/16/21/26 lost in one flight\n");
    let base = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    transfer(base, "newreno");
    transfer(base.with_sack(), "sack");
    transfer(
        base.with_sack().with_delayed_ack(Dur::from_millis(40)),
        "sack + delayed acks",
    );
    println!(
        "\nNewReno repairs one hole per round trip; SACK's scoreboard repairs\n\
         exactly the five holes within a single recovery episode. Delayed ACKs\n\
         do not slow recovery because out-of-order data is acked immediately."
    );
}
