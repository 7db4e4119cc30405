//! Unit-cost kernels for the layers that have no trait seam to wrap: the
//! event heap, the link, and the SACK scoreboard — plus the two queue
//! disciplines the workloads use, so the span time of `simnet.queue` can be
//! read against a per-packet cost.
//!
//! Every kernel drives only public methods (`EventQueue`, `Link`, `Queue`,
//! `Scoreboard`), is independent of workload and seed, keeps its structure
//! at a steady depth so each sample measures the same work, and reports the
//! median of [`SAMPLES`] samples of at least `sample_secs` each.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use pcc_simnet::event::{Event, EventQueue};
use pcc_simnet::link::{Link, LinkOutcome};
use pcc_simnet::prelude::*;
use pcc_transport::Scoreboard;

/// Samples per kernel; the median is reported.
pub const SAMPLES: usize = 5;

/// Length of one sample in the benchmark proper, seconds.
pub const SAMPLE_SECS: f64 = 0.2;

/// Operations between two looks at the clock.
const BATCH: u64 = 4096;

/// Serialization time of one 1500-byte packet at 1 Gbps.
const PKT_GAP: SimDuration = SimDuration::from_micros(12);

/// Median over [`SAMPLES`] samples of the cost of one `op`, nanoseconds.
fn ns_per_op(sample_secs: f64, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut ops = 0u64;
            loop {
                for _ in 0..BATCH {
                    op();
                }
                ops += BATCH;
                let elapsed = t0.elapsed().as_secs_f64();
                if elapsed >= sample_secs {
                    return elapsed * 1e9 / ops as f64;
                }
            }
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

fn data_packet(flow: u32, seq: u64, now: SimTime) -> Packet {
    Packet::data(FlowId(flow), seq, 1500, now, false)
}

/// `size_of::<Event>()` plus the 16-byte `(time, seq)` key every heap entry
/// carries (the entry type itself is private).
pub fn event_entry_bytes() -> f64 {
    (std::mem::size_of::<Event>() + 16) as f64
}

/// One pop + one schedule of `Event::Arrive` with the heap held at `depth`
/// pending events. The new event lands a pseudo-random distance ahead, so
/// it sifts to a different level each time, as packet arrivals do.
pub fn event_ns_per_op(depth: usize, sample_secs: f64) -> f64 {
    let mut q = EventQueue::with_capacity(depth + 1);
    let mut rng = SimRng::new(depth as u64);
    let pkt = data_packet(0, 0, SimTime::ZERO);
    let spread_ns = depth as f64 * 1000.0;
    for _ in 0..depth {
        let at = SimTime::from_nanos((rng.uniform() * spread_ns) as u64);
        q.schedule(at, Event::Arrive { packet: pkt });
    }
    ns_per_op(sample_secs, || {
        let (at, event) = q.pop().expect("depth is steady");
        let ahead = SimDuration::from_nanos(1 + (rng.uniform() * spread_ns) as u64);
        q.schedule(at + ahead, black_box(event));
    })
}

/// `Link::offer` + `Link::tx_complete` for one packet on a 1 Gbps
/// drop-tail link that always has eight packets waiting.
pub fn link_ns_per_pkt(sample_secs: f64) -> f64 {
    let config = LinkConfig::bottleneck(1e9, SimDuration::from_micros(20), 256_000);
    let mut link = Link::new(LinkId(0), config, SimRng::new(1));
    let mut seq = 0u64;
    let mut tx_done = match link.offer(data_packet(0, seq, SimTime::ZERO), SimTime::ZERO) {
        LinkOutcome::Accepted {
            start_tx: Some(done),
        } => done,
        other => panic!("an idle link starts serializing at once, got {other:?}"),
    };
    for _ in 0..8 {
        seq += 1;
        link.offer(data_packet(0, seq, SimTime::ZERO), SimTime::ZERO);
    }
    ns_per_op(sample_secs, || {
        let now = tx_done;
        let res = link.tx_complete(now);
        tx_done = res.next_tx_done.expect("the link stays backlogged");
        black_box(res.delivered);
        seq += 1;
        black_box(link.offer(data_packet(0, seq, now), now));
    })
}

/// One enqueue + one dequeue with `standing` packets queued, spread over
/// `flows` flows, time advancing one packet serialization per operation
/// (so CoDel sojourn stays under its target and nothing is dropped).
fn queue_ns_per_pkt(mut q: Box<dyn Queue>, flows: u32, standing: u64, sample_secs: f64) -> f64 {
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    for _ in 0..standing {
        q.enqueue(data_packet(seq as u32 % flows, seq, now), now);
        seq += 1;
    }
    ns_per_op(sample_secs, || {
        now += PKT_GAP;
        black_box(q.enqueue(data_packet(seq as u32 % flows, seq, now), now));
        black_box(q.dequeue(now));
        seq += 1;
    })
}

/// Drop-tail, 64 packets standing.
pub fn droptail_ns_per_pkt(sample_secs: f64) -> f64 {
    queue_ns_per_pkt(Box::new(DropTail::bytes(1 << 20)), 1, 64, sample_secs)
}

/// FQ-CoDel over 8 flows, 64 packets standing.
pub fn fqcodel_ns_per_pkt(sample_secs: f64) -> f64 {
    queue_ns_per_pkt(Box::new(fq_codel(1 << 20)), 8, 64, sample_secs)
}

/// Packets in flight in the scoreboard kernel (a 1 Gbps × 30 ms window).
const SACK_WINDOW: u64 = 2500;

/// `Scoreboard::on_send` + `on_ack` + `detect_losses` per packet with
/// [`SACK_WINDOW`] packets outstanding. With `hole_every == 0` every
/// packet is acknowledged in order. Otherwise one original in
/// `hole_every` is never acknowledged: the reordering rule declares it
/// lost, it is retransmitted a window after its ACK was due and
/// acknowledged a window after that — so the cumulative point trails by
/// up to two windows and every ACK meets SACK holes, as on a lossy path.
pub fn sack_ns_per_ack(hole_every: u64, sample_secs: f64) -> f64 {
    let mut sb = Scoreboard::new();
    // 1.2 windows: tight enough that the timeout sweep's "is anything old
    // enough?" test passes regularly, as on a rate-controlled flow whose
    // RTO sits just above its RTT; loose enough that nothing times out.
    let rto = SimDuration::from_millis(36);
    let mut now = SimTime::ZERO;
    let mut next = 0u64;
    // Holes not yet repaired, oldest first: `(seq, retransmitted)`.
    let mut holes: VecDeque<(u64, bool)> = VecDeque::new();
    let mut lost_total = 0u64;
    let per_pkt = ns_per_op(sample_secs, || {
        now += PKT_GAP;
        sb.on_send(next, now, false);
        next += 1;
        if next > SACK_WINDOW {
            let due = next - 1 - SACK_WINDOW;
            // Repair the oldest hole on schedule.
            if let Some(&mut (seq, ref mut retx)) = holes.front_mut() {
                if !*retx && due >= seq + SACK_WINDOW {
                    sb.on_send(seq, now, true);
                    *retx = true;
                } else if *retx && due >= seq + 2 * SACK_WINDOW {
                    holes.pop_front();
                    ack(&mut sb, seq, holes.front().map_or(due, |h| h.0), now, true);
                }
            }
            if hole_every > 0 && due % hole_every == hole_every / 2 {
                holes.push_back((due, false));
            } else {
                let cum = holes.front().map_or(due + 1, |h| h.0);
                ack(&mut sb, due, cum, now, false);
            }
            lost_total += sb.detect_losses(now, rto).len() as u64;
        }
    });
    // The holes variant must actually exercise loss detection.
    assert_eq!(lost_total > 0, hole_every > 0, "{lost_total} losses");
    per_pkt
}

fn ack(sb: &mut Scoreboard, seq: u64, cum_ack: u64, now: SimTime, of_retx: bool) {
    let info = AckInfo {
        acked_seq: seq,
        cum_ack,
        echo_sent_at: now,
        recv_at: now,
        recv_bytes: 0,
        probe_train: None,
        of_retx,
    };
    black_box(sb.on_ack(&info, now));
}

/// Run every kernel; `(metric name, value)` in catalog order.
pub fn run_all(sample_secs: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("simnet.event.entry_bytes", event_entry_bytes()),
        (
            "simnet.event.ns_per_op_d64",
            event_ns_per_op(64, sample_secs),
        ),
        (
            "simnet.event.ns_per_op_d4k",
            event_ns_per_op(4096, sample_secs),
        ),
        (
            "simnet.event.ns_per_op_d64k",
            event_ns_per_op(65_536, sample_secs),
        ),
        ("simnet.link.ns_per_pkt", link_ns_per_pkt(sample_secs)),
        (
            "simnet.queue.ns_per_pkt_droptail",
            droptail_ns_per_pkt(sample_secs),
        ),
        (
            "simnet.queue.ns_per_pkt_fqcodel",
            fqcodel_ns_per_pkt(sample_secs),
        ),
        (
            "transport.sack.ns_per_ack_inorder",
            sack_ns_per_ack(0, sample_secs),
        ),
        (
            "transport.sack.ns_per_ack_holes",
            sack_ns_per_ack(50, sample_secs),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_reports_a_positive_cost() {
        for (name, v) in run_all(0.001) {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
