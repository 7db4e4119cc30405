//! A naive twin of the network layer, checked packet by packet.
//!
//! The simulator's hot path composes delay-keyed event lanes, in-place
//! zero-delay hops and drop-tail rings that grow with their backlog. The
//! twin below has none of that: one `BinaryHeap` of `(time, seq, event)`,
//! and per link a byte-limited `VecDeque` drop-tail that sums its backlog
//! on every offer. It shares only `tx_time` and `Topology::path_edges` with
//! the simulator, and hosts the same `Endpoint`s through the public
//! `EndpointCtx`.
//!
//! Both run seeded open-loop bursts over random connected graphs, and must
//! agree on every flow's `(seq, arrival time)` list and every link's
//! counters. `PROPTEST_CASES` sets the number of cases (256 by default).
//!
//! The order of operations the twin follows is the simulator's:
//! - events pop in `(time, seq)` order, `seq` counting every schedule;
//! - at start-up each flow's start is scheduled in flow order; a start
//!   calls the sender, then the receiver;
//! - an endpoint's actions apply in the order it emitted them: a send is
//!   offered to its first link at once, a timer is scheduled at the later
//!   of its deadline and now;
//! - an offer to an idle rated link starts serializing; to a busy one it
//!   joins the queue unless the backlog would pass the byte limit;
//! - a completed serialization schedules the next one from the queue
//!   first, then the packet's arrival one link delay later;
//! - a pure-delay link schedules the arrival at once, counting the offer
//!   only.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

use pcc_simnet::prelude::*;
use pcc_simnet::sync::lock;
use pcc_simnet::topo::random_connected;

/// Every data arrival a receiver saw: `(seq, time)`.
type Log = Arc<Mutex<Vec<(u64, SimTime)>>>;

/// An open-loop source: burst `i` of `bursts` goes out at its instant,
/// whatever happened to the ones before.
struct Source {
    bursts: Arc<Vec<(SimTime, Vec<u32>)>>,
    next_seq: u64,
}

impl Source {
    fn burst(&mut self, i: usize, ctx: &mut EndpointCtx) {
        for &bytes in &self.bursts[i].1 {
            ctx.send_data(self.next_seq, bytes, false);
            self.next_seq += 1;
        }
        if let Some((at, _)) = self.bursts.get(i + 1) {
            ctx.set_timer(*at, i as u64 + 1);
        }
    }
}

impl Endpoint for Source {
    fn start(&mut self, ctx: &mut EndpointCtx) {
        self.burst(0, ctx);
    }
    fn on_packet(&mut self, _pkt: &Packet, _ctx: &mut EndpointCtx) {}
    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        self.burst(token as usize, ctx);
    }
}

/// A receiver that logs data arrivals and never answers.
struct Sink(Log);

impl Endpoint for Sink {
    fn start(&mut self, _ctx: &mut EndpointCtx) {}
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        let seq = pkt.as_data().expect("open loop carries data only").seq;
        lock(&self.0).push((seq, ctx.now));
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut EndpointCtx) {}
}

/// One link of the case: `rate` `None` is a pure-delay link.
#[derive(Clone, Copy, Debug)]
struct Spec {
    rate: Option<f64>,
    delay: SimDuration,
    limit: u64,
}

/// One flow of the case: its path in edge indices and its bursts.
struct FlowCase {
    fwd: Vec<usize>,
    rev: Vec<usize>,
    bursts: Arc<Vec<(SimTime, Vec<u32>)>>,
}

struct Case {
    links: Vec<Spec>,
    flows: Vec<FlowCase>,
    horizon: SimTime,
}

/// What both simulators must agree on: per flow the arrivals, per link
/// (offered, transmitted, transmitted bytes, enqueued, dequeued, tail drops,
/// dropped bytes, peak backlog).
struct Outcome {
    arrivals: Vec<Vec<(u64, SimTime)>>,
    links: Vec<[u64; 8]>,
}

enum Ev {
    Start(usize),
    Timer(usize, Side, u64),
    TxDone(usize),
    Arrive(Packet),
}

struct Due(SimTime, u64, Ev);

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

/// SNIPPETS.md #1's `DropTailQueue`, with the link's own state beside it.
struct TwinLink {
    spec: Spec,
    pkts: VecDeque<Packet>,
    in_flight: Option<Packet>,
    counters: [u64; 8],
}

impl TwinLink {
    fn occupancy_bytes(&self) -> u64 {
        self.pkts.iter().map(|p| p.bytes as u64).sum()
    }
}

struct TwinFlow {
    ends: [Box<dyn Endpoint>; 2],
    paths: [Vec<usize>; 2],
}

struct Twin {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Due>,
    links: Vec<TwinLink>,
    flows: Vec<TwinFlow>,
    rng: SimRng,
}

impl Twin {
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.heap.push(Due(at, self.seq, ev));
        self.seq += 1;
    }

    fn run(mut self, horizon: SimTime) -> Vec<[u64; 8]> {
        while let Some(Due(at, _, ev)) = self.heap.pop() {
            if at > horizon {
                break;
            }
            self.now = at;
            match ev {
                Ev::Start(f) => {
                    self.call(f, Side::Sender, None);
                    self.call(f, Side::Receiver, None);
                }
                Ev::Timer(f, side, token) => self.call(f, side, Some(token)),
                Ev::TxDone(l) => self.tx_done(l),
                Ev::Arrive(pkt) => self.route(pkt),
            }
        }
        self.links.iter().map(|l| l.counters).collect()
    }

    fn call(&mut self, f: usize, side: Side, timer: Option<u64>) {
        let mut actions = Vec::new();
        let mut ctx = EndpointCtx::new(
            self.now,
            FlowId(f as u32),
            side,
            &mut self.rng,
            &mut actions,
        );
        let end = &mut self.flows[f].ends[side as usize];
        match timer {
            Some(token) => end.on_timer(token, &mut ctx),
            None => end.start(&mut ctx),
        }
        for action in actions {
            match action {
                Action::Send(mut pkt) => {
                    pkt.flow = FlowId(f as u32);
                    pkt.dir = match side {
                        Side::Sender => Direction::Forward,
                        Side::Receiver => Direction::Reverse,
                    };
                    pkt.hop = 0;
                    self.route(pkt);
                }
                Action::SetTimer { at, token } => {
                    self.schedule(at.max(self.now), Ev::Timer(f, side, token));
                }
                _ => {}
            }
        }
    }

    fn route(&mut self, pkt: Packet) {
        let f = pkt.flow.index();
        let dir = (pkt.dir == Direction::Reverse) as usize;
        let Some(&l) = self.flows[f].paths[dir].get(pkt.hop as usize) else {
            let mut actions = Vec::new();
            let side = [Side::Receiver, Side::Sender][dir];
            let mut ctx = EndpointCtx::new(self.now, pkt.flow, side, &mut self.rng, &mut actions);
            self.flows[f].ends[side as usize].on_packet(&pkt, &mut ctx);
            assert!(actions.is_empty(), "open-loop endpoints never answer");
            return;
        };
        let now = self.now;
        let link = &mut self.links[l];
        link.counters[0] += 1;
        let Some(rate) = link.spec.rate else {
            let at = now + link.spec.delay;
            self.schedule(
                at,
                Ev::Arrive(Packet {
                    hop: pkt.hop + 1,
                    ..pkt
                }),
            );
            return;
        };
        if link.in_flight.is_none() && link.pkts.is_empty() {
            link.in_flight = Some(pkt);
            self.schedule(now + tx_time(pkt.bytes as u64, rate), Ev::TxDone(l));
        } else if link.occupancy_bytes() + pkt.bytes as u64 > link.spec.limit {
            link.counters[5] += 1;
            link.counters[6] += pkt.bytes as u64;
        } else {
            link.pkts.push_back(pkt);
            link.counters[3] += 1;
            link.counters[7] = link.counters[7].max(link.occupancy_bytes());
        }
    }

    fn tx_done(&mut self, l: usize) {
        let now = self.now;
        let link = &mut self.links[l];
        let rate = link.spec.rate.expect("only rated links serialize");
        let mut pkt = link.in_flight.take().expect("a completion has a packet");
        link.counters[1] += 1;
        link.counters[2] += pkt.bytes as u64;
        let arrive = now + link.spec.delay;
        if let Some(next) = link.pkts.pop_front() {
            link.counters[4] += 1;
            link.in_flight = Some(next);
            self.schedule(now + tx_time(next.bytes as u64, rate), Ev::TxDone(l));
        }
        pkt.hop += 1;
        self.schedule(arrive, Ev::Arrive(pkt));
    }
}

fn endpoints(flow: &FlowCase) -> (Box<dyn Endpoint>, Box<dyn Endpoint>, Log) {
    let log = Log::default();
    let source = Source {
        bursts: Arc::clone(&flow.bursts),
        next_seq: 0,
    };
    (Box::new(source), Box::new(Sink(Arc::clone(&log))), log)
}

fn run_twin(case: &Case) -> Outcome {
    let mut logs = Vec::new();
    let mut twin = Twin {
        now: SimTime::ZERO,
        seq: 0,
        heap: BinaryHeap::new(),
        links: (case.links.iter())
            .map(|&spec| TwinLink {
                spec,
                pkts: VecDeque::new(),
                in_flight: None,
                counters: [0; 8],
            })
            .collect(),
        flows: Vec::new(),
        rng: SimRng::new(0),
    };
    for (f, flow) in case.flows.iter().enumerate() {
        let (sender, receiver, log) = endpoints(flow);
        logs.push(log);
        twin.flows.push(TwinFlow {
            ends: [sender, receiver],
            paths: [flow.fwd.clone(), flow.rev.clone()],
        });
        twin.schedule(flow.bursts[0].0, Ev::Start(f));
    }
    let links = twin.run(case.horizon);
    let arrivals = logs.iter().map(|l| lock(l).clone()).collect();
    Outcome { arrivals, links }
}

fn run_simulator(case: &Case) -> Outcome {
    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: SimDuration::from_millis(1),
        seed: 7,
    });
    for spec in &case.links {
        let config = match spec.rate {
            Some(rate) => LinkConfig::bottleneck(rate, spec.delay, spec.limit),
            None => LinkConfig::delay_only(spec.delay),
        };
        net.add_link(config);
    }
    let mut logs = Vec::new();
    let ids = |edges: &[usize]| edges.iter().map(|&e| LinkId(e as u32)).collect();
    for flow in &case.flows {
        let (sender, receiver, log) = endpoints(flow);
        logs.push(log);
        net.add_flow(FlowSpec {
            sender,
            receiver,
            fwd_path: ids(&flow.fwd),
            rev_path: ids(&flow.rev),
            start_at: flow.bursts[0].0,
        });
    }
    let report = net.build().run_until(case.horizon);
    let links = (report.links.iter())
        .map(|l| {
            let (s, q) = (l.stats, l.queue);
            [
                s.offered,
                s.transmitted,
                s.transmitted_bytes,
                q.enqueued,
                q.dequeued,
                q.dropped_tail,
                q.dropped_bytes,
                q.max_backlog_bytes,
            ]
        })
        .collect();
    let arrivals = logs.iter().map(|l| lock(l).clone()).collect();
    Outcome { arrivals, links }
}

/// A random case: a connected switch graph whose link delays are all zero,
/// all one shared value, or drawn per link; rates whose serialization times
/// are whole nanoseconds, so completions tie; buffers of 0–6 kB, so queues
/// overflow; and bursts of 40–1 500 B packets on a 1 µs grid.
fn case(seed: u64) -> Case {
    let mut rng = SimRng::new(seed);
    let n = rng.range_u64(2, 8) as usize;
    let picks: Vec<u64> = (0..rng.range_u64(1, 6))
        .map(|_| rng.range_u64(0, u64::MAX))
        .collect();
    let pairs = random_connected(n, &picks);
    let delay_mode = rng.range_u64(0, 3);
    let shared = SimDuration::from_micros(rng.range_u64(1, 6));
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| topo.add_switch()).collect();
    let mut links = Vec::new();
    for &(a, b) in &pairs {
        for _ in 0..2 {
            let delay = match delay_mode {
                0 => SimDuration::ZERO,
                1 => shared,
                _ => SimDuration::from_nanos(rng.range_u64(0, 5) * 1_250),
            };
            let rate =
                (!rng.chance(0.1)).then(|| [5e8, 1e9, 2e9, 4e9, 8e9][rng.range_u64(0, 5) as usize]);
            let limit = rng.range_u64(0, 6_000);
            links.push(Spec { rate, delay, limit });
        }
        let cfg = || LinkConfig::delay_only(SimDuration::ZERO);
        topo.add_duplex(nodes[a as usize], nodes[b as usize], cfg(), cfg());
    }
    let mut flows = Vec::new();
    for f in 0..rng.range_u64(1, 9) {
        let src = rng.range_u64(0, n as u64) as usize;
        let dst = (src + rng.range_u64(1, n as u64) as usize) % n;
        let key = rng.range_u64(0, u64::MAX);
        let path = |t: &mut Topology, a: usize, b: usize| {
            t.path_edges(nodes[a], nodes[b], key)
                .iter()
                .map(|e| e.index())
                .collect()
        };
        let (fwd, rev) = (path(&mut topo, src, dst), path(&mut topo, dst, src));
        let mut at = rng.range_u64(0, 20);
        let bursts = (0..rng.range_u64(1, 7))
            .map(|_| {
                at += rng.range_u64(0, 15);
                let sizes = (0..rng.range_u64(1, 13))
                    .map(|_| match rng.range_u64(0, 3) {
                        0 => 40,
                        1 => 1500,
                        _ => rng.range_u64(40, 1501) as u32,
                    })
                    .collect();
                (SimTime::from_nanos((at + f) * 1_000), sizes)
            })
            .collect();
        flows.push(FlowCase {
            fwd,
            rev,
            bursts: Arc::new(bursts),
        });
    }
    let horizon = SimTime::from_nanos(rng.range_u64(10, 400) * 1_000);
    Case {
        links,
        flows,
        horizon,
    }
}

#[test]
fn the_simulator_matches_its_naive_twin_packet_by_packet() {
    let (mut delivered, mut dropped, mut queued) = (0, 0, 0);
    let cases = std::env::var("PROPTEST_CASES").map_or(256, |v| v.parse().expect("a count"));
    for seed in 0..cases {
        let case = case(seed);
        let twin = run_twin(&case);
        let sim = run_simulator(&case);
        for (f, (t, s)) in twin.arrivals.iter().zip(&sim.arrivals).enumerate() {
            assert_eq!(t, s, "case {seed}, flow {f}: (seq, arrival) lists differ");
        }
        for (l, (t, s)) in twin.links.iter().zip(&sim.links).enumerate() {
            assert_eq!(
                t, s,
                "case {seed}, link {l} ({:?}): counters differ",
                case.links[l]
            );
        }
        delivered += twin.arrivals.iter().map(Vec::len).sum::<usize>();
        dropped += twin.links.iter().map(|c| c[5]).sum::<u64>();
        queued += twin.links.iter().map(|c| c[3]).sum::<u64>();
    }
    // Not vacuous: packets arrive, wait in queues and overflow them.
    assert!(
        delivered > 0 && queued > 0 && dropped > 0,
        "{delivered} {queued} {dropped}"
    );
}
