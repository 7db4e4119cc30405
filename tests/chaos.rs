//! Chaos conformance battery: every registered algorithm through every
//! canonical fault script (`pcc_scenarios::chaos`) — a mid-flow
//! bottleneck flap, an ACK-path blackout spanning several backed-off
//! RTOs, a core-switch failure under a k=4 fat-tree, and a corruption
//! storm.
//!
//! The contract each (algorithm × script) cell must uphold:
//!
//! * **no panic** — faults, re-routes, and budget aborts never unwind;
//! * **no wedge** — the flow either delivers every byte within the
//!   horizon or aborts as a typed `Stalled` on the dead-time budget;
//! * **monotone cum-ack and bounded memory** — the engine's debug
//!   invariants (cumulative ACK never regresses; the scoreboard never
//!   tracks more than ~2× the in-flight cap) are armed in these debug
//!   test builds and fire on violation; the report aggregator is
//!   counters-only by construction, so it cannot grow with loss volume;
//! * **bit-identical reruns** — the same seed reproduces the same
//!   counter fingerprint, script by script;
//! * **no arrival beyond the reorder span** — every receiver stores every
//!   data packet it is sent.

use pcc::scenarios::chaos::{run_chaos, ChaosScript};
use pcc::scenarios::workload::{run_churn, Arrival, ChurnConfig, SizeCdf};
use pcc::scenarios::{LinkSetup, Protocol};
use pcc::simnet::time::SimDuration;
use pcc::transport::receiver::span_rejections;
use pcc::transport::registry;

/// Every registered name, plus `"{name}:paced=true"` for each name whose
/// schema has a `paced` key: 15 names and the 7 paced TCPs.
fn all_names() -> Vec<String> {
    pcc::install_registry();
    let names = registry::names();
    let paced = names
        .iter()
        .filter(|n| registry::schema_of(n).is_some_and(|s| s.iter().any(|p| p.key == "paced")))
        .map(|n| format!("{n}:paced=true"));
    let specs: Vec<String> = names.iter().cloned().chain(paced).collect();
    assert_eq!(
        specs.len(),
        22,
        "PCC×utilities, 7 TCPs plain and paced, SABUL, PCP, BBR, the switcher: {specs:?}"
    );
    specs
}

#[test]
fn every_algorithm_survives_every_chaos_script() {
    for name in all_names() {
        for script in ChaosScript::all() {
            let proto = Protocol::Named(name.clone());
            let o = run_chaos(&proto, script, 0xC4A05);
            assert!(
                o.completed || o.stalled,
                "{name} × {}: neither completed nor stalled within the \
                 horizon (wedged: goodput {} Mbps)",
                script.label(),
                o.goodput_mbps
            );
            assert!(
                !(o.completed && o.stalled),
                "{name} × {}: a completed flow must not also report a stall",
                script.label()
            );
            assert!(
                o.goodput_mbps > 0.0,
                "{name} × {}: some forward progress before/after the fault",
                script.label()
            );
            let rerun = run_chaos(&proto, script, 0xC4A05);
            assert_eq!(
                o.fingerprint,
                rerun.fingerprint,
                "{name} × {}: rerun is bit-identical",
                script.label()
            );
        }
    }
    // Every receiver in the battery stored every arrival it was sent: no
    // simulated sequence number lands `REORDER_SPAN` past the cumulative
    // point, faults and all.
    assert_eq!(span_rejections(), 0);
}

#[test]
fn churn_survives_a_mid_run_link_flap() {
    // Churn under fault: the bottleneck flaps (down at 1 s for 0.5 s)
    // while an open-loop workload of 300 heavy-tailed flows is arriving
    // and retiring through the recycling slot arena. The contract:
    //
    // * no wedge — the run reaches its horizon with every admitted flow
    //   accounted for (arrivals = completions + stalls + live-at-horizon);
    // * the fault costs flows, not invariants — stale packets/timers from
    //   flows retired mid-flap are discarded, never billed to a slot's
    //   next tenant;
    // * bit-identical reruns, fault and all.
    let mk = || {
        let cdf = SizeCdf::builtin("cache-follower").expect("bundled CDF");
        let link = LinkSetup::new(100e6, SimDuration::from_millis(20), 250_000);
        let arrival = Arrival::poisson_for_load(0.5, 100e6, cdf.mean_bytes());
        ChurnConfig::new(Protocol::Tcp("cubic"), link, cdf, arrival, 300, 0xC4A05)
            .with_fault_script("1 down 0 0.5")
            .expect("the flap script parses")
    };
    let r = run_churn(mk());
    let c = r.churn;
    assert_eq!(c.arrivals, 300, "every flow admitted");
    assert_eq!(
        c.arrivals,
        c.completions + c.stalls + c.live_at_end,
        "accounting conserved across the flap: {c:?}"
    );
    assert!(
        c.completions > 200,
        "the bulk of the workload survives a half-second flap: {c:?}"
    );
    assert_eq!(
        r.samples.len() as u64,
        c.completions + c.stalls,
        "every retired flow harvested exactly once"
    );
    assert!(
        c.peak_live < c.arrivals,
        "slots recycle under fault: peak {} of {}",
        c.peak_live,
        c.arrivals
    );
    let rerun = run_churn(mk());
    assert_eq!(
        r.fingerprint(),
        rerun.fingerprint(),
        "churn-under-fault rerun is bit-identical"
    );
}

#[test]
fn flap_and_spine_recover_rather_than_stall() {
    // The survivable scripts (half-second flap; spine death with three
    // live cores to re-route over) must end in completion for the two
    // headline algorithms, with observable post-repair recovery.
    for name in ["pcc", "cubic"] {
        for script in [ChaosScript::LinkFlap, ChaosScript::SpineFailure] {
            let o = run_chaos(&Protocol::Named(name.into()), script, 0xC4A05);
            assert!(
                o.completed && !o.stalled,
                "{name} × {}: survivable fault completes",
                script.label()
            );
            if let Some(r) = o.recovery_ms {
                assert!(
                    r < 10_000.0,
                    "{name} × {}: post-repair recovery prompt: {r} ms",
                    script.label()
                );
            }
        }
    }
}
