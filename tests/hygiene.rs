//! Workspace hygiene the toolchain does not check by itself: the build
//! needs no network, no crate sits outside the lint floor, and every
//! `clippy.toml` entry is live. (The determinism rules themselves are
//! `clippy.toml` + `[workspace.lints]`; see ARCHITECTURE.md, "Determinism
//! contract, enforced".)

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lock_files_name_no_external_source() {
    // A path dependency never has a `source` line in a lock file; a
    // registry or git dependency always does.
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = read(lock);
        let external: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("source = "))
            .collect();
        assert!(
            external.is_empty(),
            "{lock} names a dependency that is not an in-repo path (no-network build): {external:?}"
        );
    }
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let root = read("Cargo.toml");
    let members = root
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root Cargo.toml lists its members")
        .0;
    let mut manifests = vec!["Cargo.toml".to_string()];
    manifests.extend(
        members
            .split(',')
            .map(|m| m.trim().trim_matches('"'))
            .filter(|m| !m.is_empty())
            .map(|m| format!("{m}/Cargo.toml")),
    );
    assert!(manifests.len() > 1, "no members parsed from {members:?}");
    for manifest in manifests {
        assert!(
            read(&manifest).contains("[lints]\nworkspace = true"),
            "{manifest} does not opt into [workspace.lints]: rustc and clippy would not \
             hold that crate to the workspace's deny levels"
        );
    }
}

/// One use of every construct `clippy.toml` disallows, each under its own
/// `#[expect]`. Clippy reports a mistyped path in `clippy.toml` as a plain
/// warning that `-D warnings` does not promote (clippy 0.1.95 exits 0), so
/// a typo or a deleted line would switch a rule off in silence; here it
/// leaves an expectation unfulfilled, which `-D warnings` does fail. The
/// count at the end closes the other direction: an entry added without a
/// canary fails this test.
#[test]
fn every_clippy_toml_entry_has_a_canary() {
    #[expect(clippy::disallowed_types, reason = "canary: HashMap entry")]
    let _ = std::collections::HashMap::<u8, u8>::new();
    #[expect(clippy::disallowed_types, reason = "canary: HashSet entry")]
    let _ = std::collections::HashSet::<u8>::new();
    #[expect(clippy::disallowed_types, reason = "canary: RandomState entry")]
    let _ = std::collections::hash_map::RandomState::new();
    #[expect(clippy::disallowed_types, reason = "canary: SystemTime entry")]
    let _ = std::time::SystemTime::UNIX_EPOCH;
    #[expect(clippy::disallowed_methods, reason = "canary: Instant::now entry")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "canary: partial_cmp entry")]
    let _ = 1.0_f64.partial_cmp(&2.0);
    let (mutex, rwlock) = (std::sync::Mutex::new(()), std::sync::RwLock::new(()));
    #[expect(clippy::disallowed_methods, reason = "canary: Mutex::lock entry")]
    drop(mutex.lock());
    #[expect(clippy::disallowed_methods, reason = "canary: RwLock::read entry")]
    drop(rwlock.read());
    #[expect(clippy::disallowed_methods, reason = "canary: RwLock::write entry")]
    drop(rwlock.write());
    assert_eq!(
        read("clippy.toml").matches("path = ").count(),
        9,
        "clippy.toml and the canaries above must list the same entries"
    );
}

/// Every queue ring, delay lane and event-heap entry holds a packet by
/// value, so a field added to `Packet` costs memory in all of them at
/// once (ARCHITECTURE.md, "Per-sequence and per-packet state").
#[test]
fn packet_event_and_action_stay_72_bytes() {
    use pcc_simnet::{endpoint::Action, event::Event, packet::Packet};
    use std::mem::size_of;
    assert_eq!(size_of::<Packet>(), 72, "Packet");
    assert_eq!(size_of::<Event>(), 72, "Event");
    assert_eq!(size_of::<Action>(), 72, "Action");
}

/// A fabric has hundreds of links and only a shaped one needs its
/// impairment stage, so `Link` keeps the shaper boxed: inline it was 432
/// bytes a link, boxed 280.
#[test]
fn link_keeps_its_shaper_out_of_line() {
    let size = std::mem::size_of::<pcc_simnet::link::Link>();
    assert!(size <= 280, "Link is {size} bytes");
}

/// Tier-1 (`cargo test -q`) runs in the dev profile, which the root
/// `Cargo.toml` optimises (`opt-level = 1`) for speed. Debug assertions and
/// overflow checks must stay armed there: the chaos battery's invariants
/// and every `debug_assert!` are what tier-1 is for, so speed must not be
/// bought by switching them off.
#[test]
#[expect(
    clippy::assertions_on_constants,
    reason = "the constant is the build profile's; the test exists to fail when it changes"
)]
fn tier_one_runs_with_debug_assertions_armed() {
    assert!(
        cfg!(debug_assertions),
        "the test profile must keep debug assertions (run tier-1 without --release)"
    );
}

/// A spec key exists only while a figure, the benchmark or a shipped
/// default turns it (ROADMAP.md, build note): Fig. 16 turns PCC's `eps`,
/// `eps_max`, `tm` and `rct`, the four PCC names are `util` defaults, and
/// Fig. 9 paces New Reno. Every other constant is a constant.
#[test]
fn spec_keys_are_the_ones_a_figure_turns() {
    use pcc::transport::registry;
    use std::collections::BTreeSet;

    pcc::install_registry();
    let got: BTreeSet<(String, &str)> = registry::names()
        .into_iter()
        .flat_map(|name| {
            let schema = registry::schema_of(&name).unwrap_or(&[]);
            schema.iter().map(move |p| (name.clone(), p.key))
        })
        .collect();
    let pcc = ["pcc", "pcc-latency", "pcc-lossresilient", "pcc-simple"];
    let tcp = [
        "bic", "cubic", "hybla", "illinois", "newreno", "vegas", "westwood",
    ];
    let want: BTreeSet<(String, &str)> = pcc
        .iter()
        .flat_map(|n| ["eps", "eps_max", "tm", "rct", "util"].map(|k| (n.to_string(), k)))
        .chain(tcp.iter().map(|n| (n.to_string(), "paced")))
        .collect();
    assert_eq!(want.len(), 27);
    assert_eq!(
        got, want,
        "the registered spec keys moved: a key is added with the figure, benchmark \
         workload or shipped default that turns it (ROADMAP.md, build note, \"Decided\")"
    );
}
