//! ARP translation-table bounds: a 64-host segment resolved through a
//! 16-entry cache must evict deterministically in LRU order, never grow
//! past capacity, and keep answering correctly for evicted peers (at the
//! price of a fresh wire exchange).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use inet::arp::Arp;
use inet::testbed::base_registry;
use inet::{standard_graph, with_concrete};
use simnet::{LanConfig, LanId, SimNet};
use xkernel::prelude::*;
use xkernel::sim::{RunReport, Sim, SimConfig};

const N_PEERS: usize = 64;
const CACHE_CAP: usize = 16;

struct ArpRig {
    sim: Sim,
    net: SimNet,
    lan: LanId,
    observer: Arc<Kernel>,
}

/// One observer with a `cache=cap` ARP table plus `n` standard peers, all
/// on one Ethernet. Peer `i` is `10.0.0.(i+1)` at `EthAddr::from_index(i+1)`.
fn arp_rig(cfg: SimConfig, cap: usize, n: usize) -> ArpRig {
    let reg = base_registry();
    let sim = Sim::new(cfg);
    let net = SimNet::new(&sim);
    let lan = net.add_lan(LanConfig::default());
    let observer = Kernel::new(&sim, "observer");
    net.attach(&observer, lan, "nic0", EthAddr::from_index(201))
        .expect("attach observer");
    let spec = format!(
        "eth -> nic0\n\
         arp ip=10.0.0.201 cache={cap} -> eth\n\
         ip -> eth arp\n\
         udp -> ip\n\
         icmp -> ip\n"
    );
    reg.build(&sim, &observer, &spec).expect("observer graph");
    for i in 0..n {
        let k = Kernel::new(&sim, &format!("peer{i}"));
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
            .expect("attach peer");
        let spec = standard_graph("nic0", &format!("10.0.0.{}", i + 1));
        reg.build(&sim, &k, &spec).expect("peer graph");
    }
    ArpRig {
        sim,
        net,
        lan,
        observer,
    }
}

fn peer_ip(i: usize) -> IpAddr {
    IpAddr::new(10, 0, 0, i as u8 + 1)
}

fn resolve(rig: &ArpRig, ctx: &Ctx, i: usize) -> EthAddr {
    with_concrete::<Arp, _>(&rig.observer, "arp", |a| a.resolve(ctx, peer_ip(i)))
        .expect("arp downcast")
        .expect("peer resolves")
}

/// Resolves all 64 peers in order through the 16-entry table and returns
/// (resolved addresses, evictions, final table size, run report).
fn sweep(seed: u64) -> (Vec<EthAddr>, u64, usize, RunReport) {
    let rig = arp_rig(SimConfig::scheduled().with_seed(seed), CACHE_CAP, N_PEERS);
    let got: Rc<RefCell<Vec<EthAddr>>> = Rc::new(RefCell::new(Vec::new()));
    let g2 = Rc::clone(&got);
    let obs = Arc::clone(&rig.observer);
    rig.sim.spawn(rig.observer.host(), move |ctx| {
        for i in 0..N_PEERS {
            let e = with_concrete::<Arp, _>(&obs, "arp", |a| a.resolve(ctx, peer_ip(i)))
                .expect("arp downcast")
                .expect("peer resolves");
            g2.borrow_mut().push(e);
        }
    });
    let run = rig.sim.run_until_idle();
    assert_eq!(run.blocked, 0);
    let (evictions, len) = with_concrete::<Arp, _>(&rig.observer, "arp", |a| {
        (a.cache_evictions(), a.cache_len())
    })
    .expect("arp downcast");
    let addrs = Rc::try_unwrap(got).expect("sole owner").into_inner();
    (addrs, evictions, len, run)
}

#[test]
fn sixty_four_hosts_through_a_sixteen_entry_table() {
    let (addrs, evictions, len, _) = sweep(0xa49);
    assert_eq!(addrs.len(), N_PEERS);
    for (i, e) in addrs.iter().enumerate() {
        assert_eq!(*e, EthAddr::from_index(i as u16 + 1), "peer {i} mapping");
    }
    // 16 fills then 48 LRU replacements; the table never exceeds capacity.
    assert_eq!(len, CACHE_CAP, "table holds exactly its capacity");
    assert_eq!(
        evictions,
        (N_PEERS - CACHE_CAP) as u64,
        "every insert past capacity evicts exactly one entry"
    );
}

#[test]
fn resolve_evict_sequence_is_deterministic() {
    let a = sweep(0xa50);
    let b = sweep(0xa50);
    assert_eq!(a.0, b.0, "identical address sequences");
    assert_eq!((a.1, a.2), (b.1, b.2), "identical eviction history");
    assert_eq!(a.3, b.3, "bit-identical run reports");
}

#[test]
fn eviction_is_least_recently_used_not_insertion_order() {
    // Inline mode: resolves complete synchronously, and cache hits are
    // distinguishable from misses by wire traffic (a hit sends nothing).
    let rig = arp_rig(SimConfig::inline_mode(), 4, 6);
    let ctx = rig.sim.ctx(rig.observer.host());
    for i in 0..4 {
        resolve(&rig, &ctx, i); // Fill: 0,1,2,3 — LRU order 0,1,2,3.
    }
    resolve(&rig, &ctx, 0); // Touch 0 — LRU order is now 1,2,3,0.
    resolve(&rig, &ctx, 4); // Insert 4 — must evict 1, not 0.

    let before = rig.net.stats(rig.lan).sent;
    resolve(&rig, &ctx, 0);
    assert_eq!(
        rig.net.stats(rig.lan).sent,
        before,
        "peer 0 was touched, so it survived — resolving it is a cache hit"
    );
    resolve(&rig, &ctx, 1);
    assert!(
        rig.net.stats(rig.lan).sent > before,
        "peer 1 was the true LRU victim — resolving it probes the wire"
    );
    let evictions =
        with_concrete::<Arp, _>(&rig.observer, "arp", |a| a.cache_evictions()).expect("downcast");
    // Insert of 4 evicted 1; re-resolving 1 then evicted the next victim.
    assert_eq!(evictions, 2);
}
