//! §5's negative result, reproduced: "one would expect TCP to be able to
//! use VIP since VIP provides the same semantics as IP. This doesn't work
//! in practice, however, because TCP depends on the length field in the IP
//! header (the TCP header does not have a length field of its own) and TCP
//! computes a checksum that covers the IP header."
//!
//! With minimum-frame padding enabled on the wire (as on real Ethernet),
//! small TCP segments delivered over VIP's raw-Ethernet path carry trailing
//! pad bytes. Over IP, `total_len` trims them; over raw ETH nothing can,
//! the checksum fails, and the connection never establishes. The same
//! padded wire is harmless to every protocol designed with its own length
//! field (FRAGMENT's `len`, Sprite's `data1_sz`, UDP's `length`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use inet::tcp::Tcp;
use inet::with_concrete;
use simnet::{LanConfig, SimNet};
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

fn registry() -> xkernel::graph::ProtocolRegistry {
    let mut reg = inet::testbed::base_registry();
    xrpc::register_ctors(&mut reg);
    reg
}

/// Two hosts on a padding Ethernet running the standard graph plus `extra`.
///
/// Builds with `build_unchecked`: the TCP-over-VIP spec below is
/// *deliberately* ill-formed — `xk-lint` rejects it statically (see
/// `tcp_over_vip_is_rejected_statically`), and this rig exists to show the
/// same composition also failing dynamically, the way the paper found it.
fn padded_rig(extra: &str) -> (Sim, SimNet, Vec<Arc<Kernel>>) {
    let sim = Sim::new(SimConfig::scheduled());
    let net = SimNet::new(&sim);
    let lan = net.add_lan(LanConfig {
        pad_frames: true,
        ..LanConfig::default()
    });
    let reg = registry();
    let mut kernels = Vec::new();
    for (i, ip) in ["10.0.0.1", "10.0.0.2"].iter().enumerate() {
        let k = Kernel::new(&sim, &format!("h{i}"));
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
            .unwrap();
        let spec = format!("{}{extra}", inet::standard_graph("nic0", ip));
        reg.build_unchecked(&sim, &k, &spec).unwrap();
        kernels.push(k);
    }
    (sim, net, kernels)
}

#[test]
fn tcp_over_vip_is_rejected_statically() {
    // The linter catches the Section 5 composition error before anything
    // runs: build() (which lints) refuses the spec padded_rig builds only
    // via build_unchecked.
    let sim = Sim::new(SimConfig::scheduled());
    let net = SimNet::new(&sim);
    let lan = net.add_lan(LanConfig::default());
    let k = Kernel::new(&sim, "h");
    net.attach(&k, lan, "nic0", EthAddr::from_index(1)).unwrap();
    let spec = format!(
        "{}vip -> ip eth arp\ntcp -> vip\n",
        inet::standard_graph("nic0", "10.0.0.1")
    );
    let err = registry().build(&sim, &k, &spec).unwrap_err();
    let XError::Lint(diags) = err else {
        panic!("expected a lint rejection, got {err}");
    };
    let hit = diags
        .iter()
        .find(|d| d.rule == xkernel::lint::rules::STABLE_OVER_VIRTUAL)
        .expect("XK007 cites the stable-participant rule");
    assert_eq!(hit.severity, xkernel::lint::Severity::Error);
    assert_eq!(hit.instance, "tcp");
    assert!(hit.message.contains("stable participant"));
}

#[test]
fn tcp_works_over_ip_despite_frame_padding() {
    // Control case: IP's total_len strips the pad, so TCP is fine.
    let (sim, _net, kernels) = padded_rig("tcp -> ip\n");
    let server_ip = IpAddr::new(10, 0, 0, 2);
    let ok = Rc::new(RefCell::new(false));
    let o2 = Rc::clone(&ok);
    let server = Arc::clone(&kernels[1]);
    sim.spawn(server.host(), move |ctx| {
        with_concrete::<Tcp, _>(ctx.kernel(), "tcp", |t| {
            let l = t.listen(80).unwrap();
            let conn = l.accept(ctx, 5_000_000_000).unwrap();
            let data = conn.recv(ctx, 64, 2_000_000_000).unwrap();
            assert_eq!(data, b"over ip");
        })
        .unwrap();
    });
    sim.spawn(kernels[0].host(), move |ctx| {
        with_concrete::<Tcp, _>(ctx.kernel(), "tcp", |t| {
            let conn = t.connect(ctx, server_ip, 80).unwrap();
            conn.send(ctx, b"over ip").unwrap();
            *o2.borrow_mut() = true;
        })
        .unwrap();
    });
    let r = sim.run_until_idle();
    assert!(*ok.borrow_mut());
    assert_eq!(r.blocked, 0);
}

#[test]
fn tcp_cannot_establish_over_vip_raw_ethernet() {
    // The paper's finding: over VIP's raw-Ethernet path the padded SYN
    // fails TCP's checksum (no TCP length field to trim with), so the
    // handshake never completes.
    let (sim, _net, kernels) = padded_rig("vip -> ip eth arp\ntcp -> vip\n");
    let server_ip = IpAddr::new(10, 0, 0, 2);
    let outcome: Rc<RefCell<Option<XError>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&outcome);
    let server = Arc::clone(&kernels[1]);
    sim.spawn(server.host(), move |ctx| {
        with_concrete::<Tcp, _>(ctx.kernel(), "tcp", |t| {
            let l = t.listen(80).unwrap();
            // The SYN never passes the checksum, so accept times out.
            assert!(l.accept(ctx, 3_000_000_000).is_err());
        })
        .unwrap();
    });
    sim.spawn(kernels[0].host(), move |ctx| {
        with_concrete::<Tcp, _>(ctx.kernel(), "tcp", |t| {
            *o2.borrow_mut() = t.connect(ctx, server_ip, 80).err();
        })
        .unwrap();
    });
    let r = sim.run_until_idle();
    assert!(
        matches!(*outcome.borrow_mut(), Some(XError::Timeout(_))),
        "connect must fail: {:?}",
        outcome.borrow_mut()
    );
    assert_eq!(r.blocked, 0);
}

#[test]
fn sprite_rpc_is_immune_to_frame_padding() {
    // Protocols that carry their own lengths were "designed so they can be
    // composed with any protocol that offers the same level of service" —
    // the same padded wire does not bother monolithic Sprite RPC over VIP.
    let (sim, _net, kernels) = padded_rig(xrpc::stacks::M_RPC_VIP.graph);
    xrpc::procs::register_standard(&kernels[1], "mrpc").unwrap();
    let server_ip = IpAddr::new(10, 0, 0, 2);
    let out: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&out);
    sim.spawn(kernels[0].host(), move |ctx| {
        let k = ctx.kernel();
        let r = xrpc::call(
            ctx,
            k,
            "mrpc",
            server_ip,
            xrpc::procs::ECHO_PROC,
            b"tiny".to_vec(),
        )
        .unwrap();
        *o2.borrow_mut() = Some(r);
    });
    let r = sim.run_until_idle();
    assert_eq!(
        out.borrow_mut().take().unwrap(),
        b"tiny",
        "padded frames trimmed via data1_sz"
    );
    assert_eq!(r.blocked, 0);
}
