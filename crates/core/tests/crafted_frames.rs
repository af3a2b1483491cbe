//! Hostile fragment fields: frames whose `num_frags`/`frag_mask` pair no
//! sender can produce (zero fragments, more than the 16 a mask can name, or
//! a mask bit beyond the count) are crafted by hand, pushed through the
//! lower session a protocol receives on, and must be dropped at demux and
//! counted as corrupt, never reassembled, dispatched, or completed.

use inet::testbed::{base_registry, two_hosts, TwoHosts};
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::hdr::{flags, frag_type, FragmentHdr, SpriteHdr};
use xrpc::procs::NULL_PROC;
use xrpc::protnum::rel_proto_num;
use xrpc::stacks::{L_RPC_VIP, M_RPC_IP};

fn rig(graph: &str) -> TwoHosts {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    two_hosts(SimConfig::inline_mode(), &reg, graph).expect("testbed builds")
}

/// Opens `lower` on `ctx`'s host towards `peer` for protocol `upper`, the
/// session `upper` itself would send on.
fn lower_session(ctx: &Ctx, lower: &str, upper: &str, peer: IpAddr) -> SessionRef {
    let k = ctx.kernel();
    let (lower_id, upper_id) = (k.lookup(lower).unwrap(), k.lookup(upper).unwrap());
    let upper_name = k.proto(upper_id).unwrap().name();
    let parts = ParticipantSet::pair(
        Participant::proto(rel_proto_num(lower, upper_name).unwrap()),
        Participant::host(peer),
    );
    k.open(ctx, lower_id, upper_id, &parts).unwrap()
}

fn frame(ctx: &Ctx, header: &[u8], payload: &[u8]) -> Message {
    let mut m = ctx.msg(payload.to_vec());
    ctx.push_header(&mut m, header);
    m
}

#[test]
fn fragment_drops_impossible_fragment_counts() {
    let tb = rig(L_RPC_VIP.graph);
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    let ctx = tb.sim.ctx(tb.client.host());
    let sess = lower_session(&ctx, "vip", "fragment", tb.server_ip);
    let proto_num = rel_proto_num("fragment", "channel").unwrap();
    let crafted = [
        // More fragments than the mask has bits: the receiver's
        // `(1 << num_frags) - 1` used to overflow.
        (frag_type::DATA, 17, 1),
        (frag_type::DATA, u16::MAX, 1),
        // No fragments at all.
        (frag_type::DATA, 0, 1),
        // A fragment index beyond the count.
        (frag_type::DATA, 2, 1 << 5),
        (frag_type::NACK, 17, 1),
    ];
    let before = tb.sim.host_stats(tb.server.host()).corrupt_rejected;
    for (seq, &(typ, num_frags, frag_mask)) in crafted.iter().enumerate() {
        let hdr = FragmentHdr {
            typ,
            clnt_host: tb.client_ip,
            srvr_host: tb.server_ip,
            protocol_num: proto_num,
            sequence_num: 9_000 + seq as u32,
            num_frags,
            frag_mask,
            len: 8,
        };
        sess.push(&ctx, frame(&ctx, &hdr.encode(), &[0xa5; 8]))
            .expect("the frame itself travels");
    }
    let after = tb.sim.host_stats(tb.server.host()).corrupt_rejected;
    assert_eq!(
        after - before,
        crafted.len() as u64,
        "every crafted frame is counted as corrupt"
    );
    // Nothing was left half-reassembled, and the stack still works.
    let frag_reassembling =
        inet::with_concrete::<xrpc::fragment::Fragment, _>(&tb.server, "fragment", |f| {
            f.reassembling()
        })
        .unwrap();
    assert_eq!(frag_reassembling, 0);
    let reply = xrpc::call(&ctx, &tb.client, "select", tb.server_ip, NULL_PROC, vec![]);
    assert_eq!(reply.as_deref(), Ok(&[][..]));
}

/// A procedure that counts its invocations, for telling whether a forged
/// request was dispatched.
const COUNTED_PROC: u16 = 9;
/// A procedure that replies with [`REAL_REPLY`] after forging, through
/// the server's own lower session, a REPLY with `num_frags = 0` for every
/// client channel's first call.
const FORGING_PROC: u16 = 10;
const REAL_REPLY: &[u8] = b"the genuine reply";

#[test]
fn sprite_rpc_drops_impossible_fragment_counts() {
    let tb = rig(M_RPC_IP.graph);
    let invoked = std::rc::Rc::new(std::cell::Cell::new(0u32));
    let seen = std::rc::Rc::clone(&invoked);
    xrpc::serve(&tb.server, "mrpc", COUNTED_PROC, move |_ctx, _msg| {
        seen.set(seen.get() + 1);
        Ok(Message::empty())
    })
    .unwrap();
    let (client_ip, server_ip) = (tb.client_ip, tb.server_ip);
    xrpc::serve(&tb.server, "mrpc", FORGING_PROC, move |ctx, _msg| {
        let sess = lower_session(ctx, "ip", "mrpc", client_ip);
        for channel in 1..=8 {
            let forged = SpriteHdr {
                flags: flags::REPLY,
                clnt_host: client_ip,
                srvr_host: server_ip,
                channel,
                sequence_num: 1,
                num_frags: 0,
                frag_mask: 0,
                command: FORGING_PROC,
                ..SpriteHdr::default()
            };
            sess.push(ctx, frame(ctx, &forged.encode(), &[]))?;
        }
        Ok(ctx.msg(REAL_REPLY.to_vec()))
    })
    .unwrap();

    // A REPLY with no fragments used to complete the outstanding call at
    // once, with an empty body.
    let ctx = tb.sim.ctx(tb.client.host());
    let server_before = tb.sim.host_stats(tb.server.host()).corrupt_rejected;
    let client_before = tb.sim.host_stats(tb.client.host()).corrupt_rejected;
    let reply = xrpc::call(&ctx, &tb.client, "mrpc", server_ip, FORGING_PROC, vec![]);
    assert_eq!(reply.as_deref(), Ok(REAL_REPLY));
    assert_eq!(
        tb.sim.host_stats(tb.client.host()).corrupt_rejected - client_before,
        8
    );

    // A REQUEST with no fragments used to dispatch an empty request; one
    // with more than 16, or a fragment bit beyond its count, must not
    // start a reassembly either.
    let sess = lower_session(&ctx, "ip", "mrpc", server_ip);
    for (seq, (num_frags, frag_mask)) in [(0, 0), (0, 1), (17, 1), (2, 1 << 3)]
        .into_iter()
        .enumerate()
    {
        let forged = SpriteHdr {
            flags: flags::REQUEST,
            clnt_host: client_ip,
            srvr_host: server_ip,
            channel: 99,
            sequence_num: 1 + seq as u32,
            num_frags,
            frag_mask,
            command: COUNTED_PROC,
            boot_id: 7,
            ..SpriteHdr::default()
        };
        sess.push(&ctx, frame(&ctx, &forged.encode(), &[]))
            .expect("the frame itself travels");
    }
    assert_eq!(invoked.get(), 0, "no forged request reached the procedure");
    assert_eq!(
        tb.sim.host_stats(tb.server.host()).corrupt_rejected - server_before,
        4
    );
    let reply = xrpc::call(&ctx, &tb.client, "mrpc", server_ip, COUNTED_PROC, vec![]);
    assert_eq!(reply.as_deref(), Ok(&[][..]));
    assert_eq!(invoked.get(), 1);
}
