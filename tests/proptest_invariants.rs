//! Property-based tests over the workspace's core invariants: the message
//! rope, every wire codec, the Internet checksum, XDR, simulator
//! determinism, and at-most-once execution under randomized fault plans.

use proptest::prelude::*;

use xkernel::msg::{HeaderPolicy, Message};
use xkernel::prelude::*;
use xkernel::wire::internet_checksum;

// ---------------------------------------------------------------------------
// Message rope: model-based testing against a plain byte vector.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MsgOp {
    PushHeader(Vec<u8>),
    PopHeader(usize),
    SplitOffAndRejoin(usize),
    Truncate(usize),
    Append(Vec<u8>),
}

fn msg_op() -> impl Strategy<Value = MsgOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..40).prop_map(MsgOp::PushHeader),
        (1usize..40).prop_map(MsgOp::PopHeader),
        (0usize..5000).prop_map(MsgOp::SplitOffAndRejoin),
        (0usize..5000).prop_map(MsgOp::Truncate),
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(MsgOp::Append),
    ]
}

fn apply(model: &mut Vec<u8>, msg: &mut Message, op: &MsgOp) {
    match op {
        MsgOp::PushHeader(h) => {
            msg.push_header(h);
            let mut m = h.clone();
            m.extend_from_slice(model);
            *model = m;
        }
        MsgOp::PopHeader(n) => {
            let r = msg.pop_header(*n);
            if *n <= model.len() {
                let bytes = r.expect("in-range pop succeeds");
                assert_eq!(&*bytes, &model[..*n]);
                drop(bytes);
                model.drain(..*n);
            } else {
                assert!(r.is_err(), "out-of-range pop must fail");
            }
        }
        MsgOp::SplitOffAndRejoin(at) => {
            if *at <= model.len() {
                let tail = msg.split_off(*at).expect("in-range split");
                msg.append(tail);
            } else {
                assert!(msg.split_off(*at).is_err());
            }
        }
        MsgOp::Truncate(n) => {
            msg.truncate(*n);
            model.truncate(*n);
        }
        MsgOp::Append(data) => {
            msg.append(Message::from_user(data.clone()));
            model.extend_from_slice(data);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_matches_byte_vector_model(
        initial in proptest::collection::vec(any::<u8>(), 0..2000),
        ops in proptest::collection::vec(msg_op(), 0..30),
        alloc_policy in any::<bool>(),
    ) {
        let policy = if alloc_policy {
            HeaderPolicy::AllocPerHeader
        } else {
            HeaderPolicy::default()
        };
        let mut model = initial.clone();
        let mut msg = Message::from_user_with(policy, initial);
        for op in &ops {
            apply(&mut model, &mut msg, op);
            prop_assert_eq!(msg.len(), model.len());
        }
        prop_assert_eq!(msg.to_vec(), model);
    }

    #[test]
    fn fragmentation_reassembly_identity(
        data in proptest::collection::vec(any::<u8>(), 1..20_000),
        frag_size in 1usize..2000,
    ) {
        let original = Message::from_user(data.clone());
        let mut rest = original.clone();
        let mut frags = Vec::new();
        while rest.len() > frag_size {
            let tail = rest.split_off(frag_size).unwrap();
            frags.push(std::mem::replace(&mut rest, tail));
        }
        frags.push(rest);
        for f in &frags {
            prop_assert!(f.len() <= frag_size);
        }
        let whole = Message::concat(frags);
        prop_assert_eq!(whole.to_vec(), data);
    }

    // -----------------------------------------------------------------------
    // Wire codecs.
    // -----------------------------------------------------------------------

    #[test]
    fn sprite_header_roundtrips(
        flags in any::<u16>(), clnt in any::<u32>(), srvr in any::<u32>(),
        channel in any::<u16>(), seq in any::<u32>(), num in any::<u16>(),
        mask in any::<u16>(), command in any::<u16>(), boot in any::<u32>(),
        d1 in any::<u16>(), off in any::<u16>(),
    ) {
        let h = xrpc::hdr::SpriteHdr {
            flags, clnt_host: IpAddr(clnt), srvr_host: IpAddr(srvr),
            channel, srvr_process: 0, sequence_num: seq, num_frags: num,
            frag_mask: mask, command, boot_id: boot, data1_sz: d1,
            data2_sz: 0, data1_offset: off, data2_offset: 0,
        };
        prop_assert_eq!(xrpc::hdr::SpriteHdr::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn channel_and_fragment_headers_roundtrip(
        a in any::<u16>(), b in any::<u16>(), c in any::<u32>(),
        d in any::<u32>(), e in any::<u16>(), f in any::<u32>(),
        ip1 in any::<u32>(), ip2 in any::<u32>(), ty in any::<u8>(),
    ) {
        let ch = xrpc::hdr::ChannelHdr {
            flags: a, channel: b, protocol_num: c, sequence_num: d,
            error: e, boot_id: f,
        };
        prop_assert_eq!(xrpc::hdr::ChannelHdr::decode(&ch.encode()).unwrap(), ch);
        let fr = xrpc::hdr::FragmentHdr {
            typ: ty, clnt_host: IpAddr(ip1), srvr_host: IpAddr(ip2),
            protocol_num: c, sequence_num: d, num_frags: a, frag_mask: b,
            len: e,
        };
        prop_assert_eq!(xrpc::hdr::FragmentHdr::decode(&fr.encode()).unwrap(), fr);
    }

    #[test]
    fn ip_header_roundtrips_and_checksums(
        total in 20u16..4000, id in any::<u16>(), mf in any::<bool>(),
        off in 0u16..0x1fff, ttl in 1u8..64, proto in any::<u8>(),
        src in any::<u32>(), dst in any::<u32>(),
    ) {
        let h = inet::ip::IpHeader {
            total_len: total, id, more_frags: mf, frag_off: off, ttl, proto,
            src: IpAddr(src), dst: IpAddr(dst),
        };
        let bytes = h.encode();
        prop_assert_eq!(internet_checksum(&[&bytes]), 0, "self-verifying");
        prop_assert_eq!(inet::ip::IpHeader::decode(&bytes).unwrap(), h);
        // Any single-bit flip must be caught by the checksum.
        let mut corrupted = bytes;
        corrupted[(id as usize) % 20] ^= 1 << (ttl % 8);
        prop_assert!(inet::ip::IpHeader::decode(&corrupted).is_err());
    }

    #[test]
    fn checksum_detects_any_single_bit_flip(
        mut data in proptest::collection::vec(any::<u8>(), 2..256),
        bit in any::<u16>(),
    ) {
        // One's-complement sums pair bytes, so verify-by-appending only
        // works on even-length data — which is why the protocols that use
        // it (IP/TCP headers, pseudo-headers) are all even-sized.
        if data.len() % 2 != 0 {
            data.pop();
        }
        let mut with_ck = data.clone();
        let ck = internet_checksum(&[&data]);
        with_ck.extend_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(internet_checksum(&[&with_ck]), 0);
        let i = (bit as usize / 8) % data.len();
        let b = bit % 8;
        let mut flipped = with_ck.clone();
        flipped[i] ^= 1 << b;
        prop_assert_ne!(internet_checksum(&[&flipped]), 0);
    }

    #[test]
    fn xdr_roundtrips(
        a in any::<u32>(), b in any::<i32>(), c in any::<u64>(),
        s in "[a-zA-Z0-9 ]{0,40}",
        blob in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut w = sunrpc::xdr::XdrWriter::new();
        w.u32(a).i32(b).u64(c).string(&s).opaque(&blob).bool(true);
        let bytes = w.finish();
        prop_assert_eq!(bytes.len() % 4, 0);
        let mut r = sunrpc::xdr::XdrReader::new(&bytes);
        prop_assert_eq!(r.u32().unwrap(), a);
        prop_assert_eq!(r.i32().unwrap(), b);
        prop_assert_eq!(r.u64().unwrap(), c);
        prop_assert_eq!(r.string().unwrap(), s);
        prop_assert_eq!(r.opaque().unwrap(), &blob[..]);
        prop_assert!(r.bool().unwrap());
        prop_assert_eq!(r.remaining(), 0);
    }
}

// ---------------------------------------------------------------------------
// Scheduler journal: wire round-trip and total decoding.
// ---------------------------------------------------------------------------

fn journal_record() -> impl Strategy<Value = xkernel::journal::JournalRecord> {
    use xkernel::journal::JournalRecord;
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(n, pick)| JournalRecord::TiePick { n, pick }),
        (any::<u32>(), any::<u64>(), 1u8..5, any::<u64>()).prop_map(|(lan, index, kind, aux)| {
            JournalRecord::Fault {
                lan,
                index,
                kind,
                aux,
            }
        }),
        (any::<u32>(), 0u8..2, any::<u64>()).prop_map(|(host, kind, t)| JournalRecord::Boot {
            host,
            kind,
            t
        }),
    ]
}

fn journal() -> impl Strategy<Value = xkernel::journal::Journal> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(journal_record(), 0..64),
    )
        .prop_map(|(seed, sched_hash, records)| xkernel::journal::Journal {
            version: xkernel::journal::JOURNAL_VERSION,
            seed,
            sched_hash,
            records,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn journal_encoding_roundtrips(j in journal()) {
        let bytes = j.encode();
        prop_assert_eq!(xkernel::journal::Journal::decode(&bytes).unwrap(), j);
    }

    #[test]
    fn truncated_journals_fail_cleanly(j in journal(), keep_per_mille in 0u32..1000) {
        // Any strict prefix decodes to a clean Truncated error — no panic,
        // no partial success.
        let bytes = j.encode();
        let cut = (bytes.len() as u64 * u64::from(keep_per_mille) / 1000) as usize;
        prop_assert_eq!(
            xkernel::journal::Journal::decode(&bytes[..cut]).unwrap_err(),
            xkernel::journal::JournalError::Truncated
        );
    }

    #[test]
    fn corrupt_journals_never_panic(
        j in journal(),
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..8),
    ) {
        // Decoding is total: arbitrary byte corruption yields Ok (when the
        // flip lands in a value field) or a clean JournalError — never a
        // panic, never an out-of-bounds read.
        let mut bytes = j.encode();
        for (pos, mask) in flips {
            let at = (pos % bytes.len() as u64) as usize;
            bytes[at] ^= mask;
        }
        let _ = xkernel::journal::Journal::decode(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Whole-system properties (fewer cases; each builds a simulation).
// ---------------------------------------------------------------------------

fn rpc_registry() -> xkernel::graph::ProtocolRegistry {
    let mut reg = inet::testbed::base_registry();
    xrpc::register_ctors(&mut reg);
    reg
}

/// Runs `calls` L_RPC invocations of a counting procedure under the given
/// seed/loss and returns (server executions, client completions).
fn run_at_most_once(seed: u64, loss_per_mille: u32, calls: u32) -> (u32, u32) {
    use std::cell::RefCell;
    use std::rc::Rc;
    let cfg = xkernel::sim::SimConfig::scheduled().with_seed(seed);
    let tb = inet::testbed::two_hosts(cfg, &rpc_registry(), xrpc::stacks::L_RPC_VIP.graph)
        .expect("testbed");
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    let counter = Rc::new(RefCell::new(0u32));
    let c2 = Rc::clone(&counter);
    xrpc::serve(&tb.server, "select", 7, move |ctx, _| {
        *c2.borrow_mut() += 1;
        Ok(ctx.empty_msg())
    })
    .unwrap();
    // Warm ARP and the session caches on a clean wire, then inject faults:
    // the property under test is the RPC machinery's, not ARP's.
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        xrpc::call(
            ctx,
            k,
            "select",
            server_ip,
            xrpc::procs::NULL_PROC,
            Vec::new(),
        )
        .unwrap();
    });
    let warm = tb.sim.run_until_idle();
    assert_eq!(warm.blocked, 0);
    tb.net
        .set_faults(tb.lan, simnet::fault::FaultPlan::lossy(loss_per_mille));
    let done = Rc::new(RefCell::new(0u32));
    let d2 = Rc::clone(&done);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..calls {
            xrpc::call(ctx, k, "select", server_ip, 7, vec![9]).unwrap();
            *d2.borrow_mut() += 1;
        }
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let result = (*counter.borrow_mut(), *done.borrow_mut());
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn at_most_once_holds_for_any_seed_and_loss(
        seed in any::<u64>(),
        loss in 0u32..180,
    ) {
        let calls = 8;
        let (executed, completed) = run_at_most_once(seed, loss, calls);
        prop_assert_eq!(completed, calls);
        prop_assert_eq!(executed, calls,
            "seed {} loss {}: at-most-once must hold", seed, loss);
    }

    #[test]
    fn simulation_is_deterministic_per_seed(seed in any::<u64>()) {
        let a = run_at_most_once(seed, 120, 6);
        let b = run_at_most_once(seed, 120, 6);
        prop_assert_eq!(a, b, "same seed, same outcome");
    }
}
