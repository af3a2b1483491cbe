//! A Sprite-style network file service over layered RPC — the workload the
//! paper's RPC exists for (Sprite is a network operating system whose file
//! system runs on this RPC; arguments and results up to 16 k).
//!
//! The server exports OPEN / READ / WRITE / CLOSE procedures over the
//! SELECT-CHANNEL-FRAGMENT stack on VIP; the client copies a "file" to the
//! server and reads it back in 16 k chunks — through a lossy wire, to show
//! the whole recovery machinery (FRAGMENT NACKs, CHANNEL retransmission,
//! at-most-once filtering) earning its keep.
//!
//! ```text
//! cargo run --example file_server
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simnet::fault::FaultPlan;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};
use xrpc::fragment::Fragment;

const OPEN: u16 = 10;
const WRITE: u16 = 11;
const READ: u16 = 12;
const CLOSE: u16 = 13;

/// 16 k, the paper's maximum argument/return size.
const CHUNK: usize = 16_000;

struct FileStore {
    files: RefCell<HashMap<u32, Vec<u8>>>,
    next_fd: RefCell<u32>,
}

fn be32(v: &[u8]) -> u32 {
    u32::from_be_bytes([v[0], v[1], v[2], v[3]])
}

fn main() -> XResult<()> {
    let sim = Sim::new(SimConfig::scheduled());
    let net = simnet::SimNet::new(&sim);
    let lan = net.add_lan(simnet::LanConfig::default());
    // A noticeably bad wire: 3% loss, 1% duplication.
    net.set_faults(
        lan,
        FaultPlan {
            drop_per_mille: 30,
            dup_per_mille: 10,
            ..FaultPlan::default()
        },
    );

    let mut registry = xkernel::graph::ProtocolRegistry::new();
    inet::register_ctors(&mut registry);
    xrpc::register_ctors(&mut registry);

    let graph = |ip: &str| {
        format!(
            "{}vip -> ip eth arp\n\
             fragment -> vip\n\
             channel -> fragment\n\
             select channels=4 -> channel\n",
            inet::standard_graph("nic0", ip)
        )
    };
    let client = Kernel::new(&sim, "workstation");
    net.attach(&client, lan, "nic0", EthAddr::from_index(1))?;
    registry.build(&sim, &client, &graph("10.0.0.1"))?;
    let server = Kernel::new(&sim, "fileserver");
    net.attach(&server, lan, "nic0", EthAddr::from_index(2))?;
    registry.build(&sim, &server, &graph("10.0.0.2"))?;

    // --- Server: the file store behind four procedures. -------------------
    let store = Rc::new(FileStore {
        files: RefCell::new(HashMap::new()),
        next_fd: RefCell::new(2),
    });
    let s = Rc::clone(&store);
    xrpc::serve(&server, "select", OPEN, move |ctx, _name| {
        let mut fd = s.next_fd.borrow_mut();
        *fd += 1;
        s.files.borrow_mut().insert(*fd, Vec::new());
        Ok(ctx.msg(fd.to_be_bytes().to_vec()))
    })?;
    let s = Rc::clone(&store);
    xrpc::serve(&server, "select", WRITE, move |ctx, msg| {
        // Args: fd(4) ++ data.
        let v = msg.to_vec();
        let fd = be32(&v);
        match s.files.borrow_mut().get_mut(&fd) {
            Some(f) => {
                f.extend_from_slice(&v[4..]);
                Ok(ctx.msg((v.len() as u32 - 4).to_be_bytes().to_vec()))
            }
            None => Err(XError::Remote(format!("bad fd {fd}"))),
        }
    })?;
    let s = Rc::clone(&store);
    xrpc::serve(&server, "select", READ, move |ctx, msg| {
        // Args: fd(4) ++ offset(4) ++ len(4). Returns the bytes.
        let v = msg.to_vec();
        let (fd, off, len) = (be32(&v), be32(&v[4..]) as usize, be32(&v[8..]) as usize);
        match s.files.borrow().get(&fd) {
            Some(f) => {
                let end = (off + len).min(f.len());
                let start = off.min(end);
                Ok(ctx.msg(f[start..end].to_vec()))
            }
            None => Err(XError::Remote(format!("bad fd {fd}"))),
        }
    })?;
    let s = Rc::clone(&store);
    xrpc::serve(&server, "select", CLOSE, move |ctx, msg| {
        let fd = be32(&msg.to_vec());
        let size = s.files.borrow().get(&fd).map(Vec::len).unwrap_or(0);
        Ok(ctx.msg((size as u32).to_be_bytes().to_vec()))
    })?;

    // --- Client: copy out, read back, verify. -----------------------------
    let server_ip = IpAddr::new(10, 0, 0, 2);
    let outcome: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&outcome);
    sim.spawn(client.host(), move |ctx| {
        let k = ctx.kernel();
        let call = |ctx: &Ctx, proc_: u16, args: Vec<u8>| {
            xrpc::call(ctx, k, "select", server_ip, proc_, args).expect("rpc")
        };
        // The "file": 100 kB of structured data.
        let file: Vec<u8> = (0..100_000u32).map(|i| (i % 249) as u8).collect();

        let t0 = ctx.now();
        let fd = be32(&call(ctx, OPEN, b"/users/llp/paper.tex".to_vec()));
        for chunk in file.chunks(CHUNK) {
            let mut args = fd.to_be_bytes().to_vec();
            args.extend_from_slice(chunk);
            let wrote = be32(&call(ctx, WRITE, args));
            assert_eq!(wrote as usize, chunk.len());
        }
        let mut read_back = Vec::new();
        while read_back.len() < file.len() {
            let mut args = fd.to_be_bytes().to_vec();
            args.extend_from_slice(&(read_back.len() as u32).to_be_bytes());
            args.extend_from_slice(&(CHUNK as u32).to_be_bytes());
            let data = call(ctx, READ, args);
            assert!(!data.is_empty());
            read_back.extend_from_slice(&data);
        }
        let size = be32(&call(ctx, CLOSE, fd.to_be_bytes().to_vec()));
        assert_eq!(size as usize, file.len());
        assert_eq!(read_back, file, "bytes survived the lossy wire intact");
        let elapsed_ms = (ctx.now() - t0) as f64 / 1e6;
        *out.borrow_mut() = Some(format!(
            "copied 100000 bytes out and back in {elapsed_ms:.1} virtual ms \
             ({:.0} kbytes/sec effective)",
            200_000.0 / (elapsed_ms / 1e3) / 1024.0
        ));
    });
    let report = sim.run_until_idle();
    assert_eq!(report.blocked, 0);

    println!("{}", outcome.borrow_mut().take().unwrap());
    let stats = net.stats(lan);
    println!(
        "wire: {} frames sent, {} dropped by the fault injector, {} duplicated",
        stats.sent, stats.dropped, stats.duplicated
    );
    let frag_stats = inet::with_concrete::<Fragment, _>(&client, "fragment", |f| f.stats())?;
    println!(
        "client FRAGMENT: {} messages, {} fragments, {} NACKs received (persistence at work)",
        frag_stats.messages_sent, frag_stats.fragments_sent, frag_stats.nacks_received
    );
    Ok(())
}
