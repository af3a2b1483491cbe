//! Addressing types shared by every protocol in the suite.
//!
//! The paper's implementation identifies hosts with 32-bit IP addresses
//! (Sprite host numbers are also 32 bits, so the substitution is lossless)
//! and network attachment points with 48-bit Ethernet addresses. Participants
//! in an `open`/`open_enable`/`open_done` call are described by a
//! [`ParticipantSet`], whose first element is by convention the local
//! participant.

use core::fmt;

/// A 32-bit internet address, e.g. `10.0.0.1`.
///
/// This is our own type rather than `std::net::Ipv4Addr` because the whole
/// stack (including the simulated wire) speaks this address format and we
/// want header codecs to control the byte layout explicitly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// The all-zero address, used as "unspecified".
    pub const ANY: IpAddr = IpAddr(0);
    /// Limited broadcast (`255.255.255.255`).
    pub const BROADCAST: IpAddr = IpAddr(u32::MAX);

    /// Builds an address from dotted-quad components.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the dotted-quad components.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// True if this is the unspecified address.
    pub const fn is_any(self) -> bool {
        self.0 == 0
    }

    /// True if this is the limited broadcast address.
    pub const fn is_broadcast(self) -> bool {
        self.0 == u32::MAX
    }

    /// Network part under `mask`, e.g. `ip.network(Netmask::C)`.
    pub const fn network(self, mask: u32) -> u32 {
        self.0 & mask
    }
}

impl fmt::Debug for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A 48-bit Ethernet (MAC) address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EthAddr(pub [u8; 6]);

impl EthAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthAddr = EthAddr([0xff; 6]);

    /// A locally-administered unicast address derived from a small index,
    /// convenient when wiring up simulated hosts.
    pub const fn from_index(i: u16) -> EthAddr {
        let [hi, lo] = i.to_be_bytes();
        EthAddr([0x02, 0x00, 0x5e, 0x00, hi, lo])
    }

    /// True if this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == EthAddr::BROADCAST
    }
}

impl fmt::Debug for EthAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Display for EthAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A 16-bit transport port number (UDP, TCP).
pub type Port = u16;

/// One participant in a communication, as passed to `open`.
///
/// Different protocol levels care about different components; a participant
/// carries whichever are known. Unknown components are simply absent, which
/// is how `open_enable` expresses "any peer".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Participant {
    /// Host identified by internet address.
    pub host: Option<IpAddr>,
    /// Transport-level port.
    pub port: Option<Port>,
    /// Protocol number relative to the protocol being opened (e.g. an
    /// 8-bit IP protocol number or a 16-bit Ethernet type).
    pub proto_num: Option<u32>,
    /// Hardware address, when the opener already knows it.
    pub eth: Option<EthAddr>,
}

impl Participant {
    /// A participant known only by host address.
    pub fn host(ip: IpAddr) -> Participant {
        Participant {
            host: Some(ip),
            ..Participant::default()
        }
    }

    /// A participant known by host address and port.
    pub fn host_port(ip: IpAddr, port: Port) -> Participant {
        Participant {
            host: Some(ip),
            port: Some(port),
            ..Participant::default()
        }
    }

    /// A participant known only by a protocol number (typical for
    /// `open_enable`: "deliver protocol 42 to me").
    pub fn proto(num: u32) -> Participant {
        Participant {
            proto_num: Some(num),
            ..Participant::default()
        }
    }

    /// Adds a protocol number.
    pub fn with_proto(mut self, num: u32) -> Participant {
        self.proto_num = Some(num);
        self
    }

    /// Adds a hardware address.
    pub fn with_eth(mut self, eth: EthAddr) -> Participant {
        self.eth = Some(eth);
        self
    }

    /// Adds a port.
    pub fn with_port(mut self, port: Port) -> Participant {
        self.port = Some(port);
        self
    }
}

/// Most participants one [`ParticipantSet`] holds: the local one and up to
/// two peers.
pub const MAX_PARTICIPANTS: usize = 3;

/// The participant set passed to the session-creation operations.
///
/// By the paper's convention the first element identifies the *local*
/// participant and the remaining elements identify the peers. `open` and
/// `open_done` require all members; `open_enable` requires only the local
/// one. The members are held inline, so building a set (as every RPC call
/// does to find its session) never touches the heap.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ParticipantSet {
    // Slots at and beyond `len` stay `Participant::default()`, so the
    // derived equality compares exactly the members.
    parts: [Participant; MAX_PARTICIPANTS],
    len: usize,
}

impl ParticipantSet {
    /// An empty set (only meaningful as a builder start).
    pub fn new() -> ParticipantSet {
        ParticipantSet::default()
    }

    /// A set with a local participant only, as used by `open_enable`.
    pub fn local(p: Participant) -> ParticipantSet {
        ParticipantSet::new().with_peer(p)
    }

    /// A two-party set: local participant then remote peer, the common case
    /// for `open`.
    pub fn pair(local: Participant, remote: Participant) -> ParticipantSet {
        ParticipantSet::local(local).with_peer(remote)
    }

    /// Appends a peer (the local participant, when the set is empty).
    ///
    /// # Panics
    ///
    /// If the set already holds [`MAX_PARTICIPANTS`] members.
    pub fn with_peer(mut self, p: Participant) -> ParticipantSet {
        assert!(
            self.len < MAX_PARTICIPANTS,
            "a participant set holds at most {MAX_PARTICIPANTS} participants"
        );
        self.parts[self.len] = p;
        self.len += 1;
        self
    }

    /// The local participant (first element), if present.
    pub fn local_part(&self) -> Option<&Participant> {
        self.all().first()
    }

    /// The first remote peer (second element), if present.
    pub fn remote_part(&self) -> Option<&Participant> {
        self.all().get(1)
    }

    /// All peers (everything after the local participant).
    pub fn peers(&self) -> &[Participant] {
        self.all().get(1..).unwrap_or(&[])
    }

    /// All participants, local first.
    pub fn all(&self) -> &[Participant] {
        &self.parts[..self.len]
    }

    /// Number of participants including the local one.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no participants are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for ParticipantSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParticipantSet")
            .field("parts", &self.all())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_octets_roundtrip() {
        let ip = IpAddr::new(10, 1, 2, 3);
        assert_eq!(ip.octets(), [10, 1, 2, 3]);
        assert_eq!(format!("{ip}"), "10.1.2.3");
        assert_eq!(IpAddr(u32::from_be_bytes(ip.octets())), ip);
    }

    #[test]
    fn ip_classification() {
        assert!(IpAddr::ANY.is_any());
        assert!(IpAddr::BROADCAST.is_broadcast());
        assert!(!IpAddr::new(192, 168, 0, 1).is_broadcast());
    }

    #[test]
    fn ip_network_mask() {
        let ip = IpAddr::new(192, 168, 7, 42);
        assert_eq!(ip.network(0xffff_ff00), IpAddr::new(192, 168, 7, 0).0);
        assert_eq!(ip.network(0xffff_0000), IpAddr::new(192, 168, 0, 0).0);
    }

    #[test]
    fn eth_from_index_unique_and_unicast() {
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        assert_ne!(a, b);
        assert!(!a.is_broadcast());
        assert!(EthAddr::BROADCAST.is_broadcast());
        assert_eq!(format!("{a}"), "02:00:5e:00:00:01");
    }

    #[test]
    fn participant_builders() {
        let p = Participant::host_port(IpAddr::new(1, 2, 3, 4), 99).with_proto(17);
        assert_eq!(p.host, Some(IpAddr::new(1, 2, 3, 4)));
        assert_eq!(p.port, Some(99));
        assert_eq!(p.proto_num, Some(17));
    }

    #[test]
    fn participant_set_convention() {
        let local = Participant::host(IpAddr::new(1, 0, 0, 1));
        let remote = Participant::host(IpAddr::new(1, 0, 0, 2));
        let set = ParticipantSet::pair(local, remote);
        assert_eq!(set.local_part(), Some(&local));
        assert_eq!(set.remote_part(), Some(&remote));
        assert_eq!(set.peers(), &[remote]);
        assert_eq!(set.len(), 2);

        let enable = ParticipantSet::local(Participant::proto(6));
        assert!(enable.remote_part().is_none());
        assert!(enable.peers().is_empty());

        let third = Participant::host(IpAddr::new(1, 0, 0, 3));
        let trio = set.clone().with_peer(third);
        assert_eq!(trio.peers(), &[remote, third]);
        assert_ne!(trio, set, "members, not slots, decide equality");
        assert_eq!(ParticipantSet::new().all(), &[]);
    }

    #[test]
    #[should_panic(expected = "at most 3 participants")]
    fn participant_set_is_bounded() {
        let p = Participant::proto(1);
        let _ = ParticipantSet::pair(p, p).with_peer(p).with_peer(p);
    }
}
