//! Big-endian wire codec helpers used by every header implementation.
//!
//! Headers in this suite are laid out field-for-field after the C structs in
//! the paper's appendix, in network byte order. Fixed-size headers encode
//! with [`FixedWriter`] into a `[u8; N]` on the stack and decode with
//! [`FixedReader`], which checks the length once and then reads every field
//! straight from the array. The variable-length encoders use
//! [`WireWriter`], which appends to a `Vec`, and [`WireReader`], which
//! checks each field; both readers report truncation as
//! [`XError::Malformed`] instead of panicking.

use crate::addr::{EthAddr, IpAddr};
use crate::error::{XError, XResult};
use crate::msg::Message;

/// Serializes a fixed-size header into a `[u8; N]`, in network byte order,
/// without touching the heap. The field methods chain like
/// [`WireWriter`]'s; [`FixedWriter::finish`] returns the array.
#[derive(Debug)]
pub struct FixedWriter<const N: usize> {
    buf: [u8; N],
    pos: usize,
}

impl<const N: usize> Default for FixedWriter<N> {
    fn default() -> FixedWriter<N> {
        FixedWriter::new()
    }
}

impl<const N: usize> FixedWriter<N> {
    /// A writer at offset 0 of a zeroed `N`-byte header.
    #[inline]
    pub fn new() -> FixedWriter<N> {
        FixedWriter {
            buf: [0; N],
            pos: 0,
        }
    }

    #[inline]
    fn put<const M: usize>(&mut self, bytes: [u8; M]) -> &mut Self {
        self.buf[self.pos..self.pos + M].copy_from_slice(&bytes);
        self.pos += M;
        self
    }

    /// Appends a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.put([v])
    }

    /// Appends a `u16` in network byte order.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.put(v.to_be_bytes())
    }

    /// Appends a `u32` in network byte order.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.put(v.to_be_bytes())
    }

    /// Appends an internet address (4 bytes).
    #[inline]
    pub fn ip(&mut self, v: IpAddr) -> &mut Self {
        self.put(v.octets())
    }

    /// Appends an Ethernet address (6 bytes).
    #[inline]
    pub fn eth(&mut self, v: EthAddr) -> &mut Self {
        self.put(v.0)
    }

    /// The encoded header. Every byte must have been written.
    #[inline]
    pub fn finish(&self) -> [u8; N] {
        debug_assert_eq!(self.pos, N, "fixed header written short");
        self.buf
    }
}

/// Deserializes a fixed-size header: the length is checked once, in
/// [`FixedReader::new`], and every field read after that is infallible.
#[derive(Debug)]
pub struct FixedReader<'a, const N: usize> {
    buf: &'a [u8; N],
    pos: usize,
}

impl<'a, const N: usize> FixedReader<'a, N> {
    /// A reader over the first `N` bytes of `bytes`; fails when fewer are
    /// present. `what` names the header for the error text.
    #[inline]
    pub fn new(bytes: &'a [u8], what: &'static str) -> XResult<FixedReader<'a, N>> {
        match bytes.first_chunk::<N>() {
            Some(buf) => Ok(FixedReader { buf, pos: 0 }),
            None => Err(XError::Malformed(format!(
                "{what}: truncated, {} of {N} bytes",
                bytes.len()
            ))),
        }
    }

    #[inline]
    fn take<const M: usize>(&mut self) -> [u8; M] {
        let mut out = [0; M];
        out.copy_from_slice(&self.buf[self.pos..self.pos + M]);
        self.pos += M;
        out
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> u8 {
        let [b] = self.take();
        b
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take())
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take())
    }

    /// Reads an internet address.
    #[inline]
    pub fn ip(&mut self) -> IpAddr {
        IpAddr(self.u32())
    }

    /// Reads an Ethernet address.
    #[inline]
    pub fn eth(&mut self) -> EthAddr {
        EthAddr(self.take())
    }
}

/// Serializes header fields in network byte order.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates a writer with capacity for `cap` bytes.
    pub fn with_capacity(cap: usize) -> WireWriter {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u16` in network byte order.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a `u32` in network byte order.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an internet address (4 bytes).
    pub fn ip(&mut self, v: IpAddr) -> &mut Self {
        self.buf.extend_from_slice(&v.octets());
        self
    }

    /// Appends an Ethernet address (6 bytes).
    pub fn eth(&mut self, v: EthAddr) -> &mut Self {
        self.buf.extend_from_slice(&v.0);
        self
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializes header fields in network byte order.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`; `what` names the header for error text.
    pub fn new(buf: &'a [u8], what: &'static str) -> WireReader<'a> {
        WireReader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> XResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.err())?;
        if end > self.buf.len() {
            return Err(self.err());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn err(&self) -> XError {
        XError::Malformed(format!(
            "{}: truncated at offset {} of {}",
            self.what,
            self.pos,
            self.buf.len()
        ))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> XResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> XResult<u16> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> XResult<u32> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads an internet address.
    pub fn ip(&mut self) -> XResult<IpAddr> {
        Ok(IpAddr(self.u32()?))
    }

    /// Reads an Ethernet address.
    pub fn eth(&mut self) -> XResult<EthAddr> {
        let s = self.take(6)?;
        let mut a = [0u8; 6];
        a.copy_from_slice(s);
        Ok(EthAddr(a))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> XResult<&'a [u8]> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    pub fn offset(&self) -> usize {
        self.pos
    }
}

/// The Internet checksum (RFC 1071 one's-complement sum) over `data`,
/// used by the IP header and the UDP/TCP pseudo-header checksums.
pub fn internet_checksum(chunks: &[&[u8]]) -> u16 {
    let mut sum: u32 = 0;
    // Odd-length chunks are treated as if zero-padded, matching how the
    // checksum composes over pseudo-header + header + data.
    for data in chunks {
        let mut i = 0;
        while i + 1 < data.len() {
            sum += u32::from(u16::from_be_bytes([data[i], data[i + 1]]));
            i += 2;
        }
        if i < data.len() {
            sum += u32::from(u16::from_be_bytes([data[i], 0]));
        }
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Incremental Internet checksum over a *byte stream* fed in arbitrary
/// chunks. Unlike [`internet_checksum`], which zero-pads each odd-length
/// chunk independently, this accumulator carries an odd trailing byte into
/// the next chunk, so folding a message segment-by-segment yields exactly
/// the checksum of the concatenated bytes — however the rope happens to be
/// split. This is what lets UDP/TCP checksum a [`Message`] without ever
/// materializing a contiguous copy.
///
/// Feed even-length prefix chunks (pseudo-header, protocol header) with
/// [`ChecksumAcc::add`], the payload with [`ChecksumAcc::add_message`], and
/// read the ones-complement result with [`ChecksumAcc::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChecksumAcc {
    sum: u64,
    /// The high byte of a 16-bit word whose low byte arrives in a later
    /// chunk (set iff an odd number of bytes has been absorbed so far).
    pending: Option<u8>,
}

impl ChecksumAcc {
    /// A fresh accumulator (sum 0, no half-word pending).
    pub fn new() -> ChecksumAcc {
        ChecksumAcc::default()
    }

    /// Absorbs `data`, pairing any byte left over from the previous chunk.
    pub fn add(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            match data.first() {
                Some(&lo) => {
                    self.sum += u64::from(u16::from_be_bytes([hi, lo]));
                    data = &data[1..];
                }
                None => {
                    self.pending = Some(hi);
                    return;
                }
            }
        }
        let mut i = 0;
        while i + 1 < data.len() {
            self.sum += u64::from(u16::from_be_bytes([data[i], data[i + 1]]));
            i += 2;
        }
        if i < data.len() {
            self.pending = Some(data[i]);
        }
    }

    /// Absorbs every byte of `msg` in order, borrowing each segment.
    pub fn add_message(&mut self, msg: &Message) {
        msg.for_each_segment(|seg| self.add(seg));
    }

    /// Folds and complements: the value to place in (or compare against)
    /// a checksum field. A trailing odd byte is zero-padded, as RFC 1071
    /// prescribes for the end of the data.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        if let Some(hi) = self.pending {
            sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = WireWriter::with_capacity(32);
        w.u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .ip(IpAddr::new(1, 2, 3, 4))
            .eth(EthAddr::from_index(5))
            .bytes(&[9, 9, 9]);
        let buf = w.finish();
        assert_eq!(buf.len(), 1 + 2 + 4 + 4 + 6 + 3);

        let mut r = WireReader::new(&buf, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.ip().unwrap(), IpAddr::new(1, 2, 3, 4));
        assert_eq!(r.eth().unwrap(), EthAddr::from_index(5));
        assert_eq!(r.bytes(3).unwrap(), &[9, 9, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fixed_writer_reader_roundtrip() {
        let buf = FixedWriter::<19>::new()
            .u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .ip(IpAddr::new(1, 2, 3, 4))
            .eth(EthAddr::from_index(5))
            .u16(9)
            .finish();
        let mut w = WireWriter::with_capacity(19);
        w.u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .ip(IpAddr::new(1, 2, 3, 4))
            .eth(EthAddr::from_index(5))
            .u16(9);
        assert_eq!(
            &buf[..],
            &w.finish()[..],
            "both writers lay bytes out alike"
        );

        // Trailing bytes beyond N are ignored, as WireReader ignores them.
        let mut long = buf.to_vec();
        long.push(0xff);
        let mut r = FixedReader::<19>::new(&long, "test").unwrap();
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u16(), 0xbeef);
        assert_eq!(r.u32(), 0xdead_beef);
        assert_eq!(r.ip(), IpAddr::new(1, 2, 3, 4));
        assert_eq!(r.eth(), EthAddr::from_index(5));
        assert_eq!(r.u16(), 9);
    }

    #[test]
    fn fixed_reader_rejects_short_input_up_front() {
        let err = FixedReader::<4>::new(&[1, 2, 3], "short").unwrap_err();
        match err {
            XError::Malformed(s) => assert!(s.contains("short"), "{s}"),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(FixedReader::<0>::new(&[], "empty").is_ok());
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = WireReader::new(&[1, 2], "short");
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        match err {
            XError::Malformed(s) => assert!(s.contains("short")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071: the sum of these words is 0xddf2, so the
        // checksum is !0xddf2 = 0x220d.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&[&data]), 0x220d);
    }

    #[test]
    fn checksum_verifies_to_zero() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        let c = internet_checksum(&[&data]);
        data.extend_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&[&data]), 0);
    }

    #[test]
    fn checksum_chunking_is_associative_for_even_chunks() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 8];
        let joined = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(internet_checksum(&[&a, &b]), internet_checksum(&[&joined]));
    }

    fn stream(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 % 251) as u8).collect()
    }

    fn acc_over_chunks(chunks: &[&[u8]]) -> u16 {
        let mut acc = ChecksumAcc::new();
        for c in chunks {
            acc.add(c);
        }
        acc.finish()
    }

    #[test]
    fn acc_matches_contiguous_at_every_split_point() {
        // Odd and even splits, odd and even total lengths: the accumulator
        // must carry the half-word across the boundary, which the
        // chunk-padding internet_checksum deliberately does not.
        for total in [8usize, 9, 64, 65] {
            let data = stream(total);
            let whole = internet_checksum(&[&data]);
            for at in 0..=total {
                let (l, r) = data.split_at(at);
                assert_eq!(acc_over_chunks(&[l, r]), whole, "split at {at} of {total}");
            }
        }
    }

    #[test]
    fn acc_handles_empty_and_single_byte_chunks() {
        let data = stream(11);
        let whole = internet_checksum(&[&data]);
        // All-singleton feed, with empty chunks interleaved (including one
        // arriving while a half-word is pending).
        let mut acc = ChecksumAcc::new();
        for (i, b) in data.iter().enumerate() {
            acc.add(&[]);
            acc.add(std::slice::from_ref(b));
            if i % 3 == 0 {
                acc.add(&[]);
            }
        }
        assert_eq!(acc.finish(), whole);
        assert_eq!(acc_over_chunks(&[]), internet_checksum(&[]));
    }

    #[test]
    fn acc_folds_message_segments_like_contiguous_bytes() {
        // Build messages whose ropes are split at odd offsets via headers,
        // split_off/append, and partial pops; the segment fold must always
        // equal the checksum of to_vec().
        let mut m = Message::from_user(stream(1000));
        m.push_header(&stream(7)); // Odd-length front.
        let tail = m.split_off(333).unwrap(); // Odd split inside the rope.
        m.append(tail);
        let _ = m.pop_header(3).unwrap(); // Partial pop leaves odd offset.
        let mut popped_to_empty = Message::from_user(stream(5));
        let _ = popped_to_empty.pop_header(5).unwrap(); // Now empty.
        m.append(popped_to_empty); // Appending empties is harmless.

        let mut seg_count = 0;
        m.for_each_segment(|_| seg_count += 1);
        assert!(seg_count >= 2, "rope must actually be fragmented");

        let contiguous = m.to_vec();
        let mut acc = ChecksumAcc::new();
        acc.add_message(&m);
        assert_eq!(acc.finish(), internet_checksum(&[&contiguous]));

        // And with even prefix chunks in front (the pseudo-header shape).
        let pseudo = stream(12);
        let hdr = stream(8);
        let mut acc = ChecksumAcc::new();
        acc.add(&pseudo);
        acc.add(&hdr);
        acc.add_message(&m);
        assert_eq!(
            acc.finish(),
            internet_checksum(&[&pseudo, &hdr, &contiguous])
        );
    }
}
