//! The x-kernel message abstraction.
//!
//! A [`Message`] is a logical byte string that protocols treat as a stack:
//! `push_header` prepends a header on the way down, `pop_header` removes one
//! on the way up. Two properties from the paper are load-bearing:
//!
//! 1. **Header pushes are pointer adjustments.** The current x-kernel
//!    "pre-allocates a single buffer that is large enough to hold all the
//!    headers and simply adjusts a pointer for each new header"; an earlier
//!    version allocated a fresh buffer per header and cost 0.50 msec/layer
//!    instead of 0.11. Both schemes are implemented here — see
//!    [`HeaderPolicy`] — so the ablation benchmark can compare them.
//! 2. **Layers can retain references to pieces of the same message.**
//!    The payload is a rope of reference-counted segments, so cloning a
//!    message for retransmission, fragmenting it, and reassembling fragments
//!    are all (nearly) copy-free.

use std::borrow::Cow;
use std::ops::Deref;
use std::rc::Rc;

use crate::error::{XError, XResult};

/// Default headroom reserved in front of user data for headers.
///
/// The deepest stack in this suite (SELECT+CHANNEL+FRAGMENT+IP+ETH) needs
/// well under 128 bytes of header.
pub const DEFAULT_HEADROOM: usize = 128;

/// How `push_header` obtains space for a new header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeaderPolicy {
    /// The tuned scheme: one buffer with `headroom` bytes reserved up front;
    /// each push is a copy into the reserved region plus a pointer
    /// adjustment. This is the scheme the paper measured at 0.11 msec/layer.
    Headroom {
        /// Bytes reserved for headers when a fresh front buffer is created.
        headroom: usize,
    },
    /// The legacy scheme: every push allocates a fresh buffer for the header
    /// and chains the previous contents behind it. This is the scheme the
    /// paper measured at 0.50 msec/layer; it exists for the ablation.
    AllocPerHeader,
}

impl Default for HeaderPolicy {
    fn default() -> HeaderPolicy {
        HeaderPolicy::Headroom {
            headroom: DEFAULT_HEADROOM,
        }
    }
}

/// A shared, immutable slice of payload bytes.
#[derive(Clone, Debug)]
struct Segment {
    data: Rc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Segment {
    fn from_vec(v: Vec<u8>) -> Segment {
        let end = v.len();
        Segment {
            data: Rc::new(v),
            start: 0,
            end,
        }
    }

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn bytes(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

/// The owned front buffer; valid bytes are `buf[start..]`.
#[derive(Clone, Debug, Default)]
struct FrontBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrontBuf {
    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// Cost-relevant facts about a single `push_header`, consumed by the
/// virtual-time cost accounting in [`crate::sim::Ctx::push_header`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PushStats {
    /// Whether the push had to allocate a new buffer.
    pub allocated: bool,
    /// Bytes physically copied (header bytes, plus any demoted bytes).
    pub copied: usize,
}

/// Cost-relevant facts about a single `pop_header`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PopStats {
    /// Bytes physically copied (0 on the contiguous fast path).
    pub copied: usize,
}

/// Bytes returned by [`Message::pop_header`]: borrowed on the contiguous
/// fast path, owned when the header spanned segments.
#[derive(Debug)]
pub enum Popped<'a> {
    /// Fast path: the header was contiguous; no copy was made.
    Borrowed(&'a [u8]),
    /// Slow path: the header spanned segments and was copied out.
    Owned(Vec<u8>),
}

impl Deref for Popped<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Popped::Borrowed(s) => s,
            Popped::Owned(v) => v,
        }
    }
}

impl Popped<'_> {
    /// Cost-relevant facts about the pop that produced this value.
    pub fn stats(&self) -> PopStats {
        match self {
            Popped::Borrowed(_) => PopStats { copied: 0 },
            Popped::Owned(v) => PopStats { copied: v.len() },
        }
    }
}

/// An x-kernel message: header stack + shared payload rope.
#[derive(Clone, Debug)]
pub struct Message {
    policy: HeaderPolicy,
    front: FrontBuf,
    rope: Vec<Segment>,
}

impl Message {
    /// An empty message under the default (headroom) policy.
    pub fn empty() -> Message {
        Message::empty_with(HeaderPolicy::default())
    }

    /// An empty message under an explicit policy.
    ///
    /// Under the headroom policy the header buffer is pre-allocated *here*,
    /// with message creation — "the current version pre-allocates a single
    /// buffer that is large enough to hold all the headers" — so pushes are
    /// pure pointer adjustments from the first header on.
    pub fn empty_with(policy: HeaderPolicy) -> Message {
        let front = match policy {
            HeaderPolicy::Headroom { headroom } => FrontBuf {
                buf: vec![0u8; headroom],
                start: headroom,
            },
            HeaderPolicy::AllocPerHeader => FrontBuf::default(),
        };
        Message {
            policy,
            front,
            rope: Vec::new(),
        }
    }

    /// Wraps user payload, ready for headers to be pushed in front of it.
    pub fn from_user(data: Vec<u8>) -> Message {
        Message::from_user_with(HeaderPolicy::default(), data)
    }

    /// Wraps user payload under an explicit policy.
    pub fn from_user_with(policy: HeaderPolicy, data: Vec<u8>) -> Message {
        let mut m = Message::empty_with(policy);
        if !data.is_empty() {
            m.rope.push(Segment::from_vec(data));
        }
        m
    }

    /// Wraps bytes received from the network; pops will consume from the
    /// front of this buffer by pointer adjustment.
    pub fn from_wire(data: Vec<u8>) -> Message {
        Message::from_user(data)
    }

    /// The allocation policy this message was created with.
    pub fn policy(&self) -> HeaderPolicy {
        self.policy
    }

    /// Total length in bytes (headers already pushed + payload).
    pub fn len(&self) -> usize {
        self.front.len() + self.rope.iter().map(Segment::len).sum::<usize>()
    }

    /// True if the message carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of underlying segments (front counts as one when non-empty);
    /// exposed for tests that assert zero-copy behaviour.
    pub fn segment_count(&self) -> usize {
        usize::from(self.front.len() > 0) + self.rope.len()
    }

    /// Visits every byte of the message in order as borrowed slices — the
    /// front buffer first, then each rope segment — without materializing a
    /// contiguous copy. This is the hot-path alternative to
    /// [`Message::to_vec`] for consumers that can fold over chunks
    /// (checksums, hashing, wire framing).
    pub fn for_each_segment(&self, mut f: impl FnMut(&[u8])) {
        if self.front.len() > 0 {
            f(self.front.bytes());
        }
        for seg in &self.rope {
            if seg.len() > 0 {
                f(seg.bytes());
            }
        }
    }

    /// Converts the owned front buffer into a reference-counted segment so
    /// that subsequent `clone`s share every byte instead of copying the
    /// front. One copy of the valid front bytes happens here (never the
    /// unused headroom); after that, fan-out paths that deliver the same
    /// frame to many receivers are pure `Rc` bumps.
    pub fn share(&mut self) {
        self.freeze();
    }

    fn demote_front(&mut self) {
        if self.front.len() > 0 {
            let seg = Segment::from_vec(self.front.bytes().to_vec());
            self.rope.insert(0, seg);
        }
        self.front = FrontBuf::default();
    }

    /// Prepends `header` to the message, returning what the operation cost.
    ///
    /// Under [`HeaderPolicy::Headroom`] this is a copy of the header bytes
    /// into reserved space plus a pointer adjustment; under
    /// [`HeaderPolicy::AllocPerHeader`] it allocates a fresh buffer every
    /// time, deliberately reproducing the slow legacy scheme.
    pub fn push_header(&mut self, header: &[u8]) -> PushStats {
        match self.policy {
            HeaderPolicy::Headroom { headroom } => {
                if self.front.start >= header.len() {
                    // Fast path: space is already reserved.
                    let new_start = self.front.start - header.len();
                    self.front.buf[new_start..self.front.start].copy_from_slice(header);
                    self.front.start = new_start;
                    PushStats {
                        allocated: false,
                        copied: header.len(),
                    }
                } else {
                    // Reserve a fresh front buffer with headroom; demote any
                    // existing front bytes into the rope first.
                    let demoted = self.front.len();
                    self.demote_front();
                    let room = headroom.max(header.len());
                    let mut buf = vec![0u8; room];
                    let start = room - header.len();
                    buf[start..].copy_from_slice(header);
                    self.front = FrontBuf { buf, start };
                    PushStats {
                        allocated: true,
                        copied: header.len() + demoted,
                    }
                }
            }
            HeaderPolicy::AllocPerHeader => {
                // Legacy scheme: one allocation per header, previous front
                // demoted behind it.
                let demoted = self.front.len();
                self.demote_front();
                self.front = FrontBuf {
                    buf: header.to_vec(),
                    start: 0,
                };
                PushStats {
                    allocated: true,
                    copied: header.len() + demoted,
                }
            }
        }
    }

    /// Removes `n` bytes from the front of the message and returns them.
    ///
    /// Contiguous headers are returned as a borrow (pointer adjustment, no
    /// copy); headers spanning segments are copied out.
    pub fn pop_header(&mut self, n: usize) -> XResult<Popped<'_>> {
        if n > self.len() {
            return Err(XError::Malformed(format!(
                "pop of {n} bytes from a {}-byte message",
                self.len()
            )));
        }
        if self.front.len() >= n {
            let s = self.front.start;
            self.front.start += n;
            if self.front.len() == 0 && n < self.front.buf.len() {
                // Keep buf for potential reuse; bytes remain addressable.
            }
            return Ok(Popped::Borrowed(&self.front.buf[s..s + n]));
        }
        if self.front.len() == 0 {
            // Drop empty leading segments.
            while self.rope.first().is_some_and(|s| s.len() == 0) {
                self.rope.remove(0);
            }
            if let Some(seg) = self.rope.first_mut() {
                if seg.len() >= n {
                    let s = seg.start;
                    seg.start += n;
                    let seg_done = seg.len() == 0;
                    let data = Rc::clone(&seg.data);
                    if seg_done {
                        self.rope.remove(0);
                    }
                    // The popped bytes live at absolute offset `s` in the
                    // segment's backing buffer. If the segment survives we
                    // can borrow straight from it; if it was fully consumed
                    // (and removed) we copy out of the Rc we cloned.
                    if !seg_done {
                        let seg = self.rope.first().expect("segment retained");
                        return Ok(Popped::Borrowed(&seg.data[s..s + n]));
                    }
                    return Ok(Popped::Owned(data[s..s + n].to_vec()));
                }
            }
        }
        // Slow path: spans front + one or more segments.
        let mut out = Vec::with_capacity(n);
        let take_front = self.front.len().min(n);
        out.extend_from_slice(&self.front.bytes()[..take_front]);
        self.front.start += take_front;
        let mut need = n - take_front;
        while need > 0 {
            let seg = self
                .rope
                .first_mut()
                .expect("length checked above; segments must cover pop");
            let take = seg.len().min(need);
            out.extend_from_slice(&seg.bytes()[..take]);
            seg.start += take;
            need -= take;
            if seg.len() == 0 {
                self.rope.remove(0);
            }
        }
        Ok(Popped::Owned(out))
    }

    /// Copies the first `n` bytes without consuming them.
    pub fn peek(&self, n: usize) -> XResult<Vec<u8>> {
        let mut out = vec![0; n];
        self.peek_into(&mut out)?;
        Ok(out)
    }

    /// Copies the first `out.len()` bytes into `out` without consuming
    /// them or allocating (e.g. a frame's destination address).
    pub fn peek_into(&self, out: &mut [u8]) -> XResult<()> {
        let n = out.len();
        if n > self.len() {
            return Err(XError::Malformed(format!(
                "peek of {n} bytes from a {}-byte message",
                self.len()
            )));
        }
        let take_front = self.front.len().min(n);
        out[..take_front].copy_from_slice(&self.front.bytes()[..take_front]);
        let mut at = take_front;
        for seg in &self.rope {
            if at == n {
                break;
            }
            let take = seg.len().min(n - at);
            out[at..at + take].copy_from_slice(&seg.bytes()[..take]);
            at += take;
        }
        Ok(())
    }

    /// Freezes the owned front buffer into a shared segment so the message
    /// can be split without copying.
    fn freeze(&mut self) {
        self.demote_front();
    }

    /// Splits the message at byte offset `at`; `self` keeps `[0, at)` and the
    /// returned message holds `[at, len)`. Zero-copy: fragments share the
    /// underlying segments.
    pub fn split_off(&mut self, at: usize) -> XResult<Message> {
        let total = self.len();
        if at > total {
            return Err(XError::Malformed(format!(
                "split at {at} beyond length {total}"
            )));
        }
        self.freeze();
        let mut tail = Message::empty_with(self.policy);
        let mut seen = 0usize;
        let mut idx = 0usize;
        while idx < self.rope.len() {
            let seg_len = self.rope[idx].len();
            if seen + seg_len <= at {
                seen += seg_len;
                idx += 1;
                continue;
            }
            // This segment straddles (or begins at) the split point.
            let within = at - seen;
            if within == 0 {
                tail.rope.extend(self.rope.drain(idx..));
            } else {
                let seg = &mut self.rope[idx];
                let mut right = seg.clone();
                right.start = seg.start + within;
                seg.end = seg.start + within;
                tail.rope.push(right);
                tail.rope.extend(self.rope.drain(idx + 1..));
            }
            return Ok(tail);
        }
        // at == total: tail is empty.
        Ok(tail)
    }

    /// Keeps only the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        // Reuse split_off's segment arithmetic and drop the tail.
        let _ = self.split_off(len);
    }

    /// Appends `other` after this message's bytes (cheap: shares segments).
    pub fn append(&mut self, mut other: Message) {
        self.freeze();
        other.freeze();
        self.rope.append(&mut other.rope);
    }

    /// Concatenates messages in order into one message.
    pub fn concat<I: IntoIterator<Item = Message>>(parts: I) -> Message {
        let mut it = parts.into_iter();
        let mut first = match it.next() {
            Some(m) => m,
            None => return Message::empty(),
        };
        for m in it {
            first.append(m);
        }
        first
    }

    /// Copies the whole message into one contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(self.front.bytes());
        for seg in &self.rope {
            out.extend_from_slice(seg.bytes());
        }
        out
    }

    /// A contiguous view: borrowed when the message is a single segment,
    /// copied otherwise.
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        if self.rope.is_empty() {
            Cow::Borrowed(self.front.bytes())
        } else if self.front.len() == 0 && self.rope.len() == 1 {
            Cow::Borrowed(self.rope[0].bytes())
        } else {
            Cow::Owned(self.to_vec())
        }
    }
}

impl Default for Message {
    fn default() -> Message {
        Message::empty()
    }
}

impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        // Byte-string equality, independent of segmentation.
        self.len() == other.len() && self.to_vec() == other.to_vec()
    }
}

impl Eq for Message {}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn push_pop_roundtrip_headroom() {
        let mut m = Message::from_user(payload(100));
        let s1 = m.push_header(b"CHANNEL-HDR");
        assert!(
            !s1.allocated,
            "headroom is pre-allocated with the message; pushes never allocate"
        );
        let s2 = m.push_header(b"ETH");
        assert!(!s2.allocated, "second push is a pointer adjustment");
        assert_eq!(s2.copied, 3);
        assert_eq!(m.len(), 100 + 11 + 3);

        let h = m.pop_header(3).unwrap();
        assert_eq!(&*h, b"ETH");
        assert!(matches!(h, Popped::Borrowed(_)));
        drop(h);
        let h = m.pop_header(11).unwrap();
        assert_eq!(&*h, b"CHANNEL-HDR");
        drop(h);
        assert_eq!(m.to_vec(), payload(100));
    }

    #[test]
    fn alloc_per_header_always_allocates() {
        let mut m = Message::from_user_with(HeaderPolicy::AllocPerHeader, payload(10));
        for _ in 0..4 {
            let s = m.push_header(b"HDRX");
            assert!(s.allocated);
        }
        assert_eq!(m.len(), 10 + 16);
        for _ in 0..4 {
            let h = m.pop_header(4).unwrap();
            assert_eq!(&*h, b"HDRX");
        }
        assert_eq!(m.to_vec(), payload(10));
    }

    #[test]
    fn pop_spanning_segments_copies() {
        let mut m = Message::from_user(payload(4));
        m.push_header(b"AB");
        // Pop 6 bytes: 2 from front, 4 from the rope.
        let h = m.pop_header(6).unwrap();
        assert_eq!(&*h, &[b'A', b'B', 0, 1, 2, 3][..]);
        assert!(matches!(h, Popped::Owned(_)));
        drop(h);
        assert!(m.is_empty());
    }

    #[test]
    fn pop_too_much_errors() {
        let mut m = Message::from_user(payload(4));
        assert!(m.pop_header(5).is_err());
        assert_eq!(m.len(), 4, "failed pop must not consume");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut m = Message::from_user(payload(8));
        m.push_header(b"ZZ");
        assert_eq!(m.peek(4).unwrap(), vec![b'Z', b'Z', 0, 1]);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn split_is_zero_copy_and_lossless() {
        let mut m = Message::from_user(payload(1000));
        let tail = m.split_off(400).unwrap();
        assert_eq!(m.len(), 400);
        assert_eq!(tail.len(), 600);
        // One shared allocation behind both halves.
        assert_eq!(m.segment_count(), 1);
        assert_eq!(tail.segment_count(), 1);
        let mut joined = m.clone();
        joined.append(tail);
        assert_eq!(joined.to_vec(), payload(1000));
    }

    #[test]
    fn split_at_boundaries() {
        let mut m = Message::from_user(payload(10));
        let tail = m.split_off(0).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(tail.len(), 10);

        let mut m = Message::from_user(payload(10));
        let tail = m.split_off(10).unwrap();
        assert_eq!(m.len(), 10);
        assert!(tail.is_empty());

        let mut m = Message::from_user(payload(10));
        assert!(m.split_off(11).is_err());
    }

    #[test]
    fn fragmentation_reassembly_identity() {
        let mut m = Message::from_user(payload(5000));
        m.push_header(b"BIGHDR");
        let mut frags = Vec::new();
        while m.len() > 1500 {
            let rest = m.split_off(1500).unwrap();
            frags.push(std::mem::replace(&mut m, rest));
        }
        frags.push(m);
        assert_eq!(frags.len(), 4);
        let whole = Message::concat(frags);
        let mut expect = b"BIGHDR".to_vec();
        expect.extend_from_slice(&payload(5000));
        assert_eq!(whole.to_vec(), expect);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut m = Message::from_user(payload(100));
        m.truncate(30);
        assert_eq!(m.to_vec(), payload(100)[..30].to_vec());
        m.truncate(1000); // No-op beyond length.
        assert_eq!(m.len(), 30);
    }

    #[test]
    fn clone_shares_payload() {
        let m = Message::from_user(payload(100));
        let c = m.clone();
        assert_eq!(m, c);
        // Mutating the clone's view must not disturb the original.
        let mut c2 = c.clone();
        c2.truncate(10);
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn equality_ignores_segmentation() {
        let mut a = Message::from_user(payload(64));
        let b = Message::from_user(payload(64));
        let tail = a.split_off(32).unwrap();
        a.append(tail);
        assert_eq!(a, b);
    }

    #[test]
    fn contiguous_borrows_single_segment() {
        let m = Message::from_user(payload(16));
        assert!(matches!(m.contiguous(), Cow::Borrowed(_)));
        let mut m2 = Message::from_user(payload(16));
        m2.push_header(b"H");
        assert!(matches!(m2.contiguous(), Cow::Owned(_)));
    }

    #[test]
    fn empty_message_behaviour() {
        let mut m = Message::empty();
        assert!(m.is_empty());
        assert_eq!(m.segment_count(), 0);
        m.push_header(b"ONLY");
        assert_eq!(m.to_vec(), b"ONLY");
    }

    #[test]
    fn pop_across_many_segments() {
        // Three rope segments via concat; a pop spanning all three copies.
        let mut m = Message::concat([
            Message::from_user(payload(3)),
            Message::from_user(payload(3)),
            Message::from_user(payload(3)),
        ]);
        assert_eq!(m.segment_count(), 3);
        let h = m.pop_header(8).unwrap();
        assert!(matches!(h, Popped::Owned(_)));
        assert_eq!(h.stats().copied, 8);
        assert_eq!(&*h, &[0, 1, 2, 0, 1, 2, 0, 1][..]);
        drop(h);
        assert_eq!(m.to_vec(), vec![2]);
    }

    #[test]
    fn pop_from_rope_borrows_while_segment_survives() {
        // Front is empty (no headers pushed), so pops read from the rope:
        // a partial pop borrows, the pop that consumes the segment copies.
        let mut m = Message::from_user(payload(8));
        let h = m.pop_header(4).unwrap();
        assert!(matches!(h, Popped::Borrowed(_)));
        assert_eq!(h.stats().copied, 0);
        drop(h);
        let h = m.pop_header(4).unwrap();
        assert!(matches!(h, Popped::Owned(_)));
        assert_eq!(&*h, &payload(8)[4..]);
        drop(h);
        assert!(m.is_empty());
        // A zero-length pop is a no-op borrow, not an error.
        assert!(matches!(m.pop_header(0).unwrap(), Popped::Borrowed(&[])));
    }

    #[test]
    fn split_boundaries_after_header_pushes() {
        // split_off(0) and split_off(len) must also work once the front
        // buffer holds pushed headers (the freeze path), and the tail must
        // inherit the allocation policy.
        for policy in [HeaderPolicy::default(), HeaderPolicy::AllocPerHeader] {
            let mut m = Message::from_user_with(policy, payload(6));
            m.push_header(b"HH");
            let mut tail = m.split_off(0).unwrap();
            assert!(m.is_empty());
            assert_eq!(tail.len(), 8);
            assert_eq!(tail.policy(), policy);
            let end = tail.split_off(tail.len()).unwrap();
            assert!(end.is_empty());
            assert_eq!(end.policy(), policy);
            assert_eq!(tail.to_vec(), [&b"HH"[..], &payload(6)].concat());
        }
    }

    #[test]
    fn split_at_exact_segment_boundary_moves_whole_segments() {
        let mut m = Message::concat([
            Message::from_user(payload(4)),
            Message::from_user(payload(4)),
        ]);
        let tail = m.split_off(4).unwrap();
        // No segment was cut: each half keeps one intact segment.
        assert_eq!(m.segment_count(), 1);
        assert_eq!(tail.segment_count(), 1);
        assert_eq!(m.to_vec(), payload(4));
        assert_eq!(tail.to_vec(), payload(4));
    }

    #[test]
    fn push_after_split_under_both_policies() {
        // split_off freezes the front, so the next headroom push must
        // re-reserve; pushes after that are pointer adjustments again.
        let mut m = Message::from_user(payload(16));
        let _ = m.split_off(8).unwrap();
        assert!(m.push_header(b"NEW").allocated);
        assert!(!m.push_header(b"TOP").allocated);
        assert_eq!(
            m.to_vec(),
            [&b"TOP"[..], b"NEW", &payload(16)[..8]].concat()
        );
        // AllocPerHeader is oblivious: it allocated per push anyway.
        let mut a = Message::from_user_with(HeaderPolicy::AllocPerHeader, payload(8));
        let _ = a.split_off(4).unwrap();
        let s = a.push_header(b"X");
        assert!(s.allocated);
        assert_eq!(s.copied, 1);
        assert_eq!(a.to_vec(), [&b"X"[..], &payload(8)[..4]].concat());
    }

    #[test]
    fn headroom_exhaustion_allocates_once_then_adjusts() {
        let mut m = Message::from_user_with(HeaderPolicy::Headroom { headroom: 8 }, payload(4));
        assert!(!m.push_header(&[1u8; 8]).allocated, "fits the headroom");
        let s = m.push_header(&[2u8; 4]);
        assert!(s.allocated, "exhausted headroom grows a new front buffer");
        assert!(!m.push_header(&[3u8; 4]).allocated);
        assert_eq!(m.len(), 4 + 8 + 4 + 4);
    }
}
