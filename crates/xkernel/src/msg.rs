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
//!
//! On the host, the headroom itself costs no `malloc` in steady state. A
//! fresh message only *reserves* its headroom; the buffer is taken on the
//! first push from a bounded per-thread free list, and it returns there
//! when the message drops. Clones keep the same headroom (their buffer
//! comes from the same list), so every [`PushStats`] and [`PopStats`], and
//! with them every virtual-time charge, is what a freshly allocated buffer
//! would give.

use std::borrow::Cow;
use std::cell::RefCell;
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

/// Most free headroom buffers one thread keeps for reuse.
const HEADROOM_POOL_CAP: usize = 64;

thread_local! {
    /// Free `DEFAULT_HEADROOM`-byte front buffers. The engine is
    /// single-threaded and a [`Message`] never leaves its thread, so one
    /// list per thread serves every simulation on it.
    static HEADROOM_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A front buffer of `len` bytes, reused from the free list when one fits.
/// Its contents are stale: callers write before they read.
fn take_buf(len: usize) -> Vec<u8> {
    if len == DEFAULT_HEADROOM {
        if let Ok(Some(buf)) = HEADROOM_POOL.try_with(|p| p.borrow_mut().pop()) {
            return buf;
        }
    }
    vec![0; len]
}

/// Returns a front buffer to the free list, or frees it when the list is
/// full or the buffer is not a default-headroom one.
fn give_buf(buf: Vec<u8>) {
    if buf.len() == DEFAULT_HEADROOM && buf.capacity() == DEFAULT_HEADROOM {
        let _ = HEADROOM_POOL.try_with(move |p| {
            let mut pool = p.borrow_mut();
            if pool.len() < HEADROOM_POOL_CAP {
                pool.push(buf);
            }
        });
    }
}

/// Free headroom buffers held by this thread.
#[cfg(test)]
fn headroom_pool_len() -> usize {
    HEADROOM_POOL.with(|p| p.borrow().len())
}

/// The owned front buffer; valid bytes are `buf[start..]`, and `start` is
/// the headroom left for pushes. An empty `buf` with `start > 0` is
/// headroom reserved but not yet taken: it holds no bytes, and the first
/// push takes a `start`-byte buffer.
#[derive(Debug, Default)]
struct FrontBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrontBuf {
    /// `room` bytes of headroom, reserved without touching the heap.
    fn reserved(room: usize) -> FrontBuf {
        FrontBuf {
            buf: Vec::new(),
            start: room,
        }
    }

    fn len(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    fn bytes(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or(&[])
    }
}

impl Clone for FrontBuf {
    /// Same headroom, same bytes; the unused headroom is not copied.
    fn clone(&self) -> FrontBuf {
        if self.len() == 0 {
            return FrontBuf::reserved(self.start);
        }
        let mut buf = take_buf(self.buf.len());
        buf[self.start..].copy_from_slice(self.bytes());
        FrontBuf {
            buf,
            start: self.start,
        }
    }
}

impl Drop for FrontBuf {
    fn drop(&mut self) {
        give_buf(std::mem::take(&mut self.buf));
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
            HeaderPolicy::Headroom { headroom } => FrontBuf::reserved(headroom),
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
                    if !header.is_empty() {
                        if self.front.buf.is_empty() {
                            self.front.buf = take_buf(self.front.start);
                        }
                        let new_start = self.front.start - header.len();
                        self.front.buf[new_start..self.front.start].copy_from_slice(header);
                        self.front.start = new_start;
                    }
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
                    let mut buf = take_buf(room);
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
        if n == 0 {
            return Ok(Popped::Borrowed(&[]));
        }
        if self.front.len() >= n {
            let s = self.front.start;
            self.front.start += n;
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
        // The tail's headroom is only reserved: nothing is allocated for it
        // unless a header is pushed onto it.
        let mut tail = Message::empty_with(self.policy);
        let (idx, within) = self.boundary(at);
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
        Ok(tail)
    }

    /// Where byte offset `at` of the (frozen) rope falls: the index of the
    /// first segment that straddles or begins at `at`, and the offset
    /// within it (`(rope.len(), 0)` when `at` is the end).
    fn boundary(&self, at: usize) -> (usize, usize) {
        let mut seen = 0usize;
        for (idx, seg) in self.rope.iter().enumerate() {
            if seen + seg.len() > at {
                return (idx, at - seen);
            }
            seen += seg.len();
        }
        (self.rope.len(), 0)
    }

    /// Keeps only the first `len` bytes. The rope is cut exactly where
    /// [`Message::split_off`] would cut it, but no tail is built.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.freeze();
        let (idx, within) = self.boundary(len);
        if within == 0 {
            self.rope.truncate(idx);
        } else {
            let seg = &mut self.rope[idx];
            seg.end = seg.start + within;
            self.rope.truncate(idx + 1);
        }
    }

    /// The message cut into consecutive pieces of at most `size` bytes,
    /// front first, as fragmentation sends them. The pieces share the
    /// message's segments (zero-copy); the first starts from a clone of
    /// `self`, and an empty message yields one empty piece.
    pub fn chunks(&self, size: usize) -> Chunks {
        Chunks {
            rest: Some(self.clone()),
            size,
        }
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

/// The pieces of a message, produced one at a time by [`Message::chunks`]:
/// each `next` splits one piece off the front, so no list of pieces is
/// ever built.
#[derive(Debug)]
pub struct Chunks {
    rest: Option<Message>,
    size: usize,
}

impl Iterator for Chunks {
    type Item = Message;

    fn next(&mut self) -> Option<Message> {
        let mut head = self.rest.take()?;
        if head.len() > self.size {
            self.rest = Some(head.split_off(self.size).expect("in-range split"));
        }
        Some(head)
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

    /// Every push and pop of a script covering clones, splits, truncation,
    /// appends and fragmentation, as (operation, allocated, bytes copied).
    fn stats_script(policy: HeaderPolicy) -> Vec<(&'static str, bool, usize)> {
        let mut out = Vec::new();
        let mut push = |m: &mut Message, h: &[u8]| {
            let s = m.push_header(h);
            out.push(("push", s.allocated, s.copied));
        };
        let mut m = Message::from_user_with(policy, payload(40));
        push(&mut m, &[1; 18]);
        let mut c = m.clone();
        push(&mut c, &[2; 4]);
        push(&mut m, &[3; 14]);
        let mut tail = m.split_off(10).unwrap();
        push(&mut tail, &[4; 5]);
        push(&mut m, &[5; 3]);
        m.truncate(5);
        push(&mut m, &[6; 2]);
        m.append(tail);
        push(&mut m, &[7; 23]);
        let mut big = Message::from_user_with(policy, payload(300));
        push(&mut big, &[8; 36]);
        let mut rest = big.clone();
        loop {
            let next = (rest.len() > 100).then(|| rest.split_off(100).unwrap());
            push(&mut rest, &[9; 23]);
            match next {
                Some(n) => rest = n,
                None => break,
            }
        }
        let mut pops = Vec::new();
        for n in [23, 2, 3, 7, 60] {
            pops.push(("pop", false, m.pop_header(n).unwrap().stats().copied));
        }
        for n in [4, 18, 40] {
            pops.push(("pop", false, c.pop_header(n).unwrap().stats().copied));
        }
        out.extend(pops);
        out
    }

    #[test]
    fn push_and_pop_stats_are_pinned_for_both_policies() {
        // Recorded from the implementation that allocated a fresh buffer
        // for every headroom reservation and copied whole buffers on
        // clone: the free list and reserved headroom must not move a
        // single charge. Each fragment but the last was split off the
        // front, so it lost its headroom and its push allocates.
        let headroom = [
            ("push", false, 18),
            ("push", false, 4),
            ("push", false, 14),
            ("push", false, 5),
            ("push", true, 3),
            ("push", true, 2),
            ("push", true, 23),
            ("push", false, 36),
            ("push", true, 23),
            ("push", true, 23),
            ("push", true, 23),
            ("push", false, 23),
            ("pop", false, 0),
            ("pop", false, 2),
            ("pop", false, 3),
            ("pop", false, 7),
            ("pop", false, 60),
            ("pop", false, 0),
            ("pop", false, 0),
            ("pop", false, 40),
        ];
        assert_eq!(stats_script(HeaderPolicy::default()), headroom);
        let per_header = [
            ("push", true, 18),
            ("push", true, 22),
            ("push", true, 32),
            ("push", true, 5),
            ("push", true, 3),
            ("push", true, 2),
            ("push", true, 23),
            ("push", true, 36),
            ("push", true, 23),
            ("push", true, 23),
            ("push", true, 23),
            ("push", true, 23),
            ("pop", false, 0),
            ("pop", false, 2),
            ("pop", false, 3),
            ("pop", false, 7),
            ("pop", false, 60),
            ("pop", false, 0),
            ("pop", false, 18),
            ("pop", false, 40),
        ];
        assert_eq!(stats_script(HeaderPolicy::AllocPerHeader), per_header);
    }

    #[test]
    fn clones_pushing_different_headers_stay_apart() {
        let mut a = Message::from_user(payload(16));
        a.push_header(b"SHARED");
        let mut b = a.clone();
        assert!(!a.push_header(b"AAAA").allocated);
        assert!(
            !b.push_header(b"BB").allocated,
            "the clone kept its headroom"
        );
        assert_eq!(a.to_vec(), [&b"AAAA"[..], b"SHARED", &payload(16)].concat());
        assert_eq!(b.to_vec(), [&b"BB"[..], b"SHARED", &payload(16)].concat());
        drop(a);
        assert_eq!(b.to_vec(), [&b"BB"[..], b"SHARED", &payload(16)].concat());
    }

    #[test]
    fn retained_copy_survives_the_original_being_pushed_and_sent() {
        // CHANNEL's and FRAGMENT's retransmission shape: keep a copy, push
        // the lower headers onto the original and hand it away.
        let mut msg = Message::from_user(payload(32));
        msg.push_header(b"CHANNEL");
        let retained = msg.clone();
        let before = retained.to_vec();
        msg.push_header(b"FRAGMENT");
        msg.push_header(b"ETHERNET");
        let sent = msg.to_vec();
        drop(msg);
        // Headroom buffers recycled by the drop must not alias the copy.
        let mut other = Message::from_user(payload(4));
        other.push_header(&[0xee; 100]);
        assert_eq!(retained.to_vec(), before);
        assert_eq!(&sent[16..], &before[..]);
    }

    #[test]
    fn headroom_buffers_are_reused_and_the_free_list_is_bounded() {
        // Fill the list past its bound: every dropped message with a taken
        // default-headroom buffer offers it back.
        let msgs: Vec<Message> = (0..HEADROOM_POOL_CAP + 8)
            .map(|_| {
                let mut m = Message::empty();
                m.push_header(b"H");
                m
            })
            .collect();
        drop(msgs);
        assert_eq!(headroom_pool_len(), HEADROOM_POOL_CAP);
        // A push takes one back; dropping the message returns it.
        let mut m = Message::empty();
        m.push_header(b"H");
        assert_eq!(headroom_pool_len(), HEADROOM_POOL_CAP - 1);
        drop(m);
        assert_eq!(headroom_pool_len(), HEADROOM_POOL_CAP);
        // Reserving headroom takes nothing until the first push.
        let reserved = Message::empty();
        assert_eq!(headroom_pool_len(), HEADROOM_POOL_CAP);
        drop(reserved);
        // Other sizes are never pooled.
        let mut small = Message::from_user_with(HeaderPolicy::Headroom { headroom: 8 }, vec![]);
        small.push_header(b"H");
        let mut per_header = Message::from_user_with(HeaderPolicy::AllocPerHeader, vec![]);
        per_header.push_header(b"H");
        drop((small, per_header));
        assert_eq!(headroom_pool_len(), HEADROOM_POOL_CAP);
    }

    #[test]
    fn chunks_match_repeated_split_off() {
        for len in [0usize, 1, 99, 100, 101, 350] {
            let mut m = Message::from_user(payload(len));
            m.push_header(b"HDR");
            let pieces: Vec<Vec<u8>> = m.chunks(100).map(|c| c.to_vec()).collect();
            let whole = m.to_vec();
            let expect: Vec<Vec<u8>> = if whole.is_empty() {
                vec![Vec::new()]
            } else {
                whole.chunks(100).map(<[u8]>::to_vec).collect()
            };
            assert_eq!(pieces, expect, "length {len}");
            assert_eq!(m.to_vec(), whole, "chunking leaves the source alone");
        }
    }
}
