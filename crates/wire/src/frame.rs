//! Length-prefixed framing for byte streams (TCP).
//!
//! A frame is `u32_le(len) ‖ payload`, where the payload is an enveloped
//! message ([`crate::encode_msg`]). [`frame_bytes`] writes one, and
//! [`FrameBuffer`] reassembles them from whatever bytes a socket yields
//! (partial frames, several frames at once) — the shape `xft-net`'s
//! connection readers use, since a blocking `read_exact` cannot be safely
//! combined with read timeouts.

use bytes::{BufMut, Reader};

/// Default upper bound on a frame payload (16 MiB) — far above the largest
/// view-change transfer the reproduction produces, small enough that a
/// corrupted or hostile length prefix cannot exhaust memory.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Incremental frame reassembly for non-blocking or timeout-driven readers.
///
/// Feed raw socket bytes with [`FrameBuffer::extend`]; pull complete frames
/// with [`FrameBuffer::next_frame`] until it returns `Ok(None)`.
///
/// Consumed bytes are tracked as an offset and compacted in batches, so
/// draining many small frames out of one large socket read is linear, not
/// quadratic.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    consumed: usize,
    max_frame: usize,
}

impl Default for FrameBuffer {
    /// An empty buffer enforcing [`DEFAULT_MAX_FRAME`].
    fn default() -> Self {
        FrameBuffer::new(DEFAULT_MAX_FRAME)
    }
}

/// Compact once the dead prefix exceeds this many bytes (and dominates the
/// buffer), amortizing the memmove across many extracted frames.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameBuffer {
    /// Creates an empty buffer enforcing `max_frame` on payload sizes.
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            consumed: 0,
            max_frame,
        }
    }

    /// Appends raw bytes received from the stream.
    pub fn extend(&mut self, data: &[u8]) {
        self.compact_if_worthwhile();
        self.buf.extend_from_slice(data);
    }

    /// Bytes currently buffered (for tests and backpressure accounting).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Extracts the next complete frame payload, if one is buffered.
    ///
    /// `Err` means the stream is unrecoverable (oversized frame) and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        let mut r = Reader::new(&self.buf[self.consumed..]);
        let Some(len) = r.get_u32_le().map(|l| l as usize) else {
            return Ok(None);
        };
        if len > self.max_frame {
            return Err(format!(
                "frame of {len} bytes exceeds limit {}",
                self.max_frame
            ));
        }
        let Some(payload) = r.get_slice(len) else {
            return Ok(None);
        };
        let frame = payload.to_vec();
        self.consumed += r.position();
        self.compact_if_worthwhile();
        Ok(Some(frame))
    }

    fn compact_if_worthwhile(&mut self) {
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed > COMPACT_THRESHOLD && self.consumed * 2 > self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

/// Convenience: frames `payload` into a fresh vector (length prefix included).
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_frames_are_errors() {
        let mut fb = FrameBuffer::new(16);
        fb.extend(&frame_bytes(&[0u8; 64]));
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn frame_buffer_handles_partial_and_batched_input() {
        let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
        let two = [frame_bytes(b"one"), frame_bytes(b"twotwo")].concat();
        // Drip-feed one byte at a time; frames appear exactly when complete.
        let mut seen = Vec::new();
        for b in &two {
            fb.extend(&[*b]);
            while let Some(f) = fb.next_frame().unwrap() {
                seen.push(f);
            }
        }
        assert_eq!(seen, vec![b"one".to_vec(), b"twotwo".to_vec()]);
        assert_eq!(fb.buffered(), 0);
    }
}
