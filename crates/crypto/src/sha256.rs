//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The implementation is a straightforward, allocation-free streaming hasher. It is not
//! hardened against timing side channels — it only has to be *correct* for the
//! simulation — but it passes the official NIST test vectors (see the unit tests).
//!
//! On x86-64 machines with the SHA extensions the compression function runs
//! through the `SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2` instructions (roughly
//! an order of magnitude faster than the portable rounds); detection happens
//! once at first use and the digest output is bit-identical either way, so
//! seeded runs fingerprint the same on any host.

/// Output size of SHA-256 in bytes.
pub const OUTPUT_LEN: usize = 32;

/// Block size of SHA-256 in bytes (used by HMAC).
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube roots of
/// the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values (first 32 bits of the fractional parts of the square roots of the
/// first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Buffered partial block.
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    /// Total number of message bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        while input.len() >= BLOCK_LEN {
            let (block, rest) = input.split_at(BLOCK_LEN);
            let mut buf = [0u8; BLOCK_LEN];
            buf.copy_from_slice(block);
            self.compress(&buf);
            input = rest;
        }

        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the hash computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; OUTPUT_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: 0x80, zeros, then the 64-bit big-endian message length.
        self.update_padding(&[0x80]);
        while self.buffer_len != 56 {
            self.update_padding(&[0x00]);
        }
        self.update_padding(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = [0u8; OUTPUT_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `update` variant used during padding that does not advance `total_len`.
    fn update_padding(&mut self, data: &[u8]) {
        for &b in data {
            self.buffer[self.buffer_len] = b;
            self.buffer_len += 1;
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
    }

    /// SHA-256 compression function, processing one 64-byte block. Dispatches
    /// to the hardware implementation when the CPU supports it.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: `available` confirmed the sha/ssse3/sse4.1 features.
            #[allow(unsafe_code)]
            unsafe {
                shani::compress(&mut self.state, block)
            };
            return;
        }
        self.compress_scalar(block);
    }

    /// Portable SHA-256 compression rounds (FIPS 180-4 §6.2.2).
    fn compress_scalar(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hardware compression via the x86 SHA new instructions. Kept in its own
/// module so the `unsafe` surface is exactly one intrinsic-only function,
/// guarded by runtime feature detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::BLOCK_LEN;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = unknown, 1 = available, 2 = unavailable.
    static DETECTED: AtomicU8 = AtomicU8::new(0);

    /// Runtime detection, cached after the first call.
    pub(super) fn available() -> bool {
        match DETECTED.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                DETECTED.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// One 64-byte block through `SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2`.
    ///
    /// # Safety
    /// The caller must have confirmed the `sha`, `ssse3` and `sse4.1`
    /// features via [`available`].
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        use std::arch::x86_64::*;

        // Byte shuffle turning the big-endian message words into the lane
        // order the SHA instructions expect.
        let mask = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );
        let k = |hi: u64, lo: u64| _mm_set_epi64x(hi as i64, lo as i64);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH register layout.
        let mut tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let mut state1 = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        state1 = _mm_shuffle_epi32(state1, 0x1B); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, state1, 8); // ABEF
        state1 = _mm_blend_epi16(state1, tmp, 0xF0); // CDGH

        let abef_save = state0;
        let cdgh_save = state1;
        let p = block.as_ptr() as *const __m128i;

        // Rounds 0..3
        let mut msg = _mm_loadu_si128(p);
        let mut msg0 = _mm_shuffle_epi8(msg, mask);
        msg = _mm_add_epi32(msg0, k(0xE9B5DBA5_B5C0FBCF, 0x71374491_428A2F98));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

        // Rounds 4..7
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        msg = _mm_add_epi32(msg1, k(0xAB1C5ED5_923F82A4, 0x59F111F1_3956C25B));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);

        // Rounds 8..11
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        msg = _mm_add_epi32(msg2, k(0x550C7DC3_243185BE, 0x12835B01_D807AA98));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);

        // Rounds 12..15
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
        msg = _mm_add_epi32(msg3, k(0xC19BF174_9BDC06A7, 0x80DEB1FE_72BE5D74));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg3, msg2, 4);
        msg0 = _mm_add_epi32(msg0, tmp);
        msg0 = _mm_sha256msg2_epu32(msg0, msg3);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);

        // Rounds 16..19
        msg = _mm_add_epi32(msg0, k(0x240CA1CC_0FC19DC6, 0xEFBE4786_E49B69C1));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg0, msg3, 4);
        msg1 = _mm_add_epi32(msg1, tmp);
        msg1 = _mm_sha256msg2_epu32(msg1, msg0);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);

        // Rounds 20..23
        msg = _mm_add_epi32(msg1, k(0x76F988DA_5CB0A9DC, 0x4A7484AA_2DE92C6F));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg1, msg0, 4);
        msg2 = _mm_add_epi32(msg2, tmp);
        msg2 = _mm_sha256msg2_epu32(msg2, msg1);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);

        // Rounds 24..27
        msg = _mm_add_epi32(msg2, k(0xBF597FC7_B00327C8, 0xA831C66D_983E5152));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg2, msg1, 4);
        msg3 = _mm_add_epi32(msg3, tmp);
        msg3 = _mm_sha256msg2_epu32(msg3, msg2);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);

        // Rounds 28..31
        msg = _mm_add_epi32(msg3, k(0x14292967_06CA6351, 0xD5A79147_C6E00BF3));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg3, msg2, 4);
        msg0 = _mm_add_epi32(msg0, tmp);
        msg0 = _mm_sha256msg2_epu32(msg0, msg3);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);

        // Rounds 32..35
        msg = _mm_add_epi32(msg0, k(0x53380D13_4D2C6DFC, 0x2E1B2138_27B70A85));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg0, msg3, 4);
        msg1 = _mm_add_epi32(msg1, tmp);
        msg1 = _mm_sha256msg2_epu32(msg1, msg0);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);

        // Rounds 36..39
        msg = _mm_add_epi32(msg1, k(0x92722C85_81C2C92E, 0x766A0ABB_650A7354));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg1, msg0, 4);
        msg2 = _mm_add_epi32(msg2, tmp);
        msg2 = _mm_sha256msg2_epu32(msg2, msg1);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);

        // Rounds 40..43
        msg = _mm_add_epi32(msg2, k(0xC76C51A3_C24B8B70, 0xA81A664B_A2BFE8A1));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg2, msg1, 4);
        msg3 = _mm_add_epi32(msg3, tmp);
        msg3 = _mm_sha256msg2_epu32(msg3, msg2);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);

        // Rounds 44..47
        msg = _mm_add_epi32(msg3, k(0x106AA070_F40E3585, 0xD6990624_D192E819));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg3, msg2, 4);
        msg0 = _mm_add_epi32(msg0, tmp);
        msg0 = _mm_sha256msg2_epu32(msg0, msg3);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);

        // Rounds 48..51
        msg = _mm_add_epi32(msg0, k(0x34B0BCB5_2748774C, 0x1E376C08_19A4C116));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg0, msg3, 4);
        msg1 = _mm_add_epi32(msg1, tmp);
        msg1 = _mm_sha256msg2_epu32(msg1, msg0);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);

        // Rounds 52..55
        msg = _mm_add_epi32(msg1, k(0x682E6FF3_5B9CCA4F, 0x4ED8AA4A_391C0CB3));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg1, msg0, 4);
        msg2 = _mm_add_epi32(msg2, tmp);
        msg2 = _mm_sha256msg2_epu32(msg2, msg1);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

        // Rounds 56..59
        msg = _mm_add_epi32(msg2, k(0x8CC70208_84C87814, 0x78A5636F_748F82EE));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        tmp = _mm_alignr_epi8(msg2, msg1, 4);
        msg3 = _mm_add_epi32(msg3, tmp);
        msg3 = _mm_sha256msg2_epu32(msg3, msg2);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

        // Rounds 60..63
        msg = _mm_add_epi32(msg3, k(0xC67178F2_BEF9A3F7, 0xA4506CEB_90BEFFFA));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);

        // Unpack ABEF / CDGH back into [a..d] / [e..h].
        tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        state1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        state0 = _mm_blend_epi16(tmp, state1, 0xF0); // DCBA
        state1 = _mm_alignr_epi8(state1, tmp, 8); // HGFE

        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, state0);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, state1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    #[test]
    fn nist_empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        // Split the input at many different boundaries and check the digest is stable.
        for split in [0usize, 1, 31, 63, 64, 65, 127, 500, 1023, 1024] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn hardware_and_scalar_compress_agree() {
        // The dispatched compress (SHA-NI where available) must be
        // bit-identical to the portable rounds on every block; on hosts
        // without the extensions this degenerates to scalar-vs-scalar.
        let mut block = [0u8; BLOCK_LEN];
        for round in 0u32..64 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = (round as usize * 37 + i * 131 % 251) as u8;
            }
            let mut dispatched = Sha256::new();
            let mut scalar = Sha256::new();
            dispatched.compress(&block);
            scalar.compress_scalar(&block);
            assert_eq!(dispatched.state, scalar.state, "round {round} diverged");
            // Chain a second block to catch state-repacking bugs.
            dispatched.compress(&block);
            scalar.compress_scalar(&block);
            assert_eq!(dispatched.state, scalar.state, "chained {round} diverged");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Not a cryptographic claim, just a sanity check over a small corpus.
        let mut seen = std::collections::HashSet::new();
        for i in 0..512u32 {
            let d = sha256(&i.to_le_bytes());
            assert!(seen.insert(d), "collision for {i}");
        }
    }
}
