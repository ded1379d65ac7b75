//! Simulated CPU cost of cryptographic operations.
//!
//! The paper's Figure 8 compares the CPU usage of the protocols; the dominant
//! difference is how many signatures vs. MACs each protocol computes per request. The
//! simulator charges every crypto operation a configurable number of nanoseconds of
//! node CPU time through this cost model. Defaults are calibrated to the rough ratio
//! reported for RSA-1024 signing/verification vs. HMAC-SHA1 on commodity hardware of
//! the paper's era (signing ≫ verification ≫ MAC ≈ hash).

/// Kinds of cryptographic operations a protocol can charge for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoOp {
    /// Computing a message digest over `len` bytes.
    Hash {
        /// Number of bytes hashed.
        len: usize,
    },
    /// Producing a digital signature.
    Sign,
    /// Verifying a digital signature.
    VerifySig,
    /// Verifying a batch of `count` digital signatures in one pass.
    VerifyBatch {
        /// Number of signatures in the batch.
        count: usize,
    },
    /// Computing one MAC tag.
    Mac {
        /// Number of bytes authenticated.
        len: usize,
    },
    /// Verifying one MAC tag.
    VerifyMac {
        /// Number of bytes authenticated.
        len: usize,
    },
}

/// Cost model mapping crypto operations to simulated CPU nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost of producing a signature (ns). RSA-1024 sign ≈ 1–1.5 ms on the
    /// paper-era hardware.
    pub sign_ns: u64,
    /// Fixed cost of verifying a signature (ns). RSA verification is much cheaper than
    /// signing (small public exponent), ≈ 50 µs.
    pub verify_sig_ns: u64,
    /// Fixed cost of a MAC/hash operation (ns).
    pub mac_fixed_ns: u64,
    /// Additional per-byte cost of hashing / MACing (ns per byte).
    pub per_byte_ns_q8: u64,
}

impl CostModel {
    /// Cost model calibrated to the paper's setup (RSA-1024 + HMAC-SHA1, 8-vCPU VMs).
    pub fn paper_default() -> Self {
        CostModel {
            sign_ns: 1_200_000,    // ~1.2 ms per RSA-1024 signature
            verify_sig_ns: 60_000, // ~60 µs per RSA-1024 verification
            mac_fixed_ns: 1_000,   // ~1 µs per HMAC
            per_byte_ns_q8: 768,   // 3 ns/byte in Q8 fixed point (768 / 256)
        }
    }

    /// A model in which crypto is free; useful to isolate network effects in tests.
    pub fn free() -> Self {
        CostModel {
            sign_ns: 0,
            verify_sig_ns: 0,
            mac_fixed_ns: 0,
            per_byte_ns_q8: 0,
        }
    }

    /// Simulated CPU nanoseconds charged for `op`.
    pub fn cost_ns(&self, op: CryptoOp) -> u64 {
        let per_byte = |len: usize| (self.per_byte_ns_q8 * len as u64) >> 8;
        match op {
            CryptoOp::Hash { len } => self.mac_fixed_ns + per_byte(len),
            CryptoOp::Sign => self.sign_ns,
            CryptoOp::VerifySig => self.verify_sig_ns,
            CryptoOp::VerifyBatch { count } => self.verify_sig_ns * count as u64,
            CryptoOp::Mac { len } | CryptoOp::VerifyMac { len } => {
                self.mac_fixed_ns + per_byte(len)
            }
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signing_dominates_macs_in_paper_model() {
        let m = CostModel::paper_default();
        assert!(m.cost_ns(CryptoOp::Sign) > 100 * m.cost_ns(CryptoOp::Mac { len: 1024 }));
        assert!(m.cost_ns(CryptoOp::Sign) > m.cost_ns(CryptoOp::VerifySig));
    }

    #[test]
    fn per_byte_cost_grows_with_length() {
        let m = CostModel::paper_default();
        assert!(m.cost_ns(CryptoOp::Hash { len: 4096 }) > m.cost_ns(CryptoOp::Hash { len: 64 }));
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        for op in [
            CryptoOp::Hash { len: 1000 },
            CryptoOp::Sign,
            CryptoOp::VerifySig,
            CryptoOp::Mac { len: 1000 },
            CryptoOp::VerifyMac { len: 1000 },
        ] {
            assert_eq!(m.cost_ns(op), 0);
        }
    }

    #[test]
    fn batch_verify_charges_linearly() {
        let m = CostModel::paper_default();
        assert_eq!(
            m.cost_ns(CryptoOp::VerifyBatch { count: 20 }),
            20 * m.cost_ns(CryptoOp::VerifySig)
        );
        assert_eq!(m.cost_ns(CryptoOp::VerifyBatch { count: 0 }), 0);
    }

    #[test]
    fn default_is_paper_model() {
        assert_eq!(CostModel::default(), CostModel::paper_default());
    }
}
