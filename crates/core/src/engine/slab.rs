//! The packed width of a transported configuration.
//!
//! The domain size `q` of every paper model is tiny — 2 for
//! Ising/hardcore spins, a few dozen for colorings — so a configuration
//! on the wire ([`crate::codec::StateBlob`]) and in the sharded
//! exchange accounting ([`super::sharded`]) takes the width the model
//! needs: **one bit** per spin for `q ≤ 2`, **one byte** for
//! `q ≤ 256`, a full [`Spin`](lsl_mrf::Spin) above. The lane kernels
//! choose their own width ([`super::hotpath`]); this rule is only the
//! transport's.

/// How a transported configuration stores one spin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// One [`Spin`](lsl_mrf::Spin) (`u32`) per vertex, any `q`.
    Wide,
    /// One byte per vertex — models with `q ≤ 256`.
    Byte,
    /// One bit per vertex — two-spin models (Ising, hardcore,
    /// vertex-cover).
    Bit,
}

impl Packing {
    /// The widest-saving packing that can hold spins of domain size `q`.
    pub fn auto_for(q: usize) -> Packing {
        if q <= 2 {
            Packing::Bit
        } else if q <= 256 {
            Packing::Byte
        } else {
            Packing::Wide
        }
    }

    /// Bits of storage per spin.
    pub fn bits_per_spin(self) -> u32 {
        match self {
            Packing::Wide => 32,
            Packing::Byte => 8,
            Packing::Bit => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StateBlob;
    use lsl_mrf::Spin;

    #[test]
    fn auto_packing_picks_narrowest() {
        assert_eq!(Packing::auto_for(2), Packing::Bit);
        assert_eq!(Packing::auto_for(3), Packing::Byte);
        assert_eq!(Packing::auto_for(256), Packing::Byte);
        assert_eq!(Packing::auto_for(257), Packing::Wide);
    }

    // The transport packs through `StateBlob`, at `auto_for(q)`.
    #[test]
    fn roundtrips_all_packings() {
        for (q, p) in [(2, Packing::Bit), (3, Packing::Byte), (300, Packing::Wide)] {
            let spins: Vec<Spin> = (0..200).map(|i| (i * 7) % q as Spin).collect();
            let blob = StateBlob::pack(&spins, q);
            assert_eq!(blob.packing(), p);
            assert_eq!(blob.unpack(), spins, "{p:?} roundtrip");
        }
    }

    #[test]
    fn byte_lens_shrink() {
        let spins = vec![1; 256];
        assert_eq!(StateBlob::pack(&spins, 1000).byte_len(), 1024);
        assert_eq!(StateBlob::pack(&spins, 16).byte_len(), 256);
        assert_eq!(StateBlob::pack(&spins, 2).byte_len(), 32);
    }
}
