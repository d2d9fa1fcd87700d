//! Packed per-vertex state storage for the step engine's hot paths.
//!
//! The domain size `q` of every paper model is tiny — 2 for
//! Ising/hardcore spins, a few dozen for colorings — while the engine
//! historically stored each spin as a full [`Spin`] (= `u32`). A
//! [`StateSlab`] packs a configuration at the width the model needs
//! (**byte lanes** for `q ≤ 256`, a **bitset** for `q ≤ 2`), quadrupling
//! (or ×32-ing) the number of spins per cache line in the resolve
//! phase's neighborhood gathers, and shrinking the wire's state blobs
//! by the same factor (the sharded exchange accounting charges the same
//! packed width).
//!
//! The [`StateView`] trait is the read-side abstraction: vertex-step
//! rules are generic over it, so one rule body serves the flat `&[Spin]`
//! slices of the scalar oracle *and* packed slabs, with bit-identical
//! trajectories (packing only changes where bits live, never which
//! spins are read).

use lsl_mrf::Spin;

/// How a [`StateSlab`] stores one spin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// One [`Spin`] (`u32`) per vertex — the legacy layout, any `q`.
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

    /// Whether this packing can hold every spin in `[0, q)`.
    pub fn supports(self, q: usize) -> bool {
        match self {
            Packing::Wide => true,
            Packing::Byte => q <= 256,
            Packing::Bit => q <= 2,
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

/// Canonical spec-string form, accepted back by the `FromStr` impl.
impl std::fmt::Display for Packing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Packing::Wide => write!(f, "wide"),
            Packing::Byte => write!(f, "byte"),
            Packing::Bit => write!(f, "bit"),
        }
    }
}

impl std::str::FromStr for Packing {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wide" => Ok(Packing::Wide),
            "byte" => Ok(Packing::Byte),
            "bit" => Ok(Packing::Bit),
            other => Err(format!(
                "unknown packing {other:?} (expected wide | byte | bit)"
            )),
        }
    }
}

/// A configuration packed at a chosen width.
///
/// # Example
/// ```
/// use lsl_core::engine::{Packing, StateSlab, StateView};
/// let slab = StateSlab::from_spins(Packing::Bit, &[1, 0, 1, 1]);
/// assert_eq!(slab.get(2), 1);
/// assert_eq!(slab.spin(1), 0);
/// assert_eq!(slab.byte_len(), 1); // four spins in one byte
/// ```
#[derive(Clone, Debug)]
pub enum StateSlab {
    /// `u32` lanes.
    Wide(Vec<Spin>),
    /// `u8` lanes.
    Byte(Vec<u8>),
    /// Bit lanes in `u64` words.
    Bit {
        /// The packed words, `len.div_ceil(64)` of them.
        words: Vec<u64>,
        /// Number of spins stored.
        len: usize,
    },
}

impl StateSlab {
    /// A zeroed slab of `len` spins.
    pub fn new(packing: Packing, len: usize) -> Self {
        match packing {
            Packing::Wide => StateSlab::Wide(vec![0; len]),
            Packing::Byte => StateSlab::Byte(vec![0; len]),
            Packing::Bit => StateSlab::Bit {
                words: vec![0; len.div_ceil(64)],
                len,
            },
        }
    }

    /// Packs a wide configuration.
    ///
    /// # Panics
    /// Panics (in debug builds) if a spin does not fit the packing.
    pub fn from_spins(packing: Packing, spins: &[Spin]) -> Self {
        let mut slab = Self::new(packing, spins.len());
        slab.load(spins);
        slab
    }

    /// The packing in use.
    pub fn packing(&self) -> Packing {
        match self {
            StateSlab::Wide(_) => Packing::Wide,
            StateSlab::Byte(_) => Packing::Byte,
            StateSlab::Bit { .. } => Packing::Bit,
        }
    }

    /// Number of spins stored.
    pub fn len(&self) -> usize {
        match self {
            StateSlab::Wide(v) => v.len(),
            StateSlab::Byte(v) => v.len(),
            StateSlab::Bit { len, .. } => *len,
        }
    }

    /// Whether the slab holds no spins.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of backing storage — what a boundary exchange of this slab
    /// actually ships.
    pub fn byte_len(&self) -> usize {
        match self {
            StateSlab::Wide(v) => v.len() * std::mem::size_of::<Spin>(),
            StateSlab::Byte(v) => v.len(),
            StateSlab::Bit { len, .. } => len.div_ceil(8),
        }
    }

    /// The spin at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Spin {
        match self {
            StateSlab::Wide(v) => v[i],
            StateSlab::Byte(v) => v[i] as Spin,
            StateSlab::Bit { words, .. } => ((words[i >> 6] >> (i & 63)) & 1) as Spin,
        }
    }

    /// Stores spin `s` at index `i`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `s` does not fit the packing.
    #[inline]
    pub fn set(&mut self, i: usize, s: Spin) {
        match self {
            StateSlab::Wide(v) => v[i] = s,
            StateSlab::Byte(v) => {
                debug_assert!(s < 256, "spin {s} does not fit byte lanes");
                v[i] = s as u8;
            }
            StateSlab::Bit { words, .. } => {
                debug_assert!(s < 2, "spin {s} does not fit bit lanes");
                let w = &mut words[i >> 6];
                let bit = 1u64 << (i & 63);
                *w = (*w & !bit) | (u64::from(s) << (i & 63));
            }
        }
    }

    /// Overwrites the whole slab from a wide configuration.
    ///
    /// # Panics
    /// Panics if the length differs, or (in debug builds) if a spin does
    /// not fit the packing.
    pub fn load(&mut self, spins: &[Spin]) {
        assert_eq!(spins.len(), self.len(), "slab length mismatch");
        match self {
            StateSlab::Wide(v) => v.copy_from_slice(spins),
            StateSlab::Byte(v) => {
                for (slot, &s) in v.iter_mut().zip(spins) {
                    debug_assert!(s < 256, "spin {s} does not fit byte lanes");
                    *slot = s as u8;
                }
            }
            StateSlab::Bit { words, .. } => {
                words.fill(0);
                for (i, &s) in spins.iter().enumerate() {
                    debug_assert!(s < 2, "spin {s} does not fit bit lanes");
                    words[i >> 6] |= u64::from(s) << (i & 63);
                }
            }
        }
    }

    /// Unpacks the whole slab into a wide configuration.
    ///
    /// # Panics
    /// Panics if the length differs.
    pub fn store(&self, out: &mut [Spin]) {
        assert_eq!(out.len(), self.len(), "slab length mismatch");
        match self {
            StateSlab::Wide(v) => out.copy_from_slice(v),
            StateSlab::Byte(v) => {
                for (slot, &b) in out.iter_mut().zip(v) {
                    *slot = b as Spin;
                }
            }
            StateSlab::Bit { words, .. } => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = ((words[i >> 6] >> (i & 63)) & 1) as Spin;
                }
            }
        }
    }
}

/// Read access to a configuration, whatever its representation.
///
/// Vertex-step rules are generic over this, so the scalar oracle
/// (`&[Spin]`) and packed slabs run the *same* rule body — packing can
/// then never change a trajectory, only its memory traffic.
pub trait StateView: Sync {
    /// The spin of vertex index `i`.
    fn spin(&self, i: usize) -> Spin;
}

impl StateView for [Spin] {
    #[inline]
    fn spin(&self, i: usize) -> Spin {
        self[i]
    }
}

impl StateView for Vec<Spin> {
    #[inline]
    fn spin(&self, i: usize) -> Spin {
        self[i]
    }
}

impl StateView for StateSlab {
    #[inline]
    fn spin(&self, i: usize) -> Spin {
        self.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_packing_picks_narrowest() {
        assert_eq!(Packing::auto_for(2), Packing::Bit);
        assert_eq!(Packing::auto_for(3), Packing::Byte);
        assert_eq!(Packing::auto_for(256), Packing::Byte);
        assert_eq!(Packing::auto_for(257), Packing::Wide);
    }

    #[test]
    fn packing_supports_and_display_roundtrip() {
        assert!(Packing::Bit.supports(2));
        assert!(!Packing::Bit.supports(3));
        assert!(Packing::Byte.supports(256));
        assert!(!Packing::Byte.supports(257));
        assert!(Packing::Wide.supports(1 << 20));
        for p in [Packing::Wide, Packing::Byte, Packing::Bit] {
            assert_eq!(p.to_string().parse::<Packing>().unwrap(), p);
        }
        assert!("nibble".parse::<Packing>().is_err());
    }

    #[test]
    fn roundtrips_all_packings() {
        let spins: Vec<Spin> = (0..200).map(|i| (i * 7) % 2).collect();
        for p in [Packing::Wide, Packing::Byte, Packing::Bit] {
            let slab = StateSlab::from_spins(p, &spins);
            assert_eq!(slab.len(), spins.len());
            let mut out = vec![0; spins.len()];
            slab.store(&mut out);
            assert_eq!(out, spins, "{p} roundtrip");
            for (i, &s) in spins.iter().enumerate() {
                assert_eq!(slab.get(i), s);
                assert_eq!(slab.spin(i), s);
            }
        }
    }

    #[test]
    fn set_overwrites_bit_lanes_cleanly() {
        let mut slab = StateSlab::new(Packing::Bit, 130);
        slab.set(64, 1);
        slab.set(129, 1);
        assert_eq!(slab.get(64), 1);
        assert_eq!(slab.get(129), 1);
        slab.set(64, 0);
        assert_eq!(slab.get(64), 0);
        assert_eq!(slab.get(129), 1, "clearing one bit must not touch others");
        assert_eq!(slab.get(65), 0);
    }

    #[test]
    fn byte_lens_shrink() {
        let spins = vec![1; 256];
        assert_eq!(
            StateSlab::from_spins(Packing::Wide, &spins).byte_len(),
            1024
        );
        assert_eq!(StateSlab::from_spins(Packing::Byte, &spins).byte_len(), 256);
        assert_eq!(StateSlab::from_spins(Packing::Bit, &spins).byte_len(), 32);
    }

    #[test]
    fn state_view_is_uniform_across_representations() {
        let spins: Vec<Spin> = vec![0, 1, 1, 0, 1];
        let slab = StateSlab::from_spins(Packing::Bit, &spins);
        for i in 0..spins.len() {
            assert_eq!(spins[..].spin(i), slab.spin(i));
            assert_eq!(spins.spin(i), slab.spin(i));
        }
    }
}
