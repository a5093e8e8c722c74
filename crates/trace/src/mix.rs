//! Aggregated instruction mixes.

use crate::{OpClass, NUM_OP_CLASSES};
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// An aggregated count of micro-ops by [`OpClass`].
///
/// An `OpMix` is produced either by *measuring* a kernel (running it with the
/// simulated intrinsics under a [`crate::TraceGuard`]) or by *modelling* it
/// (the gcc-4.6-shaped AUTO streams derived from the paper's Section V
/// disassembly). Both feed the platform timing model identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpMix {
    counts: [u64; NUM_OP_CLASSES],
}

impl OpMix {
    /// An all-zero mix.
    pub const fn new() -> Self {
        OpMix {
            counts: [0; NUM_OP_CLASSES],
        }
    }

    /// Builds a mix from a raw counter array (indexed by [`OpClass::index`]).
    pub const fn from_counts(counts: [u64; NUM_OP_CLASSES]) -> Self {
        OpMix { counts }
    }

    /// Builds a mix from `(class, count)` pairs.
    pub fn from_pairs(pairs: &[(OpClass, u64)]) -> Self {
        let mut mix = OpMix::new();
        for &(class, n) in pairs {
            mix.counts[class.index()] += n;
        }
        mix
    }

    /// Count for one class.
    #[inline]
    pub fn get(&self, class: OpClass) -> u64 {
        self.counts[class.index()]
    }

    /// Sets the count for one class.
    pub fn set(&mut self, class: OpClass, n: u64) {
        self.counts[class.index()] = n;
    }

    /// Adds `n` ops of `class`.
    pub fn add_ops(&mut self, class: OpClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Total op count across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total SIMD ops (loads, stores, ALU, converts).
    pub fn simd_total(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_simd())
            .map(|c| self.get(*c))
            .sum()
    }

    /// Total scalar compute ops (everything that is neither SIMD nor
    /// branch/libcall/address overhead).
    pub fn scalar_total(&self) -> u64 {
        self.get(OpClass::ScalarLoad)
            + self.get(OpClass::ScalarStore)
            + self.get(OpClass::ScalarAlu)
            + self.get(OpClass::ScalarConvert)
    }

    /// Total loop/branch/call overhead ops.
    pub fn overhead_total(&self) -> u64 {
        self.get(OpClass::Branch) + self.get(OpClass::LibCall) + self.get(OpClass::AddrArith)
    }

    /// Total memory-touching ops.
    pub fn memory_total(&self) -> u64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_memory())
            .map(|c| self.get(*c))
            .sum()
    }

    /// Ops per pixel for a workload over `pixels` output pixels.
    pub fn per_pixel(&self, pixels: u64) -> f64 {
        if pixels == 0 {
            0.0
        } else {
            self.total() as f64 / pixels as f64
        }
    }

    /// Fraction of all ops that are SIMD (0.0 when the mix is empty).
    pub fn simd_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.simd_total() as f64 / total as f64
        }
    }

    /// Iterates over non-zero `(class, count)` entries.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (OpClass, u64)> + '_ {
        OpClass::ALL
            .iter()
            .map(move |&c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
    }

    /// Scales every count by `factor`, rounding to nearest. Used to
    /// extrapolate a mix measured on a small image to a larger one.
    pub fn scaled(&self, factor: f64) -> OpMix {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        let mut out = OpMix::new();
        for (i, &n) in self.counts.iter().enumerate() {
            out.counts[i] = (n as f64 * factor).round() as u64;
        }
        out
    }
}

impl Add for OpMix {
    type Output = OpMix;
    fn add(mut self, rhs: OpMix) -> OpMix {
        self += rhs;
        self
    }
}

impl AddAssign for OpMix {
    fn add_assign(&mut self, rhs: OpMix) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts.iter()) {
            *a += *b;
        }
    }
}

impl Mul<u64> for OpMix {
    type Output = OpMix;
    fn mul(mut self, rhs: u64) -> OpMix {
        for c in self.counts.iter_mut() {
            *c *= rhs;
        }
        self
    }
}

impl fmt::Display for OpMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (class, n) in self.iter_nonzero() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={}", class.mnemonic(), n)?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_partition_the_mix() {
        let mix = OpMix::from_pairs(&[
            (OpClass::SimdLoad, 2),
            (OpClass::SimdStore, 1),
            (OpClass::SimdAlu, 3),
            (OpClass::SimdConvert, 2),
            (OpClass::ScalarAlu, 4),
            (OpClass::Branch, 1),
            (OpClass::AddrArith, 5),
            (OpClass::LibCall, 1),
        ]);
        assert_eq!(mix.simd_total(), 8);
        assert_eq!(mix.scalar_total(), 4);
        assert_eq!(mix.overhead_total(), 7);
        assert_eq!(mix.total(), 19);
        assert_eq!(
            mix.total(),
            mix.simd_total() + mix.scalar_total() + mix.overhead_total()
        );
    }

    #[test]
    fn per_pixel_and_fraction() {
        let mix = OpMix::from_pairs(&[(OpClass::SimdAlu, 14)]);
        assert_eq!(mix.per_pixel(8), 14.0 / 8.0);
        assert_eq!(mix.per_pixel(0), 0.0);
        assert_eq!(mix.simd_fraction(), 1.0);
        assert_eq!(OpMix::new().simd_fraction(), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let a = OpMix::from_pairs(&[(OpClass::SimdAlu, 2), (OpClass::Branch, 1)]);
        let b = OpMix::from_pairs(&[(OpClass::SimdAlu, 3)]);
        let sum = a + b;
        assert_eq!(sum.get(OpClass::SimdAlu), 5);
        assert_eq!(sum.get(OpClass::Branch), 1);
        let scaled = sum.scaled(2.5);
        assert_eq!(scaled.get(OpClass::SimdAlu), 13); // 12.5 rounds to 13
        let times = sum * 4;
        assert_eq!(times.get(OpClass::SimdAlu), 20);
    }

    #[test]
    fn display_lists_nonzero_classes() {
        let mix = OpMix::from_pairs(&[(OpClass::SimdLoad, 2), (OpClass::LibCall, 7)]);
        let text = mix.to_string();
        assert!(text.contains("simd.ld=2"));
        assert!(text.contains("libcall=7"));
        assert_eq!(OpMix::new().to_string(), "(empty)");
    }

    #[test]
    fn memory_total_counts_loads_and_stores() {
        let mix = OpMix::from_pairs(&[
            (OpClass::SimdLoad, 2),
            (OpClass::ScalarStore, 3),
            (OpClass::SimdAlu, 9),
        ]);
        assert_eq!(mix.memory_total(), 5);
    }
}
