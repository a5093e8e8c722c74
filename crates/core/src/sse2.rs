//! One SSE2 surface, two instances.
//!
//! Every hand-written SSE2 row of the kernels is written once, generic over
//! [`Sse2`], a trait over exactly the `_mm_*` intrinsics those rows use
//! (same names, same lane semantics). Two types implement it:
//!
//! * [`Sim`] forwards to the `sse-sim` crate. Every call records one op
//!   with `op_trace`, so a row run under [`Engine::Sse2Sim`] yields the
//!   instruction stream of the paper's Section V. Its memory ops index the
//!   slice, so an out-of-bounds load or store panics.
//! * `Arch` (x86_64 only) forwards to `core::arch::x86_64`, every method
//!   `#[inline(always)]`, so a row instantiated with it compiles to the
//!   same loop as a body written against `core::arch` directly. It is what
//!   [`Engine::Native`] runs on x86_64.
//!
//! Register ops are safe. The five memory ops are `unsafe fn`s that take a
//! slice and an element offset `at`: the caller promises that the bytes
//! they access from `at` lie inside the slice, and each row says why in a
//! `// SAFETY:` comment. Under [`Sim`] that promise is checked on every
//! call, so running a row on [`Engine::Sse2Sim`] tests its `SAFETY`
//! argument.
//!
//! [`Engine::Sse2Sim`]: crate::Engine::Sse2Sim
//! [`Engine::Native`]: crate::Engine::Native

pub use sse_sim::MemElem;

/// Calls `$then!` with the signatures of the surface's register ops, so
/// the trait and both instances list them once.
macro_rules! with_register_ops {
    ($then:ident) => {
        $then! {
            _mm_setzero_si128() -> Self::I;
            _mm_set1_epi8(v: i8) -> Self::I;
            _mm_set1_epi16(v: i16) -> Self::I;
            _mm_set1_epi32(v: i32) -> Self::I;
            _mm_cvtps_epi32(a: Self::F) -> Self::I;
            _mm_add_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_add_epi32(a: Self::I, b: Self::I) -> Self::I;
            _mm_adds_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_sub_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_mullo_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_mulhi_epu16(a: Self::I, b: Self::I) -> Self::I;
            _mm_madd_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_avg_epu8(a: Self::I, b: Self::I) -> Self::I;
            _mm_max_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_min_epu8(a: Self::I, b: Self::I) -> Self::I;
            _mm_max_epu8(a: Self::I, b: Self::I) -> Self::I;
            _mm_cmpgt_epi8(a: Self::I, b: Self::I) -> Self::I;
            _mm_and_si128(a: Self::I, b: Self::I) -> Self::I;
            _mm_andnot_si128(a: Self::I, b: Self::I) -> Self::I;
            _mm_xor_si128(a: Self::I, b: Self::I) -> Self::I;
            _mm_packs_epi32(a: Self::I, b: Self::I) -> Self::I;
            _mm_packus_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_unpacklo_epi8(a: Self::I, b: Self::I) -> Self::I;
            _mm_unpackhi_epi8(a: Self::I, b: Self::I) -> Self::I;
            _mm_unpacklo_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_unpackhi_epi16(a: Self::I, b: Self::I) -> Self::I;
            _mm_slli_epi16<IMM8>(a: Self::I) -> Self::I;
            _mm_srli_epi16<IMM8>(a: Self::I) -> Self::I;
            _mm_srli_epi32<IMM8>(a: Self::I) -> Self::I;
            _mm_srai_epi32<IMM8>(a: Self::I) -> Self::I;
        }
    };
}

macro_rules! declare_register_ops {
    ($($name:ident$(<$imm:ident>)?($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
        #[doc = concat!("`", stringify!($name), "`.")]
        fn $name$(<const $imm: i32>)?($($arg: $ty),*) -> $ret;
    )*};
}

/// The SSE2 intrinsics the hand-written kernel rows use. Each memory op
/// accesses the bytes that start at element `at` of its slice.
pub trait Sse2 {
    /// The 128-bit integer register, `__m128i`.
    type I: Copy;
    /// The four-float register, `__m128`.
    type F: Copy;

    /// `movdqu` load from `src[at..]`.
    ///
    /// # Safety
    ///
    /// `src[at..]` must hold at least 16 bytes.
    unsafe fn _mm_loadu_si128<T: MemElem>(src: &[T], at: usize) -> Self::I;
    /// `movq` load from `src[at..]`, zeroing the high half.
    ///
    /// # Safety
    ///
    /// `src[at..]` must hold at least 8 bytes.
    unsafe fn _mm_loadl_epi64<T: MemElem>(src: &[T], at: usize) -> Self::I;
    /// `movups` load of `src[at..at + 4]`.
    ///
    /// # Safety
    ///
    /// `src[at..]` must hold at least 4 floats.
    unsafe fn _mm_loadu_ps(src: &[f32], at: usize) -> Self::F;
    /// `movdqu` store of `v` to `dst[at..]`.
    ///
    /// # Safety
    ///
    /// `dst[at..]` must hold at least 16 bytes.
    unsafe fn _mm_storeu_si128<T: MemElem>(dst: &mut [T], at: usize, v: Self::I);
    /// `movq` store of the low half of `v` to `dst[at..]`.
    ///
    /// # Safety
    ///
    /// `dst[at..]` must hold at least 8 bytes.
    unsafe fn _mm_storel_epi64<T: MemElem>(dst: &mut [T], at: usize, v: Self::I);

    with_register_ops!(declare_register_ops);
}

/// The recording `sse-sim` instance of [`Sse2`].
#[derive(Debug, Clone, Copy)]
pub struct Sim;

macro_rules! sim_register_ops {
    ($($name:ident$(<$imm:ident>)?($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
        #[inline]
        fn $name$(<const $imm: i32>)?($($arg: $ty),*) -> $ret {
            sse_sim::$name$(::<$imm>)?($($arg),*)
        }
    )*};
}

impl Sse2 for Sim {
    type I = sse_sim::__m128i;
    type F = sse_sim::__m128;

    #[track_caller]
    unsafe fn _mm_loadu_si128<T: MemElem>(src: &[T], at: usize) -> Self::I {
        sse_sim::_mm_loadu_si128(&src[at..])
    }
    #[track_caller]
    unsafe fn _mm_loadl_epi64<T: MemElem>(src: &[T], at: usize) -> Self::I {
        sse_sim::_mm_loadl_epi64(&src[at..])
    }
    #[track_caller]
    unsafe fn _mm_loadu_ps(src: &[f32], at: usize) -> Self::F {
        sse_sim::_mm_loadu_ps(&src[at..])
    }
    #[track_caller]
    unsafe fn _mm_storeu_si128<T: MemElem>(dst: &mut [T], at: usize, v: Self::I) {
        sse_sim::_mm_storeu_si128(&mut dst[at..], v)
    }
    #[track_caller]
    unsafe fn _mm_storel_epi64<T: MemElem>(dst: &mut [T], at: usize, v: Self::I) {
        sse_sim::_mm_storel_epi64(&mut dst[at..], v)
    }

    with_register_ops!(sim_register_ops);
}

#[cfg(target_arch = "x86_64")]
pub use arch::Arch;

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::{MemElem, Sse2};
    use std::arch::x86_64 as x86;

    /// The `core::arch` instance of [`Sse2`]: each method is the intrinsic
    /// itself, inlined. SSE2 is part of the x86_64 baseline, so every
    /// x86_64 CPU runs it; that is the `SAFETY` argument of each register
    /// op.
    #[derive(Debug, Clone, Copy)]
    pub struct Arch;

    macro_rules! arch_register_ops {
        ($($name:ident$(<$imm:ident>)?($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
            #[inline(always)]
            fn $name$(<const $imm: i32>)?($($arg: $ty),*) -> $ret {
                // SAFETY: SSE2 is baseline on x86_64.
                unsafe { x86::$name$(::<$imm>)?($($arg),*) }
            }
        )*};
    }

    // The memory ops are sound because the caller keeps the accessed bytes
    // inside the slice, and the unaligned forms take any alignment.
    impl Sse2 for Arch {
        type I = x86::__m128i;
        type F = x86::__m128;

        #[inline(always)]
        unsafe fn _mm_loadu_si128<T: MemElem>(src: &[T], at: usize) -> Self::I {
            x86::_mm_loadu_si128(src.as_ptr().add(at).cast())
        }
        #[inline(always)]
        unsafe fn _mm_loadl_epi64<T: MemElem>(src: &[T], at: usize) -> Self::I {
            x86::_mm_loadl_epi64(src.as_ptr().add(at).cast())
        }
        #[inline(always)]
        unsafe fn _mm_loadu_ps(src: &[f32], at: usize) -> Self::F {
            x86::_mm_loadu_ps(src.as_ptr().add(at))
        }
        #[inline(always)]
        unsafe fn _mm_storeu_si128<T: MemElem>(dst: &mut [T], at: usize, v: Self::I) {
            x86::_mm_storeu_si128(dst.as_mut_ptr().add(at).cast(), v)
        }
        #[inline(always)]
        unsafe fn _mm_storel_epi64<T: MemElem>(dst: &mut [T], at: usize, v: Self::I) {
            x86::_mm_storel_epi64(dst.as_mut_ptr().add(at).cast(), v)
        }

        with_register_ops!(arch_register_ops);
    }
}

#[cfg(test)]
mod tests {
    use super::{Sim, Sse2};

    #[test]
    #[should_panic(expected = "SSE load needs 16 elements, slice has 15")]
    fn sim_load_past_the_slice_panics() {
        let row = [0u8; 24];
        // SAFETY: deliberately 1 byte short; the sim must catch it.
        let _ = unsafe { Sim::_mm_loadu_si128(&row, 9) };
    }

    #[test]
    #[should_panic(expected = "SSE 64-bit store needs 4 elements, slice has 3")]
    fn sim_store_past_the_slice_panics() {
        let mut row = [0i16; 11];
        // SAFETY: deliberately one element short; the sim must catch it.
        unsafe { Sim::_mm_storel_epi64(&mut row, 8, Sim::_mm_setzero_si128()) };
    }
}
