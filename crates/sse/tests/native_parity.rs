//! Checks every simulated SSE2 intrinsic against the genuine hardware
//! instruction via `core::arch::x86_64`, over both structured edge cases and
//! randomized inputs. Only compiled on x86_64 hosts (every x86_64 CPU has
//! SSE2 by definition of the ABI).
#![cfg(target_arch = "x86_64")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::arch::x86_64 as native;

/// Number of random trials per intrinsic.
const TRIALS: usize = 512;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5EED_CAFE)
}

// --- helpers to move data between the sim and native worlds ----------------

fn native_ps(lanes: [f32; 4]) -> native::__m128 {
    unsafe { native::_mm_loadu_ps(lanes.as_ptr()) }
}

fn native_ps_out(v: native::__m128) -> [f32; 4] {
    let mut out = [0f32; 4];
    unsafe { native::_mm_storeu_ps(out.as_mut_ptr(), v) };
    out
}

fn native_pd(lanes: [f64; 2]) -> native::__m128d {
    unsafe { native::_mm_loadu_pd(lanes.as_ptr()) }
}

fn native_pd_out(v: native::__m128d) -> [f64; 2] {
    let mut out = [0f64; 2];
    unsafe { native::_mm_storeu_pd(out.as_mut_ptr(), v) };
    out
}

fn native_si(bytes: [u8; 16]) -> native::__m128i {
    unsafe { native::_mm_loadu_si128(bytes.as_ptr() as *const native::__m128i) }
}

fn native_si_out(v: native::__m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    unsafe { native::_mm_storeu_si128(out.as_mut_ptr() as *mut native::__m128i, v) };
    out
}

fn sim_si(bytes: [u8; 16]) -> sse_sim::__m128i {
    sse_sim::_mm_loadu_si128(&bytes)
}

fn sim_si_out(v: sse_sim::__m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    sse_sim::_mm_storeu_si128(&mut out, v);
    out
}

fn rand_bytes(rng: &mut StdRng) -> [u8; 16] {
    let mut b = [0u8; 16];
    rng.fill(&mut b);
    b
}

fn rand_floats(rng: &mut StdRng) -> [f32; 4] {
    // Mix of magnitudes including values near the i32/i16 boundaries.
    let pick = |rng: &mut StdRng| -> f32 {
        match rng.gen_range(0..6) {
            0 => rng.gen_range(-1.0f32..1.0),
            1 => rng.gen_range(-100_000.0f32..100_000.0),
            2 => rng.gen_range(-40_000.0f32..40_000.0),
            3 => (rng.gen_range(-100i32..100) as f32) + 0.5,
            4 => rng.gen_range(-3.0e9f32..3.0e9),
            _ => rng.gen_range(-255.0f32..255.0),
        }
    };
    [pick(rng), pick(rng), pick(rng), pick(rng)]
}

/// Compares float lanes bit-for-bit (NaN payloads included).
fn assert_bits_eq(a: [f32; 4], b: [f32; 4], what: &str) {
    for i in 0..4 {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}: lane {i}: sim {} vs native {}",
            a[i],
            b[i]
        );
    }
}

macro_rules! check_ps_binop {
    ($name:ident, $sim:path, $nat:path) => {
        #[test]
        fn $name() {
            let mut rng = rng();
            for _ in 0..TRIALS {
                let a = rand_floats(&mut rng);
                let b = rand_floats(&mut rng);
                let sim = $sim(a.into(), b.into()).to_array();
                let nat = native_ps_out(unsafe { $nat(native_ps(a), native_ps(b)) });
                assert_bits_eq(sim, nat, stringify!($name));
            }
        }
    };
}

check_ps_binop!(add_ps, sse_sim::_mm_add_ps, native::_mm_add_ps);
check_ps_binop!(sub_ps, sse_sim::_mm_sub_ps, native::_mm_sub_ps);
check_ps_binop!(mul_ps, sse_sim::_mm_mul_ps, native::_mm_mul_ps);
check_ps_binop!(div_ps, sse_sim::_mm_div_ps, native::_mm_div_ps);
check_ps_binop!(min_ps, sse_sim::_mm_min_ps, native::_mm_min_ps);
check_ps_binop!(max_ps, sse_sim::_mm_max_ps, native::_mm_max_ps);
check_ps_binop!(cmpgt_ps, sse_sim::_mm_cmpgt_ps, native::_mm_cmpgt_ps);
check_ps_binop!(cmpge_ps, sse_sim::_mm_cmpge_ps, native::_mm_cmpge_ps);
check_ps_binop!(cmplt_ps, sse_sim::_mm_cmplt_ps, native::_mm_cmplt_ps);
check_ps_binop!(cmple_ps, sse_sim::_mm_cmple_ps, native::_mm_cmple_ps);
check_ps_binop!(cmpeq_ps, sse_sim::_mm_cmpeq_ps, native::_mm_cmpeq_ps);
check_ps_binop!(and_ps, sse_sim::_mm_and_ps, native::_mm_and_ps);
check_ps_binop!(or_ps, sse_sim::_mm_or_ps, native::_mm_or_ps);
check_ps_binop!(xor_ps, sse_sim::_mm_xor_ps, native::_mm_xor_ps);
check_ps_binop!(andnot_ps, sse_sim::_mm_andnot_ps, native::_mm_andnot_ps);

macro_rules! check_si_binop {
    ($name:ident, $sim:path, $nat:path) => {
        #[test]
        fn $name() {
            let mut rng = rng();
            for _ in 0..TRIALS {
                let a = rand_bytes(&mut rng);
                let b = rand_bytes(&mut rng);
                let sim = sim_si_out($sim(sim_si(a), sim_si(b)));
                let nat = native_si_out(unsafe { $nat(native_si(a), native_si(b)) });
                assert_eq!(sim, nat, stringify!($name));
            }
        }
    };
}

check_si_binop!(add_epi8, sse_sim::_mm_add_epi8, native::_mm_add_epi8);
check_si_binop!(sub_epi8, sse_sim::_mm_sub_epi8, native::_mm_sub_epi8);
check_si_binop!(add_epi16, sse_sim::_mm_add_epi16, native::_mm_add_epi16);
check_si_binop!(sub_epi16, sse_sim::_mm_sub_epi16, native::_mm_sub_epi16);
check_si_binop!(add_epi32, sse_sim::_mm_add_epi32, native::_mm_add_epi32);
check_si_binop!(sub_epi32, sse_sim::_mm_sub_epi32, native::_mm_sub_epi32);
check_si_binop!(add_epi64, sse_sim::_mm_add_epi64, native::_mm_add_epi64);
check_si_binop!(sub_epi64, sse_sim::_mm_sub_epi64, native::_mm_sub_epi64);
check_si_binop!(adds_epi8, sse_sim::_mm_adds_epi8, native::_mm_adds_epi8);
check_si_binop!(adds_epi16, sse_sim::_mm_adds_epi16, native::_mm_adds_epi16);
check_si_binop!(subs_epi16, sse_sim::_mm_subs_epi16, native::_mm_subs_epi16);
check_si_binop!(adds_epu8, sse_sim::_mm_adds_epu8, native::_mm_adds_epu8);
check_si_binop!(subs_epu8, sse_sim::_mm_subs_epu8, native::_mm_subs_epu8);
check_si_binop!(adds_epu16, sse_sim::_mm_adds_epu16, native::_mm_adds_epu16);
check_si_binop!(subs_epu16, sse_sim::_mm_subs_epu16, native::_mm_subs_epu16);
check_si_binop!(
    mullo_epi16,
    sse_sim::_mm_mullo_epi16,
    native::_mm_mullo_epi16
);
check_si_binop!(
    mulhi_epi16,
    sse_sim::_mm_mulhi_epi16,
    native::_mm_mulhi_epi16
);
check_si_binop!(
    mulhi_epu16,
    sse_sim::_mm_mulhi_epu16,
    native::_mm_mulhi_epu16
);
check_si_binop!(madd_epi16, sse_sim::_mm_madd_epi16, native::_mm_madd_epi16);
check_si_binop!(max_epu8, sse_sim::_mm_max_epu8, native::_mm_max_epu8);
check_si_binop!(min_epu8, sse_sim::_mm_min_epu8, native::_mm_min_epu8);
check_si_binop!(max_epi16, sse_sim::_mm_max_epi16, native::_mm_max_epi16);
check_si_binop!(min_epi16, sse_sim::_mm_min_epi16, native::_mm_min_epi16);
check_si_binop!(avg_epu8, sse_sim::_mm_avg_epu8, native::_mm_avg_epu8);
check_si_binop!(avg_epu16, sse_sim::_mm_avg_epu16, native::_mm_avg_epu16);
check_si_binop!(sad_epu8, sse_sim::_mm_sad_epu8, native::_mm_sad_epu8);
check_si_binop!(mul_epu32, sse_sim::_mm_mul_epu32, native::_mm_mul_epu32);
check_si_binop!(and_si128, sse_sim::_mm_and_si128, native::_mm_and_si128);
check_si_binop!(or_si128, sse_sim::_mm_or_si128, native::_mm_or_si128);
check_si_binop!(xor_si128, sse_sim::_mm_xor_si128, native::_mm_xor_si128);
check_si_binop!(
    andnot_si128,
    sse_sim::_mm_andnot_si128,
    native::_mm_andnot_si128
);
check_si_binop!(cmpeq_epi8, sse_sim::_mm_cmpeq_epi8, native::_mm_cmpeq_epi8);
check_si_binop!(cmpgt_epi8, sse_sim::_mm_cmpgt_epi8, native::_mm_cmpgt_epi8);
check_si_binop!(
    cmpeq_epi16,
    sse_sim::_mm_cmpeq_epi16,
    native::_mm_cmpeq_epi16
);
check_si_binop!(
    cmpgt_epi16,
    sse_sim::_mm_cmpgt_epi16,
    native::_mm_cmpgt_epi16
);
check_si_binop!(
    cmpeq_epi32,
    sse_sim::_mm_cmpeq_epi32,
    native::_mm_cmpeq_epi32
);
check_si_binop!(
    cmpgt_epi32,
    sse_sim::_mm_cmpgt_epi32,
    native::_mm_cmpgt_epi32
);
check_si_binop!(
    packs_epi32,
    sse_sim::_mm_packs_epi32,
    native::_mm_packs_epi32
);
check_si_binop!(
    packs_epi16,
    sse_sim::_mm_packs_epi16,
    native::_mm_packs_epi16
);
check_si_binop!(
    packus_epi16,
    sse_sim::_mm_packus_epi16,
    native::_mm_packus_epi16
);
check_si_binop!(
    unpacklo_epi8,
    sse_sim::_mm_unpacklo_epi8,
    native::_mm_unpacklo_epi8
);
check_si_binop!(
    unpackhi_epi8,
    sse_sim::_mm_unpackhi_epi8,
    native::_mm_unpackhi_epi8
);
check_si_binop!(
    unpacklo_epi16,
    sse_sim::_mm_unpacklo_epi16,
    native::_mm_unpacklo_epi16
);
check_si_binop!(
    unpackhi_epi16,
    sse_sim::_mm_unpackhi_epi16,
    native::_mm_unpackhi_epi16
);
check_si_binop!(
    unpacklo_epi32,
    sse_sim::_mm_unpacklo_epi32,
    native::_mm_unpacklo_epi32
);
check_si_binop!(
    unpackhi_epi32,
    sse_sim::_mm_unpackhi_epi32,
    native::_mm_unpackhi_epi32
);
check_si_binop!(
    unpacklo_epi64,
    sse_sim::_mm_unpacklo_epi64,
    native::_mm_unpacklo_epi64
);
check_si_binop!(
    unpackhi_epi64,
    sse_sim::_mm_unpackhi_epi64,
    native::_mm_unpackhi_epi64
);

macro_rules! check_si_shift {
    ($name:ident, $sim:path, $nat:path, $($imm:literal),+) => {
        #[test]
        fn $name() {
            use $sim as sim_fn;
            use $nat as nat_fn;
            let mut rng = rng();
            for _ in 0..TRIALS {
                let a = rand_bytes(&mut rng);
                $(
                    {
                        let sim = sim_si_out(sim_fn::<$imm>(sim_si(a)));
                        let nat = native_si_out(unsafe { nat_fn::<$imm>(native_si(a)) });
                        assert_eq!(sim, nat, concat!(stringify!($name), " imm ", $imm));
                    }
                )+
            }
        }
    };
}

check_si_shift!(
    slli_epi16,
    sse_sim::_mm_slli_epi16,
    native::_mm_slli_epi16,
    0,
    1,
    7,
    15
);
check_si_shift!(
    srli_epi16,
    sse_sim::_mm_srli_epi16,
    native::_mm_srli_epi16,
    0,
    1,
    7,
    15
);
check_si_shift!(
    srai_epi16,
    sse_sim::_mm_srai_epi16,
    native::_mm_srai_epi16,
    0,
    1,
    7,
    15
);
check_si_shift!(
    slli_epi32,
    sse_sim::_mm_slli_epi32,
    native::_mm_slli_epi32,
    0,
    1,
    15,
    31
);
check_si_shift!(
    srli_epi32,
    sse_sim::_mm_srli_epi32,
    native::_mm_srli_epi32,
    0,
    1,
    15,
    31
);
check_si_shift!(
    srai_epi32,
    sse_sim::_mm_srai_epi32,
    native::_mm_srai_epi32,
    0,
    1,
    15,
    31
);
check_si_shift!(
    slli_si128,
    sse_sim::_mm_slli_si128,
    native::_mm_slli_si128,
    0,
    1,
    4,
    15
);
check_si_shift!(
    srli_si128,
    sse_sim::_mm_srli_si128,
    native::_mm_srli_si128,
    0,
    1,
    4,
    15
);

#[test]
fn cvtps_epi32_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = rand_floats(&mut rng);
        let sim = sse_sim::_mm_cvtps_epi32(a.into()).as_i32().to_array();
        let nat: [i32; 4] = unsafe {
            let v = native::_mm_cvtps_epi32(native_ps(a));
            std::mem::transmute(native_si_out(v))
        };
        assert_eq!(sim, nat, "inputs {a:?}");
    }
    // Explicit edge cases: ties, NaN, overflow.
    for v in [0.5f32, 1.5, 2.5, -0.5, -1.5, -2.5, f32::NAN, 3e9, -3e9] {
        let sim = sse_sim::_mm_cvtps_epi32([v; 4].into()).as_i32().lane(0);
        let nat: [i32; 4] = unsafe {
            std::mem::transmute(native_si_out(native::_mm_cvtps_epi32(native_ps([v; 4]))))
        };
        assert_eq!(sim, nat[0], "value {v}");
    }
}

#[test]
fn cvttps_epi32_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = rand_floats(&mut rng);
        let sim = sse_sim::_mm_cvttps_epi32(a.into()).as_i32().to_array();
        let nat: [i32; 4] =
            unsafe { std::mem::transmute(native_si_out(native::_mm_cvttps_epi32(native_ps(a)))) };
        assert_eq!(sim, nat, "inputs {a:?}");
    }
}

#[test]
fn cvtepi32_ps_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = rand_bytes(&mut rng);
        let sim = sse_sim::_mm_cvtepi32_ps(sim_si(a)).to_array();
        let nat = native_ps_out(unsafe { native::_mm_cvtepi32_ps(native_si(a)) });
        assert_bits_eq(sim, nat, "cvtepi32_ps");
    }
}

#[test]
fn cvtsd_si32_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let v: f64 = rng.gen_range(-1e6..1e6);
        let sim = sse_sim::_mm_cvtsd_si32(sse_sim::_mm_set_sd(v));
        let nat = unsafe { native::_mm_cvtsd_si32(native::_mm_set_sd(v)) };
        assert_eq!(sim, nat, "value {v}");
    }
    for v in [0.5f64, 1.5, 2.5, -0.5, -1.5, -2.5] {
        let sim = sse_sim::_mm_cvtsd_si32(sse_sim::_mm_set_sd(v));
        let nat = unsafe { native::_mm_cvtsd_si32(native::_mm_set_sd(v)) };
        assert_eq!(sim, nat, "tie value {v}");
    }
}

#[test]
fn sqrt_rcp_parity() {
    // sqrtps is exact so must match bit-for-bit; rcp/rsqrt are hardware
    // estimates, so only check the sim is within the documented 1.5e-4
    // relative error of the exact value the sim returns.
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a: [f32; 4] = [
            rng.gen_range(0.001f32..1e6),
            rng.gen_range(0.001f32..1e6),
            rng.gen_range(0.001f32..1e6),
            rng.gen_range(0.001f32..1e6),
        ];
        let sim = sse_sim::_mm_sqrt_ps(a.into()).to_array();
        let nat = native_ps_out(unsafe { native::_mm_sqrt_ps(native_ps(a)) });
        assert_bits_eq(sim, nat, "sqrt_ps");

        let sim_rcp = sse_sim::_mm_rcp_ps(a.into()).to_array();
        let nat_rcp = native_ps_out(unsafe { native::_mm_rcp_ps(native_ps(a)) });
        for i in 0..4 {
            let rel = ((sim_rcp[i] - nat_rcp[i]) / sim_rcp[i]).abs();
            assert!(
                rel < 3e-4,
                "rcp lane {i}: sim {} nat {}",
                sim_rcp[i],
                nat_rcp[i]
            );
        }
    }
}

#[test]
fn movemask_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = rand_bytes(&mut rng);
        let sim = sse_sim::_mm_movemask_epi8(sim_si(a));
        let nat = unsafe { native::_mm_movemask_epi8(native_si(a)) };
        assert_eq!(sim, nat);
        let f = rand_floats(&mut rng);
        let sim = sse_sim::_mm_movemask_ps(f.into());
        let nat = unsafe { native::_mm_movemask_ps(native_ps(f)) };
        assert_eq!(sim, nat);
    }
}

#[test]
fn shuffle_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = rand_bytes(&mut rng);
        let sim = sim_si_out(sse_sim::_mm_shuffle_epi32::<0b10_01_00_11>(sim_si(a)));
        let nat =
            native_si_out(unsafe { native::_mm_shuffle_epi32::<0b10_01_00_11>(native_si(a)) });
        assert_eq!(sim, nat);
        let f = rand_floats(&mut rng);
        let g = rand_floats(&mut rng);
        let sim = sse_sim::_mm_shuffle_ps::<0b00_01_10_11>(f.into(), g.into()).to_array();
        let nat = native_ps_out(unsafe {
            native::_mm_shuffle_ps::<0b00_01_10_11>(native_ps(f), native_ps(g))
        });
        assert_bits_eq(sim, nat, "shuffle_ps");
    }
}

#[test]
fn extract_insert_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = rand_bytes(&mut rng);
        let v: i32 = rng.gen();
        assert_eq!(sse_sim::_mm_extract_epi16::<5>(sim_si(a)), unsafe {
            native::_mm_extract_epi16::<5>(native_si(a))
        },);
        assert_eq!(
            sim_si_out(sse_sim::_mm_insert_epi16::<5>(sim_si(a), v)),
            native_si_out(unsafe { native::_mm_insert_epi16::<5>(native_si(a), v) }),
        );
    }
}

#[test]
fn pd_ops_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let a = [rng.gen_range(-1e9f64..1e9), rng.gen_range(-1e9f64..1e9)];
        let b = [rng.gen_range(-1e9f64..1e9), rng.gen_range(-1e9f64..1e9)];
        macro_rules! check_pd {
            ($simf:path, $natf:path) => {{
                let sim = $simf(a.into(), b.into()).to_array();
                let nat = native_pd_out(unsafe { $natf(native_pd(a), native_pd(b)) });
                for i in 0..2 {
                    assert_eq!(sim[i].to_bits(), nat[i].to_bits());
                }
            }};
        }
        check_pd!(sse_sim::_mm_add_pd, native::_mm_add_pd);
        check_pd!(sse_sim::_mm_sub_pd, native::_mm_sub_pd);
        check_pd!(sse_sim::_mm_mul_pd, native::_mm_mul_pd);
        check_pd!(sse_sim::_mm_div_pd, native::_mm_div_pd);
        check_pd!(sse_sim::_mm_min_pd, native::_mm_min_pd);
        check_pd!(sse_sim::_mm_max_pd, native::_mm_max_pd);
    }
}

#[test]
fn loadl_storel_epi64_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let src: [u8; 24] = std::array::from_fn(|_| rng.gen());
        let at = rng.gen_range(0..17usize);
        let sim = sim_si_out(sse_sim::_mm_loadl_epi64(&src[at..]));
        let ptr = src[at..].as_ptr() as *const native::__m128i;
        assert_eq!(sim, native_si_out(unsafe { native::_mm_loadl_epi64(ptr) }));
        // The store writes 8 bytes and keeps the rest of the buffer.
        let (v, stale): ([u8; 16], [u8; 24]) =
            (rand_bytes(&mut rng), std::array::from_fn(|_| rng.gen()));
        let (mut sim_dst, mut nat_dst) = (stale, stale);
        sse_sim::_mm_storel_epi64(&mut sim_dst[at..], sim_si(v));
        let ptr = nat_dst[at..].as_mut_ptr() as *mut native::__m128i;
        unsafe { native::_mm_storel_epi64(ptr, native_si(v)) };
        assert_eq!(sim_dst, nat_dst, "storel_epi64 at {at}");
    }
}

#[test]
fn set1_and_setzero_parity() {
    let mut rng = rng();
    for _ in 0..TRIALS {
        let (b, h, w) = (rng.gen::<i8>(), rng.gen::<i16>(), rng.gen::<i32>());
        let sim = [
            sse_sim::_mm_set1_epi8(b),
            sse_sim::_mm_set1_epi16(h),
            sse_sim::_mm_set1_epi32(w),
        ];
        let nat = unsafe {
            [
                native::_mm_set1_epi8(b),
                native::_mm_set1_epi16(h),
                native::_mm_set1_epi32(w),
            ]
        };
        assert_eq!(
            sim.map(sim_si_out),
            nat.map(native_si_out),
            "set1 of {b} {h} {w}"
        );
    }
    let zero = native_si_out(unsafe { native::_mm_setzero_si128() });
    assert_eq!(sim_si_out(sse_sim::_mm_setzero_si128()), zero);
}
