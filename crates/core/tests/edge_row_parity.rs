//! Parity of the one-pass edge row with the two-pass scalar kernel.
//!
//! The one-pass SSE2 edge row computes Sobel X, Sobel Y, the saturated L1
//! magnitude and the binary threshold in one pass over three source rows.
//! Both of its instances run here, `Engine::Native` (`core::arch`) and
//! `Engine::Sse2Sim` (the traced sim, which also checks every load and
//! store against its row). These tests pin each bit for bit to
//! `edge_row_scalar`, and the fused edge entry points (serial, and
//! pool-parallel with 1-, 2- and 3-row bands) to
//! `try_edge_detect(.., Engine::Scalar)`, over widths around the 16-pixel
//! block, its 17-pixel load reach and the tail, every threshold edge case,
//! and frames that hold the magnitude at 0, at its saturated range and
//! everywhere between.

use pixelimage::Image;
use simdbench_core::dispatch::Engine;
use simdbench_core::edge::{edge_row_scalar, one_pass_edge_row, try_edge_detect};
use simdbench_core::pipeline::{
    try_fused_edge_detect_with, try_par_fused_edge_detect_with, BandPlan,
};
use simdbench_core::scratch::Scratch;

/// Every width up to three 16-pixel blocks, plus VGA and 8 Mpx rows.
fn widths() -> impl Iterator<Item = usize> {
    (1..=48).chain([640, 3264])
}

const HEIGHTS: [usize; 4] = [1, 2, 3, 37];

/// 0 and 255 are the ends of the u8 range: 255 admits no pixel, so a
/// compare on the unsaturated magnitude shows there.
const THRESHOLDS: [u8; 5] = [0, 1, 96, 254, 255];

/// The engines with a one-pass edge row: one SSE2 body, two instances.
const ENGINES: [Engine; 2] = [Engine::Native, Engine::Sse2Sim];

/// Deterministic byte noise (xorshift64*), so the tests need no RNG crate.
fn noise(w: usize, h: usize, seed: u64) -> Image<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    Image::from_fn(w, h, |_, _| {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
    })
}

/// All-0, all-255, a checkerboard of 2-pixel cells (|gx| + |gy| far past
/// 255, so the saturating add and pack run), and noise.
fn frames(w: usize, h: usize) -> [(&'static str, Image<u8>); 4] {
    [
        ("zero", Image::from_fn(w, h, |_, _| 0u8)),
        ("full", Image::from_fn(w, h, |_, _| 255u8)),
        (
            "checker",
            Image::from_fn(w, h, |x, y| if (x / 2 + y / 2) % 2 == 1 { 255 } else { 0 }),
        ),
        ("noise", noise(w, h, (w * 1009 + h) as u64)),
    ]
}

/// Source rows `clamp(y-1)`, `y` and `clamp(y+1)`.
fn rows(src: &Image<u8>, y: usize) -> (&[u8], &[u8], &[u8]) {
    let last = src.height() - 1;
    (
        src.row(y.saturating_sub(1)),
        src.row(y),
        src.row((y + 1).min(last)),
    )
}

#[test]
fn native_row_matches_scalar_row() {
    for w in widths() {
        // The middle row of each frame, and three unrelated noise rows:
        // (above, here, below) byte combinations no frame produces.
        let mut triples: Vec<[Vec<u8>; 3]> = frames(w, 3)
            .iter()
            .map(|(_, src)| [0, 1, 2].map(|y| src.row(y).to_vec()))
            .collect();
        let src = noise(w, 3, w as u64);
        triples.push([0, 1, 2].map(|y| src.row(y).to_vec()));
        for (i, [above, here, below]) in triples.iter().enumerate() {
            for thresh in THRESHOLDS {
                let mut want = vec![0x5a; w];
                edge_row_scalar(above, here, below, &mut want, thresh);
                for engine in ENGINES {
                    let edge_row = one_pass_edge_row(engine).expect("a one-pass engine");
                    // A stale destination must be overwritten everywhere.
                    let mut got = vec![0x5a; w];
                    edge_row(above, here, below, &mut got, thresh);
                    assert_eq!(got, want, "{engine:?} rows {i} w={w} thresh={thresh}");
                }
            }
        }
    }
}

#[test]
fn one_pass_rows_and_fused_kernels_match_two_pass_scalar() {
    let mut scratch = Scratch::new();
    for w in widths() {
        for h in HEIGHTS {
            for (name, src) in frames(w, h) {
                for thresh in THRESHOLDS {
                    let at = format!("{name} {w}x{h} thresh={thresh}");
                    let mut want = Image::new(w, h);
                    try_edge_detect(&src, &mut want, thresh, Engine::Scalar).unwrap();

                    let mut rowwise = Image::new(w, h);
                    for y in 0..h {
                        let (above, here, below) = rows(&src, y);
                        edge_row_scalar(above, here, below, rowwise.row_mut(y), thresh);
                    }
                    assert!(rowwise.pixels_eq(&want), "scalar rows {at}");

                    for engine in ENGINES {
                        // The sim costs about 2 µs per op in a debug build,
                        // so it runs this matrix on one frame and threshold;
                        // its row meets them all in the test above, and the
                        // band geometry does not depend on the pixels.
                        if engine == Engine::Sse2Sim && (name != "noise" || thresh != 96) {
                            continue;
                        }
                        let mut got = Image::new(w, h);
                        try_fused_edge_detect_with(&src, &mut got, thresh, engine, &mut scratch)
                            .unwrap();
                        assert!(got.pixels_eq(&want), "{engine:?} fused {at}");

                        for band_rows in [1, 2, 3] {
                            let plan = BandPlan {
                                band_rows,
                                threads: rayon::current_num_threads(),
                            };
                            let mut got = Image::new(w, h);
                            try_par_fused_edge_detect_with(&src, &mut got, thresh, engine, &plan)
                                .unwrap();
                            let bands = format!("bands of {band_rows}");
                            assert!(got.pixels_eq(&want), "{engine:?} par fused {bands} {at}");
                        }
                    }
                }
            }
        }
    }
}
