//! Band-tiled fused execution pipeline (experiment A4).
//!
//! The two-pass kernels materialise full-image intermediates: the Gaussian
//! writes an `Image<u16>` the size of the input before the vertical pass
//! reads it back, Sobel an `Image<i16>`, and `try_edge_detect` two of them. At
//! the paper's 5 Mpx and 8 Mpx resolutions those intermediates are 10–32 MB
//! — far beyond any L2 — so every pixel of the horizontal pass is evicted
//! to DRAM and re-fetched by the vertical pass.
//!
//! This module fuses the passes: the image is processed in horizontal
//! *bands*, and inside a band the horizontal pass runs lazily, exactly one
//! row ahead of the vertical pass, into a ring of `k` row buffers
//! (`k` = kernel taps). The intermediate working set shrinks from
//! `O(width × height)` to `O(width × k)` — a few dozen KB that stays cache
//! resident — while every row is still produced by the *same* per-row
//! engine primitives as the two-pass code, so outputs are bit-identical
//! for every [`Engine`] (the correctness contract, enforced by tests).
//!
//! Band geometry comes from a [`BandPlan`]: bands are sized from real
//! cache capacities so a band's source and destination rows fit L2 while
//! the ring fits L1 where the width allows. `platform-model` derives plans
//! from its per-platform cache descriptions; [`BandPlan::for_width`] uses
//! conservative defaults.
//!
//! The public surface is six fallible entry points, a serial
//! `try_fused_*_with` and a pool-parallel `try_par_fused_*_with` per
//! kernel, all thin calls into one private driver that owns validation,
//! failpoints, workspace checkout, band slicing and fault conversion.
//!
//! Buffers come from a [`Scratch`] arena. The sequential entry points use
//! a caller-owned arena; the parallel entry points hand bands to the
//! persistent worker pool (`shim-rayon`), where each worker owns a
//! thread-local arena ([`crate::scratch::with_worker_workspace`]) that
//! lives as long as the worker thread. Either way, steady-state calls
//! perform zero heap allocations inside the band loops (see
//! `tests/fused_zero_alloc.rs` for the allocator-level proof of both
//! paths).

use crate::dispatch::Engine;
use crate::edge::{magnitude_row, one_pass_edge_row};
use crate::error::{validate_pair, KernelError, KernelResult};
use crate::gaussian::{horizontal_row, vertical_row};
use crate::kernelgen::FixedKernel;
use crate::scratch::{with_worker_workspace, BandWorkspace, Scratch, WorkspaceSpec, MAX_TAPS};
use crate::sobel::{h_diff_row, h_smooth_row, v_diff_row, v_smooth_row, SobelDirection};
use crate::threshold::{threshold_row, ThresholdType};
use pixelimage::Image;

// ---------------------------------------------------------------------------
// Band planning
// ---------------------------------------------------------------------------

/// How to slice an image into horizontal bands for fused processing, and
/// how many pool workers the parallel entry points spread them over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandPlan {
    /// Rows per band (the last band may be shorter).
    pub band_rows: usize,
    /// Pool workers a `try_par_fused_*` call may use; `<= 1` runs the
    /// bands inline on the calling thread.
    pub threads: usize,
}

impl BandPlan {
    /// Default L1 data-cache capacity assumed by [`BandPlan::for_width`]:
    /// 32 KiB, the paper's Cortex-A9 and Atom parts alike.
    pub const DEFAULT_L1D_BYTES: usize = 32 * 1024;

    /// Default per-core L2 capacity assumed by [`BandPlan::for_width`]:
    /// 256 KiB (Atom D2700 per-core; Cortex-A9 parts share 512 KiB–1 MiB
    /// across two cores, the same order of magnitude).
    pub const DEFAULT_L2_BYTES: usize = 256 * 1024;

    /// Derives a plan from explicit cache capacities (bytes).
    ///
    /// The band is sized so its u8 source rows plus u8/i16 destination
    /// rows — the streams the fused loop actually touches repeatedly —
    /// occupy at most half of L2, leaving the other half for the ring
    /// buffers, the kernel's code, and prefetch slack:
    ///
    /// ```text
    /// band_rows ≈ (l2 / 2) / (width × 3 bytes-per-pixel)
    /// ```
    ///
    /// (3 ≈ 1 byte source + 2 bytes of worst-case destination, the i16
    /// Sobel output.) The result is clamped to `[8, 512]` rows: fewer than
    /// 8 rows per band makes halo recomputation (up to `2r` extra
    /// horizontal rows per band) a measurable fraction of the work, and
    /// beyond 512 rows more bands stop improving locality but reduce
    /// parallel balance. L1 does not bound the band height — the ring
    /// working set is `k` rows regardless of band size; it bounds the
    /// *width* at which the ring stays L1-resident, which the planner
    /// reports via [`BandPlan::ring_fits_l1`].
    ///
    /// `threads` is the host's parallelism
    /// ([`rayon::current_num_threads`]).
    pub fn for_cache(width: usize, l1d_bytes: usize, l2_bytes: usize) -> BandPlan {
        let _ = l1d_bytes; // see ring_fits_l1: L1 constrains width, not rows
        let bytes_per_row = width.max(1) * 3;
        let rows = (l2_bytes / 2) / bytes_per_row;
        BandPlan {
            band_rows: rows.clamp(8, 512),
            threads: rayon::current_num_threads(),
        }
    }

    /// Plan from the default cache capacities.
    pub fn for_width(width: usize) -> BandPlan {
        Self::for_cache(width, Self::DEFAULT_L1D_BYTES, Self::DEFAULT_L2_BYTES)
    }

    /// Whether a `k`-tap u16 ring for rows of `width` pixels fits in an L1
    /// of `l1d_bytes` (informational; the pipeline works either way, the
    /// ring then lives in L2).
    pub fn ring_fits_l1(width: usize, k: usize, l1d_bytes: usize) -> bool {
        width * 2 * k <= l1d_bytes
    }

    /// Number of bands this plan produces for an image of `height` rows.
    pub fn num_bands(&self, height: usize) -> usize {
        height.div_ceil(self.band_rows.max(1))
    }

    /// Iterator over `(start_row, end_row)` half-open band ranges.
    pub fn bands(&self, height: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let rows = self.band_rows.max(1);
        (0..self.num_bands(height)).map(move |b| {
            let start = b * rows;
            (start, (start + rows).min(height))
        })
    }
}

#[inline]
fn clamp_row(y: isize, height: usize) -> usize {
    y.clamp(0, height as isize - 1) as usize
}

/// Runs a band loop, converting a faultline-injected panic into
/// [`KernelError::FaultInjected`] so the `try_*` entry points complete or
/// error cleanly under chaos; genuine panics propagate unchanged. Scratch
/// give-back is already handled by the drop guards, so nothing leaks on
/// either path.
fn catching_injected(f: impl FnOnce()) -> KernelResult {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(()) => Ok(()),
        Err(payload) => match faultline::injected_failpoint(payload.as_ref()) {
            Some(name) => Err(KernelError::FaultInjected {
                failpoint: name.to_string(),
            }),
            None => std::panic::resume_unwind(payload),
        },
    }
}

/// Telemetry bookkeeping shared by the three band bodies: one band
/// processed, `halo` horizontal rows recomputed (rows below `y0` that the
/// previous band's ring already produced), and the band's wall time into
/// the latency histogram. Costs four flag branches when telemetry is off.
struct BandTelemetry {
    timer: Option<std::time::Instant>,
    halo: usize,
}

impl BandTelemetry {
    #[inline]
    fn start(y0: usize, first_h_row: usize) -> Self {
        BandTelemetry {
            timer: obs::start_timer(),
            halo: y0 - first_h_row,
        }
    }
}

impl Drop for BandTelemetry {
    fn drop(&mut self) {
        obs::add(obs::Counter::PipelineBands, 1);
        obs::add(obs::Counter::PipelineHaloRows, self.halo as u64);
        obs::stop_timer(obs::HistId::PipelineBandNanos, self.timer);
    }
}

// ---------------------------------------------------------------------------
// Fused Gaussian
// ---------------------------------------------------------------------------

/// Fused Gaussian blur with an explicit kernel and a caller-owned arena.
///
/// Bit-identical to [`crate::gaussian::try_gaussian_blur_kernel`] for every
/// engine. Validates geometry and kernel normalisation, surfaces arena
/// exhaustion from a capped [`Scratch`], and converts faultline-injected
/// band panics into [`KernelError::FaultInjected`] (with the workspace
/// returned to the arena either way). Kernels longer than [`MAX_TAPS`]
/// taps fall back to the two-pass implementation (they exceed the
/// fixed-size ring/tap arrays).
pub fn try_fused_gaussian_blur_with(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    kernel: &FixedKernel,
    engine: Engine,
    scratch: &mut Scratch,
) -> KernelResult {
    gaussian_op(Exec::Serial(scratch), src, dst, kernel, engine)
}

/// Band-parallel fused Gaussian blur on the persistent worker pool.
/// Bit-identical to the sequential kernels for every engine. Workspaces
/// come from the workers' thread-local arenas; faultline-injected worker
/// panics (re-raised by the pool at the submitting thread) surface as
/// [`KernelError::FaultInjected`].
pub fn try_par_fused_gaussian_blur_with(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    kernel: &FixedKernel,
    engine: Engine,
    plan: &BandPlan,
) -> KernelResult {
    gaussian_op(Exec::Pool(plan), src, dst, kernel, engine)
}

/// Shared body of the two fused Gaussian entry points.
fn gaussian_op(
    exec: Exec<'_>,
    src: &Image<u8>,
    dst: &mut Image<u8>,
    kernel: &FixedKernel,
    engine: Engine,
) -> KernelResult {
    let stride = dst.stride();
    let spec = WorkspaceSpec::gaussian(src.width(), kernel.len());
    let two_pass =
        |dst: &mut Image<u8>| crate::gaussian::try_gaussian_blur_kernel(src, dst, kernel, engine);
    drive(
        exec,
        ["fused.gaussian", "par_fused.gaussian"],
        src,
        dst,
        spec,
        Some((kernel, &two_pass)),
        move |b, d, ws| gaussian_band(src, d, stride, b.y0, b.y1, kernel, engine, ws),
    )
}

/// Runs the fused Gaussian over dst rows `[y0, y1)`.
///
/// `dst_band` is the destination slice whose row `i` (of the *band*)
/// starts at `i * dst_stride`; `width` pixels per row are written.
#[allow(clippy::too_many_arguments)]
fn gaussian_band(
    src: &Image<u8>,
    dst_band: &mut [u8],
    dst_stride: usize,
    y0: usize,
    y1: usize,
    kernel: &FixedKernel,
    engine: Engine,
    ws: &mut BandWorkspace,
) {
    faultline::fire("pipeline.band");
    let width = src.width();
    let height = src.height();
    let k = kernel.len();
    let r = kernel.radius;
    // Next source row to run the horizontal pass on. The ring holds the
    // horizontal results of source rows [next - k, next), keyed by
    // `row % k`; at output row y the taps span [y - r, y + r] (clamped),
    // exactly the k most recent rows.
    let mut next = (y0 as isize - r as isize).max(0) as usize;
    let _telemetry = BandTelemetry::start(y0, next);
    for y in y0..y1 {
        let need = (y + r).min(height - 1);
        while next <= need {
            let slot = &mut ws.ring_u16[next % k];
            horizontal_row(
                src.row(next),
                &mut slot.as_mut_slice()[..width],
                kernel,
                engine,
            );
            next += 1;
        }
        let empty: &[u16] = &[];
        let mut taps: [&[u16]; MAX_TAPS] = [empty; MAX_TAPS];
        for (ki, tap) in taps.iter_mut().enumerate().take(k) {
            let yy = clamp_row(y as isize + ki as isize - r as isize, height);
            *tap = &ws.ring_u16[yy % k].as_slice()[..width];
        }
        let row0 = (y - y0) * dst_stride;
        vertical_row(
            &taps[..k],
            &mut dst_band[row0..row0 + width],
            kernel,
            engine,
        );
    }
}

// ---------------------------------------------------------------------------
// Fused Sobel
// ---------------------------------------------------------------------------

/// Fused Sobel gradient with a caller-owned arena. Bit-identical to
/// [`crate::sobel::try_sobel`] (see [`try_fused_gaussian_blur_with`] for the
/// error contract).
pub fn try_fused_sobel_with(
    src: &Image<u8>,
    dst: &mut Image<i16>,
    dir: SobelDirection,
    engine: Engine,
    scratch: &mut Scratch,
) -> KernelResult {
    sobel_op(Exec::Serial(scratch), src, dst, dir, engine)
}

/// Band-parallel fused Sobel on the persistent worker pool (see
/// [`try_par_fused_gaussian_blur_with`] for the error contract).
pub fn try_par_fused_sobel_with(
    src: &Image<u8>,
    dst: &mut Image<i16>,
    dir: SobelDirection,
    engine: Engine,
    plan: &BandPlan,
) -> KernelResult {
    sobel_op(Exec::Pool(plan), src, dst, dir, engine)
}

/// Shared body of the two fused Sobel entry points.
fn sobel_op(
    exec: Exec<'_>,
    src: &Image<u8>,
    dst: &mut Image<i16>,
    dir: SobelDirection,
    engine: Engine,
) -> KernelResult {
    let stride = dst.stride();
    let spec = WorkspaceSpec::sobel(src.width());
    let spans = ["fused.sobel", "par_fused.sobel"];
    drive(exec, spans, src, dst, spec, None, move |b, d, ws| {
        sobel_band(src, d, stride, b.y0, b.y1, dir, engine, ws)
    })
}

/// Runs the fused Sobel over dst rows `[y0, y1)` (band-relative slice, as
/// in [`gaussian_band`]).
#[allow(clippy::too_many_arguments)]
fn sobel_band(
    src: &Image<u8>,
    dst_band: &mut [i16],
    dst_stride: usize,
    y0: usize,
    y1: usize,
    dir: SobelDirection,
    engine: Engine,
    ws: &mut BandWorkspace,
) {
    faultline::fire("pipeline.band");
    let width = src.width();
    let height = src.height();
    let mut next = (y0 as isize - 1).max(0) as usize;
    let _telemetry = BandTelemetry::start(y0, next);
    for y in y0..y1 {
        let need = (y + 1).min(height - 1);
        while next <= need {
            let slot = &mut ws.ring_a[next % 3];
            let mid = &mut slot.as_mut_slice()[..width];
            match dir {
                SobelDirection::X => h_diff_row(src.row(next), mid, engine),
                SobelDirection::Y => h_smooth_row(src.row(next), mid, engine),
            }
            next += 1;
        }
        let above = &ws.ring_a[clamp_row(y as isize - 1, height) % 3].as_slice()[..width];
        let here = &ws.ring_a[y % 3].as_slice()[..width];
        let below = &ws.ring_a[clamp_row(y as isize + 1, height) % 3].as_slice()[..width];
        let row0 = (y - y0) * dst_stride;
        let drow = &mut dst_band[row0..row0 + width];
        match dir {
            SobelDirection::X => v_smooth_row(above, here, below, drow, engine),
            SobelDirection::Y => v_diff_row(above, below, drow, engine),
        }
    }
}

// ---------------------------------------------------------------------------
// Fused edge detection
// ---------------------------------------------------------------------------

/// Fused edge detection (Sobel X + Sobel Y → L1 magnitude → binary
/// threshold) with a caller-owned arena. Bit-identical to
/// [`crate::edge::try_edge_detect`] while never materialising the two
/// gradient images (see [`try_fused_gaussian_blur_with`] for the error
/// contract).
pub fn try_fused_edge_detect_with(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    thresh: u8,
    engine: Engine,
    scratch: &mut Scratch,
) -> KernelResult {
    edge_op(Exec::Serial(scratch), src, dst, thresh, engine)
}

/// Band-parallel fused edge detection on the persistent worker pool (see
/// [`try_par_fused_gaussian_blur_with`] for the error contract).
pub fn try_par_fused_edge_detect_with(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    thresh: u8,
    engine: Engine,
    plan: &BandPlan,
) -> KernelResult {
    edge_op(Exec::Pool(plan), src, dst, thresh, engine)
}

/// Shared body of the two fused edge entry points.
fn edge_op(
    exec: Exec<'_>,
    src: &Image<u8>,
    dst: &mut Image<u8>,
    thresh: u8,
    engine: Engine,
) -> KernelResult {
    let stride = dst.stride();
    let spec = WorkspaceSpec::edge(src.width(), engine);
    let spans = ["fused.edge", "par_fused.edge"];
    drive(exec, spans, src, dst, spec, None, move |b, d, ws| {
        edge_band(src, d, stride, b.y0, b.y1, thresh, engine, ws)
    })
}

/// Runs the fused edge chain over dst rows `[y0, y1)`.
///
/// An engine with a one-pass edge row ([`one_pass_edge_row`]: `Native`
/// and `Sse2Sim`, which share one SSE2 body) runs it once per output row,
/// straight from the three clamped source rows: no ring, so no halo row
/// is recomputed. Every other engine advances both horizontal passes
/// (difference for gx, smoothing for gy) in lockstep through their own
/// 3-row rings; gx/gy/magnitude exist only as single rows.
#[allow(clippy::too_many_arguments)]
fn edge_band(
    src: &Image<u8>,
    dst_band: &mut [u8],
    dst_stride: usize,
    y0: usize,
    y1: usize,
    thresh: u8,
    engine: Engine,
    ws: &mut BandWorkspace,
) {
    faultline::fire("pipeline.band");
    let width = src.width();
    let height = src.height();
    if let Some(edge_row) = one_pass_edge_row(engine) {
        let _telemetry = BandTelemetry::start(y0, y0);
        for y in y0..y1 {
            let above = src.row(clamp_row(y as isize - 1, height));
            let below = src.row(clamp_row(y as isize + 1, height));
            let row0 = (y - y0) * dst_stride;
            let drow = &mut dst_band[row0..row0 + width];
            edge_row(above, src.row(y), below, drow, thresh);
        }
        return;
    }
    let mut next = (y0 as isize - 1).max(0) as usize;
    let _telemetry = BandTelemetry::start(y0, next);
    for y in y0..y1 {
        let need = (y + 1).min(height - 1);
        while next <= need {
            let srow = src.row(next);
            h_diff_row(
                srow,
                &mut ws.ring_a[next % 3].as_mut_slice()[..width],
                engine,
            );
            h_smooth_row(
                srow,
                &mut ws.ring_b[next % 3].as_mut_slice()[..width],
                engine,
            );
            next += 1;
        }
        let ym = clamp_row(y as isize - 1, height) % 3;
        let yp = clamp_row(y as isize + 1, height) % 3;
        // gx = vertical [1,2,1] over the h-diff ring.
        v_smooth_row(
            &ws.ring_a[ym].as_slice()[..width],
            &ws.ring_a[y % 3].as_slice()[..width],
            &ws.ring_a[yp].as_slice()[..width],
            &mut ws.row_gx.as_mut_slice()[..width],
            engine,
        );
        // gy = vertical [-1,0,1] over the h-smooth ring.
        v_diff_row(
            &ws.ring_b[ym].as_slice()[..width],
            &ws.ring_b[yp].as_slice()[..width],
            &mut ws.row_gy.as_mut_slice()[..width],
            engine,
        );
        magnitude_row(
            &ws.row_gx.as_slice()[..width],
            &ws.row_gy.as_slice()[..width],
            &mut ws.row_u8.as_mut_slice()[..width],
            engine,
        );
        let row0 = (y - y0) * dst_stride;
        threshold_row(
            &ws.row_u8.as_slice()[..width],
            &mut dst_band[row0..row0 + width],
            thresh,
            255,
            ThresholdType::Binary,
            engine,
        );
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// One parallel work item: a band's row range and its destination slice.
struct BandItem<'a, T> {
    y0: usize,
    y1: usize,
    dst: &'a mut [T],
}

/// Splits `dst` into per-band mutable slices according to `plan`.
///
/// Band `b` covers dst rows `[b*rows, min((b+1)*rows, height))`; its slice
/// starts at the first row and is trimmed so the final row ends at
/// `width` (the trailing padding of the last row is never written).
fn band_items<'a, T: simd_vector::align::Pod>(
    dst: &'a mut Image<T>,
    plan: &BandPlan,
) -> Vec<BandItem<'a, T>> {
    let width = dst.width();
    let height = dst.height();
    let stride = dst.stride();
    let rows = plan.band_rows.max(1);
    let mut items = Vec::with_capacity(plan.num_bands(height));
    let mut rest = &mut dst.as_mut_slice()[..];
    let mut y = 0usize;
    while y < height {
        let y1 = (y + rows).min(height);
        let band_rows = y1 - y;
        let full = band_rows * stride;
        let (chunk, tail) = if full <= rest.len() {
            rest.split_at_mut(full)
        } else {
            // Last band: the backing buffer ends at the last row's width
            // boundary only if the image is unpadded; take what remains.
            rest.split_at_mut(rest.len())
        };
        let used = (band_rows - 1) * stride + width;
        items.push(BandItem {
            y0: y,
            y1,
            dst: &mut chunk[..used],
        });
        rest = tail;
        y = y1;
    }
    items
}

/// Runs the bands on up to `threads` workers of the persistent pool.
/// Bands are scheduled dynamically (chunked, stealable tasks), so any
/// worker may process any band; each takes its workspace from its own
/// thread-local arena, which is warm after the worker's first band of
/// this shape — steady-state parallel calls perform no worker-side heap
/// allocations.
fn run_bands<T, F>(items: Vec<BandItem<'_, T>>, threads: usize, spec: WorkspaceSpec, work: F)
where
    T: simd_vector::align::Pod + Send,
    F: Fn(&BandItem<'_, T>, &mut [T], &mut BandWorkspace) + Send + Sync,
{
    let work_ref = &work;
    rayon::for_each(items, threads, move |mut item| {
        let _span = obs::span("pool.band");
        with_worker_workspace(spec, |ws| {
            let dst = std::mem::take(&mut item.dst);
            work_ref(&item, dst, ws);
        });
    });
}

/// Where a fused call runs its bands.
enum Exec<'a> {
    /// One band covering the whole image, on the calling thread, with a
    /// workspace from the caller's arena.
    Serial(&'a mut Scratch),
    /// The plan's bands on `plan.threads` workers of the persistent pool,
    /// each with a workspace from its worker's thread-local arena.
    Pool(&'a BandPlan),
}

/// A Gaussian call's kernel, and the two-pass kernel that runs instead
/// when the kernel is longer than the ring ([`MAX_TAPS`]).
type Taps<'a, T> = (&'a FixedKernel, &'a dyn Fn(&mut Image<T>) -> KernelResult);

/// The one driver behind every entry point. In order: the entry span
/// (`spans` names the serial and the pool one), geometry validation, the
/// kernel's Q8 check, the entry failpoint, the two-pass fallback for long
/// kernels, workspace checkout, band slicing, and the band body under
/// [`catching_injected`].
fn drive<T, F>(
    exec: Exec<'_>,
    spans: [&'static str; 2],
    src: &Image<u8>,
    dst: &mut Image<T>,
    spec: WorkspaceSpec,
    taps: Option<Taps<'_, T>>,
    band: F,
) -> KernelResult
where
    T: simd_vector::align::Pod + Send,
    F: Fn(&BandItem<'_, T>, &mut [T], &mut BandWorkspace) + Send + Sync,
{
    let (span, failpoint) = match exec {
        Exec::Serial(_) => (spans[0], "fused.entry"),
        Exec::Pool(_) => (spans[1], "par_fused.entry"),
    };
    let _span = obs::span(span);
    validate_pair(src, dst)?;
    if let Some((kernel, _)) = taps {
        if kernel.sum() != 256 {
            return Err(KernelError::BadKernel { sum: kernel.sum() });
        }
    }
    if let Some(fault) = faultline::inject(failpoint) {
        return Err(fault.into());
    }
    if let Some((kernel, two_pass)) = taps {
        if kernel.len() > MAX_TAPS {
            return two_pass(dst);
        }
    }
    match exec {
        Exec::Serial(scratch) => {
            // `band_items` with a single band, built in place so a warm
            // serial call stays free of heap allocations.
            let mut co = scratch.try_checkout_guarded(spec)?;
            let (width, height, stride) = (dst.width(), dst.height(), dst.stride());
            let whole = BandItem {
                y0: 0,
                y1: height,
                dst: &mut [],
            };
            let dst_band = &mut dst.as_mut_slice()[..(height - 1) * stride + width];
            let ws = co.ws();
            catching_injected(move || band(&whole, dst_band, ws))
        }
        Exec::Pool(plan) => {
            let items = band_items(dst, plan);
            catching_injected(|| run_bands(items, plan.threads, spec, band))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::try_edge_detect;
    use crate::gaussian::try_gaussian_blur_kernel;
    use crate::kernelgen::paper_gaussian_kernel;
    use crate::sobel::try_sobel;
    use pixelimage::synthetic_image;

    #[test]
    fn band_plan_scales_with_width_and_cache() {
        // Wider rows -> fewer rows per band.
        let narrow = BandPlan::for_width(640);
        let wide = BandPlan::for_width(3264);
        assert!(narrow.band_rows >= wide.band_rows);
        // Bigger L2 -> taller bands.
        let small = BandPlan::for_cache(1280, 32 * 1024, 128 * 1024);
        let big = BandPlan::for_cache(1280, 32 * 1024, 2 * 1024 * 1024);
        assert!(big.band_rows >= small.band_rows);
        // Clamps hold at the extremes.
        assert_eq!(BandPlan::for_cache(1 << 24, 32 * 1024, 1024).band_rows, 8);
        assert_eq!(BandPlan::for_cache(1, 32 * 1024, 1 << 30).band_rows, 512);
    }

    #[test]
    fn band_ranges_cover_image_exactly() {
        for height in [1usize, 7, 8, 9, 100, 511, 512, 513] {
            let plan = BandPlan {
                band_rows: 64,
                threads: 1,
            };
            let mut covered = 0;
            let mut prev_end = 0;
            for (y0, y1) in plan.bands(height) {
                assert_eq!(y0, prev_end);
                assert!(y1 > y0 && y1 <= height);
                covered += y1 - y0;
                prev_end = y1;
            }
            assert_eq!(covered, height);
            assert_eq!(plan.num_bands(height), height.div_ceil(64));
        }
    }

    #[test]
    fn fused_gaussian_matches_two_pass_all_engines() {
        let src = synthetic_image(83, 37, 101);
        let kernel = paper_gaussian_kernel();
        for engine in Engine::ALL {
            let mut two_pass = Image::new(83, 37);
            try_gaussian_blur_kernel(&src, &mut two_pass, &kernel, engine).unwrap();
            let mut fused = Image::new(83, 37);
            try_fused_gaussian_blur_with(&src, &mut fused, &kernel, engine, &mut Scratch::new())
                .unwrap();
            assert!(fused.pixels_eq(&two_pass), "{engine:?}");
        }
    }

    #[test]
    fn fused_sobel_matches_two_pass_all_engines() {
        let src = synthetic_image(85, 33, 103);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            for engine in Engine::ALL {
                let mut two_pass = Image::new(85, 33);
                try_sobel(&src, &mut two_pass, dir, engine).unwrap();
                let mut fused = Image::new(85, 33);
                try_fused_sobel_with(&src, &mut fused, dir, engine, &mut Scratch::new()).unwrap();
                assert!(fused.pixels_eq(&two_pass), "{dir:?} {engine:?}");
            }
        }
    }

    #[test]
    fn fused_edge_matches_two_pass_all_engines() {
        let src = synthetic_image(73, 41, 107);
        for engine in Engine::ALL {
            let mut two_pass = Image::new(73, 41);
            try_edge_detect(&src, &mut two_pass, 96, engine).unwrap();
            let mut fused = Image::new(73, 41);
            try_fused_edge_detect_with(&src, &mut fused, 96, engine, &mut Scratch::new()).unwrap();
            assert!(fused.pixels_eq(&two_pass), "{engine:?}");
        }
    }

    #[test]
    fn par_fused_matches_sequential_with_tiny_bands() {
        // band_rows = 3 forces many bands and much halo recomputation;
        // results must not change.
        let src = synthetic_image(61, 47, 109);
        let plan = BandPlan {
            band_rows: 3,
            threads: 4,
        };
        let kernel = paper_gaussian_kernel();

        let mut expect_u8 = Image::new(61, 47);
        try_gaussian_blur_kernel(&src, &mut expect_u8, &kernel, Engine::Native).unwrap();
        let mut got = Image::new(61, 47);
        try_par_fused_gaussian_blur_with(&src, &mut got, &kernel, Engine::Native, &plan).unwrap();
        assert!(got.pixels_eq(&expect_u8), "gaussian");

        for dir in [SobelDirection::X, SobelDirection::Y] {
            let mut expect_i16 = Image::new(61, 47);
            try_sobel(&src, &mut expect_i16, dir, Engine::Native).unwrap();
            let mut got = Image::new(61, 47);
            try_par_fused_sobel_with(&src, &mut got, dir, Engine::Native, &plan).unwrap();
            assert!(got.pixels_eq(&expect_i16), "sobel {dir:?}");
        }

        try_edge_detect(&src, &mut expect_u8, 96, Engine::Native).unwrap();
        try_par_fused_edge_detect_with(&src, &mut got, 96, Engine::Native, &plan).unwrap();
        assert!(got.pixels_eq(&expect_u8), "edge");
    }

    #[test]
    fn warm_scratch_performs_no_allocations() {
        let src = synthetic_image(320, 200, 113);
        let mut dst = Image::new(320, 200);
        let mut scratch = Scratch::new();
        let plan = BandPlan {
            band_rows: 50,
            threads: 1,
        };
        let kernel = paper_gaussian_kernel();

        // Cold runs populate the arenas: the caller arena for the
        // sequential path, the worker thread-local arenas for the
        // parallel path (inline on this thread at width 1). The parallel
        // edge runs Autovec, whose band uses the rings; the Native band
        // needs no workspace.
        try_par_fused_edge_detect_with(&src, &mut dst, 96, Engine::Autovec, &plan).unwrap();
        try_fused_gaussian_blur_with(&src, &mut dst, &kernel, Engine::Native, &mut scratch)
            .unwrap();
        let warm = scratch.fresh_allocs();
        let warm_worker = crate::scratch::worker_arena_fresh_allocs();

        // Warm runs must not touch the allocator through either arena.
        for _ in 0..3 {
            try_par_fused_edge_detect_with(&src, &mut dst, 96, Engine::Autovec, &plan).unwrap();
            try_fused_gaussian_blur_with(&src, &mut dst, &kernel, Engine::Native, &mut scratch)
                .unwrap();
        }
        assert_eq!(scratch.fresh_allocs(), warm, "warm run allocated buffers");
        assert_eq!(
            crate::scratch::worker_arena_fresh_allocs(),
            warm_worker,
            "warm parallel run grew the worker arena"
        );
    }

    #[test]
    fn oversized_kernel_falls_back_to_two_pass() {
        // 33 taps > MAX_TAPS: must still produce two-pass results.
        let src = synthetic_image(60, 40, 127);
        let kernel = crate::kernelgen::gaussian_kernel_q8(5.0, 33);
        let mut expect = Image::new(60, 40);
        crate::gaussian::try_gaussian_blur_kernel(&src, &mut expect, &kernel, Engine::Native)
            .unwrap();
        let mut scratch = Scratch::new();
        let mut got = Image::new(60, 40);
        try_fused_gaussian_blur_with(&src, &mut got, &kernel, Engine::Native, &mut scratch)
            .unwrap();
        assert!(got.pixels_eq(&expect));
        let plan = BandPlan::for_width(60);
        try_par_fused_gaussian_blur_with(&src, &mut got, &kernel, Engine::Native, &plan).unwrap();
        assert!(got.pixels_eq(&expect));
    }
}
