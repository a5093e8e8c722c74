//! Every call the benchmark makes into the program under test.
//!
//! Metric code names only the types and functions defined here, so a
//! change to the program's public surface edits this file and no metric
//! definition.

use std::sync::Arc;
use std::time::Duration;

use pixelimage::Image;
use simdbench_core::kernelgen::{paper_gaussian_kernel, FixedKernel};
use simdbench_core::pipeline::{self, BandPlan};
use simdbench_core::scratch::{Scratch, MAX_TAPS};
use simdbench_core::sobel::SobelDirection;
use simdbench_core::stream::{FrameStatus, StreamConfig, StreamEngine, StreamError, StreamKernel};
use simdbench_core::{avx, convert, edge, gaussian, sobel, threshold, ThresholdType};

pub use simdbench_core::Engine;

/// An 8-bit grayscale frame.
pub type Frame = Image<u8>;

/// Threshold used by the threshold and edge kernels (the harness value).
pub const THRESH: u8 = 96;

/// The paper's five kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Convert,
    Threshold,
    Gaussian,
    Sobel,
    Edge,
}

impl Kernel {
    pub const ALL: [Kernel; 5] = [
        Kernel::Convert,
        Kernel::Threshold,
        Kernel::Gaussian,
        Kernel::Sobel,
        Kernel::Edge,
    ];
    /// The kernels with a fused band pipeline and a pool driver.
    pub const STENCILS: [Kernel; 3] = [Kernel::Gaussian, Kernel::Sobel, Kernel::Edge];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Convert => "convert",
            Kernel::Threshold => "threshold",
            Kernel::Gaussian => "gaussian",
            Kernel::Sobel => "sobel",
            Kernel::Edge => "edge",
        }
    }

    /// Compulsory DRAM bytes per pixel of the fused kernel: its source
    /// read plus its destination write (intermediates stay in cache).
    pub fn bytes_per_px(self) -> f64 {
        match self {
            Kernel::Convert => 4.0 + 2.0,
            Kernel::Threshold | Kernel::Gaussian | Kernel::Edge => 1.0 + 1.0,
            Kernel::Sobel => 1.0 + 2.0,
        }
    }
}

/// Which entry point runs a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Serial two-pass whole-image kernel.
    TwoPass,
    /// Serial fused band kernel with a caller-owned scratch arena; the
    /// two-pass kernel for Convert and Threshold, which have no fused form.
    Fused,
    /// Fused band kernel on the pool at its full width (stencils only).
    Pool,
}

pub fn frame(width: usize, height: usize, seed: u64) -> Frame {
    pixelimage::synthetic_image(width, height, seed)
}

/// The float input of the convert kernel, derived from a frame the way
/// the `repro` harness derives it.
pub fn float_input(frame: &Frame) -> Image<f32> {
    pixelimage::convert::u8_to_f32(frame, 257.0, -32768.0)
}

/// Destination images, scratch arena and constants reused across calls.
pub struct Workspace {
    u8: Image<u8>,
    i16: Image<i16>,
    scratch: Scratch,
    gk: FixedKernel,
    plan: BandPlan,
}

impl Workspace {
    pub fn new(width: usize, height: usize) -> Self {
        Workspace {
            u8: Image::new(width, height),
            i16: Image::new(width, height),
            scratch: Scratch::new(),
            gk: paper_gaussian_kernel(),
            plan: BandPlan::for_width(width),
        }
    }

    /// Digest of the output `kernel` last wrote.
    pub fn digest(&self, kernel: Kernel) -> u64 {
        match kernel {
            Kernel::Convert | Kernel::Sobel => digest_i16(&self.i16),
            _ => digest_u8(&self.u8),
        }
    }

    /// [`frame_checksum`] of the u8 output (the stream engine's checksum).
    pub fn u8_checksum(&self) -> u64 {
        frame_checksum(&self.u8)
    }

    pub fn scratch_fresh_allocs(&self) -> usize {
        self.scratch.fresh_allocs()
    }

    pub fn scratch_outstanding_bytes(&self) -> usize {
        self.scratch.outstanding_bytes()
    }

    pub fn bands(&self, height: usize) -> usize {
        self.plan.num_bands(height)
    }
}

/// Runs one kernel on one frame; `float` is the convert kernel's input.
pub fn run(
    kernel: Kernel,
    path: Path,
    engine: Engine,
    src: &Frame,
    float: &Image<f32>,
    ws: &mut Workspace,
) -> Result<(), String> {
    let dir = SobelDirection::X;
    let r = match (kernel, path) {
        (Kernel::Convert, Path::TwoPass | Path::Fused) => {
            convert::try_convert_f32_to_i16(float, &mut ws.i16, engine)
        }
        (Kernel::Threshold, Path::TwoPass | Path::Fused) => {
            threshold::try_threshold_u8(src, &mut ws.u8, THRESH, 255, ThresholdType::Binary, engine)
        }
        (Kernel::Gaussian, Path::TwoPass) => {
            gaussian::try_gaussian_blur_kernel(src, &mut ws.u8, &ws.gk, engine)
        }
        (Kernel::Sobel, Path::TwoPass) => sobel::try_sobel(src, &mut ws.i16, dir, engine),
        (Kernel::Edge, Path::TwoPass) => edge::try_edge_detect(src, &mut ws.u8, THRESH, engine),
        (Kernel::Gaussian, Path::Fused) => {
            pipeline::try_fused_gaussian_blur_with(src, &mut ws.u8, &ws.gk, engine, &mut ws.scratch)
        }
        (Kernel::Sobel, Path::Fused) => {
            pipeline::try_fused_sobel_with(src, &mut ws.i16, dir, engine, &mut ws.scratch)
        }
        (Kernel::Edge, Path::Fused) => {
            pipeline::try_fused_edge_detect_with(src, &mut ws.u8, THRESH, engine, &mut ws.scratch)
        }
        (Kernel::Gaussian, Path::Pool) => {
            pipeline::try_par_fused_gaussian_blur_with(src, &mut ws.u8, &ws.gk, engine, &ws.plan)
        }
        (Kernel::Sobel, Path::Pool) => {
            pipeline::try_par_fused_sobel_with(src, &mut ws.i16, dir, engine, &ws.plan)
        }
        (Kernel::Edge, Path::Pool) => {
            pipeline::try_par_fused_edge_detect_with(src, &mut ws.u8, THRESH, engine, &ws.plan)
        }
        (Kernel::Convert | Kernel::Threshold, Path::Pool) => {
            return Err(format!("{} has no pool driver", kernel.name()))
        }
    };
    r.map_err(|e| e.to_string())
}

/// The stream engine's per-frame checksum.
pub fn frame_checksum(img: &Frame) -> u64 {
    simdbench_core::stream::frame_checksum(img)
}

/// Word-wide digest of an image's pixels (padding excluded), used to
/// compare outputs without keeping reference images.
pub fn digest_u8(img: &Image<u8>) -> u64 {
    let mut h = Digest::new();
    for y in 0..img.height() {
        let row = img.row(y);
        let mut words = row.chunks_exact(8);
        for w in &mut words {
            h.push(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            h.push(u64::from(b));
        }
    }
    h.finish()
}

pub fn digest_i16(img: &Image<i16>) -> u64 {
    let mut h = Digest::new();
    for y in 0..img.height() {
        let row = img.row(y);
        let mut words = row.chunks_exact(4);
        for w in &mut words {
            let word = w
                .iter()
                .fold(0u64, |acc, &v| (acc << 16) | u64::from(v as u16));
            h.push(word);
        }
        for &v in words.remainder() {
            h.push(u64::from(v as u16));
        }
    }
    h.finish()
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0x9e37_79b9_7f4a_7c15)
    }
    #[inline]
    fn push(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(29);
    }
    fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Row primitives
// ---------------------------------------------------------------------------

/// The nine per-row primitives the kernels are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    Convert,
    Threshold,
    GaussH,
    GaussV,
    SobelHDiff,
    SobelHSmooth,
    SobelVSmooth,
    SobelVDiff,
    Magnitude,
}

impl Prim {
    pub const ALL: [Prim; 9] = [
        Prim::Convert,
        Prim::Threshold,
        Prim::GaussH,
        Prim::GaussV,
        Prim::SobelHDiff,
        Prim::SobelHSmooth,
        Prim::SobelVSmooth,
        Prim::SobelVDiff,
        Prim::Magnitude,
    ];
    /// The primitives with a 256-bit AVX2 row.
    pub const AVX2: [Prim; 3] = [Prim::Convert, Prim::Threshold, Prim::Magnitude];

    pub fn name(self) -> &'static str {
        match self {
            Prim::Convert => "convert",
            Prim::Threshold => "threshold",
            Prim::GaussH => "gauss_h",
            Prim::GaussV => "gauss_v",
            Prim::SobelHDiff => "sobel_hdiff",
            Prim::SobelHSmooth => "sobel_hsmooth",
            Prim::SobelVSmooth => "sobel_vsmooth",
            Prim::SobelVDiff => "sobel_vdiff",
            Prim::Magnitude => "magnitude",
        }
    }
}

/// Which implementation of a row primitive runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowImpl {
    Engine(Engine),
    /// The 256-bit rows of the `avx` module.
    Avx2,
}

pub fn avx2_available() -> bool {
    avx::avx2_available()
}

/// A block of consecutive rows of one frame with every intermediate a
/// primitive reads, so a sweep of the block runs each primitive on real
/// data while staying cache resident.
pub struct RowBlock {
    width: usize,
    src: Vec<Vec<u8>>,
    float: Vec<Vec<f32>>,
    mid_u16: Vec<Vec<u16>>,
    gx: Vec<Vec<i16>>,
    gy: Vec<Vec<i16>>,
    out_u8: Vec<u8>,
    out_u16: Vec<u16>,
    out_i16: Vec<i16>,
    gk: FixedKernel,
}

impl RowBlock {
    /// Rows `[y0, y0 + rows)` of `frame` and of its convert input `float`.
    pub fn new(frame: &Frame, float: &Image<f32>, y0: usize, rows: usize) -> Self {
        let width = frame.width();
        let gk = paper_gaussian_kernel();
        let src: Vec<Vec<u8>> = (y0..y0 + rows).map(|y| frame.row(y).to_vec()).collect();
        let float = (y0..y0 + rows).map(|y| float.row(y).to_vec()).collect();
        let mid_u16 = src
            .iter()
            .map(|r| {
                let mut m = vec![0u16; width];
                gaussian::horizontal_row(r, &mut m, &gk, Engine::Scalar);
                m
            })
            .collect();
        let h_pass = |f: fn(&[u8], &mut [i16], Engine)| -> Vec<Vec<i16>> {
            src.iter()
                .map(|r| {
                    let mut m = vec![0i16; width];
                    f(r, &mut m, Engine::Scalar);
                    m
                })
                .collect()
        };
        let gx = h_pass(sobel::h_diff_row);
        let gy = h_pass(sobel::h_smooth_row);
        RowBlock {
            width,
            src,
            float,
            mid_u16,
            gx,
            gy,
            out_u8: vec![0; width],
            out_u16: vec![0; width],
            out_i16: vec![0; width],
            gk,
        }
    }

    /// Pixels one [`RowBlock::sweep`] processes.
    pub fn pixels(&self) -> usize {
        self.width * self.src.len()
    }

    /// Runs `prim` once over every row of the block. Returns a value
    /// derived from the outputs so the work cannot be optimised away.
    pub fn sweep(&mut self, prim: Prim, imp: RowImpl) -> u64 {
        let rows = self.src.len();
        let k = self.gk.len();
        let mut acc = 0u64;
        for y in 0..rows {
            let up = y.saturating_sub(1);
            let down = (y + 1).min(rows - 1);
            match (prim, imp) {
                (Prim::Convert, RowImpl::Engine(e)) => {
                    convert::convert_row(&self.float[y], &mut self.out_i16, e)
                }
                (Prim::Convert, RowImpl::Avx2) => {
                    avx::convert_row_avx2(&self.float[y], &mut self.out_i16)
                }
                (Prim::Threshold, RowImpl::Engine(e)) => threshold::threshold_row(
                    &self.src[y],
                    &mut self.out_u8,
                    THRESH,
                    255,
                    ThresholdType::Binary,
                    e,
                ),
                (Prim::Threshold, RowImpl::Avx2) => avx::threshold_row_avx2(
                    &self.src[y],
                    &mut self.out_u8,
                    THRESH,
                    255,
                    ThresholdType::Binary,
                ),
                (Prim::GaussH, RowImpl::Engine(e)) => {
                    gaussian::horizontal_row(&self.src[y], &mut self.out_u16, &self.gk, e)
                }
                (Prim::GaussV, RowImpl::Engine(e)) => {
                    let empty: &[u16] = &[];
                    let mut taps = [empty; MAX_TAPS];
                    for (i, tap) in taps.iter_mut().enumerate().take(k) {
                        let yy = (y + i).saturating_sub(k / 2).min(rows - 1);
                        *tap = &self.mid_u16[yy];
                    }
                    gaussian::vertical_row(&taps[..k], &mut self.out_u8, &self.gk, e)
                }
                (Prim::SobelHDiff, RowImpl::Engine(e)) => {
                    sobel::h_diff_row(&self.src[y], &mut self.out_i16, e)
                }
                (Prim::SobelHSmooth, RowImpl::Engine(e)) => {
                    sobel::h_smooth_row(&self.src[y], &mut self.out_i16, e)
                }
                (Prim::SobelVSmooth, RowImpl::Engine(e)) => sobel::v_smooth_row(
                    &self.gx[up],
                    &self.gx[y],
                    &self.gx[down],
                    &mut self.out_i16,
                    e,
                ),
                (Prim::SobelVDiff, RowImpl::Engine(e)) => {
                    sobel::v_diff_row(&self.gy[up], &self.gy[down], &mut self.out_i16, e)
                }
                (Prim::Magnitude, RowImpl::Engine(e)) => {
                    edge::magnitude_row(&self.gx[y], &self.gy[y], &mut self.out_u8, e)
                }
                (Prim::Magnitude, RowImpl::Avx2) => {
                    avx::magnitude_row_avx2(&self.gx[y], &self.gy[y], &mut self.out_u8)
                }
                (_, RowImpl::Avx2) => unreachable!("{} has no AVX2 row", prim.name()),
            }
            acc = acc
                .wrapping_add(u64::from(self.out_u8[y % self.width]))
                .wrapping_add(u64::from(self.out_u16[y % self.width]))
                .wrapping_add(self.out_i16[y % self.width] as u64);
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

/// Worker count the pool runs jobs at.
pub fn pool_width() -> usize {
    rayon::current_num_threads()
}

/// One no-op job on every pool worker; the first call starts the pool.
pub fn pool_noop() {
    rayon::broadcast(|_| {});
}

// ---------------------------------------------------------------------------
// Stream engine
// ---------------------------------------------------------------------------

/// What a stream runs per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    Gaussian,
    Edge,
}

impl StreamOp {
    pub fn kernel(self) -> Kernel {
        match self {
            StreamOp::Gaussian => Kernel::Gaussian,
            StreamOp::Edge => Kernel::Edge,
        }
    }
}

/// How a stream is configured.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub op: StreamOp,
    pub width: usize,
    pub height: usize,
    pub slots: usize,
    pub queue_cap: usize,
    pub slo: Option<Duration>,
}

/// Result of offering one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer {
    Admitted,
    /// Refused by backpressure; the frame was not taken.
    Saturated,
    /// Refused as a bad frame; the frame was not taken.
    Rejected(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    Completed { checksum: u64 },
    Shed,
    Failed(String),
}

/// One frame's outcome; `latency` runs from admission to outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub id: u64,
    pub status: Status,
    pub latency: Duration,
}

/// The stream engine, always run with the HAND engine.
pub struct Stream {
    engine: StreamEngine,
}

impl Stream {
    pub fn new(spec: StreamSpec) -> Result<Stream, String> {
        let mut cfg = StreamConfig::new(spec.width, spec.height);
        cfg.kernel = match spec.op {
            StreamOp::Gaussian => StreamKernel::Gaussian,
            StreamOp::Edge => StreamKernel::Edge,
        };
        cfg.engine = Engine::Native;
        cfg.thresh = THRESH;
        cfg.slots = spec.slots;
        cfg.queue_cap = spec.queue_cap;
        cfg.slo = spec.slo;
        let engine = StreamEngine::new(cfg).map_err(|e| e.to_string())?;
        Ok(Stream { engine })
    }

    /// Offers one frame and returns at once.
    pub fn offer(&self, id: u64, frame: &Arc<Frame>) -> Offer {
        match self.engine.submit(id, Arc::clone(frame)) {
            Ok(()) => Offer::Admitted,
            Err(StreamError::Saturated { .. }) => Offer::Saturated,
            Err(e @ StreamError::Rejected(_)) => Offer::Rejected(e.to_string()),
        }
    }

    /// Closed-loop submit: retries while the queue is full, polling as
    /// `repro stream` does. Returns the number of refused attempts.
    pub fn submit_until_admitted(&self, id: u64, frame: &Arc<Frame>) -> Result<u64, String> {
        let mut refused = 0;
        loop {
            match self.offer(id, frame) {
                Offer::Admitted => return Ok(refused),
                Offer::Saturated => {
                    refused += 1;
                    std::thread::sleep(Duration::from_micros(50));
                }
                Offer::Rejected(e) => return Err(e),
            }
        }
    }

    pub fn wait_idle(&self) {
        self.engine.wait_idle();
    }

    pub fn fresh_allocs(&self) -> usize {
        self.engine.slot_fresh_allocs()
    }

    pub fn outstanding_bytes(&self) -> usize {
        self.engine.outstanding_scratch_bytes()
    }

    /// Drains the stream and returns every admitted frame's outcome.
    pub fn finish(self) -> Vec<Outcome> {
        self.engine
            .finish()
            .into_iter()
            .map(|o| Outcome {
                id: o.id,
                status: match o.status {
                    FrameStatus::Completed { checksum } => Status::Completed { checksum },
                    FrameStatus::Shed(_) => Status::Shed,
                    FrameStatus::Failed(e) => Status::Failed(e.to_string()),
                },
                latency: o.latency,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Pool and stream counters read from the program's telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub pool_jobs: u64,
    pub pool_steals: u64,
    pub pool_parks: u64,
    pub pool_wakeups: u64,
    pub stream_queue_depth_hw: u64,
}

impl Counters {
    /// Adds `other`'s counts; the high-water mark takes the maximum.
    pub fn add(&mut self, other: &Counters) {
        self.pool_jobs += other.pool_jobs;
        self.pool_steals += other.pool_steals;
        self.pool_parks += other.pool_parks;
        self.pool_wakeups += other.pool_wakeups;
        self.stream_queue_depth_hw = self.stream_queue_depth_hw.max(other.stream_queue_depth_hw);
    }
}

pub fn telemetry(on: bool) {
    obs::set_enabled(on);
}

/// Zeroes the telemetry counters.
pub fn telemetry_reset() {
    obs::reset();
}

pub fn counters() -> Counters {
    let s = obs::snapshot();
    Counters {
        pool_jobs: s.counter(obs::Counter::PoolJobs),
        pool_steals: s.counter(obs::Counter::PoolSteals),
        pool_parks: s.counter(obs::Counter::PoolParks),
        pool_wakeups: s.counter(obs::Counter::PoolWakeups),
        stream_queue_depth_hw: s.gauge(obs::Gauge::StreamQueueDepthHighWater),
    }
}
