//! Error taxonomy for the kernel entry points.
//!
//! Every image-level kernel has exactly one public entry point, a `try_*`
//! function that **validates** its preconditions and returns a
//! [`KernelError`] instead of unwinding. A malformed frame — including a
//! zero-size one — is always an error the caller sees, never a silent
//! no-op.
//!
//! The taxonomy covers the four failure families the fault-model design
//! (DESIGN.md §10) calls out:
//!
//! * geometry — [`KernelError::WidthMismatch`] /
//!   [`KernelError::HeightMismatch`] / [`KernelError::ChannelMismatch`],
//! * degenerate frames — [`KernelError::ZeroSize`],
//! * addressing limits — [`KernelError::StrideMismatch`] /
//!   [`KernelError::DimensionOverflow`],
//! * resource and configuration faults —
//!   [`KernelError::ArenaExhausted`], [`KernelError::BadKernel`],
//!   [`KernelError::FaultInjected`] (a `faultline` forced error
//!   surfacing through a fallible API),
//!
//! plus overload — [`KernelError::DeadlineExceeded`], the stream
//! engine's load-shedding verdict (DESIGN.md §11): a frame rejected for
//! blowing its SLO is an *error the caller sees*, never a silent drop.

use std::fmt;

/// Hard ceiling on `width × height` accepted by the fallible entry
/// points: 2³² pixels (≈ 4 Gpx, 512× the paper's largest frame). Beyond
/// this, intermediate byte counts (`stride × height × size_of::<i16>()`)
/// approach `isize::MAX` on 32-bit hosts and allocation requests stop
/// being distinguishable from corrupted headers — a frame this large is
/// treated as malformed input, not a workload.
pub const MAX_PIXELS: u128 = 1 << 32;

/// Everything that can go wrong at a fallible kernel entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// Source and destination widths differ.
    WidthMismatch {
        /// Source width in pixels.
        src: usize,
        /// Destination width in pixels.
        dst: usize,
    },
    /// Source and destination heights differ.
    HeightMismatch {
        /// Source height in pixels.
        src: usize,
        /// Destination height in pixels.
        dst: usize,
    },
    /// Multi-plane input (BGR) whose channel dimensions disagree.
    ChannelMismatch {
        /// Dimensions of the reference (blue) plane.
        expected: (usize, usize),
        /// Dimensions of the offending plane.
        got: (usize, usize),
    },
    /// A zero-area frame (width or height of 0), surfaced so callers can
    /// reject degenerate requests instead of receiving an untouched `dst`.
    ZeroSize {
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
    },
    /// A row stride shorter than the row width (rows would overlap).
    StrideMismatch {
        /// Claimed stride in elements.
        stride: usize,
        /// Row width in pixels.
        width: usize,
    },
    /// Frame dimensions whose product overflows [`MAX_PIXELS`] (or
    /// `usize` arithmetic on the addressing path).
    DimensionOverflow {
        /// Frame width in pixels.
        width: usize,
        /// Frame height in pixels.
        height: usize,
    },
    /// The scratch arena's byte cap cannot accommodate a checkout.
    ArenaExhausted {
        /// Bytes the checkout would have brought the arena to.
        requested: usize,
        /// The arena's configured cap.
        cap: usize,
    },
    /// A convolution kernel that is not Q8-normalised (taps must sum to
    /// 256 so the fixed-point vertical pass is exact).
    BadKernel {
        /// The kernel's actual tap sum.
        sum: i32,
    },
    /// A `faultline` forced error injected at a fallible entry point
    /// (chaos testing; never produced in production configuration).
    FaultInjected {
        /// Name of the failpoint that tripped.
        failpoint: String,
    },
    /// A streamed frame whose service-level deadline had already passed
    /// when it reached the head of the admission queue; the stream
    /// engine sheds it instead of starting doomed work.
    DeadlineExceeded {
        /// Microseconds the frame waited after admission.
        waited_us: u64,
        /// The configured service-level objective, in microseconds.
        slo_us: u64,
    },
}

impl fmt::Display for KernelError {
    // The mismatch arms keep the historical assert messages ("width
    // mismatch", "height mismatch", "channel dimensions differ", "kernel
    // must be Q8-normalised") so downstream log scrapers keep matching.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::WidthMismatch { src, dst } => {
                write!(f, "width mismatch: src {src} vs dst {dst}")
            }
            KernelError::HeightMismatch { src, dst } => {
                write!(f, "height mismatch: src {src} vs dst {dst}")
            }
            KernelError::ChannelMismatch { expected, got } => write!(
                f,
                "channel dimensions differ: {}x{} vs {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            KernelError::ZeroSize { width, height } => {
                write!(f, "zero-size frame: {width}x{height}")
            }
            KernelError::StrideMismatch { stride, width } => {
                write!(f, "stride {stride} shorter than row width {width}")
            }
            KernelError::DimensionOverflow { width, height } => {
                write!(f, "frame dimensions overflow: {width}x{height}")
            }
            KernelError::ArenaExhausted { requested, cap } => {
                write!(
                    f,
                    "scratch arena exhausted: need {requested} B, cap {cap} B"
                )
            }
            KernelError::BadKernel { sum } => {
                write!(
                    f,
                    "kernel must be Q8-normalised: taps sum to {sum}, not 256"
                )
            }
            KernelError::FaultInjected { failpoint } => {
                write!(f, "injected fault at failpoint {failpoint}")
            }
            KernelError::DeadlineExceeded { waited_us, slo_us } => {
                write!(
                    f,
                    "frame deadline exceeded: waited {waited_us}us, SLO {slo_us}us"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<faultline::InjectedFault> for KernelError {
    fn from(fault: faultline::InjectedFault) -> Self {
        KernelError::FaultInjected {
            failpoint: fault.failpoint,
        }
    }
}

/// Shorthand result for the fallible kernel APIs.
pub type KernelResult<T = ()> = Result<T, KernelError>;

/// Validates one frame's geometry: non-zero area, stride covering the
/// width, and a pixel count under [`MAX_PIXELS`].
pub fn validate_frame(width: usize, height: usize, stride: usize) -> KernelResult {
    if width == 0 || height == 0 {
        return Err(KernelError::ZeroSize { width, height });
    }
    if stride < width {
        return Err(KernelError::StrideMismatch { stride, width });
    }
    let pixels = width as u128 * height as u128;
    if pixels > MAX_PIXELS || (stride as u128) * (height as u128) > MAX_PIXELS {
        return Err(KernelError::DimensionOverflow { width, height });
    }
    Ok(())
}

/// Validates a same-shape src/dst pair (the contract shared by every
/// single-plane kernel): matching dimensions, then per-frame geometry.
pub fn validate_pair<S, D>(src: &pixelimage::Image<S>, dst: &pixelimage::Image<D>) -> KernelResult
where
    S: simd_vector::align::Pod,
    D: simd_vector::align::Pod,
{
    if src.width() != dst.width() {
        return Err(KernelError::WidthMismatch {
            src: src.width(),
            dst: dst.width(),
        });
    }
    if src.height() != dst.height() {
        return Err(KernelError::HeightMismatch {
            src: src.height(),
            dst: dst.height(),
        });
    }
    validate_frame(src.width(), src.height(), src.stride())?;
    validate_frame(dst.width(), dst.height(), dst.stride())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::Image;

    #[test]
    fn display_preserves_legacy_assert_messages() {
        let w = KernelError::WidthMismatch { src: 4, dst: 5 };
        assert!(w.to_string().contains("width mismatch"));
        let h = KernelError::HeightMismatch { src: 4, dst: 5 };
        assert!(h.to_string().contains("height mismatch"));
        let c = KernelError::ChannelMismatch {
            expected: (4, 4),
            got: (5, 4),
        };
        assert!(c.to_string().contains("channel dimensions differ"));
        let k = KernelError::BadKernel { sum: 300 };
        assert!(k.to_string().contains("kernel must be Q8-normalised"));
    }

    #[test]
    fn frame_validation_catches_each_family() {
        assert_eq!(
            validate_frame(0, 5, 0),
            Err(KernelError::ZeroSize {
                width: 0,
                height: 5
            })
        );
        assert_eq!(
            validate_frame(8, 0, 8),
            Err(KernelError::ZeroSize {
                width: 8,
                height: 0
            })
        );
        assert_eq!(
            validate_frame(100, 10, 64),
            Err(KernelError::StrideMismatch {
                stride: 64,
                width: 100
            })
        );
        let huge = usize::MAX / 2;
        assert_eq!(
            validate_frame(huge, huge, huge),
            Err(KernelError::DimensionOverflow {
                width: huge,
                height: huge
            })
        );
        assert_eq!(validate_frame(640, 480, 640), Ok(()));
        // 1xN and Nx1 frames are valid, not degenerate.
        assert_eq!(validate_frame(1, 480, 16), Ok(()));
        assert_eq!(validate_frame(640, 1, 640), Ok(()));
    }

    #[test]
    fn pair_validation_orders_width_before_height() {
        let a = Image::<u8>::new(4, 6);
        let b = Image::<u8>::new(5, 7);
        assert_eq!(
            validate_pair(&a, &b),
            Err(KernelError::WidthMismatch { src: 4, dst: 5 })
        );
        let c = Image::<u8>::new(4, 7);
        assert_eq!(
            validate_pair(&a, &c),
            Err(KernelError::HeightMismatch { src: 6, dst: 7 })
        );
        let d = Image::<i16>::new(4, 6);
        assert_eq!(validate_pair(&a, &d), Ok(()));
    }
}
