//! Seeded input frames and their reference outputs.
//!
//! A run rotates through `n` distinct frames `synthetic_image(w, h,
//! seed + i)`, so no phase replays one cache-hot frame. Every reference
//! comes from the serial two-pass `Engine::Scalar` kernels, computed
//! before any timing starts.

use std::sync::Arc;

use crate::adapter::{self, Engine, Frame, Kernel, Path, StreamOp, Workspace};

pub struct Inputs {
    pub frames: Vec<Arc<Frame>>,
    /// The convert kernel's input, one per frame.
    pub floats: Vec<pixelimage::Image<f32>>,
    /// Output digest per frame, indexed by position in [`Kernel::ALL`].
    pub digests: Vec<[u64; 5]>,
    /// The stream engine's expected checksum per frame.
    pub stream_checksums: Vec<u64>,
}

impl Inputs {
    pub fn new(
        width: usize,
        height: usize,
        seed: u64,
        n: usize,
        op: StreamOp,
    ) -> Result<Inputs, String> {
        let mut ws = Workspace::new(width, height);
        let mut inputs = Inputs {
            frames: Vec::with_capacity(n),
            floats: Vec::with_capacity(n),
            digests: Vec::with_capacity(n),
            stream_checksums: Vec::with_capacity(n),
        };
        for i in 0..n as u64 {
            let frame = adapter::frame(width, height, seed.wrapping_add(i));
            let float = adapter::float_input(&frame);
            let mut digests = [0u64; 5];
            let mut checksum = 0;
            for (d, k) in digests.iter_mut().zip(Kernel::ALL) {
                adapter::run(k, Path::TwoPass, Engine::Scalar, &frame, &float, &mut ws)?;
                *d = ws.digest(k);
                if k == op.kernel() {
                    checksum = ws.u8_checksum();
                }
            }
            inputs.frames.push(Arc::new(frame));
            inputs.floats.push(float);
            inputs.digests.push(digests);
            inputs.stream_checksums.push(checksum);
        }
        Ok(inputs)
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Expected digest of `kernel` on frame `i`.
    pub fn digest(&self, i: usize, kernel: Kernel) -> u64 {
        let k = Kernel::ALL
            .iter()
            .position(|&x| x == kernel)
            .expect("kernel is in Kernel::ALL");
        self.digests[i][k]
    }

    /// One value that changes if any input frame or reference changes;
    /// printed so runs with one seed can be compared.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0u64;
        for (i, f) in self.frames.iter().enumerate() {
            for v in [adapter::digest_u8(f), self.stream_checksums[i]]
                .into_iter()
                .chain(self.digests[i])
            {
                h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{Offer, Status, Stream, StreamSpec};

    #[test]
    fn one_seed_gives_the_same_inputs_and_references() {
        let a = Inputs::new(96, 64, 11, 3, StreamOp::Gaussian).unwrap();
        let b = Inputs::new(96, 64, 11, 3, StreamOp::Gaussian).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.stream_checksums, b.stream_checksums);
        let c = Inputs::new(96, 64, 12, 3, StreamOp::Gaussian).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The frames of one run are distinct.
        assert_ne!(a.digests[0], a.digests[1]);
        assert_ne!(a.stream_checksums[0], a.stream_checksums[1]);
    }

    #[test]
    fn stream_checksums_match_the_references_on_every_run() {
        for op in [StreamOp::Gaussian, StreamOp::Edge] {
            let inputs = Inputs::new(96, 64, 5, 4, op).unwrap();
            for _ in 0..2 {
                let stream = Stream::new(StreamSpec {
                    op,
                    width: 96,
                    height: 64,
                    slots: 2,
                    queue_cap: 16,
                    slo: None,
                })
                .unwrap();
                for id in 0..8u64 {
                    let i = id as usize % inputs.len();
                    assert_eq!(stream.offer(id, &inputs.frames[i]), Offer::Admitted);
                }
                let outcomes = stream.finish();
                assert_eq!(outcomes.len(), 8);
                for o in outcomes {
                    let want = inputs.stream_checksums[o.id as usize % inputs.len()];
                    assert_eq!(o.status, Status::Completed { checksum: want });
                }
            }
        }
    }

    #[test]
    fn hand_and_auto_paths_match_the_scalar_references() {
        let inputs = Inputs::new(80, 60, 3, 2, StreamOp::Edge).unwrap();
        let mut ws = Workspace::new(80, 60);
        for i in 0..inputs.len() {
            for engine in [Engine::Native, Engine::Autovec] {
                for k in Kernel::ALL {
                    let (src, float) = (&inputs.frames[i], &inputs.floats[i]);
                    adapter::run(k, Path::Fused, engine, src, float, &mut ws).unwrap();
                    assert_eq!(ws.digest(k), inputs.digest(i, k), "{k:?} {engine:?}");
                }
                for k in Kernel::STENCILS {
                    let (src, float) = (&inputs.frames[i], &inputs.floats[i]);
                    adapter::run(k, Path::Pool, engine, src, float, &mut ws).unwrap();
                    assert_eq!(ws.digest(k), inputs.digest(i, k), "{k:?} {engine:?}");
                }
            }
        }
    }
}
