//! Threaded batch inference.
//!
//! [`BatchRunner`] splits a batch into one contiguous chunk per scoped
//! worker thread. The prepared network is shared read-only; each worker
//! owns a private copy of the flattened LUT blocks (the per-core "SRAM"
//! analogue of the paper's §4.2 cache) and runs its chunk through
//! [`PreparedNet::run_batch_into`] against a [`crate::Scratch`] arena it
//! builds for that call. The LUT copy and the arena are per call, not
//! kept across calls: callers that need the zero-allocation steady state
//! hold their own arena and call `run_batch_into` directly.

use crate::bundle::PreparedNet;
use crate::scratch::Scratch;

/// A fixed-width pool of inference workers over one [`PreparedNet`].
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(threads)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many workers a batch of `batch_len` inputs actually uses: never
    /// more than the batch has items, so a small batch on a wide runner
    /// spawns no idle threads, and an empty batch spawns none at all.
    pub fn planned_workers(&self, batch_len: usize) -> usize {
        self.threads.min(batch_len)
    }

    /// Runs every input through `net`, returning outputs in input order.
    ///
    /// The batch is split into contiguous per-worker chunks and each chunk
    /// executes through [`PreparedNet::run_batch_into`], so the batched
    /// kernels amortize weight and tap decoding across the chunk — on top
    /// of (not instead of) thread parallelism. Each worker gets its own
    /// LUT-cache copy and a fresh [`Scratch`] arena for the call. Inputs
    /// may be owned (`Vec<i32>`) or borrowed (`&[i32]`, e.g. one per
    /// queued request with no copy into an owned batch).
    ///
    /// Outputs are bit-identical to per-item [`PreparedNet::run_one`] for
    /// any worker count. An empty batch returns empty without touching any
    /// thread machinery, and a batch smaller than the thread count spawns
    /// only `batch_len` workers.
    ///
    /// # Panics
    ///
    /// Panics if any input has the wrong size (naming its batch index), or
    /// if a worker thread panics (the panic is propagated).
    pub fn run<S: AsRef<[i32]> + Sync>(&self, net: &PreparedNet, inputs: &[S]) -> Vec<Vec<i32>> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let workers = self.planned_workers(inputs.len());
        let mut outs = Vec::new();
        if workers <= 1 {
            net.run_batch_into(net.backend(), inputs, &mut Scratch::new(), &mut outs);
            return outs;
        }
        // Validate the whole batch here so a bad input is reported by its
        // batch index, not a chunk-local one from inside a worker.
        net.validate_batch_inputs(inputs.iter().map(|x| x.as_ref().len()));
        let chunk = inputs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(chunk)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut outs = Vec::new();
                        net.run_batch_into(
                            &net.worker_backend(),
                            chunk,
                            &mut Scratch::new(),
                            &mut outs,
                        );
                        outs
                    })
                })
                .collect();
            for handle in handles {
                outs.extend(handle.join().expect("batch worker panicked"));
            }
        });
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::EngineOptions;
    use rand::{Rng, SeedableRng};
    use wp_core::deploy::{ConvPayload, DeployBundle};
    use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
    use wp_core::{LookupTable, LutOrder, WeightPool};

    fn bundle() -> DeployBundle {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let vectors: Vec<Vec<f32>> =
            (0..8).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
        let pool = WeightPool::from_vectors(vectors);
        let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
        let spec = NetSpec {
            name: "batch-toy".into(),
            input: (8, 6, 6),
            classes: 3,
            layers: vec![
                LayerSpec::Conv(ConvSpec {
                    in_ch: 8,
                    out_ch: 8,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    compressed: true,
                }),
                LayerSpec::GlobalAvgPool,
                LayerSpec::Dense { in_features: 8, out_features: 3, compressed: false },
            ],
        };
        let indices: Vec<u8> = (0..8 * 9).map(|_| rng.gen_range(0..8) as u8).collect();
        DeployBundle { spec, pool, lut, convs: vec![ConvPayload::Pooled { indices }], act_bits: 8 }
    }

    /// Per-item solo reference outputs.
    fn solo(net: &PreparedNet, inputs: &[Vec<i32>]) -> Vec<Vec<i32>> {
        inputs.iter().map(|x| net.run_one(x)).collect()
    }

    #[test]
    fn outputs_identical_across_thread_counts() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(13, 4);
        let expected = solo(&net, &inputs);
        for threads in [1, 2, 4, 7] {
            assert_eq!(BatchRunner::new(threads).run(&net, &inputs), expected, "{threads} threads");
        }
    }

    #[test]
    fn outputs_are_in_input_order() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(6, 8);
        let batch = BatchRunner::new(3).run(&net, &inputs);
        for (input, out) in inputs.iter().zip(&batch) {
            assert_eq!(&net.run_one(input), out);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let owned: &[Vec<i32>] = &[];
        let borrowed: &[&[i32]] = &[];
        assert!(BatchRunner::new(4).run(&net, owned).is_empty());
        assert!(BatchRunner::new(4).run(&net, borrowed).is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(BatchRunner::new(0).threads(), 1);
    }

    #[test]
    fn small_batches_never_plan_idle_workers() {
        let runner = BatchRunner::new(8);
        assert_eq!(runner.planned_workers(0), 0);
        assert_eq!(runner.planned_workers(3), 3);
        assert_eq!(runner.planned_workers(8), 8);
        assert_eq!(runner.planned_workers(100), 8);
        // And a batch shorter than the thread count still runs correctly.
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(3, 17);
        let expected = solo(&net, &inputs);
        assert_eq!(runner.run(&net, &inputs), expected);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        assert_eq!(runner.run(&net, &refs), expected);
    }

    #[test]
    fn borrowed_inputs_match_run_one_across_thread_counts() {
        let net = PreparedNet::from_bundle(&bundle(), &EngineOptions::default());
        let inputs = net.fabricate_inputs(13, 29);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let expected = solo(&net, &inputs);
        for threads in [1, 2, 4, 7] {
            assert_eq!(BatchRunner::new(threads).run(&net, &refs), expected, "{threads} threads");
        }
    }
}
