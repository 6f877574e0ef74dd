//! The three workloads: which demo models they deploy, at which
//! activation width, and what each connection sends.
//!
//! Everything a workload uses is fabricated from its seed: the bundle
//! weights, the input planes, and therefore the expected outputs. The
//! shapes stay fixed, so two seeds do the same amount of work.

use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Duration;
use wp_core::deploy::codec::Format;
use wp_core::deploy::DeployBundle;
use wp_engine::{EngineOptions, PreparedNet};
use wp_server::demo::{demo_bundle, DemoSize};
use wp_server::protocol::InferRequest;

/// The seed the registry recalibrates with on reload, and the sample
/// count it uses. Calibrating the same way up front keeps a reloaded
/// plan's multipliers (and so its outputs) identical to the oracle's.
const CALIBRATION_SEED: u64 = 0xCA11;
const CALIBRATION_SAMPLES: usize = 8;

/// Distinct input planes per run; requests cycle through them.
const INPUT_POOL: usize = 64;

/// Weight draws tried per seed before a collapsed model fails the run.
const MAX_DRAWS: usize = 8;

/// Distinct pre-encoded request bodies per connection.
const BODIES_PER_CONN: usize = 8;

/// Which traffic mix to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// demo-serve at 8-bit activations: the pooled-conv LUT path.
    PooledA8,
    /// demo-stem at 2-bit activations: the bit-plane popcount path.
    StemA2,
    /// demo-tiny singles beside bulk requests and demo-stem reloads: the
    /// JSON/HTTP codecs, the batcher's `max_wait` policy and the reload
    /// path, with little engine work. Runnable, but not listed in
    /// `BENCHMARK.json`: its closed loops hand work between threads
    /// every millisecond or two, and on a two-vCPU guest sharing its
    /// host that made run-to-run spreads of 0.2 to 0.6, wider than any
    /// bound a gated metric may have.
    TinyMixed,
}

impl Workload {
    /// Every workload; the first two are the ones `BENCHMARK.json` gates.
    pub const ALL: [Workload; 3] = [Workload::PooledA8, Workload::StemA2, Workload::TinyMixed];

    /// Command-line / report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PooledA8 => "pooled-a8",
            Workload::StemA2 => "stem-a2",
            Workload::TinyMixed => "tiny-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The served model, and any model deployed beside it unserved.
    fn models(self) -> (ModelSpec, Option<ModelSpec>) {
        match self {
            Workload::PooledA8 => (ModelSpec { size: DemoSize::Serve, act_bits: 8 }, None),
            Workload::StemA2 => (ModelSpec { size: DemoSize::Stem, act_bits: 2 }, None),
            Workload::TinyMixed => (
                ModelSpec { size: DemoSize::Tiny, act_bits: 8 },
                Some(ModelSpec { size: DemoSize::Stem, act_bits: 2 }),
            ),
        }
    }

    /// What each of the two connections sends.
    ///
    /// A request carries exactly one 32-plane batch, so every batch is
    /// full whatever the two connections' relative timing. (With 16
    /// planes each, the pair settled either into shared 32-plane batches
    /// or into alternating 16-plane ones, and throughput depended on
    /// which.) The tiny bulk request is 127 planes so that with one
    /// queued single it fills four batches exactly; it puts about 0.5 ms
    /// of JSON decode against a few ms of engine time per request.
    pub fn connections(self) -> [ConnPlan; 2] {
        let bulk32 = ConnPlan { class: Class::Bulk, planes: 32, reload_every: None };
        match self {
            Workload::PooledA8 | Workload::StemA2 => [bulk32, bulk32],
            Workload::TinyMixed => [
                ConnPlan { class: Class::Single, planes: 1, reload_every: None },
                ConnPlan {
                    class: Class::Bulk,
                    planes: 127,
                    reload_every: Some(Duration::from_secs(1)),
                },
            ],
        }
    }
}

/// Request class, for the per-class latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One plane per request.
    Single,
    /// Many planes per request.
    Bulk,
}

/// One connection's closed loop.
#[derive(Debug, Clone, Copy)]
pub struct ConnPlan {
    /// Class of its inference requests.
    pub class: Class,
    /// Planes per inference request.
    pub planes: usize,
    /// Reload the unserved model this often, between requests.
    pub reload_every: Option<Duration>,
}

#[derive(Debug, Clone, Copy)]
struct ModelSpec {
    size: DemoSize,
    act_bits: u8,
}

/// One deployable model: its bundle, calibrated options, WPB file and
/// an in-memory oracle compiled from the bundle before encoding.
pub struct Model {
    /// Registry name (the bundle's spec name).
    pub name: String,
    /// The fabricated bundle.
    pub bundle: DeployBundle,
    /// Engine options with multipliers calibrated at `act_bits`.
    pub opts: EngineOptions,
    /// Encoded WPB bytes, as written to `path`.
    pub wpb: Vec<u8>,
    /// Where the server reads the bundle from.
    pub path: PathBuf,
    /// Compiled from the in-memory bundle, never from the WPB bytes, so
    /// a codec regression shows up as an output mismatch.
    pub oracle: PreparedNet,
}

impl Model {
    fn fabricate(spec: ModelSpec, seed: u64, dir: &Path) -> std::io::Result<Self> {
        let bundle = demo_bundle(spec.size, seed);
        let base = EngineOptions::default().with_act_bits(spec.act_bits);
        let multipliers = PreparedNet::calibrate_multipliers(
            &bundle,
            &base,
            CALIBRATION_SAMPLES,
            CALIBRATION_SEED,
        );
        let opts = base.with_layer_multipliers(Some(multipliers));
        let wpb = bundle.to_bytes(Format::Wpb).map_err(std::io::Error::other)?;
        let name = bundle.spec.name.clone();
        let path = dir.join(format!("{name}-a{}.wpb", spec.act_bits));
        std::fs::write(&path, &wpb)?;
        let oracle = PreparedNet::from_bundle(&bundle, &opts);
        Ok(Self { name, bundle, opts, wpb, path, oracle })
    }

    /// Calibrates this model's multipliers again, exactly as set-up did
    /// (for timing the calibration layer).
    pub fn calibrate(&self) -> Vec<f64> {
        let base = self.opts.clone().with_layer_multipliers(None);
        PreparedNet::calibrate_multipliers(
            &self.bundle,
            &base,
            CALIBRATION_SAMPLES,
            CALIBRATION_SEED,
        )
    }
}

/// One pre-encoded inference request and the outputs it must get back.
pub struct Body {
    /// JSON `InferRequest` bytes.
    pub json: Vec<u8>,
    /// Expected output per plane, in order.
    pub expected: Vec<Vec<i32>>,
}

/// Everything a run needs, fabricated before any clock starts.
pub struct Fabricated {
    /// The workload.
    pub workload: Workload,
    /// The model the clients send requests to.
    pub served: Model,
    /// A file-backed model deployed beside it and only reloaded.
    pub unserved: Option<Model>,
    /// Per connection, the bodies it cycles through.
    pub bodies: [Vec<Body>; 2],
}

impl Fabricated {
    /// Fabricates the workload's models and requests from `seed`,
    /// writing WPB files under `dir`.
    ///
    /// # Errors
    ///
    /// Writing a bundle file failed, or every weight draw of the served
    /// model collapsed (see [`collapse`]).
    pub fn new(workload: Workload, seed: u64, dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (served_spec, unserved_spec) = workload.models();
        let unserved = unserved_spec
            .map(|s| Model::fabricate(s, seed ^ 0x57E4, dir))
            .transpose()
            .map_err(|e| e.to_string())?;

        // Some fabricated weight draws give a dead network (every input
        // maps to one output); such a draw cannot tell a working server
        // from a broken one, so the seed's next draw is used instead. A
        // systematic collapse, such as multipliers calibrated at the
        // wrong activation width, fails every draw and so the run.
        let mut draws = Vec::new();
        let (served, inputs, expected) = loop {
            let draw = draws.len() as u64;
            let served = Model::fabricate(served_spec, seed.wrapping_add(draw << 32), dir)
                .map_err(|e| e.to_string())?;
            let inputs = served.oracle.fabricate_inputs(INPUT_POOL, seed ^ 0x1A7E);
            let expected: Vec<Vec<i32>> = inputs.iter().map(|x| served.oracle.run_one(x)).collect();
            match collapse(&inputs, &expected) {
                None => break (served, inputs, expected),
                Some(why) if draws.len() + 1 < MAX_DRAWS => draws.push(why),
                Some(why) => {
                    return Err(format!("{}: every draw collapsed, last: {why}", served.name))
                }
            }
        };
        for (i, why) in draws.iter().enumerate() {
            println!("note: {} weight draw {i} collapsed ({why}); redrawn", served.name);
        }

        let plans = workload.connections();
        let bodies = std::array::from_fn(|c| {
            (0..BODIES_PER_CONN)
                .map(|j| {
                    let first = (c * BODIES_PER_CONN + j) * plans[c].planes;
                    let picks: Vec<usize> =
                        (0..plans[c].planes).map(|i| (first + i) % INPUT_POOL).collect();
                    let request = InferRequest {
                        model: Some(served.name.clone()),
                        inputs: picks.iter().map(|&i| inputs[i].clone()).collect(),
                    };
                    Body {
                        json: to_json(&request).into_bytes(),
                        expected: picks.iter().map(|&i| expected[i].clone()).collect(),
                    }
                })
                .collect()
        });
        Ok(Self { workload, served, unserved, bodies })
    }

    /// Every model to deploy, served first.
    pub fn models(&self) -> impl Iterator<Item = &Model> {
        std::iter::once(&self.served).chain(self.unserved.as_ref())
    }
}

fn to_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("request types always serialize")
}

/// Why `outputs` are collapsed, if they are: fewer distinct outputs
/// than a quarter of the distinct inputs, or every logit within a band
/// of 16 codes (8-bit multipliers applied at 2 bits squeeze logits into
/// about -4..4). Either way an output check could pass a broken server.
pub fn collapse(inputs: &[Vec<i32>], outputs: &[Vec<i32>]) -> Option<String> {
    let distinct = |v: &[Vec<i32>]| {
        let mut v = v.to_vec();
        v.sort();
        v.dedup();
        v.len()
    };
    let (ins, outs) = (distinct(inputs), distinct(outputs));
    let lo = outputs.iter().flatten().min().copied().unwrap_or(0);
    let hi = outputs.iter().flatten().max().copied().unwrap_or(0);
    if outs * 4 < ins {
        Some(format!("{ins} distinct inputs give {outs} distinct outputs"))
    } else if hi - lo < 16 {
        Some(format!("every logit within {lo}..={hi}"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_flags_shared_or_squeezed_logits() {
        let inputs: Vec<Vec<i32>> = (0..8).map(|i| vec![i]).collect();
        let spread: Vec<Vec<i32>> = (0..8).map(|i| vec![i * 20, -i]).collect();
        assert_eq!(collapse(&inputs, &spread), None);
        // One output for eight distinct inputs.
        assert!(collapse(&inputs, &vec![vec![0, 100]; 8]).is_some());
        // Distinct but squeezed into a few codes.
        let squeezed: Vec<Vec<i32>> = (0..8).map(|i| vec![i - 4, 2]).collect();
        assert!(collapse(&inputs, &squeezed).is_some());
    }

    #[test]
    fn stem_collapses_at_eight_bit_calibration_but_not_at_two() {
        let bundle = demo_bundle(DemoSize::Stem, 4);
        let two = EngineOptions::default().with_act_bits(2);
        let eight = EngineOptions::default();
        let outputs = |calibrate_with: &EngineOptions| {
            let m = PreparedNet::calibrate_multipliers(
                &bundle,
                calibrate_with,
                CALIBRATION_SAMPLES,
                CALIBRATION_SEED,
            );
            let net =
                PreparedNet::from_bundle(&bundle, &two.clone().with_layer_multipliers(Some(m)));
            let inputs = net.fabricate_inputs(INPUT_POOL, 9);
            let outs: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
            collapse(&inputs, &outs)
        };
        assert_eq!(outputs(&two), None);
        assert!(outputs(&eight).is_some());
    }

    #[test]
    fn every_workload_fabricates_and_verifies_its_bodies() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let f = Fabricated::new(w, 7, &dir).expect("fabricate");
            for (plan, bodies) in w.connections().iter().zip(&f.bodies) {
                for body in bodies {
                    let req: InferRequest =
                        serde_json::from_str(std::str::from_utf8(&body.json).unwrap()).unwrap();
                    assert_eq!(req.inputs.len(), plan.planes);
                    let back: Vec<Vec<i32>> =
                        req.inputs.iter().map(|x| f.served.oracle.run_one(x)).collect();
                    assert_eq!(back, body.expected);
                }
            }
            // The server decodes the WPB file; it must compile to the
            // oracle's plan.
            let decoded = DeployBundle::from_bytes(&f.served.wpb).unwrap();
            assert_eq!(decoded, f.served.bundle);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
