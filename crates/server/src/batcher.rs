//! The dynamic micro-batcher: coalesces concurrent inference requests
//! into batches for the native engine.
//!
//! The event-driven front submits each activation plane with
//! [`Batcher::submit_callback`], which never blocks and delivers the
//! result to a completion callback; in-process callers use
//! [`Batcher::submit`] and block on a [`Ticket`] instead. A dedicated flusher thread drains
//! the queue into batches, flushing as soon as **either** `max_batch`
//! planes are waiting **or** the oldest plane has waited `max_wait`
//! (whichever comes first — a solo request on an idle server pays at most
//! `max_wait`, a busy server packs full batches back to back). Each batch
//! executes through [`wp_engine::BatchRunner::run`] over borrowed request
//! planes, whose batched kernels are bit-identical to solo execution, so
//! coalescing never changes a response. The runner builds a fresh LUT
//! copy and scratch arena per worker per batch.
//!
//! The prepared network lives behind an [`RwLock`]'d [`Arc`] slot; the
//! flusher clones the `Arc` per batch, which is what makes registry
//! hot-swaps atomic: every batch runs entirely on one plan, and in-flight
//! batches finish on the plan they started with.

use crate::metrics::ModelMetrics;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use wp_engine::trace::{self, SpanKind, TraceEvent};
use wp_engine::{BatchRunner, PreparedNet};

/// A hot-swappable handle to the currently-deployed plan.
pub type ModelSlot = RwLock<Arc<PreparedNet>>;

/// Tuning knobs for one model's micro-batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Flush as soon as this many planes are queued.
    pub max_batch: usize,
    /// Flush once the oldest queued plane has waited this long.
    pub max_wait: Duration,
    /// Worker threads for batch execution (see
    /// [`wp_engine::BatchRunner`]); defaults to available parallelism.
    pub threads: usize,
    /// Hard cap on queued planes; submits beyond it are rejected with
    /// [`InferError::Overloaded`] instead of growing the queue without
    /// bound.
    pub max_queue: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            max_queue: 4096,
        }
    }
}

/// Why a submitted plane was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The plane's length does not match the model input.
    BadInput(String),
    /// The queue is at `max_queue`.
    Overloaded,
    /// The batcher is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::BadInput(m) => write!(f, "bad input: {m}"),
            InferError::Overloaded => write!(f, "queue full, try again later"),
            InferError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for InferError {}

/// How a served (or failed) plane's result reaches its submitter.
enum Responder {
    /// A blocking waiter holds the [`Ticket`] end of this channel
    /// (in-process callers and tests).
    Channel(mpsc::Sender<Result<Vec<i32>, InferError>>),
    /// The event-driven front: invoked on the flusher thread right after
    /// the batch executes (or synchronously at submit time on a
    /// validation/overload failure). Must be cheap and must not block —
    /// the intended use hands the result to an event thread's completion
    /// queue and wakes its eventfd.
    Callback(Box<dyn FnOnce(Result<Vec<i32>, InferError>) + Send>),
}

impl Responder {
    fn respond(self, result: Result<Vec<i32>, InferError>) {
        match self {
            // A dropped ticket (client gone) is fine to ignore.
            Responder::Channel(tx) => {
                let _ = tx.send(result);
            }
            Responder::Callback(f) => f(result),
        }
    }
}

/// One queued plane and the responder its result goes back through.
struct Pending {
    input: Vec<i32>,
    enqueued: Instant,
    /// Request trace id ([`trace::span_id_from`] of the HTTP
    /// `X-Request-Id`); 0 for untraced submissions.
    span_id: u64,
    responder: Responder,
}

/// Queue state behind the mutex.
struct QueueState {
    pending: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the flusher that work arrived or shutdown was requested.
    wake_flusher: Condvar,
}

/// A refused submission: the error plus the responder handed back
/// un-invoked (nothing was enqueued), so the submit path controls
/// whether the failure is returned or called back.
struct SubmitRejected {
    error: InferError,
    responder: Responder,
}

/// A ticket for a submitted plane; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<Vec<i32>, InferError>>,
}

impl Ticket {
    /// Blocks until the plane's batch has executed.
    ///
    /// # Errors
    ///
    /// Returns the submission's [`InferError`] if the batcher shut down
    /// before serving it.
    pub fn wait(self) -> Result<Vec<i32>, InferError> {
        self.rx.recv().unwrap_or(Err(InferError::ShuttingDown))
    }
}

/// The per-model dynamic micro-batcher.
pub struct Batcher {
    shared: Arc<Shared>,
    slot: Arc<ModelSlot>,
    config: BatcherConfig,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    batches_flushed: Arc<AtomicU64>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Batcher {
    /// Starts a flusher thread serving `slot` under `config`, reporting
    /// into this model's `metrics`.
    pub fn start(slot: Arc<ModelSlot>, config: BatcherConfig, metrics: Arc<ModelMetrics>) -> Self {
        let config = BatcherConfig {
            max_batch: config.max_batch.max(1),
            max_wait: config.max_wait,
            threads: config.threads.max(1),
            max_queue: config.max_queue.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { pending: VecDeque::new(), shutdown: false }),
            wake_flusher: Condvar::new(),
        });
        let batches_flushed = Arc::new(AtomicU64::new(0));
        let flusher = {
            let shared = Arc::clone(&shared);
            let slot = Arc::clone(&slot);
            let batches_flushed = Arc::clone(&batches_flushed);
            std::thread::Builder::new()
                .name("wp-batcher".into())
                .spawn(move || flusher_loop(&shared, &slot, config, &metrics, &batches_flushed))
                .expect("spawn batcher flusher")
        };
        Self { shared, slot, config, flusher: Mutex::new(Some(flusher)), batches_flushed }
    }

    /// The batcher's configuration (normalized: zeroes clamped to one).
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// The model slot this batcher executes from.
    pub fn slot(&self) -> &Arc<ModelSlot> {
        &self.slot
    }

    /// Batches flushed so far (test/diagnostic aid).
    pub fn batches_flushed(&self) -> u64 {
        self.batches_flushed.load(Ordering::Relaxed)
    }

    /// Validates and enqueues one plane, returning a [`Ticket`] that
    /// blocks until the result is ready. Validation happens here, against
    /// the *current* plan, so the flusher can execute whole batches
    /// without per-plane error paths. The plane carries no request trace
    /// id (its queue-wait span gets id 0).
    ///
    /// # Errors
    ///
    /// [`InferError::BadInput`] for a wrong-size plane or out-of-range
    /// code, [`InferError::Overloaded`] at the queue cap, and
    /// [`InferError::ShuttingDown`] after [`Batcher::shutdown`].
    pub fn submit(&self, input: Vec<i32>) -> Result<Ticket, InferError> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(input, 0, Responder::Channel(tx)).map_err(|r| r.error)?;
        Ok(Ticket { rx })
    }

    /// Nonblocking submission for the event-driven front: instead of a
    /// [`Ticket`] to block on, `done` is invoked with the result — on the
    /// flusher thread once the plane's batch executes, or synchronously
    /// *before this returns* when validation fails, the queue is at
    /// capacity, or the batcher is shutting down. Exactly one invocation
    /// either way, so callers never poll and never block.
    pub fn submit_callback(
        &self,
        input: Vec<i32>,
        span_id: u64,
        done: impl FnOnce(Result<Vec<i32>, InferError>) + Send + 'static,
    ) {
        let responder = Responder::Callback(Box::new(done));
        if let Err(rejected) = self.submit_with(input, span_id, responder) {
            rejected.responder.respond(Err(rejected.error));
        }
    }

    /// Validates and enqueues one plane. On failure the responder is
    /// handed back un-invoked so the caller decides delivery.
    fn submit_with(
        &self,
        input: Vec<i32>,
        span_id: u64,
        responder: Responder,
    ) -> Result<(), SubmitRejected> {
        let net = self.slot.read().expect("model slot poisoned").clone();
        let (c, h, w) = net.input_shape();
        if input.len() != c * h * w {
            let error = InferError::BadInput(format!(
                "expected {} activation codes ({c}x{h}x{w}), got {}",
                c * h * w,
                input.len()
            ));
            return Err(SubmitRejected { error, responder });
        }
        let (lo, hi) = net.backend().encoding().code_range(net.act_bits());
        if let Some(&bad) = input.iter().find(|&&v| !(lo..=hi).contains(&v)) {
            let error = InferError::BadInput(format!("activation code {bad} outside [{lo}, {hi}]"));
            return Err(SubmitRejected { error, responder });
        }

        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            if state.shutdown {
                return Err(SubmitRejected { error: InferError::ShuttingDown, responder });
            }
            if state.pending.len() >= self.config.max_queue {
                return Err(SubmitRejected { error: InferError::Overloaded, responder });
            }
            state.pending.push_back(Pending {
                input,
                enqueued: Instant::now(),
                span_id,
                responder,
            });
        }
        self.shared.wake_flusher.notify_one();
        Ok(())
    }

    /// Convenience: submit one plane and wait for its result.
    ///
    /// # Errors
    ///
    /// See [`Batcher::submit`].
    pub fn infer(&self, input: Vec<i32>) -> Result<Vec<i32>, InferError> {
        self.submit(input)?.wait()
    }

    /// Stops accepting new planes, drains the queue, and joins the
    /// flusher. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            state.shutdown = true;
        }
        self.shared.wake_flusher.notify_all();
        if let Some(handle) = self.flusher.lock().expect("flusher handle poisoned").take() {
            handle.join().expect("batcher flusher panicked");
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The flusher: waits for work, carves batches, executes, replies.
fn flusher_loop(
    shared: &Shared,
    slot: &ModelSlot,
    config: BatcherConfig,
    metrics: &ModelMetrics,
    batches_flushed: &AtomicU64,
) {
    let runner = BatchRunner::new(config.threads);
    let mut state = shared.state.lock().expect("batcher queue poisoned");
    loop {
        if state.pending.is_empty() {
            if state.shutdown {
                return;
            }
            state = shared.wake_flusher.wait(state).expect("batcher queue poisoned");
            continue;
        }

        // A batch is pending; wait for it to fill or its deadline to pass.
        let deadline = state.pending.front().expect("non-empty").enqueued + config.max_wait;
        while state.pending.len() < config.max_batch && !state.shutdown {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            let (next, timeout) =
                shared.wake_flusher.wait_timeout(state, remaining).expect("batcher queue poisoned");
            state = next;
            if timeout.timed_out() {
                break;
            }
        }

        let take = state.pending.len().min(config.max_batch);
        let batch: Vec<Pending> = state.pending.drain(..take).collect();
        drop(state);

        let started = Instant::now();
        for p in &batch {
            metrics.queue_latency.record_micros(started.duration_since(p.enqueued));
        }
        // One Arc clone per batch: the whole batch runs on one plan even
        // if the registry swaps the slot mid-flight.
        let net = slot.read().expect("model slot poisoned").clone();
        if let Some(sink) = net.trace_sink() {
            // One queue-wait span per plane, ending at batch start and
            // carrying the submitting request's trace id.
            let batch_start_ns = trace::now_ns();
            let track = trace::current_track();
            let tier = trace::tier_code(net.backend().simd());
            let size = u16::try_from(batch.len()).unwrap_or(u16::MAX);
            for p in &batch {
                let wait_ns = u64::try_from(started.duration_since(p.enqueued).as_nanos())
                    .unwrap_or(u64::MAX);
                sink.record_span(&TraceEvent {
                    kind: SpanKind::QueueWait,
                    track,
                    layer: 0,
                    batch: size,
                    tier,
                    id: p.span_id,
                    start_ns: batch_start_ns.saturating_sub(wait_ns),
                    dur_ns: wait_ns,
                });
            }
        }
        // Re-validate against the plan actually being run: submit-time
        // validation used whatever plan was deployed then, and a hot swap
        // in between may have changed the input shape or code range. A
        // stale plane gets an error reply; it must never panic the
        // flusher (that would strand every future request of this model).
        let (c, h, w) = net.input_shape();
        let expected_len = c * h * w;
        let (lo, hi) = net.backend().encoding().code_range(net.act_bits());
        let valid: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.input.len() == expected_len && p.input.iter().all(|v| (lo..=hi).contains(v))
            })
            .map(|(i, _)| i)
            .collect();
        let refs: Vec<&[i32]> = valid.iter().map(|&i| batch[i].input.as_slice()).collect();
        let outputs = runner.run(&net, &refs);
        if !valid.is_empty() {
            metrics.record_batch(valid.len());
            batches_flushed.fetch_add(1, Ordering::Relaxed);
        }
        let mut results: Vec<Option<Vec<i32>>> = vec![None; batch.len()];
        for (&i, out) in valid.iter().zip(outputs) {
            results[i] = Some(out);
        }
        for (p, result) in batch.into_iter().zip(results) {
            let reply = result.ok_or_else(|| {
                InferError::BadInput(
                    "plane no longer matches the deployed model (hot-swapped mid-queue?)".into(),
                )
            });
            p.responder.respond(reply);
        }

        state = shared.state.lock().expect("batcher queue poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use wp_engine::PreparedNet;

    fn slot() -> (Arc<ModelSlot>, Arc<PreparedNet>) {
        let net = Arc::new(demo::demo_prepared(demo::DemoSize::Tiny, 7));
        (Arc::new(RwLock::new(Arc::clone(&net))), net)
    }

    fn start(slot: Arc<ModelSlot>, max_batch: usize, max_wait: Duration) -> Batcher {
        let config = BatcherConfig { max_batch, max_wait, threads: 2, max_queue: 1024 };
        Batcher::start(slot, config, Arc::new(ModelMetrics::new()))
    }

    /// Satellite pin: solo, coalesced-full-batch, and timeout-flushed
    /// requests all produce outputs bit-identical to direct
    /// `PreparedNet::run_one`, across `max_batch` ∈ {1, 4, 32}.
    #[test]
    fn coalescing_is_bit_identical_across_max_batch() {
        let (slot, net) = slot();
        let inputs = net.fabricate_inputs(24, 99);
        let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        for max_batch in [1usize, 4, 32] {
            let batcher = start(Arc::clone(&slot), max_batch, Duration::from_millis(1));
            // Concurrent submission from one thread per request: requests
            // coalesce into whatever batches the flusher carves.
            let outputs: Vec<Vec<i32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .iter()
                    .map(|input| {
                        let batcher = &batcher;
                        scope.spawn(move || batcher.infer(input.clone()).expect("served"))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            assert_eq!(outputs, expected, "max_batch={max_batch}");
            batcher.shutdown();
        }
    }

    /// A lone request under a large `max_batch` must be flushed by the
    /// wait timeout, not stall forever — and still match solo execution.
    #[test]
    fn timeout_flush_serves_solo_request() {
        let (slot, net) = slot();
        let input = net.fabricate_inputs(1, 5).pop().unwrap();
        let batcher = start(slot, 32, Duration::from_millis(5));
        let started = Instant::now();
        let out = batcher.infer(input.clone()).expect("served");
        assert_eq!(out, net.run_one(&input));
        assert!(started.elapsed() >= Duration::from_millis(4), "flushed only after max_wait");
        assert_eq!(batcher.batches_flushed(), 1);
        batcher.shutdown();
    }

    /// `max_batch = 1` serves every request in its own batch immediately.
    #[test]
    fn max_batch_one_never_coalesces() {
        let (slot, net) = slot();
        let inputs = net.fabricate_inputs(6, 3);
        let batcher = start(slot, 1, Duration::from_secs(5));
        for input in &inputs {
            assert_eq!(batcher.infer(input.clone()).unwrap(), net.run_one(input));
        }
        assert_eq!(batcher.batches_flushed(), 6, "one batch per request");
        batcher.shutdown();
    }

    #[test]
    fn bad_inputs_rejected_at_submit() {
        let (slot, net) = slot();
        let batcher = start(slot, 4, Duration::from_millis(1));
        assert!(matches!(batcher.infer(vec![0i32; 3]), Err(InferError::BadInput(_))));
        let (c, h, w) = net.input_shape();
        let mut bad = vec![0i32; c * h * w];
        bad[0] = 100_000;
        assert!(matches!(batcher.infer(bad), Err(InferError::BadInput(_))));
        batcher.shutdown();
    }

    /// Callback submission matches ticket submission bit-for-bit, and
    /// failure paths (bad input, shutdown) invoke the callback instead of
    /// dropping it.
    #[test]
    fn callback_submission_is_bit_identical_and_always_invoked() {
        let (slot, net) = slot();
        let inputs = net.fabricate_inputs(8, 42);
        let expected: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        let batcher = start(Arc::clone(&slot), 4, Duration::from_millis(1));

        let (tx, rx) = mpsc::channel();
        for (i, input) in inputs.iter().enumerate() {
            let tx = tx.clone();
            batcher.submit_callback(input.clone(), 0, move |r| {
                tx.send((i, r)).unwrap();
            });
        }
        let mut outputs: Vec<Option<Vec<i32>>> = vec![None; inputs.len()];
        for _ in 0..inputs.len() {
            let (i, r) = rx.recv_timeout(Duration::from_secs(10)).expect("callback fired");
            outputs[i] = Some(r.expect("served"));
        }
        let outputs: Vec<Vec<i32>> = outputs.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(outputs, expected);

        // Validation failure: callback fires synchronously with the error.
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(vec![0i32; 3], 0, move |r| tx.send(r).unwrap());
        assert!(matches!(rx.try_recv(), Ok(Err(InferError::BadInput(_)))));

        batcher.shutdown();
        let (tx, rx) = mpsc::channel();
        batcher.submit_callback(inputs[0].clone(), 0, move |r| tx.send(r).unwrap());
        assert!(matches!(rx.try_recv(), Ok(Err(InferError::ShuttingDown))));
    }

    #[test]
    fn shutdown_rejects_new_submits_and_is_idempotent() {
        let (slot, net) = slot();
        let input = net.fabricate_inputs(1, 1).pop().unwrap();
        let batcher = start(slot, 4, Duration::from_millis(1));
        batcher.shutdown();
        batcher.shutdown();
        assert_eq!(batcher.infer(input), Err(InferError::ShuttingDown));
    }

    /// An incompatible hot swap while planes are queued must error those
    /// planes, not panic the flusher — and the batcher must keep serving
    /// afterwards.
    #[test]
    fn incompatible_hot_swap_mid_queue_does_not_kill_the_flusher() {
        let (slot, net) = slot();
        // Long deadline + wide batch: the submitted plane sits queued
        // while we swap the model underneath it.
        let batcher = start(Arc::clone(&slot), 32, Duration::from_millis(100));
        let mut input = net.fabricate_inputs(1, 2).pop().unwrap();
        input[0] = 200; // valid at 8 bits, out of range at 4
        let ticket = batcher.submit(input).expect("valid for the current plan");

        // Swap to a 4-bit plan: the queued 8-bit plane no longer fits.
        let bundle = demo::demo_bundle(demo::DemoSize::Tiny, 7);
        let opts = wp_engine::EngineOptions::new().with_act_bits(4);
        let swapped = Arc::new(PreparedNet::from_bundle(&bundle, &opts));
        *slot.write().unwrap() = Arc::clone(&swapped);

        assert!(matches!(ticket.wait(), Err(InferError::BadInput(_))));
        // The flusher survived: a plane valid for the new plan is served.
        let ok = swapped.fabricate_inputs(1, 3).pop().unwrap();
        assert_eq!(batcher.infer(ok.clone()).unwrap(), swapped.run_one(&ok));
        batcher.shutdown();
    }

    #[test]
    fn hot_swap_takes_effect_for_new_batches() {
        let (slot, net) = slot();
        let input = net.fabricate_inputs(1, 11).pop().unwrap();
        let batcher = start(Arc::clone(&slot), 1, Duration::from_millis(1));
        let before = batcher.infer(input.clone()).unwrap();
        assert_eq!(before, net.run_one(&input));

        // Swap in a plan with different fabricated weights.
        let swapped = Arc::new(demo::demo_prepared(demo::DemoSize::Tiny, 8));
        *slot.write().unwrap() = Arc::clone(&swapped);
        let after = batcher.infer(input.clone()).unwrap();
        assert_eq!(after, swapped.run_one(&input));
        assert_ne!(before, after, "different bundle must answer differently");
        batcher.shutdown();
    }
}
