//! The layer ladder: the same requests run through successively taller
//! stacks of the serving path, each rung adding one layer.
//!
//! ```text
//! R0 kernels    the projections and norms one token needs, on the model's weights
//! R1 model      generation::prefill / decode_step, FullKvCache, NoFaults
//! R2 cache      the same with the engine's cache policy (AERP)
//! R3 session    Session::prefill / decode_one — adds the 2DRP fault lane
//! R4 scheduler  KelleEngine::serve, inline executor
//! R5 parallel   serve().parallel() on a one-worker pool (and on two, for the speed-up)
//! R6 front      KelleEngine::front, one worker
//! ```
//!
//! A rung's self time is its time minus the rung below; R0..R6 all run on
//! one thread's worth of compute, so the self times are a CPU budget and
//! their shares of R6 sum to 1 by construction.  Prefix sharing is off on
//! every rung so all of them do the same model work.  Every rung is timed
//! step by step over several passes and charged the fastest pass of each
//! step (see `fastest_steps`).

use std::hint::black_box;

use kelle::model::fault::NoFaults;
use kelle::model::generation::{decode_step, prefill, GenerationState};
use kelle::model::{FullKvCache, KvCacheBackend, SurrogateModel};
use kelle::tensor::ops::rms_norm_into;
use kelle::{FrontConfig, KelleEngine, ServeOptions, ServeRequest, StreamPoll};

use crate::drive::{default_engine, WORKERS};
use crate::spans::Tracer;
use crate::stats::Clock;
use crate::workloads::Request;

/// Forward passes (prompt plus decode tokens) the ladder runs per rung.  The
/// session-and-above rungs each cost ~20 ms per pass at a full cache and run
/// three times, so this bounds the ladder to roughly half a minute.
pub const LADDER_PASSES: usize = 128;

pub const RUNGS: [&str; 7] = [
    "kernels",
    "model",
    "cache",
    "fault",
    "scheduler",
    "parallel",
    "front",
];

#[derive(Debug, Clone)]
pub struct Ladder {
    /// Wall seconds of R0..R6.
    pub rung_s: [f64; 7],
    /// `serve().parallel()` on two workers, for `parallel.speedup_w2`.
    pub parallel_w2_s: f64,
    pub passes: usize,
    /// Cached words the fault lane examined during R3.
    pub fault_words: u64,
    /// Durations of the front rung's submit and pump calls.
    pub submit_ms: Vec<f64>,
    pub pump_ms: Vec<f64>,
}

impl Ladder {
    /// Each rung's self time as a share of the top rung.
    pub fn shares(&self) -> [f64; 7] {
        let top = self.rung_s[6];
        let mut below = 0.0;
        self.rung_s.map(|rung| {
            let share = (rung - below) / top;
            below = rung;
            share
        })
    }

    /// `(rung - previous) / rung`: the share of rung `index` its own layer
    /// adds.
    pub fn added_share(&self, index: usize) -> f64 {
        (self.rung_s[index] - self.rung_s[index - 1]) / self.rung_s[index]
    }
}

/// The first requests of `requests`, cut to [`LADDER_PASSES`] forward passes
/// in total (the last request's decode is shortened to fit).
pub fn select(requests: impl IntoIterator<Item = Request>, passes: usize) -> Vec<Request> {
    let mut chosen = Vec::new();
    let mut left = passes;
    for mut request in requests {
        if left <= request.prompt.len() {
            break;
        }
        request.decode_len = request.decode_len.min(left - request.prompt.len());
        left -= request.prompt.len() + request.decode_len;
        request.arrival_tick = 0;
        chosen.push(request);
    }
    assert!(!chosen.is_empty(), "the first request fits the ladder");
    chosen
}

/// Records the duration of each step of one pass over a rung.
struct Marks<'c> {
    clock: &'c Clock,
    last_ns: u64,
    steps_ns: Vec<u64>,
}

impl Marks<'_> {
    /// Ends the current step.
    fn mark(&mut self) {
        let now = self.clock.ns();
        self.steps_ns.push(now - self.last_ns);
        self.last_ns = now;
    }
}

/// Times one pass over a rung step by step.
fn one_pass(clock: &Clock, rung: impl FnOnce(&mut Marks<'_>)) -> Vec<u64> {
    let mut marks = Marks {
        clock,
        last_ns: clock.ns(),
        steps_ns: Vec::new(),
    };
    rung(&mut marks);
    marks.mark();
    marks.steps_ns
}

/// Seconds of a rung from several passes over it, with the host's noise
/// filtered out: a rung's step structure is deterministic, so each step is
/// charged its fastest pass.  Contention only ever adds time, and the passes
/// of one rung are spread over the whole ladder run (the rungs take turns),
/// so a slow spell of the host rarely hits the same step every time.
fn fastest_steps(passes: &[Vec<u64>]) -> f64 {
    let steps = passes[0].len();
    let nanoseconds: u64 = if passes.iter().all(|pass| pass.len() == steps) {
        (0..steps)
            .map(|i| passes.iter().map(|pass| pass[i]).min().expect("non-empty"))
            .sum()
    } else {
        passes
            .iter()
            .map(|pass| pass.iter().sum())
            .min()
            .expect("non-empty")
    };
    nanoseconds as f64 / 1e9
}

/// Passes over each rung.  On the reference host back-to-back timings of
/// the same two seconds of work differ by up to a fifth; three interleaved
/// passes bring a rung's time to within a few percent.
const PASSES: usize = 3;

pub fn run(requests: &[Request], tracer: &mut Tracer) -> Ladder {
    let engine = default_engine(1, false);
    let two_workers = default_engine(WORKERS, false);
    let model = engine.model();
    let config = engine.config();
    let passes: usize = requests.iter().map(|r| r.prompt.len() + r.decode_len).sum();
    let clock = Clock::start();

    let kernels = || {
        one_pass(&clock, |marks| {
            let mut buffers = KernelBuffers::default();
            for _ in 0..passes {
                kernel_pass(model, &mut buffers);
                marks.mark();
            }
        })
    };
    let generation = |make: &dyn Fn() -> Box<dyn KvCacheBackend>| {
        one_pass(&clock, |marks| {
            for request in requests {
                let mut cache = make();
                let mut state = GenerationState::new();
                prefill(
                    model,
                    &mut state,
                    &request.prompt,
                    cache.as_mut(),
                    &mut NoFaults,
                );
                marks.mark();
                for _ in 0..request.decode_len {
                    black_box(decode_step(
                        model,
                        &mut state,
                        None,
                        cache.as_mut(),
                        &mut NoFaults,
                    ));
                    marks.mark();
                }
            }
        })
    };
    let mut fault_words = 0;
    let mut session = |tracer: &mut Tracer| {
        fault_words = 0;
        one_pass(&clock, |marks| {
            for request in requests {
                let mut session = engine.open_session();
                let start = clock.ns();
                session.prefill(&request.prompt);
                tracer.span("ladder.prefill", start, clock.ns(), None, Some(request.id));
                marks.mark();
                for _ in 0..request.decode_len {
                    let start = clock.ns();
                    black_box(session.decode_one());
                    tracer.span(
                        "ladder.decode_one",
                        start,
                        clock.ns(),
                        None,
                        Some(request.id),
                    );
                    marks.mark();
                }
                fault_words += session.fault_stats().words_examined;
            }
        })
    };
    let serve_requests = || -> Vec<ServeRequest> {
        requests
            .iter()
            .map(|r| {
                ServeRequest::builder(r.prompt.clone())
                    .decode_len(r.decode_len)
                    .build()
            })
            .collect()
    };
    // One step per streamed token: the first token of a tick carries the
    // tick's compute, the rest of its tokens follow within microseconds.
    let serve = |engine: &KelleEngine, parallel: bool| {
        one_pass(&clock, |marks| {
            let mut sink = |_request: usize, token: usize| {
                black_box(token);
                marks.mark();
            };
            let options = ServeOptions::new().streaming(&mut sink);
            let options = if parallel {
                options.parallel()
            } else {
                options
            };
            black_box(
                engine
                    .serve(serve_requests(), options)
                    .expect("infallible options cannot fail"),
            );
        })
    };
    let mut submit_ms = Vec::new();
    let mut pump_ms = Vec::new();
    let mut front = || {
        submit_ms.clear();
        pump_ms.clear();
        one_pass(&clock, |marks| {
            engine.front(FrontConfig::new(), |front| {
                let mut streams = Vec::new();
                for request in serve_requests() {
                    let start = clock.ns();
                    streams.push(
                        front
                            .submit(request)
                            .expect("the queue is unbounded and the front is not draining"),
                    );
                    submit_ms.push((clock.ns() - start) as f64 / 1e6);
                    marks.mark();
                }
                while !streams.is_empty() {
                    let start = clock.ns();
                    front.pump();
                    pump_ms.push((clock.ns() - start) as f64 / 1e6);
                    streams.retain(|stream| loop {
                        match stream.try_next() {
                            StreamPoll::Token(token) => {
                                black_box(token);
                            }
                            StreamPoll::Pending => break true,
                            StreamPoll::Finished { .. } => break false,
                        }
                    });
                    marks.mark();
                }
            });
        })
    };

    // The rungs take turns, so every rung sees the same spells of the host.
    let mut rungs: [Vec<Vec<u64>>; 8] = Default::default();
    for _ in 0..PASSES {
        rungs[0].push(kernels());
        rungs[1].push(generation(&|| Box::new(FullKvCache::new())));
        rungs[2].push(generation(&|| {
            config.policy.build(config.budget, model.dims().heads)
        }));
        rungs[3].push(session(tracer));
        rungs[4].push(serve(&engine, false));
        rungs[5].push(serve(&engine, true));
        rungs[6].push(front());
        rungs[7].push(serve(&two_workers, true));
    }
    let seconds = rungs.map(|passes| fastest_steps(&passes));
    let mut rung_s = [0.0; 7];
    rung_s.copy_from_slice(&seconds[..7]);
    Ladder {
        rung_s,
        parallel_w2_s: seconds[7],
        passes,
        fault_words,
        submit_ms,
        pump_ms,
    }
}

#[derive(Default)]
pub struct KernelBuffers {
    hidden: Vec<f32>,
    normed: Vec<f32>,
    out: Vec<f32>,
    wide: Vec<f32>,
}

/// The context-independent kernels of one token's forward pass, on the
/// model's own weights: per layer two norms, the Q/K/V/O projections and the
/// three FFN projections, then the final norm and the LM head.  Attention
/// over the cache — the context-dependent part — is what R1 adds.
pub fn kernel_pass(model: &SurrogateModel, buffers: &mut KernelBuffers) {
    let weights = model.weights();
    let KernelBuffers {
        hidden,
        normed,
        out,
        wide,
    } = buffers;
    weights.embed_into(1, 0, hidden);
    let project = |matrix: &kelle::tensor::Matrix, input: &[f32], out: &mut Vec<f32>| {
        matrix
            .matvec_into(black_box(input), out)
            .expect("weight shapes match the hidden size");
        black_box(&*out);
    };
    for layer in &weights.layers {
        rms_norm_into(black_box(hidden), &layer.attn_norm, 1e-5, normed);
        for matrix in [&layer.wq, &layer.wk, &layer.wv, &layer.wo] {
            project(matrix, normed, out);
        }
        rms_norm_into(black_box(hidden), &layer.ffn_norm, 1e-5, normed);
        project(&layer.w_gate, normed, wide);
        project(&layer.w_up, normed, wide);
        project(&layer.w_down, wide, out);
    }
    rms_norm_into(black_box(hidden), &weights.final_norm, 1e-5, normed);
    project(&weights.embedding, normed, wide);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn selection_cuts_the_list_to_the_pass_budget() {
        let list = Workload::FleetTrace.inputs(7, true).list;
        let chosen = select(list.clone(), 40);
        let passes: usize = chosen.iter().map(|r| r.prompt.len() + r.decode_len).sum();
        assert!(passes <= 40 && passes > 40 - 16, "{passes}");
        assert!(chosen
            .iter()
            .all(|r| r.arrival_tick == 0 && r.decode_len > 0));
        assert_eq!(chosen[0].prompt, list[0].prompt);
    }

    #[test]
    fn shares_sum_to_one() {
        let requests = select(Workload::DecodeSteady.inputs(7, true).list, 24);
        let ladder = run(&requests, &mut Tracer::off());
        assert!(ladder.rung_s.iter().all(|&s| s > 0.0));
        let sum: f64 = ladder.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        let passes: usize = requests.iter().map(|r| r.prompt.len() + r.decode_len).sum();
        assert_eq!(ladder.passes, passes);
        assert!(ladder.fault_words > 0);
        assert!(!ladder.submit_ms.is_empty() && !ladder.pump_ms.is_empty());
    }
}
