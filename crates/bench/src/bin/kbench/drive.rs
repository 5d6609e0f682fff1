//! Set-up and the timed phase of each workload.
//!
//! Every number is taken from outside the engine, by timing calls into its
//! public functions from one driver thread.  Engines run two workers on
//! every host (a constant, not `nproc`-derived), so a result names its
//! configuration fully.

use kelle::edram::TierBudgets;
use kelle::{
    AdmissionPolicy, BatchOutcome, BatchReport, BatchScheduler, FrontConfig, KelleEngine,
    PrefixSharingConfig, SchedulerConfig, ServeOptions, ServeOutcome, ServeRequest, SloSpec,
    StreamPoll, TierConfig, TokenStream, WorkerPool,
};

use crate::spans::Tracer;
use crate::stats::Clock;
use crate::workloads::{Inputs, Request, Traffic, Workload, FLEET_CAPACITY_TOKENS};

/// Engine worker threads, on every host.
pub const WORKERS: usize = 2;

/// The serving objective `slo_goodput_share` is judged against, in ticks.
pub const SLO: SloSpec = SloSpec {
    ttft_ticks: 25,
    tpot_ticks: 1.5,
};

/// A workload ready to run: engine built, inputs generated, prefixes
/// published.  Building one is what `setup_s` times.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    pub engine: KelleEngine,
    pub inputs: Inputs,
}

/// The default engine (LLaMA2-7B surrogate, AERP, budget 64, 2DRP faults,
/// Kelle+eDRAM) with `workers` threads.
pub fn default_engine(workers: usize, prefix_sharing: bool) -> KelleEngine {
    let builder = KelleEngine::builder().workers(workers);
    if prefix_sharing {
        builder
            .prefix_sharing(PrefixSharingConfig::enabled())
            .build()
    } else {
        builder.build()
    }
}

pub fn set_up(workload: Workload, seed: u64, smoke: bool) -> Setup {
    let inputs = workload.inputs(seed, smoke);
    let engine = default_engine(WORKERS, workload != Workload::DecodeSteady);
    for publication in &inputs.publications {
        let published =
            engine.publish_prefix_hierarchy(&publication.tokens, &publication.boundaries);
        assert!(published > 0, "set-up publishes every prefix exactly once");
    }
    Setup {
        workload,
        seed,
        smoke,
        engine,
        inputs,
    }
}

/// When the timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Measure for this many seconds: another round starts only while the
    /// window is open and the round is expected to end within 1.25 windows.
    Window(f64),
    /// This many rounds, for comparing a traced with an untraced run.
    Rounds(usize),
}

/// One served request as the driver saw it.
#[derive(Debug, Clone)]
pub struct Record {
    pub request: Request,
    pub tokens: Vec<usize>,
    /// When the request was due: submit time, or the start of its arrival
    /// tick on the fleet trace (so queueing counts toward TTFT).
    pub start_ns: u64,
    /// Arrival time of each token at the driver.
    pub token_ns: Vec<u64>,
    pub shed: bool,
    /// Modelled accelerator latency and energy of the request (simulated).
    pub sim_latency_s: f64,
    pub sim_energy_j: f64,
    pub prefix_hit_tokens: usize,
    /// Evictions and recompute/read entry counts of the decode phase.
    pub evictions: u64,
    pub recomputed_entries: u64,
    pub kv_entries_read: u64,
}

impl Record {
    fn new(request: Request, start_ns: u64) -> Self {
        Record {
            tokens: Vec::with_capacity(request.decode_len),
            token_ns: Vec::with_capacity(request.decode_len),
            request,
            start_ns,
            shed: false,
            sim_latency_s: 0.0,
            sim_energy_j: 0.0,
            prefix_hit_tokens: 0,
            evictions: 0,
            recomputed_entries: 0,
            kv_entries_read: 0,
        }
    }

    fn token(&mut self, token: usize, at_ns: u64) {
        self.tokens.push(token);
        self.token_ns.push(at_ns);
    }

    fn complete(&mut self, outcome: &ServeOutcome) {
        self.shed = outcome.shed.is_some();
        self.sim_latency_s = outcome.hardware.total_latency_s();
        self.sim_energy_j = outcome.hardware.total_energy_j();
        self.prefix_hit_tokens = outcome.prefix_hit_tokens;
        self.evictions = outcome.trace.final_evictions();
        for step in &outcome.trace.steps {
            self.recomputed_entries += step.recomputed_entries as u64;
            self.kv_entries_read += step.kv_entries_read as u64;
        }
    }

    pub fn ttft_ms(&self) -> Option<f64> {
        self.token_ns
            .first()
            .map(|&first| first.saturating_sub(self.start_ns) as f64 / 1e6)
    }

    /// Gaps between consecutive tokens, in milliseconds.
    pub fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_ns
            .windows(2)
            .map(|pair| (pair[1] - pair[0]) as f64 / 1e6)
    }
}

/// One replay of the workload's scenario.  Every round serves the same
/// requests on a fresh scheduler, so rounds are comparable one to one and a
/// run reports the median round.
pub struct Round {
    /// Records in request-id order.
    pub records: Vec<Record>,
    pub wall_s: f64,
    /// The scheduler's metric blocks for the round.
    pub report: BatchReport,
    /// Duration of each scheduler tick the driver could observe, in ms, and
    /// the tokens it committed.
    pub tick_ms: Vec<f64>,
    pub tick_tokens: Vec<usize>,
}

impl Round {
    pub fn tokens(&self) -> usize {
        self.records.iter().map(|r| r.tokens.len()).sum()
    }
}

/// Runs rounds of the workload until `stop`.
pub fn run(setup: &Setup, stop: Stop, tracer: &mut Tracer) -> Vec<Round> {
    // One untimed request lets lazy set-up (thread-local buffers, page
    // faults on the weights) finish before timing.
    setup.engine.serve_one(&[1, 2, 3, 4], 2);
    let clock = Clock::start();
    let mut rounds = Vec::new();
    loop {
        let started = clock.secs();
        let span = tracer.open("round", clock.ns(), None, None);
        let mut round = match (setup.workload, setup.workload.traffic()) {
            (
                _,
                Traffic::ClosedLoop {
                    clients,
                    per_client,
                },
            ) => {
                let per_client = if setup.smoke { 1 } else { per_client };
                closed_loop_round(setup, clients, per_client, &clock, tracer, span)
            }
            (Workload::DecodeSteady, _) => serve_round(setup, &clock, tracer, span),
            (_, Traffic::Replayed) => tick_round(setup, &clock, tracer, span),
        };
        tracer.close(span, clock.ns());
        let elapsed = clock.secs();
        round.wall_s = elapsed - started;
        rounds.push(round);
        let more = match stop {
            Stop::Rounds(count) => rounds.len() < count,
            Stop::Window(seconds) => {
                elapsed < seconds && elapsed + (elapsed - started) <= 1.25 * seconds
            }
        };
        if !more {
            return rounds;
        }
    }
}

fn serve_request(request: &Request) -> ServeRequest {
    ServeRequest::builder(request.prompt.clone())
        .decode_len(request.decode_len)
        .arrival_tick(request.arrival_tick)
        .label("kbench")
        .build()
}

fn finish_round(mut records: Vec<Record>, outcome: &BatchOutcome) -> Round {
    for (record, served) in records.iter_mut().zip(&outcome.outcomes) {
        record.complete(served);
    }
    Round {
        records,
        wall_s: 0.0,
        report: outcome.report(),
        tick_ms: Vec::new(),
        tick_tokens: Vec::new(),
    }
}

/// `decode_steady`: the whole list through `KelleEngine::serve` on the
/// worker pool, tokens timed as the streaming sink receives them.
fn serve_round(setup: &Setup, clock: &Clock, tracer: &mut Tracer, parent: Option<usize>) -> Round {
    let list = &setup.inputs.list;
    let requests: Vec<ServeRequest> = list.iter().map(serve_request).collect();
    let start_ns = clock.ns();
    let mut records: Vec<Record> = list
        .iter()
        .map(|request| Record::new(request.clone(), start_ns))
        .collect();
    // The sink runs on the coordinating thread after each tick's commit, in
    // request order: a request index that does not increase starts a tick.
    let mut ticks: Vec<(u64, usize)> = Vec::new();
    let mut last_request = usize::MAX;
    let mut sink = |request: usize, token: usize| {
        let now = clock.ns();
        records[request].token(token, now);
        if last_request == usize::MAX || request <= last_request {
            ticks.push((now, 0));
        }
        let tick = ticks.last_mut().expect("a tick was just opened");
        *tick = (now, tick.1 + 1);
        last_request = request;
    };
    let span = tracer.open("serve", start_ns, parent, None);
    let outcome = setup
        .engine
        .serve(
            requests,
            ServeOptions::new()
                .parallel()
                .with_scheduler(SchedulerConfig::default().with_slo(SLO))
                .streaming(&mut sink),
        )
        .expect("infallible options cannot fail");
    tracer.close(span, clock.ns());
    let mut round = finish_round(records, &outcome);
    let mut tick_start = start_ns;
    for (end_ns, tokens) in ticks {
        tracer.span("tick", tick_start, end_ns, span, None);
        round.tick_ms.push((end_ns - tick_start) as f64 / 1e6);
        round.tick_tokens.push(tokens);
        tick_start = end_ns;
    }
    round
}

/// `fleet_trace`: the trace loaded up front with arrival ticks, then the
/// scheduler stepped tick by tick from here on the stealing worker pool.
/// Open in virtual time: arrivals follow the tick clock, not the wall clock,
/// so a request is timed from the wall-clock start of its arrival tick.
fn tick_round(setup: &Setup, clock: &Clock, tracer: &mut Tracer, parent: Option<usize>) -> Round {
    let list = &setup.inputs.list;
    let config = SchedulerConfig::default()
        .with_kv_capacity_bytes(setup.engine.kv_footprint_bytes(FLEET_CAPACITY_TOKENS))
        .with_admission(AdmissionPolicy::Fcfs)
        .with_slo(SLO);
    std::thread::scope(|scope| {
        let mut pool = WorkerPool::start(scope, WORKERS);
        let mut scheduler = BatchScheduler::with_config(&setup.engine, config);
        // tick_start[t] is when tick t began; tick 0 is the load phase, in
        // which requests arriving at tick 0 are admitted and pre-filled.
        let mut tick_start = vec![clock.ns()];
        for request in list {
            scheduler.submit_with(serve_request(request), &mut pool);
        }
        tracer.span("load", tick_start[0], clock.ns(), parent, None);
        let mut records: Vec<Record> = list
            .iter()
            .map(|request| Record::new(request.clone(), 0))
            .collect();
        let mut tick_ms = Vec::new();
        let mut tick_tokens = Vec::new();
        while !scheduler.is_idle() {
            let begin = clock.ns();
            tick_start.push(begin);
            let events = scheduler.step_with(&mut pool);
            let end = clock.ns();
            tracer.span("tick", begin, end, parent, None);
            tick_ms.push((end - begin) as f64 / 1e6);
            tick_tokens.push(events.len());
            for event in events {
                records[event.request].token(event.token, end);
            }
        }
        for record in &mut records {
            record.start_ns = tick_start[record.request.arrival_tick as usize];
        }
        let outcome = scheduler
            .finish()
            .expect("an idle scheduler holds only finished requests");
        Round {
            tick_ms,
            tick_tokens,
            ..finish_round(records, &outcome)
        }
    })
}

/// eDRAM tier budget of a closed-loop workload, where it runs tiered:
/// `front_chat` gives eDRAM half of what its clients can demand at once (the
/// shared system prompt plus each client's longest turn), so sessions are
/// demoted while they wait and promoted before they step.
pub fn edram_budget_bytes(setup: &Setup) -> Option<u64> {
    match (setup.workload, setup.workload.traffic()) {
        (Workload::FrontChat, Traffic::ClosedLoop { clients, .. }) => {
            let shared = setup.engine.kv_footprint_bytes(16);
            let private = setup.engine.kv_footprint_bytes(16 + 24);
            Some((shared + private * clients as u64) / 2)
        }
        _ => None,
    }
}

/// The front-end configuration of a closed-loop workload.
fn front_config(setup: &Setup) -> FrontConfig {
    let scheduler = SchedulerConfig::default().with_slo(SLO);
    match edram_budget_bytes(setup) {
        Some(edram) => {
            // DRAM holds the whole demand, so nothing spills to NVMe.
            let budgets = TierBudgets::with_edram(edram).with_dram(2 * edram);
            let tiering = TierConfig::with_edram_budget(edram).with_budgets(budgets);
            FrontConfig::new()
                .with_scheduler(scheduler.with_tiering(tiering))
                .with_stream_capacity(8)
        }
        None => FrontConfig::new().with_scheduler(scheduler),
    }
}

struct Live {
    stream: TokenStream,
    record: Record,
}

/// `prefill_shared` and `front_chat`: each client submits, then the driver
/// loop pumps one scheduler tick and polls every live stream, and a client
/// whose reply is complete submits its next request on the following pass,
/// until every client has sent `per_client` requests.
fn closed_loop_round(
    setup: &Setup,
    clients: usize,
    per_client: usize,
    clock: &Clock,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Round {
    let mut tick_ms = Vec::new();
    let mut tick_tokens = Vec::new();
    let (mut finished, outcome) = setup.engine.front(front_config(setup), |front| {
        let mut live: Vec<Option<Live>> = (0..clients).map(|_| None).collect();
        let mut sent = vec![0usize; clients];
        let mut finished: Vec<(usize, Record)> = Vec::new();
        loop {
            for client in 0..clients {
                if live[client].is_some() || sent[client] == per_client {
                    continue;
                }
                let request =
                    setup
                        .workload
                        .client_request(setup.seed, client, sent[client], setup.smoke);
                sent[client] += 1;
                let begin = clock.ns();
                let stream = front
                    .submit(serve_request(&request))
                    .expect("the queue is unbounded and the front is not draining");
                tracer.span("submit", begin, clock.ns(), parent, Some(request.id));
                live[client] = Some(Live {
                    stream,
                    record: Record::new(request, begin),
                });
            }
            if live.iter().all(Option::is_none) {
                break;
            }
            let begin = clock.ns();
            front.pump();
            let pumped = clock.ns();
            tracer.span("pump", begin, pumped, parent, None);
            tick_ms.push((pumped - begin) as f64 / 1e6);
            let mut delivered = 0;
            for slot in &mut live {
                let Some(entry) = slot else { continue };
                loop {
                    match entry.stream.try_next() {
                        StreamPoll::Token(token) => {
                            entry.record.token(token, clock.ns());
                            delivered += 1;
                        }
                        StreamPoll::Pending => break,
                        StreamPoll::Finished { .. } => {
                            let done = slot.take().expect("slot is live");
                            finished.push((done.stream.request(), done.record));
                            break;
                        }
                    }
                }
            }
            tracer.span("poll", pumped, clock.ns(), parent, None);
            tick_tokens.push(delivered);
        }
        finished
    });
    for (index, record) in &mut finished {
        record.complete(&outcome.outcomes[*index]);
    }
    let mut records: Vec<Record> = finished.into_iter().map(|(_, record)| record).collect();
    records.sort_by_key(|record| record.request.id);
    Round {
        records,
        wall_s: 0.0,
        report: outcome.report(),
        tick_ms,
        tick_tokens,
    }
}
