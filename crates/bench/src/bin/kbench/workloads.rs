//! The four workloads as pure functions of `--seed`.
//!
//! A workload is one scenario of a few seconds, replayed round after round
//! on a fresh scheduler until the measurement window closes; every round
//! must produce the same token streams, and a run reports its median round,
//! which is what keeps a burst of host noise out of the result.  Two shapes
//! of scenario exist.  *Lists* (`decode_steady`, `fleet_trace`) hand the
//! scheduler all requests at once, with arrival ticks.  *Closed loops*
//! (`prefill_shared`, `front_chat`) model an edge device's few local users:
//! each client sends its next request only when the previous reply is
//! complete, and request `k` of client `c` can be regenerated on its own
//! from `(seed, c, k)`.
//!
//! The seed decides *what* is sent — every token id, the order of request
//! shapes, a token of length jitter here and there — but not *how much*: the
//! total work of a workload is the same on every seed to within a percent.
//! Serving latency under load amplifies any change of shape (a fleet trace
//! with a slightly later burst has a very different queue), so a benchmark
//! whose seeds changed the amount of work could not tell a regression from a
//! seed.
//!
//! Why these four workloads is recorded in the README next to this file.

use kelle::workloads::{PrefixHierarchy, SessionArchetype, TraceConfig, TraceEngine};

use crate::stats::SplitMix64;

/// Surrogate vocabulary of the default engine (LLaMA2-7B surrogate).
pub const VOCAB: usize = 512;

/// One request of a workload.  `id` is its position in the replayed list, or
/// `k * clients + client` in a closed loop — stable across hosts and runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: usize,
    pub prompt: Vec<usize>,
    pub decode_len: usize,
    pub arrival_tick: u64,
}

/// A nested prefix publication: `tokens[..b]` is published for every `b` in
/// `boundaries` from one recording pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publication {
    pub tokens: Vec<usize>,
    pub boundaries: Vec<usize>,
}

/// What set-up generates from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub list: Vec<Request>,
    pub publications: Vec<Publication>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeSteady,
    PrefillShared,
    FleetTrace,
    FrontChat,
}

/// How a round's requests reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One fixed list, handed over at the start of the round.
    Replayed,
    /// `clients` callers, each waiting for its reply before sending again,
    /// `per_client` requests each per round.
    ClosedLoop { clients: usize, per_client: usize },
}

// Stream labels for `SplitMix64::derive`, one per independent draw.
const STREAM_DECODE: u64 = 1;
const STREAM_SYSTEM: u64 = 2;
const STREAM_PREFILL: u64 = 3;
const STREAM_CHAT: u64 = 4;
const STREAM_FLEET_VOCAB: u64 = 6;
const STREAM_FLEET_JITTER: u64 = 7;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DecodeSteady,
        Workload::PrefillShared,
        Workload::FleetTrace,
        Workload::FrontChat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeSteady => "decode_steady",
            Workload::PrefillShared => "prefill_shared",
            Workload::FleetTrace => "fleet_trace",
            Workload::FrontChat => "front_chat",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the full reasoning is in the
    /// README); copied into `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DecodeSteady => {
                "long decodes at the AERP budget via serve().parallel(): kernels, attention, \
                 eviction and the 2DRP fault lane do the work; admission, prefix, tier and front do none"
            }
            Workload::PrefillShared => {
                "closed loop of 64-token prompts, one in three behind a published 48-token prefix: \
                 KV inserts instead of reads, prefix hit beside cold prefill"
            }
            Workload::FleetTrace => {
                "Poisson session fleet under a 48-token KV capacity, driven tick by tick: short contexts \
                 and a deep queue, so admission, ledger, prefix lookup and executor crossings weigh most"
            }
            Workload::FrontChat => {
                "closed loop of 4 chat clients through the front-end with eDRAM at half of demand: \
                 the only workload where front, tiering and the sticky executor work"
            }
        }
    }

    pub fn traffic(self) -> Traffic {
        match self {
            Workload::DecodeSteady | Workload::FleetTrace => Traffic::Replayed,
            // Six requests a round, two of them prefix hits.
            Workload::PrefillShared => Traffic::ClosedLoop {
                clients: 2,
                per_client: 3,
            },
            // One block of chat shapes a round.
            Workload::FrontChat => Traffic::ClosedLoop {
                clients: 4,
                per_client: CHAT_BLOCK / 4,
            },
        }
    }

    /// Request `k` of closed-loop client `client`.
    ///
    /// # Panics
    ///
    /// Panics for replayed-list workloads.
    pub fn client_request(self, seed: u64, client: usize, k: usize, smoke: bool) -> Request {
        let Traffic::ClosedLoop { clients, .. } = self.traffic() else {
            panic!("{} is a replayed list, not a closed loop", self.name());
        };
        let id = k * clients + client;
        match self {
            Workload::PrefillShared => prefill_shared_request(seed, id, smoke),
            Workload::FrontChat => front_chat_request(seed, id, smoke),
            _ => unreachable!("closed-loop workloads are matched above"),
        }
    }

    /// Everything set-up generates from the seed: the replayed list (empty
    /// for closed loops, whose requests are drawn as clients come due) and
    /// the prefixes to publish.
    pub fn inputs(self, seed: u64, smoke: bool) -> Inputs {
        match self {
            Workload::DecodeSteady => Inputs {
                list: decode_steady_list(seed, smoke),
                publications: Vec::new(),
            },
            Workload::FleetTrace => fleet_trace(seed, smoke),
            Workload::PrefillShared | Workload::FrontChat => {
                let tokens = system_prompt(self, seed, smoke);
                Inputs {
                    list: Vec::new(),
                    publications: vec![Publication {
                        boundaries: vec![tokens.len()],
                        tokens,
                    }],
                }
            }
        }
    }
}

/// Two requests — one per worker — that reach the AERP budget of 64 cached
/// tokens well before the middle of their decode, so most steps read a full
/// cache per head, evict, and pay the whole fault lane.  A round takes ~3.5 s
/// on the 2-core reference host, so four fit the measurement window.
fn decode_steady_list(seed: u64, smoke: bool) -> Vec<Request> {
    let decode = if smoke { (3, 5) } else { (118, 122) };
    (0..2)
        .map(|id| {
            let mut rng = SplitMix64::derive(seed, STREAM_DECODE, id as u64);
            Request {
                id,
                prompt: rng.tokens(16, VOCAB),
                decode_len: rng.range(decode.0, decode.1),
                arrival_tick: 0,
            }
        })
        .collect()
}

fn system_prompt(workload: Workload, seed: u64, smoke: bool) -> Vec<usize> {
    let len = match (workload, smoke) {
        (_, true) => 8,
        (Workload::PrefillShared, false) => 48,
        (_, false) => 16,
    };
    SplitMix64::derive(seed, STREAM_SYSTEM, len as u64).tokens(len, VOCAB)
}

/// Every third request starts with the published system prompt (prefix hit,
/// segment replay); the others are fully unique (cold prefill).  Hit and miss
/// prompts have the same length (64 tokens, give or take two) so they differ
/// only in how the prefix part is obtained.
fn prefill_shared_request(seed: u64, id: usize, smoke: bool) -> Request {
    let (prompt_len, decode_len) = if smoke { (12, 2) } else { (64, 4) };
    let mut rng = SplitMix64::derive(seed, STREAM_PREFILL, id as u64);
    let mut prompt = if id.is_multiple_of(3) {
        system_prompt(Workload::PrefillShared, seed, smoke)
    } else {
        Vec::new()
    };
    let unique = rng.range(prompt_len - 2, prompt_len + 2) - prompt.len();
    prompt.extend(rng.tokens(unique, VOCAB));
    Request {
        id,
        prompt,
        decode_len,
        arrival_tick: 0,
    }
}

/// Chat turns come in blocks of this many, each block holding every shape of
/// the table once.
const CHAT_BLOCK: usize = 16;

/// The `(user tokens, reply tokens)` shape of chat turn `position` of a
/// block: user messages of 4 to 16 tokens, replies of 8 to 24 tokens, every
/// reply length distinct, long and short turns mixed.
fn chat_shape(position: usize) -> (usize, usize) {
    let slot = (position * 7 + 3) % CHAT_BLOCK;
    (4 + slot % 13, 8 + (slot * 5) % 17)
}

/// A chat turn: the published 16-token system prompt, a short unique user
/// message, a short reply.  Turn shapes follow a fixed table — which turn
/// stalls which is a property of the schedule, and a seed that reordered
/// the turns would move the latency percentiles by more than most
/// optimisations do — so the seed draws the tokens and adds a token to some
/// user messages.
fn front_chat_request(seed: u64, id: usize, smoke: bool) -> Request {
    let (user, reply) = chat_shape(id % CHAT_BLOCK);
    let mut rng = SplitMix64::derive(seed, STREAM_CHAT, id as u64);
    let mut prompt = system_prompt(Workload::FrontChat, seed, smoke);
    let jitter = rng.range(0, 1);
    let (user, reply) = if smoke {
        (2 + jitter, 2 + reply % 3)
    } else {
        (user + jitter, reply)
    };
    prompt.extend(rng.tokens(user, VOCAB));
    Request {
        id,
        prompt,
        decode_len: reply,
        arrival_tick: 0,
    }
}

/// Sessions per fleet round.  ROADMAP's trace has 1000 sessions (~18 s per
/// replay on the 2-core reference host); 200 keep the same arrival rate,
/// mixture and capacity but let a round (~4 s) fit the measurement window
/// four times.  The queue still grows for the whole arrival horizon by
/// design.
pub const FLEET_SESSIONS: usize = 200;

/// The largest KV footprint the fleet's scheduler may hold, in cached tokens.
pub const FLEET_CAPACITY_TOKENS: usize = 48;

/// Seed of the fleet's structure: arrival ticks, session mixture, turn
/// counts and lengths.  It is a constant because the queue amplifies any
/// change of structure; `--seed` renames every token instead.
const FLEET_STRUCTURE_SEED: u64 = 29;

/// The fleet trace configuration: Poisson arrivals four times faster than one
/// tick can serve, the chat-short / chat-multi / longform mixture of the
/// repository's `trace_perf` sweep (copied, not imported: the benchmark must
/// not change when that sweep does), and a 4+2+2-token three-level prefix
/// hierarchy with two tools and two users.
pub fn fleet_config(sessions: usize) -> TraceConfig {
    TraceConfig::poisson(sessions, 0.25)
        .with_hierarchy(PrefixHierarchy::new(4, 2, 2).with_users(2, 2))
        .with_archetypes(vec![
            SessionArchetype::new("chat-short", 7, (1, 3)).with_decode_tokens((2, 3)),
            SessionArchetype::new("chat-multi", 2, (1, 3))
                .with_decode_tokens((2, 3))
                .with_turns((2, 2), (2, 6)),
            SessionArchetype::new("longform", 1, (4, 8)).with_decode_tokens((4, 6)),
        ])
        .with_seed(FLEET_STRUCTURE_SEED)
}

/// The fleet trace with every token id renamed through a seeded permutation
/// of the vocabulary — which keeps exactly the trace's prefix sharing while
/// changing every embedding the model sees — and one request in sixteen
/// decoding one token more.
fn fleet_trace(seed: u64, smoke: bool) -> Inputs {
    let sessions = if smoke { 4 } else { FLEET_SESSIONS };
    let trace = TraceEngine::new(fleet_config(sessions)).generate();
    let mut rename: Vec<usize> = (0..VOCAB).collect();
    let mut shuffle = SplitMix64::derive(seed, STREAM_FLEET_VOCAB, 0);
    for i in (1..VOCAB).rev() {
        rename.swap(i, shuffle.range(0, i));
    }
    let renamed = |tokens: Vec<usize>| tokens.into_iter().map(|t| rename[t]).collect();
    let list = trace
        .requests
        .into_iter()
        .enumerate()
        .map(|(id, r)| {
            let extra = SplitMix64::derive(seed, STREAM_FLEET_JITTER, id as u64).range(0, 15) == 0;
            Request {
                id,
                prompt: renamed(r.prompt),
                decode_len: r.decode_len + usize::from(extra),
                arrival_tick: r.arrival_tick,
            }
        })
        .collect();
    let publications = trace
        .publications
        .into_iter()
        .map(|p| Publication {
            tokens: renamed(p.tokens),
            boundaries: p.boundaries,
        })
        .collect();
    Inputs { list, publications }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a workload feeds the engine for one seed: the replayed
    /// list, or the first eight requests of every closed-loop client.
    fn inputs(workload: Workload, seed: u64, smoke: bool) -> (Vec<Request>, Vec<Publication>) {
        let Inputs { list, publications } = workload.inputs(seed, smoke);
        let requests = match workload.traffic() {
            Traffic::Replayed => list,
            Traffic::ClosedLoop { clients, .. } => (0..8)
                .flat_map(|k| (0..clients).map(move |c| (c, k)))
                .map(|(c, k)| workload.client_request(seed, c, k, smoke))
                .collect(),
        };
        (requests, publications)
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for workload in Workload::ALL {
            for smoke in [true, false] {
                let a = inputs(workload, 7, smoke);
                assert_eq!(a, inputs(workload, 7, smoke), "{}", workload.name());
                assert_ne!(a.0, inputs(workload, 13, smoke).0, "{}", workload.name());
            }
        }
    }

    #[test]
    fn requests_are_well_formed() {
        for workload in Workload::ALL {
            let (requests, publications) = inputs(workload, 7, false);
            assert!(!requests.is_empty());
            for request in &requests {
                assert!(!request.prompt.is_empty());
                assert!(request.decode_len > 0);
                assert!(request.prompt.iter().all(|&t| t < VOCAB));
            }
            for publication in &publications {
                assert!(publication.boundaries.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(
                    publication.boundaries.last().copied(),
                    Some(publication.tokens.len())
                );
            }
        }
    }

    #[test]
    fn closed_loop_ids_interleave_clients() {
        let request = Workload::FrontChat.client_request(7, 3, 2, false);
        assert_eq!(request.id, 2 * 4 + 3);
        assert_eq!(Workload::parse("front_chat"), Some(Workload::FrontChat));
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn prefill_shared_mixes_hits_and_misses_at_one_prompt_length() {
        let system = &Workload::PrefillShared.inputs(7, false).publications[0].tokens;
        assert_eq!(system.len(), 48);
        for id in 0..9 {
            let request = Workload::PrefillShared.client_request(7, id % 2, id / 2, false);
            assert_eq!(request.id, id);
            assert!((62..=66).contains(&request.prompt.len()));
            assert_eq!(request.prompt.starts_with(system), id % 3 == 0);
        }
    }

    #[test]
    fn every_seed_sends_the_same_amount_of_work() {
        let passes = |requests: &[Request]| -> usize {
            requests.iter().map(|r| r.prompt.len() + r.decode_len).sum()
        };
        for workload in Workload::ALL {
            let base = passes(&inputs(workload, 7, false).0) as f64;
            for seed in [1, 13, 99] {
                let other = passes(&inputs(workload, seed, false).0) as f64;
                assert!(
                    (other / base - 1.0).abs() < 0.02,
                    "{}: {base} vs {other}",
                    workload.name()
                );
            }
        }
        // A block of chat turns spans the reply lengths, each once.
        let mut replies: Vec<usize> = (0..CHAT_BLOCK)
            .map(|id| front_chat_request(7, id, false).decode_len)
            .collect();
        replies.sort_unstable();
        assert!(replies.windows(2).all(|w| w[0] < w[1]));
        assert_eq!((replies[0], replies[CHAT_BLOCK - 1]), (8, 24));
    }

    #[test]
    fn the_fleet_keeps_its_structure_and_its_prefix_sharing_across_seeds() {
        let (a, b) = (fleet_trace(7, false), fleet_trace(13, false));
        assert_eq!(a.list.len(), b.list.len());
        for (x, y) in a.list.iter().zip(&b.list) {
            assert_eq!(x.arrival_tick, y.arrival_tick);
            assert_eq!(x.prompt.len(), y.prompt.len());
        }
        // A request shares a published prefix on one seed exactly when it
        // does on the other.
        let shares = |inputs: &Inputs| -> Vec<bool> {
            inputs
                .list
                .iter()
                .map(|r| {
                    inputs
                        .publications
                        .iter()
                        .any(|p| r.prompt.starts_with(&p.tokens[..p.boundaries[0]]))
                })
                .collect()
        };
        assert_eq!(shares(&a), shares(&b));
        assert!(shares(&a).iter().any(|&hit| hit));
    }

    #[test]
    fn smoke_scale_is_a_handful_of_tiny_requests() {
        for workload in [Workload::DecodeSteady, Workload::FleetTrace] {
            let list = workload.inputs(7, true).list;
            assert!((2..=12).contains(&list.len()), "{}", workload.name());
            assert!(list.iter().all(|r| r.decode_len <= 8));
        }
    }
}
