//! Serving-level golden matrix: every cache policy under both refresh
//! extremes, served cold, behind a published prefix and through a tiered
//! memory hierarchy, pinned to constants.
//!
//! A prefix hit and a demote/promote round trip are observationally
//! invisible, so the three serving paths of one (policy, refresh) row must
//! reproduce the same constants: an FNV-1a of the served tokens, an FNV-1a
//! of every step's next-token probability bits and the request's
//! `FaultStats`.  The equivalence suites show that the serving paths agree
//! with each other; this file holds all of them to values outside the code.

use kelle::cache::CacheBudget;
use kelle::edram::RefreshPolicy;
use kelle::model::FaultStats;
use kelle::tier::TierConfig;
use kelle::{
    CachePolicy, KelleEngine, PrefixSharingConfig, SchedulerConfig, ServeOptions, ServeRequest,
};

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic prompt of `len` tokens.
fn prompt_tokens(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 13 + salt * 29 + 3) % 512).collect()
}

/// How a row's request reaches the engine.
#[derive(Debug)]
enum Column {
    /// A fresh engine, no sharing, unbounded eDRAM.
    Cold,
    /// The engine published the prompt's first 12 tokens beforehand.
    PrefixHit,
    /// eDRAM holds one full-scale KV token, so the session demotes after
    /// every tick and promotes before the next.
    Tiered,
}

/// One (policy, refresh) row: the constants all three columns reproduce.
struct GoldenServe {
    policy: CachePolicy,
    two_drp: bool,
    tokens_fnv1a: u64,
    probs_fnv1a: u64,
    faults: FaultStats,
}

/// The two AERP rows were re-captured when each stored input row came to be
/// read, and corrupted, once per layer instead of once per retaining head:
/// under conservative refresh only `words_examined` moved (874 496 →
/// 148 224), under 2DRP everything did.  No other row moved.
///
/// Every row was re-captured when a row computed by the current pass came
/// to be read clean (the prompt's own rows during its pre-fill, a decode
/// token's own row), which no pass counts.  Under conservative refresh only
/// `words_examined` moved: 304 640 → 208 896 (full, quarot-kv4), 217 088 →
/// 122 880 (streaming-llm), 218 624 → 122 880 (h2o), 148 224 → 100 352
/// (aerp).  Under 2DRP everything did; the old tokens/probabilities FNVs
/// were full 0xf9e7_ba73_f27e_7e64 / 0x47c5_9f6f_d65a_791e, streaming-llm
/// 0x060e_56c5_6d87_3ecc / 0x58c0_2c0c_1279_6317, h2o 0x075c_95aa_42ff_944c
/// / 0x0d17_e80a_bdb6_24da, quarot-kv4 0x3e2e_9385_ef2e_449f /
/// 0x9e96_a038_cc05_f034 and aerp 0xbb62_237e_6640_97e5 /
/// 0xc370_d038_d60e_3ec7.  The three columns of each row still agree.
///
/// The AERP 2DRP row's probabilities moved once more when a corrupted row's
/// key and value came to be corrected for its flipped words instead of
/// recomputed from the whole row, which changes their rounding only:
/// 0x7ca8_f87d_13c4_97ee → 0xa47b_acdd_7707_b4a9.  Its tokens and
/// `FaultStats` did not move, and its three columns still agree.
///
/// Every 2DRP row was re-captured when a stored row's failing cells came to
/// be fixed for the row instead of drawn again at every read.  Old tokens /
/// probabilities FNVs and bits flipped: full 0xb631_e062_f6aa_e1b6 /
/// 0xd921_af3d_3d73_92db / 46 719, streaming-llm 0x0371_faf2_d856_7afb /
/// 0xfaf8_dc56_e5c7_68aa / 32 055, h2o 0x7b0d_d40d_84fd_072b /
/// 0x13f7_c94c_ad4a_7ed7 / 27 267, quarot-kv4 0xac37_7565_9e7c_71c4 /
/// 0x304d_52e2_d341_a841 / 36 881 and aerp 0x08e3_a8b0_6c66_6498 /
/// 0xa47b_acdd_7707_b4a9 / 19 396.  AERP's failures moved which rows it
/// keeps, so its words examined moved too (100 096 → 97 984); no other
/// words-examined count and no conservative-refresh row moved.  The three
/// columns of each row still agree: a prefix hit reads the replayed rows'
/// cells as a cold serve reads its own.
const GOLDEN_SERVES: [GoldenServe; 10] = [
    GoldenServe {
        policy: CachePolicy::Full,
        two_drp: false,
        tokens_fnv1a: 0x222f_d71e_5163_4f79,
        probs_fnv1a: 0x425c_9715_6df7_e81a,
        faults: FaultStats {
            words_examined: 208_896,
            bits_flipped: 0,
        },
    },
    GoldenServe {
        policy: CachePolicy::StreamingLlm,
        two_drp: false,
        tokens_fnv1a: 0x657d_837d_4dc0_1eea,
        probs_fnv1a: 0x1fd5_d975_c2ac_a4f4,
        faults: FaultStats {
            words_examined: 122_880,
            bits_flipped: 0,
        },
    },
    GoldenServe {
        policy: CachePolicy::H2o,
        two_drp: false,
        tokens_fnv1a: 0x767a_1bbb_fa23_2c54,
        probs_fnv1a: 0x7462_b5e8_42c5_4296,
        faults: FaultStats {
            words_examined: 122_880,
            bits_flipped: 0,
        },
    },
    GoldenServe {
        policy: CachePolicy::QuaRotInt4,
        two_drp: false,
        tokens_fnv1a: 0x0442_992a_cd49_b0ee,
        probs_fnv1a: 0xa1b3_d7e5_d2a6_9f2f,
        faults: FaultStats {
            words_examined: 208_896,
            bits_flipped: 0,
        },
    },
    GoldenServe {
        policy: CachePolicy::Aerp,
        two_drp: false,
        tokens_fnv1a: 0x767a_1bbb_fa23_2c54,
        probs_fnv1a: 0x7462_b5e8_42c5_4296,
        faults: FaultStats {
            words_examined: 100_352,
            bits_flipped: 0,
        },
    },
    GoldenServe {
        policy: CachePolicy::Full,
        two_drp: true,
        tokens_fnv1a: 0x3086_3ee3_faaf_dd66,
        probs_fnv1a: 0x081b_fe14_a934_9fb5,
        faults: FaultStats {
            words_examined: 208_896,
            bits_flipped: 45_396,
        },
    },
    GoldenServe {
        policy: CachePolicy::StreamingLlm,
        two_drp: true,
        tokens_fnv1a: 0xa21b_37f8_232c_055c,
        probs_fnv1a: 0x22f1_8400_a38e_d524,
        faults: FaultStats {
            words_examined: 122_880,
            bits_flipped: 31_089,
        },
    },
    GoldenServe {
        policy: CachePolicy::H2o,
        two_drp: true,
        tokens_fnv1a: 0x7a1f_a122_3aaa_93b9,
        probs_fnv1a: 0xfc04_b61a_8ecc_3052,
        faults: FaultStats {
            words_examined: 122_880,
            bits_flipped: 27_203,
        },
    },
    GoldenServe {
        policy: CachePolicy::QuaRotInt4,
        two_drp: true,
        tokens_fnv1a: 0xba21_ede1_7a0d_e706,
        probs_fnv1a: 0x2c07_3be6_ed5c_9804,
        faults: FaultStats {
            words_examined: 208_896,
            bits_flipped: 36_412,
        },
    },
    GoldenServe {
        policy: CachePolicy::Aerp,
        two_drp: true,
        tokens_fnv1a: 0xdf88_945e_40cf_94e4,
        probs_fnv1a: 0xbac1_9a2b_a7d5_a57b,
        faults: FaultStats {
            words_examined: 97_984,
            bits_flipped: 20_334,
        },
    },
];

/// Engine seed 7, an 18-token prompt (the published prefix plus six tokens)
/// and 16 decode tokens at a 16-token budget, so every budgeted policy
/// evicts during the run.
#[test]
fn served_streams_match_golden_matrix() {
    let prefix = prompt_tokens(12, 0);
    let mut prompt = prefix.clone();
    prompt.extend(prompt_tokens(6, 1));
    let request = ServeRequest::new(prompt, 16);
    let budget = CacheBudget::new(16)
        .with_recent_window(4)
        .with_sink_tokens(2);

    for row in &GOLDEN_SERVES {
        let refresh = if row.two_drp {
            RefreshPolicy::two_dimensional_default()
        } else {
            RefreshPolicy::Conservative
        };
        for column in [Column::Cold, Column::PrefixHit, Column::Tiered] {
            let label = format!("{} 2drp={} {column:?}", row.policy.name(), row.two_drp);
            let mut builder = KelleEngine::builder()
                .policy(row.policy)
                .refresh_policy(refresh)
                .budget(budget)
                .seed(7);
            if let Column::PrefixHit = column {
                builder = builder.prefix_sharing(PrefixSharingConfig::enabled());
            }
            let engine = builder.build();
            let mut options = ServeOptions::new();
            match column {
                Column::Cold => {}
                Column::PrefixHit => assert!(engine.publish_prefix(&prefix), "{label}"),
                Column::Tiered => {
                    let tiering = TierConfig::with_edram_budget(engine.kv_footprint_bytes(1));
                    options =
                        options.with_scheduler(SchedulerConfig::default().with_tiering(tiering));
                }
            }
            let batch = engine
                .serve(vec![request.clone()], options)
                .expect("no chaos configured");
            let outcome = &batch.outcomes[0];
            match column {
                Column::Cold => {}
                Column::PrefixHit => assert!(outcome.prefix_hit_tokens > 0, "{label}"),
                Column::Tiered => assert!(
                    batch.tiering.demotions > 0 && batch.tiering.promotions > 0,
                    "{label}: {:?}",
                    batch.tiering
                ),
            }

            // The served outcome carries no distributions: replay the
            // request on a session of the same engine and hash its per-step
            // probability bits.
            let mut session = engine.open_session_for(&request);
            session.prefill(request.prompt());
            let mut probs = Vec::new();
            for &token in &outcome.generated {
                let step = session.decode_one();
                assert_eq!(
                    step.token, token,
                    "{label}: session and batch streams agree"
                );
                probs.extend(step.probs.iter().map(|p| p.to_bits()));
            }
            let tokens = fnv1a(outcome.generated.iter().map(|&t| t as u32));
            let probs = fnv1a(probs);
            assert_eq!(
                (tokens, probs, outcome.faults),
                (row.tokens_fnv1a, row.probs_fnv1a, row.faults),
                "{label}: tokens {tokens:#018x}, probabilities {probs:#018x}"
            );
        }
    }
}
