//! Bit-level retention-fault injection at KV-cache read time.
//!
//! eDRAM cells lose charge over time; if the refresh interval exceeds a cell's
//! retention time the stored bit flips (§2.3, Fig. 4).  Kelle's 2DRP assigns
//! different refresh intervals — and therefore different bit-flip
//! probabilities — along two dimensions (§4.2):
//!
//! * **token importance**: high-score tokens (HST) are refreshed more often
//!   than low-score tokens (LST);
//! * **bit significance**: the most significant byte of each 16-bit word
//!   (bits 15–8) is refreshed more often than the least significant byte
//!   (bits 7–0).
//!
//! The [`FaultInjector`] trait lets the functional model apply this corruption
//! when reading cached values, without knowing where the probabilities come
//! from; `kelle-edram` computes them from retention physics and the configured
//! refresh intervals, and `kelle-core` wires the two together.
//!
//! # Sampling
//!
//! The model is one independent Bernoulli(`p`) decision per stored bit, `p`
//! being the rate of the bit's (token group, significance) class.  A lane
//! decides it by comparing an 80-bit uniform integer `U` with the fixed-point
//! threshold `P = ⌊p·2⁸⁰⌋` and flipping iff `U < P`, reading `U` lazily:
//!
//! * `hi = ⌊p·2¹⁶⌋` and `rest = ⌊frac(p·2¹⁶)·2⁶⁴⌋` are computed once per
//!   class, so `P = hi·2⁶⁴ + rest`.  Every step is exact in IEEE-754 double
//!   arithmetic: scaling by a power of two only moves the exponent, `floor`
//!   and the subtraction of an integer part are exact, and `frac·2⁶⁴ < 2⁶⁴`
//!   converts to `u64` by truncation.  A `p` below `2⁻²⁸` loses the bits of
//!   its 53-bit significand that lie below `2⁻⁸⁰`; every other `p` in `[0, 1]`
//!   is represented exactly, so `Pr[flip] = P/2⁸⁰` equals `p` to within
//!   `2⁻⁸⁰` always, and exactly for every rate 2DRP produces.
//! * The top 16 bits of `U` are one 16-bit chunk of keystream — four
//!   decisions per `next_u64`, chunks taken from the low end.  `chunk < hi`
//!   flips, `chunk > hi` does not, and neither needs the low 64 bits of `U`.
//!   Only the tie `chunk == hi`, probability `2⁻¹⁶` per decision, draws one
//!   more `u64` from the same generator and flips iff it is `< rest`.
//! * Draw order within a word: the eight LSB-class bits from bit 0 up, then
//!   the eight MSB-class bits from bit 8 up.  A class whose threshold is zero
//!   draws nothing at all, so an all-zero rate configuration never advances
//!   any generator (the serving layer relies on that to share prefixes
//!   across fault seeds when the refresh policy cannot corrupt).  `p = 1`
//!   has `hi = 2¹⁶`, which no chunk reaches: every bit flips, no tie draw.
//!
//! A lane's stream therefore depends only on the injector seed, the lane's
//! `(layer, head)` label and the lane's own sequence of `(group, len)` reads
//! — not on the values read, on other lanes, or on which thread runs it.
//! Reading a row through [`FaultInjector::corrupt_slice`] is by definition
//! the same as reading its words one by one through
//! [`FaultInjector::corrupt`].

use kelle_tensor::fp16;
use kelle_tensor::rng::{self, DetRng};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Importance group of a token, as classified by the cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenGroup {
    /// High-score token (heavy hitter): refreshed frequently under 2DRP.
    HighScore,
    /// Low-score token: refreshed rarely under 2DRP.
    LowScore,
}

/// Bit-significance group within a 16-bit storage word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignificanceGroup {
    /// Bits 15–8 (sign, exponent and high mantissa bits of FP16).
    Msb,
    /// Bits 7–0 (low mantissa bits of FP16).
    Lsb,
}

impl SignificanceGroup {
    /// The significance group of a bit position within a 16-bit word.
    pub fn of_bit(bit: u8) -> Self {
        if bit >= 8 {
            SignificanceGroup::Msb
        } else {
            SignificanceGroup::Lsb
        }
    }
}

/// Counters describing how much corruption an injector has applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Number of 16-bit words examined.
    pub words_examined: u64,
    /// Number of individual bits flipped.
    pub bits_flipped: u64,
}

impl FaultStats {
    /// Observed bit-error rate (flipped bits / examined bits).
    pub fn bit_error_rate(&self) -> f64 {
        if self.words_examined == 0 {
            0.0
        } else {
            self.bits_flipped as f64 / (self.words_examined as f64 * 16.0)
        }
    }
}

/// Applies retention-failure corruption to values read from the KV cache.
pub trait FaultInjector: std::fmt::Debug {
    /// Possibly corrupts one value belonging to a token of the given group.
    ///
    /// The value is conceptually stored as a 16-bit FP16 word; implementations
    /// flip stored bits according to their model and return the resulting
    /// value.
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32;

    /// Corrupts a whole row in place — what the attention pass calls for a
    /// key row, a value row or a stored input row.  Implementations may
    /// override it to do per-row work once, but the result must equal calling
    /// [`corrupt`](FaultInjector::corrupt) on each element in order.
    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        for v in values.iter_mut() {
            *v = self.corrupt(*v, group);
        }
    }

    /// Selects the deterministic substream that subsequent
    /// [`corrupt`](FaultInjector::corrupt) calls draw from.
    ///
    /// The attention pass calls this at the start of every `(layer, head)`
    /// iteration — in both the fused and the reference path — so that the
    /// random draws consumed for one head never shift the stream seen by
    /// another.  That per-head partitioning is what lets heads run on
    /// different workers while producing exactly the bits of the sequential
    /// order.  Stateless injectors ignore it (the default is a no-op).
    fn begin_lane(&mut self, layer: usize, head: usize) {
        let _ = (layer, head);
    }

    /// Splits the injector into one independently-usable handle per head of
    /// `layer`, in head order, for parallel attention.
    ///
    /// Each returned handle owns the same substream that
    /// [`begin_lane`](FaultInjector::begin_lane)`(layer, head)` would select,
    /// so corrupting head `h`'s reads through handle `h` on any thread is
    /// bit-identical to the sequential pass.  Counters accumulated through
    /// the handles must be reflected in [`stats`](FaultInjector::stats)
    /// afterwards.  Returns `None` when the injector cannot be partitioned
    /// (the default); callers must then fall back to the sequential pass.
    fn split_lanes(
        &mut self,
        layer: usize,
        heads: usize,
    ) -> Option<Vec<Box<dyn FaultInjector + Send + '_>>> {
        let _ = (layer, heads);
        None
    }

    /// Whether this injector is guaranteed to never change a value *and*
    /// never update its counters, for any input.
    ///
    /// The decode hot path consults this once per attention pass: when it
    /// returns `true`, cached keys and values are read by reference straight
    /// out of the storage arenas with zero copies; otherwise each read is
    /// staged through scratch buffers so the stored bits stay pristine while
    /// the attention math sees the corrupted view.  Defaults to `false`
    /// (conservative: the staging path is always correct, merely slower).
    ///
    /// Implementations must not return `true` if skipping `corrupt` calls
    /// would be observable — e.g. [`ProbabilisticFaults`] keeps returning
    /// `false` even for all-zero rates because it counts examined words.
    fn is_noop(&self) -> bool {
        false
    }

    /// Corruption counters accumulated so far.
    fn stats(&self) -> FaultStats;
}

/// A fault injector that never corrupts anything (the FP16 reference setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn corrupt(&mut self, value: f32, _group: TokenGroup) -> f32 {
        value
    }

    fn is_noop(&self) -> bool {
        true
    }

    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Per-(token-group, bit-group) bit-flip probabilities.
///
/// This is the interface point between the refresh policy (which knows refresh
/// intervals and retention physics) and the functional model (which knows
/// values and token groups).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitFlipRates {
    /// Flip probability per bit for MSBs of high-score tokens.
    pub hst_msb: f64,
    /// Flip probability per bit for LSBs of high-score tokens.
    pub hst_lsb: f64,
    /// Flip probability per bit for MSBs of low-score tokens.
    pub lst_msb: f64,
    /// Flip probability per bit for LSBs of low-score tokens.
    pub lst_lsb: f64,
}

impl BitFlipRates {
    /// A uniform rate across all groups (the "Uniform" ablation in Table 4).
    pub fn uniform(rate: f64) -> Self {
        BitFlipRates {
            hst_msb: rate,
            hst_lsb: rate,
            lst_msb: rate,
            lst_lsb: rate,
        }
    }

    /// No corruption at all.
    pub fn zero() -> Self {
        Self::uniform(0.0)
    }

    /// The rate for a given token group and bit significance.
    pub fn rate(&self, group: TokenGroup, sig: SignificanceGroup) -> f64 {
        match (group, sig) {
            (TokenGroup::HighScore, SignificanceGroup::Msb) => self.hst_msb,
            (TokenGroup::HighScore, SignificanceGroup::Lsb) => self.hst_lsb,
            (TokenGroup::LowScore, SignificanceGroup::Msb) => self.lst_msb,
            (TokenGroup::LowScore, SignificanceGroup::Lsb) => self.lst_lsb,
        }
    }

    /// Average per-bit flip rate across the four groups (equal weighting).
    pub fn average(&self) -> f64 {
        (self.hst_msb + self.hst_lsb + self.lst_msb + self.lst_lsb) / 4.0
    }
}

/// Fixed-point image of one rate class's flip probability: `⌊p·2⁸⁰⌋` split
/// into its top 16 bits (`hi`, up to `2¹⁶` itself for `p = 1`) and its low
/// 64 bits (`rest`).  See the module docs for why both are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Threshold {
    hi: u32,
    rest: u64,
}

impl Threshold {
    const NEVER: Threshold = Threshold { hi: 0, rest: 0 };

    fn new(p: f64) -> Self {
        if p >= 1.0 {
            return Threshold {
                hi: 1 << 16,
                rest: 0,
            };
        }
        // Also catches NaN; a rate is a probability, anything else is "off".
        if p.is_nan() || p <= 0.0 {
            return Threshold::NEVER;
        }
        let scaled = p * 65_536.0;
        let hi = scaled.floor();
        Threshold {
            hi: hi as u32,
            rest: ((scaled - hi) * 18_446_744_073_709_551_616.0) as u64,
        }
    }
}

/// The two thresholds a stored word of one token group is read against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WordThresholds {
    lsb: Threshold,
    msb: Threshold,
}

/// [`BitFlipRates`] in sampling form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Thresholds {
    hst: WordThresholds,
    lst: WordThresholds,
}

impl Thresholds {
    fn new(rates: &BitFlipRates) -> Self {
        let word = |group| WordThresholds {
            lsb: Threshold::new(rates.rate(group, SignificanceGroup::Lsb)),
            msb: Threshold::new(rates.rate(group, SignificanceGroup::Msb)),
        };
        Thresholds {
            hst: word(TokenGroup::HighScore),
            lst: word(TokenGroup::LowScore),
        }
    }

    fn of(&self, group: TokenGroup) -> WordThresholds {
        match group {
            TokenGroup::HighScore => self.hst,
            TokenGroup::LowScore => self.lst,
        }
    }
}

/// One deterministic substream of a [`ProbabilisticFaults`] injector.
///
/// A lane owns its own RNG (seeded from the parent seed and the lane's
/// `(layer, head)` label via [`rng::lane`]), the unread 16-bit chunks of the
/// last keystream word it drew, and its own counters, so the draws consumed
/// for one attention head never shift the stream of another.
#[derive(Debug, Clone)]
struct FaultLane {
    rng: DetRng,
    /// Unread chunks of the last keystream word, next chunk in the low bits.
    pool: u64,
    pool_left: u8,
    stats: FaultStats,
}

impl FaultLane {
    fn new(seed: u64, layer: usize, head: usize) -> Self {
        FaultLane {
            rng: rng::lane(seed, layer as u64, head as u64),
            pool: 0,
            pool_left: 0,
            stats: FaultStats::default(),
        }
    }

    /// One Bernoulli decision: is an 80-bit uniform below `⌊p·2⁸⁰⌋`?  The low
    /// 64 bits are drawn only when the top 16 tie.
    #[inline]
    fn flips(&mut self, t: Threshold) -> bool {
        if self.pool_left == 0 {
            self.pool = self.rng.next_u64();
            self.pool_left = 4;
        }
        let chunk = (self.pool & 0xffff) as u32;
        self.pool >>= 16;
        self.pool_left -= 1;
        if chunk == t.hi {
            self.rng.next_u64() < t.rest
        } else {
            chunk < t.hi
        }
    }

    /// Flip mask for the eight bits of one byte, lowest bit first; a class
    /// that can never flip draws nothing.
    #[inline]
    fn byte_mask(&mut self, t: Threshold) -> u16 {
        if t == Threshold::NEVER {
            return 0;
        }
        (0..8).fold(0, |mask, bit| mask | u16::from(self.flips(t)) << bit)
    }

    /// Flip mask for one stored word: LSB byte first, then MSB byte.
    #[inline]
    fn word_mask(&mut self, t: WordThresholds) -> u16 {
        self.byte_mask(t.lsb) | self.byte_mask(t.msb) << 8
    }

    fn corrupt(&mut self, value: f32, t: WordThresholds) -> f32 {
        self.stats.words_examined += 1;
        let mask = self.word_mask(t);
        if mask == 0 {
            return value;
        }
        self.stats.bits_flipped += u64::from(mask.count_ones());
        let corrupted = fp16::f16_bits_to_f32(fp16::f32_to_f16_bits(value) ^ mask);
        // A flipped exponent bit can produce Inf/NaN; physical systems would
        // read the garbage value, but propagating NaN through softmax makes
        // the divergence metric saturate instantly and hides the relative
        // ordering the experiments measure.  Clamp to the FP16 finite range.
        if corrupted.is_finite() {
            corrupted
        } else {
            fp16::f16_bits_to_f32(0x7BFF) * corrupted.signum().max(-1.0)
        }
    }
}

/// One lane of a [`ProbabilisticFaults`] injector borrowed together with the
/// injector's thresholds: what [`FaultInjector::split_lanes`] hands to each
/// head, and what the injector's own reads go through.
#[derive(Debug)]
struct LaneHandle<'a> {
    thresholds: &'a Thresholds,
    lane: &'a mut FaultLane,
}

impl FaultInjector for LaneHandle<'_> {
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32 {
        self.lane.corrupt(value, self.thresholds.of(group))
    }

    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        let t = self.thresholds.of(group);
        for v in values.iter_mut() {
            *v = self.lane.corrupt(*v, t);
        }
    }

    fn stats(&self) -> FaultStats {
        self.lane.stats
    }
}

/// A probabilistic fault injector driven by per-group bit-flip rates.
///
/// Random draws are partitioned into deterministic per-`(layer, head)` lanes
/// (created on demand; direct [`corrupt`](FaultInjector::corrupt) calls with
/// no preceding [`begin_lane`](FaultInjector::begin_lane) use lane `(0, 0)`).
/// Each lane's RNG is seeded from the injector seed and the lane label alone,
/// so the bits a head's reads see depend only on the per-head corruption
/// history — never on how heads interleave across layers, steps or worker
/// threads.  [`stats`](FaultInjector::stats) sums the lane counters.
///
/// `Clone` snapshots the full injector state (rates, every lane's RNG
/// position, unread keystream chunks and counters); the prefix-sharing
/// machinery uses this to capture the exact post-prefix fault stream so a
/// cache-hit session resumes the stream bit-identically to a cold one.
#[derive(Debug, Clone)]
pub struct ProbabilisticFaults {
    rates: BitFlipRates,
    thresholds: Thresholds,
    seed: u64,
    lanes: Vec<FaultLane>,
    index: crate::hash::FastHashMap<(u32, u32), usize>,
    active: usize,
}

impl ProbabilisticFaults {
    /// Creates an injector with the given rates and RNG seed.
    pub fn new(rates: BitFlipRates, seed: u64) -> Self {
        ProbabilisticFaults {
            rates,
            thresholds: Thresholds::new(&rates),
            seed,
            lanes: Vec::new(),
            index: crate::hash::FastHashMap::default(),
            active: 0,
        }
    }

    /// The configured rates.
    pub fn rates(&self) -> BitFlipRates {
        self.rates
    }

    /// Index of the lane for `(layer, head)`, creating it if needed.
    fn lane_slot(&mut self, layer: usize, head: usize) -> usize {
        let key = (layer as u32, head as u32);
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let slot = self.lanes.len();
        self.lanes.push(FaultLane::new(self.seed, layer, head));
        self.index.insert(key, slot);
        slot
    }

    /// The lane selected by the last `begin_lane` (lane `(0, 0)` before any).
    fn active_lane(&mut self) -> LaneHandle<'_> {
        if self.lanes.is_empty() {
            self.active = self.lane_slot(0, 0);
        }
        LaneHandle {
            thresholds: &self.thresholds,
            lane: &mut self.lanes[self.active],
        }
    }
}

impl FaultInjector for ProbabilisticFaults {
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32 {
        self.active_lane().corrupt(value, group)
    }

    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        self.active_lane().corrupt_slice(values, group);
    }

    fn begin_lane(&mut self, layer: usize, head: usize) {
        self.active = self.lane_slot(layer, head);
    }

    fn split_lanes(
        &mut self,
        layer: usize,
        heads: usize,
    ) -> Option<Vec<Box<dyn FaultInjector + Send + '_>>> {
        for head in 0..heads {
            self.lane_slot(layer, head);
        }
        // Map each storage slot back to its head position so one pass over
        // `lanes` can hand out disjoint `&mut`s in head order.
        let mut head_of_slot = vec![usize::MAX; self.lanes.len()];
        for head in 0..heads {
            head_of_slot[self.index[&(layer as u32, head as u32)]] = head;
        }
        let mut out: Vec<Option<Box<dyn FaultInjector + Send + '_>>> =
            (0..heads).map(|_| None).collect();
        let thresholds = &self.thresholds;
        for (slot, lane) in self.lanes.iter_mut().enumerate() {
            if head_of_slot[slot] != usize::MAX {
                out[head_of_slot[slot]] = Some(Box::new(LaneHandle { thresholds, lane }));
            }
        }
        Some(
            out.into_iter()
                .map(|lane| lane.expect("lane created above"))
                .collect(),
        )
    }

    fn stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for lane in &self.lanes {
            total.words_examined += lane.stats.words_examined;
            total.bits_flipped += lane.stats.bits_flipped;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let mut inj = NoFaults;
        assert_eq!(inj.corrupt(1.25, TokenGroup::HighScore), 1.25);
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn zero_rate_never_flips() {
        let mut inj = ProbabilisticFaults::new(BitFlipRates::zero(), 1);
        for i in 0..100 {
            let v = i as f32 * 0.01;
            assert_eq!(inj.corrupt(v, TokenGroup::LowScore), v);
        }
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let rate = 0.02;
        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(rate), 7);
        let mut values = vec![0.5f32; 20_000];
        inj.corrupt_slice(&mut values, TokenGroup::HighScore);
        let observed = inj.stats().bit_error_rate();
        assert!((observed - rate).abs() < 0.005, "observed {observed}");
    }

    #[test]
    fn asymmetric_rates_hit_only_configured_group() {
        let rates = BitFlipRates {
            hst_msb: 0.5,
            hst_lsb: 0.5,
            lst_msb: 0.0,
            lst_lsb: 0.0,
        };
        let mut inj = ProbabilisticFaults::new(rates, 3);
        let mut lst = vec![0.25f32; 1000];
        inj.corrupt_slice(&mut lst, TokenGroup::LowScore);
        assert!(lst.iter().all(|&v| v == 0.25));
        let mut hst = vec![0.25f32; 1000];
        inj.corrupt_slice(&mut hst, TokenGroup::HighScore);
        assert!(hst.iter().any(|&v| v != 0.25));
    }

    #[test]
    fn msb_errors_cause_larger_value_changes_than_lsb() {
        let msb_only = BitFlipRates {
            hst_msb: 0.05,
            hst_lsb: 0.0,
            lst_msb: 0.05,
            lst_lsb: 0.0,
        };
        let lsb_only = BitFlipRates {
            hst_msb: 0.0,
            hst_lsb: 0.05,
            lst_msb: 0.0,
            lst_lsb: 0.05,
        };
        let mean_abs_err = |rates: BitFlipRates| {
            let mut inj = ProbabilisticFaults::new(rates, 11);
            let mut total = 0.0f64;
            let n = 5000;
            for i in 0..n {
                let v = 0.3 + (i as f32 % 7.0) * 0.1;
                let c = inj.corrupt(v, TokenGroup::HighScore);
                total += f64::from((c - v).abs());
            }
            total / n as f64
        };
        assert!(mean_abs_err(msb_only) > 10.0 * mean_abs_err(lsb_only));
    }

    #[test]
    fn corrupted_values_stay_finite() {
        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(0.2), 13);
        for i in 0..2000 {
            let v = (i as f32 - 1000.0) * 0.05;
            assert!(inj.corrupt(v, TokenGroup::HighScore).is_finite());
        }
    }

    #[test]
    fn lane_streams_are_independent_of_visit_order() {
        let rates = BitFlipRates::uniform(0.3);
        let run = |head_order: &[usize]| -> (Vec<Vec<u32>>, FaultStats) {
            let mut inj = ProbabilisticFaults::new(rates, 5);
            let mut per_head = vec![Vec::new(); 3];
            for &h in head_order {
                inj.begin_lane(0, h);
                for i in 0..16 {
                    let v = 0.1 + i as f32 * 0.05;
                    per_head[h].push(inj.corrupt(v, TokenGroup::LowScore).to_bits());
                }
            }
            (per_head, inj.stats())
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 0, 1]));
    }

    #[test]
    fn split_lanes_matches_begin_lane_streams() {
        let rates = BitFlipRates::uniform(0.25);
        let draw = |inj: &mut dyn FaultInjector| -> Vec<u32> {
            (0..8)
                .map(|i| inj.corrupt(i as f32 * 0.1, TokenGroup::HighScore).to_bits())
                .collect()
        };
        let sequential = {
            let mut inj = ProbabilisticFaults::new(rates, 9);
            let mut outs = Vec::new();
            for h in 0..4 {
                inj.begin_lane(1, h);
                outs.push(draw(&mut inj));
            }
            (outs, inj.stats())
        };
        let split = {
            let mut inj = ProbabilisticFaults::new(rates, 9);
            let mut outs = vec![Vec::new(); 4];
            // Visit the split handles in reverse to prove order irrelevance.
            for (h, mut lane) in inj.split_lanes(1, 4).unwrap().into_iter().enumerate().rev() {
                outs[h] = draw(lane.as_mut());
            }
            (outs, inj.stats())
        };
        assert_eq!(sequential, split);
    }

    #[test]
    fn default_split_lanes_is_none() {
        let mut inj = NoFaults;
        assert!(inj.split_lanes(0, 4).is_none());
    }

    #[test]
    fn significance_of_bit_boundaries() {
        assert_eq!(SignificanceGroup::of_bit(0), SignificanceGroup::Lsb);
        assert_eq!(SignificanceGroup::of_bit(7), SignificanceGroup::Lsb);
        assert_eq!(SignificanceGroup::of_bit(8), SignificanceGroup::Msb);
        assert_eq!(SignificanceGroup::of_bit(15), SignificanceGroup::Msb);
    }

    #[test]
    fn rates_accessors() {
        let r = BitFlipRates {
            hst_msb: 0.1,
            hst_lsb: 0.2,
            lst_msb: 0.3,
            lst_lsb: 0.4,
        };
        assert_eq!(r.rate(TokenGroup::HighScore, SignificanceGroup::Msb), 0.1);
        assert_eq!(r.rate(TokenGroup::LowScore, SignificanceGroup::Lsb), 0.4);
        assert!((r.average() - 0.25).abs() < 1e-9);
    }

    /// `RefreshPolicy::bit_flip_rates(&RetentionModel::default())` of
    /// `kelle-edram` for the default 2DRP intervals and for
    /// `RefreshIntervals::table4_setting(0)` / `(2)`, copied here because the
    /// model crate does not depend on the device crate.
    const PAPER_RATES: [BitFlipRates; 3] = [
        BitFlipRates {
            hst_msb: 0.000_302_828_725_051_773_6,
            hst_lsb: 0.021_760_713_653_446_173,
            lst_msb: 0.003_393_902_600_182_186,
            lst_lsb: 0.030_822_806_183_383_678,
        },
        BitFlipRates {
            hst_msb: 7.531_020_288_487_067e-5,
            hst_lsb: 0.012_878_678_162_704_271,
            lst_msb: 0.001_077_197_386_360_806_4,
            lst_lsb: 0.021_760_713_653_446_173,
        },
        BitFlipRates {
            hst_msb: 0.001_077_197_386_360_806_4,
            hst_lsb: 0.039_834_044_254_473_62,
            lst_msb: 0.009_486_252_985_347_332,
            lst_lsb: 0.048_693_491_244_488_24,
        },
    ];

    const GROUPS: [TokenGroup; 2] = [TokenGroup::HighScore, TokenGroup::LowScore];

    /// `⌊p·2⁸⁰⌋` from the bits of `p`, in integer arithmetic only.
    fn floor_p_times_2_80(p: f64) -> u128 {
        assert!((0.0..1.0).contains(&p));
        let bits = p.to_bits();
        let exponent = (bits >> 52) as i32;
        let fraction = u128::from(bits & ((1 << 52) - 1));
        // value = significand · 2^(exponent − 1075), subnormals included.
        let (significand, exponent) = if exponent == 0 {
            (fraction, 1)
        } else {
            (fraction | 1 << 52, exponent)
        };
        let shift = exponent - 1075 + 80;
        if shift >= 0 {
            significand << shift
        } else if shift > -128 {
            significand >> -shift
        } else {
            0
        }
    }

    #[test]
    fn thresholds_are_the_exact_fixed_point_image_of_the_rate() {
        let mut rates = vec![
            0.5,
            0.25 + 2f64.powi(-40),
            1.0 / 3.0,
            1e-5,
            2f64.powi(-16),
            2f64.powi(-17),
            3.0 * 2f64.powi(-80),
            2f64.powi(-81),
            f64::MIN_POSITIVE / 4.0,
            1.0 - f64::EPSILON / 2.0,
        ];
        for r in PAPER_RATES {
            rates.extend([r.hst_msb, r.hst_lsb, r.lst_msb, r.lst_lsb]);
        }
        for p in rates {
            let t = Threshold::new(p);
            assert_eq!(
                u128::from(t.hi) << 64 | u128::from(t.rest),
                floor_p_times_2_80(p),
                "p = {p:e}"
            );
        }
        assert_eq!(
            Threshold::new(1.0),
            Threshold {
                hi: 1 << 16,
                rest: 0
            }
        );
        assert_eq!(Threshold::new(7.0), Threshold::new(1.0));
        for off in [0.0, -0.0, -0.25, f64::NAN, 2f64.powi(-81)] {
            assert_eq!(Threshold::new(off), Threshold::NEVER, "p = {off:e}");
        }
    }

    /// Per-bit-position flip counts and the flips-per-word histogram of
    /// `words` words read against `t` on a fresh lane.
    fn sample_masks(t: WordThresholds, seed: u64, words: usize) -> ([u64; 16], [u64; 17]) {
        let mut lane = FaultLane::new(seed, 2, 5);
        let mut per_bit = [0u64; 16];
        let mut per_word = [0u64; 17];
        for _ in 0..words {
            let mask = lane.word_mask(t);
            per_word[mask.count_ones() as usize] += 1;
            for (bit, count) in per_bit.iter_mut().enumerate() {
                *count += u64::from(mask >> bit & 1);
            }
        }
        (per_bit, per_word)
    }

    #[test]
    fn per_bit_flip_frequencies_match_their_class_rate() {
        const WORDS: usize = 2_000_000;
        for (setting, rates) in PAPER_RATES.iter().enumerate() {
            let thresholds = Thresholds::new(rates);
            for group in GROUPS {
                let (per_bit, _) = sample_masks(thresholds.of(group), 31 + setting as u64, WORDS);
                for (bit, &count) in per_bit.iter().enumerate() {
                    let p = rates.rate(group, SignificanceGroup::of_bit(bit as u8));
                    let mean = WORDS as f64 * p;
                    let sigma = (mean * (1.0 - p)).sqrt();
                    assert!(
                        (count as f64 - mean).abs() <= 4.0 * sigma,
                        "setting {setting} {group:?} bit {bit}: {count} flips, expected {mean:.0} ± {sigma:.0}"
                    );
                }
            }
        }
    }

    /// Pr[k of 8 independent bits flip] for k = 0..=8.
    fn binomial8(p: f64) -> [f64; 9] {
        const CHOOSE: [f64; 9] = [1.0, 8.0, 28.0, 56.0, 70.0, 56.0, 28.0, 8.0, 1.0];
        std::array::from_fn(|k| CHOOSE[k] * p.powi(k as i32) * (1.0 - p).powi(8 - k as i32))
    }

    #[test]
    fn flips_per_word_follow_the_binomial_mixture() {
        const WORDS: usize = 2_000_000;
        let rates = PAPER_RATES[0];
        let thresholds = Thresholds::new(&rates);
        for group in GROUPS {
            let (_, observed) = sample_masks(thresholds.of(group), 77, WORDS);
            // Flips per word = Binomial(8, lsb) + Binomial(8, msb).
            let lsb = binomial8(rates.rate(group, SignificanceGroup::Lsb));
            let msb = binomial8(rates.rate(group, SignificanceGroup::Msb));
            let mut expected = [0.0f64; 17];
            for (i, a) in lsb.iter().enumerate() {
                for (j, b) in msb.iter().enumerate() {
                    expected[i + j] += a * b * WORDS as f64;
                }
            }
            // Pool the sparse upper tail into one cell of expectation ≥ 5.
            let mut cells: Vec<(f64, f64)> = Vec::new();
            let (mut tail_obs, mut tail_exp) = (0.0, 0.0);
            for k in (0..17).rev() {
                tail_obs += observed[k] as f64;
                tail_exp += expected[k];
                if tail_exp >= 5.0 {
                    cells.push((tail_obs, tail_exp));
                    (tail_obs, tail_exp) = (0.0, 0.0);
                }
            }
            assert_eq!(tail_exp, 0.0, "k = 0 closes the last cell");
            let chi2: f64 = cells.iter().map(|(o, e)| (o - e) * (o - e) / e).sum();
            // Wilson–Hilferty upper 0.1 % point of χ² with `df` degrees.
            let df = (cells.len() - 1) as f64;
            let a = 2.0 / (9.0 * df);
            let critical = df * (1.0 - a + 3.09 * a.sqrt()).powi(3);
            assert!(
                chi2 <= critical,
                "{group:?}: χ² {chi2:.1} over {} cells exceeds {critical:.1}",
                cells.len()
            );
        }
    }

    #[test]
    fn zero_rate_classes_consume_no_keystream() {
        let untouched = FaultLane::new(3, 1, 4).rng.next_u64();

        let mut lane = FaultLane::new(3, 1, 4);
        let never = WordThresholds {
            lsb: Threshold::NEVER,
            msb: Threshold::NEVER,
        };
        for i in 0..1000 {
            assert_eq!(lane.corrupt(i as f32 * 0.5, never), i as f32 * 0.5);
        }
        assert_eq!(lane.pool_left, 0);
        assert_eq!(lane.rng.next_u64(), untouched);
        assert_eq!(lane.stats.words_examined, 1000);

        // A word with one live class reads exactly that byte's eight chunks.
        let mut lane = FaultLane::new(3, 1, 4);
        let msb_only = WordThresholds {
            lsb: Threshold::NEVER,
            msb: Threshold::new(1.0),
        };
        assert_eq!(lane.word_mask(msb_only), 0xff00);
        let mut reference = FaultLane::new(3, 1, 4).rng;
        reference.next_u64();
        reference.next_u64();
        assert_eq!(lane.pool_left, 0);
        assert_eq!(lane.rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn certain_rate_flips_all_sixteen_bits() {
        let mut lane = FaultLane::new(9, 0, 0);
        let always = Thresholds::new(&BitFlipRates::uniform(1.0)).of(TokenGroup::LowScore);
        assert!((0..4096).all(|_| lane.word_mask(always) == 0xffff));

        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(1.0), 9);
        let mut row = vec![0.375f32; 64];
        inj.corrupt_slice(&mut row, TokenGroup::HighScore);
        assert_eq!(inj.stats().bits_flipped, 16 * 64);
        let all_flipped = fp16::f16_bits_to_f32(!fp16::f32_to_f16_bits(0.375));
        assert!(row.iter().all(|v| v.to_bits() == all_flipped.to_bits()));
    }

    #[test]
    fn rates_below_one_chunk_are_reached_through_the_tie_draw() {
        // p < 2⁻¹⁶: `hi` is 0, so a bit can flip only when its chunk ties at 0
        // and the extra 64-bit draw falls below `rest`.
        let p = 1e-5;
        let t = Threshold::new(p);
        assert_eq!(t.hi, 0);
        assert!(t.rest > 0);
        const WORDS: usize = 2_000_000;
        let (per_bit, _) = sample_masks(WordThresholds { lsb: t, msb: t }, 5, WORDS);
        let flips: u64 = per_bit.iter().sum();
        let mean = 16.0 * WORDS as f64 * p;
        assert!(
            (flips as f64 - mean).abs() <= 4.0 * mean.sqrt(),
            "{flips} flips, expected {mean:.0} ± {:.0}",
            mean.sqrt()
        );
    }

    #[test]
    fn corrupt_slice_is_corrupt_word_by_word() {
        let rates = PAPER_RATES[2];
        let row: Vec<f32> = (0..96).map(|i| (i as f32 - 40.0) * 0.37).collect();
        let reads = [
            (0, TokenGroup::LowScore),
            (3, TokenGroup::HighScore),
            (0, TokenGroup::HighScore),
            (3, TokenGroup::LowScore),
        ];
        let mut by_row = ProbabilisticFaults::new(rates, 21);
        let mut by_word = ProbabilisticFaults::new(rates, 21);
        for _ in 0..50 {
            for (head, group) in reads {
                by_row.begin_lane(1, head);
                by_word.begin_lane(1, head);
                let mut a = row.clone();
                by_row.corrupt_slice(&mut a, group);
                let b: Vec<f32> = row.iter().map(|&v| by_word.corrupt(v, group)).collect();
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
        assert_eq!(by_row.stats(), by_word.stats());
        assert!(by_row.stats().bits_flipped > 0);
    }

    #[test]
    fn clone_taken_mid_pool_resumes_identically() {
        let t = Threshold::new(0.3);
        let unbroken: Vec<bool> = {
            let mut lane = FaultLane::new(13, 2, 2);
            (0..67).map(|_| lane.flips(t)).collect()
        };
        for taken_after in 1..=3usize {
            let mut lane = FaultLane::new(13, 2, 2);
            let mut head: Vec<bool> = (0..taken_after).map(|_| lane.flips(t)).collect();
            assert_eq!(usize::from(lane.pool_left), 4 - taken_after);
            let mut snapshot = lane.clone();
            let mut tail = head.clone();
            head.extend((taken_after..67).map(|_| lane.flips(t)));
            tail.extend((taken_after..67).map(|_| snapshot.flips(t)));
            assert_eq!(head, unbroken, "original after {taken_after} decisions");
            assert_eq!(tail, unbroken, "snapshot after {taken_after} decisions");
        }
    }
}
