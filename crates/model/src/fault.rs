//! Bit-level retention faults in the eDRAM cells that hold the KV cache.
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
//! from; `kelle-edram` computes them ([`BitFlipRates`], re-exported here) from
//! retention physics and the configured refresh intervals, and
//! [`fault_injector_for_policy`] turns a refresh policy into an injector.
//!
//! # The cell map
//!
//! Retention time belongs to a cell (`kelle-edram`'s retention model, after
//! Kong et al., the paper's \[38\]): Fig. 4's failure rate at an interval
//! `T` is the fraction of cells whose retention time is below `T`.  So a
//! stored row's failing bits are fixed for the row, not drawn again at every
//! read.  A [`CellMap`] makes them a pure function of the injector seed and a
//! [`CellKey`]: the layer, the lane label (the head for a KV-format key or
//! value row, stored per head; `heads` for AERP's input row `x`, stored once
//! per layer and read once per layer however many heads retain it), the
//! token position and, for a KV entry, key or value.  There is no stream
//! state: a key reads the same bits however often, in whatever order, on
//! whatever clone of the injector and on whatever worker.
//!
//! A row's cells come from one generator seeded by its key alone
//! ([`rng::lane`]), the LSB class and then the MSB class, each over its bits
//! in ascending word and bit order.  A class's failing set is sampled at the
//! looser of its two token groups' rates by the gap sampler below; each
//! failing bit then takes one more uniform draw, and fails at the stricter
//! group too iff the draw is below `p_strict / p_loose` in `2⁶⁴` fixed point.
//! So the stricter group's set is a subset of the looser one's (HST ⊂ LST
//! under 2DRP), each class keeps its own rate, and thinning needs only a
//! division.  Equal rates thin nothing and a zero strict rate keeps nothing;
//! neither draws, nor does a class whose looser rate is zero.  A read
//! returns each word failing at its group as stored with those bits flipped
//! ([`RowFailures`]).  [`FaultStats`] counts every read — its words and the
//! failing bits its group exposes — although a row's cells are drawn once.
//!
//! Four decisions shape the map:
//!
//! * **The key is the token position**, with the seed — not the physical
//!   copy.  Every session of one seed that attaches a published segment sees
//!   the same cells (the ledger charges the segment once, as one copy), and a
//!   prefix hit reads exactly what a cold pre-fill of the same prompt reads.
//! * **A relabel keeps the row in place**: only its refresh domain's
//!   interval changes, so it reads the other group's set of the same cells.
//!   Migrating it to fresh cells, so failures accumulate, would need a
//!   per-row history.
//! * **Flips are symmetric**: a failing bit reads inverted (XOR), whatever it
//!   stored.  A discharge-only failure would depend on the data.
//! * **Only a failing word is rounded to FP16**: it reads as its FP16 image
//!   with its failing bits flipped; every other word reads as stored, in f32.
//!   Rounding every word at insert would move every no-fault stream.
//!
//! **The group rule.**  One stored row sits in one refresh domain, so a row
//! that heads rank differently is read at the most demanding group any of
//! them gives it: [`TokenGroup::HighScore`] if any retaining head ranks it
//! high, [`TokenGroup::LowScore`] otherwise.
//!
//! # Sampling
//!
//! The model is one independent Bernoulli(`p`) decision per stored bit, `p`
//! being the rate of the bit's class.  At 2DRP's rates (2–5 % for the LSB
//! classes, 10⁻⁴–10⁻² for the MSB ones) most bits are intact, so the sampler
//! pays **one draw per failure**, not per bit.  The number of intact bits
//! before the next failure is geometric, `Pr[gap ≥ k] = (1−p)ᵏ`.  A draw is
//! one `next_u64` `u` looked up in the class's survival table
//! `surv[k] ≈ (1−p)^(k+1)·2⁶⁴`, `k < 256`: the gap is the number of entries
//! above `u`, and a `u` below `surv[255]` adds 256 and draws again (the law
//! is memoryless).  The table is integer-only: `surv[0] = 2⁶⁴ − ⌊p·2⁶⁴⌋` (an
//! exact power-of-two scaling) and `surv[k+1] = ⌊surv[k]·surv[0] / 2⁶⁴⌋` in
//! `u128` — no logarithm, no `pow`, so every platform builds the same table.
//! Each step truncates by less than one unit, so every gap probability is
//! within `2⁻⁵⁵` of the geometric law.  `p < 2⁻⁶⁴` rounds to "never", `p ≥ 1`
//! is "every bit, no draw".
//!
//! Below 0.27 % most gaps outrun one table, and adding 256 per draw would
//! cost `1/(256·p)` draws per gap.  Such a class stacks coarser tables, built
//! by the same recurrence from the last entry of the one below (the survival
//! of a whole block), until a table's last entry is below `2⁶³` (two tables
//! down to `p` ≈ 10⁻⁵, eight at `2⁻⁶⁴`), and draws a gap digit by digit in
//! base 256 — exact, as the digits of a geometric variable are independent:
//! the top digit by add-256-and-redraw, every lower one by one draw scaled
//! into the part of its table below 256.  A level's keep is within `2·256ˡ`
//! units of `(1−p)^(256ˡ)·2⁶⁴`, so any rate costs at most a few tens of draws
//! per gap.
//!
//! # What is read clean
//!
//! A bit is exposed to retention loss only once it sits in eDRAM (§2.3).
//! On the device, the K/V a pass computes are read by that same pass from
//! on-chip buffers, so **a row computed by the current pass is read clean**:
//! it goes through no cell map and counts no word.  A *pass* is a turn's
//! prompt pre-fill — from its first chunk to the end of pre-fill, including
//! the rows a prefix hit replays — or one decode token, whose own row is the
//! only one it computed (see [`crate::generation`]).  Rows of earlier passes
//! are read through their cells as above.  So a first prompt reads no cell
//! at all, however it is chunked and whether or not its prefix was replayed,
//! and a decode step reads every row but its own through its cells.  A clean
//! read asks for no HST/LST label either
//! ([`HeadView::high_score`](crate::cache::HeadView::high_score)), so a
//! prompt pass selects no head's median, and a decode step selects one per
//! head that holds a row of an earlier pass.
//!
//! An in-pass read skips the cells, not the storage format: under QuaRot it
//! sees the stored KV4 values, not the FP16 projections.  An AERP row of
//! the pass is read from the key and value the store keeps on the host
//! beside its `x` — its own forward's projection, bitwise what a recompute
//! from the intact `x` yields; the device recomputes it from its stored
//! `x`, which is what `kelle-arch` bills.  A row of an earlier pass is read
//! the same way when its group has no failing word, and otherwise as that
//! key and value corrected for the failing words.
//!
//! The rule treats "earlier pass" as "has sat in eDRAM long enough to
//! decay".  Modelling how long a row has sat there — device time per row,
//! against its refresh interval — would refine it; until then, every row of
//! an earlier pass is read at its group's full rate.

pub use kelle_edram::BitFlipRates;
use kelle_edram::{RefreshPolicy, RetentionModel};
use kelle_tensor::fp16;
use kelle_tensor::rng::{self, DetRng};
use rand::RngCore;
use std::sync::Arc;

/// Importance group of a token, as classified by the cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenGroup {
    /// High-score token (heavy hitter): refreshed frequently under 2DRP.
    HighScore,
    /// Low-score token: refreshed rarely under 2DRP.
    LowScore,
}

/// Bit-significance group within a 16-bit storage word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SignificanceGroup {
    /// Bits 15–8 (sign, exponent and high mantissa bits of FP16).
    Msb,
    /// Bits 7–0 (low mantissa bits of FP16).
    Lsb,
}

/// Counters describing how much corruption an injector has applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
///
/// The attention pass reads every stored word an earlier pass wrote through
/// the injector's [`cell_map`](FaultInjector::cell_map): it computes a row's
/// failures at the row's first read, reuses them at every later read (see
/// [`crate::attention`]), and counts every read through
/// [`count`](FaultInjector::count).  [`NoFaults`], the FP16 reference, has
/// no map and counts nothing.  Rows of the current pass are read clean (see
/// "What is read clean" in the module docs).
pub trait FaultInjector: std::fmt::Debug {
    /// The cells reads go through; `None` when no cell ever fails.
    fn cell_map(&self) -> Option<&CellMap>;

    /// Counts reads that examined `words` words and exposed `bits` failing
    /// bits.
    fn count(&mut self, words: u64, bits: u64);

    /// Corruption counters accumulated so far.
    fn stats(&self) -> FaultStats;

    /// Reads `values` in place as a fresh anonymous row at `group`, and
    /// counts the read.  The serving path never calls it: the benchmark
    /// times the sampler through it, and it goes when the benchmark stops
    /// doing so (ROADMAP item 1).
    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup);
}

/// A fault injector that never corrupts anything and counts nothing (the
/// FP16 reference setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn cell_map(&self) -> Option<&CellMap> {
        None
    }

    fn count(&mut self, _words: u64, _bits: u64) {}

    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }

    fn corrupt_slice(&mut self, _values: &mut [f32], _group: TokenGroup) {}
}

/// The rate of one (token group, bit significance) class.
fn class_rate(rates: &BitFlipRates, group: TokenGroup, sig: SignificanceGroup) -> f64 {
    match (group, sig) {
        (TokenGroup::HighScore, SignificanceGroup::Msb) => rates.hst_msb,
        (TokenGroup::HighScore, SignificanceGroup::Lsb) => rates.hst_lsb,
        (TokenGroup::LowScore, SignificanceGroup::Msb) => rates.lst_msb,
        (TokenGroup::LowScore, SignificanceGroup::Lsb) => rates.lst_lsb,
    }
}

/// Builds a deterministic fault injector realising a refresh policy under a
/// retention model.
pub fn fault_injector_for_policy(
    policy: &RefreshPolicy,
    retention: &RetentionModel,
    seed: u64,
) -> ProbabilisticFaults {
    ProbabilisticFaults::new(policy.bit_flip_rates(retention), seed)
}

/// Gap-sampling form of one rate class: how far it is to the next flipped bit
/// of a Bernoulli(`p`) sequence.  See the module docs.
#[derive(Debug, Clone)]
enum Gap {
    /// `p < 2⁻⁶⁴` (or not a probability): no bit ever flips, nothing is drawn.
    Never,
    /// `p ≥ 1`: every bit flips, nothing is drawn.
    Always,
    /// One or more survival tables of [`Gap::SPAN`] entries each, finest
    /// first: `surv[k] ≈ (1−p)^(k+1)·2⁶⁴` for `k < SPAN`, then the same for
    /// whole blocks of `SPAN` bits, and so on while a table's last entry is
    /// `≥ 2⁶³`; strictly the integer recurrence of [`Gap::new`].  Shared by
    /// every clone of the injector.
    Table(Arc<[u64]>),
}

impl Gap {
    /// Gap lengths one table lookup resolves: the base the digits of a longer
    /// gap are drawn in.
    const SPAN: usize = 256;

    fn new(p: f64) -> Self {
        if p >= 1.0 {
            return Gap::Always;
        }
        // ⌊p·2⁶⁴⌋: the scaling is exact and the cast truncates.  Also catches
        // NaN and negatives (both cast to 0); a rate is a probability,
        // anything else is "off".
        let flip = (p * 18_446_744_073_709_551_616.0) as u64;
        if flip == 0 {
            return Gap::Never;
        }
        let mut keep = flip.wrapping_neg(); // 2⁶⁴ − flip, which fits: flip ≥ 1
        let mut surv = Vec::with_capacity(Gap::SPAN);
        loop {
            let mut last = keep;
            surv.push(last);
            for _ in 1..Gap::SPAN {
                last = ((u128::from(last) * u128::from(keep)) >> 64) as u64;
                surv.push(last);
            }
            // A gap outruns this table more often than not: let the next one
            // count whole blocks.  `2⁶⁴ − keep` grows at least 128-fold a
            // level, so this ends.
            if last < 1 << 63 {
                return Gap::Table(surv.into());
            }
            keep = last;
        }
    }

    /// Draws the number of intact bits before the next flip, top digit first.
    #[inline]
    fn draw(surv: &[u64], rng: &mut DetRng) -> u64 {
        let above = |table: &[u64], u: u64| table.partition_point(|&s| u < s) as u64;
        let mut levels = surv.chunks_exact(Gap::SPAN).rev();
        let top = levels.next().expect("a table has at least one level");
        let mut gap = 0u64;
        loop {
            let u = rng.next_u64();
            if u >= top[Gap::SPAN - 1] {
                gap += above(top, u);
                break;
            }
            gap += Gap::SPAN as u64;
        }
        for table in levels {
            // Uniform over [table[SPAN − 1], 2⁶⁴): the digit given that it is
            // below SPAN.  Eight tables and a top digit past SPAN outrun
            // `u64`; a gap that long is never reached, so saturate.
            let floor = table[Gap::SPAN - 1];
            let scaled = (u128::from(rng.next_u64()) * u128::from(floor.wrapping_neg())) >> 64;
            gap = gap
                .saturating_mul(Gap::SPAN as u64)
                .saturating_add(above(table, floor + scaled as u64));
        }
        gap
    }
}

/// Whether a failing bit of a class's looser group also fails at its stricter
/// group: one uniform draw against `p_strict / p_loose`, unless the answer
/// does not depend on it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Thin {
    /// Equal rates: every failing bit fails at both groups.
    Keep,
    /// A strict rate of zero: none does.
    Drop,
    /// It does iff a draw is below this (`⌊p_strict / p_loose · 2⁶⁴⌋`).
    Below(u64),
}

/// One significance class of a [`CellMap`]: its failing set at the looser
/// group's rate, and the thinning to the stricter group.
#[derive(Debug, Clone)]
struct Class {
    loose: Gap,
    /// The group that reads the whole failing set.
    loose_group: TokenGroup,
    thin: Thin,
}

impl Class {
    fn new(rates: &BitFlipRates, sig: SignificanceGroup) -> Self {
        // A rate is a probability; NaN and negatives are "never".
        let clamp = |p: f64| if p > 0.0 { p.min(1.0) } else { 0.0 };
        let [hst, lst] =
            [TokenGroup::HighScore, TokenGroup::LowScore].map(|g| clamp(class_rate(rates, g, sig)));
        let (loose_group, loose, strict) = if hst > lst {
            (TokenGroup::HighScore, hst, lst)
        } else {
            (TokenGroup::LowScore, lst, hst)
        };
        let thin = if strict == loose {
            Thin::Keep
        } else {
            // Below one, so the exact power-of-two scaling fits and the cast
            // truncates.
            match (strict / loose * 18_446_744_073_709_551_616.0) as u64 {
                0 => Thin::Drop,
                below => Thin::Below(below),
            }
        };
        Class {
            loose: Gap::new(loose),
            loose_group,
            thin,
        }
    }

    /// Walks the first `bits` bits of the class's sequence from failure to
    /// failure, handing `fail` each failing bit's index and whether it also
    /// fails at the stricter group: per failing bit, the draw that placed it
    /// and then its thinning draw.
    fn walk(&self, bits: u64, rng: &mut DetRng, mut fail: impl FnMut(u64, bool)) {
        let surv = match &self.loose {
            Gap::Never => return,
            Gap::Always => None,
            Gap::Table(surv) => Some(&**surv),
        };
        let gap = |rng: &mut DetRng| surv.map_or(0, |surv| Gap::draw(surv, rng));
        let mut at = gap(rng);
        while at < bits {
            let strict = match self.thin {
                Thin::Keep => true,
                Thin::Drop => false,
                Thin::Below(below) => rng.next_u64() < below,
            };
            fail(at, strict);
            at = at.saturating_add(1).saturating_add(gap(rng));
        }
    }
}

/// The failing cells of every stored row, as a pure function of a
/// [`CellKey`] under one seed and one set of rates.  See the module docs.
#[derive(Debug, Clone)]
pub struct CellMap {
    seed: u64,
    rates: BitFlipRates,
    lsb: Class,
    msb: Class,
}

impl CellMap {
    /// The map of the given rates under `seed`.
    pub fn new(rates: BitFlipRates, seed: u64) -> Self {
        CellMap {
            seed,
            rates,
            lsb: Class::new(&rates, SignificanceGroup::Lsb),
            msb: Class::new(&rates, SignificanceGroup::Msb),
        }
    }

    /// The mean number of words, over both groups, that fail in a row of
    /// `words` words: what its two failure lists hold on average.
    pub(crate) fn mean_failing_words(&self, words: usize) -> f64 {
        let intact = |group| {
            let byte = |sig| 1.0 - class_rate(&self.rates, group, sig).clamp(0.0, 1.0);
            let bit_pair = byte(SignificanceGroup::Lsb) * byte(SignificanceGroup::Msb);
            let four = (bit_pair * bit_pair) * (bit_pair * bit_pair);
            four * four // the eight bit pairs of a word
        };
        (2.0 - intact(TokenGroup::HighScore) - intact(TokenGroup::LowScore)) * words as f64
    }

    /// Fills `failures` with the failing words of the stored row `row` of
    /// `key`, at both token groups.  The cells depend on the key and
    /// `row.len()` alone; `row` gives the values the failing words read as.
    pub fn fail_row(&self, key: CellKey, row: &[f32], failures: &mut RowFailures) {
        let RowFailures {
            masks,
            words,
            reads,
            bits,
        } = failures;
        for masks in masks.iter_mut() {
            masks.clear();
            masks.resize(row.len(), 0);
        }
        words.clear();
        // Room for every word, so reused lists never grow.
        words.reserve(row.len());
        let mut rng = key.rng(self.seed);
        for (class, byte) in [(&self.lsb, 0), (&self.msb, 8)] {
            let loose = class.loose_group as usize;
            class.walk(8 * row.len() as u64, &mut rng, |at, strict| {
                let (word, bit) = ((at / 8) as usize, 1 << (byte + at % 8));
                if masks[0][word] | masks[1][word] == 0 {
                    words.push(word as u32);
                }
                masks[loose][word] |= bit;
                if strict {
                    masks[1 - loose][word] |= bit;
                }
            });
        }
        // The LSB walk's words, then the MSB walk's new ones.
        words.sort_unstable();
        for ((masks, reads), bits) in masks.iter().zip(reads.iter_mut()).zip(bits.iter_mut()) {
            reads.clear();
            reads.reserve(row.len());
            *bits = 0;
            for &j in words.iter() {
                let (mask, stored) = (masks[j as usize], row[j as usize]);
                if mask != 0 {
                    *bits += u64::from(mask.count_ones());
                    let read = read_flipped(stored, mask);
                    if read.to_bits() != stored.to_bits() {
                        reads.push((j, read));
                    }
                }
            }
        }
    }
}

/// Which stored row a cell belongs to (see "The cell map" in the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKey {
    layer: u32,
    lane: u32,
    token: u64,
    part: u8,
}

impl CellKey {
    /// AERP's stored input row of `token` in `layer`, on the layer's row
    /// lane: the lane label `heads`, a head index no head uses.
    pub fn input(layer: usize, heads: usize, token: usize) -> Self {
        CellKey::new(layer, heads, token, 0)
    }

    /// The stored key row of `token` in `(layer, head)`.
    pub fn key(layer: usize, head: usize, token: usize) -> Self {
        CellKey::new(layer, head, token, 1)
    }

    /// The stored value row of `token` in `(layer, head)`.
    pub fn value(layer: usize, head: usize, token: usize) -> Self {
        CellKey::new(layer, head, token, 2)
    }

    /// The `n`th anonymous row [`FaultInjector::corrupt_slice`] reads.
    fn anonymous(n: usize) -> Self {
        CellKey::new(usize::MAX, usize::MAX, n, 3)
    }

    fn new(layer: usize, lane: usize, token: usize, part: u8) -> Self {
        CellKey {
            layer: layer as u32,
            lane: lane as u32,
            token: token as u64,
            part,
        }
    }

    /// The generator of the row's cells under `seed`.
    fn rng(&self, seed: u64) -> DetRng {
        rng::lane(
            seed,
            u64::from(self.layer) << 32 | u64::from(self.lane),
            self.token << 2 | u64::from(self.part),
        )
    }
}

/// One stored row's failing words at both token groups, as
/// [`CellMap::fail_row`] computes them.
#[derive(Debug, Clone, Default)]
pub struct RowFailures {
    /// Per group (indexed by [`TokenGroup`]): each word's failing bits.
    masks: [Vec<u16>; 2],
    /// The words failing at either group, ascending: those the reads scan.
    words: Vec<u32>,
    /// Per group: the words a read changes, in ascending column order, each
    /// with the value it reads.
    reads: [Vec<(u32, f32)>; 2],
    /// Per group: the failing bits a read exposes.
    bits: [u64; 2],
}

impl RowFailures {
    /// The words a read at `group` changes, in ascending column order, each
    /// with the value the read returns; every other word reads as stored.
    pub fn reads(&self, group: TokenGroup) -> &[(u32, f32)] {
        &self.reads[group as usize]
    }

    /// The failing bits a read at `group` exposes (a failing word may read
    /// as stored: a flip that reads as Inf or NaN is clamped to the FP16
    /// range).
    pub fn bits(&self, group: TokenGroup) -> u64 {
        self.bits[group as usize]
    }
}

/// What a read returns for `value` stored as FP16 with the `mask` bits
/// flipped.
fn read_flipped(value: f32, mask: u16) -> f32 {
    let bits = fp16::f32_to_f16_bits(value) ^ mask;
    let corrupted = fp16::f16_bits_to_f32(bits);
    // A flipped exponent bit can produce Inf/NaN; physical systems would
    // read the garbage value, but propagating NaN through softmax makes
    // the divergence metric saturate instantly and hides the relative
    // ordering the experiments measure.  Clamp to the FP16 finite range,
    // keeping the stored sign bit (a NaN has no sign to ask for).
    if corrupted.is_finite() {
        corrupted
    } else {
        fp16::f16_bits_to_f32(bits & 0x8000 | 0x7BFF)
    }
}

/// A probabilistic fault injector driven by per-group bit-flip rates: a
/// [`CellMap`] and the counters of the reads made through it.
///
/// `Clone` copies the counters; the map's survival tables are shared behind
/// an `Arc`.  A clone reads every key's cells as the original does.
#[derive(Debug, Clone)]
pub struct ProbabilisticFaults {
    map: CellMap,
    stats: FaultStats,
    /// How many anonymous rows `corrupt_slice` has read.
    anonymous: usize,
    /// `corrupt_slice`'s row.
    failures: RowFailures,
}

impl ProbabilisticFaults {
    /// Creates an injector with the given rates and RNG seed.
    pub fn new(rates: BitFlipRates, seed: u64) -> Self {
        ProbabilisticFaults {
            map: CellMap::new(rates, seed),
            stats: FaultStats::default(),
            anonymous: 0,
            failures: RowFailures::default(),
        }
    }
}

impl FaultInjector for ProbabilisticFaults {
    fn cell_map(&self) -> Option<&CellMap> {
        Some(&self.map)
    }

    fn count(&mut self, words: u64, bits: u64) {
        self.stats.words_examined += words;
        self.stats.bits_flipped += bits;
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }

    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        let key = CellKey::anonymous(self.anonymous);
        self.anonymous += 1;
        self.map.fail_row(key, values, &mut self.failures);
        for &(j, read) in self.failures.reads(group) {
            values[j as usize] = read;
        }
        let bits = self.failures.bits(group);
        self.count(values.len() as u64, bits);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let mut inj = NoFaults;
        let mut row = [1.25f32, -0.5, 3.0];
        inj.corrupt_slice(&mut row, TokenGroup::HighScore);
        assert_eq!(row, [1.25, -0.5, 3.0]);
        assert!(inj.cell_map().is_none());
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn zero_rate_never_flips() {
        let mut inj = ProbabilisticFaults::new(BitFlipRates::zero(), 1);
        let mut row: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
        let stored = row.clone();
        inj.corrupt_slice(&mut row, TokenGroup::LowScore);
        assert_eq!(row, stored);
        assert_eq!(
            inj.stats(),
            FaultStats {
                words_examined: 100,
                bits_flipped: 0
            }
        );
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
            let stored: Vec<f32> = (0..5000).map(|i| 0.3 + (i as f32 % 7.0) * 0.1).collect();
            let mut read = stored.clone();
            inj.corrupt_slice(&mut read, TokenGroup::HighScore);
            let total: f64 = read
                .iter()
                .zip(&stored)
                .map(|(c, v)| f64::from((c - v).abs()))
                .sum();
            total / stored.len() as f64
        };
        assert!(mean_abs_err(msb_only) > 10.0 * mean_abs_err(lsb_only));
    }

    #[test]
    fn corrupted_values_stay_finite() {
        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(0.2), 13);
        let mut row: Vec<f32> = (0..2000).map(|i| (i as f32 - 1000.0) * 0.05).collect();
        inj.corrupt_slice(&mut row, TokenGroup::HighScore);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    /// Per group, each word a read changes with its read value's bits.
    type Reads = [Vec<(u32, u32)>; 2];

    /// What a read of each key's row exposes, sorted by key.
    type KeyedReads = Vec<(CellKey, Reads, [u64; 2])>;

    /// Three heads' key and value rows and AERP's input rows, eight tokens
    /// each, in layer 1.
    fn lane_keys() -> Vec<CellKey> {
        (0..3)
            .flat_map(|head| {
                (0..8).flat_map(move |token| {
                    [CellKey::key(1, head, token), CellKey::value(1, head, token)]
                })
            })
            .chain((0..8).map(|token| CellKey::input(1, 3, token)))
            .collect()
    }

    /// Reads one stored row under every key of `order`, sorted by key.
    fn read_keys<'a>(map: &CellMap, order: impl Iterator<Item = &'a CellKey>) -> KeyedReads {
        let row: Vec<f32> = (0..64).map(|i| (i as f32 - 20.0) * 0.13).collect();
        let mut failures = RowFailures::default();
        let mut out: KeyedReads = order
            .map(|&key| {
                map.fail_row(key, &row, &mut failures);
                let bits = |g| {
                    failures
                        .reads(g)
                        .iter()
                        .map(|&(j, v)| (j, v.to_bits()))
                        .collect()
                };
                (key, GROUPS.map(bits), GROUPS.map(|g| failures.bits(g)))
            })
            .collect();
        out.sort_by_key(|(key, ..)| (key.layer, key.lane, key.token, key.part));
        out
    }

    /// A head's rows (its lane: the key's `lane` field) read the same cells
    /// whatever order heads and tokens are visited in, and on whichever
    /// worker thread reads them.
    #[test]
    fn lane_streams_are_independent_of_visit_order() {
        let map = CellMap::new(PAPER_RATES[2], 5);
        let keys = lane_keys();
        let once = read_keys(&map, keys.iter());
        assert_eq!(read_keys(&map, keys.iter().rev()), once);
        let evens_first = keys.iter().step_by(2).chain(keys.iter().skip(1).step_by(2));
        assert_eq!(read_keys(&map, evens_first), once);
        // Head-major against token-major: every head's token 0, then 1, …
        let token_major = (0..8u64).flat_map(|token| {
            keys.iter()
                .filter(move |key| key.token == token)
                .collect::<Vec<_>>()
        });
        assert_eq!(read_keys(&map, token_major), once);
        std::thread::scope(|scope| {
            let halves = keys.split_at(keys.len() / 2);
            let [a, b] =
                [halves.0, halves.1].map(|half| scope.spawn(|| read_keys(&map, half.iter())));
            let mut joined = a.join().unwrap();
            joined.extend(b.join().unwrap());
            joined.sort_by_key(|(key, ..)| (key.layer, key.lane, key.token, key.part));
            assert_eq!(joined, once);
        });
    }

    /// A clone taken between reads carries the injector's whole state: it
    /// and the original read the next anonymous rows, and every key's row,
    /// identically, and count the same.
    #[test]
    fn clone_taken_mid_gap_resumes_identically() {
        let mut faults = ProbabilisticFaults::new(PAPER_RATES[2], 5);
        let stored: Vec<f32> = (0..96).map(|i| (i as f32 - 40.0) * 0.07).collect();
        for group in [
            TokenGroup::LowScore,
            TokenGroup::HighScore,
            TokenGroup::LowScore,
        ] {
            faults.corrupt_slice(&mut stored.clone(), group);
        }
        let mut clone = faults.clone();
        assert_eq!(clone.stats(), faults.stats());
        for group in [
            TokenGroup::HighScore,
            TokenGroup::LowScore,
            TokenGroup::LowScore,
        ] {
            let [mut a, mut b] = [stored.clone(), stored.clone()];
            faults.corrupt_slice(&mut a, group);
            clone.corrupt_slice(&mut b, group);
            let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
            assert_ne!(
                bits(&a),
                bits(&stored),
                "PAPER_RATES[2] fails a 96-word row"
            );
        }
        assert_eq!(clone.stats(), faults.stats());
        let keys = lane_keys();
        assert_eq!(
            read_keys(clone.cell_map().unwrap(), keys.iter()),
            read_keys(faults.cell_map().unwrap(), keys.iter())
        );
    }

    /// A key's cells are a function of the seed and the key alone: a row
    /// read again reads the same failing words, distinct keys read distinct
    /// cells, and another seed fails other cells.
    #[test]
    fn a_key_reads_the_same_cells_whatever_the_read_count_or_seed() {
        let map = CellMap::new(PAPER_RATES[2], 5);
        let keys = lane_keys();
        let once = read_keys(&map, keys.iter());
        let twice: Vec<_> = read_keys(&map, keys.iter().flat_map(|k| [k, k]))
            .into_iter()
            .step_by(2)
            .collect();
        assert_eq!(twice, once);
        // 56 keys at ≈20 changed words a row: distinct keys, distinct cells.
        let distinct: std::collections::HashSet<_> =
            once.iter().map(|(_, reads, _)| reads).collect();
        assert_eq!(distinct.len(), keys.len());
        // Another seed fails other cells.
        let other = CellMap::new(PAPER_RATES[2], 6);
        assert_ne!(read_keys(&other, keys.iter()), once);
    }

    #[test]
    fn rates_accessors() {
        let r = BitFlipRates {
            hst_msb: 0.1,
            hst_lsb: 0.2,
            lst_msb: 0.3,
            lst_lsb: 0.4,
        };
        assert_eq!(
            class_rate(&r, TokenGroup::HighScore, SignificanceGroup::Msb),
            0.1
        );
        assert_eq!(
            class_rate(&r, TokenGroup::LowScore, SignificanceGroup::Lsb),
            0.4
        );
        assert!((r.average() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn conservative_policy_produces_no_faults() {
        let mut injector =
            fault_injector_for_policy(&RefreshPolicy::Conservative, &RetentionModel::default(), 1);
        let stored: Vec<f32> = (0..200).map(|i| i as f32 * 0.01).collect();
        let mut row = stored.clone();
        injector.corrupt_slice(&mut row, TokenGroup::HighScore);
        assert_eq!(row, stored);
    }

    #[test]
    fn relaxed_policy_produces_faults() {
        let mut injector = fault_injector_for_policy(
            &RefreshPolicy::Uniform(20_000.0),
            &RetentionModel::default(),
            1,
        );
        let stored: Vec<f32> = (0..2000).map(|i| 0.5 + i as f32 * 0.001).collect();
        let mut row = stored.clone();
        injector.corrupt_slice(&mut row, TokenGroup::LowScore);
        assert!(row.iter().zip(&stored).any(|(r, s)| r != s));
    }

    /// `RefreshPolicy::bit_flip_rates(&RetentionModel::default())` of
    /// `kelle-edram` for the default 2DRP intervals and for
    /// `RefreshIntervals::table4_setting(0)` / `(2)`, written out so the
    /// sampler's statistical tests keep their fixture if the retention fit
    /// moves.
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

    /// `a · b` on little-endian base-2³² limbs.
    fn limbs_mul(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = u64::from(x) * u64::from(y) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + b.len()] = carry as u32;
        }
        out
    }

    /// The 128 bits of `limbs` from bit `shift` up: `⌊limbs / 2^shift⌋` when
    /// that fits.
    fn limbs_shr(limbs: &[u32], shift: usize) -> u128 {
        let bit = |i: usize| limbs.get(i / 32).map_or(0, |limb| limb >> (i % 32) & 1);
        (0..128).fold(0, |acc, i| acc | u128::from(bit(shift + i)) << i)
    }

    #[test]
    fn survival_tables_match_the_exact_powers() {
        let mut rates = vec![2f64.powi(-40), 1.0 - 2f64.powi(-53), 2f64.powi(-64), 0.5];
        for r in PAPER_RATES {
            rates.extend([r.hst_msb, r.hst_lsb, r.lst_msb, r.lst_lsb]);
        }
        for p in rates {
            let Gap::Table(surv) = Gap::new(p) else {
                panic!("p = {p:e} has a table");
            };
            // p·2⁸⁰ is an integer for these rates, so (1 − p)^k is exactly
            // keep^k / 2^(80·k).
            let flip = floor_p_times_2_80(p);
            assert_eq!(flip as f64 / 2f64.powi(80), p);
            let keep = (1u128 << 80) - flip;
            let keep: Vec<u32> = (0..3).map(|i| (keep >> (32 * i)) as u32).collect();
            let mut power = vec![1u32];
            for k in 1..=Gap::SPAN {
                power = limbs_mul(&power, &keep);
                let exact = limbs_shr(&power, 80 * k - 64);
                assert!(
                    exact.abs_diff(u128::from(surv[k - 1])) <= k as u128,
                    "p = {p:e}, k = {k}: table {} vs ⌊(1−p)^k·2⁶⁴⌋ = {exact}",
                    surv[k - 1]
                );
            }
        }
        for off in [
            2f64.powi(-65),
            f64::MIN_POSITIVE / 4.0,
            0.0,
            -0.0,
            -0.25,
            f64::NAN,
        ] {
            assert!(matches!(Gap::new(off), Gap::Never), "p = {off:e}");
        }
        for on in [1.0, 7.0] {
            assert!(matches!(Gap::new(on), Gap::Always), "p = {on:e}");
        }
    }

    /// Asserts that Pearson's χ² over `(observed, expected)` cells stays
    /// below the Wilson–Hilferty upper 0.1 % point for `cells − 1` degrees of
    /// freedom.
    fn assert_chi2_fits(what: &str, cells: &[(f64, f64)]) {
        let chi2: f64 = cells.iter().map(|(o, e)| (o - e) * (o - e) / e).sum();
        let df = (cells.len() - 1) as f64;
        let a = 2.0 / (9.0 * df);
        let critical = df * (1.0 - a + 3.09 * a.sqrt()).powi(3);
        assert!(
            chi2 <= critical,
            "{what}: χ² {chi2:.1} over {} cells exceeds {critical:.1}",
            cells.len()
        );
    }

    fn gaps(p: f64, seed: u64, draws: usize) -> Vec<u64> {
        let Gap::Table(surv) = Gap::new(p) else {
            panic!("p = {p:e} has a table");
        };
        let mut rng = rng::lane(seed, 0, 0);
        (0..draws).map(|_| Gap::draw(&surv, &mut rng)).collect()
    }

    #[test]
    fn gap_lengths_follow_the_geometric_law() {
        const DRAWS: usize = 1_000_000;
        let rates = PAPER_RATES[0];
        // Pr[gap ≥ 256] is 0.93 and 0.42 for the two MSB rates, so the table
        // and what lies beyond it (a second table for the first, the
        // add-256-and-redraw tail for the second) both carry weight; for the
        // two LSB rates it is 0.004 and 0.0003 and the table body does.
        for (p, spans) in [
            (rates.hst_msb, 3),
            (rates.lst_msb, 3),
            (rates.hst_lsb, 1),
            (rates.lst_lsb, 1),
        ] {
            // One cell per length while its expectation stays ≥ 5, then one
            // cell for everything longer.
            let mut cells = Vec::new();
            let mut expected = DRAWS as f64 * p;
            while expected >= 5.0 {
                cells.push((0.0, expected));
                expected *= 1.0 - p;
            }
            cells.push((0.0, expected / p));
            assert!(cells.len() > spans * Gap::SPAN);
            let last = cells.len() - 1;
            for gap in gaps(p, 41, DRAWS) {
                cells[(gap as usize).min(last)].0 += 1.0;
            }
            assert_chi2_fits(&format!("p = {p:e}"), &cells);
        }
    }

    #[test]
    fn consecutive_gaps_are_uncorrelated() {
        const DRAWS: usize = 1_000_000;
        let gaps: Vec<f64> = gaps(PAPER_RATES[0].lst_msb, 43, DRAWS)
            .into_iter()
            .map(|g| g as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / DRAWS as f64;
        let variance = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>();
        let covariance: f64 = gaps.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        // Lag-1 autocorrelation of independent draws is N(0, 1/DRAWS).
        let r = covariance / variance;
        assert!(r.abs() <= 4.0 / (DRAWS as f64).sqrt(), "lag-1 r = {r:e}");
    }

    /// How many `next_u64` calls took `before` to `after`, looking no further
    /// than `limit`.
    fn draws_between(before: &DetRng, after: &DetRng, limit: usize) -> Option<usize> {
        let ahead = |rng: &DetRng| {
            let mut rng = rng.clone();
            [rng.next_u64(), rng.next_u64()]
        };
        let target = ahead(after);
        let mut probe = before.clone();
        (0..=limit).find(|_| {
            let hit = ahead(&probe) == target;
            probe.next_u64();
            hit
        })
    }

    /// A 64-word row, the width of the surrogate's stored input rows.
    const ROW: [f32; 64] = [0.375; 64];

    /// Per-bit-position failure counts and the failures-per-word histogram,
    /// per group, of `words` words of fresh rows of `map`.
    fn sample_masks(map: &CellMap, words: usize) -> [([u64; 16], [u64; 17]); 2] {
        let mut failures = RowFailures::default();
        let mut counts = [([0u64; 16], [0u64; 17]); 2];
        for token in 0..words / ROW.len() {
            map.fail_row(CellKey::input(2, 5, token), &ROW, &mut failures);
            for (group, (per_bit, per_word)) in GROUPS.into_iter().zip(&mut counts) {
                for &mask in &failures.masks[group as usize] {
                    per_word[mask.count_ones() as usize] += 1;
                    for (bit, count) in per_bit.iter_mut().enumerate() {
                        *count += u64::from(mask >> bit & 1);
                    }
                }
            }
        }
        counts
    }

    /// Every bit position fails at its class's rate (4σ over 2·10⁶ words),
    /// and so does each whole class (5σ over its 1.6·10⁷ cells).
    #[test]
    fn per_bit_flip_frequencies_match_their_class_rate() {
        const WORDS: usize = 2_000_000;
        for (setting, rates) in PAPER_RATES.iter().enumerate() {
            let map = CellMap::new(*rates, 31 + setting as u64);
            let counts = sample_masks(&map, WORDS);
            for (group, (per_bit, _)) in GROUPS.into_iter().zip(counts) {
                for (sig, bits) in [
                    (SignificanceGroup::Lsb, &per_bit[..8]),
                    (SignificanceGroup::Msb, &per_bit[8..]),
                ] {
                    let p = class_rate(rates, group, sig);
                    let cells = WORDS as f64;
                    for (bit, &count) in bits.iter().enumerate() {
                        let (mean, sigma) = (cells * p, (cells * p * (1.0 - p)).sqrt());
                        assert!(
                            (count as f64 - mean).abs() <= 4.0 * sigma,
                            "setting {setting} {group:?} {sig:?} bit {bit}: {count} failures, \
                             expected {mean:.0} ± {sigma:.0}"
                        );
                    }
                    let cells = 8.0 * cells;
                    let (mean, sigma) = (cells * p, (cells * p * (1.0 - p)).sqrt());
                    let count: u64 = bits.iter().sum();
                    assert!(
                        (count as f64 - mean).abs() <= 5.0 * sigma,
                        "setting {setting} {group:?} {sig:?}: {count} failures, expected \
                         {mean:.0} ± {sigma:.0}"
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
        let counts = sample_masks(&CellMap::new(rates, 77), WORDS);
        for (group, (_, observed)) in GROUPS.into_iter().zip(counts) {
            // Flips per word = Binomial(8, lsb) + Binomial(8, msb).
            let lsb = binomial8(class_rate(&rates, group, SignificanceGroup::Lsb));
            let msb = binomial8(class_rate(&rates, group, SignificanceGroup::Msb));
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
            assert_chi2_fits(&format!("{group:?}"), &cells);
        }
    }

    /// Every failing set at a stricter group lies inside the set at the
    /// looser one, word by word, for both significance classes — whichever
    /// group is the looser.
    #[test]
    fn hst_failures_are_a_subset_of_lst_failures() {
        let swapped = |r: BitFlipRates| BitFlipRates {
            hst_msb: r.lst_msb,
            hst_lsb: r.lst_lsb,
            lst_msb: r.hst_msb,
            lst_lsb: r.hst_lsb,
        };
        let mut failures = RowFailures::default();
        for (setting, rates) in PAPER_RATES.into_iter().enumerate() {
            for (strict, rates) in [
                (TokenGroup::HighScore, rates),
                (TokenGroup::LowScore, swapped(rates)),
            ] {
                let loose = GROUPS[1 - strict as usize];
                let map = CellMap::new(rates, 3 + setting as u64);
                assert_eq!([map.lsb.loose_group, map.msb.loose_group], [loose; 2]);
                let mut thinned = [0u64; 2];
                for token in 0..2_000 {
                    map.fail_row(CellKey::key(0, 1, token), &ROW, &mut failures);
                    for (&inner, &outer) in failures.masks[strict as usize]
                        .iter()
                        .zip(&failures.masks[loose as usize])
                    {
                        assert_eq!(inner & !outer, 0, "setting {setting}, token {token}");
                        thinned[0] += u64::from((outer & !inner & 0x00ff).count_ones());
                        thinned[1] += u64::from((outer & !inner & 0xff00).count_ones());
                    }
                    assert!(failures.bits(strict) <= failures.bits(loose));
                }
                assert!(
                    thinned.iter().all(|&t| t > 0),
                    "both classes thin: {thinned:?}"
                );
            }
        }
    }

    /// Each failing bit, per class in walk order, with whether it also fails
    /// at the stricter group, and the generator after the walk.
    fn walk_row(map: &CellMap, key: CellKey, words: usize) -> ([Vec<(u64, bool)>; 2], DetRng) {
        let mut rng = key.rng(map.seed);
        let mut fails = [Vec::new(), Vec::new()];
        for (class, fails) in [&map.lsb, &map.msb].into_iter().zip(&mut fails) {
            class.walk(8 * words as u64, &mut rng, |at, strict| {
                fails.push((at, strict))
            });
        }
        (fails, rng)
    }

    #[test]
    fn zero_rate_classes_consume_no_keystream() {
        let key = CellKey::value(1, 4, 9);
        let fresh = key.rng(3);
        let class = |hst: f64, lst: f64| {
            CellMap::new(
                BitFlipRates {
                    hst_msb: 0.0,
                    hst_lsb: hst,
                    lst_msb: 0.0,
                    lst_lsb: lst,
                },
                3,
            )
        };

        // Nothing fails at either group, and nothing is drawn.
        let never = class(0.0, 0.0);
        let ([lsb, msb], rng) = walk_row(&never, key, 1000);
        assert!(lsb.is_empty() && msb.is_empty());
        assert_eq!(draws_between(&fresh, &rng, 0), Some(0));
        let mut failures = RowFailures::default();
        never.fail_row(key, &ROW, &mut failures);
        for group in GROUPS {
            assert!(failures.reads(group).is_empty());
            assert_eq!(failures.bits(group), 0);
            assert!(failures.masks[group as usize].iter().all(|&m| m == 0));
        }

        // A certain class fails every bit of its byte without a draw.
        let ([lsb, _], rng) = walk_row(&class(1.0, 1.0), key, 64);
        assert_eq!(lsb.len(), 512);
        assert!(lsb.iter().all(|&(_, strict)| strict));
        assert_eq!(draws_between(&fresh, &rng, 0), Some(0));

        // Equal rates thin nothing and a zero strict rate keeps nothing:
        // neither takes a thinning draw, so a row draws its first gap and
        // one gap per failure.  One table at p = 0.5, so a draw is one
        // keystream word unless it adds 256 (never, here).
        for (hst, strict) in [(0.5, true), (0.0, false)] {
            let map = class(hst, 0.5);
            assert_eq!(map.lsb.thin, if strict { Thin::Keep } else { Thin::Drop });
            let ([lsb, msb], rng) = walk_row(&map, key, 100);
            assert!(msb.is_empty());
            assert!(lsb.len() > 300);
            assert!(lsb.iter().all(|&(_, s)| s == strict));
            assert_eq!(draws_between(&fresh, &rng, 1000), Some(1 + lsb.len()));
        }
    }

    #[test]
    fn a_first_read_at_any_rate_draws_a_bounded_number_of_keystream_words() {
        // One table would walk a gap of 1/p bits 256 at a time: ≈4·10⁶ draws
        // at 10⁻⁹, ≈4·10¹⁰ at 10⁻¹³.  Stacked tables draw it digit by digit.
        for p in [1e-9, 1e-13, 2f64.powi(-64)] {
            let Gap::Table(surv) = Gap::new(p) else {
                panic!("p = {p:e} has a table");
            };
            let tables = surv.len() / Gap::SPAN;
            for seed in 0..50 {
                let map = CellMap::new(BitFlipRates::uniform(p), seed);
                let key = CellKey::input(0, 8, seed as usize);
                let ([lsb, msb], rng) = walk_row(&map, key, 1000);
                assert!(lsb.is_empty() && msb.is_empty());
                // Two first gaps, one per class: a draw per table plus the
                // top table's redraws, each less likely than not.
                let draws = draws_between(&key.rng(seed), &rng, 96);
                assert!(
                    draws.is_some_and(|n| n >= 2 * tables),
                    "p = {p:e}, seed {seed}: {draws:?} draws"
                );
            }
        }
    }

    #[test]
    fn certain_rate_flips_all_sixteen_bits() {
        let map = CellMap::new(BitFlipRates::uniform(1.0), 9);
        let mut failures = RowFailures::default();
        map.fail_row(CellKey::key(0, 0, 0), &ROW, &mut failures);
        for group in GROUPS {
            assert!(failures.masks[group as usize].iter().all(|&m| m == 0xffff));
            assert_eq!(failures.bits(group), 16 * 64);
        }

        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(1.0), 9);
        let mut row = vec![0.375f32; 64];
        inj.corrupt_slice(&mut row, TokenGroup::HighScore);
        assert_eq!(inj.stats().bits_flipped, 16 * 64);
        let all_flipped = fp16::f16_bits_to_f32(!fp16::f32_to_f16_bits(0.375));
        assert!(row.iter().all(|v| v.to_bits() == all_flipped.to_bits()));
    }

    #[test]
    fn rates_far_below_one_table_are_reached_through_stacked_tables() {
        // p = 10⁻⁵: gaps are ~100 000 bits long, 400 times what one table
        // resolves, so both bytes reach their rate through the digit-by-digit
        // draw.  Each byte must show its own eight bits' worth.
        let p = 1e-5;
        const WORDS: usize = 2_000_000;
        let tables = |p: f64| match Gap::new(p) {
            Gap::Table(surv) => surv.len() / Gap::SPAN,
            _ => panic!("p = {p:e} has a table"),
        };
        assert_eq!(
            [0.5, 0.0028, 0.0027, 1.1e-5, p, 2f64.powi(-64)].map(tables),
            [1, 1, 2, 2, 3, 8]
        );
        let [(per_bit, _), _] = sample_masks(&CellMap::new(BitFlipRates::uniform(p), 5), WORDS);
        let mean = 8.0 * WORDS as f64 * p;
        for (byte, bits) in [("LSB", &per_bit[..8]), ("MSB", &per_bit[8..])] {
            let flips: u64 = bits.iter().sum();
            assert!(
                (flips as f64 - mean).abs() <= 4.0 * mean.sqrt(),
                "{byte} byte: {flips} flips, expected {mean:.0} ± {:.0}",
                mean.sqrt()
            );
        }
    }

    /// `corrupt_slice` reads each call's values as a row of its own: the
    /// `n`th call reads the cells of the `n`th anonymous key, a clone goes on
    /// from where it was taken, and every call counts its words and the
    /// failing bits its group exposes.
    #[test]
    fn corrupt_slice_reads_a_fresh_anonymous_row() {
        let rates = PAPER_RATES[2];
        let stored: Vec<f32> = (0..96).map(|i| (i as f32 - 40.0) * 0.37).collect();
        let map = CellMap::new(rates, 21);
        let mut inj = ProbabilisticFaults::new(rates, 21);
        let mut failures = RowFailures::default();
        let mut expected = FaultStats::default();
        let mut reads = Vec::new();
        for n in 0..20 {
            let group = GROUPS[n % 2];
            let mut row = stored.clone();
            if n == 10 {
                inj = inj.clone();
            }
            inj.corrupt_slice(&mut row, group);
            map.fail_row(CellKey::anonymous(n), &stored, &mut failures);
            let mut want = stored.clone();
            for &(j, read) in failures.reads(group) {
                want[j as usize] = read;
            }
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "call {n}"
            );
            expected.words_examined += 96;
            expected.bits_flipped += failures.bits(group);
            reads.push(row.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(inj.stats(), expected);
        assert!(expected.bits_flipped > 0);
        reads.sort();
        reads.dedup();
        assert_eq!(reads.len(), 20, "every call reads fresh cells");
    }

    /// A bit-by-bit reading of the model, counting its draws: per class, a
    /// row draws its first gap, and per failing bit one thinning draw and
    /// the gap to the next failure — an intact bit costs nothing.
    #[test]
    fn a_row_draws_once_per_first_gap_and_once_per_flip() {
        let map = CellMap::new(PAPER_RATES[0], 4);
        let mut failures = RowFailures::default();
        for token in 0..32 {
            let key = CellKey::key(0, 3, token);
            let (walked, after) = walk_row(&map, key, 64);

            let mut rng = key.rng(map.seed);
            let (mut draws, mut thins) = (0, 0);
            let mut by_bit = [Vec::new(), Vec::new()];
            for (class, fails) in [&map.lsb, &map.msb].into_iter().zip(&mut by_bit) {
                let (Gap::Table(surv), Thin::Below(below)) = (&class.loose, class.thin) else {
                    panic!("2DRP's classes all have tables and thin");
                };
                let mut draw = |rng: &mut DetRng| {
                    draws += 1;
                    Gap::draw(surv, rng)
                };
                let mut intact = draw(&mut rng);
                for bit in 0..8 * 64 {
                    if intact == 0 {
                        thins += 1;
                        fails.push((bit, rng.next_u64() < below));
                        intact = draw(&mut rng);
                    } else {
                        intact -= 1;
                    }
                }
            }
            assert_eq!(walked, by_bit, "token {token}");
            let failing = by_bit[0].len() + by_bit[1].len();
            assert_eq!((draws, thins), (2 + failing, failing));
            assert_eq!(draws_between(&rng, &after, 0), Some(0));

            map.fail_row(key, &ROW, &mut failures);
            for (group, strict_only) in
                [(TokenGroup::HighScore, true), (TokenGroup::LowScore, false)]
            {
                let mut masks = [0u16; 64];
                for (byte, fails) in [0, 8].into_iter().zip(&by_bit) {
                    for &(at, strict) in fails {
                        if strict || !strict_only {
                            masks[(at / 8) as usize] |= 1 << (byte + at % 8);
                        }
                    }
                }
                assert_eq!(
                    failures.masks[group as usize], masks,
                    "token {token} {group:?}"
                );
            }
        }
    }

    /// The shapes the walk treats specially — a class that never fails, one
    /// that always does, one table, stacked tables — in every pairing of
    /// the four (token group, significance) rates, at every row length,
    /// held to a bit-by-bit reading of the model built from the rates
    /// alone.
    #[test]
    fn cell_map_matches_a_bit_by_bit_reading_for_every_pairing_of_classes() {
        const CLASS_RATES: [f64; 4] = [0.0, 1.0, 0.03, 1e-5];
        const LENGTHS: [usize; 5] = [0, 1, 8, 64, 1000];
        let values: Vec<f32> = (0..1000).map(|i| (i as f32 - 400.0) * 0.037).collect();
        let mut failures = RowFailures::default();
        let mut failing = 0;
        for pairing in 0..CLASS_RATES.len().pow(4) {
            let class = |digit: u32| CLASS_RATES[pairing / 4usize.pow(digit) % 4];
            let rates = BitFlipRates {
                hst_lsb: class(0),
                hst_msb: class(1),
                lst_lsb: class(2),
                lst_msb: class(3),
            };
            let map = CellMap::new(rates, pairing as u64);
            for (n, &len) in LENGTHS.iter().enumerate() {
                let key = CellKey::input(n, 8, pairing);
                let row = &values[..len];
                map.fail_row(key, row, &mut failures);

                let mut rng = key.rng(pairing as u64);
                let mut masks = [vec![0u16; len], vec![0u16; len]];
                for (byte, sig) in [(0, SignificanceGroup::Lsb), (8, SignificanceGroup::Msb)] {
                    let [hst, lst] = GROUPS.map(|g| class_rate(&rates, g, sig));
                    let (loose, strict) = if hst > lst { (0, 1) } else { (1, 0) };
                    let [p_loose, p_strict] = [hst.max(lst), hst.min(lst)];
                    if p_loose == 0.0 {
                        continue;
                    }
                    let gap = Gap::new(p_loose);
                    let draw = |rng: &mut DetRng| match &gap {
                        Gap::Table(surv) => Gap::draw(surv, rng),
                        _ => 0,
                    };
                    let mut intact = draw(&mut rng);
                    for bit in 0..8 * len {
                        if intact > 0 {
                            intact -= 1;
                            continue;
                        }
                        let mask = 1 << (byte + bit % 8);
                        masks[loose][bit / 8] |= mask;
                        let both = if p_strict == p_loose {
                            true
                        } else if p_strict == 0.0 {
                            false
                        } else {
                            let below = (p_strict / p_loose * 2f64.powi(64)) as u64;
                            rng.next_u64() < below
                        };
                        if both {
                            masks[strict][bit / 8] |= mask;
                        }
                        intact = draw(&mut rng);
                    }
                }
                for (group, masks) in GROUPS.into_iter().zip(&masks) {
                    let what = format!("{rates:?}: {len} words at {group:?}");
                    assert_eq!(failures.masks[group as usize], &masks[..], "{what}");
                    let bits: u64 = masks.iter().map(|m| u64::from(m.count_ones())).sum();
                    assert_eq!(failures.bits(group), bits, "{what}");
                    let reads: Vec<(u32, u32)> = (0u32..)
                        .zip(masks.iter().zip(row))
                        .filter(|(_, (&m, _))| m != 0)
                        .map(|(j, (&m, &x))| (j, read_flipped(x, m).to_bits()))
                        .filter(|&(j, read)| read != row[j as usize].to_bits())
                        .collect();
                    let got: Vec<(u32, u32)> = failures
                        .reads(group)
                        .iter()
                        .map(|&(j, v)| (j, v.to_bits()))
                        .collect();
                    assert_eq!(got, reads, "{what}");
                    failing += bits;
                }
            }
        }
        assert!(failing > 0);
    }

    #[test]
    fn observed_bit_error_rate_is_the_mean_of_the_class_rates() {
        const WORDS: usize = 2_000_000;
        for (setting, rates) in PAPER_RATES.iter().enumerate() {
            for group in GROUPS {
                let mut inj = ProbabilisticFaults::new(*rates, 61 + setting as u64);
                for _ in 0..WORDS / 1000 {
                    let mut row = [0.375f32; 1000];
                    inj.corrupt_slice(&mut row, group);
                }
                assert_eq!(inj.stats().words_examined, WORDS as u64);
                let [msb, lsb] = [SignificanceGroup::Msb, SignificanceGroup::Lsb]
                    .map(|sig| class_rate(rates, group, sig));
                let bits = 8.0 * WORDS as f64;
                let sigma = (bits * (lsb * (1.0 - lsb) + msb * (1.0 - msb))).sqrt() / (2.0 * bits);
                let observed = inj.stats().bit_error_rate();
                assert!(
                    (observed - (8.0 * lsb + 8.0 * msb) / 16.0).abs() <= 4.0 * sigma,
                    "setting {setting} {group:?}: {observed:e} ± {sigma:e}"
                );
            }
        }
    }

    #[test]
    fn non_finite_reads_clamp_by_the_stored_sign_bit() {
        let max = fp16::f16_bits_to_f32(0x7BFF);
        assert_eq!(max, 65504.0);
        // 1 ≤ |v| < 2 has exponent 01111: flipping bit 14 makes it all ones.
        assert_eq!(read_flipped(1.5, 1 << 14), max);
        assert_eq!(read_flipped(-1.5, 1 << 14), -max);

        let masks: Vec<u16> = (0..16).map(|bit| 1 << bit).chain([0xff00]).collect();
        let mut clamped = 0;
        for stored in 0..=u16::MAX {
            let value = fp16::f16_bits_to_f32(stored);
            if !value.is_finite() {
                continue; // the cache never stores one
            }
            assert_eq!(fp16::f32_to_f16_bits(value), stored);
            for &mask in &masks {
                let read = read_flipped(value, mask);
                let exact = fp16::f16_bits_to_f32(stored ^ mask);
                if exact.is_finite() {
                    assert_eq!(read.to_bits(), exact.to_bits());
                } else {
                    clamped += 1;
                    let sign = if (stored ^ mask) & 0x8000 == 0 {
                        1.0
                    } else {
                        -1.0
                    };
                    assert_eq!(read, sign * max, "{stored:#06x} ^ {mask:#06x}");
                }
            }
        }
        assert!(clamped > 0);
    }
}
