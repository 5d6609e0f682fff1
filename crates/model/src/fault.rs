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
//! from; `kelle-edram` computes them ([`BitFlipRates`], re-exported here) from
//! retention physics and the configured refresh intervals, and
//! [`fault_injector_for_policy`] turns a refresh policy into an injector.
//!
//! # Sampling
//!
//! The model is one independent Bernoulli(`p`) decision per stored bit, `p`
//! being the rate of the bit's (token group, significance) class.  At 2DRP's
//! rates (`p` ≈ 2–5 % for the LSB classes, 10⁻⁴–10⁻² for the MSB ones) five
//! LSB bytes in six and 97–99.9 % of MSB bytes hold no flip, so all four
//! classes are realised by one sampler that pays **one draw per flip**, not
//! per bit.
//!
//! The number of intact bits before the next flip of a Bernoulli(`p`)
//! sequence is geometric, `Pr[gap ≥ k] = (1−p)ᵏ`, so a lane keeps, per class,
//! the count of that class's bits still to pass before its next flip and
//! redraws it only when a flip lands: an intact byte read on its own costs a
//! compare and a subtract, and a row's intact words are not visited at all
//! (see "Row walk").  A draw is one `next_u64` `u` looked up in the class's
//! survival table `surv[k] ≈ (1−p)^(k+1)·2⁶⁴`, `k < 256`: the gap is the
//! number of entries above `u`, and a `u` below `surv[255]` adds 256 and draws
//! again (the geometric law is memoryless).  The table is integer-only:
//! `surv[0] = 2⁶⁴ − ⌊p·2⁶⁴⌋` (an exact power-of-two scaling) and `surv[k+1] =
//! ⌊surv[k]·surv[0] / 2⁶⁴⌋` in `u128` — no logarithm, no `pow`, so every
//! platform builds the same table.  Each step truncates by less than one
//! unit, so `surv[k]` is within `k + 1` units of `(1−p)^(k+1)·2⁶⁴` and every
//! gap probability within `2⁻⁵⁵` of the geometric law.  `p < 2⁻⁶⁴` rounds
//! to "never", `p ≥ 1` is "all eight bits, no draw".
//!
//! One table serves every rate above 0.27 % — all LSB classes 2DRP produces —
//! at ≈1 draw per gap.  Below that `surv[255] ≥ 2⁶³`: most gaps outrun the
//! table, and adding 256 per draw would cost `1/(256·p)` draws per gap (a
//! stall of seconds at `p` = 10⁻¹²).  Such a class stacks a coarser table on
//! top, built by the same recurrence from `surv[255]` — the survival of one
//! whole 256-bit block — and so on until a table's last entry is below `2⁶³`
//! (two tables down to `p` ≈ 10⁻⁵, eight at `p = 2⁻⁶⁴`).  A gap is then drawn
//! digit by digit in base 256, which is exact because the digits of a
//! geometric variable are independent: the top digit by add-256-and-redraw
//! on the top table (under two draws on average), every lower digit by one
//! draw scaled into the part of its table that lies below 256.  A level's
//! keep is the truncated last entry of the level below, within `2·256ˡ` units
//! of `(1−p)^(256ˡ)·2⁶⁴` — less than `2⁻⁶³` per bit it stands for.  Any rate
//! therefore costs at most a few tens of draws per gap.
//!
//! Draw order within a word: one redraw per LSB flip from bit 0 up, then one
//! per MSB flip from bit 8 up; a class's first gap is drawn by that class's
//! first read, and the counters carry across words, rows and calls.  A class
//! that can never flip draws nothing at all, so an all-zero rate
//! configuration never advances any generator.
//!
//! # Row walk
//!
//! A row read through `corrupt_slice` is walked from flip to flip, not word
//! by word.  The token group's two counters are taken out of the lane for the
//! length of the row; `min(lsb_left, msb_left) / 8` is the number of whole
//! words both classes pass intact — a *run* — and the walk steps over it with
//! one subtraction per counter, touching none of its values.  The word after
//! a run has a flip within its next eight bits of at least one class: it is
//! given its flips exactly as a lone read gives them (LSB byte, then MSB
//! byte, one redraw per flip), and the next run starts behind it.  A row
//! therefore costs one draw and one FP16 round trip per flipped word and
//! nothing per intact one; the counters go back into the lane, and the row's
//! length and flips into its statistics, once at the end.
//!
//! No draw is made, moved or dropped, so the stream is the per-word one draw
//! for draw: a run only defers subtractions that consume no keystream, and
//! what does consume it — a flipped word's redraws — happens at the same
//! word in the same order.  The first-read rule is kept by not walking until
//! it is satisfied: while a class of the group has no counter yet, words go
//! through the one-word read, which draws it (LSB before MSB, the word's own
//! redraws in between).  A class that never flips bounds no run and keeps no
//! counter; a class that flips every bit has no runs, and its rows are read
//! one word at a time throughout.
//!
//! A lane's stream therefore depends only on the injector seed, the lane's
//! `(layer, head)` label and the lane's own sequence of `(group, len)` reads
//! — not on the values read or on other lanes.
//! Reading a row through [`FaultInjector::corrupt_slice`] is by definition
//! the same as reading its words one by one through
//! [`FaultInjector::corrupt`].  `Clone` captures a lane's generator, its four
//! gap counters and its statistics; the survival tables are shared, not
//! copied.
//!
//! # Lanes and what reads on them
//!
//! A stored word is read on the lane of the memory it sits in, once per
//! read of that memory:
//!
//! * **head lanes** `(layer, head)`, one per attention head: the key and value
//!   rows of a KV-format entry, which are stored per head;
//! * **one row lane per layer**, labelled `(layer, heads)` — a head index no
//!   head uses, so it lives in the same lane table and the same `Clone`
//!   snapshot as the head lanes: AERP's stored input rows `x`, which are
//!   stored once per layer.  Each row is read once per layer and step,
//!   however many heads retain it, in the order the heads first visit the
//!   rows; every retaining head's key and value follow from that one read
//!   (corrected for the words it flipped, see [`crate::attention`]).
//!
//! **The group rule.**  One stored row sits in one refresh domain, so a row
//! that heads rank differently is read at the most demanding group any of
//! them gives it: [`TokenGroup::HighScore`] if any retaining head ranks it
//! high, [`TokenGroup::LowScore`] otherwise.
//!
//! # What is read clean
//!
//! A bit is exposed to retention loss only once it sits in eDRAM (§2.3).
//! On the device, the K/V a pass computes are read by that same pass from
//! on-chip buffers, so **a row computed by the current pass is read clean**:
//! it is not handed to [`FaultInjector::corrupt_slice`], takes no draw and
//! counts no word.  A *pass* is a turn's prompt pre-fill — from its first
//! chunk to the end of pre-fill, including the rows a prefix hit replays —
//! or one decode token, whose own row is the only one it computed (see
//! [`crate::generation`]).  Rows of earlier passes are read through their
//! lanes as above.  So a first prompt draws nothing at all, however it is
//! chunked and whether or not its prefix was replayed, and a decode step
//! reads every row but its own through the lane.  A clean read asks for no
//! HST/LST label either ([`HeadView::high_score`](crate::cache::HeadView::high_score)),
//! so a prompt pass selects no head's median, and a decode step selects one
//! per head that holds a row of an earlier pass.
//!
//! An in-pass read skips the lane, not the storage format: under QuaRot it
//! sees the stored KV4 values, not the FP16 projections.  An AERP row of
//! the pass is read from the key and value the store keeps on the host
//! beside its `x` — its own forward's projection, bitwise what a recompute
//! from the intact `x` yields; the device recomputes it from its stored
//! `x`, which is what `kelle-arch` bills.  A row of an earlier pass is read
//! the same way when the lane flips none of its words, and otherwise as
//! that key and value corrected for the flipped words.
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
/// an injector: it copies a key, value or input row into its scratch and
/// hands the copy to [`corrupt_slice`](FaultInjector::corrupt_slice).  There
/// is no in-place read path for them, so [`NoFaults`], the FP16 reference,
/// pays the same staging copy and returns every value unchanged.  Rows of
/// the current pass are read clean (see "What is read clean" in the
/// module docs).
pub trait FaultInjector: std::fmt::Debug {
    /// Possibly corrupts one value belonging to a token of the given group.
    ///
    /// The value is conceptually stored as a 16-bit FP16 word; implementations
    /// flip stored bits according to their model and return the resulting
    /// value.
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32;

    /// Corrupts a whole row in place — what the attention pass calls for a
    /// key row, a value row or a stored input row.  This default is the
    /// definition: [`corrupt`](FaultInjector::corrupt) on each element in
    /// order.  An override may skip what a row makes skippable (the words no
    /// flip lands in, see the module docs' "Row walk") but may not change what
    /// a caller can observe: the values, the [`stats`](FaultInjector::stats)
    /// and every later read — counters and random draws included — equal
    /// those of the per-word definition.
    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        for v in values.iter_mut() {
            *v = self.corrupt(*v, group);
        }
    }

    /// Reads the stored row `row` at `group` without writing it, leaving in
    /// `flips` each word the read may have changed, in ascending column
    /// order, with the value the read returned; every word it leaves out
    /// reads as stored.  What the attention pass calls for a stored input
    /// row, where it needs only the flipped words.  This default is the
    /// definition: [`corrupt_slice`](FaultInjector::corrupt_slice) on a copy
    /// of the row, then every word whose bits differ.  An override has the
    /// same obligations as `corrupt_slice`'s, and may also list a word that
    /// reads as stored.
    fn read_flips(&mut self, row: &[f32], group: TokenGroup, flips: &mut Vec<(u32, f32)>) {
        let mut read = row.to_vec();
        self.corrupt_slice(&mut read, group);
        flips.clear();
        flips.extend(
            (0u32..)
                .zip(read.iter().zip(row))
                .filter(|(_, (r, x))| r.to_bits() != x.to_bits())
                .map(|(j, (&r, _))| (j, r)),
        );
    }

    /// Selects the deterministic substream that subsequent
    /// [`corrupt`](FaultInjector::corrupt) calls draw from.
    ///
    /// The attention pass selects lane `(layer, head)` before it reads a
    /// head's KV-format entries, and lane `(layer, heads)` — the layer's row
    /// lane, labelled by a head index no head uses — before it reads the
    /// layer's stored input rows (see the module docs' "Lanes").  The random
    /// draws consumed for one lane never shift the stream seen by another,
    /// so a lane's stream depends on its own read history alone: a
    /// prefix-hit session that replays a published segment resumes every
    /// lane exactly where a cold prefill would have left it, and a cache
    /// policy that changes what one head reads cannot move the bits another
    /// head sees.  Stateless injectors ignore it (the default is a no-op).
    fn begin_lane(&mut self, layer: usize, head: usize) {
        let _ = (layer, head);
    }

    /// Corruption counters accumulated so far.
    fn stats(&self) -> FaultStats;
}

/// A fault injector that never corrupts anything and counts nothing (the
/// FP16 reference setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn corrupt(&mut self, value: f32, _group: TokenGroup) -> f32 {
        value
    }

    fn read_flips(&mut self, _row: &[f32], _group: TokenGroup, flips: &mut Vec<(u32, f32)>) {
        flips.clear();
    }

    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
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

    /// Flip mask of the next eight bits of a class's sequence, lowest bit
    /// first, with `left` intact bits to pass before its next flip: one
    /// redraw per flip that lands in the byte.
    #[inline]
    fn byte(surv: &[u64], left: &mut u64, rng: &mut DetRng) -> u16 {
        let mut mask = 0;
        let mut bit = 0;
        while *left < 8 - bit {
            bit += *left;
            mask |= 1 << bit;
            bit += 1;
            *left = Gap::draw(surv, rng);
        }
        *left -= 8 - bit;
        mask
    }
}

/// The samplers a stored word of one token group is read against, one per
/// significance class.
#[derive(Debug, Clone)]
struct WordThresholds {
    lsb: Gap,
    msb: Gap,
}

/// [`BitFlipRates`] in sampling form.
#[derive(Debug, Clone)]
struct Thresholds {
    hst: WordThresholds,
    lst: WordThresholds,
}

impl Thresholds {
    fn new(rates: &BitFlipRates) -> Self {
        let word = |group| WordThresholds {
            lsb: Gap::new(class_rate(rates, group, SignificanceGroup::Lsb)),
            msb: Gap::new(class_rate(rates, group, SignificanceGroup::Msb)),
        };
        Thresholds {
            hst: word(TokenGroup::HighScore),
            lst: word(TokenGroup::LowScore),
        }
    }

    fn of(&self, group: TokenGroup) -> &WordThresholds {
        match group {
            TokenGroup::HighScore => &self.hst,
            TokenGroup::LowScore => &self.lst,
        }
    }
}

/// One deterministic substream of a [`ProbabilisticFaults`] injector.
///
/// A lane owns its own RNG (seeded from the parent seed and the lane's
/// `(layer, head)` label via [`rng::lane`]), each rate class's distance to its
/// next flip, and its own counters, so the draws consumed on one lane (an
/// attention head's, or a layer's row lane) never shift the stream of
/// another.
#[derive(Debug, Clone)]
struct FaultLane {
    rng: DetRng,
    /// Per (token group, significance): bits of that class still to pass
    /// before its next flip; `None` until the class's first read draws it.
    gap: [[Option<u64>; 2]; 2],
    stats: FaultStats,
}

impl FaultLane {
    fn new(seed: u64, layer: usize, head: usize) -> Self {
        FaultLane {
            rng: rng::lane(seed, layer as u64, head as u64),
            gap: [[None; 2]; 2],
            stats: FaultStats::default(),
        }
    }

    /// Flip mask for the eight bits of one byte of a `group` token, lowest
    /// bit first: whatever flips land in the next eight bits of the class's
    /// sequence.
    #[inline]
    fn gap_mask(&mut self, gap: &Gap, group: TokenGroup, sig: SignificanceGroup) -> u16 {
        let surv = match gap {
            Gap::Never => return 0,
            Gap::Always => return 0xff,
            Gap::Table(surv) => &**surv,
        };
        let slot = &mut self.gap[group as usize][sig as usize];
        let mut left = match *slot {
            Some(left) => left,
            None => Gap::draw(surv, &mut self.rng),
        };
        let mask = Gap::byte(surv, &mut left, &mut self.rng);
        *slot = Some(left);
        mask
    }

    /// Flip mask for one stored word: LSB byte first, then MSB byte.
    #[inline]
    fn word_mask(&mut self, t: &WordThresholds, group: TokenGroup) -> u16 {
        self.gap_mask(&t.lsb, group, SignificanceGroup::Lsb)
            | self.gap_mask(&t.msb, group, SignificanceGroup::Msb) << 8
    }

    fn corrupt(&mut self, value: f32, t: &WordThresholds, group: TokenGroup) -> f32 {
        self.stats.words_examined += 1;
        let mask = self.word_mask(t, group);
        if mask == 0 {
            return value;
        }
        self.stats.bits_flipped += u64::from(mask.count_ones());
        read_flipped(value, mask)
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

/// One rate class's side of a row walk: its survival tables (`None` for a
/// class that never flips) and the bits still to pass before its next flip,
/// held outside the lane while the row is read.
struct Run<'a> {
    surv: Option<&'a [u64]>,
    left: u64,
}

impl<'a> Run<'a> {
    /// `None` when the class's next word has to be read on its own: the
    /// class flips every bit, or its first gap is still to be drawn.
    fn of(gap: &'a Gap, left: Option<u64>) -> Option<Self> {
        let (surv, left) = match gap {
            Gap::Never => (None, u64::MAX),
            Gap::Always => return None,
            Gap::Table(surv) => (Some(&**surv), left?),
        };
        Some(Run { surv, left })
    }

    /// Lets `words` whole words go by without a flip.
    #[inline]
    fn pass(&mut self, words: u64) {
        if self.surv.is_some() {
            // Cannot underflow: a run is `min(left) / 8` words or fewer.
            debug_assert!(words <= self.left / 8);
            self.left -= 8 * words;
        }
    }

    /// Flip mask of the class's byte of the next word.
    #[inline]
    fn byte(&mut self, rng: &mut DetRng) -> u16 {
        match self.surv {
            Some(surv) => Gap::byte(surv, &mut self.left, rng),
            None => 0,
        }
    }

    /// What the lane keeps of the class between rows.
    fn counter(&self) -> Option<u64> {
        self.surv.map(|_| self.left)
    }
}

/// One lane of a [`ProbabilisticFaults`] injector borrowed together with the
/// injector's thresholds: what the injector's reads go through.
#[derive(Debug)]
struct LaneHandle<'a> {
    thresholds: &'a Thresholds,
    lane: &'a mut FaultLane,
}

impl LaneHandle<'_> {
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32 {
        self.lane.corrupt(value, self.thresholds.of(group), group)
    }

    /// Reads a row from flip to flip: the row walk of the module docs.
    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        self.walk(values.len(), group, |at, mask| {
            values[at] = read_flipped(values[at], mask);
        });
    }

    /// The row walk over `row`, writing nothing: each word it flips goes
    /// into `flips` with its read value.
    fn read_flips(&mut self, row: &[f32], group: TokenGroup, flips: &mut Vec<(u32, f32)>) {
        flips.clear();
        // Every word may flip, so a warm `flips` never grows.
        flips.reserve(row.len());
        self.walk(row.len(), group, |at, mask| {
            flips.push((at as u32, read_flipped(row[at], mask)));
        });
    }

    /// Walks a row of `len` words at `group` from flip to flip, handing
    /// `flip` each word a flip lands in, in order, with its flip mask; the
    /// lane's draws and counters move as for a word-by-word read.
    #[inline]
    fn walk(&mut self, len: usize, group: TokenGroup, mut flip: impl FnMut(usize, u16)) {
        const LSB: usize = SignificanceGroup::Lsb as usize;
        const MSB: usize = SignificanceGroup::Msb as usize;
        let t = self.thresholds.of(group);
        let lane = &mut *self.lane;
        let mut at = 0;
        let (mut lsb, mut msb) = loop {
            let left = lane.gap[group as usize];
            if let (Some(lsb), Some(msb)) = (Run::of(&t.lsb, left[LSB]), Run::of(&t.msb, left[MSB]))
            {
                break (lsb, msb);
            }
            // One word at a time while a class has its first gap to draw
            // (this read draws it), and throughout if a class is certain.
            if at == len {
                return;
            }
            lane.stats.words_examined += 1;
            let mask = lane.word_mask(t, group);
            if mask != 0 {
                lane.stats.bits_flipped += u64::from(mask.count_ones());
                flip(at, mask);
            }
            at += 1;
        };
        let walked = len - at;
        let mut flipped = 0;
        loop {
            let words_left = (len - at) as u64;
            let run = (lsb.left.min(msb.left) / 8).min(words_left);
            lsb.pass(run);
            msb.pass(run);
            if run == words_left {
                break;
            }
            // The word after a run has a flip among its next eight bits of
            // at least one class: LSB byte first, then MSB byte.
            at += run as usize;
            let mask = lsb.byte(&mut lane.rng) | msb.byte(&mut lane.rng) << 8;
            debug_assert_ne!(mask, 0);
            flipped += u64::from(mask.count_ones());
            flip(at, mask);
            at += 1;
        }
        lane.gap[group as usize][LSB] = lsb.counter();
        lane.gap[group as usize][MSB] = msb.counter();
        lane.stats.words_examined += walked as u64;
        lane.stats.bits_flipped += flipped;
    }
}

/// A probabilistic fault injector driven by per-group bit-flip rates.
///
/// Random draws are partitioned into deterministic `(layer, head)` lanes — a
/// head lane per attention head and a row lane per layer (created on demand;
/// direct [`corrupt`](FaultInjector::corrupt) calls with no preceding
/// [`begin_lane`](FaultInjector::begin_lane) use lane `(0, 0)`).  Each
/// lane's RNG is seeded from the injector seed and the lane label alone, so
/// the bits a lane's reads see depend only on that lane's corruption history
/// — never on how lanes interleave across layers and steps.
/// [`stats`](FaultInjector::stats) sums the lane counters.
///
/// `Clone` snapshots the full injector state (every lane's RNG
/// position, gap counters and statistics — the survival tables are shared
/// behind an `Arc`); the prefix-sharing machinery uses this to capture the
/// exact post-prefix fault stream so a cache-hit session resumes the stream
/// bit-identically to a cold one.
#[derive(Debug, Clone)]
pub struct ProbabilisticFaults {
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
            thresholds: Thresholds::new(&rates),
            seed,
            lanes: Vec::new(),
            index: crate::hash::FastHashMap::default(),
            active: 0,
        }
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

    fn read_flips(&mut self, row: &[f32], group: TokenGroup, flips: &mut Vec<(u32, f32)>) {
        self.active_lane().read_flips(row, group, flips);
    }

    fn begin_lane(&mut self, layer: usize, head: usize) {
        self.active = self.lane_slot(layer, head);
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
        for i in 0..200 {
            let v = i as f32 * 0.01;
            assert_eq!(injector.corrupt(v, TokenGroup::HighScore), v);
        }
    }

    #[test]
    fn relaxed_policy_produces_faults() {
        let mut injector = fault_injector_for_policy(
            &RefreshPolicy::Uniform(20_000.0),
            &RetentionModel::default(),
            1,
        );
        let changed = (0..2000)
            .map(|i| 0.5 + i as f32 * 0.001)
            .filter(|&v| injector.corrupt(v, TokenGroup::LowScore) != v)
            .count();
        assert!(changed > 0);
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

    /// Per-bit-position flip counts and the flips-per-word histogram of
    /// `words` words of a `group` token read on a fresh lane.
    fn sample_masks(
        thresholds: &Thresholds,
        group: TokenGroup,
        seed: u64,
        words: usize,
    ) -> ([u64; 16], [u64; 17]) {
        let mut lane = FaultLane::new(seed, 2, 5);
        let mut per_bit = [0u64; 16];
        let mut per_word = [0u64; 17];
        for _ in 0..words {
            let mask = lane.word_mask(thresholds.of(group), group);
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
                let (per_bit, _) = sample_masks(&thresholds, group, 31 + setting as u64, WORDS);
                for (bit, &count) in per_bit.iter().enumerate() {
                    let p = class_rate(
                        rates,
                        group,
                        if bit < 8 {
                            SignificanceGroup::Lsb
                        } else {
                            SignificanceGroup::Msb
                        },
                    );
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
            let (_, observed) = sample_masks(&thresholds, group, 77, WORDS);
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

    #[test]
    fn zero_rate_classes_consume_no_keystream() {
        let fresh = FaultLane::new(3, 1, 4).rng;
        let group = TokenGroup::LowScore;

        let mut lane = FaultLane::new(3, 1, 4);
        let never = WordThresholds {
            lsb: Gap::Never,
            msb: Gap::Never,
        };
        for i in 0..1000 {
            assert_eq!(lane.corrupt(i as f32 * 0.5, &never, group), i as f32 * 0.5);
        }
        assert_eq!(lane.gap, [[None; 2]; 2]);
        assert_eq!(draws_between(&fresh, &lane.rng, 0), Some(0));
        assert_eq!(lane.stats.words_examined, 1000);

        // A certain class flips its byte without reading anything.
        let mut lane = FaultLane::new(3, 1, 4);
        let certain = WordThresholds {
            lsb: Gap::Never,
            msb: Gap::new(1.0),
        };
        assert_eq!(lane.word_mask(&certain, group), 0xff00);
        assert_eq!(lane.gap, [[None; 2]; 2]);
        assert_eq!(draws_between(&fresh, &lane.rng, 0), Some(0));

        // A word whose only live class is the LSB one draws that class's
        // first gap plus one redraw per flip, and a `Never` LSB class beside
        // a live MSB class draws only for the MSB.  One table at p = 0.5, so
        // a draw is one keystream word unless it adds 256 (never, here).
        let live = |lsb: bool| {
            let (lsb, msb) = if lsb {
                (Gap::new(0.5), Gap::Never)
            } else {
                (Gap::Never, Gap::new(0.5))
            };
            WordThresholds { lsb, msb }
        };
        for (lsb, byte) in [(true, 0x00ff), (false, 0xff00)] {
            let live = live(lsb);
            let mut lane = FaultLane::new(3, 1, 4);
            let mut flips = 0;
            for _ in 0..100 {
                let mask = lane.word_mask(&live, group);
                assert_eq!(mask & !byte, 0);
                flips += mask.count_ones() as usize;
            }
            assert!(flips > 300);
            assert_eq!(draws_between(&fresh, &lane.rng, 1000), Some(1 + flips));
            let [msb_gap, lsb_gap] = lane.gap[group as usize];
            assert_eq!((lsb_gap.is_some(), msb_gap.is_some()), (lsb, !lsb));
            assert_eq!(lane.gap[TokenGroup::HighScore as usize], [None; 2]);
        }
    }

    #[test]
    fn a_first_read_at_any_rate_draws_a_bounded_number_of_keystream_words() {
        // One table would walk a gap of 1/p bits 256 at a time: ≈4·10⁶ draws
        // at 10⁻⁹, ≈4·10¹⁰ at 10⁻¹³.  Stacked tables draw it digit by digit.
        for p in [1e-9, 1e-13, 2f64.powi(-64)] {
            for seed in 0..50 {
                let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(p), seed);
                for group in GROUPS {
                    assert_eq!(inj.corrupt(0.375, group), 0.375);
                }
                // Four first gaps: a draw per table (four to eight of them
                // at these rates) plus the top table's redraws, each less
                // likely than not.
                let draws = draws_between(&rng::lane(seed, 0, 0), &inj.lanes[0].rng, 96);
                assert!(
                    draws.is_some_and(|n| n >= 16),
                    "p = {p:e}, seed {seed}: {draws:?} draws"
                );
            }
        }
    }

    #[test]
    fn certain_rate_flips_all_sixteen_bits() {
        let mut lane = FaultLane::new(9, 0, 0);
        let always = Thresholds::new(&BitFlipRates::uniform(1.0));
        let group = TokenGroup::LowScore;
        assert!((0..4096).all(|_| lane.word_mask(always.of(group), group) == 0xffff));

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
        let thresholds = Thresholds::new(&BitFlipRates::uniform(p));
        let tables = |p: f64| match Gap::new(p) {
            Gap::Table(surv) => surv.len() / Gap::SPAN,
            _ => panic!("p = {p:e} has a table"),
        };
        assert_eq!(
            [0.5, 0.0028, 0.0027, 1.1e-5, p, 2f64.powi(-64)].map(tables),
            [1, 1, 2, 2, 3, 8]
        );
        let (per_bit, _) = sample_masks(&thresholds, TokenGroup::HighScore, 5, WORDS);
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

    /// However a row is cut into `corrupt_slice` calls, the row walk leaves
    /// every class's counter where the word-by-word read does.  All four
    /// classes: the name dates from when only the MSB ones walked gaps.
    #[test]
    fn msb_masks_do_not_depend_on_how_a_row_is_split() {
        let rates = PAPER_RATES[2];
        let row = [0.375f32; 64];
        // Length of a row's first part, then of every further part: whole,
        // 8/8/…, 1/63, word by word.
        let splits = [(64, 64), (8, 8), (1, 63), (1, 1)];
        let mut injectors = splits.map(|_| ProbabilisticFaults::new(rates, 17));
        let mut flipped = [0usize; 2];
        for _ in 0..200 {
            for group in GROUPS {
                let reads: [_; 4] = std::array::from_fn(|i| {
                    let (first, then) = splits[i];
                    let mut read = row;
                    let (head, rest) = read.split_at_mut(first);
                    for part in std::iter::once(head).chain(rest.chunks_mut(then)) {
                        injectors[i].corrupt_slice(part, group);
                    }
                    read.map(f32::to_bits)
                });
                assert!(reads.iter().all(|read| *read == reads[0]));
                let stored = fp16::f32_to_f16_bits(0.375);
                for read in reads[0] {
                    let mask = fp16::f32_to_f16_bits(f32::from_bits(read)) ^ stored;
                    flipped[0] += usize::from(mask & 0x00ff != 0);
                    flipped[1] += usize::from(mask & 0xff00 != 0);
                }
            }
        }
        assert!(flipped[0] > 1000 && flipped[1] > 100, "{flipped:?}");
        let [whole, rest @ ..] = &mut injectors;
        let whole = &mut whole.lanes[0];
        assert!(whole.gap.as_flattened().iter().all(Option::is_some));
        let next = whole.rng.next_u64();
        for split in rest {
            let split = &mut split.lanes[0];
            assert_eq!(whole.gap, split.gap);
            assert_eq!(whole.stats, split.stats);
            assert_eq!(next, split.rng.next_u64());
        }
    }

    /// The shapes the row walk treats specially — a class that never flips,
    /// one that always does, a first gap still to draw, an empty row — in
    /// every combination, held to the per-word definition after each read.
    #[test]
    fn row_walk_matches_word_by_word_reads_for_every_pairing_of_classes() {
        // Never, always, one table, stacked tables.
        const CLASS_RATES: [f64; 4] = [0.0, 1.0, 0.03, 1e-5];
        const LENGTHS: [usize; 5] = [0, 1, 8, 64, 1000];
        let values: Vec<f32> = (0..1000).map(|i| (i as f32 - 400.0) * 0.037).collect();
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut flipped = 0;
        for pairing in 0..CLASS_RATES.len().pow(4) {
            let class = |digit: u32| CLASS_RATES[pairing / 4usize.pow(digit) % 4];
            let rates = BitFlipRates {
                hst_lsb: class(0),
                hst_msb: class(1),
                lst_lsb: class(2),
                lst_msb: class(3),
            };
            // Every length is a fresh lane's first read once; the reads
            // after it, of either group, find the lane warm.
            for first in 0..LENGTHS.len() {
                let seed = (pairing * LENGTHS.len() + first) as u64;
                let mut by_row = ProbabilisticFaults::new(rates, seed);
                by_row.begin_lane(0, 0);
                let mut by_word = by_row.clone();
                let mut choose = rng::lane(seed, 9, 9);
                for read in 0..8 {
                    let len = LENGTHS[(first + read) % LENGTHS.len()];
                    let group = GROUPS[(choose.next_u64() % 2) as usize];
                    let cut = (choose.next_u64() % (len as u64 + 1)) as usize;
                    let mut row = values[..len].to_vec();
                    let (head, tail) = row.split_at_mut(cut);
                    by_row.corrupt_slice(head, group);
                    by_row.corrupt_slice(tail, group);
                    let word_by_word: Vec<f32> = values[..len]
                        .iter()
                        .map(|&v| by_word.corrupt(v, group))
                        .collect();
                    let what = format!(
                        "{rates:?}, first {first}, read {read}: {len} {group:?} words cut at {cut}"
                    );
                    assert_eq!(bits(&row), bits(&word_by_word), "{what}");
                    let (row_lane, word_lane) = (&by_row.lanes[0], &by_word.lanes[0]);
                    assert_eq!(row_lane.gap, word_lane.gap, "{what}");
                    assert_eq!(row_lane.stats, word_lane.stats, "{what}");
                    assert_eq!(
                        draws_between(&word_lane.rng, &row_lane.rng, 0),
                        Some(0),
                        "{what}"
                    );
                }
                flipped += by_row.stats().bits_flipped;
            }
        }
        assert!(flipped > 0);
    }

    /// A bit-by-bit reading of the model, counting its draws: a row costs
    /// one draw per first gap and one per flip — an intact word costs none
    /// and a run loses none.
    #[test]
    fn a_row_draws_once_per_first_gap_and_once_per_flip() {
        let thresholds = Thresholds::new(&PAPER_RATES[0]);
        let stored = fp16::f32_to_f16_bits(0.375);
        for group in GROUPS {
            let t = thresholds.of(group);
            let tables = [&t.lsb, &t.msb].map(|gap| match gap {
                Gap::Table(surv) => &**surv,
                _ => panic!("2DRP's classes all have tables"),
            });
            for seed in 0..32 {
                let mut lane = FaultLane::new(seed, 0, 3);
                let mut rng = lane.rng.clone();
                let mut row = [0.375f32; 64];
                LaneHandle {
                    thresholds: &thresholds,
                    lane: &mut lane,
                }
                .corrupt_slice(&mut row, group);

                let mut draws = 0;
                let mut draw = |surv: &[u64]| {
                    draws += 1;
                    Gap::draw(surv, &mut rng)
                };
                let mut left = [None; 2];
                let mut flips = 0;
                for read in row {
                    let mut mask = 0u16;
                    for (byte, surv) in tables.into_iter().enumerate() {
                        let mut intact = left[byte].unwrap_or_else(|| draw(surv));
                        for bit in 8 * byte..8 * byte + 8 {
                            if intact == 0 {
                                mask |= 1 << bit;
                                intact = draw(surv);
                            } else {
                                intact -= 1;
                            }
                        }
                        left[byte] = Some(intact);
                    }
                    flips += u64::from(mask.count_ones());
                    assert_eq!(fp16::f32_to_f16_bits(read) ^ stored, mask);
                }
                assert_eq!(draws, 2 + flips);
                assert_eq!(draws_between(&rng, &lane.rng, 0), Some(0));
                let [msb_left, lsb_left] = lane.gap[group as usize];
                assert_eq!([lsb_left, msb_left], left);
                assert_eq!(
                    lane.stats,
                    FaultStats {
                        words_examined: 64,
                        bits_flipped: flips
                    }
                );
            }
        }
    }

    #[test]
    fn clone_taken_mid_gap_resumes_identically() {
        let thresholds = Thresholds::new(&PAPER_RATES[2]);
        let masks = |lane: &mut FaultLane, words: usize| -> Vec<u16> {
            (0..words)
                .map(|i| {
                    let group = GROUPS[i % 3 % 2];
                    lane.word_mask(thresholds.of(group), group)
                })
                .collect()
        };
        let mut lane = FaultLane::new(13, 2, 2);
        let unbroken = masks(&mut lane, 6000);
        // All four counters are part of the snapshot, wherever it is taken
        // (multiples of 3 keep `masks`' group pattern in phase).
        for taken_after in [3, 12, 15, 999] {
            let mut lane = FaultLane::new(13, 2, 2);
            let head = masks(&mut lane, taken_after);
            let left = lane.gap.as_flattened();
            assert!(left.iter().all(Option::is_some));
            let mut snapshot = lane.clone();
            for resumed in [&mut lane, &mut snapshot] {
                let tail = masks(resumed, 6000 - taken_after);
                assert_eq!([&head[..], &tail[..]].concat(), unbroken);
            }
        }
        for byte in [0x00ff, 0xff00] {
            assert!(unbroken.iter().filter(|&&mask| mask & byte != 0).count() > 50);
        }
    }

    #[test]
    fn observed_bit_error_rate_is_the_mean_of_the_class_rates() {
        const WORDS: usize = 2_000_000;
        for (setting, rates) in PAPER_RATES.iter().enumerate() {
            for group in GROUPS {
                let mut inj = ProbabilisticFaults::new(*rates, 61 + setting as u64);
                let mut row = [0.375f32; 1000];
                for _ in 0..WORDS / row.len() {
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
