//! Tagged predictor components (tables T1..TM) and the [`TaggedBank`]
//! sub-stage that groups them.
//!
//! Each entry holds a 3-bit prediction counter `ctr` (sign = prediction),
//! a partial tag and a useful bit `u` (Figure 2 of the paper). Tables are
//! indexed with a hash of the PC, a folded global history of the table's
//! geometric length, and folded path history; tags use two differently
//! folded histories so index- and tag-aliasing are decorrelated.
//!
//! [`TaggedBank`] owns the table group *and its allocation/update
//! policy*: the randomized non-consecutive allocation of §3.2.1, the
//! 8-bit tick monitor driving the global u-bit reset of §3.2.2, and the
//! provider-entry training write. It is one of the three separately
//! constructible provider sub-stages (see `crate::provider`).

use crate::config::{TageConfig, MAX_TAGGED};
use memarray::interleaved_index;
use simkit::bits::mask;
use simkit::counter::SignedCounter;
use simkit::history::{FoldedHistory, GlobalHistory, PathHistory};
use simkit::stats::AccessStats;

/// One entry of a tagged component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedEntry {
    /// Prediction counter; sign provides the prediction.
    pub ctr: SignedCounter,
    /// Partial tag.
    pub tag: u16,
    /// Useful bit (replacement guard, §3.2.2).
    pub u: bool,
}

/// The in-memory representation of one entry: the counter *value* only
/// (its width is a per-table constant), packed to 4 bytes so the large
/// quasi-randomly indexed tables waste as little cache as possible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedEntry {
    ctr: i8,
    tag: u16,
    u: bool,
}

/// A tagged component table.
#[derive(Clone, Debug)]
pub struct TaggedTable {
    entries: Vec<PackedEntry>,
    size_bits: u32,
    tag_width: u8,
    ctr_bits: u8,
    hist_len: usize,
    // Index and tag hashing constants, fixed at construction so the
    // per-branch `index`/`tag` do only the hashing arithmetic.
    path_mask: u64,
    pc_shift: u32,
    index_mask: usize,
    tag_mask: u64,
    folded_idx: FoldedHistory,
    folded_tag0: FoldedHistory,
    folded_tag1: FoldedHistory,
}

impl TaggedTable {
    /// Creates table `table_num` (1-based) with `2^size_bits` entries,
    /// `tag_width`-bit tags and history length `hist_len`.
    pub fn new(table_num: usize, size_bits: u32, tag_width: u8, hist_len: usize, ctr_bits: u8) -> Self {
        assert!(hist_len >= 1, "tagged table history length must be positive");
        // The packed counter is an i8; every configured width fits.
        assert!(ctr_bits <= 8, "tagged counter width {ctr_bits} exceeds the packed entry");
        let empty = PackedEntry { ctr: SignedCounter::new(ctr_bits).get() as i8, tag: 0, u: false };
        Self {
            entries: vec![empty; 1 << size_bits],
            size_bits,
            tag_width,
            ctr_bits,
            hist_len,
            path_mask: mask(16.min(hist_len as u32)),
            pc_shift: size_bits - (table_num as u32 & 3),
            index_mask: (1 << size_bits) - 1,
            tag_mask: mask(u32::from(tag_width)),
            folded_idx: FoldedHistory::new(hist_len, size_bits),
            folded_tag0: FoldedHistory::new(hist_len, u32::from(tag_width)),
            folded_tag1: FoldedHistory::new(hist_len, u32::from(tag_width).saturating_sub(1).max(1)),
        }
    }

    /// Advances the folded histories after a [`GlobalHistory::push`].
    /// All three folds share this table's history length, so the two
    /// history bits they consume are read once.
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        let in_bit = gh.bit(0);
        let out_bit = gh.bit(self.hist_len);
        self.folded_idx.update_split(in_bit, out_bit);
        self.folded_tag0.update_split(in_bit, out_bit);
        self.folded_tag1.update_split(in_bit, out_bit);
    }

    /// Table index for this (PC, history, path).
    #[inline]
    pub fn index(&self, pc: u64, path: &PathHistory) -> usize {
        let pc = pc >> 2;
        let pmix = (path.value() & self.path_mask).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - self.size_bits);
        let h = self.folded_idx.value();
        ((pc ^ (pc >> self.pc_shift) ^ h ^ pmix) as usize) & self.index_mask
    }

    /// Partial tag for this (PC, history).
    #[inline]
    pub fn tag(&self, pc: u64) -> u16 {
        let pc = pc >> 2;
        ((pc ^ self.folded_tag0.value() ^ (self.folded_tag1.value() << 1)) & self.tag_mask) as u16
    }

    /// Reads an entry.
    #[inline]
    pub fn entry(&self, index: usize) -> TaggedEntry {
        let (ctr, tag, u) = self.read_raw(index);
        TaggedEntry { ctr: SignedCounter::with_value(self.ctr_bits, ctr), tag, u }
    }

    /// Reads an entry's packed fields as `(ctr, tag, u)` without
    /// rebuilding a [`SignedCounter`]: the only writer,
    /// [`TaggedTable::write`], stores clamped counter values, so the raw
    /// value is already in range.
    #[inline]
    fn read_raw(&self, index: usize) -> (i16, u16, bool) {
        let e = self.entries[index];
        let ctr = i16::from(e.ctr);
        debug_assert!((-(1 << (self.ctr_bits - 1))..1 << (self.ctr_bits - 1)).contains(&ctr));
        (ctr, e.tag, e.u)
    }

    /// Hints the cache hierarchy that `index` is about to be read. The
    /// tagged tables are large and indexed quasi-randomly, so a predict or
    /// retire re-read issues one likely-missing load per component;
    /// prefetching all components up front lets those misses overlap
    /// instead of serializing. Purely a performance hint — never changes
    /// results.
    // SAFETY: the one sanctioned unsafe in the workspace — see the audit
    // on the block below. Scoped allow under the crate-level
    // `#![deny(unsafe_code)]`; any new unsafe elsewhere fails the build.
    #[allow(unsafe_code)]
    #[inline]
    pub fn prefetch(&self, index: usize) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the pointer is in-bounds (`index` is masked to the table
        // size by every caller and checked here) and prefetch has no
        // memory effects.
        if index < self.entries.len() {
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                    self.entries.as_ptr().add(index).cast::<i8>(),
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = index;
    }

    /// Writes an entry, returning whether the stored value changed.
    ///
    /// Counter widths are uniform within a table, so comparing packed
    /// values is exactly the old whole-entry comparison.
    #[inline]
    pub fn write(&mut self, index: usize, entry: TaggedEntry) -> bool {
        debug_assert_eq!(entry.ctr.bits(), self.ctr_bits, "counter width differs from the table's");
        let packed = PackedEntry { ctr: entry.ctr.get() as i8, tag: entry.tag, u: entry.u };
        let changed = self.entries[index] != packed;
        self.entries[index] = packed;
        changed
    }

    /// Clears every useful bit (the §3.2.2 global reset).
    pub fn reset_useful(&mut self) {
        for e in &mut self.entries {
            e.u = false;
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Geometric history length of this table.
    pub fn hist_len(&self) -> usize {
        self.hist_len
    }

    /// log2 of the entry count (the bank-interleaving index width).
    pub fn size_bits(&self) -> u32 {
        self.size_bits
    }

    /// Tag width in bits.
    pub fn tag_width(&self) -> u8 {
        self.tag_width
    }

    /// Storage in bits (ctr + u + tag per entry).
    pub fn storage_bits(&self, ctr_bits: u8) -> u64 {
        self.entries.len() as u64 * (u64::from(ctr_bits) + 1 + u64::from(self.tag_width))
    }

    /// Fraction of entries with the useful bit set (diagnostics).
    pub fn useful_fraction(&self) -> f64 {
        self.entries.iter().filter(|e| e.u).count() as f64 / self.entries.len() as f64
    }
}

/// The tagged-table sub-stage: tables T1..TM plus their allocation and
/// update policy (§3.2). Owns the per-bank control state the fused
/// predictor used to carry — the 8-bit allocation tick, its saturation
/// threshold, and the LFSR that randomizes allocation starts.
#[derive(Clone, Debug)]
pub struct TaggedBank {
    tables: Vec<TaggedTable>,
    tick: u16,
    tick_max: u16,
    lfsr: u64,
    max_alloc: usize,
    ctr_bits: u8,
}

impl TaggedBank {
    /// Builds the bank a configuration describes.
    pub fn new(cfg: &TageConfig) -> Self {
        let lengths = cfg.history_lengths();
        let tables = (0..cfg.num_tagged)
            .map(|i| {
                TaggedTable::new(
                    i + 1,
                    cfg.table_size_bits[i],
                    cfg.tag_widths[i],
                    lengths[i],
                    cfg.ctr_bits,
                )
            })
            .collect();
        Self {
            tables,
            tick: 0,
            tick_max: 255,
            lfsr: 0x1234_5678_9ABC_DEF1,
            max_alloc: cfg.max_alloc,
            ctr_bits: cfg.ctr_bits,
        }
    }

    /// Number of tagged tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the bank has no tables (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The tables, in component order.
    pub fn tables(&self) -> &[TaggedTable] {
        &self.tables
    }

    /// Prediction counter width.
    pub fn ctr_bits(&self) -> u8 {
        self.ctr_bits
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        self.lfsr
    }

    /// Fetch-time key computation: per-table index (bank-interleaved when
    /// `ibank` is set) and tag, prefetching each entry so the reads in
    /// [`TaggedBank::read_flight`] overlap their cache misses.
    #[inline]
    pub fn compute_keys(
        &self,
        pc: u64,
        path: &PathHistory,
        ibank: Option<u8>,
        indices: &mut [u32; MAX_TAGGED],
        tags: &mut [u16; MAX_TAGGED],
    ) {
        for (t, table) in self.tables.iter().enumerate() {
            let mut idx = table.index(pc, path);
            if let Some(bk) = ibank {
                idx = interleaved_index(idx, bk, table.size_bits());
            }
            indices[t] = idx as u32;
            tags[t] = table.tag(pc);
            table.prefetch(idx);
        }
    }

    /// Prefetches every table's entry at the carried indices (the
    /// retire-time re-read path).
    #[inline]
    pub fn prefetch_all(&self, indices: &[u32; MAX_TAGGED]) {
        for (t, table) in self.tables.iter().enumerate() {
            table.prefetch(indices[t] as usize);
        }
    }

    /// Reads every table at the carried indices, filling counter values
    /// and useful bits; returns the tag-hit mask.
    #[inline]
    pub fn read_flight(
        &self,
        indices: &[u32; MAX_TAGGED],
        tags: &[u16; MAX_TAGGED],
        ctrs: &mut [i16; MAX_TAGGED],
        us: &mut [bool; MAX_TAGGED],
    ) -> u16 {
        let mut hits = 0u16;
        for (t, table) in self.tables.iter().enumerate() {
            let (ctr, tag, u) = table.read_raw(indices[t] as usize);
            ctrs[t] = ctr;
            us[t] = u;
            if tag == tags[t] {
                hits |= 1 << t;
            }
        }
        hits
    }

    /// Trains the provider entry at retire (§3.2): the counter moves
    /// toward the outcome from the carried (possibly stale) value
    /// `ctr_val`; the useful bit is set when `set_u`. Counter and u bit
    /// live in the same entry — one write.
    pub fn train_provider(
        &mut self,
        table: usize,
        index: usize,
        ctr_val: i16,
        outcome: bool,
        set_u: bool,
        stats: &mut AccessStats,
    ) {
        let mut e = self.tables[table].entry(index);
        let mut c = SignedCounter::with_value(self.ctr_bits, ctr_val);
        c.update(outcome);
        e.ctr = c;
        if set_u {
            e.u = true;
        }
        let changed = self.tables[table].write(index, e);
        stats.record_write(changed);
    }

    /// Allocates new entries on mispredictions (§3.2.1) and maintains the
    /// u-bit reset monitor (§3.2.2). `first` is the first table eligible
    /// for allocation (one past the provider).
    pub fn allocate(
        &mut self,
        indices: &[u32; MAX_TAGGED],
        tags: &[u16; MAX_TAGGED],
        us: &[bool; MAX_TAGGED],
        first: usize,
        outcome: bool,
        stats: &mut AccessStats,
    ) {
        let m = self.tables.len();
        if first >= m {
            return;
        }
        // Randomized start (avoids ping-pong between competing branches).
        let mut k = first;
        if m - first > 1 && self.next_rand() & 1 == 0 {
            k += 1;
        }
        let mut allocated = 0;
        while k < m && allocated < self.max_alloc {
            if !us[k] {
                let entry = TaggedEntry {
                    ctr: SignedCounter::with_value(self.ctr_bits, if outcome { 0 } else { -1 }),
                    tag: tags[k],
                    u: false,
                };
                let idx = indices[k] as usize;
                let changed = self.tables[k].write(idx, entry);
                stats.record_write(changed);
                // Success: decrement the failure monitor.
                self.tick = self.tick.saturating_sub(1);
                allocated += 1;
                k += 2; // non-consecutive tables
            } else {
                // Failure: increment; on saturation reset all u bits.
                self.tick += 1;
                if self.tick >= self.tick_max {
                    for t in &mut self.tables {
                        t.reset_useful();
                    }
                    self.tick = 0;
                }
                k += 1;
            }
        }
    }

    /// Advances every table's folded histories after a
    /// [`GlobalHistory::push`].
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        for t in &mut self.tables {
            t.update_history(gh);
        }
    }

    /// Total bank storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.tables.iter().map(|t| t.storage_bits(self.ctr_bits)).sum()
    }

    /// Fraction of useful bits currently set, per table (diagnostics).
    pub fn useful_fractions(&self) -> Vec<f64> {
        self.tables.iter().map(TaggedTable::useful_fraction).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TaggedTable {
        TaggedTable::new(3, 10, 9, 17, 3)
    }

    #[test]
    fn index_and_tag_in_range() {
        let mut gh = GlobalHistory::new();
        let mut path = PathHistory::new(16);
        let mut t = table();
        let mut rng = simkit::rng::Xoshiro256::seed_from(1);
        for _ in 0..1000 {
            gh.push(rng.gen_bool(0.5));
            t.update_history(&gh);
            path.push(rng.next_u64());
            let pc = rng.next_u64();
            assert!(t.index(pc, &path) < t.len());
            assert!(t.tag(pc) < (1 << 9));
        }
    }

    #[test]
    fn different_histories_different_indices() {
        let mut gh = GlobalHistory::new();
        let path = PathHistory::new(16);
        let mut t = table();
        let pc = 0x40_0040;
        let mut indices = std::collections::HashSet::new();
        let mut rng = simkit::rng::Xoshiro256::seed_from(2);
        for _ in 0..64 {
            gh.push(rng.gen_bool(0.5));
            t.update_history(&gh);
            indices.insert(t.index(pc, &path));
        }
        assert!(indices.len() > 30, "indices poorly spread: {}", indices.len());
    }

    #[test]
    fn index_spread_is_roughly_uniform() {
        let mut gh = GlobalHistory::new();
        let mut path = PathHistory::new(16);
        let mut t = table();
        let mut counts = vec![0u32; t.len()];
        let mut rng = simkit::rng::Xoshiro256::seed_from(3);
        for _ in 0..40_000 {
            gh.push(rng.gen_bool(0.5));
            t.update_history(&gh);
            path.push(rng.next_u64());
            counts[t.index(rng.next_u64() << 2, &path)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 160 && min > 5, "spread min={min} max={max}");
    }

    #[test]
    fn write_detects_silent() {
        let mut t = table();
        let e = t.entry(5);
        assert!(!t.write(5, e), "identical write should be silent");
        let mut e2 = e;
        e2.tag = 0x1F;
        assert!(t.write(5, e2));
    }

    #[test]
    fn reset_useful_clears_all() {
        let mut t = table();
        for i in 0..t.len() {
            let mut e = t.entry(i);
            e.u = true;
            t.write(i, e);
        }
        assert!((t.useful_fraction() - 1.0).abs() < 1e-9);
        t.reset_useful();
        assert_eq!(t.useful_fraction(), 0.0);
    }

    /// `index` as computed before its constants moved to construction.
    fn unhoisted_index(t: &TaggedTable, table_num: usize, pc: u64, path: &PathHistory) -> usize {
        let pc = pc >> 2;
        let pmix = (path.value() & mask(16.min(t.hist_len as u32)))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - t.size_bits);
        let h = t.folded_idx.value();
        ((pc ^ (pc >> (t.size_bits as u64 - (table_num as u64 & 3))) ^ h ^ pmix) as usize)
            & ((1 << t.size_bits) - 1)
    }

    /// `tag` as computed before its mask moved to construction.
    fn unhoisted_tag(t: &TaggedTable, pc: u64) -> u16 {
        let pc = pc >> 2;
        ((pc ^ t.folded_tag0.value() ^ (t.folded_tag1.value() << 1)) & mask(u32::from(t.tag_width)))
            as u16
    }

    #[test]
    fn hoisted_keys_match_the_unhoisted_formulas() {
        let cfg = TageConfig::reference_64kb();
        let mut tables: Vec<(usize, TaggedTable)> =
            TaggedBank::new(&cfg).tables.into_iter().enumerate().map(|(i, t)| (i + 1, t)).collect();
        // Histories shorter than the 16-bit path mask, at every
        // `table_num & 3` PC shift.
        for table_num in 1..=4 {
            tables.push((table_num, TaggedTable::new(table_num, 9, 8, 2 + table_num * 3, 3)));
        }
        assert!(tables.iter().any(|(_, t)| t.hist_len() < 16));
        let mut gh = GlobalHistory::new();
        let mut path = PathHistory::new(16);
        let mut rng = simkit::rng::Xoshiro256::seed_from(4);
        for _ in 0..3000 {
            gh.push(rng.gen_bool(0.5));
            path.push(rng.next_u64());
            let pc = rng.next_u64();
            for (num, t) in &mut tables {
                t.update_history(&gh);
                assert_eq!(t.index(pc, &path), unhoisted_index(t, *num, pc, &path), "T{num}");
                assert_eq!(t.tag(pc), unhoisted_tag(t, pc), "T{num}");
            }
        }
    }

    #[test]
    fn storage_accounting() {
        let t = table();
        assert_eq!(t.storage_bits(3), 1024 * (3 + 1 + 9));
    }
}
