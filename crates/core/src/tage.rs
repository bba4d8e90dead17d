//! The TAGE predictor (§3), driven as a decomposed [`ProviderStack`].
//!
//! A base predictor backed by M partially tagged components indexed with
//! geometrically increasing global history lengths. The *provider* is
//! the hitting component with the longest history; the *alternate
//! prediction* is what would have been predicted on a provider miss.
//! Entries are allocated only on mispredictions, on up to four
//! non-consecutive tables above the provider, guarded by single useful
//! bits with a global reset driven by an 8-bit allocation monitor.
//!
//! [`Tage`] is the [`Predictor`] lifecycle wrapper: it owns the shared
//! speculative state (global and path history, the bank-interleaving
//! selector, access stats) and drives the three provider sub-stages —
//! [`BaseSlot`](crate::base::BaseSlot),
//! [`TaggedBank`](crate::tagged::TaggedBank) and the
//! [`Chooser`](simkit::Chooser) policy — that a [`ProviderStack`]
//! composes. The default composition (bimodal base, `USE_ALT_ON_NA`
//! chooser) is bit-identical to the pre-decomposition fused predictor
//! (pinned by the golden-table suite).

use crate::base::{BaseChoice, BaseRead};
use crate::chooser::ChooserChoice;
use crate::config::{TageConfig, MAX_TAGGED};
use crate::provider::ProviderStack;
use memarray::{interleaved_index, BankSelector, ConflictModel};
use simkit::chooser::{Chooser, ChooserView};
use simkit::history::{GlobalHistory, PathHistory};
use simkit::predictor::{BranchInfo, Predictor, UpdateScenario};
use simkit::stats::AccessStats;

/// Bank-interleaving state (§4.3): selector + per-bank conflict queues.
#[derive(Clone, Debug, Default)]
pub struct Interleave {
    selector: BankSelector,
    /// Conflict/delay statistics.
    pub conflicts: ConflictModel,
}

/// The TAGE predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    provider: ProviderStack,
    ghist: GlobalHistory,
    path: PathHistory,
    interleave: Option<Interleave>,
    stats: AccessStats,
}

/// Everything TAGE reads at prediction time; carried with the in-flight
/// branch (§4's scenarios \[B\]/\[C\] compute the retire-time update from
/// these values instead of re-reading the tables).
#[derive(Clone, Copy, Debug)]
pub struct TageFlight {
    /// Base predictor read.
    pub base: BaseRead,
    /// Per-table index used.
    pub indices: [u32; MAX_TAGGED],
    /// Per-table tag computed.
    pub tags: [u16; MAX_TAGGED],
    /// Per-table counter value read.
    pub ctrs: [i16; MAX_TAGGED],
    /// Per-table useful bit read.
    pub us: [bool; MAX_TAGGED],
    /// Bitmask of tag hits.
    pub hits: u16,
    /// Provider component (tagged table number, 0-based), if any.
    pub provider: Option<u8>,
    /// Alternate provider (tagged table), `None` = the base predictor.
    pub alt: Option<u8>,
    /// Provider component's prediction.
    pub provider_pred: bool,
    /// Alternate prediction.
    pub alt_pred: bool,
    /// Final TAGE prediction (after the chooser).
    pub tage_pred: bool,
    /// Whether the provider counter was weak.
    pub weak: bool,
}

impl TageFlight {
    /// Identity of the entry that provided the prediction, as
    /// (component, index); component 0 is the base predictor. This is
    /// what the IUM records (§5.1).
    pub fn provider_entry(&self) -> (u8, u32) {
        match self.provider {
            Some(t) => (t + 1, self.indices[t as usize]),
            None => (0, self.base.index as u32),
        }
    }

    /// The centered counter value of the providing component, scaled as
    /// the statistical corrector consumes it (§5.3: "eight times the
    /// (centered) output of the hitting bank").
    pub fn provider_centered(&self) -> i32 {
        match self.provider {
            Some(t) => tagged_centered(self.ctrs[t as usize]),
            None => base_centered(self.base),
        }
    }
}

/// A tagged counter value on the centered scale (§5.3): `2c + 1`.
#[inline]
fn tagged_centered(ctr: i16) -> i32 {
    2 * i32::from(ctr) + 1
}

/// The base predictor's 2-bit state mapped onto the 3-bit centered scale.
#[inline]
fn base_centered(base: BaseRead) -> i32 {
    let c = (base.pred as i32) * 2 + base.hyst as i32;
    [-7, -1, 1, 7][c as usize]
}

/// Values the retire-time update works from: either the flight snapshot
/// (scenario \[B\], correct-prediction \[C\]) or a fresh re-read.
struct UpdateView {
    base: BaseRead,
    ctrs: [i16; MAX_TAGGED],
    us: [bool; MAX_TAGGED],
    provider: Option<u8>,
    alt: Option<u8>,
    provider_pred: bool,
    alt_pred: bool,
    weak: bool,
}

impl UpdateView {
    /// The chooser's digest of this view: provider/alternate candidates
    /// with their centered-counter strengths. `pc` is the branch address
    /// (per-PC policies index by it).
    fn chooser_view(&self, pc: u64) -> ChooserView {
        let strength = |t: Option<u8>| match t {
            Some(t) => tagged_centered(self.ctrs[t as usize]).abs(),
            None => base_centered(self.base).abs(),
        };
        ChooserView {
            pc,
            has_provider: self.provider.is_some(),
            provider_pred: self.provider_pred,
            alt_pred: self.alt_pred,
            provider_weak: self.weak,
            provider_strength: strength(self.provider),
            alt_strength: strength(self.alt),
        }
    }
}

impl Tage {
    /// Builds the paper's TAGE predictor from a configuration (bimodal
    /// base, `USE_ALT_ON_NA` chooser).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`].
    pub fn new(cfg: TageConfig) -> Self {
        Self::with_choices(cfg, BaseChoice::default(), ChooserChoice::default())
    }

    /// Builds a TAGE predictor with spec-selected base-predictor and
    /// chooser policies (the §3-level provider ablations).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`].
    pub fn with_choices(cfg: TageConfig, base: BaseChoice, chooser: ChooserChoice) -> Self {
        cfg.validate();
        let provider = ProviderStack::with_choices(&cfg, base, chooser);
        Self::from_parts(cfg, provider)
    }

    /// Wraps an explicitly assembled [`ProviderStack`]. The provider's
    /// bank must have been built from `cfg` (the config supplies the
    /// shared path-history width and the component count).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TageConfig::validate`] or the
    /// bank's table count disagrees with it.
    pub fn from_parts(cfg: TageConfig, provider: ProviderStack) -> Self {
        cfg.validate();
        assert_eq!(
            provider.bank().len(),
            cfg.num_tagged,
            "provider bank disagrees with the configuration"
        );
        Self {
            provider,
            ghist: GlobalHistory::new(),
            path: PathHistory::new(cfg.path_bits),
            interleave: None,
            cfg,
            stats: AccessStats::default(),
        }
    }

    /// Switches the predictor tables to 4-way bank-interleaved
    /// single-ported arrays (§4.3). The same (PC, history) pair may now
    /// map to up to four distinct entries depending on the banks used by
    /// the two previous predictions.
    pub fn with_interleaving(mut self) -> Self {
        self.enable_interleaving();
        self
    }

    /// In-place variant of [`Tage::with_interleaving`].
    pub fn enable_interleaving(&mut self) {
        self.interleave = Some(Interleave::default());
    }

    /// Whether bank interleaving is enabled.
    pub fn is_interleaved(&self) -> bool {
        self.interleave.is_some()
    }

    /// Bank conflict statistics, if interleaved.
    pub fn conflict_stats(&self) -> Option<&ConflictModel> {
        self.interleave.as_ref().map(|i| &i.conflicts)
    }

    /// The §3.4 reference 64 KB predictor.
    pub fn reference_64kb() -> Self {
        Self::new(TageConfig::reference_64kb())
    }

    /// Configuration in use.
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// The decomposed provider (sub-stage access, per-stage budget).
    pub fn provider(&self) -> &ProviderStack {
        &self.provider
    }

    /// Fraction of useful bits currently set, per table (diagnostics).
    pub fn useful_fractions(&self) -> Vec<f64> {
        self.provider.bank().useful_fractions()
    }

    /// Current `USE_ALT_ON_NA` value (0 when a stateless chooser policy
    /// is installed).
    pub fn use_alt_on_na(&self) -> i16 {
        self.provider.chooser().alt_on_weak_bias().unwrap_or(0)
    }

    /// Derives provider/alternate fields from per-table hit data.
    fn resolve(
        base: BaseRead,
        ctrs: &[i16; MAX_TAGGED],
        us: &[bool; MAX_TAGGED],
        hits: u16,
        num_tagged: usize,
    ) -> UpdateView {
        let mut provider = None;
        let mut alt = None;
        for t in (0..num_tagged).rev() {
            if hits & (1 << t) != 0 {
                if provider.is_none() {
                    provider = Some(t as u8);
                } else {
                    alt = Some(t as u8);
                    break;
                }
            }
        }
        let alt_pred = match alt {
            Some(t) => ctrs[t as usize] >= 0,
            None => base.pred,
        };
        let (provider_pred, weak) = match provider {
            Some(t) => {
                let c = ctrs[t as usize];
                (c >= 0, c == 0 || c == -1)
            }
            None => (base.pred, false),
        };
        UpdateView {
            base,
            ctrs: *ctrs,
            us: *us,
            provider,
            alt,
            provider_pred,
            alt_pred,
            weak,
        }
    }

    /// Builds an [`UpdateView`] by re-reading the tables at the flight's
    /// indices (retire-time re-read, scenarios \[I\]/\[A\] and
    /// mispredicted \[C\]).
    fn reread_view(&self, flight: &TageFlight) -> UpdateView {
        let base = self.provider.base().read_index(flight.base.index);
        let mut ctrs = [0i16; MAX_TAGGED];
        let mut us = [false; MAX_TAGGED];
        let hits =
            self.provider.bank().read_flight(&flight.indices, &flight.tags, &mut ctrs, &mut us);
        Self::resolve(base, &ctrs, &us, hits, self.cfg.num_tagged)
    }

    fn snapshot_view(&self, flight: &TageFlight) -> UpdateView {
        UpdateView {
            base: flight.base,
            ctrs: flight.ctrs,
            us: flight.us,
            provider: flight.provider,
            alt: flight.alt,
            provider_pred: flight.provider_pred,
            alt_pred: flight.alt_pred,
            weak: flight.weak,
        }
    }
}

impl Predictor for Tage {
    type Flight = TageFlight;

    fn name(&self) -> String {
        format!(
            "tage-{}c-{}Kbit{}",
            self.cfg.num_tagged + 1,
            (self.storage_bits() + 512) / 1024,
            self.provider.decoration()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.provider.storage_bits()
    }

    fn predict(&mut self, b: &BranchInfo) -> (bool, TageFlight) {
        self.stats.predict_reads += 1;
        let bank = self.interleave.as_mut().map(|il| {
            let bk = il.selector.bank(b.pc);
            il.conflicts.tick(bk);
            bk
        });
        let base = match bank {
            Some(bk) => {
                let idx = interleaved_index(
                    self.provider.base().index(b.pc),
                    bk,
                    self.provider.base().size_bits(),
                );
                self.provider.base().read_index(idx)
            }
            None => self.provider.base().read(b.pc),
        };
        let mut flight = TageFlight {
            base,
            indices: [0; MAX_TAGGED],
            tags: [0; MAX_TAGGED],
            ctrs: [0; MAX_TAGGED],
            us: [false; MAX_TAGGED],
            hits: 0,
            provider: None,
            alt: None,
            provider_pred: base.pred,
            alt_pred: base.pred,
            tage_pred: base.pred,
            weak: false,
        };
        // Compute every component's index and tag (pure hashing), then
        // read the entries.
        self.provider.bank().compute_keys(
            b.pc,
            &self.path,
            bank,
            &mut flight.indices,
            &mut flight.tags,
        );
        flight.hits = self.provider.bank().read_flight(
            &flight.indices,
            &flight.tags,
            &mut flight.ctrs,
            &mut flight.us,
        );
        let view =
            Self::resolve(base, &flight.ctrs, &flight.us, flight.hits, self.cfg.num_tagged);
        flight.provider = view.provider;
        flight.alt = view.alt;
        flight.provider_pred = view.provider_pred;
        flight.alt_pred = view.alt_pred;
        flight.weak = view.weak;
        flight.tage_pred = self.provider.chooser().choose(&view.chooser_view(b.pc));
        (flight.tage_pred, flight)
    }

    fn fetch_commit(&mut self, b: &BranchInfo, outcome: bool, _flight: &mut TageFlight) {
        self.ghist.push(outcome);
        self.provider.bank_mut().update_history(&self.ghist);
        self.provider.base_mut().update_history(&self.ghist);
        self.path.push(b.pc);
    }

    fn retire(
        &mut self,
        b: &BranchInfo,
        outcome: bool,
        predicted: bool,
        flight: TageFlight,
        scenario: UpdateScenario,
    ) {
        let mispredicted = predicted != outcome;
        if scenario.counts_retire_read(mispredicted) {
            self.stats.retire_reads += 1;
        }
        let view = if scenario.reread_at_retire(mispredicted) {
            self.reread_view(&flight)
        } else {
            self.snapshot_view(&flight)
        };

        match view.provider {
            Some(p) => {
                let p = p as usize;
                let idx = flight.indices[p] as usize;
                // Provider entry update: counter always moves toward the
                // outcome (§3.2); the useful bit is set when the provider
                // was correct and the alternate was not.
                let set_u = view.provider_pred != view.alt_pred && view.provider_pred == outcome;
                self.provider.bank_mut().train_provider(
                    p,
                    idx,
                    view.ctrs[p],
                    outcome,
                    set_u,
                    &mut self.stats,
                );
                // Train the base when it was the effective alternate of a
                // weak provider (keeps the default prediction fresh).
                if view.weak && view.alt.is_none() {
                    self.provider.base_mut().update(view.base, outcome, &mut self.stats);
                }
            }
            None => {
                self.provider.base_mut().update(view.base, outcome, &mut self.stats);
            }
        }
        // The chooser learns from every retire-time view (the policies
        // gate themselves; `USE_ALT_ON_NA` trains only on discriminating
        // weak-provider cases, §3.1).
        self.provider.chooser_mut().update(&view.chooser_view(b.pc), outcome);

        // Allocation on TAGE mispredictions (§3.2.1). The trigger is the
        // *fetch-time* TAGE prediction: that is what steered the pipeline.
        if flight.tage_pred != outcome {
            let first = match view.provider {
                Some(p) => p as usize + 1,
                None => 0,
            };
            self.provider.bank_mut().allocate(
                &flight.indices,
                &flight.tags,
                &view.us,
                first,
                outcome,
                &mut self.stats,
            );
        }
    }

    fn note_uncond(&mut self, b: &BranchInfo) {
        if let Some(il) = &mut self.interleave {
            il.selector.note_uncond();
        }
        self.path.push(b.pc);
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TageConfig;

    fn small_cfg() -> TageConfig {
        TageConfig {
            num_tagged: 6,
            l1: 4,
            lmax: 128,
            bimodal_bits: 10,
            hysteresis_shift: 2,
            table_size_bits: vec![9; 6],
            tag_widths: vec![8, 9, 10, 11, 12, 12],
            ctr_bits: 3,
            max_alloc: 4,
            path_bits: 16,
        }
    }

    fn small() -> Tage {
        Tage::new(small_cfg())
    }

    fn drive(p: &mut Tage, pc: u64, outcome: bool) -> bool {
        let b = BranchInfo::conditional(pc);
        let (pred, mut f) = p.predict(&b);
        p.fetch_commit(&b, outcome, &mut f);
        p.retire(&b, outcome, pred, f, UpdateScenario::Immediate);
        pred
    }

    #[test]
    fn learns_bias() {
        let mut p = small();
        let mut wrong = 0;
        for i in 0..500 {
            if !drive(&mut p, 0x400, true) && i > 20 {
                wrong += 1;
            }
        }
        assert!(wrong < 5, "wrong={wrong}");
    }

    #[test]
    fn learns_alternation_beyond_bimodal() {
        let mut p = small();
        let mut wrong = 0;
        for i in 0..2000 {
            let out = i % 2 == 0;
            if drive(&mut p, 0x400, out) != out && i > 500 {
                wrong += 1;
            }
        }
        assert!(wrong < 20, "TAGE should learn alternation, wrong={wrong}");
    }

    #[test]
    fn learns_medium_period_pattern() {
        // Period-20 pattern, quiet context: needs tagged tables with
        // history ≥ 20 — beyond bimodal, easy for TAGE.
        let mut rng = simkit::rng::Xoshiro256::seed_from(11);
        let pattern: Vec<bool> = (0..20).map(|_| rng.gen_bool(0.5)).collect();
        let mut p = small();
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..8000 {
            let out = pattern[i % 20];
            if drive(&mut p, 0x800, out) != out && i > 4000 {
                wrong += 1;
            }
            if i > 4000 {
                total += 1;
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!(rate < 0.05, "pattern misprediction rate {rate}");
    }

    #[test]
    fn allocation_promotes_to_longer_tables() {
        let mut p = small();
        // Alternation forces mispredictions on the bimodal, triggering
        // allocation into tagged tables.
        for i in 0..200 {
            drive(&mut p, 0x400, i % 2 == 0);
        }
        let b = BranchInfo::conditional(0x400);
        let (_, f) = p.predict(&b);
        assert!(f.provider.is_some(), "tagged provider expected after training");
    }

    #[test]
    fn storage_matches_config() {
        let p = Tage::reference_64kb();
        assert_eq!(p.storage_bits(), 65_408 * 8);
        assert!(p.name().contains("13c"));
        // The decomposed provider budget rows sum to the same total.
        let budget = p.provider().budget();
        assert_eq!(budget.iter().map(|(_, b)| b).sum::<u64>(), p.storage_bits());
    }

    #[test]
    fn silent_updates_dominate_on_predictable_stream() {
        let mut p = small();
        for i in 0..5000 {
            drive(&mut p, 0x600, i % 4 != 3); // pattern 1110
        }
        let s = p.stats();
        assert!(
            s.silent_fraction() > 0.5,
            "most updates should be silent on a learned stream: {:?}",
            s
        );
    }

    #[test]
    fn scenario_b_counter_advances_once_per_snapshot() {
        let mut p = small();
        // Train a tagged provider first.
        for i in 0..400 {
            drive(&mut p, 0x400, i % 2 == 0);
        }
        let b = BranchInfo::conditional(0x400);
        let (pred, f) = p.predict(&b);
        let prov = f.provider.expect("provider");
        let before = f.ctrs[prov as usize];
        // Two retires from the same snapshot (two in-flight occurrences).
        p.retire(&b, true, pred, f, UpdateScenario::FetchOnly);
        p.retire(&b, true, pred, f, UpdateScenario::FetchOnly);
        let (_, f2) = p.predict(&b);
        if f2.provider == Some(prov) && f2.indices[prov as usize] == f.indices[prov as usize] {
            let after = f2.ctrs[prov as usize];
            assert!(
                after - before <= 1,
                "counter advanced {} under stale snapshots",
                after - before
            );
        }
    }

    #[test]
    fn u_bits_eventually_reset_under_pressure() {
        let mut p = small();
        let mut rng = simkit::rng::Xoshiro256::seed_from(12);
        // Random outcomes over many PCs: constant allocation pressure.
        for _ in 0..60_000 {
            let pc = 0x1000 + (rng.gen_range(512) << 4);
            drive(&mut p, pc, rng.gen_bool(0.5));
        }
        // After heavy churn the useful fractions must be sane (< 1.0,
        // i.e. resets happened and the predictor did not lock up).
        for f in p.useful_fractions() {
            assert!(f < 0.9, "useful bits saturated: {f}");
        }
    }

    #[test]
    fn provider_entry_identity() {
        let mut p = small();
        for i in 0..400 {
            drive(&mut p, 0x400, i % 2 == 0);
        }
        let b = BranchInfo::conditional(0x400);
        let (_, f) = p.predict(&b);
        let (comp, idx) = f.provider_entry();
        if let Some(t) = f.provider {
            assert_eq!(comp, t + 1);
            assert_eq!(idx, f.indices[t as usize]);
        } else {
            assert_eq!(comp, 0);
        }
    }

    #[test]
    fn provider_centered_is_odd_and_signed() {
        let mut p = small();
        for _ in 0..50 {
            drive(&mut p, 0x700, true);
        }
        let b = BranchInfo::conditional(0x700);
        let (pred, f) = p.predict(&b);
        let c = f.provider_centered();
        assert_eq!(c >= 0, pred);
        assert_eq!(c.rem_euclid(2), 1, "centered value must be odd: {c}");
    }

    #[test]
    fn chooser_policies_still_learn_the_stream() {
        // Every chooser policy must leave the core learning machinery
        // intact: a biased branch trains to near-perfect prediction.
        for chooser in
            [ChooserChoice::AltOnWeak, ChooserChoice::AlwaysProvider, ChooserChoice::Confidence]
        {
            let mut p = Tage::with_choices(small_cfg(), BaseChoice::default(), chooser);
            let mut wrong = 0;
            for i in 0..2000 {
                let out = i % 2 == 0;
                if drive(&mut p, 0x400, out) != out && i > 500 {
                    wrong += 1;
                }
            }
            assert!(wrong < 40, "{chooser:?}: wrong={wrong}");
        }
    }

    #[test]
    fn base_ablations_still_learn_the_stream() {
        for base in [BaseChoice::Bimodal, BaseChoice::TwoBit, BaseChoice::Gshare] {
            let mut p = Tage::with_choices(small_cfg(), base, ChooserChoice::default());
            let mut wrong = 0;
            for i in 0..500 {
                if !drive(&mut p, 0x400, true) && i > 50 {
                    wrong += 1;
                }
            }
            assert!(wrong < 10, "{base:?}: wrong={wrong}");
        }
    }

    #[test]
    fn decomposed_names_decorate_only_non_defaults() {
        assert_eq!(Tage::reference_64kb().name(), "tage-13c-511Kbit");
        let ablated = Tage::with_choices(
            TageConfig::reference_64kb(),
            BaseChoice::Gshare,
            ChooserChoice::AlwaysProvider,
        );
        // gshare base: 2 bits × 32K entries = 65,536 base bits
        // (+ 482,304 tagged = 547,840 total → 535 Kbit rounded).
        assert_eq!(ablated.name(), "tage-13c-535Kbit(base=gshare,chooser=always)");
    }

    #[test]
    fn always_provider_never_consults_the_alternate() {
        // With the always-provider chooser, a weak provider's prediction
        // must be used verbatim — flight.tage_pred == provider_pred.
        let mut p = Tage::with_choices(
            small_cfg(),
            BaseChoice::default(),
            ChooserChoice::AlwaysProvider,
        );
        let mut rng = simkit::rng::Xoshiro256::seed_from(13);
        for _ in 0..3000 {
            let pc = 0x400 + (rng.gen_range(64) << 2);
            let b = BranchInfo::conditional(pc);
            let (pred, mut f) = p.predict(&b);
            assert_eq!(pred, f.provider_pred);
            let out = rng.gen_bool(0.5);
            p.fetch_commit(&b, out, &mut f);
            p.retire(&b, out, pred, f, UpdateScenario::Immediate);
        }
        assert_eq!(p.use_alt_on_na(), 0, "stateless chooser reports no bias");
    }
}
