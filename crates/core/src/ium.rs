//! The Immediate Update Mimicker (§5.1).
//!
//! On a real processor the predictor tables are only updated at retire, so
//! a hot entry can supply several stale predictions in a row. The IUM
//! tracks, for every in-flight branch, *which predictor entry* provided its
//! prediction. When a new prediction comes from the same (component, entry)
//! as branches that have **already executed but not yet retired**, the IUM
//! replays those branches' actual outcomes, oldest first, onto the entry's
//! stale counter value ([`Ium::replay`]); the mimicked counter's direction
//! is what an immediately updated table would have predicted. At most
//! [`MAX_REPLAY`] (64) matching outcomes are replayed per prediction.
//!
//! Implemented as the paper describes: a small fully-associative structure
//! with one entry per in-flight branch, managed as a circular buffer (the
//! same repair discipline as the global history: mispredictions reinitialize
//! the head, which trace-driven simulation models implicitly). The ring is
//! stored as two packed arrays — the provider-entry key and the P/E state —
//! so the per-prediction scan is one 64-bit compare per in-flight branch.

/// Most executed outcomes [`Ium::replay`] applies to one prediction.
pub const MAX_REPLAY: usize = 64;

/// `flags` bit: the branch has executed (the P→E transition).
const EXECUTED: u8 = 1;
/// `flags` bit: the branch's resolved outcome (valid once executed).
const TAKEN: u8 = 2;

/// The Immediate Update Mimicker.
#[derive(Clone, Debug)]
pub struct Ium {
    // INVARIANT: the slots of sequence numbers `tail_seq..head_seq` hold
    // the live in-flight records, oldest first; every other slot is dead
    // and never read.
    /// Provider entry of each in-flight branch, `comp << 32 | index`.
    keys: Vec<u64>,
    /// P/E state of each in-flight branch: [`EXECUTED`] | [`TAKEN`].
    flags: Vec<u8>,
    head_seq: u64,
    tail_seq: u64,
    overrides: u64,
}

#[inline]
fn key(comp: u8, index: u32) -> u64 {
    u64::from(comp) << 32 | u64::from(index)
}

impl Ium {
    /// An IUM with capacity for `capacity` in-flight branches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "IUM capacity must be a power of two");
        let (keys, flags) = (vec![0; capacity], vec![0; capacity]);
        Self { keys, flags, head_seq: 0, tail_seq: 0, overrides: 0 }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq as usize) & (self.keys.len() - 1)
    }

    /// Calls `f` with the outcome of every **executed, not yet retired**
    /// occurrence of entry (component, index), oldest first, stopping
    /// after [`MAX_REPLAY`] of them; returns how many it replayed. These
    /// are the updates an immediately updated table would already have
    /// absorbed — the caller applies them to the stale counter value to
    /// *mimic* the immediate update (§5.1).
    #[inline]
    pub fn replay(&self, comp: u8, index: u32, mut f: impl FnMut(bool)) -> usize {
        let want = key(comp, index);
        let mut n = 0;
        for seq in self.tail_seq..self.head_seq {
            let slot = self.slot(seq);
            let flags = self.flags[slot];
            if self.keys[slot] == want && flags & EXECUTED != 0 {
                f(flags & TAKEN != 0);
                n += 1;
                if n == MAX_REPLAY {
                    break;
                }
            }
        }
        n
    }

    /// Notes that a mimicked prediction differed from the stale one.
    pub fn note_override(&mut self) {
        self.overrides += 1;
    }

    /// Records a fetched branch's provider entry. Returns the sequence
    /// handle used by [`Ium::mark_executed`].
    pub fn push(&mut self, comp: u8, index: u32) -> u64 {
        if self.head_seq - self.tail_seq >= self.keys.len() as u64 {
            // The window outran the buffer: retire the oldest record.
            self.retire_oldest();
        }
        let seq = self.head_seq;
        let slot = self.slot(seq);
        self.keys[slot] = key(comp, index);
        self.flags[slot] = 0;
        self.head_seq += 1;
        seq
    }

    /// Marks an in-flight branch executed with its resolved outcome.
    /// Handles of records already retired (or force-retired by an
    /// overflowing [`Ium::push`]) are ignored.
    pub fn mark_executed(&mut self, seq: u64, outcome: bool) {
        if seq >= self.tail_seq && seq < self.head_seq {
            let slot = self.slot(seq);
            self.flags[slot] = EXECUTED | if outcome { TAKEN } else { 0 };
        }
    }

    /// Retires the oldest in-flight branch (records leave the window in
    /// program order).
    pub fn retire_oldest(&mut self) {
        if self.tail_seq < self.head_seq {
            self.tail_seq += 1;
        }
    }

    /// Number of predictions the IUM has overridden so far.
    pub fn override_count(&self) -> u64 {
        self.overrides
    }

    /// Live in-flight records.
    pub fn len(&self) -> usize {
        (self.head_seq - self.tail_seq) as usize
    }

    /// True when no branch is in flight.
    pub fn is_empty(&self) -> bool {
        self.head_seq == self.tail_seq
    }

    /// Storage estimate in bits: component (4) + index (24) + P/E (1) +
    /// outcome (1) per in-flight entry.
    pub fn storage_bits(&self) -> u64 {
        self.keys.len() as u64 * 30
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn replayed(ium: &Ium, comp: u8, index: u32) -> Vec<bool> {
        let mut out = Vec::new();
        let n = ium.replay(comp, index, |o| out.push(o));
        assert_eq!(n, out.len());
        out
    }

    #[test]
    fn only_executed_entries_replay() {
        let mut ium = Ium::new(8);
        let seq = ium.push(3, 0x55);
        assert!(replayed(&ium, 3, 0x55).is_empty(), "not executed yet");
        ium.mark_executed(seq, true);
        assert_eq!(replayed(&ium, 3, 0x55), [true]);
        assert_eq!(ium.override_count(), 0, "replay is a read");
    }

    #[test]
    fn replays_oldest_first() {
        let mut ium = Ium::new(8);
        let a = ium.push(1, 9);
        let b = ium.push(1, 9);
        let c = ium.push(1, 9);
        ium.mark_executed(c, true);
        ium.mark_executed(a, false);
        assert_eq!(replayed(&ium, 1, 9), [false, true], "program order, unexecuted skipped");
        ium.mark_executed(b, true);
        assert_eq!(replayed(&ium, 1, 9), [false, true, true]);
    }

    #[test]
    fn retired_entries_stop_matching() {
        let mut ium = Ium::new(8);
        let seq = ium.push(2, 7);
        ium.mark_executed(seq, true);
        ium.retire_oldest();
        assert!(replayed(&ium, 2, 7).is_empty());
        assert!(ium.is_empty());
    }

    #[test]
    fn different_entries_do_not_match() {
        let mut ium = Ium::new(8);
        let seq = ium.push(2, 7);
        ium.mark_executed(seq, true);
        assert!(replayed(&ium, 2, 8).is_empty());
        assert!(replayed(&ium, 3, 7).is_empty());
    }

    #[test]
    fn overflow_retires_oldest() {
        let mut ium = Ium::new(4);
        let seqs: Vec<u64> = (0..6).map(|i| ium.push(0, i)).collect();
        assert_eq!(ium.len(), 4);
        // The two oldest were force-retired: their handles are stale.
        ium.mark_executed(seqs[0], true);
        assert!(replayed(&ium, 0, 0).is_empty());
        ium.mark_executed(seqs[5], true);
        assert_eq!(replayed(&ium, 0, 5), [true]);
    }

    #[test]
    fn storage_is_small() {
        assert!(Ium::new(64).storage_bits() < 4096);
    }

    /// The obvious model: live records in a `Vec`, oldest first.
    struct Naive {
        capacity: usize,
        base: u64,
        live: Vec<(u8, u32, Option<bool>)>,
    }

    impl Naive {
        fn push(&mut self, comp: u8, index: u32) -> u64 {
            if self.live.len() == self.capacity {
                self.retire_oldest();
            }
            self.live.push((comp, index, None));
            self.base + self.live.len() as u64 - 1
        }

        fn mark_executed(&mut self, seq: u64, outcome: bool) {
            if let Some(i) = seq.checked_sub(self.base) {
                if let Some(r) = self.live.get_mut(i as usize) {
                    r.2 = Some(outcome);
                }
            }
        }

        fn retire_oldest(&mut self) {
            if !self.live.is_empty() {
                self.live.remove(0);
                self.base += 1;
            }
        }

        fn replay(&self, comp: u8, index: u32) -> Vec<bool> {
            self.live
                .iter()
                .filter(|r| r.0 == comp && r.1 == index)
                .filter_map(|r| r.2)
                .take(MAX_REPLAY)
                .collect()
        }
    }

    proptest! {
        #[test]
        fn replay_matches_a_naive_reference(
            cap_log in 0usize..3,
            ops in vec(((0u8..8, 0u8..3, any::<bool>()), 0u64..140), 1usize..600),
        ) {
            let capacity = [4, 64, 128][cap_log];
            let mut ium = Ium::new(capacity);
            let mut naive = Naive { capacity, base: 0, live: Vec::new() };
            let mut issued = 0u64;
            for ((op, entry, outcome), back) in ops {
                // Three entries keep matches frequent; pushes dominate so
                // the ring fills and overflows.
                let (comp, index) = (entry, u32::from(entry) * 3);
                match op {
                    0..=3 => {
                        prop_assert_eq!(ium.push(comp, index), naive.push(comp, index));
                        issued += 1;
                    }
                    4..=6 => {
                        // Any handle ever issued, stale ones included.
                        if let Some(seq) = issued.checked_sub(1 + back) {
                            ium.mark_executed(seq, outcome);
                            naive.mark_executed(seq, outcome);
                        }
                    }
                    _ => {
                        ium.retire_oldest();
                        naive.retire_oldest();
                    }
                }
                prop_assert_eq!(ium.len(), naive.live.len());
                for e in 0..3u8 {
                    let (comp, index) = (e, u32::from(e) * 3);
                    prop_assert_eq!(replayed(&ium, comp, index), naive.replay(comp, index));
                }
            }
        }

        #[test]
        fn replay_stops_at_the_cap(n in 65usize..=128, outcomes in vec(any::<bool>(), 128)) {
            let mut ium = Ium::new(128);
            for &o in &outcomes[..n] {
                let seq = ium.push(4, 0x1234);
                ium.mark_executed(seq, o);
            }
            prop_assert_eq!(replayed(&ium, 4, 0x1234), outcomes[..MAX_REPLAY].to_vec());
        }
    }
}
