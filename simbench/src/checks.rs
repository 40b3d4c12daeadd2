//! Correctness bookkeeping: cells attempted, and which of them failed.

use std::collections::BTreeMap;

/// Cells attempted and cells failed. A cell execution is identified by
/// (repetition, cell index); it counts as failed once however many of
/// its checks fail.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: BTreeMap<(u32, usize), String>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Records `n` more cell executions.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Marks cell `cell` of repetition `rep` failed; the first reason
    /// given is kept.
    pub fn fail(&mut self, rep: u32, cell: usize, why: impl Into<String>) {
        self.failed.entry((rep, cell)).or_insert_with(|| why.into());
    }

    /// Marks every cell of repetition `rep` whose digest differs from
    /// the reference repetition's.
    pub fn compare_digests(&mut self, rep: u32, reference: &[u64], got: &[u64]) {
        assert_eq!(
            reference.len(),
            got.len(),
            "repetitions differ in cell count"
        );
        for (cell, (r, g)) in reference.iter().zip(got).enumerate() {
            if r != g {
                self.fail(
                    rep,
                    cell,
                    format!("digest {g:#018x} differs from reference {r:#018x}"),
                );
            }
        }
    }

    /// Cell executions attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Cell executions that failed at least one check.
    pub fn failed(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Each failure with its (repetition, cell) and first reason.
    pub fn failures(&self) -> impl Iterator<Item = (&(u32, usize), &String)> {
        self.failed.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_digest_mismatch_fails_exactly_one_cell() {
        let mut ledger = Ledger::new();
        let reference = [1u64, 2, 3, 4];
        let mut forced = reference;
        forced[2] ^= 1;
        ledger.attempt(8);
        ledger.compare_digests(1, &reference, &reference);
        ledger.compare_digests(2, &reference, &forced);
        // A second failing check on the same cell does not count twice.
        ledger.fail(2, 2, "also wrong");
        assert_eq!(ledger.attempted(), 8);
        assert_eq!(ledger.failed(), 1);
        let (&(rep, cell), why) = ledger.failures().next().expect("one failure");
        assert_eq!((rep, cell), (2, 2));
        assert!(why.contains("differs from reference"), "{why}");
    }
}
