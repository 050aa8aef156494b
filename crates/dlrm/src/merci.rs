//! MERCI sub-query memoization (Lee et al., ASPLOS'21; Sec. VI-D).
//!
//! MERCI clusters correlated items and memoizes the partial sums of item
//! groups that co-occur. We implement the pair-clustered form: items `2p`
//! and `2p+1` form cluster `p`; memoization tables sized at 0.25× the
//! embedding table hold the precomputed sums of the *hottest quarter* of
//! pairs (our Zipf samplers make low ids hot, so that is simply
//! `p < rows/4`). A reduction plan replaces every memoized co-occurring
//! pair with a single memo-table read — fewer memory accesses for the same
//! mathematical result.

use rambda_workloads::{DlrmProfile, DlrmQuery, Zipf};

use rambda_des::SimRng;

use crate::model::EmbeddingTable;
#[cfg(test)]
use crate::model::ReduceOp;

/// The cover bound of a `rows`-row embedding table: pairs `p < memo_cover(rows)`
/// are memoized. The hottest quarter of the `rows / 2` pairs gives a memo
/// footprint of 0.25× the embedding table.
pub fn memo_cover(rows: usize) -> u32 {
    (rows / 4) as u32
}

/// The memoization table: precomputed sums for pairs `p < memo_pairs`.
#[derive(Debug, Clone)]
pub struct MemoTable {
    memo_pairs: u32,
    entries: Vec<Vec<f32>>,
}

impl MemoTable {
    /// Builds the memo table over the pairs [`memo_cover`] names.
    pub fn build(table: &EmbeddingTable) -> Self {
        let memo_pairs = memo_cover(table.len());
        let entries = (0..memo_pairs)
            .map(|p| {
                let a = table.row(2 * p);
                let b = table.row(2 * p + 1);
                a.iter().zip(b).map(|(x, y)| x + y).collect()
            })
            .collect();
        MemoTable { memo_pairs, entries }
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pairs are memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memory footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len() as u64 * 4).sum()
    }

    /// The memoized sum of pair `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not covered.
    pub fn entry(&self, pair: u32) -> &[f32] {
        &self.entries[pair as usize]
    }
}

/// The lookup plan for one query: which pairs come from the memo table and
/// which rows are read individually.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionPlan {
    /// Memoized pair reads.
    pub memo_pairs: Vec<u32>,
    /// Individual row reads.
    pub singles: Vec<u32>,
}

impl ReductionPlan {
    /// Builds the plan: co-occurring memoized pairs collapse to one read.
    pub fn build(query: &DlrmQuery, memo: &MemoTable) -> Self {
        Self::with_cover(query, memo.memo_pairs)
    }

    /// Builds the plan for pairs `p < cover` memoized (see [`memo_cover`]),
    /// without the memo table's values.
    pub fn with_cover(query: &DlrmQuery, cover: u32) -> Self {
        let mut memo_pairs = Vec::new();
        let mut singles = Vec::new();
        let mut sorted = query.features.clone();
        sorted.sort_unstable();
        let mut i = 0;
        while i < sorted.len() {
            let f = sorted[i];
            let pair = f / 2;
            if i + 1 < sorted.len() && sorted[i + 1] == f + 1 && f.is_multiple_of(2) && pair < cover {
                memo_pairs.push(pair);
                i += 2;
            } else {
                singles.push(f);
                i += 1;
            }
        }
        ReductionPlan { memo_pairs, singles }
    }

    /// Memory lookups this plan performs.
    pub fn lookups(&self) -> usize {
        self.memo_pairs.len() + self.singles.len()
    }

    /// Base lookups the naive reduction would perform.
    pub fn base_lookups(&self) -> usize {
        self.memo_pairs.len() * 2 + self.singles.len()
    }

    /// Fraction of base lookups absorbed by memoization.
    pub fn memo_fraction(&self) -> f64 {
        let base = self.base_lookups();
        if base == 0 {
            0.0
        } else {
            (self.memo_pairs.len() * 2) as f64 / base as f64
        }
    }

    /// Executes the plan (sum reduction).
    ///
    /// # Panics
    ///
    /// Panics on an empty plan.
    pub fn reduce(&self, table: &EmbeddingTable, memo: &MemoTable) -> Vec<f32> {
        assert!(self.lookups() > 0, "cannot reduce an empty plan");
        let dim = table.dim();
        let mut acc = vec![0.0f32; dim];
        for &p in &self.memo_pairs {
            for (a, v) in acc.iter_mut().zip(memo.entry(p)) {
                *a += v;
            }
        }
        for &f in &self.singles {
            for (a, v) in acc.iter_mut().zip(table.row(f)) {
                *a += v;
            }
        }
        acc
    }
}

/// Samples a query with MERCI-style pair co-occurrence: pair ids follow the
/// profile's Zipf skew; each sampled pair emits both members with
/// probability [`co_occur`](DlrmProfile::co_occur), else one.
pub fn sample_correlated_query(
    profile: &DlrmProfile,
    functional_rows: u32,
    pair_zipf: &Zipf,
    rng: &mut SimRng,
) -> DlrmQuery {
    debug_assert_eq!(pair_zipf.n(), functional_rows as u64 / 2);
    let p = 1.0 / (profile.mean_features / 2.0).max(1.0);
    let mut features = Vec::new();
    loop {
        let pair = pair_zipf.sample(rng) as u32;
        if rng.chance(profile.co_occur) {
            features.push(2 * pair);
            features.push(2 * pair + 1);
        } else if rng.chance(0.5) {
            features.push(2 * pair);
        } else {
            features.push(2 * pair + 1);
        }
        if rng.chance(p) || features.len() >= 512 {
            break;
        }
    }
    DlrmQuery { features }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EmbeddingTable, MemoTable) {
        let table = EmbeddingTable::synthetic(1000, 16);
        let memo = MemoTable::build(&table);
        (table, memo)
    }

    #[test]
    fn memo_table_is_quarter_sized() {
        let (table, memo) = setup();
        assert_eq!(memo.len(), 250);
        assert_eq!(memo.bytes() * 4, table.len() as u64 * table.row_bytes());
    }

    #[test]
    fn memo_entries_are_pair_sums() {
        let (table, memo) = setup();
        let e = memo.entry(3);
        for (c, &got) in e.iter().enumerate() {
            let want = table.row(6)[c] + table.row(7)[c];
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn plan_collapses_covered_pairs_only() {
        let (_, memo) = setup();
        // 10,11 = pair 5 (covered); 800,801 = pair 400 (not covered);
        // 20 alone.
        let q = DlrmQuery { features: vec![11, 800, 20, 10, 801] };
        let plan = ReductionPlan::build(&q, &memo);
        assert_eq!(plan.memo_pairs, vec![5]);
        let mut singles = plan.singles.clone();
        singles.sort_unstable();
        assert_eq!(singles, vec![20, 800, 801]);
        assert_eq!(plan.lookups(), 4);
        assert_eq!(plan.base_lookups(), 5);
        assert!((plan.memo_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn odd_even_boundary_pairs_do_not_collapse() {
        let (_, memo) = setup();
        // 11,12 are adjacent ids but belong to different pairs.
        let q = DlrmQuery { features: vec![11, 12] };
        let plan = ReductionPlan::build(&q, &memo);
        assert!(plan.memo_pairs.is_empty());
        assert_eq!(plan.singles.len(), 2);
    }

    #[test]
    fn memoized_reduce_equals_naive_reduce() {
        let (table, memo) = setup();
        let q = DlrmQuery { features: vec![0, 1, 2, 3, 7, 500, 501, 999] };
        let plan = ReductionPlan::build(&q, &memo);
        assert!(plan.lookups() < q.len());
        let fast = plan.reduce(&table, &memo);
        let naive = table.reduce(&q.features, ReduceOp::Sum);
        for (a, b) in fast.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn correlated_queries_hit_the_memo() {
        let profile = DlrmProfile::by_name("Books").unwrap();
        let rows = 10_000u32;
        let pair_zipf = Zipf::new(rows as u64 / 2, profile.zipf_theta);
        let (_, memo) = {
            let t = EmbeddingTable::synthetic(rows as usize, 8);
            let m = MemoTable::build(&t);
            (t, m)
        };
        let mut rng = SimRng::seed(11);
        let mut base = 0usize;
        let mut memoized = 0usize;
        let mut lens = 0usize;
        let n = 500;
        for _ in 0..n {
            let q = sample_correlated_query(&profile, rows, &pair_zipf, &mut rng);
            lens += q.len();
            let plan = ReductionPlan::build(&q, &memo);
            base += plan.base_lookups();
            memoized += plan.memo_pairs.len() * 2;
        }
        let frac = memoized as f64 / base as f64;
        // Books targets ~0.55 memoized lookups; the emergent rate should be
        // in the neighbourhood.
        assert!((0.35..0.75).contains(&frac), "memo fraction={frac}");
        let mean_len = lens as f64 / n as f64;
        let rel = (mean_len - profile.mean_features).abs() / profile.mean_features;
        assert!(rel < 0.25, "mean query length {mean_len}");
    }
}
