//! The result of profiling: every evaluated allocation plus the Pareto
//! boundary over (epoch time, epoch cost).

use crate::dominates;
use ce_models::{Allocation, CostBreakdown, TimeBreakdown};

/// One profiled allocation: `θ` with its predicted epoch time and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocPoint {
    /// The allocation.
    pub alloc: Allocation,
    /// Predicted epoch time breakdown `t'(θ)`.
    pub time: TimeBreakdown,
    /// Predicted epoch cost breakdown `c'(θ)`.
    pub cost: CostBreakdown,
}

impl AllocPoint {
    /// Epoch time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time.total()
    }

    /// Epoch cost in dollars.
    pub fn cost_usd(&self) -> f64 {
        self.cost.total()
    }
}

/// A profiled allocation space: all points plus the Pareto subset `P`.
#[derive(Debug, Clone)]
pub struct Profile {
    points: Vec<AllocPoint>,
    /// Indices into `points` forming the Pareto boundary, sorted by
    /// ascending epoch time (descending cost).
    boundary: Vec<usize>,
}

impl Profile {
    /// Builds a profile from evaluated points, extracting the boundary.
    pub fn from_points(points: Vec<AllocPoint>) -> Self {
        let boundary = pareto_boundary(&points);
        Profile { points, boundary }
    }

    /// Every evaluated allocation.
    pub fn points(&self) -> &[AllocPoint] {
        &self.points
    }

    /// The Pareto-optimal subset `P`, sorted by ascending epoch time.
    pub fn boundary(&self) -> Vec<&AllocPoint> {
        self.boundary.iter().map(|&i| &self.points[i]).collect()
    }

    /// Number of allocations pruned by the boundary.
    pub fn pruned_count(&self) -> usize {
        self.points.len() - self.boundary.len()
    }

    /// The boundary point with the lowest epoch cost (the slowest end).
    pub fn cheapest(&self) -> Option<&AllocPoint> {
        self.boundary.last().map(|&i| &self.points[i])
    }

    /// The boundary point with the lowest epoch time (the priciest end).
    pub fn fastest(&self) -> Option<&AllocPoint> {
        self.boundary.first().map(|&i| &self.points[i])
    }

    /// The cheapest boundary allocation whose epoch time is ≤ `jct_s`.
    pub fn cheapest_within_jct(&self, jct_s: f64) -> Option<&AllocPoint> {
        self.boundary()
            .into_iter()
            .filter(|p| p.time_s() <= jct_s)
            .min_by(|a, b| a.cost_usd().total_cmp(&b.cost_usd()))
    }

    /// The fastest boundary allocation whose epoch cost is ≤ `budget_usd`.
    pub fn fastest_within_cost(&self, budget_usd: f64) -> Option<&AllocPoint> {
        self.boundary()
            .into_iter()
            .filter(|p| p.cost_usd() <= budget_usd)
            .min_by(|a, b| a.time_s().total_cmp(&b.time_s()))
    }
}

/// Extracts the indices of the Pareto-optimal points, sorted by ascending
/// time. Duplicate (time, cost) pairs keep only the first occurrence.
fn pareto_boundary(points: &[AllocPoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .time_s()
            .total_cmp(&points[b].time_s())
            .then(points[a].cost_usd().total_cmp(&points[b].cost_usd()))
    });
    let mut boundary = Vec::new();
    let mut best_cost = f64::INFINITY;
    let mut last_time = f64::NEG_INFINITY;
    for idx in order {
        let (t, c) = (points[idx].time_s(), points[idx].cost_usd());
        if c < best_cost {
            // Equal-time points: only the first (cheapest) survives, which
            // the sort guarantees; skip exact duplicates of the last kept
            // point.
            if t == last_time && c >= best_cost {
                continue;
            }
            boundary.push(idx);
            best_cost = c;
            last_time = t;
        }
    }
    debug_assert!(is_mutually_nondominated(points, &boundary));
    boundary
}

fn is_mutually_nondominated(points: &[AllocPoint], boundary: &[usize]) -> bool {
    boundary.iter().all(|&i| {
        boundary.iter().all(|&j| {
            i == j
                || !dominates(
                    points[j].time_s(),
                    points[j].cost_usd(),
                    points[i].time_s(),
                    points[i].cost_usd(),
                )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_models::{Allocation, CostBreakdown, TimeBreakdown};
    use ce_storage::StorageKind;

    fn point(time: f64, cost: f64) -> AllocPoint {
        AllocPoint {
            alloc: Allocation::new(1, 512, StorageKind::S3),
            time: TimeBreakdown {
                load_s: 0.0,
                compute_s: time,
                sync_s: 0.0,
            },
            cost: CostBreakdown {
                invocation: 0.0,
                compute: cost,
                storage_requests: 0.0,
                storage_runtime: 0.0,
            },
        }
    }

    #[test]
    fn boundary_of_staircase() {
        // (1, 4) (2, 2) (3, 1) are non-dominated; (2.5, 3) and (4, 4) are
        // dominated.
        let profile = Profile::from_points(vec![
            point(2.5, 3.0),
            point(1.0, 4.0),
            point(3.0, 1.0),
            point(4.0, 4.0),
            point(2.0, 2.0),
        ]);
        let b = profile.boundary();
        let coords: Vec<(f64, f64)> = b.iter().map(|p| (p.time_s(), p.cost_usd())).collect();
        assert_eq!(coords, vec![(1.0, 4.0), (2.0, 2.0), (3.0, 1.0)]);
        assert_eq!(profile.pruned_count(), 2);
    }

    #[test]
    fn boundary_sorted_by_time_and_cost_antitone() {
        let profile = Profile::from_points(vec![
            point(5.0, 1.0),
            point(1.0, 5.0),
            point(3.0, 3.0),
            point(2.0, 4.0),
            point(4.0, 2.0),
        ]);
        let b = profile.boundary();
        for w in b.windows(2) {
            assert!(w[0].time_s() < w[1].time_s());
            assert!(w[0].cost_usd() > w[1].cost_usd());
        }
    }

    #[test]
    fn fastest_and_cheapest_ends() {
        let profile = Profile::from_points(vec![point(1.0, 4.0), point(2.0, 2.0), point(3.0, 1.0)]);
        assert_eq!(profile.fastest().unwrap().time_s(), 1.0);
        assert_eq!(profile.cheapest().unwrap().cost_usd(), 1.0);
    }

    #[test]
    fn constrained_selection() {
        let profile = Profile::from_points(vec![point(1.0, 4.0), point(2.0, 2.0), point(3.0, 1.0)]);
        // Cheapest with time <= 2.5 is (2, 2).
        let p = profile.cheapest_within_jct(2.5).unwrap();
        assert_eq!((p.time_s(), p.cost_usd()), (2.0, 2.0));
        // Fastest with cost <= 2.0 is also (2, 2).
        let p = profile.fastest_within_cost(2.0).unwrap();
        assert_eq!((p.time_s(), p.cost_usd()), (2.0, 2.0));
        // Infeasible constraints yield None.
        assert!(profile.cheapest_within_jct(0.5).is_none());
        assert!(profile.fastest_within_cost(0.5).is_none());
    }

    #[test]
    fn duplicates_collapse() {
        let profile = Profile::from_points(vec![point(1.0, 1.0), point(1.0, 1.0)]);
        assert_eq!(profile.boundary().len(), 1);
    }

    #[test]
    fn single_point_is_its_own_boundary() {
        let profile = Profile::from_points(vec![point(2.0, 3.0)]);
        assert_eq!(profile.boundary().len(), 1);
        assert_eq!(profile.pruned_count(), 0);
    }

    #[test]
    fn empty_profile() {
        let profile = Profile::from_points(vec![]);
        assert!(profile.boundary().is_empty());
        assert!(profile.fastest().is_none());
        assert!(profile.cheapest().is_none());
    }

    #[test]
    fn equal_time_points_keep_cheapest() {
        let profile = Profile::from_points(vec![point(1.0, 5.0), point(1.0, 2.0)]);
        let b = profile.boundary();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].cost_usd(), 2.0);
    }
}
