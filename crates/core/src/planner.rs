//! The query planner: a calibrated analytical cost model for the RCJ
//! algorithms, and the resolution of [`RcjAlgorithm::Auto`].
//!
//! The model is the one validated by the bench harness's cost-model
//! experiment (promoted here from `ringjoin_bench::experiments` so the
//! engine can plan with it): on data whose local density varies slowly,
//! the per-unit work of the join is *density-invariant* — the filter's
//! unpruned region shrinks as `1/sqrt(n)` exactly as fast as the data
//! densifies — so node accesses are **linear in the number of outer work
//! units**:
//!
//! * **INJ** performs one filter + one verification per *point* of `Q`;
//! * **BIJ/OBJ** perform one bulk filter + one verification per *leaf*
//!   of `T_Q`.
//!
//! Each algorithm therefore costs `filter_per_unit × units +
//! verify_per_unit × units` node reads, with per-phase constants
//! calibrated by measurement ([`JoinCostModel::calibrate`]; the
//! [`Default`] constants were measured on uniform data at `|P| = |Q| =
//! 12500`, 1 KB pages). [`JoinCostModel::choose`] picks the cheapest
//! algorithm — this is what [`RcjAlgorithm::Auto`] resolves to at plan
//! time, and what the engine's [`Plan`](crate::Plan) displays under
//! `explain`.
//!
//! The inputs are [`DatasetSummary`] values: O(1) catalog descriptions
//! ([`RcjIndex::summary`](crate::RcjIndex::summary)) — planning never
//! reads a page.

use crate::join::RcjAlgorithm;

/// Catalog-style description of one indexed dataset, the planner's view
/// of a join input. Obtained from
/// [`RcjIndex::summary`](crate::RcjIndex::summary) in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Index kind tag (`"rtree"`, `"quadtree"`).
    pub kind: &'static str,
    /// Number of indexed points.
    pub items: u64,
    /// Total index pages (nodes + overflow chains).
    pub pages: u64,
    /// Estimated number of *leaf* pages — the BIJ/OBJ work unit. An
    /// estimate (`items / leaf_capacity`, clamped to the page count):
    /// exact counts would need a traversal, and plan-time costing must
    /// not read pages.
    pub leaf_pages: u64,
}

impl DatasetSummary {
    /// Builds a summary, deriving the leaf-page estimate from the leaf
    /// capacity of the index's page layout.
    pub fn new(kind: &'static str, items: u64, pages: u64, leaf_capacity: u64) -> Self {
        let cap = leaf_capacity.max(1);
        DatasetSummary {
            kind,
            items,
            pages,
            leaf_pages: items.div_ceil(cap).clamp(1, pages.max(1)),
        }
    }
}

/// Calibrated per-unit node-read constants of one algorithm's two
/// phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseCost {
    /// Filter-phase node reads per outer work unit.
    pub filter_per_unit: f64,
    /// Verification-phase node reads per outer work unit.
    pub verify_per_unit: f64,
}

/// The calibrated cost model: one [`PhaseCost`] per algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinCostModel {
    /// INJ constants (per point of `Q`).
    pub inj: PhaseCost,
    /// BIJ constants (per leaf of `T_Q`).
    pub bij: PhaseCost,
    /// OBJ constants (per leaf of `T_Q`).
    pub obj: PhaseCost,
}

impl Default for JoinCostModel {
    /// Constants measured on uniform data (`|P| = |Q| = 12500`, 1 KB
    /// pages, R*-trees, the bench harness's measurement discipline) —
    /// the same calibration the `ext_costmodel` experiment validates at
    /// 2× and 4× scale. They transfer across sizes because the per-unit
    /// work is density-invariant (module docs); workloads with wildly
    /// different leaf occupancy should recalibrate.
    fn default() -> Self {
        JoinCostModel {
            inj: PhaseCost {
                filter_per_unit: 7.62,
                verify_per_unit: 9.59,
            },
            bij: PhaseCost {
                filter_per_unit: 27.77,
                verify_per_unit: 28.80,
            },
            obj: PhaseCost {
                filter_per_unit: 23.63,
                verify_per_unit: 28.76,
            },
        }
    }
}

/// The planner's costing of one algorithm on one workload — shown by
/// [`Plan`](crate::Plan)'s `Display`/`explain` output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanEstimate {
    /// The algorithm being costed.
    pub algorithm: RcjAlgorithm,
    /// Human-readable unit name (`"points(Q)"` or `"leaves(T_Q)"`).
    pub unit: &'static str,
    /// Number of outer work units.
    pub units: u64,
    /// Estimated filter-phase node reads.
    pub filter_reads: f64,
    /// Estimated verification-phase node reads.
    pub verify_reads: f64,
}

impl PlanEstimate {
    /// Estimated total node reads (filter + verify).
    pub fn total_reads(&self) -> f64 {
        self.filter_reads + self.verify_reads
    }
}

/// One measured data point for [`JoinCostModel::calibrate`].
#[derive(Clone, Copy, Debug)]
pub struct CalibrationSample {
    /// Algorithm the measurement ran.
    pub algorithm: RcjAlgorithm,
    /// Outer work units of the measured run ([`cost_units`]).
    pub units: u64,
    /// Measured filter-phase node reads
    /// ([`RcjStats::filter_node_reads`](crate::RcjStats::filter_node_reads)).
    pub filter_reads: u64,
    /// Measured verification-phase node reads
    /// ([`RcjStats::verify_node_visits`](crate::RcjStats::verify_node_visits)).
    pub verify_reads: u64,
}

/// The outer work units of an algorithm on a workload: points of `Q`
/// for INJ, leaves of `T_Q` for BIJ/OBJ (with the unit's display name).
pub fn cost_units(algorithm: RcjAlgorithm, outer: &DatasetSummary) -> (u64, &'static str) {
    match algorithm {
        RcjAlgorithm::Inj => (outer.items, "points(Q)"),
        _ => (outer.leaf_pages, "leaves(T_Q)"),
    }
}

/// The three concrete algorithms, in the planner's tie-break preference
/// order (the paper's winner first).
const CHOICES: [RcjAlgorithm; 3] = [RcjAlgorithm::Obj, RcjAlgorithm::Bij, RcjAlgorithm::Inj];

impl JoinCostModel {
    /// The per-unit constants of one concrete algorithm.
    ///
    /// # Panics
    /// Panics on [`RcjAlgorithm::Auto`] — `Auto` is a *request* to pick
    /// an algorithm, not an algorithm with a cost.
    pub fn phase_cost(&self, algorithm: RcjAlgorithm) -> PhaseCost {
        match algorithm {
            RcjAlgorithm::Inj => self.inj,
            RcjAlgorithm::Bij => self.bij,
            RcjAlgorithm::Obj => self.obj,
            RcjAlgorithm::Auto => panic!(
                "phase_cost(Auto): Auto is a request to choose an algorithm, \
                 not an algorithm with a cost — resolve it first (JoinCostModel::choose)"
            ),
        }
    }

    /// Costs one concrete algorithm on the workload described by the
    /// outer summary.
    pub fn estimate(&self, algorithm: RcjAlgorithm, outer: &DatasetSummary) -> PlanEstimate {
        let (units, unit) = cost_units(algorithm, outer);
        let c = self.phase_cost(algorithm);
        PlanEstimate {
            algorithm,
            unit,
            units,
            filter_reads: c.filter_per_unit * units as f64,
            verify_reads: c.verify_per_unit * units as f64,
        }
    }

    /// Costs all three concrete algorithms (OBJ, BIJ, INJ order).
    pub fn estimates(&self, outer: &DatasetSummary) -> [PlanEstimate; 3] {
        CHOICES.map(|a| self.estimate(a, outer))
    }

    /// Resolves [`RcjAlgorithm::Auto`]: the concrete algorithm with the
    /// smallest estimated total node reads, ties broken towards the
    /// paper's winner (OBJ, then BIJ, then INJ).
    pub fn choose(&self, outer: &DatasetSummary) -> RcjAlgorithm {
        let mut best = self.estimate(RcjAlgorithm::Obj, outer);
        for algo in [RcjAlgorithm::Bij, RcjAlgorithm::Inj] {
            let e = self.estimate(algo, outer);
            if e.total_reads() < best.total_reads() {
                best = e;
            }
        }
        best.algorithm
    }

    /// Builds a model from measured runs: for each algorithm, the
    /// constants are `reads / units` of its sample (the last sample wins
    /// if an algorithm appears twice; algorithms without a sample keep
    /// the [`Default`] constants). This is the calibration step of the
    /// bench harness's `ext_costmodel` experiment.
    pub fn calibrate(samples: &[CalibrationSample]) -> JoinCostModel {
        let mut model = JoinCostModel::default();
        for s in samples {
            let units = s.units.max(1) as f64;
            let cost = PhaseCost {
                filter_per_unit: s.filter_reads as f64 / units,
                verify_per_unit: s.verify_reads as f64 / units,
            };
            match s.algorithm {
                RcjAlgorithm::Inj => model.inj = cost,
                RcjAlgorithm::Bij => model.bij = cost,
                RcjAlgorithm::Obj => model.obj = cost,
                RcjAlgorithm::Auto => {}
            }
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(items: u64, pages: u64, cap: u64) -> DatasetSummary {
        DatasetSummary::new("rtree", items, pages, cap)
    }

    #[test]
    fn leaf_page_estimate_is_clamped_and_sane() {
        let s = summary(1000, 60, 25);
        assert_eq!(s.leaf_pages, 40);
        // Never more than the page count, never zero.
        assert_eq!(summary(10_000, 5, 25).leaf_pages, 5);
        assert_eq!(summary(0, 1, 25).leaf_pages, 1);
        // Zero capacity must not divide by zero.
        assert_eq!(DatasetSummary::new("rtree", 10, 3, 0).leaf_pages, 3);
    }

    #[test]
    fn estimates_scale_linearly_in_units() {
        let model = JoinCostModel::default();
        let small = summary(1000, 60, 25);
        let big = summary(4000, 240, 25);
        for algo in CHOICES {
            let e1 = model.estimate(algo, &small);
            let e4 = model.estimate(algo, &big);
            assert!((e4.total_reads() / e1.total_reads() - 4.0).abs() < 1e-9);
            assert!(e1.filter_reads > 0.0 && e1.verify_reads > 0.0);
        }
    }

    #[test]
    fn auto_prefers_obj_on_typical_workloads() {
        // Leaves are ~leaf_capacity× fewer than points, so the per-leaf
        // algorithms win everywhere the paper measured; the default
        // constants must reproduce that.
        let model = JoinCostModel::default();
        for items in [100u64, 1000, 100_000] {
            let pages = items.div_ceil(20);
            let s = summary(items, pages.max(1), 25);
            assert_eq!(model.choose(&s), RcjAlgorithm::Obj, "items={items}");
        }
    }

    #[test]
    fn choose_respects_calibrated_costs() {
        // A pathological calibration where INJ is free must flip the
        // choice — Auto follows the model, not a hard-coded preference.
        let model = JoinCostModel::calibrate(&[CalibrationSample {
            algorithm: RcjAlgorithm::Inj,
            units: 100,
            filter_reads: 0,
            verify_reads: 0,
        }]);
        assert_eq!(model.choose(&summary(1000, 60, 25)), RcjAlgorithm::Inj);
    }

    #[test]
    fn calibrate_recovers_per_unit_constants() {
        let model = JoinCostModel::calibrate(&[
            CalibrationSample {
                algorithm: RcjAlgorithm::Obj,
                units: 50,
                filter_reads: 500,
                verify_reads: 1000,
            },
            CalibrationSample {
                algorithm: RcjAlgorithm::Bij,
                units: 50,
                filter_reads: 600,
                verify_reads: 1100,
            },
        ]);
        assert_eq!(model.obj.filter_per_unit, 10.0);
        assert_eq!(model.obj.verify_per_unit, 20.0);
        assert_eq!(model.bij.filter_per_unit, 12.0);
        // INJ untouched -> default.
        assert_eq!(model.inj, JoinCostModel::default().inj);
    }

    #[test]
    #[should_panic(expected = "phase_cost(Auto)")]
    fn phase_cost_of_auto_panics_with_guidance() {
        let _ = JoinCostModel::default().phase_cost(RcjAlgorithm::Auto);
    }

    #[test]
    fn tie_break_is_the_papers_winner() {
        // All-equal constants: OBJ wins the tie.
        let flat = PhaseCost {
            filter_per_unit: 1.0,
            verify_per_unit: 1.0,
        };
        let model = JoinCostModel {
            inj: flat,
            bij: flat,
            obj: flat,
        };
        // Same units for every algorithm only when items == leaf_pages;
        // force that with capacity 1.
        let s = DatasetSummary::new("rtree", 10, 10, 1);
        assert_eq!(model.choose(&s), RcjAlgorithm::Obj);
    }
}
