//! SAP — Simple A\*-based Planning (§VIII-A).
//!
//! The most direct baseline: plan each request with a full space-time A\*
//! over the 3-dimensional (2-D grid + 1-D time) search space, one request
//! at a time, reserving every planned route so later requests avoid it
//! (prioritized / cooperative A\*). Usually the slowest method in the
//! paper's evaluation.

use crate::common::Commitments;
use carp_spacetime::{AStarConfig, SpaceTimeAStar};
use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::planner::{PlanOutcome, Planner, ReplayPlanner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;

/// The SAP planner.
#[derive(Debug, Clone)]
pub struct SapPlanner {
    matrix: WarehouseMatrix,
    astar: SpaceTimeAStar,
    commitments: Commitments,
    /// High-water mark of A\* runtime memory (part of the paper's MC).
    pub search_peak_bytes: usize,
}

impl SapPlanner {
    /// Create a SAP planner.
    pub fn new(matrix: WarehouseMatrix, config: AStarConfig) -> Self {
        SapPlanner {
            matrix,
            astar: SpaceTimeAStar::new(config),
            commitments: Commitments::new(),
            search_peak_bytes: 0,
        }
    }

    /// Number of active committed routes.
    pub fn active_routes(&self) -> usize {
        self.commitments.len()
    }
}

impl ReplayPlanner for SapPlanner {
    fn adopt(&mut self, id: RequestId, route: &Route) {
        self.commitments.commit(id, route.clone());
    }
}

impl Planner for SapPlanner {
    fn name(&self) -> &'static str {
        "SAP"
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let route = self.astar.plan(
            &self.matrix,
            &self.commitments.reservations,
            None,
            req.origin,
            req.destination,
            req.t,
        );
        self.search_peak_bytes = self.search_peak_bytes.max(self.astar.stats.peak_bytes);
        match route {
            Some(route) => {
                self.commitments.commit(req.id, route.clone());
                PlanOutcome::Planned(route)
            }
            None => PlanOutcome::Infeasible,
        }
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        self.commitments.retire_before(now);
        Vec::new()
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        self.commitments.withdraw(id).is_some()
    }

    fn memory_bytes(&self) -> usize {
        // The paper's MC includes "runtime space consumption during
        // execution": the search high-water is part of the footprint.
        self.commitments.memory_bytes() + self.search_peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carp_warehouse::collision::validate_routes;
    use carp_warehouse::layout::LayoutConfig;
    use carp_warehouse::tasks::generate_requests;
    use carp_warehouse::types::Cell;
    use carp_warehouse::QueryKind;

    #[test]
    fn plans_collision_free_stream() {
        let layout = LayoutConfig::small().generate();
        let mut sap = SapPlanner::new(layout.matrix.clone(), AStarConfig::default());
        let mut routes = Vec::new();
        for req in generate_requests(&layout, 80, 3.0, 21) {
            if let PlanOutcome::Planned(r) = sap.plan(&req) {
                assert!(r.validate(&layout.matrix).is_ok());
                routes.push(r);
            }
        }
        assert!(routes.len() >= 78);
        assert_eq!(validate_routes(&routes), None);
    }

    #[test]
    fn second_robot_yields_to_first() {
        let m = WarehouseMatrix::empty(3, 6);
        let mut sap = SapPlanner::new(m, AStarConfig::default());
        let r1 = sap
            .plan(&Request::new(
                0,
                0,
                Cell::new(1, 0),
                Cell::new(1, 5),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("r1");
        let r2 = sap
            .plan(&Request::new(
                1,
                0,
                Cell::new(1, 5),
                Cell::new(1, 0),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("r2");
        assert_eq!(validate_routes(&[r1.clone(), r2.clone()]), None);
        assert_eq!(r1.duration(), 5, "first robot goes straight");
        assert!(r2.duration() > 5, "second robot detours or waits");
    }

    #[test]
    fn retirement_unblocks_cells() {
        let m = WarehouseMatrix::empty(2, 6);
        let mut sap = SapPlanner::new(m, AStarConfig::default());
        sap.plan(&Request::new(
            0,
            0,
            Cell::new(0, 0),
            Cell::new(0, 5),
            QueryKind::Pickup,
        ));
        assert_eq!(sap.active_routes(), 1);
        sap.advance(100);
        assert_eq!(sap.active_routes(), 0);
        assert!(sap.commitments.reservations.is_empty());
    }

    #[test]
    fn memory_reflects_grid_level_storage() {
        let layout = LayoutConfig::small().generate();
        let mut sap = SapPlanner::new(layout.matrix.clone(), AStarConfig::default());
        let before = sap.memory_bytes();
        for req in generate_requests(&layout, 30, 3.0, 5) {
            sap.plan(&req);
        }
        assert!(sap.memory_bytes() > before);
        assert!(sap.search_peak_bytes > 0);
    }
}
