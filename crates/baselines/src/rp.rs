//! RP — Replanning (Švancara et al. \[3\], §VIII-A).
//!
//! For each new request, first plan the shortest route *ignoring* other
//! robots. If it conflicts with committed routes, gather the conflicting
//! group and replan it jointly — together with the new request — using an
//! offline optimal method (Conflict-Based Search \[2\]). Replanned robots
//! keep their already-travelled prefixes; only their futures change, which
//! the planner reports as route revisions. When CBS exhausts its budget the
//! planner degrades to prioritized space-time A\* for the new request only.

use crate::common::Commitments;
use carp_spacetime::cbs::{CbsAgent, CbsConfig, CbsSolver};
use carp_spacetime::{ReservationTable, SpaceTimeAStar};
use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::memory;
use carp_warehouse::planner::{EngineMetrics, PlanOutcome, Planner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use std::collections::HashMap;

/// RP configuration.
#[derive(Debug, Clone, Copy)]
pub struct RpConfig {
    /// CBS budget for joint replanning.
    pub cbs: CbsConfig,
    /// Largest group size CBS will attempt; bigger groups degrade to
    /// prioritized planning immediately.
    pub max_group: usize,
}

impl Default for RpConfig {
    fn default() -> Self {
        // CBS low-level searches get tighter budgets than plain prioritized
        // planning: replanned tails are short and a stuck branch must fail
        // fast so the planner can degrade to prioritized A* (the behaviour
        // that makes RP slow-but-bounded in the paper's evaluation).
        let mut cbs = CbsConfig {
            max_nodes: 128,
            ..CbsConfig::default()
        };
        cbs.astar.max_expansions = 50_000;
        cbs.astar.horizon = 1024;
        RpConfig { cbs, max_group: 6 }
    }
}

/// Counters for the RP planner.
#[derive(Debug, Default, Clone, Copy)]
pub struct RpStats {
    /// Requests planned without any conflict.
    pub conflict_free: usize,
    /// Joint CBS replans performed.
    pub replans: usize,
    /// Times CBS failed and prioritized A\* took over.
    pub cbs_bailouts: usize,
}

/// The RP planner.
#[derive(Debug)]
pub struct RpPlanner {
    matrix: WarehouseMatrix,
    astar: SpaceTimeAStar,
    cbs: CbsSolver,
    commitments: Commitments,
    config: RpConfig,
    /// Route revisions produced by joint replanning, delivered on the next
    /// [`Planner::advance`] call: at most one per id, the latest.
    pending_revisions: Vec<(RequestId, Route)>,
    /// Provenance of each active route: which code path committed it, and
    /// for CBS replans the full group of jointly replanned request ids.
    provenance: HashMap<RequestId, String>,
    /// Counters.
    pub stats: RpStats,
    /// High-water mark of search runtime memory.
    pub search_peak_bytes: usize,
}

impl RpPlanner {
    /// Create an RP planner.
    pub fn new(matrix: WarehouseMatrix, config: RpConfig) -> Self {
        // Replanned robots are mid-flight: their tails must start exactly at
        // the truncation instant, so the joint solver may never postpone a
        // departure (a contested start fails the CBS branch instead, and the
        // planner degrades to prioritized A*).
        let mut cbs_cfg = config.cbs;
        cbs_cfg.astar.max_depart_delay = 0;
        RpPlanner {
            matrix,
            astar: SpaceTimeAStar::new(config.cbs.astar),
            cbs: CbsSolver::new(cbs_cfg),
            commitments: Commitments::new(),
            config,
            pending_revisions: Vec::new(),
            provenance: HashMap::new(),
            stats: RpStats::default(),
            search_peak_bytes: 0,
        }
    }

    /// Render the id list of a CBS replanning group (the new request plus
    /// every jointly replanned robot), sorted for stable output.
    fn group_label(req: RequestId, group: &[RequestId]) -> String {
        let mut ids: Vec<RequestId> = Vec::with_capacity(group.len() + 1);
        ids.push(req);
        ids.extend_from_slice(group);
        ids.sort_unstable();
        let mut label = String::from("cbs group [");
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                label.push(',');
            }
            label.push_str(&id.to_string());
        }
        label.push(']');
        label
    }

    /// Number of active committed routes.
    pub fn active_routes(&self) -> usize {
        self.commitments.len()
    }

    /// Plan ignoring all other robots (the optimistic first attempt).
    fn plan_ignoring_traffic(&mut self, req: &Request) -> Option<Route> {
        let empty = ReservationTable::new();
        let r = self.astar.plan(
            &self.matrix,
            &empty,
            None,
            req.origin,
            req.destination,
            req.t,
        );
        self.search_peak_bytes = self.search_peak_bytes.max(self.astar.stats.peak_bytes);
        r
    }

    /// Prioritized fallback: avoid everything that is committed.
    fn plan_prioritized(&mut self, req: &Request) -> Option<Route> {
        let r = self.astar.plan(
            &self.matrix,
            &self.commitments.reservations,
            None,
            req.origin,
            req.destination,
            req.t,
        );
        self.search_peak_bytes = self.search_peak_bytes.max(self.astar.stats.peak_bytes);
        r
    }

    /// Jointly replan `group` (existing ids) together with the new request.
    /// Returns the new route for the request on success; revisions for the
    /// group are queued internally.
    fn replan_group(&mut self, req: &Request, group: &[RequestId]) -> Option<Route> {
        // Withdraw group routes, split them into past prefix + future need.
        let now = req.t;
        let mut agents = vec![CbsAgent {
            start: req.origin,
            goal: req.destination,
            depart: now,
        }];
        let mut withdrawn: Vec<(RequestId, Route, Option<Route>)> = Vec::new();
        for &id in group {
            let Some(old) = self.commitments.withdraw(id) else {
                continue;
            };
            let (prefix, start, depart) = if old.start >= now {
                (None, old.origin(), old.start)
            } else {
                let done = (now - old.start) as usize;
                let prefix = Route::new(old.start, old.grids[..=done].to_vec());
                (Some(prefix), old.grids[done], now)
            };
            agents.push(CbsAgent {
                start,
                goal: old.destination(),
                depart,
            });
            withdrawn.push((id, old, prefix));
        }

        let solved = self
            .cbs
            .solve(&self.matrix, &self.commitments.reservations, &agents);
        self.search_peak_bytes = self.search_peak_bytes.max(self.cbs.stats.peak_bytes);

        let Some(mut routes) = solved else {
            // Joint replanning failed: restore the original routes untouched
            // and let the caller degrade to prioritized planning.
            for (id, old, _) in withdrawn {
                self.commitments.commit(id, old);
            }
            return None;
        };
        let new_route = routes.remove(0);
        let label = Self::group_label(req.id, group);
        for ((id, _, prefix), tail) in withdrawn.into_iter().zip(routes) {
            let full = match prefix {
                Some(mut p) => {
                    // max_depart_delay = 0 guarantees the tail starts exactly
                    // where and when the prefix ends.
                    p.chain(&tail);
                    p
                }
                None => tail,
            };
            self.commitments.commit(id, full.clone());
            self.provenance.insert(id, format!("{label} (revised)"));
            // A batch carries one route per id: a later replan of the same
            // robot before the next `advance` supersedes the queued one.
            match self.pending_revisions.iter_mut().find(|(p, _)| *p == id) {
                Some(queued) => queued.1 = full,
                None => self.pending_revisions.push((id, full)),
            }
        }
        Some(new_route)
    }
}

impl Planner for RpPlanner {
    fn name(&self) -> &'static str {
        "RP"
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let optimistic = self.plan_ignoring_traffic(req);
        let (route, label) = match optimistic {
            Some(candidate) => {
                let conflicts = self.commitments.conflicting_ids(&candidate);
                if conflicts.is_empty() {
                    self.stats.conflict_free += 1;
                    (Some(candidate), String::from("conflict-free"))
                } else if conflicts.len() <= self.config.max_group {
                    self.stats.replans += 1;
                    match self.replan_group(req, &conflicts) {
                        Some(r) => (Some(r), Self::group_label(req.id, &conflicts)),
                        None => {
                            self.stats.cbs_bailouts += 1;
                            (
                                self.plan_prioritized(req),
                                String::from("prioritized fallback (cbs bailout)"),
                            )
                        }
                    }
                } else {
                    self.stats.cbs_bailouts += 1;
                    (
                        self.plan_prioritized(req),
                        format!(
                            "prioritized fallback (group of {} too large)",
                            conflicts.len()
                        ),
                    )
                }
            }
            None => (None, String::new()),
        };
        match route {
            Some(route) => {
                self.commitments.commit(req.id, route.clone());
                self.provenance.insert(req.id, label);
                PlanOutcome::Planned(route)
            }
            None => PlanOutcome::Infeasible,
        }
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        for id in self.commitments.retire_before(now) {
            self.provenance.remove(&id);
        }
        core::mem::take(&mut self.pending_revisions)
    }

    fn provenance(&self, id: RequestId) -> Option<String> {
        self.provenance.get(&id).cloned()
    }

    fn engine_metrics(&self) -> Option<EngineMetrics> {
        // RP resolves every conflict before committing (CBS joint replans
        // and the prioritized fallback both avoid the full table), so all
        // its bookings live in the exclusive hard layer and the soft-layer
        // counters must read zero; surfacing them keeps that invariant
        // visible in the day report.
        Some(EngineMetrics {
            soft_bookings: self.commitments.soft_bookings(),
            window_debt: 0,
            ..EngineMetrics::default()
        })
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        let cancelled = self.commitments.withdraw(id).is_some();
        if cancelled {
            self.provenance.remove(&id);
        }
        cancelled
    }

    fn memory_bytes(&self) -> usize {
        // The paper's MC includes "runtime space consumption during
        // execution": the search high-water is part of the footprint.
        self.commitments.memory_bytes()
            + self
                .pending_revisions
                .iter()
                .map(|(_, r)| r.memory_bytes())
                .sum::<usize>()
            + self
                .provenance
                .values()
                .map(|s| s.capacity())
                .sum::<usize>()
            + memory::hashmap_bytes(&self.provenance)
            + self.search_peak_bytes
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
    use std::collections::HashMap;

    /// Run a request stream, applying revisions like the simulator would,
    /// and return the final routes.
    fn run_stream(rp: &mut RpPlanner, requests: &[Request]) -> Vec<Route> {
        let mut routes: HashMap<RequestId, Route> = HashMap::new();
        for req in requests {
            if let PlanOutcome::Planned(r) = rp.plan(req) {
                routes.insert(req.id, r);
            }
            for (id, revised) in rp.advance(req.t) {
                routes.insert(id, revised);
            }
        }
        routes.into_values().collect()
    }

    #[test]
    fn conflict_free_stream_never_replans() {
        let m = WarehouseMatrix::empty(8, 8);
        let mut rp = RpPlanner::new(m, RpConfig::default());
        // Two robots on disjoint rows.
        let reqs = [
            Request::new(0, 0, Cell::new(0, 0), Cell::new(0, 7), QueryKind::Pickup),
            Request::new(1, 0, Cell::new(7, 0), Cell::new(7, 7), QueryKind::Pickup),
        ];
        let routes = run_stream(&mut rp, &reqs);
        assert_eq!(routes.len(), 2);
        assert_eq!(rp.stats.conflict_free, 2);
        assert_eq!(rp.stats.replans, 0);
        assert_eq!(validate_routes(&routes), None);
    }

    #[test]
    fn crossing_triggers_joint_replan() {
        let m = WarehouseMatrix::empty(5, 5);
        let mut rp = RpPlanner::new(m, RpConfig::default());
        let reqs = [
            Request::new(0, 0, Cell::new(2, 0), Cell::new(2, 4), QueryKind::Pickup),
            Request::new(1, 0, Cell::new(0, 2), Cell::new(4, 2), QueryKind::Pickup),
        ];
        let routes = run_stream(&mut rp, &reqs);
        assert_eq!(routes.len(), 2);
        assert!(rp.stats.replans >= 1, "crossing must force a replan");
        assert_eq!(validate_routes(&routes), None);
    }

    #[test]
    fn mid_flight_replan_preserves_prefix() {
        let m = WarehouseMatrix::empty(5, 9);
        let mut rp = RpPlanner::new(m, RpConfig::default());
        // Robot 0 sweeps row 2 starting t=0.
        let r0 = rp
            .plan(&Request::new(
                0,
                0,
                Cell::new(2, 0),
                Cell::new(2, 8),
                QueryKind::Pickup,
            ))
            .route()
            .cloned()
            .expect("r0");
        // At t=3, a crossing request conflicts with r0's future.
        let req1 = Request::new(1, 3, Cell::new(0, 6), Cell::new(4, 6), QueryKind::Pickup);
        let r1 = rp.plan(&req1).route().cloned().expect("r1");
        let revisions = rp.advance(3);
        let r0_final = revisions
            .iter()
            .find(|(id, _)| *id == 0)
            .map(|(_, r)| r.clone())
            .unwrap_or(r0.clone());
        // The prefix up to t=3 must be untouched.
        for t in 0..=3 {
            assert_eq!(
                r0_final.position_at(t),
                r0.position_at(t),
                "prefix changed at t={t}"
            );
        }
        assert_eq!(validate_routes(&[r0_final, r1]), None);
    }

    #[test]
    fn same_time_replans_of_one_route_deliver_one_revision() {
        // Robot 0 sweeps row 8 from t=0. At t=2 one request crosses its path
        // and another comes head-on along the row: each joint replan revises
        // robot 0's route, and the batch `advance` delivers must hold only
        // the second revision, which is the route now committed.
        let m = WarehouseMatrix::empty(16, 16);
        let mut rp = RpPlanner::new(m, RpConfig::default());
        let r0 = rp.plan(&Request::new(
            0,
            0,
            Cell::new(8, 0),
            Cell::new(8, 15),
            QueryKind::Pickup,
        ));
        assert!(r0.route().is_some());
        assert!(rp.advance(0).is_empty());
        let reqs = [
            Request::new(1, 2, Cell::new(4, 6), Cell::new(12, 6), QueryKind::Pickup),
            Request::new(2, 2, Cell::new(8, 15), Cell::new(8, 2), QueryKind::Pickup),
        ];
        let mut routes: Vec<Route> = Vec::new();
        for (req, group) in reqs.iter().zip(["[0,1]", "[0,2]"]) {
            routes.push(rp.plan(req).route().cloned().expect("planned"));
            let label = format!("cbs group {group} (revised)");
            assert_eq!(
                rp.provenance(0),
                Some(label),
                "request {} revises 0",
                req.id
            );
        }
        assert_eq!(rp.stats.replans, 2);
        let revisions = rp.advance(2);
        let ids: Vec<RequestId> = revisions.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [0], "one revision per id");
        assert_eq!(Some(&revisions[0].1), rp.commitments.route(0));
        routes.push(revisions[0].1.clone());
        assert_eq!(validate_routes(&routes), None);
    }

    #[test]
    fn dense_stream_is_collision_free() {
        let layout = LayoutConfig::small().generate();
        let mut rp = RpPlanner::new(layout.matrix.clone(), RpConfig::default());
        let requests = generate_requests(&layout, 70, 4.0, 13);
        let routes = run_stream(&mut rp, &requests);
        assert!(routes.len() >= 68);
        assert_eq!(validate_routes(&routes), None);
    }
}
