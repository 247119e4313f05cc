//! Per-tenant admission control.
//!
//! Each session names a tenant; the tenant maps to a policy envelope:
//! a cap on concurrently in-flight requests and on the aggregate
//! solver fuel those requests may hold, plus per-request budget
//! ceilings. A request over any limit is *refused immediately* —
//! answered `status:"refused"` and never verified — so one abusive
//! tenant degrades to refusals while every other tenant's latency is
//! untouched. Refusal is the wire-level face of the paper's
//! degradation lattice: an indefinite answer, never an error that
//! kills the session and never an unbounded wait.

use daenerys_idf::Budget;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Fuel billed against the aggregate envelope for a request that asks
/// for none.
const DEFAULT_FUEL: u64 = 1_000_000;

/// The per-tenant envelope (one policy applies to every tenant;
/// tenants are isolated by *accounting*, not by bespoke limits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TenantPolicy {
    /// Concurrently admitted requests per tenant.
    pub max_in_flight: usize,
    /// Aggregate solver fuel the tenant's in-flight requests may hold
    /// (`None` = unlimited). Requests without an explicit fuel ask are
    /// accounted at 1 000 000, capped by `max_fuel_per_request`.
    pub max_fuel_in_flight: Option<u64>,
    /// Per-request ceiling on the solver-fuel ask (`None` =
    /// unlimited); larger asks are clamped, not refused.
    pub max_fuel_per_request: Option<u64>,
    /// Per-request ceiling on the deadline ask, milliseconds; larger
    /// asks are clamped. Also the default when a request asks for
    /// nothing — the server never runs a method without a deadline.
    pub max_deadline_ms: u64,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            max_in_flight: 4,
            max_fuel_in_flight: None,
            max_fuel_per_request: None,
            max_deadline_ms: 10_000,
        }
    }
}

impl TenantPolicy {
    /// The effective per-method [`Budget`] for a request asking for
    /// `deadline_ms`/`solver_fuel`: asks are clamped to the policy
    /// ceilings, and a missing deadline ask gets the ceiling itself.
    pub fn effective_budget(&self, deadline_ms: Option<u64>, solver_fuel: Option<u64>) -> Budget {
        let deadline = deadline_ms
            .map(|ms| ms.min(self.max_deadline_ms))
            .unwrap_or(self.max_deadline_ms);
        let mut budget = Budget::unlimited().with_deadline_ms(deadline);
        budget.solver_fuel = match (solver_fuel, self.max_fuel_per_request) {
            (Some(ask), Some(cap)) => Some(ask.min(cap)),
            (Some(ask), None) => Some(ask),
            (None, cap) => cap,
        };
        budget
    }

    /// The fuel a request bills against the aggregate envelope.
    fn billed_fuel(&self, solver_fuel: Option<u64>) -> u64 {
        let ask = solver_fuel.unwrap_or(DEFAULT_FUEL);
        match self.max_fuel_per_request {
            Some(cap) => ask.min(cap),
            None => ask,
        }
    }
}

/// Live accounting for one tenant.
///
/// Beyond the envelope counters the state carries a *conservation
/// ledger*: `admitted` (requests presented to admission control),
/// `refused`, and `completed` (tickets released). All three live under
/// the same mutex as the envelope, so at any instant the invariant
/// `admitted == completed + refused + in_flight` holds exactly — the
/// telemetry plane scrapes and CI gates on it.
#[derive(Default, Debug)]
struct TenantState {
    in_flight: usize,
    fuel_in_flight: u64,
    admitted: u64,
    refused: u64,
    completed: u64,
}

/// The admission controller: one policy, per-tenant accounting.
#[derive(Debug)]
pub struct Admission {
    policy: TenantPolicy,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl Admission {
    /// A controller enforcing `policy` for every tenant.
    pub fn new(policy: TenantPolicy) -> Arc<Admission> {
        Arc::new(Admission {
            policy,
            tenants: Mutex::new(HashMap::new()),
        })
    }

    /// The enforced policy.
    pub fn policy(&self) -> TenantPolicy {
        self.policy
    }

    /// Admits or refuses a request for `tenant` asking for
    /// `solver_fuel`. On refusal the reason names the tripped limit;
    /// nothing is recorded, so refusal is free. On
    /// admission the returned ticket holds the tenant's slot and fuel
    /// until dropped.
    ///
    /// # Errors
    ///
    /// The human-readable admission-refusal detail.
    pub fn try_admit(
        self: &Arc<Admission>,
        tenant: &str,
        solver_fuel: Option<u64>,
    ) -> Result<AdmitTicket, String> {
        let fuel = self.policy.billed_fuel(solver_fuel);
        let mut tenants = lock(&self.tenants);
        let state = tenants.entry(tenant.to_string()).or_default();
        state.admitted = state.admitted.saturating_add(1);
        if state.in_flight >= self.policy.max_in_flight {
            state.refused = state.refused.saturating_add(1);
            return Err(format!(
                "tenant {:?} is over its in-flight cap ({})",
                tenant, self.policy.max_in_flight
            ));
        }
        if let Some(cap) = self.policy.max_fuel_in_flight {
            if state.fuel_in_flight.saturating_add(fuel) > cap {
                state.refused = state.refused.saturating_add(1);
                return Err(format!(
                    "tenant {:?} is over its aggregate fuel envelope ({} + {} > {})",
                    tenant, state.fuel_in_flight, fuel, cap
                ));
            }
        }
        state.in_flight += 1;
        state.fuel_in_flight += fuel;
        Ok(AdmitTicket {
            admission: Arc::clone(self),
            tenant: tenant.to_string(),
            fuel,
        })
    }

    /// Requests currently in flight for `tenant`.
    pub fn in_flight(&self, tenant: &str) -> usize {
        lock(&self.tenants).get(tenant).map_or(0, |s| s.in_flight)
    }

    /// Requests currently in flight across every tenant.
    pub fn total_in_flight(&self) -> usize {
        lock(&self.tenants).values().map(|s| s.in_flight).sum()
    }

    fn release(&self, tenant: &str, fuel: u64) {
        let mut tenants = lock(&self.tenants);
        if let Some(state) = tenants.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
            state.fuel_in_flight = state.fuel_in_flight.saturating_sub(fuel);
            state.completed = state.completed.saturating_add(1);
        }
    }

    /// A point-in-time snapshot of the conservation ledger, taken
    /// under the one accounting lock so the invariant
    /// `admitted == completed + refused + in_flight` holds exactly for
    /// every tenant (and therefore in aggregate).
    pub fn stats(&self) -> AdmissionStats {
        let tenants = lock(&self.tenants);
        let mut per_tenant: Vec<TenantStats> = tenants
            .iter()
            .map(|(name, s)| TenantStats {
                tenant: name.clone(),
                admitted: s.admitted,
                refused: s.refused,
                completed: s.completed,
                in_flight: s.in_flight as u64,
                fuel_in_flight: s.fuel_in_flight,
            })
            .collect();
        per_tenant.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut total = TenantStats {
            tenant: String::new(),
            ..TenantStats::default()
        };
        for t in &per_tenant {
            total.admitted = total.admitted.saturating_add(t.admitted);
            total.refused = total.refused.saturating_add(t.refused);
            total.completed = total.completed.saturating_add(t.completed);
            total.in_flight = total.in_flight.saturating_add(t.in_flight);
            total.fuel_in_flight = total.fuel_in_flight.saturating_add(t.fuel_in_flight);
        }
        AdmissionStats { total, per_tenant }
    }
}

/// One tenant's row in the conservation ledger.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TenantStats {
    /// The tenant name (empty for the aggregate row).
    pub tenant: String,
    /// Requests presented to admission control (admitted or refused).
    pub admitted: u64,
    /// Requests refused at admission.
    pub refused: u64,
    /// Admitted requests whose ticket has been released.
    pub completed: u64,
    /// Admitted requests still holding their ticket.
    pub in_flight: u64,
    /// Aggregate solver fuel held by in-flight requests.
    pub fuel_in_flight: u64,
}

impl TenantStats {
    /// The conservation invariant for this row.
    pub fn conserved(&self) -> bool {
        self.admitted
            == self
                .completed
                .saturating_add(self.refused)
                .saturating_add(self.in_flight)
    }
}

/// A consistent snapshot of the whole conservation ledger.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdmissionStats {
    /// The aggregate row (tenant name empty).
    pub total: TenantStats,
    /// Per-tenant rows, tenant-name order.
    pub per_tenant: Vec<TenantStats>,
}

impl AdmissionStats {
    /// True when every row (aggregate and per-tenant) conserves.
    pub fn conserved(&self) -> bool {
        self.total.conserved() && self.per_tenant.iter().all(TenantStats::conserved)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An admitted request's hold on its tenant's envelope; releases on
/// drop, so a panicking request (or an unwound session) can never leak
/// an in-flight slot.
#[derive(Debug)]
pub struct AdmitTicket {
    admission: Arc<Admission>,
    tenant: String,
    fuel: u64,
}

impl Drop for AdmitTicket {
    fn drop(&mut self) {
        self.admission.release(&self.tenant, self.fuel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_cap_refuses_and_releases() {
        let adm = Admission::new(TenantPolicy {
            max_in_flight: 2,
            ..TenantPolicy::default()
        });
        let t1 = adm.try_admit("a", None).unwrap();
        let _t2 = adm.try_admit("a", None).unwrap();
        let refused = adm.try_admit("a", None).unwrap_err();
        assert!(refused.contains("in-flight cap"), "{}", refused);
        // A different tenant is untouched by tenant a's saturation.
        let _other = adm.try_admit("b", None).unwrap();
        assert_eq!(adm.in_flight("a"), 2);
        drop(t1);
        assert_eq!(adm.in_flight("a"), 1);
        let _t3 = adm.try_admit("a", None).unwrap();
        assert_eq!(adm.total_in_flight(), 3);
    }

    #[test]
    fn aggregate_fuel_envelope_refuses() {
        let adm = Admission::new(TenantPolicy {
            max_in_flight: 10,
            max_fuel_in_flight: Some(1000),
            ..TenantPolicy::default()
        });
        let _a = adm.try_admit("t", Some(600)).unwrap();
        let refused = adm.try_admit("t", Some(600)).unwrap_err();
        assert!(refused.contains("fuel envelope"), "{}", refused);
        let _b = adm.try_admit("t", Some(400)).unwrap();
    }

    #[test]
    fn budgets_are_clamped_not_refused() {
        let policy = TenantPolicy {
            max_deadline_ms: 500,
            max_fuel_per_request: Some(100),
            ..TenantPolicy::default()
        };
        let b = policy.effective_budget(Some(10_000), Some(1_000_000));
        assert_eq!(b.deadline_ms, Some(500));
        assert_eq!(b.solver_fuel, Some(100));
        let b = policy.effective_budget(None, None);
        assert_eq!(b.deadline_ms, Some(500), "no ask → the ceiling applies");
        assert_eq!(b.solver_fuel, Some(100));
        let b = policy.effective_budget(Some(100), Some(7));
        assert_eq!(b.deadline_ms, Some(100));
        assert_eq!(b.solver_fuel, Some(7));
    }

    #[test]
    fn ledger_conserves_under_concurrent_churn() {
        let adm = Admission::new(TenantPolicy {
            max_in_flight: 2,
            ..TenantPolicy::default()
        });
        let mut handles = Vec::new();
        for i in 0..4 {
            let adm = Arc::clone(&adm);
            handles.push(std::thread::spawn(move || {
                let tenant = if i % 2 == 0 { "even" } else { "odd" };
                for _ in 0..200 {
                    let ticket = adm.try_admit(tenant, None);
                    // Scrapes racing admits/releases must still see a
                    // conserved ledger: the snapshot is atomic.
                    let stats = adm.stats();
                    assert!(stats.conserved(), "mid-churn: {:?}", stats);
                    drop(ticket);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = adm.stats();
        assert!(stats.conserved());
        assert_eq!(stats.total.admitted, 800);
        assert_eq!(stats.total.in_flight, 0);
        assert_eq!(
            stats.total.completed + stats.total.refused,
            800,
            "every presented request ended refused or completed"
        );
        assert_eq!(stats.per_tenant.len(), 2);
        assert!(stats.per_tenant.iter().all(|t| t.admitted == 400));
    }

    #[test]
    fn ticket_drop_is_panic_safe() {
        let adm = Admission::new(TenantPolicy {
            max_in_flight: 1,
            ..TenantPolicy::default()
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ticket = adm.try_admit("t", None).unwrap();
            panic!("request blew up");
        }));
        assert!(result.is_err());
        assert_eq!(adm.in_flight("t"), 0, "the ticket released on unwind");
        let _again = adm.try_admit("t", None).unwrap();
    }
}
