//! Transaction-program builders for the EMB− and BAS server models, and the
//! experiment driver behind Figures 7 and 9.
//!
//! Server-side service times are **calibrated to Table 4's standalone
//! measurements** (query/update construction time as a linear per-record
//! cost), because they bundle implementation work no first-principles I/O
//! count captures; the `table4` bench produces this workspace's own
//! measured versions of the same constants. What the simulator *adds* is
//! the contention structure: an EMB− update holds the index **exclusively**
//! while the root path is re-hashed (queries hold it shared), whereas a BAS
//! update locks only its record — with uniformly distributed single-record
//! updates the collision probability is negligible and BAS programs carry
//! no global lock step at all (Section 3.2's concurrency argument). The
//! user-side 14.4 Mbps HSDPA link is per-user (a delay, not a shared
//! queue); the DA-side OC-12 WAN likewise.

use rand::Rng;

use crate::des::{self, ClassStats, Mode, Res, SimConfig, Step, TxnKind, TxnSpec};
use authdb_sim::cost::{wire_model, CostModel};

/// Calibrated per-transaction server costs (seconds), linear in the number
/// of records touched: `base + per_record * (k - 1)`.
#[derive(Clone, Copy, Debug)]
pub struct ServiceTimes {
    /// EMB− query: base / per-record.
    pub emb_query: (f64, f64),
    /// EMB− update (exclusive section): base / per-record.
    pub emb_update: (f64, f64),
    /// BAS query: base / per-record.
    pub bas_query: (f64, f64),
    /// BAS update: base / per-record.
    pub bas_update: (f64, f64),
    /// EMB− client verification: base / per-record.
    pub emb_verify: (f64, f64),
    /// BAS client verification: base / per-record.
    pub bas_verify: (f64, f64),
}

impl ServiceTimes {
    /// Constants interpolated from the paper's Table 4 (sf = 10⁻⁶ and
    /// 10⁻³ cells on the 2009 testbed).
    pub fn paper_table4() -> Self {
        ServiceTimes {
            emb_query: (35.3e-3, (129.8e-3 - 35.3e-3) / 999.0),
            emb_update: (60.2e-3, (248.9e-3 - 60.2e-3) / 999.0),
            bas_query: (31.4e-3, (61.5e-3 - 31.4e-3) / 999.0),
            bas_update: (40.2e-3, (237.4e-3 - 40.2e-3) / 999.0),
            emb_verify: (139.0e-3, (171.0e-3 - 139.0e-3) / 999.0),
            bas_verify: (42.9e-3, (375.0e-3 - 42.9e-3) / 999.0),
        }
    }

    fn linear(pair: (f64, f64), k: usize) -> f64 {
        pair.0 + pair.1 * (k.saturating_sub(1)) as f64
    }
}

/// Static description of the simulated database/system.
#[derive(Clone, Copy, Debug)]
pub struct SystemModel {
    /// Records in the relation.
    pub n: u64,
    /// Record length in bytes (heap layout; the wire format ships only the
    /// meaningful fields, see [`wire_model::record`]).
    pub record_len: usize,
    /// Attributes per record (drives the wire-format record size).
    pub num_attrs: usize,
    /// Digest/signature wire length.
    pub sig_len: usize,
    /// Calibrated service times.
    pub service: ServiceTimes,
}

impl SystemModel {
    /// The paper's default 1M-record database.
    pub fn paper_defaults() -> Self {
        SystemModel {
            n: 1_000_000,
            record_len: 512,
            num_attrs: 4,
            sig_len: 20,
            service: ServiceTimes::paper_table4(),
        }
    }
}

/// Split a server service time between CPU cores and disk arms (the two
/// contended server resources; an even split matches the mixed CPU/I-O
/// nature of proof construction).
fn server_use(total: f64) -> [Step; 2] {
    [
        Step::Use(Res::Cpu, total * 0.5),
        Step::Use(Res::Disk, total * 0.5),
    ]
}

/// Build a BAS range-query program for `q` result records. The answer
/// travels in the canonical wire format (one framed single-shard selection
/// response; summaries amortized per Section 5.3), so the LAN delay charges
/// the bytes `authdb-net` actually ships — its loopback suite
/// regression-checks this against a live server.
pub fn bas_query(q: usize, sys: &SystemModel, cost: &CostModel) -> Vec<Step> {
    let service = ServiceTimes::linear(sys.service.bas_query, q);
    let shape = wire_model::AnswerShape {
        records: q,
        ..Default::default()
    };
    let answer_bytes =
        wire_model::sharded_selection_response(0, &[shape], sys.num_attrs, sys.sig_len);
    let [cpu, disk] = server_use(service);
    vec![
        cpu,
        disk,
        Step::Delay(cost.lan(answer_bytes)), // per-user HSDPA downlink
        Step::Verify(ServiceTimes::linear(sys.service.bas_verify, q)),
    ]
}

/// Build a BAS update program for `k` records (record-level locks only).
/// Dissemination ships framed wire-format [`UpdateMsg`]s
/// ([`wire_model::update_msg`]).
///
/// [`UpdateMsg`]: ../../authdb_core/da/struct.UpdateMsg.html
pub fn bas_update(k: usize, sys: &SystemModel, cost: &CostModel) -> Vec<Step> {
    let service = ServiceTimes::linear(sys.service.bas_update, k);
    let wire = cost.wan(k * wire_model::update_msg(sys.num_attrs, sys.sig_len));
    let [cpu, disk] = server_use(service);
    vec![Step::Delay(cost.bas_sign * k as f64 + wire), cpu, disk]
}

/// Build an EMB− range-query program: the whole service runs under the
/// shared index lock.
pub fn emb_query(q: usize, sys: &SystemModel, cost: &CostModel) -> Vec<Step> {
    let service = ServiceTimes::linear(sys.service.emb_query, q);
    let vo_bytes = 440 + q / 3; // Table 4 scale: 440 B point, ~720 B range
    let answer_bytes = q * sys.record_len + vo_bytes;
    let [cpu, disk] = server_use(service);
    vec![
        Step::Lock(Mode::Shared),
        cpu,
        disk,
        Step::Unlock,
        Step::Delay(cost.lan(answer_bytes)),
        Step::Verify(ServiceTimes::linear(sys.service.emb_verify, q)),
    ]
}

/// Build an EMB− update program: DA signing + WAN, then the root-path
/// modification under the exclusive index lock.
pub fn emb_update(k: usize, sys: &SystemModel, cost: &CostModel) -> Vec<Step> {
    let service = ServiceTimes::linear(sys.service.emb_update, k);
    let wire = cost.wan(k * sys.record_len + sys.sig_len);
    let [cpu, disk] = server_use(service);
    vec![
        Step::Delay(cost.bas_sign + wire), // one root signature
        Step::Lock(Mode::Exclusive),
        cpu,
        disk,
        Step::Unlock,
    ]
}

/// Which system a workload targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// The paper's signature-aggregation scheme.
    Bas,
    /// The Merkle baseline.
    Emb,
}

/// Experiment outcome at one arrival rate.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Offered arrival rate (jobs/second).
    pub rate: f64,
    /// Query-class statistics.
    pub query: ClassStats,
    /// Update-class statistics.
    pub update: ClassStats,
}

/// Drive one (system, rate) cell of Figures 7/9: Poisson arrivals at
/// `rate` jobs/s for `duration` simulated seconds, `upd_pct`% updates,
/// query cardinality uniform in `[q/2, 3q/2]` (Section 5.1's selectivity
/// window around `sf`).
#[allow(clippy::too_many_arguments)]
pub fn run_load(
    system: System,
    rate: f64,
    upd_pct: f64,
    q_records: usize,
    duration: f64,
    sys: &SystemModel,
    cost: &CostModel,
    rng: &mut impl Rng,
) -> LoadPoint {
    let mut specs = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= duration {
            break;
        }
        let is_update = rng.gen_bool(upd_pct / 100.0);
        let q = if q_records <= 1 {
            1
        } else {
            rng.gen_range(q_records / 2..=q_records * 3 / 2).max(1)
        };
        let steps = match (system, is_update) {
            (System::Bas, false) => bas_query(q, sys, cost),
            (System::Bas, true) => bas_update(1, sys, cost),
            (System::Emb, false) => emb_query(q, sys, cost),
            (System::Emb, true) => emb_update(1, sys, cost),
        };
        specs.push(TxnSpec {
            at: t,
            kind: if is_update {
                TxnKind::Update
            } else {
                TxnKind::Query
            },
            steps,
        });
    }
    let results = des::run(SimConfig::default(), specs);
    LoadPoint {
        rate,
        query: des::summarize(&results, TxnKind::Query),
        update: des::summarize(&results, TxnKind::Update),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> (SystemModel, CostModel) {
        (SystemModel::paper_defaults(), CostModel::pinned())
    }

    #[test]
    fn bas_point_query_faster_than_emb_under_load() {
        // Figure 7's qualitative claim: at high point-query rates, EMB-
        // responds slower than BAS (lock contention).
        let (sys, cost) = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let bas = run_load(System::Bas, 100.0, 10.0, 1, 30.0, &sys, &cost, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let emb = run_load(System::Emb, 100.0, 10.0, 1, 30.0, &sys, &cost, &mut rng);
        assert!(
            emb.query.mean_response > bas.query.mean_response,
            "emb {} vs bas {}",
            emb.query.mean_response,
            bas.query.mean_response
        );
    }

    #[test]
    fn emb_lock_wait_grows_with_rate() {
        let (sys, cost) = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let low = run_load(System::Emb, 2.0, 10.0, 1000, 30.0, &sys, &cost, &mut rng);
        let mut rng = StdRng::seed_from_u64(2);
        let high = run_load(System::Emb, 12.0, 10.0, 1000, 30.0, &sys, &cost, &mut rng);
        assert!(
            high.query.mean_lock_wait > low.query.mean_lock_wait,
            "low {} high {}",
            low.query.mean_lock_wait,
            high.query.mean_lock_wait
        );
    }

    #[test]
    fn bas_updates_disseminate_quickly() {
        // The freshness headline: BAS update latency stays near its
        // contention-free service time even under load.
        let (sys, cost) = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let pt = run_load(System::Bas, 100.0, 10.0, 1, 30.0, &sys, &cost, &mut rng);
        assert!(pt.update.count > 0);
        assert!(
            pt.update.mean_response < 0.100,
            "bas update {}",
            pt.update.mean_response
        );
    }

    #[test]
    fn emb_saturates_before_bas_on_range_queries() {
        // Figure 9's headline: EMB- melts down at ~10-20 jobs/s on
        // 1000-record queries while BAS stays responsive at 45.
        let (sys, cost) = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let emb = run_load(System::Emb, 30.0, 10.0, 1000, 40.0, &sys, &cost, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let bas = run_load(System::Bas, 45.0, 10.0, 1000, 40.0, &sys, &cost, &mut rng);
        assert!(
            emb.query.mean_response > 2.0 * bas.query.mean_response,
            "emb@30 {} vs bas@45 {}",
            emb.query.mean_response,
            bas.query.mean_response
        );
        assert!(bas.query.mean_response < 2.0, "BAS must stay responsive");
    }

    #[test]
    fn verification_component_present() {
        let (sys, cost) = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let pt = run_load(System::Bas, 10.0, 0.0, 100, 10.0, &sys, &cost, &mut rng);
        assert!(pt.query.mean_verify > 0.0);
    }
}
