//! The network-fault arm of the adversary catalog.
//!
//! The byte-level [`WireTamper`] catalog pins what happens when a frame's
//! *content* is attacked (two of its entries ride here too, applied by the
//! same proxy); this catalog pins
//! what happens when the *transport itself* misbehaves — and, crucially,
//! that the client's resilience machinery (deadlines, retries, partial
//! answers) never converts a soundness failure into an availability story.
//! Each [`NetFault`] is one scripted [`ChaosProxy`] behavior (or one
//! degradation edge case) with a pinned required outcome, enumerated in
//! [`NetFault::CATALOG`] and driven by [`run_netfault_catalog`], mirroring
//! `authdb_core::adversary`.
//!
//! The scenario is always the same: a 4-shard deployment over keys
//! 0..=390 behind one TCP server, fronted by four chaos proxies (one per
//! shard endpoint), queried over the full range by a [`ShardFanout`]
//! under tight test deadlines. The fault targets shard 1's endpoint; the
//! other three stay honest.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use authdb_core::adversary::{run_sharded_timeline, sharded_system};
use authdb_core::shard::ShardedAggregator;
use authdb_core::verify::{EpochView, PartialVerdict, Verifier, VerifyError};
use authdb_crypto::signer::SchemeKind;

use crate::fanout::ShardFanout;
use crate::fault::{ChaosProxy, Fault, FaultPlan};
use crate::retry::ClientConfig;
use crate::server::{QsServer, QsServerOptions};
use crate::tamper::WireTamper;
use crate::NetError;

/// One way the transport can misbehave, with a pinned required outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Shard 1's endpoint refuses the first connection, then recovers.
    /// Required: the retry succeeds and the final verdict is complete —
    /// indistinguishable from a fault-free run.
    RefuseThenRecover,
    /// Shard 1's endpoint accepts and stalls on every attempt. Required:
    /// every attempt times out ([`NetError::Timeout`]), the fan-out stays
    /// within its deadline budget, and the verdict is a sound partial —
    /// shard 1 `ShardUnavailable`, the other three tiles certified.
    StallTimeout,
    /// Shard 1's endpoint rewrites the response frame's version byte
    /// ([`WireTamper::VersionDowngrade`]). Required: a typed `WireError`
    /// with **no retry** — corruption is evidence, and blind retries would
    /// re-solicit it.
    CorruptFrame,
    /// Shard 1's endpoint delivers a well-framed but truncated response
    /// body ([`WireTamper::TruncateFrame`]). Required: a typed `WireError`,
    /// no retry.
    TruncateFrame,
    /// Shard 1's endpoint cuts the first response mid-frame, then
    /// recovers. Required: the short read is classified transport, the
    /// retry succeeds, the verdict is complete.
    DisconnectRetry,
    /// Shard 1's endpoint delays every response well inside the read
    /// deadline. Required: no retries, complete verdict — latency alone
    /// is not evidence.
    DelayUnderDeadline,
    /// Shard 1's endpoint is partitioned wholesale. Required: a sound
    /// partial verdict (three certified tiles, shard 1 unavailable), and
    /// a complete verdict again after the partition heals.
    Partition,
    /// All endpoints reachable, but shard 1's part is dropped from the
    /// answer while the outage list stays empty. Required:
    /// [`VerifyError::ShardWithheld`] — a reachable shard that does not
    /// answer is withholding, and degradation never excuses it.
    WithholdReachable,
    /// All endpoints reachable and all parts present, but the client's
    /// outage list (falsely) names shard 1. Required:
    /// [`VerifyError::UnexpectedShardAnswer`] — stale or forged transport
    /// evidence must not launder a part past the unavailability check.
    PhantomUnreachable,
}

impl NetFault {
    /// Every strategy, in catalog order.
    pub const CATALOG: [NetFault; 9] = [
        NetFault::RefuseThenRecover,
        NetFault::StallTimeout,
        NetFault::CorruptFrame,
        NetFault::TruncateFrame,
        NetFault::DisconnectRetry,
        NetFault::DelayUnderDeadline,
        NetFault::Partition,
        NetFault::WithholdReachable,
        NetFault::PhantomUnreachable,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            NetFault::RefuseThenRecover => "refuse-then-recover",
            NetFault::StallTimeout => "stall-timeout",
            NetFault::CorruptFrame => "corrupt-frame",
            NetFault::TruncateFrame => "truncate-frame",
            NetFault::DisconnectRetry => "disconnect-retry",
            NetFault::DelayUnderDeadline => "delay-under-deadline",
            NetFault::Partition => "partition",
            NetFault::WithholdReachable => "withhold-reachable",
            NetFault::PhantomUnreachable => "phantom-unreachable",
        }
    }
}

/// What the client stack concluded about one faulted exchange.
#[derive(Debug)]
pub enum NetOutcome {
    /// Fan-out succeeded and the verdict certifies every tile.
    Complete(PartialVerdict),
    /// Fan-out succeeded with outages and the verdict soundly degrades.
    Partial(PartialVerdict),
    /// Fan-out failed with a typed transport/integrity error.
    Net(NetError),
    /// Fan-out succeeded but verification rejected the answer.
    Verify(VerifyError),
}

/// The record of one catalog entry's run.
#[derive(Debug)]
pub struct NetFaultConformance {
    /// The strategy exercised.
    pub fault: NetFault,
    /// Whether a fault-free fan-out over the same deployment produced a
    /// complete, fully certified verdict (the 0%-fault-rate gate: chaos
    /// machinery must not reject honest answers).
    pub honest_ok: bool,
    /// The faulted exchange's outcome.
    pub outcome: NetOutcome,
    /// Connection attempts the faulted exchange made against the targeted
    /// endpoint (pins retry behavior: recoverable faults retry, integrity
    /// faults must not).
    pub target_attempts: u64,
    /// Whether the faulted exchange finished inside the fan-out's
    /// worst-case deadline budget (the "never hangs" bound).
    pub within_budget: bool,
    /// For [`NetFault::Partition`]: whether a fresh fan-out after healing
    /// produced a complete verdict again. `true` for other strategies.
    pub recovered: bool,
}

impl NetFaultConformance {
    /// Whether the outcome matches the strategy's pinned expectation.
    pub fn ok(&self) -> bool {
        if !self.honest_ok || !self.within_budget || !self.recovered {
            return false;
        }
        match self.fault {
            NetFault::RefuseThenRecover | NetFault::DisconnectRetry => {
                matches!(&self.outcome, NetOutcome::Complete(_)) && self.target_attempts >= 2
            }
            NetFault::DelayUnderDeadline => {
                matches!(&self.outcome, NetOutcome::Complete(_)) && self.target_attempts == 1
            }
            NetFault::StallTimeout | NetFault::Partition => match &self.outcome {
                NetOutcome::Partial(v) => {
                    v.unavailable_shards() == vec![TARGET_SHARD]
                        && v.tiles.iter().filter(|t| t.is_certified()).count() == 3
                }
                _ => false,
            },
            NetFault::CorruptFrame | NetFault::TruncateFrame => {
                matches!(&self.outcome, NetOutcome::Net(NetError::Wire(_)))
                    && self.target_attempts == 1
            }
            NetFault::WithholdReachable => matches!(
                &self.outcome,
                NetOutcome::Verify(VerifyError::ShardWithheld { shard }) if *shard == TARGET_SHARD
            ),
            NetFault::PhantomUnreachable => matches!(
                &self.outcome,
                NetOutcome::Verify(VerifyError::UnexpectedShardAnswer { shard })
                    if *shard == TARGET_SHARD
            ),
        }
    }
}

/// The shard whose endpoint each strategy attacks.
const TARGET_SHARD: usize = 1;

struct ChaosSystem {
    sa: ShardedAggregator,
    /// Held to keep the upstream serving; the proxies talk to its address.
    _server: QsServer,
    proxies: Vec<ChaosProxy>,
    verifier: Verifier,
    view: EpochView,
    config: ClientConfig,
}

impl ChaosSystem {
    /// 4 shards over keys 0..=390, the shared three-period timeline, one
    /// chaos proxy per shard endpoint (all initially healthy), and tight
    /// test deadlines.
    fn build(scheme: SchemeKind, n: i64) -> Self {
        let (mut sa, sqs, verifier, view) = sharded_system(scheme, 4, n);
        let server = QsServer::spawn(sqs, QsServerOptions::default()).expect("bind loopback");
        server.with_server(|sqs| run_sharded_timeline(&mut sa, sqs));

        let proxies: Vec<ChaosProxy> = (0..sa.map().shard_count())
            .map(|_| ChaosProxy::spawn(server.addr(), FaultPlan::healthy()).expect("proxy"))
            .collect();
        ChaosSystem {
            sa,
            _server: server,
            proxies,
            verifier,
            view,
            config: ClientConfig::fast(),
        }
    }

    fn fanout(&self) -> ShardFanout {
        let endpoints = self.proxies.iter().map(|p| p.addr().to_string()).collect();
        ShardFanout::new(self.sa.map().clone(), endpoints, self.config.clone())
    }

    /// Worst case for one whole fan-out: every shard burning its full
    /// per-request deadline budget, plus slack for scheduling.
    fn fanout_budget(&self) -> Duration {
        self.config.deadline_budget() * self.sa.map().shard_count() as u32 + Duration::from_secs(1)
    }

    /// Run a fan-out over the full key range and verify whatever comes
    /// back, partial or not.
    fn exchange(&self, rng: &mut StdRng) -> NetOutcome {
        let mut fanout = self.fanout();
        match fanout.select_range(0, 390) {
            Err(e) => NetOutcome::Net(e),
            Ok(partial) => self.judge(&partial.answer, &partial.unreachable(), rng),
        }
    }

    fn judge(
        &self,
        answer: &authdb_core::shard::ShardedSelectionAnswer,
        unreachable: &[usize],
        rng: &mut StdRng,
    ) -> NetOutcome {
        match self.verifier.verify_partial_selection(
            0,
            390,
            answer,
            unreachable,
            &self.view,
            self.sa.now(),
            true,
            rng,
        ) {
            Ok(v) if v.is_complete() => NetOutcome::Complete(v),
            Ok(v) => NetOutcome::Partial(v),
            Err(e) => NetOutcome::Verify(e),
        }
    }

    /// Script `faults` for the next connections of the target proxy,
    /// padding for ordinals already consumed by earlier exchanges.
    fn script_target(&self, faults: &[Fault]) {
        let consumed = self.proxies[TARGET_SHARD].connections() as usize;
        let mut script = vec![Fault::Pass; consumed];
        script.extend_from_slice(faults);
        self.proxies[TARGET_SHARD].set_plan(FaultPlan::from_script(script));
    }
}

/// Run one catalog strategy against a fresh chaos system.
fn netfault_scenario(scheme: SchemeKind, fault: NetFault) -> NetFaultConformance {
    let mut rng = StdRng::seed_from_u64(4242);
    let sys = ChaosSystem::build(scheme, 40);

    // The 0%-fault gate: the resilient stack must accept honest answers.
    let honest_ok = matches!(sys.exchange(&mut rng), NetOutcome::Complete(_));

    // Arm the strategy.
    let stall_all = vec![Fault::Stall; sys.config.retry.max_retries + 1];
    match fault {
        NetFault::RefuseThenRecover => sys.script_target(&[Fault::RefuseConnect]),
        NetFault::StallTimeout => sys.script_target(&stall_all),
        NetFault::CorruptFrame => sys.script_target(&[Fault::Tamper(WireTamper::VersionDowngrade)]),
        NetFault::TruncateFrame => sys.script_target(&[Fault::Tamper(WireTamper::TruncateFrame)]),
        NetFault::DisconnectRetry => sys.script_target(&[Fault::DisconnectMidFrame]),
        NetFault::DelayUnderDeadline => sys.script_target(&[
            Fault::Delay { micros: 20_000 },
            Fault::Delay { micros: 20_000 },
        ]),
        NetFault::Partition => sys.proxies[TARGET_SHARD].partition(true),
        NetFault::WithholdReachable | NetFault::PhantomUnreachable => {}
    }

    let before = sys.proxies[TARGET_SHARD].connections();
    let started = Instant::now();
    let outcome = match fault {
        NetFault::WithholdReachable => {
            // Every endpoint answers; the answer then loses shard 1's part
            // while the outage list stays empty — the malicious-publisher
            // shape degradation must never absorb.
            let mut fanout = sys.fanout();
            let partial = fanout.select_range(0, 390).expect("healthy fan-out");
            assert!(partial.is_complete(), "scenario precondition");
            let mut answer = partial.answer;
            answer.parts.retain(|p| p.shard != TARGET_SHARD);
            sys.judge(&answer, &[], &mut rng)
        }
        NetFault::PhantomUnreachable => {
            // Every part present, but the outage list claims shard 1 was
            // dark — forged transport evidence with the part still riding.
            let mut fanout = sys.fanout();
            let partial = fanout.select_range(0, 390).expect("healthy fan-out");
            assert!(partial.is_complete(), "scenario precondition");
            sys.judge(&partial.answer, &[TARGET_SHARD], &mut rng)
        }
        _ => sys.exchange(&mut rng),
    };
    let elapsed = started.elapsed();
    let target_attempts = sys.proxies[TARGET_SHARD].connections() - before;

    // Partition must heal: availability faults are weather, and the same
    // client must return to complete verdicts once the weather passes.
    let recovered = if fault == NetFault::Partition {
        sys.proxies[TARGET_SHARD].partition(false);
        matches!(sys.exchange(&mut rng), NetOutcome::Complete(_))
    } else {
        true
    };

    NetFaultConformance {
        fault,
        honest_ok,
        outcome,
        target_attempts,
        within_budget: elapsed <= sys.fanout_budget(),
        recovered,
    }
}

/// Run the complete catalog under `scheme`, one fresh deployment per
/// strategy.
pub fn run_netfault_catalog(scheme: SchemeKind) -> Vec<NetFaultConformance> {
    NetFault::CATALOG
        .iter()
        .map(|&f| netfault_scenario(scheme, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfault_catalog_conforms_mock() {
        for c in run_netfault_catalog(SchemeKind::Mock) {
            assert!(
                c.ok(),
                "{}: honest_ok={} within_budget={} recovered={} attempts={} outcome={:?}",
                c.fault.name(),
                c.honest_ok,
                c.within_budget,
                c.recovered,
                c.target_attempts,
                c.outcome
            );
        }
    }

    #[test]
    fn netfault_spot_bas() {
        // Full crypto once: the degradation strategy (real signatures in
        // the certified tiles) and the soundness strategy (a withheld part
        // must still be caught with aggregate verification live).
        for fault in [NetFault::Partition, NetFault::WithholdReachable] {
            let c = netfault_scenario(SchemeKind::Bas, fault);
            assert!(c.ok(), "{}: {:?}", c.fault.name(), c.outcome);
        }
    }
}
