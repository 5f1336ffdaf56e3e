//! Failure injection: the engine and protocols must fail loudly and
//! precisely on malformed inputs and protocol violations — silence is a
//! bug in a simulator whose purpose is enforcing a model.

use lcs_congest::{
    AggOp, FaultPlan, Message, MultiAggregate, MultiBfs, MultiBfsInstance, MultiBfsSpec,
    Participation, Protocol, RoundCtx, RunStats, Session, SimConfig, SimError, Wake,
};
use lcs_graph::generators::{cycle, path, star};
use lcs_graph::Graph;
use std::sync::Arc;

/// Runs `protocol` to completion in a fresh session, discarding its
/// output: these tests only care how a run fails.
fn run<P: Protocol + Sync>(g: &Graph, protocol: P, cfg: &SimConfig) -> Result<(), SimError> {
    Session::new(g, cfg.clone()).run(protocol).map(drop)
}

/// Wake signal of a node whose planned misbehavior is not `done` yet:
/// it stays scheduled. Time-driven misbehavior under the event-driven
/// engine requires this explicit quiescence contract — sleeping via the
/// derived `halted` signal would mean never being invoked again.
fn awake_until(done: bool) -> Wake {
    if done {
        Wake::Sleep
    } else {
        Wake::Stay
    }
}

/// A protocol that violates the model in a configurable round, after
/// behaving correctly for a while (violations must be caught late, not
/// just at round 0).
struct LateViolator {
    mode: u8,
    at_round: u64,
}

#[derive(Debug, Clone)]
struct BigMsg(u32);

impl Message for BigMsg {
    fn size_words(&self) -> u32 {
        self.0
    }
}

impl Protocol for LateViolator {
    type Msg = BigMsg;
    type State = bool;
    type Output = ();
    fn init(&mut self, graph: &Graph) -> Vec<bool> {
        vec![false; graph.n()]
    }
    fn round(&self, done: &mut bool, ctx: &mut RoundCtx<'_, BigMsg>) {
        if ctx.round() >= self.at_round {
            *done = true;
        }
        if ctx.node() != 0 {
            return;
        }
        if ctx.round() < self.at_round {
            // Legitimate chatter keeps the run alive.
            ctx.send(1, BigMsg(1));
            return;
        }
        if ctx.round() == self.at_round {
            match self.mode {
                0 => ctx.send(2, BigMsg(1)), // non-neighbor on a path
                1 => {
                    ctx.send(1, BigMsg(1));
                    ctx.send(1, BigMsg(1)); // double send
                }
                _ => ctx.send(1, BigMsg(99)), // oversized
            }
        }
    }
    fn halted(&self, _: &bool) -> bool {
        true
    }
    fn wake(&self, &done: &bool) -> Wake {
        awake_until(done)
    }
    fn finish(self, _: &Graph, _: Vec<bool>, _: &RunStats) {}
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn late_violations_are_caught_at_the_right_round() {
    let g = path(3);
    for (mode, expect_kind) in [(0u8, "dest"), (1, "overflow"), (2, "size")] {
        let violator = LateViolator { mode, at_round: 5 };
        let err = run(&g, violator, &SimConfig::default()).unwrap_err();
        match (expect_kind, &err) {
            ("dest", SimError::InvalidDestination { round, .. })
            | ("overflow", SimError::ChannelOverflow { round, .. })
            | ("size", SimError::MessageTooLarge { round, .. }) => {
                assert_eq!(*round, 5, "mode {mode}");
            }
            _ => panic!("mode {mode}: wrong error {err}"),
        }
    }
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn late_violations_are_identical_under_the_worker_pool() {
    // The pool path must surface exactly the error the sequential
    // engine reports, at the same round, for every shard count.
    let g = path(3);
    for mode in [0u8, 1, 2] {
        let mk = || LateViolator { mode, at_round: 5 };
        let base = run(&g, mk(), &SimConfig::default()).unwrap_err();
        for shards in [2usize, 3] {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            let err = run(&g, mk(), &cfg).unwrap_err();
            assert_eq!(err, base, "mode {mode}, shards {shards}");
        }
    }
}

/// Behaves correctly for a few rounds, then panics outright — the
/// harshest protocol failure a worker shard can inject. Stays awake
/// (explicit `wake` override) until its planned round, since a
/// sleeping node is never invoked to panic. `node: None` makes every
/// node panic.
struct PanicsAt {
    node: Option<u32>,
    at_round: u64,
}

impl Protocol for PanicsAt {
    type Msg = u32;
    type State = bool;
    type Output = ();
    fn init(&mut self, graph: &Graph) -> Vec<bool> {
        vec![false; graph.n()]
    }
    fn round(&self, done: &mut bool, ctx: &mut RoundCtx<'_, u32>) {
        if ctx.round() >= self.at_round {
            *done = true;
        }
        if ctx.node() == 0 && ctx.round() < 10 {
            ctx.send(1, 1); // keep the run alive past the panic round
        }
        if self.node.is_none_or(|v| v == ctx.node()) && ctx.round() == self.at_round {
            panic!("injected protocol panic at node {}", ctx.node());
        }
    }
    fn halted(&self, _: &bool) -> bool {
        true
    }
    fn wake(&self, &done: &bool) -> Wake {
        awake_until(done)
    }
    fn finish(self, _: &Graph, _: Vec<bool>, _: &RunStats) {}
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn panicking_protocol_in_a_worker_shard_propagates_instead_of_deadlocking() {
    // A node in the *last* shard panics mid-run: the pool must catch it
    // in the worker (so no barrier participant is left waiting), shut
    // down, and re-raise the payload on the calling thread — for every
    // shard layout, including the sequential path.
    let g = path(12);
    for shards in [1usize, 2, 4, 12] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let panics = PanicsAt {
            node: Some(11),
            at_round: 3,
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run(&g, panics, &cfg);
        }))
        .expect_err("the protocol panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("injected protocol panic at node 11"),
            "shards {shards}: unexpected payload {msg:?}"
        );
    }
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn simultaneous_worker_panics_surface_the_lowest_shard() {
    // Every node panics in the same round; the pool must deterministically
    // re-raise the lowest shard's payload (the one the sequential engine
    // would hit first).
    let g = path(8);
    for shards in [1usize, 4, 8] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let panics = PanicsAt {
            node: None,
            at_round: 0,
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run(&g, panics, &cfg);
        }))
        .expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(
            msg, "injected protocol panic at node 0",
            "shards {shards}: wrong panic won"
        );
    }
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn malformed_aggregation_tree_yields_no_result_not_a_hang() {
    // Participation claims a child that never reports: the convergecast
    // cannot complete. The protocol quiesces (all queues empty) rather
    // than spinning, and the root visibly has NO result — callers must
    // treat a missing aggregate as failure (the construction's
    // verification step does exactly that).
    let g = path(3);
    let parts = vec![
        vec![Participation {
            inst: 0,
            parent: None,
            children: vec![1], // 1 has no participation: never sends Up
            value: 7,
        }],
        vec![],
        vec![],
    ];
    let cfg = SimConfig {
        max_rounds: 50,
        ..SimConfig::default()
    };
    let out = Session::new(&g, cfg.clone())
        .run(MultiAggregate::new(parts, AggOp::Sum, false))
        .unwrap();
    assert_eq!(out.result_at(0, 0), None, "stuck root must have no result");
    assert!(out.stats.rounds < 50, "quiesces well before the limit");
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn cyclic_parent_pointers_yield_no_results() {
    // 0 and 1 claim each other as parent: neither can ever send Up, so
    // both quiesce resultless.
    let g = path(2);
    let parts = vec![
        vec![Participation {
            inst: 0,
            parent: Some(1),
            children: vec![1],
            value: 1,
        }],
        vec![Participation {
            inst: 0,
            parent: Some(0),
            children: vec![0],
            value: 1,
        }],
    ];
    let cfg = SimConfig {
        max_rounds: 30,
        ..SimConfig::default()
    };
    let out = Session::new(&g, cfg.clone())
        .run(MultiAggregate::new(parts, AggOp::Sum, false))
        .unwrap();
    assert_eq!(out.result_at(0, 0), None);
    assert_eq!(out.result_at(1, 0), None);
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn tiny_queue_cap_degrades_gracefully_not_fatally() {
    // Congestion enforcement drops tokens and flags, but the run itself
    // completes (the construction's verification step then rejects).
    let g = star(16);
    let instances: Vec<MultiBfsInstance> = (1..=12)
        .map(|i| MultiBfsInstance {
            root: i,
            start_round: 0,
            depth_limit: 4,
        })
        .collect();
    let spec = Arc::new(MultiBfsSpec {
        instances,
        membership: lcs_congest::Membership::func(|_, _, _| true),
        queue_cap: 1,
    });
    let out = Session::new(&g, SimConfig::default())
        .run(MultiBfs::new(spec))
        .unwrap();
    assert!(out.overflowed, "cap 1 must drop tokens");
    let spanned = (0..12u32)
        .filter(|&i| g.nodes().all(|v| out.reach(v, i).is_some()))
        .count();
    assert!(spanned < 12, "some instance must be incomplete");
}

/// Forwards a token along the path; the last node misbehaves the moment
/// it is woken. Every intermediate hop sleeps after its forward (halted
/// = true, derived wake), so the failure originates in a node — and at
/// high shard counts a whole shard — that had been fully quiescent
/// since round 0 and is re-activated by a (possibly cross-shard,
/// possibly inline-executed) delivery.
struct TripMine {
    /// What the last node does on wake: `false` = panic, `true` = send
    /// to a non-neighbor (model violation).
    violate: bool,
}

impl Protocol for TripMine {
    type Msg = u32;
    type State = ();
    type Output = ();
    fn init(&mut self, graph: &Graph) -> Vec<()> {
        vec![(); graph.n()]
    }
    fn round(&self, _: &mut (), ctx: &mut RoundCtx<'_, u32>) {
        let last = ctx.n() as u32 - 1;
        let fire = (ctx.round() == 0 && ctx.node() == 0)
            || ctx.inbox().iter().any(|&(from, _)| from < ctx.node());
        if !fire {
            return;
        }
        if ctx.node() == last {
            if self.violate {
                ctx.send(0, 1); // non-neighbor on a path: violation
            } else {
                panic!("woken node {last} panicked");
            }
        } else {
            ctx.send(ctx.node() + 1, 1);
        }
    }
    fn halted(&self, _: &()) -> bool {
        true
    }
    fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn panic_on_wake_in_a_quiescent_shard_propagates_identically() {
    // At shards = 12 the panicking node is alone in a shard that was
    // quiescent for 11 rounds — and with ~1 active node per round the
    // engine runs those rounds inline on the coordinator. The panic
    // must surface with the same payload for every layout.
    let g = path(12);
    for shards in [1usize, 2, 4, 12] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run(&g, TripMine { violate: false }, &cfg);
        }))
        .expect_err("the wake-round panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(
            msg, "woken node 11 panicked",
            "shards {shards}: wrong or missing panic"
        );
    }
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn violation_on_wake_after_quiescence_is_reported_at_the_wake_round() {
    // The violating node slept from round 0 until the token reached it
    // at round n-1; the error must carry THAT round, identically at
    // every shard count.
    let g = path(7);
    let expect = SimError::InvalidDestination {
        from: 6,
        to: 0,
        round: 6,
    };
    for shards in [1usize, 3, 7] {
        let cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let err = run(&g, TripMine { violate: true }, &cfg).unwrap_err();
        assert_eq!(err, expect, "shards {shards}");
    }
}

/// A [`LateViolator`]-style node that floods **every arc every round**
/// until `flood_until`, so every node runs every round (message fates
/// are applied receiver-side: a fault plan drops or delays deliveries
/// but not the sends that fill every arc), then violates the model at a
/// planned round. With `flood_until > violate_at` the violation lands
/// in a round where every arc carries a message; with
/// `flood_until < violate_at` (plus the single keep-alive send at
/// `flood_until`) it lands in the first round after the flood, while
/// that one message is still being delivered.
struct DenseViolator {
    /// 0 = send to a non-neighbor, 1 = double-send, 2 = oversized.
    mode: u8,
    violate_at: u64,
    flood_until: u64,
}

impl Protocol for DenseViolator {
    type Msg = BigMsg;
    type State = bool;
    type Output = ();
    fn init(&mut self, graph: &Graph) -> Vec<bool> {
        vec![false; graph.n()]
    }
    fn round(&self, done: &mut bool, ctx: &mut RoundCtx<'_, BigMsg>) {
        if ctx.round() >= self.violate_at {
            *done = true;
        }
        if ctx.round() < self.flood_until {
            for i in 0..ctx.degree() {
                ctx.send_nth(i, BigMsg(1));
            }
        } else if ctx.node() == 0 && ctx.round() == self.flood_until {
            // End the flood with one message still in flight: the next
            // round's schedule comes from that one delivery.
            ctx.send_nth(0, BigMsg(1));
        }
        if ctx.node() == 0 && ctx.round() == self.violate_at {
            match self.mode {
                0 => ctx.send(3, BigMsg(1)), // non-neighbor on cycle(6)
                1 => {
                    // Two writes to one arc overflow it whether or not
                    // the flood already claimed the slot this round.
                    ctx.send_nth(0, BigMsg(1));
                    ctx.send_nth(0, BigMsg(1));
                }
                _ => ctx.send_nth(1, BigMsg(99)), // oversized
            }
        }
    }
    fn halted(&self, _: &bool) -> bool {
        true
    }
    fn wake(&self, &done: &bool) -> Wake {
        awake_until(done)
    }
    fn finish(self, _: &Graph, _: Vec<bool>, _: &RunStats) {}
}

/// Runs [`DenseViolator`] on `cycle(6)` under a drops-and-delays fault
/// plan and asserts every shard count reports the **same** violation at
/// the **same** round.
fn assert_dense_violation(violate_at: u64, flood_until: u64) {
    let g = cycle(6);
    let plan = FaultPlan {
        drop_rate: 0.20,
        delay_rate: 0.20,
        max_delay: 2,
        corrupt_rate: 0.0,
        crashes: Vec::new(),
        fault_seed: 0xFA117,
    };
    for mode in [0u8, 1, 2] {
        let mk = || DenseViolator {
            mode,
            violate_at,
            flood_until,
        };
        let cfg_for = |shards: usize| SimConfig {
            shards,
            faults: Some(plan.clone()),
            ..SimConfig::default()
        };
        let base = run(&g, mk(), &cfg_for(1)).unwrap_err();
        let round = match (&base, mode) {
            (SimError::InvalidDestination { round, .. }, 0)
            | (SimError::ChannelOverflow { round, .. }, 1)
            | (SimError::MessageTooLarge { round, .. }, 2) => *round,
            _ => panic!("mode {mode}: wrong error {base}"),
        };
        assert_eq!(round, violate_at, "mode {mode}: wrong round");
        for shards in [2usize, 8] {
            let err = run(&g, mk(), &cfg_for(shards)).unwrap_err();
            assert_eq!(err, base, "mode {mode}, shards {shards}");
        }
    }
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn violations_in_dense_rounds_under_faults_are_caught_identically() {
    // All six nodes flood all arcs through round 9, so rounds 1..=9 run
    // every node; the violation at round 5 happens mid-flood, with the
    // fault plan live.
    assert_dense_violation(5, 10);
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn violations_in_resync_rounds_under_faults_are_caught_identically() {
    // Flooding stops after round 5 but node 0's keep-alive send at
    // round 6 leaves traffic in flight, so round 7 is the first round
    // scheduled from that lone delivery — exactly when the violation
    // fires.
    assert_dense_violation(7, 6);
}

#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "tier-2: run with --features slow-tests or -- --ignored"
)]
#[test]
fn round_limit_zero_fails_immediately() {
    let g = path(2);
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        type State = ();
        type Output = ();
        fn init(&mut self, graph: &Graph) -> Vec<()> {
            vec![(); graph.n()]
        }
        fn round(&self, _: &mut (), _: &mut RoundCtx<'_, ()>) {}
        fn halted(&self, _: &()) -> bool {
            false
        }
        fn finish(self, _: &Graph, _: Vec<()>, _: &RunStats) {}
    }
    let cfg = SimConfig {
        max_rounds: 0,
        ..SimConfig::default()
    };
    let err = run(&g, Idle, &cfg).unwrap_err();
    assert_eq!(err, SimError::RoundLimitExceeded { limit: 0 });
}
