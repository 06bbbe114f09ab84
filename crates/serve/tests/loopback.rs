//! Loopback integration tests: a real server on an ephemeral port,
//! real clients, and the central guarantee — served results are
//! byte-identical to the batch pipeline, independent of worker count,
//! request ordering and co-tenant traffic.

use poisongame_serve::client::Client;
use poisongame_serve::protocol::{CellRequest, EstimateRequest, RequestKind, SolveRequest};
use poisongame_serve::server::{Server, ServerConfig};
use poisongame_serve::ErrorCode;
use poisongame_serve::ServeError;
use poisongame_sim::jsonio::Json;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::{DefenseSpec, LearnerSpec, Scenario};
use poisongame_sim::EvalEngine;
use std::net::SocketAddr;

/// Small-but-real experiment config: the synthetic-Spambase geometry
/// the attack is calibrated for, at test-suite scale.
fn quick_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        source: DataSource::SyntheticSpambase { rows: 300 },
        epochs: 20,
        ..ExperimentConfig::paper()
    }
}

fn quick_cell(seed: u64, scenario: Scenario) -> CellRequest {
    CellRequest {
        config: quick_config(seed),
        scenario,
        ..CellRequest::default()
    }
}

/// The batch pipeline's JSON for one cell request. A served cell
/// carries no engine stats block, so the local run drops it too.
fn batch_cell_json(cell: &CellRequest) -> String {
    let mut results = EvalEngine::new()
        .run_matrix(&cell.config, &cell.as_matrix())
        .expect("batch matrix");
    results.engine = None;
    results.to_json_string()
}

fn spawn_server(config: ServerConfig) -> (SocketAddr, poisongame_serve::ServerHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, server.spawn())
}

#[test]
fn concurrent_cells_are_byte_identical_to_the_batch_pipeline() {
    let (addr, handle) = spawn_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // Three distinct cells; every client requests all of them.
    let cells: Vec<CellRequest> = vec![
        quick_cell(11, Scenario::paper()),
        quick_cell(12, Scenario::paper()),
        quick_cell(
            11,
            Scenario::builder()
                .defense(DefenseSpec::Knn { k: 5 })
                .learner(LearnerSpec::LogReg)
                .build(),
        ),
    ];

    // The ground truth: the batch pipeline, run locally.
    let expected: Vec<String> = cells.iter().map(batch_cell_json).collect();

    // Four concurrent clients, each pipelining all three cells.
    let mut threads = Vec::new();
    for _ in 0..4 {
        let cells = cells.clone();
        threads.push(std::thread::spawn(move || -> Vec<String> {
            let mut client = Client::connect(addr).expect("connect");
            let ids: Vec<u64> = cells
                .iter()
                .map(|cell| {
                    client
                        .send(RequestKind::Cell(cell.clone()), None)
                        .expect("send")
                })
                .collect();
            ids.iter()
                .map(|&id| client.wait(id).expect("response").render())
                .collect()
        }));
    }
    for thread in threads {
        let got = thread.join().expect("client thread");
        assert_eq!(
            got, expected,
            "served cells must be byte-identical to the batch pipeline"
        );
    }

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.completed, 12, "4 clients × 3 cells");
    assert_eq!(stats.shed, 0);
    assert!(
        stats.cache_misses >= 2 && stats.cache_entries >= 2,
        "two distinct preparations behind 12 requests: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}

#[test]
fn results_are_deterministic_across_worker_counts_and_orderings() {
    // The same request set against a 1-worker and a 4-worker server,
    // sent in opposite orders — every response must be bit-identical.
    let requests: Vec<RequestKind> = vec![
        RequestKind::Cell(quick_cell(7, Scenario::paper())),
        RequestKind::Estimate(EstimateRequest {
            config: quick_config(7),
            placements: vec![0.05, 0.2],
            strengths: vec![0.0, 0.2],
        }),
        RequestKind::Solve(SolveRequest {
            effect_samples: vec![(0.0, 2.0e-4), (0.2, 4.0e-5), (0.45, -1.0e-6)],
            cost_samples: vec![(0.0, 0.0), (0.2, 0.022), (0.4, 0.065)],
            n_points: 644,
            resolution: 40,
            ..SolveRequest::default()
        }),
        RequestKind::Cell(quick_cell(8, Scenario::paper())),
    ];

    let mut renders: Vec<Vec<String>> = Vec::new();
    for workers in [1, 4] {
        let (addr, handle) = spawn_server(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        for reverse in [false, true] {
            let mut client = Client::connect(addr).expect("connect");
            let order: Vec<usize> = if reverse {
                (0..requests.len()).rev().collect()
            } else {
                (0..requests.len()).collect()
            };
            // Pipeline in the chosen order, collect back in canonical
            // order.
            let mut ids = vec![0u64; requests.len()];
            for &i in &order {
                ids[i] = client.send(requests[i].clone(), None).expect("send");
            }
            renders.push(
                ids.iter()
                    .map(|&id| client.wait(id).expect("response").render())
                    .collect(),
            );
        }
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("server exit");
    }
    for run in &renders[1..] {
        assert_eq!(
            run, &renders[0],
            "responses must not depend on worker count or request order"
        );
    }
}

#[test]
fn online_round_trips_end_to_end_and_matches_local_play() {
    use poisongame_online::{LearnerKind, OnlineSpec};
    use poisongame_serve::protocol::OnlineRequest;

    let (addr, handle) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let request = OnlineRequest {
        config: quick_config(17),
        spec: OnlineSpec {
            rounds: 300,
            attacker: LearnerKind::Hedge,
            defender: LearnerKind::RegretMatching,
            placements: vec![0.02, 0.15, 0.30],
            strengths: vec![0.0, 0.10, 0.25],
            ..OnlineSpec::default()
        },
    };

    let mut client = Client::connect(addr).expect("connect");
    let served = client.online(&request).expect("online trace");
    // Deterministic for a fixed seed: the same request answers with
    // the same trace, and a typed re-request round-trips identically.
    let again = client.online(&request).expect("online trace again");
    assert_eq!(served, again, "online responses must be deterministic");

    // And the served trace is byte-identical to the local pipeline.
    let engine = poisongame_sim::EvalEngine::new();
    let local = poisongame_online::run_online(
        &engine,
        &request.config,
        &request.spec,
        &poisongame_sim::ExecPolicy::sequential(),
    )
    .expect("local online run");
    assert_eq!(
        served.to_json_string(),
        local.trace.to_json_string(),
        "served online play must equal the batch pipeline"
    );
    assert_eq!(served.rounds, 300);
    assert_eq!(served.attacker, "hedge");

    // A seed override changes the play stream (and therefore the trace
    // of a sampled-feedback run would differ; with expected feedback
    // the payoff grid itself changes with the data seed).
    let mut reseeded = request.clone();
    reseeded.config.seed = 18;
    let other = client.online(&reseeded).expect("reseeded trace");
    assert_ne!(served, other, "a different seed must change the run");

    // An invalid spec surfaces as a structured eval error, not a hang.
    let mut bad = request.clone();
    bad.spec.placements = vec![];
    match client.online(&bad).expect_err("empty grid must fail") {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::EvalFailed),
        other => panic!("expected eval_failed, got {other}"),
    }
    // So does a spec whose trace would hold more than MAX_CHECKPOINTS
    // points: rejected before any cell is scored or round played.
    let mut unbounded = request.clone();
    unbounded.spec.rounds = 1_000_000_000_000;
    unbounded.spec.checkpoint_every = 1;
    match client
        .online(&unbounded)
        .expect_err("unbounded trace must fail")
    {
        ServeError::Server { code, message } => {
            assert_eq!(code, ErrorCode::EvalFailed);
            assert!(message.contains("checkpoints"), "{message}");
        }
        other => panic!("expected eval_failed, got {other}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}

#[test]
fn zero_capacity_queue_sheds_with_structured_busy() {
    let (addr, handle) = spawn_server(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .cell(&quick_cell(1, Scenario::paper()))
        .expect_err("must be shed");
    match err {
        ServeError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Busy);
            assert!(message.contains("queue full"), "{message}");
        }
        other => panic!("expected busy, got {other}"),
    }
    // Control plane still answers while evaluation is saturated.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 0);
    // The shed is counted by the telemetry layer and published as a
    // structured event (registry and event log are process-global, so
    // co-tenant tests only ever push these counts higher).
    let telemetry = stats.telemetry.expect("stats carry telemetry");
    assert!(telemetry.shed >= 1, "{telemetry:?}");
    let replay = client.events(0).expect("events");
    let shed_event = replay
        .get("events")
        .and_then(Json::as_array)
        .expect("events array")
        .iter()
        .find(|e| e.get("kind").and_then(Json::as_str) == Some("shed"))
        .unwrap_or_else(|| panic!("shed event published: {}", replay.render()));
    assert_eq!(
        shed_event
            .get("fields")
            .and_then(|f| f.get("kind"))
            .and_then(Json::as_str),
        Some("cell")
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}

#[test]
fn expired_deadline_is_a_structured_error() {
    // `deadline_ms: 0` is a protocol error now, so force expiry the
    // honest way: queue a 1 ms-deadline request behind a slow one on a
    // single-executor server — it expires while waiting its turn. The
    // slow request is deliberately heavy (large dataset, many epochs:
    // hundreds of ms even in release) so the 1 ms deadline has orders
    // of magnitude of margin, not a race. The executor runs the
    // cheapest waiting request first, so the cheap doomed request is
    // sent only once the slow one has started (no request waiting).
    let (addr, handle) = spawn_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let heavy = CellRequest {
        config: ExperimentConfig {
            seed: 1,
            source: DataSource::SyntheticSpambase { rows: 2000 },
            epochs: 400,
            ..ExperimentConfig::paper()
        },
        ..CellRequest::default()
    };
    let slow = client
        .send(RequestKind::Cell(heavy), None)
        .expect("send slow");
    while client.stats().expect("stats").queue_depth > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let doomed = client
        .send(RequestKind::Cell(quick_cell(2, Scenario::paper())), Some(1))
        .expect("send doomed");
    client.wait(slow).expect("slow request completes");
    match client.wait(doomed).expect_err("deadline must expire") {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::Deadline),
        other => panic!("expected deadline, got {other}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.expired, 1);
    // The miss reaches the telemetry layer too: counter plus event.
    let telemetry = stats.telemetry.expect("stats carry telemetry");
    assert!(telemetry.deadline_missed >= 1, "{telemetry:?}");
    let replay = client.events(0).expect("events");
    assert!(
        replay
            .get("events")
            .and_then(Json::as_array)
            .expect("events array")
            .iter()
            .any(|e| e.get("kind").and_then(Json::as_str) == Some("deadline_missed")),
        "deadline_missed event published: {}",
        replay.render()
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}

#[test]
fn shutdown_drains_admitted_work_and_rejects_new() {
    let (addr, handle) = spawn_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    // Pipeline a few cells, then immediately ask for shutdown.
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            client
                .send(
                    RequestKind::Cell(quick_cell(30 + i, Scenario::paper())),
                    None,
                )
                .expect("send")
        })
        .collect();
    client.shutdown().expect("shutdown ack");
    // Everything admitted before the shutdown is still answered.
    for id in ids {
        client.wait(id).expect("drained response");
    }
    // New work after the drain began is refused with a structured
    // error (the server may already have exited; a closed connection
    // is equally acceptable).
    match client.cell(&quick_cell(99, Scenario::paper())) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Err(_) => {} // a closed connection is equally acceptable
        Ok(_) => panic!("request after shutdown must not be evaluated"),
    }
    let stats = handle.join().expect("server exit");
    assert_eq!(stats.completed, 3, "all admitted work drained");
}

#[test]
fn estimate_and_solve_match_local_computation() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let est_req = EstimateRequest {
        config: quick_config(42),
        placements: vec![0.05, 0.2],
        strengths: vec![0.0, 0.2],
    };
    let served = client.estimate(&est_req).expect("estimate");
    let local = EvalEngine::new()
        .estimate_curves(&est_req.config, &est_req.placements, &est_req.strengths)
        .expect("local estimate");
    assert_eq!(served, local, "served estimate equals the batch pipeline");

    let solve_req = SolveRequest {
        effect_samples: local.effect_samples.clone(),
        cost_samples: local.cost_samples.clone(),
        n_points: local.n_poison,
        resolution: 30,
        ..SolveRequest::default()
    };
    let served = client.solve(&solve_req).expect("solve");
    let game = local.game().expect("game");
    let local_solution =
        poisongame_core::bridge::solve_discretized_with(&game, 30, solve_req.solver)
            .expect("local solve");
    assert_eq!(served.value.to_bits(), local_solution.value.to_bits());
    assert_eq!(served.solver, local_solution.solver);
    assert_eq!(
        served.defender_support,
        local_solution.defender_strategy.support()
    );

    // An unsatisfiable evaluation surfaces as a structured
    // `eval_failed`, not a dropped connection.
    let bad = SolveRequest {
        // Parses fine, but percentiles beyond 1.0 fail curve fitting.
        effect_samples: vec![(1.5, 1.0)],
        ..solve_req
    };
    match client.solve(&bad).expect_err("bad curves must fail") {
        ServeError::Server { code, .. } => assert_eq!(code, ErrorCode::EvalFailed),
        other => panic!("expected eval_failed, got {other}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}

#[test]
fn telemetry_never_rides_the_response_path() {
    use poisongame_obs::MetricValue;
    use poisongame_serve::telemetry::{registry_from_json, REQUEST_DURATION_FAMILY};

    let (addr, handle) = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // The same request document on two fresh connections gets the same
    // client-assigned id, so the full response lines must be
    // byte-identical — even though the telemetry recorded for the two
    // services necessarily differs (distinct wall-clock timings).
    let request = quick_cell(77, Scenario::paper());
    let lines: Vec<String> = (0..2)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect");
            let id = client
                .send(RequestKind::Cell(request.clone()), None)
                .expect("send");
            client.wait(id).expect("response").render()
        })
        .collect();
    assert_eq!(
        lines[0], lines[1],
        "identical requests answer with identical bytes"
    );

    // The stats summary sees both services, with ordered percentiles.
    let mut client = Client::connect(addr).expect("connect");
    let telemetry = client
        .stats()
        .expect("stats")
        .telemetry
        .expect("stats carry telemetry");
    let cell = telemetry
        .kinds
        .iter()
        .find(|k| k.kind == "cell")
        .expect("cell kind summarized");
    assert!(cell.count >= 2, "{cell:?}");
    assert!(cell.duration_p50_nanos > 0, "{cell:?}");
    assert!(cell.duration_p99_nanos >= cell.duration_p50_nanos);
    assert!(cell.duration_max_nanos >= cell.duration_p99_nanos);
    assert!(cell.queue_wait_p99_nanos >= cell.queue_wait_p50_nanos);

    // The full registry round-trips over the `metrics` request; the
    // per-kind histogram is in there with both services counted.
    let snapshot =
        registry_from_json(&client.metrics().expect("metrics")).expect("decode registry");
    let family = snapshot
        .find(REQUEST_DURATION_FAMILY)
        .expect("request duration family");
    let observed: u64 = family
        .metrics
        .iter()
        .filter(|m| m.labels.iter().any(|(k, v)| k == "kind" && v == "cell"))
        .map(|m| match &m.value {
            MetricValue::Histogram(h) => h.count,
            other => panic!("duration family must hold histograms, got {other:?}"),
        })
        .sum();
    assert!(observed >= 2, "both cells in the histogram: {observed}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}
