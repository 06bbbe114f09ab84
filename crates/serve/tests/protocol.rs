//! Wire-protocol conformance: round trips for every request and
//! response kind, and structured error responses (never a panic or a
//! silent drop) for malformed, unknown, oversized and truncated
//! frames against a live server.

use poisongame_online::{LearnerKind, OnlineSpec};
use poisongame_serve::protocol::{
    parse_request_line, parse_response_line, CellRequest, ErrorCode, EstimateRequest,
    MatrixRequest, OnlineRequest, Request, RequestKind, Response, ResponseBody, SolveRequest,
};
use poisongame_serve::server::{Server, ServerConfig};
use poisongame_sim::jsonio::Json;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::{AttackSpec, DefenseSpec, LearnerSpec, Scenario, ScenarioMatrix};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 5,
        source: DataSource::SyntheticSpambase { rows: 300 },
        epochs: 15,
        ..ExperimentConfig::paper()
    }
}

/// One request of every kind, exercising non-default payload fields.
fn one_of_each() -> Vec<Request> {
    vec![
        Request {
            id: 1,
            deadline_ms: Some(2_000),
            kind: RequestKind::Solve(SolveRequest {
                effect_samples: vec![(0.0, 2.0e-4), (0.3, 1.5e-5)],
                cost_samples: vec![(0.0, 0.0), (0.3, 0.04)],
                n_points: 644,
                resolution: 64,
                solver: poisongame_core::SolverKind::MultiplicativeWeights,
            }),
        },
        Request {
            id: 2,
            deadline_ms: None,
            kind: RequestKind::Cell(CellRequest {
                config: quick_config(),
                scenario: Scenario::builder()
                    .attack(AttackSpec::LabelFlip)
                    .defense(DefenseSpec::Knn { k: 5 })
                    .learner(LearnerSpec::LogReg)
                    .build(),
                strength: 0.2,
                placement_slack: 0.02,
            }),
        },
        Request {
            id: u64::MAX, // ids round-trip beyond 2^53 via string form
            deadline_ms: None,
            kind: RequestKind::Matrix(MatrixRequest {
                config: quick_config(),
                matrix: ScenarioMatrix {
                    attacks: vec![AttackSpec::Boundary, AttackSpec::RandomNoise],
                    defenses: vec![DefenseSpec::Radius, DefenseSpec::Slab],
                    learners: vec![LearnerSpec::Svm],
                    strength: 0.1,
                    placement_slack: 0.01,
                },
            }),
        },
        Request {
            id: 4,
            deadline_ms: Some(10),
            kind: RequestKind::Estimate(EstimateRequest {
                config: quick_config(),
                placements: vec![0.05, 0.2],
                strengths: vec![0.0, 0.15],
            }),
        },
        Request {
            id: 5,
            deadline_ms: None,
            kind: RequestKind::Stats,
        },
        Request {
            id: 7,
            deadline_ms: Some(5_000),
            kind: RequestKind::Online(OnlineRequest {
                config: quick_config(),
                spec: OnlineSpec {
                    rounds: 128,
                    attacker: LearnerKind::Hedge,
                    defender: LearnerKind::FixedPure { action: 1 },
                    placements: vec![0.02, 0.2],
                    strengths: vec![0.0, 0.15],
                    ..OnlineSpec::default()
                },
            }),
        },
        Request {
            id: 8,
            deadline_ms: None,
            kind: RequestKind::Resize { shards: 4 },
        },
        Request {
            id: 6,
            deadline_ms: Some(1),
            kind: RequestKind::Shutdown,
        },
    ]
}

#[test]
fn every_request_kind_round_trips() {
    for request in one_of_each() {
        let line = request.to_line();
        assert!(line.ends_with('\n'));
        let back = parse_request_line(line.trim_end())
            .unwrap_or_else(|e| panic!("{} failed to re-parse: {e:?}", request.kind.type_name()));
        assert_eq!(back, request, "{}", request.kind.type_name());
        // And the document itself re-parses as stable JSON.
        let doc = Json::parse(line.trim_end()).expect("valid JSON");
        assert_eq!(
            doc.get("type").and_then(Json::as_str),
            Some(request.kind.type_name())
        );
    }
}

#[test]
fn every_response_kind_round_trips() {
    let mut responses = vec![
        Response::ok(7, Json::obj(vec![("cells", Json::Arr(vec![]))])),
        Response::ok(1 << 60, Json::Null), // big ids survive
    ];
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::Busy,
        ErrorCode::Deadline,
        ErrorCode::EvalFailed,
        ErrorCode::LineTooLong,
        ErrorCode::ShuttingDown,
    ] {
        responses.push(Response::err(Some(3), code, "detail"));
        responses.push(Response::err(None, code, "unattributable"));
    }
    for response in responses {
        let back = parse_response_line(response.to_line().trim_end()).expect("re-parse");
        assert_eq!(back, response);
    }
}

// ---------------------------------------------------------------------------
// Live-server conformance
// ---------------------------------------------------------------------------

fn spawn(config: ServerConfig) -> (SocketAddr, poisongame_serve::ServerHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, server.spawn())
}

fn shutdown_server(addr: SocketAddr, handle: poisongame_serve::ServerHandle) {
    let mut client = poisongame_serve::Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}

/// Send raw bytes, read one response line back.
fn raw_round_trip(addr: SocketAddr, payload: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    parse_response_line(line.trim_end()).expect("structured response")
}

fn expect_error(response: &Response, code: ErrorCode) -> &str {
    match &response.body {
        ResponseBody::Err { code: got, message } => {
            assert_eq!(*got, code, "{message}");
            message
        }
        ResponseBody::Ok(_) => panic!("expected {code:?}, got ok"),
    }
}

#[test]
fn malformed_json_gets_structured_error_and_connection_survives() {
    let (addr, handle) = spawn(ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"id\": 3, not json at all\n")
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = parse_response_line(line.trim_end()).expect("structured response");
    assert_eq!(response.id, None, "unparseable frame has no id");
    let message = expect_error(&response, ErrorCode::BadRequest);
    assert!(message.contains("JSON error"), "{message}");

    // The frame was well-delimited, so the connection stays usable.
    stream
        .write_all(b"{\"id\": 4, \"type\": \"stats\"}\n")
        .expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let response = parse_response_line(line.trim_end()).expect("stats response");
    assert_eq!(response.id, Some(4));
    assert!(matches!(response.body, ResponseBody::Ok(_)));

    shutdown_server(addr, handle);
}

#[test]
fn unknown_request_type_is_rejected_with_its_id() {
    let (addr, handle) = spawn(ServerConfig::default());
    let response = raw_round_trip(addr, b"{\"id\": 9, \"type\": \"teleport\"}\n");
    assert_eq!(response.id, Some(9), "id echoes even on bad requests");
    let message = expect_error(&response, ErrorCode::BadRequest);
    assert!(message.contains("unknown request type"), "{message}");
    shutdown_server(addr, handle);
}

#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    let (addr, handle) = spawn(ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let huge = vec![b'x'; 1024];
    stream.write_all(&huge).expect("write");
    stream.write_all(b"\n").expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = parse_response_line(line.trim_end()).expect("structured response");
    let message = expect_error(&response, ErrorCode::LineTooLong);
    assert!(message.contains("256"), "{message}");
    // Framing is lost, so the server hangs up: next read sees EOF.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
    shutdown_server(addr, handle);
}

#[test]
fn truncated_frame_is_rejected_not_silently_dropped() {
    let (addr, handle) = spawn(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A prefix of a valid request, no terminating newline, then EOF on
    // the write half.
    stream
        .write_all(b"{\"id\": 12, \"type\": \"st")
        .expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = parse_response_line(line.trim_end()).expect("structured response");
    let message = expect_error(&response, ErrorCode::BadRequest);
    assert!(message.contains("truncated"), "{message}");
    shutdown_server(addr, handle);
}

#[test]
fn zero_deadline_and_bad_seed_overrides_are_rejected_live() {
    let (addr, handle) = spawn(ServerConfig::default());

    // deadline_ms: 0 could never be met — the live server answers a
    // structured bad_request carrying the id, before any evaluation.
    let response = raw_round_trip(
        addr,
        b"{\"id\": 21, \"type\": \"cell\", \"deadline_ms\": 0}\n",
    );
    assert_eq!(response.id, Some(21));
    let message = expect_error(&response, ErrorCode::BadRequest);
    assert!(message.contains("positive"), "{message}");

    // Out-of-domain seed overrides are refused, never coerced.
    for (payload, expect_id) in [
        (&b"{\"id\": 22, \"type\": \"cell\", \"seed\": -7}\n"[..], 22),
        (
            &b"{\"id\": 23, \"type\": \"estimate\", \"seed\": 0.5}\n"[..],
            23,
        ),
        (
            &b"{\"id\": 24, \"type\": \"online\", \"seed\": \"minus one\"}\n"[..],
            24,
        ),
    ] {
        let response = raw_round_trip(addr, payload);
        assert_eq!(response.id, Some(expect_id));
        let message = expect_error(&response, ErrorCode::BadRequest);
        assert!(message.contains("seed"), "{message}");
    }

    shutdown_server(addr, handle);
}

#[test]
fn wire_seed_override_changes_exactly_the_seed() {
    let (addr, handle) = spawn(ServerConfig::default());

    // The same cell twice: once with the seed inside the config, once
    // via the top-level wire override. Responses must be identical.
    let mut inline = quick_config();
    inline.seed = 909;
    let inline_request = Request {
        id: 1,
        deadline_ms: None,
        kind: RequestKind::Cell(CellRequest {
            config: inline,
            scenario: Scenario::paper(),
            ..CellRequest::default()
        }),
    };
    // A raw request shipping the base config (seed 5) plus the
    // top-level override.
    let raw = format!(
        "{{\"id\": 1, \"type\": \"cell\", \"seed\": 909, \"config\": {}}}\n",
        quick_config().to_json().render()
    );

    let from_struct = raw_round_trip(addr, inline_request.to_line().as_bytes());
    let from_override = raw_round_trip(addr, raw.as_bytes());
    assert_eq!(from_struct, from_override, "seed override ≡ config seed");

    // And a different seed gives a different result (the override is
    // not ignored).
    let other = format!(
        "{{\"id\": 1, \"type\": \"cell\", \"seed\": 910, \"config\": {}}}\n",
        quick_config().to_json().render()
    );
    let different = raw_round_trip(addr, other.as_bytes());
    assert_ne!(different, from_override);

    shutdown_server(addr, handle);
}

#[test]
fn overflowing_solve_is_rejected_and_connection_survives() {
    let (addr, handle) = spawn(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();

    // `n_points · E(p)` overflows f64: the game is refused before any
    // payoff matrix is built, instead of panicking the shard.
    stream
        .write_all(
            b"{\"id\": 31, \"type\": \"solve\", \
              \"effect\": [[0.05, 1e300], [0.5, 1e300], [0.95, 1e300]], \
              \"cost\": [[0.0, 0.0], [0.5, 0.1]], \
              \"n_points\": 10000000000, \"resolution\": 20}\n",
        )
        .expect("write");
    reader.read_line(&mut line).expect("read");
    let response = parse_response_line(line.trim_end()).expect("structured response");
    assert_eq!(response.id, Some(31));
    let message = expect_error(&response, ErrorCode::EvalFailed);
    assert!(message.contains("max_payoff"), "{message}");

    // The same connection (and shard) still answers a good solve.
    let good = Request {
        id: 32,
        deadline_ms: None,
        kind: RequestKind::Solve(SolveRequest {
            effect_samples: vec![(0.0, 2.0e-4), (0.3, 1.5e-5)],
            cost_samples: vec![(0.0, 0.0), (0.3, 0.04)],
            n_points: 644,
            resolution: 20,
            solver: poisongame_core::SolverKind::Auto,
        }),
    };
    stream.write_all(good.to_line().as_bytes()).expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let response = parse_response_line(line.trim_end()).expect("solve response");
    assert_eq!(response.id, Some(32));
    assert!(
        matches!(response.body, ResponseBody::Ok(_)),
        "{:?}",
        response.body
    );

    shutdown_server(addr, handle);
}
