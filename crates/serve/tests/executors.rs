//! The executors' run order and lifecycle: cheapest first within a
//! generation, every job answered across a resize, and responses that
//! do not depend on either.

use poisongame_serve::client::Client;
use poisongame_serve::protocol::{
    parse_response_line, CellRequest, Request, RequestKind, ResponseBody, SolveRequest,
};
use poisongame_serve::server::{Server, ServerConfig};
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::Scenario;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn spawn(config: ServerConfig) -> (SocketAddr, poisongame_serve::ServerHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, server.spawn())
}

fn cell(seed: u64, rows: usize, epochs: usize) -> RequestKind {
    RequestKind::Cell(CellRequest {
        config: ExperimentConfig {
            seed,
            source: DataSource::SyntheticSpambase { rows },
            epochs,
            ..ExperimentConfig::paper()
        },
        scenario: Scenario::paper(),
        ..CellRequest::default()
    })
}

fn solve() -> RequestKind {
    RequestKind::Solve(SolveRequest {
        effect_samples: vec![(0.0, 2.0e-4), (0.2, 4.0e-5), (0.45, -1.0e-6)],
        cost_samples: vec![(0.0, 0.0), (0.2, 0.022), (0.4, 0.065)],
        n_points: 644,
        resolution: 40,
        ..SolveRequest::default()
    })
}

/// A cell heavy enough (hundreds of ms) that everything sent while it
/// runs is admitted before it finishes.
fn heavy_cell() -> RequestKind {
    cell(1, 2000, 400)
}

fn frame(id: u64, kind: RequestKind) -> String {
    Request {
        id,
        deadline_ms: None,
        kind,
    }
    .to_line()
}

/// Block until no admitted request is waiting: the executors have
/// taken everything sent so far.
fn wait_until_started(addr: SocketAddr) {
    let mut control = Client::connect(addr).expect("control connection");
    while control.stats().expect("stats").queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_solve_pipelined_behind_cells_overtakes_them() {
    const K: u64 = 4;
    let (addr, handle) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // Cell 0 occupies the only executor; cells 1..K and the solve are
    // then admitted together and sealed as one generation.
    stream
        .write_all(frame(0, heavy_cell()).as_bytes())
        .expect("send");
    wait_until_started(addr);
    let mut burst = String::new();
    for id in 1..K {
        burst.push_str(&frame(id, cell(10 + id, 300, 20)));
    }
    burst.push_str(&frame(K, solve()));
    stream.write_all(burst.as_bytes()).expect("send burst");

    let mut order = Vec::new();
    for _ in 0..=K {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let response = parse_response_line(line.trim_end()).expect("response frame");
        assert!(
            matches!(response.body, ResponseBody::Ok(_)),
            "request failed: {line}"
        );
        order.push(response.id.expect("response id"));
    }
    // The solve is answered before the last K − 1 cells.
    assert_eq!(order, vec![0, K, 1, 2, 3], "answer order");

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("server exit");
}

#[test]
fn a_resize_with_jobs_still_queued_answers_every_job() {
    // Reference answers from an undisturbed server.
    let requests: Vec<RequestKind> = (0..6)
        .map(|i| cell(40 + i, 300, 20))
        .chain([solve()])
        .collect();
    let (addr, handle) = spawn(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let expected: Vec<String> = requests
        .iter()
        .map(|kind| client.call(kind.clone(), None).expect("response").render())
        .collect();
    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");

    let (addr, handle) = spawn(ServerConfig {
        shards: 2,
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let heavy = client.send(heavy_cell(), None).expect("send heavy");
    wait_until_started(addr);
    let (first, second) = requests.split_at(4);
    let first_wave: Vec<u64> = first
        .iter()
        .map(|kind| client.send(kind.clone(), None).expect("send"))
        .collect();
    // Control requests are answered inline, in frame order: the jobs
    // above are admitted and still waiting behind the heavy cell.
    let queued = client.stats().expect("stats").queue_depth;
    assert_eq!(queued, first.len(), "jobs queued at the resize");
    client
        .call(RequestKind::Resize { shards: 3 }, None)
        .expect("resize");
    let second_wave: Vec<u64> = second
        .iter()
        .map(|kind| client.send(kind.clone(), None).expect("send"))
        .collect();
    client.wait(heavy).expect("heavy response");
    let answered: Vec<String> = first_wave
        .iter()
        .chain(&second_wave)
        .map(|&id| client.wait(id).expect("response").render())
        .collect();
    assert_eq!(answered, expected, "every job answered, byte-identical");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.len(), 3);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.completed as usize, 1 + requests.len());
    client.shutdown().expect("shutdown");
    handle.join().expect("server exit");
}
