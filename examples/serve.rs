//! The `poisongame-serve` daemon: a long-running evaluation service
//! speaking newline-delimited JSON over TCP.
//!
//! ```sh
//! cargo run --release --example serve                       # 127.0.0.1:7979
//! cargo run --release --example serve -- --addr 127.0.0.1:0 --port-file /tmp/port
//! ```
//!
//! Options (all optional):
//!
//! * `--addr HOST:PORT` — bind address; port `0` picks an ephemeral
//!   port (printed on stdout and written to `--port-file`).
//! * `--port-file PATH` — write the bound `host:port` to `PATH` once
//!   listening (for scripts that need to discover the port).
//! * `--shards N` — engine shard count (independent prep caches and
//!   admission queues, prep-key-affine routing; resizable at runtime
//!   via the `resize` request).
//! * `--workers N` — executor threads shared by all shards: requests
//!   evaluated at once (`0` = hardware threads).
//! * `--queue N` — per-shard admission queue bound (beyond it
//!   requests are shed with a structured `busy` error).
//! * `--cache N` — per-shard preparation-cache bound (`0` = cache
//!   nothing, `unbounded` = no bound, like the batch engine).
//! * `--deadline-ms N` — implicit deadline for requests carrying none.
//! * `--data-dir PATH` — allow `{"type":"file"}` data sources, with
//!   their (plain relative) paths resolved under `PATH`. Without this
//!   flag file sources are rejected with `bad_request`.
//!
//! The process exits cleanly after a client sends `shutdown`: the
//! backlog is drained, every in-flight response delivered, and the
//! final statistics printed.

use poisongame::serve::server::{Server, ServerConfig};

fn parse_args() -> Result<(ServerConfig, Option<String>), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7979".into(),
        ..ServerConfig::default()
    };
    let mut port_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("`{what}` needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--port-file" => port_file = Some(value("--port-file")?),
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--cache" => {
                // Numeric bounds (including 0 = cache nothing) match
                // the library's `PrepCache::bounded` semantics exactly;
                // the unbounded batch behavior is spelled out.
                let cap = value("--cache")?;
                config.cache_capacity = match cap.as_str() {
                    "unbounded" | "none" => None,
                    n => Some(n.parse().map_err(|e| format!("--cache: {e}"))?),
                };
            }
            "--deadline-ms" => {
                config.default_deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            "--data-dir" => config.data_dir = Some(value("--data-dir")?.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((config, port_file))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (config, port_file) = parse_args().map_err(|e| {
        eprintln!("usage error: {e} (see the doc comment at the top of examples/serve.rs)");
        e
    })?;
    let (shards, workers, queue, cache) = (
        config.shards,
        config.workers,
        config.queue_capacity,
        config.cache_capacity,
    );
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    println!("poisongame-serve listening on {addr}");
    println!(
        "  shards: {} | executors: {} | queue bound/shard: {queue} | prep-cache bound/shard: {}",
        shards.max(1),
        if workers == 0 {
            "auto".to_string()
        } else {
            workers.to_string()
        },
        cache.map_or("unbounded".to_string(), |c| c.to_string()),
    );
    if let Some(path) = port_file {
        std::fs::write(&path, addr.to_string())?;
        println!("  bound address written to {path}");
    }
    println!("  send {{\"id\":0,\"type\":\"shutdown\"}} to drain and exit\n");

    let stats = server.run()?;
    println!("drained; final statistics:");
    println!(
        "  received {} | completed {} | shed {} | expired {} | failed {}",
        stats.received, stats.completed, stats.shed, stats.expired, stats.failed
    );
    println!(
        "  prep cache: {} hits / {} misses / {} evictions ({:.0}% hit rate, {} resident)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_hit_rate() * 100.0,
        stats.cache_entries,
    );
    for shard in &stats.shards {
        println!(
            "  shard {}: completed {} | {:.0}% cache hit rate ({} hits / {} misses) | busy {:.1} ms",
            shard.index,
            shard.completed,
            shard.cache_hit_rate() * 100.0,
            shard.cache_hits,
            shard.cache_misses,
            shard.busy_micros as f64 / 1000.0,
        );
    }
    Ok(())
}
