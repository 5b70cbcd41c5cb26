//! A fresh in-process server per run, set up the way every workload needs
//! it: the service defaults `ipe serve` runs with, one reactor, an
//! ephemeral port, and (for `schema_churn`) a temporary data directory
//! with `fsync: always`.

use crate::inputs::{Inputs, PROBE_QUERY, PROBE_SCHEMA, SIDE_TENANT};
use crate::wire::{self, Conn};
use crate::Workload;
use ipe_service::{FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const REACTORS: usize = 1;
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;
/// Pause between two `/metrics` polls while index builds run.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

pub struct Fixture {
    pub server: Server,
    pub addr: String,
    pub data_dir: Option<PathBuf>,
    /// Schema uploads so far; each one starts an index build.
    pub puts: u64,
}

fn config(data_dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: REACTORS,
        data_dir: data_dir.map(Path::to_path_buf),
        fsync: FSYNC,
        ..ServiceConfig::default()
    }
}

impl Fixture {
    pub fn start(data_dir: Option<PathBuf>) -> Result<Fixture, String> {
        let server = Server::start(config(data_dir.as_deref()))
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Fixture {
            server,
            addr,
            data_dir,
            puts: 0,
        })
    }

    pub fn conn(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    pub fn put_schema(&mut self, conn: &mut Conn, path: &str, json: &str) -> Result<Value, String> {
        let v = conn.json("PUT", path, json)?;
        self.puts += 1;
        Ok(v)
    }

    pub fn shutdown(self) {
        self.server.shutdown();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn metrics(conn: &mut Conn) -> Result<Value, String> {
    conn.json("GET", "/metrics", "")
}

/// Polls `/metrics` until every started index build has landed.
pub fn wait_index(conn: &mut Conn, builds: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let m = metrics(conn)?;
        let done = wire::u64_at(&m, &["service", "index", "builds_completed"])?;
        let running = wire::u64_at(&m, &["service", "index", "builds_in_flight"])?;
        if done >= builds && running == 0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("index builds stuck at {done} of {builds}"));
        }
        // Client and server share one CPU: a tight loop would take it
        // from the builds it waits for.
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Brings up a fresh server with everything the workload reads, and
/// returns it with the time that took: server start, schema uploads, the
/// index builds, data loads, and cache priming.
pub fn setup(
    w: Workload,
    inputs: &Inputs,
    data_dir: Option<PathBuf>,
) -> Result<(Fixture, f64), String> {
    let started = Instant::now();
    let mut fx = Fixture::start(data_dir)?;
    let mut conn = fx.conn()?;
    conn.json("PUT", &format!("/v1/tenants/{SIDE_TENANT}"), "{}")?;
    fx.put_schema(
        &mut conn,
        &format!("/v1/t/{SIDE_TENANT}/schemas/{PROBE_SCHEMA}"),
        &inputs.probe_json,
    )?;
    for (name, variants) in inputs.churn.names.iter().zip(&inputs.churn.variants) {
        fx.put_schema(
            &mut conn,
            &format!("/v1/t/{SIDE_TENANT}/schemas/{name}"),
            &variants[0],
        )?;
    }
    for fs in &inputs.fleet {
        fx.put_schema(&mut conn, &format!("/v1/schemas/{}", fs.name), &fs.json)?;
    }
    wait_index(&mut conn, fx.puts)?;
    if let Some(gen) = &inputs.data {
        let body = format!(
            "{{\"gen\":{}}}",
            serde_json::to_string(gen).map_err(|e| e.to_string())?
        );
        for fs in &inputs.fleet {
            conn.json("PUT", &format!("/v1/data/{}", fs.name), &body)?;
        }
    }
    let probe = crate::inputs::request_body(PROBE_SCHEMA, PROBE_QUERY, 1, None);
    conn.json("POST", &format!("/v1/t/{SIDE_TENANT}/complete"), &probe)?;
    if matches!(w, Workload::WarmComplete | Workload::QueryEval) {
        for key in &inputs.keys {
            conn.json("POST", "/v1/complete", &key.body)?;
        }
    }
    Ok((fx, started.elapsed().as_secs_f64()))
}
