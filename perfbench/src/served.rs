//! The daemon side of `served_small`: a `perforad-serve` server in a
//! process of its own (this binary, `--role daemon`), so the peak RSS and
//! CPU time read for the served workload are the daemon's.

use crate::sys;
use crate::workload::{velocity, OpResult, Workload};
use perforad_exec::Grid;
use perforad_pde::seismic::{SeismicConfig, ShotBatch};
use perforad_serve::{
    Client, ClientError, CompileRequest, CompiledReply, Endpoint, GradientRequest, Reply, Request,
    ServeOptions, Server,
};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// `--role daemon`: bind the given socket, announce the endpoint on
/// stdout, serve until a `Shutdown` request. The pool is started first,
/// with one worker if the workload's gradient process has one.
///
/// The daemon runs with tracing off, like every measured process: left on,
/// its span rings fill during the window and swing the daemon's peak RSS
/// between about 28 and 41 MB from run to run, against about 15 MB without.
pub fn daemon_main(w: Workload, socket: PathBuf) -> Result<(), String> {
    if w.one_worker() {
        sys::one_worker_pool()?;
    }
    let opts = ServeOptions {
        socket: Some(socket),
        quiet_metrics: true,
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).map_err(|e| format!("daemon bind: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "ready {}", server.endpoint()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| format!("daemon: {e}"))
}

/// A running daemon process. Dropping it kills and reaps the process if
/// it is still alive.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub endpoint: Endpoint,
}

impl Daemon {
    pub fn spawn(w: Workload, socket: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--role", "daemon", "--workload", w.name(), "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("daemon stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let endpoint = match (read, line.trim().strip_prefix("ready ")) {
            (Ok(_), Some(ep)) => Endpoint::parse(ep),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not come up (said {line:?})"));
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            endpoint,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connect {}: {e}", self.endpoint))
    }

    /// Ask the daemon to stop and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `Compile` the workload's seismic kernel with the benchmark's model.
pub fn compile(client: &mut Client, cfg: &SeismicConfig) -> Result<CompiledReply, String> {
    client
        .compile(CompileRequest::Seismic {
            n: cfg.n,
            steps: cfg.steps,
            d: cfg.d,
            c: Some(velocity(cfg.n).as_slice().to_vec()),
            budget: None,
            checkpointed: None,
        })
        .map_err(|e| format!("compile: {e}"))
}

/// The single-shot `Gradient` request for `batch`'s first shot.
pub fn gradient_request(fingerprint: &str, batch: &ShotBatch) -> Request {
    Request::Gradient(GradientRequest {
        fingerprint: fingerprint.to_string(),
        source: batch.sources[0].clone(),
        observed: batch.observed[0].as_slice().to_vec(),
        deadline_ms: None,
        trace: false,
    })
}

/// One client-observed round trip. `Busy`, `Error`, an unexpected reply
/// and a transport error all count as a failed operation.
pub fn roundtrip(
    client: &mut Client,
    req: &Request,
    cfg: &SeismicConfig,
) -> Result<OpResult, String> {
    match client.roundtrip(req) {
        Ok(Reply::Gradient(g)) => Ok(vec![(
            g.misfit,
            Grid::from_vec(&[cfg.n, cfg.n, cfg.n], g.gradient),
        )]),
        Ok(Reply::Busy { retry_after_ms }) => {
            Err(format!("busy (retry after {retry_after_ms} ms)"))
        }
        Ok(Reply::Error(m)) => Err(format!("error reply: {m}")),
        Ok(_) => Err("unexpected reply".to_string()),
        Err(ClientError::Io(e)) => Err(format!("transport: {e}")),
        Err(e) => Err(format!("client: {e}")),
    }
}
