//! The `serve-uds` workload: a synthetic `FleetSim` federation served over
//! the real Unix-domain-socket transport by the in-process
//! `fedpkd_serve::server::serve`, driven as a closed loop.
//!
//! FedPKD cannot be served yet, so every number from this workload is a
//! synthetic-federation number. One benchmark thread drives both client
//! connections in lock step: each round it sends both hellos, then both
//! uploads. This cannot deadlock because the server acks an upload at once
//! and the last upload of a round commits it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fedpkd_core::driver::DriverBuilder;
use fedpkd_core::fleet::FleetSim;
use fedpkd_core::remote::RemoteFederation;
use fedpkd_core::telemetry::RoundObserver;
use fedpkd_netsim::{Deadline, Wire};
use fedpkd_serve::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_PAYLOAD};
use fedpkd_serve::history::{canonical_rounds, ledger_fingerprint, metrics_line};
use fedpkd_serve::protocol::{Codec, Request, Response};
use fedpkd_serve::server::{serve, ServeConfig, ServeReport};
use fedpkd_serve::transport::{Conn, Listener, Target};

/// Client connections (and fleet members): the machine's two cores.
pub const CONNS: usize = 2;
pub const CLASSES: usize = 10;
pub const DIMS: usize = 64;
/// Rounds per served session.
pub const ROUNDS: usize = 400;
/// Streaming snapshot cadence, in committed rounds.
pub const SNAPSHOT_EVERY: usize = 10;
/// Reconnects or re-polls a session tolerates before it gives up.
const MAX_RETRIES: usize = 20;

/// Which request an exchange carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hello,
    Upload,
}

/// One client-observed request→response exchange.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    pub kind: Kind,
    /// Seconds since the session's start.
    pub start: f64,
    pub seconds: f64,
    /// Request plus response payload bytes.
    pub bytes: usize,
}

/// The outcome of one served session.
pub struct Session {
    pub setup_s: f64,
    /// First exchange to the ack that committed the last round.
    pub run_s: f64,
    pub exchanges: Vec<Exchange>,
    /// Exchanges that errored or needed a reconnect.
    pub errored: usize,
    /// Stale, Rejected or Overloaded answers.
    pub refused: usize,
    /// Output check failures (empty when the run matched the reference).
    pub problems: Vec<String>,
    pub fleet: FleetSim,
    pub best_server_acc: f64,
}

impl Session {
    pub fn attempted(&self) -> usize {
        self.exchanges.len() + self.errored
    }

    pub fn failed(&self) -> usize {
        self.errored + self.refused
    }

    pub fn payload_bytes(&self) -> usize {
        self.exchanges.iter().map(|e| e.bytes).sum()
    }
}

/// The in-process driver's history lines and ledger fingerprint for
/// `seed` — what a served run must reproduce bit for bit.
pub fn reference(seed: u64) -> (Vec<String>, u64) {
    let result = DriverBuilder::new()
        .rounds(ROUNDS)
        .build()
        .run_silent(&mut FleetSim::new(CONNS, CLASSES, DIMS, seed));
    (
        result.history.iter().map(metrics_line).collect(),
        ledger_fingerprint(&result.ledger),
    )
}

/// Scratch paths of one session under `dir`.
struct Paths {
    sock: PathBuf,
    snapshot: PathBuf,
    history: PathBuf,
}

impl Paths {
    fn new(dir: &Path) -> Self {
        Self {
            sock: dir.join("serve.sock"),
            snapshot: dir.join("serve.snap"),
            history: dir.join("serve-history.jsonl"),
        }
    }

    fn clear(&self) {
        for path in [&self.sock, &self.snapshot, &self.history] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs one served session of [`ROUNDS`] rounds with the server's events
/// going to `obs`, and checks it against `expected` (see [`reference`]).
pub fn session(
    dir: &Path,
    seed: u64,
    expected: &(Vec<String>, u64),
    obs: &mut dyn RoundObserver,
) -> Session {
    let paths = Paths::new(dir);
    paths.clear();
    let cfg = ServeConfig {
        rounds: ROUNDS,
        snapshot_every: Some(SNAPSHOT_EVERY),
        snapshot_path: Some(paths.snapshot.clone()),
        history_path: Some(paths.history.clone()),
        io_deadline: Deadline::from_secs(2.0),
        drain: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let builder = DriverBuilder::new().rounds(ROUNDS);
    let started = Instant::now();
    let mut fleet = FleetSim::new(CONNS, CLASSES, DIMS, seed);
    let listener = Listener::bind_uds(&paths.sock).expect("bind the benchmark socket");
    let (report, client) = std::thread::scope(|scope| {
        let sock = paths.sock.clone();
        let client = scope.spawn(move || drive_clients(&sock, seed, started));
        let report = serve(&mut fleet, &builder, listener, &cfg, obs);
        (report, client.join().expect("client driver thread"))
    });
    let mut problems = client.problems;
    let history_text = std::fs::read_to_string(&paths.history).unwrap_or_default();
    paths.clear();
    let mut best_server_acc = 0.0;
    match report {
        Ok(report) => {
            best_server_acc = report
                .history
                .iter()
                .filter_map(|m| m.server_accuracy)
                .fold(0.0, f64::max);
            problems.extend(check(&report, &history_text, expected));
        }
        Err(e) => problems.push(format!("serve failed: {e}")),
    }
    Session {
        setup_s: client.connected_at,
        run_s: client.finished_at - client.connected_at,
        exchanges: client.exchanges,
        errored: client.errored,
        refused: client.refused,
        problems,
        fleet,
        best_server_acc,
    }
}

/// Served history, history file and ledger fingerprint against the
/// in-process driver.
fn check(report: &ServeReport, history_text: &str, expected: &(Vec<String>, u64)) -> Vec<String> {
    let mut problems = Vec::new();
    let served: Vec<String> = report.history.iter().map(metrics_line).collect();
    if served != expected.0 {
        problems.push("served history differs from the in-process driver".into());
    }
    if report.ledger_fnv != expected.1 {
        problems.push("served ledger fingerprint differs from the in-process driver".into());
    }
    match canonical_rounds(history_text) {
        Ok(lines) if lines == expected.0 => {}
        Ok(_) => problems.push("history file differs from the in-process driver".into()),
        Err(e) => problems.push(format!("history file unreadable: {e:?}")),
    }
    problems
}

struct ClientLog {
    /// Session seconds when both connections were up (set-up done) and
    /// when the last round's commit was acked.
    connected_at: f64,
    finished_at: f64,
    exchanges: Vec<Exchange>,
    errored: usize,
    refused: usize,
    problems: Vec<String>,
}

/// Both client connections, driven from one thread.
struct Clients {
    target: Target,
    conns: Vec<Option<Conn>>,
    epoch: Instant,
    log: ClientLog,
}

impl Clients {
    fn conn(&mut self, c: usize) -> std::io::Result<&mut Conn> {
        if self.conns[c].is_none() {
            let conn = self.target.connect()?;
            conn.set_io_deadline(Duration::from_secs(2))?;
            self.conns[c] = Some(conn);
        }
        Ok(self.conns[c].as_mut().expect("connected above"))
    }

    /// One exchange with retry: I/O errors reconnect, refusals re-ask.
    /// `accept` says whether a response completes the exchange.
    fn exchange(
        &mut self,
        c: usize,
        req: &Request,
        kind: Kind,
        accept: impl Fn(&Response) -> bool,
    ) -> Option<Response> {
        let body = req.to_bytes();
        for _ in 0..MAX_RETRIES {
            let start = self.epoch.elapsed().as_secs_f64();
            let outcome = self
                .conn(c)
                .map_err(FrameError::from)
                .and_then(|conn| round_trip(conn, req.kind(), &body));
            let seconds = self.epoch.elapsed().as_secs_f64() - start;
            match outcome {
                Ok((resp, resp_len)) => {
                    self.log.exchanges.push(Exchange {
                        kind,
                        start,
                        seconds,
                        bytes: body.len() + resp_len,
                    });
                    if accept(&resp) {
                        return Some(resp);
                    }
                    self.log.refused += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    self.log.errored += 1;
                    self.conns[c] = None;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        self.log
            .problems
            .push(format!("client {c}: {kind:?} exchange kept failing"));
        None
    }
}

fn round_trip(conn: &mut Conn, kind: u8, body: &[u8]) -> Result<(Response, usize), FrameError> {
    write_frame(conn, kind, body)?;
    let (kind, resp) = read_frame(conn, DEFAULT_MAX_PAYLOAD)?.ok_or(FrameError::Truncated)?;
    let len = resp.len();
    let resp = Response::decode(kind, &resp)?.ok_or(FrameError::Truncated)?;
    Ok((resp, len))
}

fn drive_clients(sock: &Path, seed: u64, epoch: Instant) -> ClientLog {
    let replica = FleetSim::new(CONNS, CLASSES, DIMS, seed);
    let mut clients = Clients {
        target: Target::Uds(sock.to_path_buf()),
        conns: (0..CONNS).map(|_| None).collect(),
        epoch,
        log: ClientLog {
            connected_at: 0.0,
            finished_at: 0.0,
            exchanges: Vec::new(),
            errored: 0,
            refused: 0,
            problems: Vec::new(),
        },
    };
    for c in 0..CONNS {
        if let Err(e) = clients.conn(c) {
            clients.log.problems.push(format!("connect: {e}"));
            return clients.log;
        }
    }
    clients.log.connected_at = epoch.elapsed().as_secs_f64();
    'rounds: for round in 0..ROUNDS as u64 {
        for c in 0..CONNS {
            let hello = Request::Hello { client: c as u32 };
            let invited = |r: &Response| matches!(r, Response::Assignment { invited: true, round: at, done: false } if *at == round);
            if clients.exchange(c, &hello, Kind::Hello, invited).is_none() {
                break 'rounds;
            }
        }
        for c in 0..CONNS {
            let upload = Request::Upload {
                round,
                client: c as u32,
                codec: Codec::Raw,
                payload: replica.client_payload(round as usize, c).to_bytes(),
            };
            let acked = |r: &Response| matches!(r, Response::Ack { round: at } if *at == round);
            if clients.exchange(c, &upload, Kind::Upload, acked).is_none() {
                break 'rounds;
            }
        }
    }
    clients.log.finished_at = epoch.elapsed().as_secs_f64();
    // Learn that the run is done, then close so the server's drain ends.
    for c in 0..CONNS {
        let hello = Request::Hello { client: c as u32 };
        let done = |r: &Response| matches!(r, Response::Assignment { done: true, .. });
        clients.exchange(c, &hello, Kind::Hello, done);
    }
    clients.conns.clear();
    clients.log
}
