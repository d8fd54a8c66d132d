//! The serving workloads: an in-process `serve::net::NetServer` over a
//! `serve::server::Server<Vec<u8>, Vec<u8>>` with four registrations
//! (`resnet18` and `deit_s`, each with uniform LP weights at 4 and 8
//! bits), driven over one loopback connection by an open-loop generator.
//!
//! The batch function is the benchmark's own adapter: it decodes each
//! payload into a `Tensor`, calls `Model::forward_batch_quant` on the
//! packed model and encodes the outputs. Timing the adapter from outside
//! the library lets `serve::{net, server, pool}` and `dnn` run
//! unmodified.

use crate::codec;
use crate::host;
use crate::json::Json;
use crate::ledger::{self, Stamps};
use crate::schedule::{self, Arrival};
use crate::spans::{self, BatchSpan, Sink};
use crate::stats::{self, Summary};
use crate::{Outcome, PER_LAYER};
use dnn::graph::{Model, QuantScheme};
use dnn::tensor::Tensor;
use serve::net::{
    Frame, FrameParser, NetConfig, NetServer, NetStatsSnapshot, RequestFrame, Status,
};
use serve::pool::{Pool, PoolStats};
use serve::server::{BatchPolicy, ScenarioSpec, Server};
use serve::stats::StatsSnapshot;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker threads of every serving pool (set here, never inherited from
/// `SERVE_THREADS`).
pub const POOL_THREADS: usize = 2;
/// Served models.
pub const MODELS: [&str; 2] = ["resnet18", "deit_s"];
/// Distinct generated input images per model.
pub const IMAGES: usize = 32;
/// Offered rate of `interactive`, well below capacity.
pub const INTERACTIVE_RATE: f64 = 300.0;
/// Consecutive windows of `interactive`'s phase whose p99s give its
/// reported p99, their median. The pooled p99 moved by a tenth between
/// runs of identical code: a short stall of the shared host holds up
/// every request in flight, and a few stalls fill the 1% tail by
/// themselves. Stalls confined to one or two windows do not move the
/// median window's p99.
pub const WINDOWS: usize = 5;
/// Offered rate of `saturation`'s fixed high rung, where its p50/p99 are
/// reported.
pub const HIGH_RATE: f64 = 700.0;
/// `saturation`'s open-loop ladder, ascending through the knee of the
/// latency curve, which sits at 1300-2000/s on a 2-core host depending on
/// how busy its neighbours keep it.
pub const LADDER: [f64; 15] = [
    1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0, 1600.0, 1700.0, 1800.0, 1900.0, 2000.0, 2100.0,
    2200.0, 2300.0, 2400.0,
];
/// Rounds of `saturation`'s high rung and overload chunk, spread over
/// the run.
pub const ROUNDS: usize = 10;
/// Offered rate of `saturation`'s overload chunks: above capacity, so
/// batches fill and the achieved rate is the saturated throughput. The
/// reported throughput is the best chunk's: a shared host's neighbours
/// slow a compute-bound chunk for seconds at a time but never speed it
/// up, so the fastest of chunks spread over the run is the stack's own
/// capacity, where a pooled rate moved by a quarter between identical
/// runs.
pub const OVERLOAD_RATE: f64 = 3500.0;
/// p99 limit a ladder rung must meet to count towards the maximum rate.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed warm-up traffic before the first timed phase.
const WARMUP_S: f64 = 0.5;
/// How long to wait for responses after the last send.
const DRAIN: Duration = Duration::from_secs(20);
/// Send-time lead so the first arrival is never scheduled in the past.
const LEAD_NS: u64 = 2_000_000;

/// One registration: a packed model and its inputs.
pub struct Reg {
    /// Model name.
    pub model: &'static str,
    /// Scenario name (`lp4`, `lp8`).
    pub scenario: String,
    packed: Arc<Model>,
    scheme: Arc<QuantScheme>,
    images: Arc<Vec<Tensor>>,
    /// Resident weight bytes of the packed model.
    pub weight_bytes: usize,
}

impl Reg {
    /// `model/scenario`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.model, self.scenario)
    }

    /// The batch-of-one output for input image `image`, through the same
    /// payload decode the adapter performs.
    fn reference_output(&self, image: usize) -> Vec<f32> {
        let len = self.images[image].len();
        let payload = codec::encode(0, self.images[image].data());
        let (_, values) = codec::decode(&payload, len).expect("payload of the model's input size");
        let x = Tensor::from_vec(self.packed.input_shape(), values);
        self.packed.forward_batch_quant(&[x], Some(&self.scheme))[0]
            .data()
            .to_vec()
    }
}

/// Wall times of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    fit_s: f64,
    pack_s: f64,
    bind_s: f64,
}

/// Fits and packs the four registrations and binds a server over them:
/// the work between process start and the first timed request.
fn deploy(images: &[Arc<Vec<Tensor>>]) -> io::Result<(Vec<Reg>, Phase, SetupTimes)> {
    let t0 = spans::now_ns();
    let bases: Vec<Model> = MODELS.iter().map(|m| dnn::models::by_name(m)).collect();
    // Slowest fits first, so the two workers finish together.
    let combos: Vec<(usize, u32)> = vec![(1, 8), (0, 8), (1, 4), (0, 4)];
    let pool = Pool::new(POOL_THREADS);
    let schemes = pool.par_map(&combos, |&(m, bits)| {
        bench::uniform_lp_scheme(&bases[m], bits)
    });
    let t1 = spans::now_ns();
    let jobs: Vec<(usize, &QuantScheme)> = combos.iter().map(|c| c.0).zip(&schemes).collect();
    let packed = pool.par_map(&jobs, |&(m, s)| bases[m].quantize_weights_packed(s));
    let t2 = spans::now_ns();
    let mut regs: Vec<Reg> = combos
        .iter()
        .zip(schemes)
        .zip(packed)
        .map(|((&(m, bits), scheme), packed)| Reg {
            model: MODELS[m],
            scenario: format!("lp{bits}"),
            weight_bytes: packed.resident_weight_bytes(),
            packed: Arc::new(packed),
            scheme: Arc::new(scheme),
            images: Arc::clone(&images[m]),
        })
        .collect();
    regs.sort_by_key(|r| r.name());
    let phase = Phase::start(&regs, None)?;
    let t3 = spans::now_ns();
    let s = |a: u64, b: u64| (b - a) as f64 / 1e9;
    Ok((
        regs,
        phase,
        SetupTimes {
            total_s: s(t0, t3),
            fit_s: s(t0, t1),
            pack_s: s(t1, t2),
            bind_s: s(t2, t3),
        },
    ))
}

/// One serving instance: pool, server with the four registrations, and
/// its network edge. Each timed phase gets a fresh one, so its server
/// and pool counters cover exactly that phase.
struct Phase {
    // Field order is drop order: the edge stops before the server.
    net: NetServer,
    server: Server<Vec<u8>, Vec<u8>>,
    pool: Pool,
}

/// Counters of one phase, read after its last response.
struct PhaseStats {
    server: StatsSnapshot,
    batches: u64,
    items: f64,
    net: NetStatsSnapshot,
    pool: PoolStats,
}

impl Phase {
    fn start(regs: &[Reg], sink: Option<Arc<Sink>>) -> io::Result<Phase> {
        let pool = Pool::new(POOL_THREADS);
        let server = Server::new(pool.clone(), BatchPolicy::default());
        for (i, r) in regs.iter().enumerate() {
            server
                .register(
                    ScenarioSpec::new(r.model, &r.scenario),
                    adapter(i, r, sink.clone()),
                )
                .map_err(|e| io::Error::other(format!("register {}: {e:?}", r.name())))?;
        }
        let cfg = NetConfig {
            addr: "127.0.0.1:0".into(),
            // One connection: one reactor serves it.
            reactors: 1,
            // Overload must show as latency, not as rejected frames.
            per_conn_inflight: 1 << 20,
        };
        let net = NetServer::bind(&server, cfg)?;
        Ok(Phase { net, server, pool })
    }

    fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    fn finish(self, regs: &[Reg]) -> PhaseStats {
        self.net.shutdown();
        let server = self
            .server
            .stats_by_class()
            .into_iter()
            .next()
            .map_or_else(StatsSnapshot::empty, |(_, s)| s);
        let (mut batches, mut items) = (0u64, 0.0f64);
        for r in regs {
            if let Some(b) = self.server.batch_size_stats(r.model, &r.scenario) {
                batches += b.count;
                items += b.sum;
            }
        }
        let stats = PhaseStats {
            server,
            batches,
            items,
            net: self.net.stats(),
            pool: self.pool.stats(),
        };
        self.server.shutdown();
        stats
    }
}

/// The batch function of registration `i`: payload decode, the packed
/// forward, output encode — with a span around each in traced runs.
fn adapter(
    i: usize,
    r: &Reg,
    sink: Option<Arc<Sink>>,
) -> impl Fn(&[Vec<u8>]) -> Vec<Vec<u8>> + Send + Sync + 'static {
    let packed = Arc::clone(&r.packed);
    let scheme = Arc::clone(&r.scheme);
    let shape = packed.input_shape().to_vec();
    let len: usize = shape.iter().product();
    move |batch: &[Vec<u8>]| {
        let stamp = || sink.as_ref().map(|_| spans::now_ns());
        let start = stamp();
        let mut ids = Vec::with_capacity(batch.len());
        let mut inputs = Vec::with_capacity(batch.len());
        for p in batch {
            // A payload that does not decode gets an empty response,
            // which the output check counts as a failure.
            let decoded = codec::decode(p, len);
            ids.push(decoded.as_ref().map(|d| d.0));
            if let Some((_, values)) = decoded {
                inputs.push(Tensor::from_vec(&shape, values));
            }
        }
        let decoded = stamp();
        let outputs = packed.forward_batch_quant(&inputs, Some(&scheme));
        let forwarded = stamp();
        let mut outputs = outputs.iter();
        let responses = ids
            .iter()
            .map(|id| match id {
                Some(id) => {
                    codec::encode(*id, outputs.next().expect("one output per input").data())
                }
                None => Vec::new(),
            })
            .collect();
        if let (Some(s), Some(start), Some(decoded), Some(forwarded)) =
            (&sink, start, decoded, forwarded)
        {
            s.batch(BatchSpan {
                reg: i,
                ids: ids.into_iter().flatten().collect(),
                start,
                decoded,
                forwarded,
                end: spans::now_ns(),
            });
        }
        responses
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Default)]
struct Record {
    reg: usize,
    image: usize,
    corr: u64,
    sched: u64,
    send_start: u64,
    send_end: u64,
    /// 0 while unanswered.
    recv: u64,
    status: Option<Status>,
    /// The response payload's bytes in the phase's response arena.
    payload: Range<usize>,
    duplicate: bool,
}

impl Record {
    fn answered_ok(&self) -> bool {
        self.recv != 0 && self.status == Some(Status::Ok) && !self.duplicate
    }

    fn latency_ms(&self) -> f64 {
        if self.answered_ok() {
            (self.recv - self.sched) as f64 / 1e6
        } else {
            // A failed or missing response misses every latency limit.
            f64::INFINITY
        }
    }

    fn late_ms(&self) -> f64 {
        self.send_start.saturating_sub(self.sched) as f64 / 1e6
    }
}

/// Sends `arrivals` open-loop over one connection and collects the
/// responses: one thread sleeps to each scheduled send time and writes,
/// one thread blocks on reads, so neither waits on the other. Returns the
/// records and the arena holding every response payload back to back,
/// which keeps the client's memory one growing buffer per phase.
fn drive(
    addr: SocketAddr,
    regs: &[Reg],
    arrivals: &[Arrival],
    phase_no: u64,
) -> io::Result<(Vec<Record>, Vec<u8>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let id_base = phase_no << 32;
    let sent = AtomicU64::new(u64::MAX);
    let base = spans::now_ns() + LEAD_NS;
    let (sends, recvs) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(&mut reader, arrivals.len(), &sent, id_base));
        let mut sends = Vec::with_capacity(arrivals.len());
        let mut result = Ok(());
        for (i, a) in arrivals.iter().enumerate() {
            let due = base + a.at_ns;
            let now = spans::now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let r = &regs[a.reg];
            let corr = id_base | i as u64;
            let send_start = spans::now_ns();
            let frame = RequestFrame {
                corr,
                model: r.model.to_string(),
                scenario: r.scenario.clone(),
                payload: codec::encode(corr, r.images[a.image].data()),
            };
            if let Err(e) = writer.write_all(&frame.encode()) {
                result = Err(e);
                break;
            }
            sends.push((due, send_start, spans::now_ns()));
        }
        // ordering: Release publishes the final send count; the receiver's Acquire load pairs with it.
        sent.store(sends.len() as u64, Ordering::Release);
        let recvs = receiver.join().expect("receiver thread panicked");
        (result.map(|()| sends), recvs)
    });
    let sends = sends?;
    let recvs = recvs?;
    let mut records: Vec<Record> = arrivals
        .iter()
        .zip(&sends)
        .enumerate()
        .map(|(i, (a, &(sched, send_start, send_end)))| Record {
            reg: a.reg,
            image: a.image,
            corr: id_base | i as u64,
            sched,
            send_start,
            send_end,
            ..Record::default()
        })
        .collect();
    let Received {
        responses,
        bytes,
        stray,
    } = recvs;
    for (i, recv, status, payload) in responses {
        let rec = &mut records[i];
        if rec.recv != 0 {
            rec.duplicate = true;
            continue;
        }
        rec.recv = recv;
        rec.status = Some(status);
        rec.payload = payload;
    }
    if stray > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{stray} responses carried unknown correlation ids"),
        ));
    }
    Ok((records, bytes))
}

struct Received {
    /// Arrival index, read time, status and payload range in `bytes`.
    responses: Vec<(usize, u64, Status, Range<usize>)>,
    bytes: Vec<u8>,
    stray: usize,
}

fn receive(
    reader: &mut TcpStream,
    capacity: usize,
    sent: &AtomicU64,
    id_base: u64,
) -> io::Result<Received> {
    // The timeout only bounds how often the drain deadline is checked;
    // a response wakes the read at once.
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut parser = FrameParser::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut out = Received {
        responses: Vec::with_capacity(capacity),
        // Reserved, not touched: resident memory grows with what arrives.
        bytes: Vec::with_capacity(capacity * 512),
        stray: 0,
    };
    let mut deadline: Option<u64> = None;
    loop {
        // ordering: Acquire pairs with the sender's Release store of the final count.
        let total = sent.load(Ordering::Acquire);
        if total != u64::MAX {
            if out.responses.len() as u64 >= total {
                return Ok(out);
            }
            let d = *deadline.get_or_insert_with(|| spans::now_ns() + DRAIN.as_nanos() as u64);
            if spans::now_ns() > d {
                return Ok(out);
            }
        }
        let n = match reader.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        let t = spans::now_ns();
        parser
            .feed(&buf[..n])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        while let Some(frame) = parser.next_frame() {
            match frame {
                Frame::Response(r) => match r.corr.checked_sub(id_base) {
                    Some(i) if (i as usize) < capacity => {
                        let start = out.bytes.len();
                        out.bytes.extend_from_slice(&r.payload);
                        out.responses
                            .push((i as usize, t, r.status, start..out.bytes.len()));
                    }
                    _ => out.stray += 1,
                },
                Frame::Request(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "request frame sent to the client",
                    ))
                }
            }
        }
    }
}

/// The latencies of `records` split into `k` consecutive windows of
/// equal length by scheduled send time.
fn windows(records: &[Record], k: usize) -> Vec<Vec<f64>> {
    let first = records.iter().map(|r| r.sched).min().unwrap_or(0);
    let last = records.iter().map(|r| r.sched).max().unwrap_or(0);
    let span = u128::from(last - first) + 1;
    let mut bins = vec![Vec::new(); k];
    for r in records {
        let i = u128::from(r.sched - first) * k as u128 / span;
        bins[i as usize].push(r.latency_ms());
    }
    bins
}

/// Everything one timed phase produced.
struct PhaseRun {
    rate: f64,
    records: Vec<Record>,
    stats: PhaseStats,
    /// Requests that failed or did not check.
    failed: usize,
}

impl PhaseRun {
    fn latency(&self) -> Summary {
        let l: Vec<f64> = self.records.iter().map(Record::latency_ms).collect();
        Summary::of(&l).expect("a phase sends at least one request")
    }

    fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.answered_ok()).count()
    }

    /// Client latency in `k` consecutive windows of equal length, by
    /// scheduled send time; an error if a window holds no request.
    fn window_latencies(&self, k: usize) -> io::Result<Vec<Summary>> {
        windows(&self.records, k)
            .iter()
            .map(|w| Summary::of(w).ok_or_else(|| io::Error::other("a latency window is empty")))
            .collect()
    }

    /// Successful responses read per second while the phase was sending
    /// (first to last scheduled send), so the drain after the last send
    /// neither inflates nor dilutes the rate.
    fn achieved_rate(&self) -> f64 {
        pooled_rate(&[self])
    }

    /// Successful responses read between the first and last scheduled
    /// send, and that span in seconds.
    fn sending_window(&self) -> (usize, f64) {
        let first = self.records.iter().map(|r| r.sched).min().unwrap_or(0);
        let last = self.records.iter().map(|r| r.sched).max().unwrap_or(0);
        let done = self
            .records
            .iter()
            .filter(|r| r.answered_ok() && r.recv <= last)
            .count();
        (done, (last.saturating_sub(first) as f64 / 1e9).max(1e-9))
    }

    /// Requests scheduled by the phase's last send time but not answered
    /// by then.
    fn backlog_at_end(&self) -> usize {
        let end = self.records.iter().map(|r| r.sched).max().unwrap_or(0);
        self.records
            .iter()
            .filter(|r| r.sched <= end && (r.recv == 0 || r.recv > end))
            .count()
    }

    /// A ladder rung passes when its p99 meets the limit, nothing failed,
    /// and what is still queued at its end drains within the limit.
    fn passes(&self) -> bool {
        let allowed = (self.rate * LATENCY_LIMIT_MS / 1e3).ceil() as usize + 1;
        self.latency().p99 <= LATENCY_LIMIT_MS
            && self.failed == 0
            && self.backlog_at_end() <= allowed
    }
}

/// The serving side of a workload: the deployment, the optional span
/// sink and the output checker every phase goes through.
struct Deployment {
    regs: Vec<Reg>,
    seed: u64,
    sink: Option<Arc<Sink>>,
    checker: Checker,
    phases: u64,
}

impl Deployment {
    /// Runs one timed phase on a fresh server, then checks its outputs.
    fn phase(&mut self, rate: f64, duration_s: f64) -> io::Result<PhaseRun> {
        self.phases += 1;
        let n = self.phases;
        let arrivals = schedule::poisson(
            schedule::derive(self.seed, n),
            rate,
            duration_s,
            self.regs.len(),
            IMAGES,
        );
        let phase = Phase::start(&self.regs, self.sink.clone())?;
        let (records, arena) = drive(phase.addr(), &self.regs, &arrivals, n)?;
        let stats = phase.finish(&self.regs);
        let failed = self.checker.check(&self.regs, &records, &arena, &stats.net);
        Ok(PhaseRun {
            rate,
            records,
            stats,
            failed,
        })
    }
}

/// The input images of each model, a pure function of the seed.
fn inputs(seed: u64) -> Vec<Arc<Vec<Tensor>>> {
    (0..MODELS.len())
        .map(|m| {
            Arc::new(dnn::data::synthetic_images(
                IMAGES,
                &dnn::models::INPUT_SHAPE,
                schedule::derive(seed, 1000 + m as u64),
            ))
        })
        .collect()
}

/// Sets up [`SETUPS`] times (keeping the last deployment), warms it up
/// untimed, and returns it with the times of every set-up.
fn setup(seed: u64, trace: bool) -> io::Result<(Deployment, Vec<SetupTimes>)> {
    let images = inputs(seed);
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Tear the previous deployment down before timing the next.
        drop(kept.take());
        let (regs, phase, t) = deploy(&images)?;
        times.push(t);
        kept = Some((regs, phase));
    }
    let (regs, phase) = kept.expect("at least one set-up");
    let warm = schedule::poisson(
        schedule::derive(seed, 999),
        INTERACTIVE_RATE,
        WARMUP_S,
        regs.len(),
        IMAGES,
    );
    drive(phase.addr(), &regs, &warm, 0)?;
    phase.finish(&regs);
    let deployment = Deployment {
        regs,
        seed,
        sink: trace.then(|| Arc::new(Sink::default())),
        checker: Checker::default(),
        phases: 0,
    };
    Ok((deployment, times))
}

/// The output check: every `Ok` response must equal, byte for byte, the
/// batch-of-one forward of its payload. Reference outputs are memoised
/// per registration and input image.
#[derive(Default)]
struct Checker {
    reference: HashMap<(usize, usize), Vec<f32>>,
}

impl Checker {
    /// Checks a finished phase whose response payloads sit in `arena`;
    /// returns the failed requests, counting a frame count mismatch or a
    /// protocol error as failures too.
    fn check(
        &mut self,
        regs: &[Reg],
        records: &[Record],
        arena: &[u8],
        net: &NetStatsSnapshot,
    ) -> usize {
        let mut failed = 0;
        for r in records {
            let ok = r.answered_ok() && {
                let want = self
                    .reference
                    .entry((r.reg, r.image))
                    .or_insert_with(|| regs[r.reg].reference_output(r.image));
                arena[r.payload.clone()] == codec::encode(r.corr, want)
            };
            failed += usize::from(!ok);
        }
        failed + net.frames_in.abs_diff(net.frames_out) as usize + net.protocol_errors as usize
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Client latency pooled over phases.
fn pooled_latency(phases: &[&PhaseRun]) -> Summary {
    let l: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.records.iter().map(Record::latency_ms))
        .collect();
    Summary::of(&l).expect("phases send at least one request")
}

/// Successful responses read while sending, per second of sending,
/// pooled over phases.
fn pooled_rate(phases: &[&PhaseRun]) -> f64 {
    let (done, secs) = phases.iter().fold((0, 0.0), |(d, t), p| {
        let (pd, pt) = p.sending_window();
        (d + pd, t + pt)
    });
    done as f64 / secs
}

/// Layer metrics of the phases a workload reports on: counters summed,
/// the server's stage percentiles as medians over the phases.
fn phase_layers(phases: &[&PhaseRun], client_p50_ms: f64, out: &mut BTreeMap<&'static str, f64>) {
    let stage = |f: fn(&StatsSnapshot) -> f64| {
        let v: Vec<f64> = phases.iter().map(|p| ms(f(&p.stats.server))).collect();
        stats::median(&v).expect("at least one phase")
    };
    let sum = |f: fn(&PhaseStats) -> u64| phases.iter().map(|p| f(&p.stats)).sum::<u64>() as f64;
    let queue_wait = stage(|s| s.queue_wait.p50_s);
    let service = stage(|s| s.service.p50_s);
    let delivery = stage(|s| s.delivery.p50_s);
    out.insert(
        "net.edge_p50_ms",
        client_p50_ms - (queue_wait + service + delivery),
    );
    out.insert("net.frames_in", sum(|s| s.net.frames_in));
    out.insert("net.frames_out", sum(|s| s.net.frames_out));
    out.insert("net.protocol_errors", sum(|s| s.net.protocol_errors));
    out.insert(
        "net.inflight_rejections",
        sum(|s| s.net.inflight_rejections),
    );
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.records.iter().map(Record::late_ms))
        .collect();
    let late = Summary::of(&late).expect("non-empty phases");
    out.insert("gen.late_p99_ms", late.p99);
    out.insert("gen.late_max_ms", late.max);
    out.insert("server.queue_wait_p50_ms", queue_wait);
    out.insert("server.queue_wait_p99_ms", stage(|s| s.queue_wait.p99_s));
    out.insert("server.service_p50_ms", service);
    out.insert("server.delivery_p50_ms", delivery);
    let items: f64 = phases.iter().map(|p| p.stats.items).sum();
    out.insert("server.mean_batch", items / sum(|s| s.batches).max(1.0));
    out.insert("pool.executed", sum(|s| s.pool.total_executed()));
    out.insert("pool.stolen", sum(|s| s.pool.total_stolen()));
    out.insert("pool.parks", sum(|s| s.pool.total_parks()));
}

/// Layer metrics from the adapter's spans.
fn span_layers(
    regs: &[Reg],
    batches: &[BatchSpan],
    out: &mut BTreeMap<&'static str, f64>,
    report: &mut String,
) {
    let p50 = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    out.insert(
        "dnn.forward_b1_us",
        p50(batches
            .iter()
            .filter(|b| b.size() == 1)
            .map(|b| b.forward_ns() as f64 / 1e3)
            .collect()),
    );
    let by_size = PER_LAYER
        .iter()
        .filter_map(|&(name, _)| Some((name, name.strip_prefix("dnn.forward_us_per_item.b")?)));
    for (name, size) in by_size {
        let size: usize = size.parse().expect("batch size in the metric name");
        let per_item: Vec<f64> = batches
            .iter()
            .filter(|b| b.size() == size)
            .map(|b| b.forward_ns() as f64 / 1e3 / size as f64)
            .collect();
        out.insert(name, p50(per_item));
    }
    let items: usize = batches.iter().map(BatchSpan::size).sum();
    let bytes: usize = batches.iter().map(|b| regs[b.reg].weight_bytes).sum();
    out.insert(
        "dnn.weight_bytes_per_item",
        bytes as f64 / items.max(1) as f64,
    );
    out.insert(
        "adapter.codec_us",
        p50(batches
            .iter()
            .filter(|b| b.size() > 0)
            .map(|b| b.codec_ns() as f64 / 1e3 / b.size() as f64)
            .collect()),
    );
    report.push_str("forward p50 per item by registration and batch size (us, spans):\n");
    for (i, r) in regs.iter().enumerate() {
        let mut line = format!("  {:<14}", r.name());
        for b in 1..=8 {
            let v: Vec<f64> = batches
                .iter()
                .filter(|s| s.reg == i && s.size() == b)
                .map(|s| s.forward_ns() as f64 / 1e3 / b as f64)
                .collect();
            if let Some(x) = stats::median(&v) {
                line.push_str(&format!(" b{b}={x:.0}({})", v.len()));
            }
        }
        report.push_str(&line);
        report.push('\n');
    }
}

fn phase_line(label: &str, p: &PhaseRun) -> String {
    let l = p.latency();
    format!(
        "  {label:<10} rate {:>6.0}/s  achieved {:>7.1}/s  sent {:>6}  ok {:>6}  p50 {:>8.3} ms  p99 {:>8.3} ms (n={}, {} beyond)  mean batch {:.2}  backlog at end {}  {}\n",
        p.rate,
        p.achieved_rate(),
        p.records.len(),
        p.ok(),
        l.p50,
        l.p99,
        l.n,
        l.beyond_p99(),
        p.stats.items / p.stats.batches.max(1) as f64,
        p.backlog_at_end(),
        if p.passes() { "pass" } else { "FAIL" }
    )
}

fn common(outcome: &mut Outcome, b: &Deployment, setups: &[SetupTimes], phases: &[&PhaseRun]) {
    // Read before the spans are rendered for writing out.
    outcome
        .end_to_end
        .insert("peak_rss_mb", host::peak_rss_mb());
    let (regs, sink) = (&b.regs, &b.sink);
    let med = |f: fn(&SetupTimes) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).expect("set-ups ran")
    };
    let total_s = med(|t| t.total_s);
    outcome.end_to_end.insert("setup_s", total_s);
    outcome.per_layer.insert("lp.fit_s", med(|t| t.fit_s));
    outcome.per_layer.insert("dnn.pack_s", med(|t| t.pack_s));
    let each: Vec<String> = setups.iter().map(|t| format!("{:.3}", t.total_s)).collect();
    outcome.report.push_str(&format!(
        "set-up, medians of {SETUPS} ({} s): total {total_s:.4} s; fit {:.4} s, pack {:.4} s, register and bind {:.4} s\n",
        each.join(" "),
        med(|t| t.fit_s),
        med(|t| t.pack_s),
        med(|t| t.bind_s)
    ));
    for r in regs {
        outcome.report.push_str(&format!(
            "  {:<14} resident weights {} B\n",
            r.name(),
            r.weight_bytes
        ));
    }
    if let Some(s) = sink {
        let names: Vec<String> = regs.iter().map(Reg::name).collect();
        outcome.spans.extend(
            s.batches()
                .iter()
                .map(|b| spans::batch_json(b, &names[b.reg])),
        );
        outcome
            .spans
            .extend(phases.iter().flat_map(|p| &p.records).map(|r| {
                Json::obj([
                    ("span", Json::Str("client.request".into())),
                    ("id", Json::Int(r.corr)),
                    ("reg", Json::Str(names[r.reg].clone())),
                    ("sched_ns", Json::Int(r.sched)),
                    ("send_start_ns", Json::Int(r.send_start)),
                    ("send_end_ns", Json::Int(r.send_end)),
                    ("recv_ns", Json::Int(r.recv)),
                    (
                        "status",
                        Json::Str(r.status.map_or("none", Status::as_str).into()),
                    ),
                ])
            }));
    }
}

/// `interactive`: Poisson arrivals at [`INTERACTIVE_RATE`] for `secs`.
pub fn interactive(seed: u64, secs: f64, trace: bool) -> io::Result<Outcome> {
    let (mut b, setups) = setup(seed, trace)?;
    let p = b.phase(INTERACTIVE_RATE, secs)?;
    let lat = p.latency();
    let windows = p.window_latencies(WINDOWS)?;
    for w in &windows {
        w.check_tail("interactive window")?;
    }
    let tails: Vec<f64> = windows.iter().map(|w| w.p99).collect();
    let p99 = stats::median(&tails).expect("at least one window");
    let mut o = Outcome::new(p.records.len() as u64, p.failed as u64);
    o.report.push_str(&format!(
        "interactive: open loop, Poisson {INTERACTIVE_RATE}/s for {secs} s, 1 connection, {} registrations\n",
        b.regs.len()
    ));
    o.report.push_str(&phase_line("timed", &p));
    let shown: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.4} (n={}, {} beyond)", w.p99, w.n, w.beyond_p99()))
        .collect();
    o.report.push_str(&format!(
        "p99 {p99:.4} ms: the median of the {WINDOWS} windows' p99s [{}]; pooled p99 {:.4} ms\n",
        shown.join(", "),
        lat.p99
    ));
    o.samples.push(("p50_ms", lat.n));
    o.samples.push((
        "p99_ms per window",
        windows.iter().map(|w| w.n).min().unwrap_or(0),
    ));
    o.end_to_end.insert("p50_ms", lat.p50);
    o.end_to_end.insert("p99_ms", p99);
    o.end_to_end.insert("rate_per_s", p.achieved_rate());
    phase_layers(&[&p], lat.p50, &mut o.per_layer);
    if let Some(s) = &b.sink {
        let batches = s.batches();
        span_layers(&b.regs, &batches, &mut o.per_layer, &mut o.report);
        let by_id: HashMap<u64, &BatchSpan> = batches
            .iter()
            .filter(|b| b.size() == 1)
            .map(|b| (b.ids[0], b))
            .collect();
        let stamps: Vec<Stamps> = p
            .records
            .iter()
            .filter(|r| r.answered_ok())
            .filter_map(|r| {
                by_id.get(&r.corr).map(|b| Stamps {
                    sched: r.sched,
                    send_start: r.send_start,
                    send_end: r.send_end,
                    batch_start: b.start,
                    fwd_start: b.decoded,
                    fwd_end: b.forwarded,
                    batch_end: b.end,
                    recv: r.recv,
                })
            })
            .collect();
        let s = &p.stats.server;
        if let Some(l) = ledger::build(&stamps, ms(s.queue_wait.p50_s), ms(s.delivery.p50_s)) {
            o.report.push_str(
                "batch-of-one ledger (p50 per stage; edge rows use the server's stage medians):\n",
            );
            o.report.push_str(&l.render());
            o.per_layer.insert("ledger.residual_p50_ms", l.residual_ms);
        }
    }
    common(&mut o, &b, &setups, &[&p]);
    Ok(o)
}

/// `saturation`: [`ROUNDS`] rounds of a fixed high rung and an overload
/// chunk, so both measurements sample the whole run rather than one
/// stretch of a shared host; then one pass up the ladder for the
/// latency-limited maximum rate.
pub fn saturation(seed: u64, secs: f64, trace: bool) -> io::Result<Outcome> {
    let (mut b, setups) = setup(seed, trace)?;
    let high_s = secs * 0.6 / ROUNDS as f64;
    let overload_s = secs * 0.2 / ROUNDS as f64;
    let rung_s = secs * 0.2 / LADDER.len() as f64;
    let mut high = Vec::new();
    let mut overload = Vec::new();
    for _ in 0..ROUNDS {
        high.push(b.phase(HIGH_RATE, high_s)?);
        overload.push(b.phase(OVERLOAD_RATE, overload_s)?);
    }
    let mut ladder = Vec::new();
    for &rate in &LADDER {
        let p = b.phase(rate, rung_s)?;
        let pass = p.passes();
        ladder.push(p);
        if !pass {
            break;
        }
    }
    let all: Vec<&PhaseRun> = high.iter().chain(&overload).chain(&ladder).collect();
    let high: Vec<&PhaseRun> = high.iter().collect();
    let lat = pooled_latency(&high);
    lat.check_tail("saturation high rung")?;
    let overload: Vec<&PhaseRun> = overload.iter().collect();
    let rate = overload
        .iter()
        .map(|p| p.achieved_rate())
        .fold(0.0, f64::max);
    let attempted: usize = all.iter().map(|p| p.records.len()).sum();
    let failed: usize = all.iter().map(|p| p.failed).sum();
    let mut o = Outcome::new(attempted as u64, failed as u64);
    o.report.push_str(&format!(
        "saturation: open loop; {ROUNDS} rounds of {HIGH_RATE}/s for {high_s:.2} s then {OVERLOAD_RATE}/s for {overload_s:.2} s; then ladder rungs of {rung_s:.2} s until p99 > {LATENCY_LIMIT_MS} ms, a failure, or a growing backlog\n"
    ));
    for (h, v) in high.iter().zip(&overload) {
        o.report.push_str(&phase_line("high rung", h));
        o.report.push_str(&phase_line("overload", v));
    }
    for p in &ladder {
        o.report.push_str(&phase_line("rung", p));
    }
    let best = ladder.iter().take_while(|p| p.passes()).last();
    o.report.push_str(&format!(
        "max_rate_rps = {:.1} req/s: achieved rate at the highest passing rung (offered {})\n",
        best.map_or(0.0, PhaseRun::achieved_rate),
        best.map_or(0.0, |p| p.rate)
    ));
    o.report.push_str(&format!(
        "saturated throughput = {rate:.1} req/s, the best of the {ROUNDS} overload chunks (offered {OVERLOAD_RATE}/s; pooled {:.1} req/s)\n",
        pooled_rate(&overload)
    ));
    o.report.push_str(&format!(
        "high rung over the {ROUNDS} rounds: p50 {:.4} ms  p99 {:.4} ms (n={}, {} beyond)\n",
        lat.p50,
        lat.p99,
        lat.n,
        lat.beyond_p99()
    ));
    o.samples.push(("p50_ms/p99_ms", lat.n));
    o.end_to_end.insert("p50_ms", lat.p50);
    o.end_to_end.insert("p99_ms", lat.p99);
    o.end_to_end.insert("rate_per_s", rate);
    phase_layers(&high, lat.p50, &mut o.per_layer);
    if let Some(s) = &b.sink {
        span_layers(&b.regs, &s.batches(), &mut o.per_layer, &mut o.report);
    }
    common(&mut o, &b, &setups, &all);
    Ok(o)
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_by_scheduled_time() {
        let rec = |sched: u64, recv: u64| Record {
            sched,
            recv,
            status: Some(Status::Ok),
            ..Record::default()
        };
        // Sent at 0..=9 ms, each answered 1 ms (or, the last, 5 ms) later.
        let mut records: Vec<Record> = (0..10u64)
            .map(|i| rec(i * 1_000_000, i * 1_000_000 + 1_000_000))
            .collect();
        records[9].recv = 9_000_000 + 5_000_000;
        records.push(Record {
            sched: 4_500_000,
            ..Record::default()
        });
        let w = windows(&records, 2);
        assert_eq!(w[1], [1.0, 1.0, 1.0, 1.0, 5.0]);
        // The unanswered request, scheduled in the first half, misses
        // every limit there.
        assert_eq!(w[0][..5], [1.0; 5]);
        assert_eq!(w[0].len(), 6);
        assert!(w[0][5].is_infinite());
        assert_eq!(windows(&records, 1)[0].len(), 11);
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let bits = |seed| -> Vec<Vec<u32>> {
            inputs(seed)
                .iter()
                .flat_map(|imgs| {
                    imgs.iter()
                        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
                })
                .collect()
        };
        let a = bits(3);
        assert_eq!(a.len(), MODELS.len() * IMAGES);
        assert_eq!(a, bits(3));
        assert_ne!(a, bits(4));
    }

    #[test]
    fn request_payloads_round_trip_through_the_adapter_codec() {
        let imgs = inputs(9);
        let img = &imgs[0][5];
        let payload = codec::encode(7 << 32 | 5, img.data());
        let (id, values) = codec::decode(&payload, img.len()).expect("model-sized payload");
        assert_eq!(id, 7 << 32 | 5);
        assert_eq!(
            Tensor::from_vec(&dnn::models::INPUT_SHAPE, values).data(),
            img.data()
        );
    }
}
