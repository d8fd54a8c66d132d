//! `lpq_search`: fixed-seed quick LPQ searches on `resnet18` then
//! `deit_s`, with no server running and nothing else competing for the
//! cores.
//!
//! Each repetition runs the search pair and then replays the winning
//! history of each search through the public calls the search makes
//! internally — `Lpq::resolve`, `Model::quantize_weights`,
//! `Model::forward_traced` and `FitnessEvaluator::fitness` — timing each
//! call. Repetitions continue until `--seconds` have passed.
//!
//! `setup_s` is the median of model build plus `Lpq::new` over the
//! repetitions and [`SETUPS`] extra set-ups. The search's pace and the
//! replayed forwards are taken at their best over the repetitions: a
//! shared host's neighbours slow compute for seconds at a time but never
//! speed it up, and medians pooled over repetitions moved by a quarter to
//! a half between identical runs on a busy host. So `rate_per_s` is the
//! evaluation count over the sum of each model's fastest `Lpq::run`, and
//! the replayed forwards give the latency percentiles — one
//! fake-quantized calibration forward is the search's unit of work —
//! each forward's sample being its fastest timing over all repetitions.
//! Every repetition replays the same forwards: the search is
//! deterministic, and checked to be.

use crate::spans::{self, Sink};
use crate::stats::{self, Summary};
use crate::Outcome;
use dnn::graph::{ForwardTrace, QuantScheme};
use lpq::objective::FitnessEvaluator;
use lpq::search::{Lpq, LpqResult};
use lpq::Candidate;
use serve::pool::Pool;
use std::io;
use std::sync::Arc;

/// Models searched, in order, with the evaluation count and the bits of
/// the best fitness the quick preset must reproduce (LPQ seed 7).
pub const EXPECTED: [(&str, usize, u64); 2] = [
    ("resnet18", 32, 0x400d_aa26_9cf4_ae7b),
    ("deit_s", 120, 0x3ff9_359e_9706_8c76),
];

/// Back-to-back timed runs of each replayed forward per repetition, so
/// one run is past the cache misses of freshly quantized weights.
const REPLAY_RUNS: usize = 2;

/// Set-ups of both models before the first repetition, for a steadier
/// `setup_s` median than the repetitions alone give.
const SETUPS: usize = 8;

/// One search as run and checked.
struct Search {
    setup_s: f64,
    search_s: f64,
    result: LpqResult,
}

fn secs(a: u64, b: u64) -> f64 {
    (b - a) as f64 / 1e9
}

fn search(name: &'static str, sink: &Option<Arc<Sink>>) -> Search {
    let t0 = spans::now_ns();
    let model = dnn::models::by_name(name);
    let lpq = Lpq::new(&model, bench::config_for(&model));
    let t1 = spans::now_ns();
    let result = lpq.run();
    let t2 = spans::now_ns();
    if let Some(s) = sink {
        s.span("lpq.new", name, t0, t1);
        s.span("lpq.run", name, t1, t2);
    }
    Search {
        setup_s: secs(t0, t1),
        search_s: secs(t1, t2),
        result,
    }
}

/// Per-call times of one replay, in milliseconds.
#[derive(Default)]
struct Replay {
    quantize_ms: Vec<f64>,
    forward_ms: Vec<f64>,
    fitness_ms: Vec<f64>,
}

/// Replays `result`'s best history; returns whether the replayed fitness
/// of the final best candidate has the search's bits.
fn replay(
    name: &'static str,
    result: &LpqResult,
    sink: &Option<Arc<Sink>>,
    out: &mut Replay,
) -> bool {
    let model = dnn::models::by_name(name);
    let cfg = bench::config_for(&model);
    let calib: Vec<_> = dnn::data::calibration_set(&model)
        .into_iter()
        .take(cfg.calib_size)
        .collect();
    let fp: Vec<ForwardTrace> = calib
        .iter()
        .map(|x| model.forward_traced(x, None, true))
        .collect();
    let evaluator = FitnessEvaluator::new(
        cfg.objective,
        cfg.tau,
        cfg.lambda,
        &fp,
        model.layer_param_counts(),
    );
    let lpq = Lpq::new(&model, cfg);
    let mut last = None;
    for (k, cand) in result.best_history.iter().enumerate() {
        let key = || format!("{name}#{k}");
        let t0 = spans::now_ns();
        let qm = model.quantize_weights(&weight_scheme(&lpq, cand));
        let t1 = spans::now_ns();
        let traces: Vec<ForwardTrace> = calib
            .iter()
            .map(|x| {
                let mut runs = Vec::with_capacity(REPLAY_RUNS);
                let mut trace = None;
                for _ in 0..REPLAY_RUNS {
                    let a = spans::now_ns();
                    trace = Some(qm.forward_traced(x, None, evaluator.needs_irs()));
                    let b = spans::now_ns();
                    runs.push((b - a) as f64 / 1e6);
                    if let Some(s) = sink {
                        s.span("lpq.replay.forward", key(), a, b);
                    }
                }
                out.forward_ms
                    .push(runs.iter().copied().fold(f64::INFINITY, f64::min));
                trace.expect("at least one run")
            })
            .collect();
        let t2 = spans::now_ns();
        last = Some(evaluator.fitness(&traces, cand));
        let t3 = spans::now_ns();
        out.quantize_ms.push((t1 - t0) as f64 / 1e6);
        out.fitness_ms.push((t3 - t2) as f64 / 1e6);
        if let Some(s) = sink {
            s.span("lpq.replay.quantize", key(), t0, t1);
            s.span("lpq.replay.fitness", key(), t2, t3);
        }
    }
    let best = result.fitness_history.last().map(|f| f.to_bits());
    last.map(f64::to_bits) == best && best.is_some()
}

/// The weight-only scheme the search builds for a candidate.
fn weight_scheme(lpq: &Lpq<'_>, cand: &Candidate) -> QuantScheme {
    QuantScheme::new(
        lpq.resolve(cand)
            .into_iter()
            .map(|p| Some(Arc::new(p) as Arc<dyn lp::Quantizer + Send + Sync>))
            .collect(),
        vec![None; cand.len()],
    )
}

/// Runs search-and-replay repetitions, at least one and until `secs`
/// have passed.
pub fn lpq_search(secs_budget: f64, trace: bool) -> io::Result<Outcome> {
    let sink = trace.then(|| Arc::new(Sink::default()));
    let mut setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            EXPECTED
                .iter()
                .map(|&(name, _, _)| {
                    let t0 = spans::now_ns();
                    let model = dnn::models::by_name(name);
                    let lpq = Lpq::new(&model, bench::config_for(&model));
                    let t1 = spans::now_ns();
                    drop(lpq);
                    secs(t0, t1)
                })
                .sum()
        })
        .collect();
    let start = spans::now_ns();
    let mut pairs: Vec<Vec<Search>> = Vec::new();
    let mut rep = Replay::default();
    let mut failed = 0u64;
    let mut report = String::new();
    while pairs.is_empty() || secs(start, spans::now_ns()) < secs_budget {
        let pair: Vec<Search> = EXPECTED
            .iter()
            .map(|&(name, _, _)| search(name, &sink))
            .collect();
        let first = rep.forward_ms.len();
        for (s, &(name, _, _)) in pair.iter().zip(&EXPECTED) {
            if !replay(name, &s.result, &sink, &mut rep) {
                failed += 1;
                report.push_str(&format!(
                    "  {name}: replayed best fitness differs from the search's\n"
                ));
            }
        }
        // Same forwards in every repetition: the same count as each
        // earlier repetition's.
        let added = rep.forward_ms.len() - first;
        if added == 0 || added * pairs.len() != first {
            return Err(io::Error::other(
                "a repetition replayed no forwards or a different number of them",
            ));
        }
        pairs.push(pair);
    }
    let pool = Pool::global().stats();

    report.insert_str(0, &format!(
        "lpq_search: quick-preset LPQ ({} then {}), {} repetitions of search then replay, no server\n",
        EXPECTED[0].0,
        EXPECTED[1].0,
        pairs.len()
    ));
    for pair in &pairs {
        for (s, &(name, evals, bits)) in pair.iter().zip(&EXPECTED) {
            let got = s.result.fitness_history.last().map(|f| f.to_bits());
            let ok = s.result.evaluations == evals && got == Some(bits);
            failed += u64::from(!ok);
            report.push_str(&format!(
                "  {name:<9} setup {:.4} s  search {:.3} s  evaluations {} (want {evals})  best fitness bits {:016x} (want {bits:016x})  {}\n",
                s.setup_s,
                s.search_s,
                s.result.evaluations,
                got.unwrap_or(0),
                if ok { "ok" } else { "MISMATCH" }
            ));
        }
    }
    let pair_sums = |f: fn(&Search) -> f64| -> Vec<f64> {
        pairs.iter().map(|p| p.iter().map(f).sum()).collect()
    };
    setups.extend(pair_sums(|s| s.setup_s));
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let search_s: f64 = (0..EXPECTED.len())
        .map(|m| {
            pairs
                .iter()
                .map(|p| p[m].search_s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let evaluations: usize = pairs[0].iter().map(|s| s.result.evaluations).sum();
    let rate_per_s = evaluations as f64 / search_s;

    let per_rep = rep.forward_ms.len() / pairs.len();
    let fastest: Vec<f64> = (0..per_rep)
        .map(|i| {
            rep.forward_ms[i..]
                .iter()
                .step_by(per_rep)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let forwards = Summary::of(&fastest).expect("replay ran forwards");
    forwards.check_tail("lpq_search replay")?;
    let (p50_ms, p99_ms) = (forwards.p50, forwards.p99);
    let tails: Vec<f64> = rep
        .forward_ms
        .chunks(per_rep)
        .map(|c| Summary::of(c).expect("replay ran forwards").p99)
        .collect();
    report.push_str(&format!(
        "search_s = {search_s:.4} s (each model's fastest search; pairs took [{}]), {evaluations} evaluations, {:.2} ms per evaluation, {rate_per_s:.2} evaluations/s\n",
        pair_sums(|s| s.search_s)
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        search_s * 1e3 / evaluations as f64
    ));
    report.push_str(&format!(
        "setup_s = {setup_s:.4} s, median of {} set-ups of both models\n",
        setups.len()
    ));
    let shown: Vec<String> = tails.iter().map(|t| format!("{t:.4}")).collect();
    report.push_str(&format!(
        "replayed forwards, each the fastest of its {REPLAY_RUNS} runs in each of {} repetitions: p50 {p50_ms:.4} ms  p99 {p99_ms:.4} ms (n={}, {} beyond); single repetitions' p99 [{}]\n",
        pairs.len(),
        forwards.n,
        forwards.beyond_p99(),
        shown.join(", ")
    ));

    // Each search and each replay is one checked operation.
    let attempted = (2 * pairs.len() * EXPECTED.len()) as u64;
    let mut o = Outcome::new(attempted, failed);
    o.report = report;
    o.samples.push(("p50_ms/p99_ms", forwards.n));
    o.samples.push(("search_s", pairs.len()));
    o.end_to_end.insert("setup_s", setup_s);
    o.end_to_end.insert("p50_ms", p50_ms);
    o.end_to_end.insert("p99_ms", p99_ms);
    o.end_to_end.insert("rate_per_s", rate_per_s);
    o.per_layer.insert("lpq.prep_s", setup_s);
    o.per_layer.insert("lpq.evaluations", evaluations as f64);
    o.per_layer
        .insert("lpq.eval_ms", search_s * 1e3 / evaluations as f64);
    let p50 = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    o.per_layer
        .insert("lpq.replay.quantize_ms", p50(&rep.quantize_ms));
    o.per_layer.insert("lpq.replay.forward_ms", p50_ms);
    o.per_layer
        .insert("lpq.replay.fitness_ms", p50(&rep.fitness_ms));
    o.per_layer
        .insert("pool.executed", pool.total_executed() as f64);
    o.per_layer
        .insert("pool.stolen", pool.total_stolen() as f64);
    o.per_layer.insert("pool.parks", pool.total_parks() as f64);
    // Read before the spans are rendered for writing out.
    o.end_to_end
        .insert("peak_rss_mb", crate::host::peak_rss_mb());
    if let Some(s) = &sink {
        o.spans.extend(s.spans().iter().map(spans::span_json));
    }
    Ok(o)
}
